"""Text utilities: tokenization, normalization, token estimation, keywords.

These back both the simulated LLM (token-based pricing and latency) and the
deterministic embedding model (bag-of-token feature hashing).
"""

from __future__ import annotations

import re
from collections import Counter

_WORD_RE = re.compile(r"[A-Za-z0-9_']+")

#: Every ASCII character outside ``_WORD_RE``'s class becomes a space, so on
#: ASCII text ``split`` yields exactly the pattern's runs.
_ASCII_SEPARATORS = str.maketrans(
    {chr(code): " " for code in range(128) if not _WORD_RE.match(chr(code))}
)

# Small stopword list: enough to make keyword extraction and embeddings
# discriminative without shipping a full NLP stack.
STOPWORDS = frozenset(
    """
    a an and are as at be been but by for from had has have he her his i if in
    is it its me my not of on or our she so that the their them they this to
    was we were what when which who will with you your
    """.split()
)


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase word tokens.

    ``_WORD_RE`` is the definition: runs are matched before lowercasing,
    so a non-ASCII letter that lowercases to ASCII (the Kelvin sign)
    still separates.  ASCII text takes the equivalent one-pass form.
    """
    if text.isascii():
        return text.lower().translate(_ASCII_SEPARATORS).split()
    return [word.lower() for word in _WORD_RE.findall(text)]


def normalize_text(text: str) -> str:
    """Lowercase and collapse whitespace; used for cache keys and matching."""
    return " ".join(text.lower().split())


def approx_token_count(text: str) -> int:
    """Estimate LLM token count for ``text``.

    Uses the standard ~4 characters/token heuristic with a floor of one token
    per word, which tracks real BPE tokenizers closely enough for pricing.
    """
    if not text:
        return 0
    by_chars = max(1, round(len(text) / 4))
    by_words = len(text.split())
    return max(by_chars, by_words)


def extract_keywords(text: str, limit: int = 12) -> list[str]:
    """Return up to ``limit`` informative tokens from ``text``.

    Stopwords are removed and remaining tokens ranked by frequency then by
    first appearance (``most_common`` is stable on ties).
    """
    tokens = [tok for tok in tokenize(text) if tok not in STOPWORDS and len(tok) > 1]
    return [tok for tok, _ in Counter(tokens).most_common(limit)]


def snippet(text: str, max_chars: int = 200) -> str:
    """Return a single-line preview of ``text`` capped at ``max_chars``."""
    flat = " ".join(text.split())
    if len(flat) <= max_chars:
        return flat
    return flat[: max_chars - 3] + "..."


def jaccard_similarity(text_a: str, text_b: str) -> float:
    """Jaccard similarity of the token sets of two strings (0.0 .. 1.0)."""
    set_a = set(tokenize(text_a)) - STOPWORDS
    set_b = set(tokenize(text_b)) - STOPWORDS
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)
