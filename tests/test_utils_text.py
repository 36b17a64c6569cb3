"""Tests for text utilities."""

from collections import Counter

from hypothesis import example, given
from hypothesis import strategies as st

from repro.utils.text import (
    _WORD_RE,
    STOPWORDS,
    approx_token_count,
    extract_keywords,
    jaccard_similarity,
    normalize_text,
    snippet,
    tokenize,
)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello, World! Foo-bar") == ["hello", "world", "foo", "bar"]


def test_tokenize_keeps_numbers_and_underscores():
    assert tokenize("2024 identity_theft") == ["2024", "identity_theft"]


def test_tokenize_empty():
    assert tokenize("") == []


@given(st.text(max_size=200))
def test_tokenize_equals_match_by_match_formula(text):
    assert tokenize(text) == [m.group(0).lower() for m in _WORD_RE.finditer(text)]


#: Every ASCII character between two word characters (so each one either
#: splits a token or joins one), whitespace runs, and ``'``/``_`` runs.
EVERY_ASCII = (
    "".join(f"Tok{chr(code)}en " for code in range(128))
    + " \t\n\r\x0b\x0c  x_y don't ''' ___ _'_ \x1c\x1d\x1e\x1f end"
)


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=3000))
@example(EVERY_ASCII)
def test_ascii_tokenize_equals_match_by_match_formula(text):
    assert tokenize(text) == [m.group(0).lower() for m in _WORD_RE.finditer(text)]


def test_ascii_separators_are_exactly_the_non_word_characters():
    expected = []
    for code in range(128):
        char = chr(code)
        joins = char.isalnum() or char in "_'"
        expected += [f"tok{char.lower()}en"] if joins else ["tok", "en"]
    expected += ["x_y", "don't", "'''", "___", "_'_", "end"]
    assert EVERY_ASCII.isascii()
    assert tokenize(EVERY_ASCII) == expected


def _keywords_by_first_position(text: str, limit: int) -> list[str]:
    """The ranking as first written: frequency, then first position."""
    tokens = [tok for tok in tokenize(text) if tok not in STOPWORDS and len(tok) > 1]
    counts = Counter(tokens)
    first_pos = {}
    for pos, tok in enumerate(tokens):
        first_pos.setdefault(tok, pos)
    ranked = sorted(counts, key=lambda tok: (-counts[tok], first_pos[tok]))
    return ranked[:limit]


@given(
    st.lists(
        st.sampled_from(["apple", "banana", "cherry", "the", "a", "x", "Date", "date"]),
        max_size=60,
    ).map(" ".join)
    | st.text(max_size=300),
    st.integers(min_value=0, max_value=30),
)
def test_extract_keywords_equals_first_position_ranking(text, limit):
    assert extract_keywords(text, limit) == _keywords_by_first_position(text, limit)


def test_tokenize_matches_before_lowercasing():
    # U+212A KELVIN SIGN lower-cases to ASCII "k"; it is not a word character
    # of the pattern, so it must split tokens, not join them.
    assert tokenize("a\u212ab") == ["a", "b"]


def test_normalize_text_collapses_whitespace():
    assert normalize_text("  A \n B\tC ") == "a b c"


def test_approx_token_count_empty():
    assert approx_token_count("") == 0


def test_approx_token_count_scales_with_length():
    short = approx_token_count("hello world")
    long = approx_token_count("hello world " * 100)
    assert long > 50 * short


def test_approx_token_count_at_least_word_count():
    text = "a b c d e f g"
    assert approx_token_count(text) >= 7


def test_extract_keywords_drops_stopwords():
    keywords = extract_keywords("the identity theft reports of the year")
    assert "the" not in keywords
    assert "identity" in keywords


def test_extract_keywords_ranked_by_frequency():
    keywords = extract_keywords("apple banana apple cherry apple banana")
    assert keywords[0] == "apple"
    assert keywords[1] == "banana"


def test_extract_keywords_limit():
    text = " ".join(f"word{i}" for i in range(50))
    assert len(extract_keywords(text, limit=5)) == 5


def test_snippet_short_text_unchanged():
    assert snippet("short text") == "short text"


def test_snippet_truncates_with_ellipsis():
    result = snippet("x" * 500, max_chars=100)
    assert len(result) == 100
    assert result.endswith("...")


def test_snippet_flattens_newlines():
    assert "\n" not in snippet("a\nb\nc")


def test_jaccard_identical():
    assert jaccard_similarity("identity theft data", "identity theft data") == 1.0


def test_jaccard_disjoint():
    assert jaccard_similarity("apple banana", "quartz feldspar") == 0.0


def test_jaccard_both_empty():
    assert jaccard_similarity("", "") == 1.0


def test_jaccard_one_empty():
    assert jaccard_similarity("apple", "") == 0.0


@given(st.text(max_size=300))
def test_tokenize_tokens_are_lowercase(text):
    assert all(token == token.lower() for token in tokenize(text))


@given(st.text(max_size=300), st.text(max_size=300))
def test_jaccard_symmetric(a, b):
    assert jaccard_similarity(a, b) == jaccard_similarity(b, a)


@given(st.text(max_size=300))
def test_token_count_nonnegative(text):
    assert approx_token_count(text) >= 0
