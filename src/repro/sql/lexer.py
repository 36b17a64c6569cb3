"""SQL lexer: source text to a token stream."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SQLSyntaxError

#: The words the SELECT grammar reads; any other word (``table``,
#: ``text``, ``insert`` ...) is an identifier, as in sqlite.
KEYWORDS = frozenset(
    """
    select from where group by having order asc desc limit join inner left
    outer on as and or not in between like is null true false distinct
    case when then else end
    """.split()
)

#: Multi-character operators, longest first so the scanner is greedy.
_OPERATORS = ("<>", "!=", ">=", "<=", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCTUATION = ("(", ")", ",", ".", ";")


@dataclass(frozen=True)
class Token:
    kind: str  # "keyword" | "ident" | "number" | "string" | "op" | "punct" | "eof"
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.value == word


def tokenize_sql(sql: str) -> list[Token]:
    """Tokenize ``sql``, raising :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    index = 0
    length = len(sql)
    while index < length:
        char = sql[index]
        if char.isspace():
            index += 1
            continue
        if sql.startswith("--", index):
            newline = sql.find("\n", index)
            index = length if newline == -1 else newline + 1
            continue
        if char == "'":
            end = index + 1
            chunks = []
            while True:
                if end >= length:
                    raise SQLSyntaxError(f"unterminated string literal at {index}")
                if sql[end] == "'":
                    if end + 1 < length and sql[end + 1] == "'":
                        chunks.append("'")
                        end += 2
                        continue
                    break
                chunks.append(sql[end])
                end += 1
            tokens.append(Token("string", "".join(chunks), index))
            index = end + 1
            continue
        if char.isdigit() or (char == "." and index + 1 < length and sql[index + 1].isdigit()):
            end = index
            seen_dot = False
            while end < length and (sql[end].isdigit() or (sql[end] == "." and not seen_dot)):
                if sql[end] == ".":
                    seen_dot = True
                end += 1
            tokens.append(Token("number", sql[index:end], index))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[index:end]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, index))
            else:
                tokens.append(Token("ident", word, index))
            index = end
            continue
        if char == '"':
            end = sql.find('"', index + 1)
            if end == -1:
                raise SQLSyntaxError(f"unterminated quoted identifier at {index}")
            tokens.append(Token("ident", sql[index + 1 : end], index))
            index = end + 1
            continue
        matched = False
        for operator in _OPERATORS:
            if sql.startswith(operator, index):
                tokens.append(Token("op", operator, index))
                index += len(operator)
                matched = True
                break
        if matched:
            continue
        if char in _PUNCTUATION:
            tokens.append(Token("punct", char, index))
            index += 1
            continue
        raise SQLSyntaxError(f"unexpected character {char!r} at position {index}")
    tokens.append(Token("eof", "", length))
    return tokens
