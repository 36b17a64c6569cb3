"""Recursive-descent SQL parser: one read-only SELECT, or one expression."""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    Select,
    SelectItem,
    Star,
    Subquery,
    TableRef,
    UnaryOp,
)
from repro.sql.lexer import Token, tokenize_sql

_COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")

#: Function names that aggregate a group rather than read one row.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


class Parser:
    """Parses one SELECT statement from a token stream."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check_keyword(self, word: str) -> bool:
        return self._peek().is_keyword(word)

    def _accept_keyword(self, word: str) -> bool:
        if self._check_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise SQLSyntaxError(
                f"expected {word.upper()} but found {self._peek().value!r} "
                f"at position {self._peek().position}"
            )

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token.kind == "punct" and token.value == char:
            self._advance()
            return True
        return False

    def _expect_punct(self, char: str) -> None:
        if not self._accept_punct(char):
            raise SQLSyntaxError(
                f"expected {char!r} but found {self._peek().value!r} "
                f"at position {self._peek().position}"
            )

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "ident":
            raise SQLSyntaxError(
                f"expected identifier but found {token.value!r} at position {token.position}"
            )
        self._advance()
        return token.value

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> Select:
        if not self._check_keyword("select"):
            token = self._peek()
            raise SQLSyntaxError(
                f"SQL is read-only: expected SELECT but found {token.value!r} "
                f"at position {token.position}"
            )
        statement = self._parse_select()
        self._accept_punct(";")
        if self._peek().kind != "eof":
            token = self._peek()
            raise SQLSyntaxError(
                f"unexpected trailing input {token.value!r} at position {token.position}"
            )
        return statement

    def _parse_select(self) -> Select:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        table = None
        joins: list[Join] = []
        if self._accept_keyword("from"):
            table = self._parse_table_ref()
            while True:
                if self._accept_keyword("join") or (
                    self._accept_keyword("inner") and self._expect_keyword("join") is None
                ):
                    kind = "inner"
                elif self._check_keyword("left"):
                    self._advance()
                    self._accept_keyword("outer")
                    self._expect_keyword("join")
                    kind = "left"
                else:
                    break
                join_table = self._parse_table_ref()
                self._expect_keyword("on")
                condition = self._parse_expr()
                joins.append(Join(kind, join_table, condition))

        where = self._parse_expr() if self._accept_keyword("where") else None

        group_by: list[Expr] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_expr())
            while self._accept_punct(","):
                group_by.append(self._parse_expr())

        having = self._parse_expr() if self._accept_keyword("having") else None

        order_by: list[tuple[Expr, bool]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())

        limit = None
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.kind != "number" or "." in token.value:
                raise SQLSyntaxError(f"LIMIT expects an integer, found {token.value!r}")
            self._advance()
            limit = int(token.value)

        return Select(
            items=items,
            table=table,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_order_item(self) -> tuple[Expr, bool]:
        expr = self._parse_expr()
        desc = False
        if self._accept_keyword("desc"):
            desc = True
        else:
            self._accept_keyword("asc")
        return expr, desc

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.kind == "op" and token.value == "*":
            self._advance()
            return SelectItem(Star())
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return TableRef(name, alias)

    # -- expressions -----------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.value in _COMPARISON_OPS:
            self._advance()
            return BinaryOp(token.value, left, self._parse_additive())
        if self._accept_keyword("is"):
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated)
        negated = self._accept_keyword("not")
        if self._accept_keyword("in"):
            self._expect_punct("(")
            if self._check_keyword("select"):
                subselect = self._parse_select()
                self._expect_punct(")")
                return InSubquery(left, subselect, negated)
            options = [self._parse_expr()]
            while self._accept_punct(","):
                options.append(self._parse_expr())
            self._expect_punct(")")
            return InList(left, tuple(options), negated)
        if self._accept_keyword("between"):
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        if self._accept_keyword("like"):
            return Like(left, self._parse_additive(), negated)
        if negated:
            raise SQLSyntaxError(
                f"expected IN, BETWEEN, or LIKE after NOT at position {self._peek().position}"
            )
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/", "%"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.kind == "op" and token.value == "-":
            self._advance()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)
        if token.kind == "string":
            self._advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.is_keyword("case"):
            return self._parse_case()
        if token.kind == "punct" and token.value == "(":
            self._advance()
            if self._check_keyword("select"):
                subselect = self._parse_select()
                self._expect_punct(")")
                return Subquery(subselect)
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.kind == "ident":
            return self._parse_ident_expr()
        raise SQLSyntaxError(
            f"unexpected token {token.value!r} at position {token.position}"
        )

    def _parse_case(self) -> Expr:
        self._expect_keyword("case")
        whens: list[tuple[Expr, Expr]] = []
        while self._accept_keyword("when"):
            condition = self._parse_expr()
            self._expect_keyword("then")
            whens.append((condition, self._parse_expr()))
        if not whens:
            raise SQLSyntaxError("CASE requires at least one WHEN clause")
        otherwise = self._parse_expr() if self._accept_keyword("else") else None
        self._expect_keyword("end")
        return CaseWhen(tuple(whens), otherwise)

    def _parse_ident_expr(self) -> Expr:
        name = self._expect_ident()
        if self._accept_punct("("):
            distinct = self._accept_keyword("distinct")
            star = False
            args: list[Expr] = []
            token = self._peek()
            if token.kind == "op" and token.value == "*":
                self._advance()
                star = True
            elif not (token.kind == "punct" and token.value == ")"):
                args.append(self._parse_expr())
                while self._accept_punct(","):
                    args.append(self._parse_expr())
            self._expect_punct(")")
            return FuncCall(name.lower(), tuple(args), distinct, star)
        if self._accept_punct("."):
            token = self._peek()
            if token.kind == "op" and token.value == "*":
                self._advance()
                return Star(table=name)
            column = self._expect_ident()
            return ColumnRef(column, table=name)
        return ColumnRef(name)


def parse_sql(sql: str) -> Select:
    """Parse one SELECT statement; any other statement is a syntax error."""
    return Parser(tokenize_sql(sql)).parse_statement()


def parse_expression(text: str) -> Expr:
    """Parse one standalone scalar/boolean expression.

    This is the entry point the semantic layer's structured predicates use
    (``Dataset.where``): the expression grammar is exactly the one accepted
    inside WHERE, so pushed-down and row-mode evaluation share a single
    parse.
    """
    parser = Parser(tokenize_sql(text))
    expr = parser._parse_expr()
    if parser._peek().kind != "eof":
        token = parser._peek()
        raise SQLSyntaxError(
            f"unexpected trailing input {token.value!r} at position {token.position} "
            f"in expression {text!r}"
        )
    return expr
