"""AST node definitions for the SQL engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: str | None = None

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    table: str | None = None


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # lowercased
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False  # COUNT(*)


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" | "not"
    operand: Expr


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    options: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Subquery(Expr):
    """A parenthesized SELECT used as a scalar expression."""

    select: "Select"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expr
    select: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class CaseWhen(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    otherwise: Expr | None = None


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    kind: str  # "inner" | "left"
    table: TableRef
    condition: Expr


@dataclass
class Select:
    items: list[SelectItem]
    table: TableRef | None = None
    joins: list[Join] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)  # (expr, desc)
    limit: int | None = None
    distinct: bool = False


def walk_expression(expr: Expr):
    """Yield every node of an expression tree, root first, children in
    field order (a subquery's SELECT is not entered)."""
    yield expr
    for value in vars(expr).values():
        for child in value if isinstance(value, tuple) else (value,):
            for node in child if isinstance(child, tuple) else (child,):
                if isinstance(node, Expr):
                    yield from walk_expression(node)
