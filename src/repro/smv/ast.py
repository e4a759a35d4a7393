"""AST node definitions for the SMV subset.

Expression nodes are immutable dataclasses, hashable so engines can use
them as cache keys.  LTL formulas wrap propositional expressions in a
separate node family — temporal operators never appear inside arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- types -------------------------------------------------------------------


class TypeSpec:
    """Base class of variable type specifications."""

    def values(self) -> list:
        """All values of the (finite) domain."""
        raise NotImplementedError


@dataclass(frozen=True)
class BoolType(TypeSpec):
    def values(self) -> list:
        return [False, True]

    def __repr__(self):
        return "boolean"


@dataclass(frozen=True)
class RangeType(TypeSpec):
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"empty range {self.low}..{self.high}")

    def values(self) -> list:
        return list(range(self.low, self.high + 1))

    def __repr__(self):
        return f"{self.low}..{self.high}"


@dataclass(frozen=True)
class EnumType(TypeSpec):
    symbols: tuple[str, ...]

    def values(self) -> list:
        return list(self.symbols)

    def __repr__(self):
        return "{" + ", ".join(self.symbols) + "}"


# -- expressions -----------------------------------------------------------------


class Expr:
    """Base class of SMV expressions."""


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" | "!"
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / mod = != < <= > >= & | -> <->
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Builtin function application: max, min, abs."""

    func: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``case c1 : e1; …; cn : en; esac`` — first true guard wins."""

    branches: tuple[tuple[Expr, Expr], ...]


@dataclass(frozen=True)
class SetExpr(Expr):
    """``{e1, …, en}`` — non-deterministic choice in assignments."""

    items: tuple[Expr, ...]


# -- LTL ---------------------------------------------------------------------------


class LtlExpr:
    """Base class of LTL formulas."""


@dataclass(frozen=True)
class LtlProp(LtlExpr):
    """A propositional (state) formula used atomically inside LTL."""

    expr: Expr


@dataclass(frozen=True)
class LtlUnary(LtlExpr):
    op: str  # "G" | "F" | "X" | "!"
    operand: LtlExpr


@dataclass(frozen=True)
class LtlBin(LtlExpr):
    op: str  # "U" | "&" | "|" | "->"
    left: LtlExpr
    right: LtlExpr


# -- module ------------------------------------------------------------------------


@dataclass
class Assignments:
    """``ASSIGN`` section: ``init(v) :=`` and ``next(v) :=`` maps."""

    init: dict[str, Expr] = field(default_factory=dict)
    next: dict[str, Expr] = field(default_factory=dict)


@dataclass
class SmvModule:
    """One ``MODULE`` (the subset supports a single flat module)."""

    name: str
    variables: dict[str, TypeSpec] = field(default_factory=dict)
    defines: dict[str, Expr] = field(default_factory=dict)
    assigns: Assignments = field(default_factory=Assignments)
    invarspecs: list[Expr] = field(default_factory=list)
    ltlspecs: list[LtlExpr] = field(default_factory=list)
