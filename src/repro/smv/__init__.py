"""SMV modelling language substrate.

A faithful subset of the nuXmv input language — the formal language the
paper translates trained networks into (§IV-A):

- ``MODULE`` with ``VAR`` (boolean, bounded-integer range, symbolic enum),
  ``DEFINE`` macros, ``ASSIGN`` with ``init()``/``next()`` and
  non-deterministic set expressions;
- expressions with nuXmv operator precedence, ``case … esac``, ``max`` /
  ``min`` / ``abs`` builtins;
- ``INVARSPEC`` and the LTL safety fragment (``G``, ``F``, ``X``, ``U``
  parse; the checker engines handle the safety subset).

The module AST round-trips through the pretty-printer, and the type
checker rejects ill-typed models before any engine sees them.
"""

from .ast import (
    Assignments,
    BinOp,
    BoolLit,
    BoolType,
    CaseExpr,
    Call,
    EnumType,
    Expr,
    Ident,
    IntLit,
    LtlBin,
    LtlExpr,
    LtlProp,
    LtlUnary,
    RangeType,
    SetExpr,
    SmvModule,
    TypeSpec,
    UnaryOp,
)
from .lexer import Token, TokenType, tokenize
from .parser import parse_expression, parse_module
from .printer import print_expression, print_module
from .typecheck import TypeChecker, check_module

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "parse_module",
    "parse_expression",
    "print_module",
    "print_expression",
    "check_module",
    "TypeChecker",
    "SmvModule",
    "Assignments",
    "Expr",
    "IntLit",
    "BoolLit",
    "Ident",
    "UnaryOp",
    "BinOp",
    "CaseExpr",
    "Call",
    "SetExpr",
    "TypeSpec",
    "BoolType",
    "RangeType",
    "EnumType",
    "LtlExpr",
    "LtlProp",
    "LtlUnary",
    "LtlBin",
]
