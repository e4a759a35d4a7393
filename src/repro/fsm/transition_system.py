"""Explicit transition system compiled from an SMV module."""

from __future__ import annotations

from itertools import product
from typing import Iterator

from ..errors import ModelCheckingError
from ..smv.ast import Expr, SmvModule
from ..smv.typecheck import check_module
from .evaluator import evaluate_choices, evaluate_expression

#: A state is a tuple of variable values, aligned with the declared order.
State = tuple


class TransitionSystem:
    """FSM semantics of a (type-checked) SMV module.

    States are value tuples in declaration order; ``as_dict`` converts to
    a name → value mapping for property evaluation and reporting.
    """

    def __init__(self, module: SmvModule, typecheck: bool = True):
        if typecheck:
            check_module(module)
        self.module = module
        self.var_names: list[str] = list(module.variables)
        self._domains: dict[str, list] = {
            name: spec.values() for name, spec in module.variables.items()
        }
        self._domain_sets = {name: set(values) for name, values in self._domains.items()}
        for name, domain in self._domains.items():
            if not domain:
                raise ModelCheckingError(f"variable {name!r} has an empty domain")

    # -- state helpers --------------------------------------------------------

    def as_dict(self, state: State) -> dict[str, object]:
        return dict(zip(self.var_names, state))

    def domain(self, name: str) -> list:
        return list(self._domains[name])

    def in_domain(self, name: str, value) -> bool:
        return value in self._domain_sets[name]

    # -- initial states -----------------------------------------------------------

    def initial_states(self) -> Iterator[State]:
        """Enumerate initial states.

        A variable with ``init()`` takes the assigned value(s); without it
        the whole domain is allowed (standard SMV open-initial semantics).
        """
        empty_state: dict[str, object] = {}
        per_var_choices: list[list] = []
        for name in self.var_names:
            init_expr = self.module.assigns.init.get(name)
            if init_expr is None:
                per_var_choices.append(self._domains[name])
            else:
                choices = [
                    value
                    for value in dict.fromkeys(
                        evaluate_choices(init_expr, empty_state, self.module)
                    )
                    if self.in_domain(name, value)
                ]
                if not choices:
                    return  # no legal initial value: empty initial set
                per_var_choices.append(choices)
        for values in product(*per_var_choices):
            yield tuple(values)

    # -- successors ------------------------------------------------------------------

    def successors(self, state: State) -> Iterator[State]:
        """Enumerate successors of ``state`` under the ``next()`` assignments."""
        context = self.as_dict(state)
        per_var_choices: list[list] = []
        for name in self.var_names:
            next_expr = self.module.assigns.next.get(name)
            if next_expr is None:
                per_var_choices.append(self._domains[name])
            else:
                choices = [
                    value
                    for value in dict.fromkeys(
                        evaluate_choices(next_expr, context, self.module)
                    )
                    if self.in_domain(name, value)
                ]
                if not choices:
                    return  # every choice out of range: dead state
                per_var_choices.append(choices)
        for values in product(*per_var_choices):
            yield tuple(values)

    def holds(self, expr: Expr, state: State) -> bool:
        """Truth of a boolean expression in ``state``."""
        value = evaluate_expression(expr, self.as_dict(state), self.module)
        if not isinstance(value, bool):
            raise ModelCheckingError("property expression is not boolean")
        return value

    # -- static diagnostics ------------------------------------------------------

    def validate(self) -> list[str]:
        """Lint for assignments that can produce out-of-range values.

        Out-of-range choices are dropped at runtime (the state deadlocks if
        nothing legal remains); this check surfaces them statically so a
        modelling bug does not hide behind that semantics.
        """
        from ..smv.ast import RangeType

        warnings = []
        for name, expr in self.module.assigns.next.items():
            spec = self.module.variables[name]
            if not isinstance(spec, RangeType):
                continue
            low, high = self._expression_range(expr, {})
            if low < spec.low or high > spec.high:
                warnings.append(
                    f"next({name}) may produce values in [{low}, {high}] "
                    f"outside {spec.low}..{spec.high}"
                )
        return warnings

    def _guard_refinements(self, guard, refinements: dict) -> dict:
        """Extend variable ranges implied by a simple comparison guard
        (``var < k`` etc. with a literal bound); conjunctions recurse."""
        from ..smv.ast import BinOp, Ident, IntLit

        result = dict(refinements)
        if isinstance(guard, BinOp):
            if guard.op == "&":
                result = self._guard_refinements(guard.left, result)
                result = self._guard_refinements(guard.right, result)
                return result
            if (
                guard.op in ("<", "<=", ">", ">=", "=")
                and isinstance(guard.left, Ident)
                and isinstance(guard.right, IntLit)
            ):
                name = guard.left.name
                bound = guard.right.value
                low, high = result.get(name, self._identifier_range(name))
                if guard.op == "<":
                    high = min(high, bound - 1)
                elif guard.op == "<=":
                    high = min(high, bound)
                elif guard.op == ">":
                    low = max(low, bound + 1)
                elif guard.op == ">=":
                    low = max(low, bound)
                else:
                    low = max(low, bound)
                    high = min(high, bound)
                if low <= high:
                    result[name] = (low, high)
        return result

    def _identifier_range(self, name: str) -> tuple[int, int]:
        from ..smv.ast import RangeType

        spec = self.module.variables.get(name)
        if isinstance(spec, RangeType):
            return spec.low, spec.high
        raise ModelCheckingError("interval analysis over non-integer variable")

    def _expression_range(self, expr, refinements: dict) -> tuple[int, int]:
        """Crude interval analysis over the expression (integers only)."""
        from ..smv.ast import (
            BinOp, Call, CaseExpr, Ident, IntLit, SetExpr, UnaryOp,
        )
        from ..smv.ast import RangeType

        if isinstance(expr, IntLit):
            return expr.value, expr.value
        if isinstance(expr, Ident):
            if expr.name in self.module.variables:
                if expr.name in refinements:
                    return refinements[expr.name]
                return self._identifier_range(expr.name)
            if expr.name in self.module.defines:
                return self._expression_range(self.module.defines[expr.name], refinements)
            raise ModelCheckingError("interval analysis over enum symbol")
        if isinstance(expr, UnaryOp) and expr.op == "-":
            low, high = self._expression_range(expr.operand, refinements)
            return -high, -low
        if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
            a, b = self._expression_range(expr.left, refinements)
            c, d = self._expression_range(expr.right, refinements)
            if expr.op == "+":
                return a + c, b + d
            if expr.op == "-":
                return a - d, b - c
            products = [a * c, a * d, b * c, b * d]
            return min(products), max(products)
        if isinstance(expr, Call) and expr.func in ("max", "min", "abs"):
            ranges = [self._expression_range(arg, refinements) for arg in expr.args]
            if expr.func == "abs":
                low, high = ranges[0]
                return (0 if low <= 0 <= high else min(abs(low), abs(high))), max(
                    abs(low), abs(high)
                )
            pick = max if expr.func == "max" else min
            return pick(r[0] for r in ranges), pick(r[1] for r in ranges)
        if isinstance(expr, CaseExpr):
            lows, highs = [], []
            for guard, result in expr.branches:
                branch_refinements = self._guard_refinements(guard, refinements)
                low, high = self._expression_range(result, branch_refinements)
                lows.append(low)
                highs.append(high)
            return min(lows), max(highs)
        if isinstance(expr, SetExpr):
            lows, highs = [], []
            for item in expr.items:
                low, high = self._expression_range(item, refinements)
                lows.append(low)
                highs.append(high)
            return min(lows), max(highs)
        raise ModelCheckingError(
            f"interval analysis cannot handle {type(expr).__name__}"
        )
