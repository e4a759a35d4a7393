"""Incremental general simplex over exact rationals.

The Dutertre–de Moura "general simplex" (the algorithm inside Yices,
Z3 and MathSAT theory cores): variables carry optional lower/upper
bounds, tableau rows define *basic* variables as linear combinations of
*non-basic* ones, and feasibility is restored by Bland-rule pivoting —
guaranteed to terminate.  The tableau is fraction-free: each row holds
Python-int coefficients over one positive row denominator, kept in lowest
terms, so a pivot costs integer multiply-adds and one gcd per row instead
of a gcd per coefficient.  Values and bounds stay exact
:class:`fractions.Fraction` numbers, so Bland's rule compares the same
numbers and a SAT/UNSAT verdict is a theorem about the model, not a
float guess.

Supports ``push`` / ``pop`` of bound assertions, which is what both the
incremental ladder sessions and the ReLU phase-splitting verifier need,
and returns *conflict sets* (the subset of asserted bounds proving
infeasibility) so callers can learn small blocking clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from ..errors import SmtError
from ..rational import to_fraction


class BoundKind(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class BoundRef:
    """Identifies one asserted bound: (variable, kind).  Conflict sets are
    frozensets of these."""

    var: int
    kind: BoundKind


@dataclass
class SimplexResult:
    feasible: bool
    assignment: dict[int, Fraction] | None = None
    conflict: frozenset[BoundRef] | None = None
    pivots: int = 0

    def __bool__(self):
        return self.feasible


class Simplex:
    """Exact incremental simplex.  Variables are integer ids."""

    def __init__(self):
        self._num_vars = 0
        self._lower: list[Fraction | None] = []
        self._upper: list[Fraction | None] = []
        # Which asserted bound produced the current lower/upper (for cores).
        self._value: list[Fraction] = []
        # rows: basic var -> {nonbasic var: int coeff}, over _den[basic] > 0
        # with gcd(den, *coeffs) == 1 and no zero coefficients.
        self._rows: dict[int, dict[int, int]] = {}
        self._den: dict[int, int] = {}
        # columns: nonbasic var -> set of basic vars whose row mentions it
        self._cols: dict[int, set[int]] = {}
        self._trail: list[tuple[int, BoundKind, Fraction | None]] = []
        self._trail_lim: list[int] = []
        self.total_pivots = 0

    # -- variables and rows ----------------------------------------------------

    def new_var(self) -> int:
        var = self._num_vars
        self._num_vars += 1
        self._lower.append(None)
        self._upper.append(None)
        self._value.append(Fraction(0))
        self._cols[var] = set()
        return var

    def define(self, combination: Mapping[int, object]) -> int:
        """Create a *basic* variable equal to ``Σ coeff · var``.

        Must be called before any ``push``; the definition is permanent.
        Referenced variables may themselves be defined (rows are expanded
        so the tableau only mentions non-basic variables).
        """
        if self._trail_lim:
            raise SmtError("define() only allowed at decision level 0")
        expansion: dict[int, Fraction] = {}
        for var, raw_coeff in combination.items():
            coeff = to_fraction(raw_coeff)
            if coeff == 0:
                continue
            if var in self._rows:
                den = self._den[var]
                for inner, inner_coeff in self._rows[var].items():
                    term = coeff * Fraction(inner_coeff, den)
                    expansion[inner] = expansion.get(inner, Fraction(0)) + term
            else:
                expansion[var] = expansion.get(var, Fraction(0)) + coeff
        expansion = {v: c for v, c in expansion.items() if c != 0}
        slack = self.new_var()
        # Over the lcm of its reduced denominators the row is in lowest terms.
        den = lcm(*(c.denominator for c in expansion.values()))
        self._rows[slack] = {
            v: c.numerator * (den // c.denominator) for v, c in expansion.items()
        }
        self._den[slack] = den
        for var in expansion:
            self._cols[var].add(slack)
        self._value[slack] = sum(
            (c * self._value[v] for v, c in expansion.items()), Fraction(0)
        )
        return slack

    # -- bound assertion with backtracking ------------------------------------------

    def push(self) -> None:
        self._trail_lim.append(len(self._trail))

    def pop(self) -> None:
        if not self._trail_lim:
            raise SmtError("pop without matching push")
        boundary = self._trail_lim.pop()
        while len(self._trail) > boundary:
            var, kind, old = self._trail.pop()
            if kind is BoundKind.LOWER:
                self._lower[var] = old
            else:
                self._upper[var] = old

    def assert_lower(self, var: int, bound) -> SimplexResult | None:
        """Tighten the lower bound of ``var``; returns a conflict result or None."""
        bound = to_fraction(bound)
        current = self._lower[var]
        if current is not None and bound <= current:
            return None  # no tightening
        upper = self._upper[var]
        if upper is not None and bound > upper:
            return SimplexResult(
                False,
                conflict=frozenset(
                    {BoundRef(var, BoundKind.LOWER), BoundRef(var, BoundKind.UPPER)}
                ),
            )
        self._trail.append((var, BoundKind.LOWER, current))
        self._lower[var] = bound
        if var not in self._rows and self._value[var] < bound:
            self._update_nonbasic(var, bound)
        return None

    def assert_upper(self, var: int, bound) -> SimplexResult | None:
        """Tighten the upper bound of ``var``; returns a conflict result or None."""
        bound = to_fraction(bound)
        current = self._upper[var]
        if current is not None and bound >= current:
            return None
        lower = self._lower[var]
        if lower is not None and bound < lower:
            return SimplexResult(
                False,
                conflict=frozenset(
                    {BoundRef(var, BoundKind.LOWER), BoundRef(var, BoundKind.UPPER)}
                ),
            )
        self._trail.append((var, BoundKind.UPPER, current))
        self._upper[var] = bound
        if var not in self._rows and self._value[var] > bound:
            self._update_nonbasic(var, bound)
        return None

    def bounds(self, var: int) -> tuple[Fraction | None, Fraction | None]:
        return self._lower[var], self._upper[var]

    # -- assignment maintenance ---------------------------------------------------------

    def _update_nonbasic(self, var: int, new_value: Fraction) -> None:
        delta = new_value - self._value[var]
        if delta == 0:
            return
        num, den = delta.numerator, delta.denominator
        rows, row_den, value = self._rows, self._den, self._value
        for basic in self._cols.get(var, ()):
            value[basic] += Fraction(rows[basic][var] * num, row_den[basic] * den)
        value[var] = new_value

    # -- pivoting -------------------------------------------------------------------------

    def _pivot(self, basic: int, nonbasic: int) -> None:
        """Swap roles: ``nonbasic`` becomes basic, ``basic`` becomes non-basic."""
        rows, row_den, cols = self._rows, self._den, self._cols
        row = rows.pop(basic)
        den = row_den.pop(basic)
        coeff = row.pop(nonbasic)
        for var in row:
            cols[var].discard(basic)
        cols[nonbasic].discard(basic)

        # nonbasic = (den·basic − Σ c·var) / coeff.  gcd(den, *row) == 1, so
        # the solved row is already in lowest terms; only the sign moves
        # onto the denominator.
        if coeff > 0:
            new_row = {var: -c for var, c in row.items()}
            new_row[basic] = den
            new_den = coeff
        else:
            new_row = dict(row)
            new_row[basic] = -den
            new_den = -coeff
        rows[nonbasic] = new_row
        row_den[nonbasic] = new_den
        cols.setdefault(basic, set()).add(nonbasic)
        for var in row:
            cols[var].add(nonbasic)

        # Substitute into every other row that mentions `nonbasic`:
        # other = (rest + factor·nonbasic) / d over nonbasic = new_row / new_den
        # is ((new_den/g)·rest + (factor/g)·new_row) / (d·new_den/g).
        for other in list(cols[nonbasic]):
            if other == nonbasic:
                continue
            other_row = rows[other]
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                cols[nonbasic].discard(other)
                continue
            g = gcd(factor, new_den)
            scale, factor = new_den // g, factor // g
            if scale != 1:
                for var, c in other_row.items():
                    other_row[var] = c * scale
            for var, c in new_row.items():
                current = other_row.get(var)
                if current is None:
                    other_row[var] = factor * c
                    cols[var].add(other)
                else:
                    updated = current + factor * c
                    if updated:
                        other_row[var] = updated
                    else:
                        del other_row[var]
                        cols[var].discard(other)
            other_den = row_den[other] * scale
            g = gcd(other_den, *other_row.values())
            if g != 1:
                for var, c in other_row.items():
                    other_row[var] = c // g
                other_den //= g
            row_den[other] = other_den
        # Every remaining mention of `nonbasic` was substituted away.
        cols[nonbasic] = set()
        self.total_pivots += 1

    def _pivot_and_update(self, basic: int, nonbasic: int, target: Fraction) -> None:
        rows, row_den, value = self._rows, self._den, self._value
        # The entering coefficient is rows[basic][nonbasic] / row_den[basic].
        theta = (target - value[basic]) * Fraction(row_den[basic], rows[basic][nonbasic])
        num, den = theta.numerator, theta.denominator
        value[basic] = target
        value[nonbasic] += theta
        for other in self._cols[nonbasic]:
            if other != basic:
                value[other] += Fraction(rows[other][nonbasic] * num, row_den[other] * den)
        self._pivot(basic, nonbasic)

    # -- feasibility -----------------------------------------------------------------------

    def check(self, max_pivots: int = 100_000) -> SimplexResult:
        """Restore feasibility (Bland's rule).  Exact and terminating."""
        pivots = 0
        while True:
            violated = None
            needs_increase = False
            for basic in sorted(self._rows):
                value = self._value[basic]
                lower, upper = self._lower[basic], self._upper[basic]
                if lower is not None and value < lower:
                    violated, needs_increase, target = basic, True, lower
                    break
                if upper is not None and value > upper:
                    violated, needs_increase, target = basic, False, upper
                    break
            if violated is None:
                return SimplexResult(
                    True,
                    assignment={v: self._value[v] for v in range(self._num_vars)},
                    pivots=pivots,
                )
            if pivots >= max_pivots:
                raise SmtError(f"simplex exceeded {max_pivots} pivots")

            row = self._rows[violated]
            candidate = None
            for nonbasic in sorted(row):
                coeff = row[nonbasic]
                if needs_increase:
                    can_move = (
                        coeff > 0
                        and (
                            self._upper[nonbasic] is None
                            or self._value[nonbasic] < self._upper[nonbasic]
                        )
                    ) or (
                        coeff < 0
                        and (
                            self._lower[nonbasic] is None
                            or self._value[nonbasic] > self._lower[nonbasic]
                        )
                    )
                else:
                    can_move = (
                        coeff > 0
                        and (
                            self._lower[nonbasic] is None
                            or self._value[nonbasic] > self._lower[nonbasic]
                        )
                    ) or (
                        coeff < 0
                        and (
                            self._upper[nonbasic] is None
                            or self._value[nonbasic] < self._upper[nonbasic]
                        )
                    )
                if can_move:
                    candidate = nonbasic
                    break
            if candidate is None:
                # Infeasible: the row plus the blocking bounds form the core.
                conflict = {
                    BoundRef(violated, BoundKind.LOWER if needs_increase else BoundKind.UPPER)
                }
                for nonbasic in row:
                    coeff = row[nonbasic]
                    if needs_increase:
                        conflict.add(
                            BoundRef(
                                nonbasic,
                                BoundKind.UPPER if coeff > 0 else BoundKind.LOWER,
                            )
                        )
                    else:
                        conflict.add(
                            BoundRef(
                                nonbasic,
                                BoundKind.LOWER if coeff > 0 else BoundKind.UPPER,
                            )
                        )
                return SimplexResult(False, conflict=frozenset(conflict), pivots=pivots)

            self._pivot_and_update(violated, candidate, target)
            pivots += 1

    # -- introspection ------------------------------------------------------------------------

    def value(self, var: int) -> Fraction:
        return self._value[var]

    @property
    def num_vars(self) -> int:
        return self._num_vars
