"""Incremental general simplex over exact rationals, in integer arithmetic.

The Dutertre–de Moura "general simplex" (the algorithm inside Yices,
Z3 and MathSAT theory cores): variables carry optional lower/upper
bounds, tableau rows define *basic* variables as linear combinations of
*non-basic* ones, and feasibility is restored by Bland-rule pivoting —
guaranteed to terminate.  Every number the algorithm touches is a
Python int:

- the tableau is fraction-free: each row holds int coefficients over one
  positive row denominator, kept in lowest terms, so a pivot costs
  integer multiply-adds and one gcd per row;
- the assignment is one int numerator per variable over a shared
  positive *scale*: a non-basic value is ``num / scale`` and a basic one
  ``num / (row_den · scale)``, so a basic numerator is exactly its row
  applied to the non-basic numerators and moving a non-basic variable
  costs one multiply-add per row that mentions it;
- bounds are held as ``bound · scale`` ints, so each comparison of
  Bland's rule is an int comparison.

The scale starts at 1 and widens (to an lcm) only when a fractional
bound arrives; integral bounds never build a ``Fraction``.
:meth:`Simplex.value`, :meth:`Simplex.bounds` and :class:`SimplexResult`
hand out the exact rationals (ints when integral), so a SAT/UNSAT
verdict is a theorem about the model, not a float guess.

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

#: An exact rational as handed out: an int when integral.
Rational = int | Fraction


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
    assignment: dict[int, Rational] | None = None
    conflict: frozenset[BoundRef] | None = None
    pivots: int = 0

    def __bool__(self):
        return self.feasible


def _ratio(num: int, den: int) -> Rational:
    """``num / den`` (``den > 0``): an int when integral, else a Fraction."""
    if den == 1:
        return num
    quotient, remainder = divmod(num, den)
    return Fraction(num, den) if remainder else quotient


class Simplex:
    """Exact incremental simplex.  Variables are integer ids."""

    def __init__(self):
        self._num_vars = 0
        # Every value and bound is an int numerator over _scale (times the
        # row denominator for a basic value).
        self._scale = 1
        self._num: list[int] = []
        self._lower: list[int | None] = []
        self._upper: list[int | None] = []
        # rows: basic var -> {nonbasic var: int coeff}, over _den[basic] > 0
        # with gcd(den, *coeffs) == 1 and no zero coefficients.
        self._rows: dict[int, dict[int, int]] = {}
        self._den: dict[int, int] = {}
        # columns: nonbasic var -> set of basic vars whose row mentions it
        self._cols: dict[int, set[int]] = {}
        self._trail: list[tuple[int, BoundKind, int | None]] = []
        self._trail_lim: list[int] = []
        self.total_pivots = 0

    # -- variables and rows ----------------------------------------------------

    def new_var(self) -> int:
        var = self._num_vars
        self._num_vars += 1
        self._lower.append(None)
        self._upper.append(None)
        self._num.append(0)
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
        # Each term is num / den times a variable, or times a row (whose own
        # denominator joins den); sum them as ints over the lcm of the dens.
        terms: list[tuple[int, int, int, dict[int, int] | None]] = []
        den = 1
        for var, raw_coeff in combination.items():
            if type(raw_coeff) is int:
                num, term_den = raw_coeff, 1
            else:
                coeff = to_fraction(raw_coeff)
                num, term_den = coeff.numerator, coeff.denominator
            if num == 0:
                continue
            inner_row = self._rows.get(var)
            if inner_row is not None:
                term_den *= self._den[var]
            terms.append((var, num, term_den, inner_row))
            den = lcm(den, term_den)
        expansion: dict[int, int] = {}
        for var, num, term_den, inner_row in terms:
            factor = num * (den // term_den)
            if inner_row is None:
                expansion[var] = expansion.get(var, 0) + factor
            else:
                for inner, inner_coeff in inner_row.items():
                    expansion[inner] = expansion.get(inner, 0) + factor * inner_coeff
        row = {v: c for v, c in expansion.items() if c}
        # Dividing out the common gcd leaves the row in lowest terms.
        g = gcd(den, *row.values())
        if g != 1:
            row = {v: c // g for v, c in row.items()}
            den //= g
        slack = self.new_var()
        self._rows[slack] = row
        self._den[slack] = den
        for var in row:
            self._cols[var].add(slack)
        self._num[slack] = sum(c * self._num[v] for v, c in row.items())
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

    @property
    def level(self) -> int:
        """Number of open ``push`` frames (0: only permanent bounds)."""
        return len(self._trail_lim)

    def assert_lower(self, var: int, bound) -> SimplexResult | None:
        """Tighten the lower bound of ``var``; returns a conflict result or None."""
        bound = self._scaled(bound)
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
        if var not in self._rows and self._num[var] < bound:
            self._update_nonbasic(var, bound)
        return None

    def assert_upper(self, var: int, bound) -> SimplexResult | None:
        """Tighten the upper bound of ``var``; returns a conflict result or None."""
        bound = self._scaled(bound)
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
        if var not in self._rows and self._num[var] > bound:
            self._update_nonbasic(var, bound)
        return None

    def bounds(self, var: int) -> tuple[Rational | None, Rational | None]:
        lower, upper, scale = self._lower[var], self._upper[var], self._scale
        return (
            None if lower is None else _ratio(lower, scale),
            None if upper is None else _ratio(upper, scale),
        )

    # -- the shared scale -------------------------------------------------------------------

    def _scaled(self, bound) -> int:
        """``bound · scale`` as an int, first widening the scale if ``bound``
        has a denominator it does not divide."""
        if type(bound) is int:
            return bound * self._scale
        bound = to_fraction(bound)
        den = bound.denominator
        if self._scale % den:
            self._widen(lcm(self._scale, den))
        return bound.numerator * (self._scale // den)

    def _widen(self, scale: int) -> None:
        """Re-express every value and bound over ``scale``, a multiple of
        the current scale."""
        factor = scale // self._scale
        self._num[:] = [n * factor for n in self._num]
        self._lower[:] = [None if b is None else b * factor for b in self._lower]
        self._upper[:] = [None if b is None else b * factor for b in self._upper]
        self._trail[:] = [
            (var, kind, None if old is None else old * factor)
            for var, kind, old in self._trail
        ]
        self._scale = scale

    # -- assignment maintenance ---------------------------------------------------------

    def _update_nonbasic(self, var: int, new_num: int) -> None:
        num, rows = self._num, self._rows
        delta = new_num - num[var]
        for basic in self._cols[var]:
            num[basic] += rows[basic][var] * delta
        num[var] = new_num

    # -- pivoting -------------------------------------------------------------------------

    def _pivot(self, basic: int, nonbasic: int, target: int) -> None:
        """Move ``basic`` onto the scaled value ``target`` by changing
        ``nonbasic``, then swap their roles."""
        rows, row_den, cols, num = self._rows, self._den, self._cols, self._num
        row = rows.pop(basic)
        den = row_den.pop(basic)
        coeff = row.pop(nonbasic)
        for var in row:
            cols[var].discard(basic)
        cols[nonbasic].discard(basic)

        # nonbasic = (den·basic − Σ c·var) / coeff.  gcd(den, *row) == 1, so
        # the solved row is already in lowest terms; only the sign moves
        # onto the denominator.  Putting `basic` on target changes `nonbasic`
        # by step / (new_den·scale), coeff's sign moved onto step likewise.
        step = target * den - num[basic]
        if coeff > 0:
            new_row = {var: -c for var, c in row.items()}
            new_row[basic] = den
            new_den = coeff
        else:
            new_row = dict(row)
            new_row[basic] = -den
            new_den = -coeff
            step = -step
        rows[nonbasic] = new_row
        row_den[nonbasic] = new_den
        num[nonbasic] = num[nonbasic] * new_den + step
        num[basic] = target
        cols.setdefault(basic, set()).add(nonbasic)
        for var in row:
            cols[var].add(nonbasic)

        # Substitute into every other row that mentions `nonbasic`:
        # other = (rest + factor·nonbasic) / d over nonbasic = new_row / new_den
        # is ((new_den/g)·rest + (factor/g)·new_row) / (d·new_den/g), and its
        # numerator moves the same way, by its old factor times `step`.
        for other in list(cols[nonbasic]):
            if other == nonbasic:
                continue
            other_row = rows[other]
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                cols[nonbasic].discard(other)
                continue
            g = gcd(factor, new_den)
            widen, factor = new_den // g, factor // g
            if widen != 1:
                for var, c in other_row.items():
                    other_row[var] = c * widen
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
            other_den = row_den[other] * widen
            other_num = num[other] * widen + factor * step
            g = gcd(other_den, *other_row.values())
            if g != 1:
                for var, c in other_row.items():
                    other_row[var] = c // g
                other_den //= g
                other_num //= g
            row_den[other] = other_den
            num[other] = other_num
        # Every remaining mention of `nonbasic` was substituted away.
        cols[nonbasic] = set()
        self.total_pivots += 1

    # -- feasibility -----------------------------------------------------------------------

    def check(self, max_pivots: int = 100_000) -> SimplexResult:
        """Restore feasibility (Bland's rule).  Exact and terminating."""
        rows, row_den, num = self._rows, self._den, self._num
        lowers, uppers = self._lower, self._upper
        pivots = 0
        while True:
            violated = None
            needs_increase = False
            for basic in sorted(rows):
                value, den = num[basic], row_den[basic]
                lower, upper = lowers[basic], uppers[basic]
                if lower is not None and value < lower * den:
                    violated, needs_increase, target = basic, True, lower
                    break
                if upper is not None and value > upper * den:
                    violated, needs_increase, target = basic, False, upper
                    break
            if violated is None:
                return SimplexResult(
                    True,
                    assignment={v: self.value(v) for v in range(self._num_vars)},
                    pivots=pivots,
                )
            if pivots >= max_pivots:
                raise SmtError(f"simplex exceeded {max_pivots} pivots")

            row = rows[violated]
            candidate = None
            for nonbasic in sorted(row):
                coeff = row[nonbasic]
                value = num[nonbasic]
                lower, upper = lowers[nonbasic], uppers[nonbasic]
                if needs_increase:
                    can_move = (
                        coeff > 0 and (upper is None or value < upper)
                    ) or (coeff < 0 and (lower is None or value > lower))
                else:
                    can_move = (
                        coeff > 0 and (lower is None or value > lower)
                    ) or (coeff < 0 and (upper is None or value < upper))
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

            self._pivot(violated, candidate, target)
            pivots += 1

    # -- introspection ------------------------------------------------------------------------

    def value(self, var: int) -> Rational:
        den = self._den.get(var, 1)
        return _ratio(self._num[var], den * self._scale)

    @property
    def num_vars(self) -> int:
        return self._num_vars
