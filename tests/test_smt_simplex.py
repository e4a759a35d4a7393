"""Tests for the exact simplex and branch & bound."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.errors import BudgetExceededError, SmtError
from repro.rational import to_fraction
from repro.smt import Simplex, solve_integer_feasibility
from repro.smt.simplex import BoundKind, BoundRef, SimplexResult


class TestSimplexBasics:
    def test_trivially_feasible(self):
        s = Simplex()
        s.new_var()
        assert s.check().feasible

    def test_single_bounds(self):
        s = Simplex()
        x = s.new_var()
        s.assert_lower(x, 3)
        s.assert_upper(x, 5)
        result = s.check()
        assert result.feasible
        assert Fraction(3) <= result.assignment[x] <= Fraction(5)

    def test_contradictory_bounds(self):
        s = Simplex()
        x = s.new_var()
        s.assert_lower(x, 3)
        conflict = s.assert_upper(x, 2)
        assert conflict is not None
        assert not conflict.feasible

    def test_row_feasibility(self):
        # x + y >= 4, x <= 1, y <= 2  -> infeasible
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        total = s.define({x: 1, y: 1})
        s.assert_upper(x, 1)
        s.assert_upper(y, 2)
        s.assert_lower(total, 4)
        result = s.check()
        assert not result.feasible
        assert result.conflict  # non-empty core

    def test_row_feasible_solution_satisfies_rows(self):
        # x + 2y <= 10, x - y >= 1, 0 <= x,y <= 6
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        r1 = s.define({x: 1, y: 2})
        r2 = s.define({x: 1, y: -1})
        for v in (x, y):
            s.assert_lower(v, 0)
            s.assert_upper(v, 6)
        s.assert_upper(r1, 10)
        s.assert_lower(r2, 1)
        result = s.check()
        assert result.feasible
        a = result.assignment
        assert a[x] + 2 * a[y] <= 10
        assert a[x] - a[y] >= 1
        assert a[r1] == a[x] + 2 * a[y]

    def test_immediate_bound_conflict_reported(self):
        s = Simplex()
        x = s.new_var()
        s.assert_lower(x, 0)
        s.assert_upper(x, 10)
        s.push()
        conflict = s.assert_lower(x, 20)  # clashes with upper bound
        assert conflict is not None and not conflict.feasible
        s.pop()
        assert s.check().feasible

    def test_push_pop_restores_feasibility(self):
        # Row-level infeasibility that only check() can detect.
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        total = s.define({x: 1, y: 1})
        s.assert_lower(x, 0)
        s.assert_upper(x, 1)
        s.assert_lower(y, 0)
        s.assert_upper(y, 1)
        assert s.check().feasible
        s.push()
        assert s.assert_lower(total, 5) is None  # x + y >= 5: row infeasible
        assert not s.check().feasible
        s.pop()
        assert s.check().feasible

    def test_pop_without_push(self):
        with pytest.raises(SmtError):
            Simplex().pop()

    def test_define_after_push_rejected(self):
        s = Simplex()
        x = s.new_var()
        s.push()
        with pytest.raises(SmtError):
            s.define({x: 1})

    def test_define_expands_defined_vars(self):
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        u = s.define({x: 1, y: 1})
        w = s.define({u: 2})  # w = 2x + 2y
        s.assert_lower(x, 1)
        s.assert_lower(y, 1)
        s.assert_upper(w, 3)  # 2x + 2y <= 3 but >= 4: infeasible
        assert not s.check().feasible


class TestBranchAndBound:
    def test_integer_point_found(self):
        # 2x + 3y = 7 (x, y >= 0 integer) has solution x=2, y=1.
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        row = s.define({x: 2, y: 3})
        for v in (x, y):
            s.assert_lower(v, 0)
            s.assert_upper(v, 10)
        s.assert_lower(row, 7)
        s.assert_upper(row, 7)
        result = solve_integer_feasibility(s, [x, y])
        assert result.feasible
        assert result.assignment[x].denominator == 1
        assert result.assignment[y].denominator == 1
        assert 2 * result.assignment[x] + 3 * result.assignment[y] == 7

    def test_integer_infeasible(self):
        # 2x = 5 with x integer in [0, 10].
        s = Simplex()
        x = s.new_var()
        row = s.define({x: 2})
        s.assert_lower(x, 0)
        s.assert_upper(x, 10)
        s.assert_lower(row, 5)
        s.assert_upper(row, 5)
        result = solve_integer_feasibility(s, [x])
        assert not result.feasible

    def test_state_restored_after_search(self):
        s = Simplex()
        x = s.new_var()
        row = s.define({x: 2})
        s.assert_lower(x, 0)
        s.assert_upper(x, 10)
        s.assert_lower(row, 5)
        s.assert_upper(row, 5)
        solve_integer_feasibility(s, [x])
        # LP relaxation still feasible (x = 2.5).
        assert s.check().feasible


@st.composite
def random_lp(draw):
    """Random bounded LP: returns (A, b, lower, upper) for A x <= b."""
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 5))
    coeff = st.integers(-4, 4)
    a = [
        [draw(coeff) for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    b = [draw(st.integers(-6, 10)) for _ in range(num_rows)]
    lower = [draw(st.integers(-5, 0)) for _ in range(num_vars)]
    upper = [lo + draw(st.integers(0, 8)) for lo in lower]
    return a, b, lower, upper


class TestAgainstScipy:
    @given(random_lp())
    @settings(max_examples=200, deadline=None)
    def test_feasibility_matches_linprog(self, problem):
        a, b, lower, upper = problem
        num_vars = len(lower)

        s = Simplex()
        variables = [s.new_var() for _ in range(num_vars)]
        rows = [s.define(dict(zip(variables, coeffs))) for coeffs in a]
        for var, lo, hi in zip(variables, lower, upper):
            s.assert_lower(var, lo)
            s.assert_upper(var, hi)
        conflict_seen = False
        for row, bound in zip(rows, b):
            if s.assert_upper(row, bound) is not None:
                conflict_seen = True
        result = s.check()
        exact_feasible = result.feasible and not conflict_seen

        scipy_result = linprog(
            c=np.zeros(num_vars),
            A_ub=np.array(a, dtype=float),
            b_ub=np.array(b, dtype=float),
            bounds=list(zip(lower, upper)),
            method="highs",
        )
        assert exact_feasible == scipy_result.success

        if exact_feasible:
            assignment = result.assignment
            for coeffs, bound in zip(a, b):
                value = sum(
                    Fraction(c) * assignment[v] for c, v in zip(coeffs, variables)
                )
                assert value <= bound
            for var, lo, hi in zip(variables, lower, upper):
                assert lo <= assignment[var] <= hi


# -- the fraction-free tableau against the dict-of-Fraction reference ----------


class ReferenceSimplex:
    """The dict-of-``Fraction`` tableau the fraction-free one replaced, kept
    verbatim as the oracle: every row coefficient is a ``Fraction``."""

    def __init__(self):
        self._num_vars = 0
        self._lower: list[Fraction | None] = []
        self._upper: list[Fraction | None] = []
        # Which asserted bound produced the current lower/upper (for cores).
        self._value: list[Fraction] = []
        # rows: basic var -> {nonbasic var: coeff}
        self._rows: dict[int, dict[int, Fraction]] = {}
        self._basic_of: dict[int, int] = {}  # var -> var (identity for basics)
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
                for inner, inner_coeff in self._rows[var].items():
                    expansion[inner] = expansion.get(inner, Fraction(0)) + coeff * inner_coeff
            else:
                expansion[var] = expansion.get(var, Fraction(0)) + coeff
        expansion = {v: c for v, c in expansion.items() if c != 0}
        slack = self.new_var()
        self._rows[slack] = expansion
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
        for basic in self._cols.get(var, ()):
            self._value[basic] += self._rows[basic][var] * delta
        self._value[var] = new_value

    # -- pivoting -------------------------------------------------------------------------

    def _pivot(self, basic: int, nonbasic: int) -> None:
        """Swap roles: ``nonbasic`` becomes basic, ``basic`` becomes non-basic."""
        row = self._rows.pop(basic)
        coeff = row.pop(nonbasic)
        for var in row:
            self._cols[var].discard(basic)
        self._cols[nonbasic].discard(basic)

        # nonbasic = (basic - Σ others) / coeff
        new_row: dict[int, Fraction] = {basic: Fraction(1) / coeff}
        for var, c in row.items():
            new_row[var] = -c / coeff
        self._rows[nonbasic] = new_row
        self._cols.setdefault(basic, set()).add(nonbasic)
        for var in row:
            self._cols[var].add(nonbasic)

        # Substitute into every other row that mentions `nonbasic`.
        for other in list(self._cols[nonbasic]):
            if other == nonbasic:
                continue
            other_row = self._rows[other]
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                self._cols[nonbasic].discard(other)
                continue
            for var, c in new_row.items():
                updated = other_row.get(var, Fraction(0)) + factor * c
                if updated == 0:
                    if var in other_row:
                        del other_row[var]
                    self._cols[var].discard(other)
                else:
                    other_row[var] = updated
                    self._cols[var].add(other)
        # Every remaining mention of `nonbasic` was substituted away.
        self._cols[nonbasic] = set()
        self.total_pivots += 1

    def _pivot_and_update(self, basic: int, nonbasic: int, target: Fraction) -> None:
        coeff = self._rows[basic][nonbasic]
        theta = (target - self._value[basic]) / coeff
        self._value[basic] = target
        self._value[nonbasic] += theta
        for other in self._cols[nonbasic]:
            if other != basic:
                self._value[other] += self._rows[other][nonbasic] * theta
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


def assert_tableau_invariant(simplex: Simplex) -> None:
    """Rows are lowest-terms ints over a positive denominator, mention only
    non-basic variables, and ``_cols`` is exactly their transpose."""
    assert simplex._den.keys() == simplex._rows.keys()
    transpose: dict[int, set[int]] = {}
    for basic, row in simplex._rows.items():
        den = simplex._den[basic]
        assert type(den) is int and den > 0
        assert all(type(c) is int and c != 0 for c in row.values())
        assert gcd(den, *row.values()) == 1
        assert not row.keys() & simplex._rows.keys()
        for var in row:
            transpose.setdefault(var, set()).add(basic)
    assert {v: basics for v, basics in simplex._cols.items() if basics} == transpose


def assert_same_state(new: Simplex, ref: ReferenceSimplex) -> None:
    assert new.num_vars == ref.num_vars
    assert new.total_pivots == ref.total_pivots
    for var in range(new.num_vars):
        assert new.value(var) == ref.value(var)
        assert new.bounds(var) == ref.bounds(var)
    assert new._rows.keys() == ref._rows.keys()  # the same basis
    assert_tableau_invariant(new)


def branch_and_bound(simplex, integer_vars):
    try:
        result = solve_integer_feasibility(simplex, integer_vars, node_budget=30)
    except BudgetExceededError:
        return "budget"  # the search leaves its pushes open on both sides
    return result.feasible, result.assignment, result.nodes


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**3)),
)
BOUNDS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4))


class TestAgainstReference:
    """The integer tableau pivots exactly like the dict-of-Fraction one:
    same verdicts, assignments, conflict cores and pivot counts."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_operation_matches_the_reference(self, data):
        new, ref = Simplex(), ReferenceSimplex()
        for _ in range(data.draw(st.integers(1, 4), label="base vars")):
            assert new.new_var() == ref.new_var()
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            variables = list(range(new.num_vars))
            level = len(new._trail_lim)
            ops = ["new_var", "bound", "bound", "bound", "check", "check", "push", "bb"]
            ops += ["define", "define"] if level == 0 else ["pop", "pop"]
            op = data.draw(st.sampled_from(ops), label="op")
            if op == "new_var":
                assert new.new_var() == ref.new_var()
            elif op == "define":
                chosen = data.draw(
                    st.lists(st.sampled_from(variables), min_size=1, max_size=4, unique=True)
                )
                combination = {var: data.draw(COEFFS) for var in chosen}
                assert new.define(combination) == ref.define(combination)
            elif op == "bound":
                var = data.draw(st.sampled_from(variables))
                bound = data.draw(BOUNDS)
                if data.draw(st.booleans(), label="lower"):
                    assert new.assert_lower(var, bound) == ref.assert_lower(var, bound)
                else:
                    assert new.assert_upper(var, bound) == ref.assert_upper(var, bound)
            elif op == "check":
                assert new.check() == ref.check()
            elif op == "push":
                new.push()
                ref.push()
            elif op == "pop":
                new.pop()
                ref.pop()
            else:
                integer_vars = data.draw(
                    st.lists(st.sampled_from(variables), max_size=3, unique=True)
                )
                assert branch_and_bound(new, integer_vars) == branch_and_bound(
                    ref, integer_vars
                )
            assert_same_state(new, ref)

    def test_define_after_a_level_0_check_expands_pivoted_rows(self):
        sides = (Simplex(), ReferenceSimplex())
        for s in sides:
            x, y = s.new_var(), s.new_var()
            row = s.define({x: Fraction(3, 7), y: 10**12})
            s.assert_lower(row, 5)
            s.assert_upper(x, 2)
            assert s.check().pivots == 2
            assert y in s._rows and row not in s._rows  # y is basic now
            late = s.define({y: Fraction(-2, 5), row: 3, x: 1})
            s.assert_upper(late, -1)
        new, ref = sides
        assert new.check() == ref.check()
        assert_same_state(new, ref)
