"""Unit and property tests for the CDCL SAT solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SatError
from repro.sat import (
    CdclSolver,
    Cnf,
    SatStatus,
    parse_dimacs,
    solve_cnf,
    to_dimacs,
)
from repro.sat.solver import luby

from sat_oracle import brute_force_satisfiable


class TestBasics:
    def test_empty_cnf_is_sat(self):
        assert solve_cnf(Cnf()).status is SatStatus.SAT

    def test_single_unit_clause(self):
        cnf = Cnf()
        cnf.add_clause([1])
        result = solve_cnf(cnf)
        assert result.status is SatStatus.SAT
        assert result.model[1] is True

    def test_contradictory_units(self):
        cnf = Cnf()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert solve_cnf(cnf).status is SatStatus.UNSAT

    def test_empty_clause_is_unsat(self):
        solver = CdclSolver()
        assert solver.add_clause([]) is False
        assert solver.solve().status is SatStatus.UNSAT

    def test_simple_implication_chain(self):
        cnf = Cnf()
        cnf.add_clauses([[1], [-1, 2], [-2, 3], [-3, 4]])
        result = solve_cnf(cnf)
        assert result.status is SatStatus.SAT
        assert all(result.model[v] for v in (1, 2, 3, 4))

    def test_model_satisfies_formula(self):
        cnf = Cnf()
        cnf.add_clauses([[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]])
        result = solve_cnf(cnf)
        assert result.status is SatStatus.SAT
        assert cnf.evaluate(result.model)

    def test_pigeonhole_3_into_2_unsat(self):
        # Pigeon p in hole h encoded as var 2*p + h + 1 (p in 0..2, h in 0..1).
        cnf = Cnf()
        def var(p, h):
            return 2 * p + h + 1
        for p in range(3):
            cnf.add_clause([var(p, 0), var(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        assert solve_cnf(cnf).status is SatStatus.UNSAT

    def test_invalid_literal_rejected(self):
        solver = CdclSolver()
        with pytest.raises(SatError):
            solver.add_clause([0])

    def test_tautology_ignored(self):
        cnf = Cnf()
        cnf.add_clause([1, -1])
        assert cnf.num_clauses == 0


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.status is SatStatus.SAT
        assert result.model[1] is False
        assert result.model[2] is True

    def test_unsat_under_assumptions_but_sat_without(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[-2]).status is SatStatus.UNSAT
        assert solver.solve().status is SatStatus.SAT

    def test_incremental_clause_addition(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve().status is SatStatus.SAT
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve().status is SatStatus.UNSAT

    def test_blocking_model_enumeration(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        models = []
        while True:
            result = solver.solve()
            if result.status is not SatStatus.SAT:
                break
            model = tuple(result.model[v] for v in (1, 2))
            models.append(model)
            if not solver.add_clause(
                [-v if result.model[v] else v for v in (1, 2)]
            ):
                break
        assert len(models) == 3
        assert len(set(models)) == 3

    def test_conflicting_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[1, -1]).status is SatStatus.UNSAT


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestDimacs:
    def test_round_trip(self):
        cnf = Cnf()
        cnf.add_clauses([[1, -2, 3], [-1, 2], [3]])
        parsed = parse_dimacs(to_dimacs(cnf, comment="test"))
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses

    def test_parse_rejects_garbage(self):
        with pytest.raises(SatError):
            parse_dimacs("p cnf x y\n1 0\n")

    def test_parse_rejects_unterminated(self):
        with pytest.raises(SatError):
            parse_dimacs("p cnf 2 1\n1 2\n")


def _random_cnf(draw, max_vars=6, max_clauses=12):
    num_vars = draw(st.integers(1, max_vars))
    num_clauses = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, 3))
        clause = [
            draw(st.integers(1, num_vars)) * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    cnf = Cnf(num_vars=num_vars)
    cnf.add_clauses(clauses)
    return cnf


@st.composite
def random_cnf(draw):
    return _random_cnf(draw)


class TestAgainstBruteForce:
    @given(random_cnf())
    @settings(max_examples=300, deadline=None)
    def test_sat_decision_matches_brute_force(self, cnf):
        expected = brute_force_satisfiable(cnf)
        result = solve_cnf(cnf)
        assert (result.status is SatStatus.SAT) == expected
        if result.status is SatStatus.SAT:
            assert cnf.evaluate(result.model)

    @given(random_cnf(), st.lists(st.integers(1, 6), max_size=3, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_assumptions_match_clause_addition(self, cnf, assumed_vars):
        assumptions = [v for v in assumed_vars if v <= cnf.num_vars]
        solver = CdclSolver()
        solver.add_cnf(cnf)
        with_assumptions = solver.solve(assumptions=assumptions)

        strengthened = cnf.copy()
        for literal in assumptions:
            strengthened.add_clause([literal])
        expected = brute_force_satisfiable(strengthened)
        assert (with_assumptions.status is SatStatus.SAT) == expected
