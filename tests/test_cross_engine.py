"""Cross-engine equivalence: independent engines must never contradict.

Two layers of the stack are cross-checked on randomized instances:

- **SAT** — the CDCL solver (:mod:`repro.sat.solver`) against the
  brute-force oracle (``tests/sat_oracle.py``) on random small CNFs:
  same satisfiability verdict, and every SAT model actually satisfies
  the formula.
- **NN verification** — :func:`interval_bulk`,
  :class:`ExhaustiveEnumerator`, :class:`SmtVerifier` and the runner's
  production path (a cache-off :meth:`QueryRunner.verify_at`: bulk
  prepass, then the portfolio's complete stage) on the same query over
  random tiny networks.  Exhaustive enumeration is ground truth; sound
  engines may abstain (UNKNOWN) but may never assert the opposite
  verdict, and every witness must misclassify under exact evaluation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import NoiseConfig, RuntimeConfig
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.runtime import QueryRunner
from repro.sat.cnf import Cnf
from repro.sat.solver import solve_cnf
from repro.verify import (
    ExhaustiveEnumerator,
    SmtVerifier,
    VerificationStatus,
    build_query,
    interval_bulk,
)

from sat_oracle import brute_force_models, brute_force_satisfiable

SCALE = 1000


# -- SAT: CDCL vs brute force -----------------------------------------------------


@st.composite
def random_cnf(draw):
    """Random CNF over up to 8 variables with 1-3-literal clauses."""
    num_vars = draw(st.integers(2, 8))
    num_clauses = draw(st.integers(1, 24))
    cnf = Cnf(num_vars=num_vars)
    literal = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    for _ in range(num_clauses):
        clause = draw(st.lists(literal, min_size=1, max_size=3))
        cnf.add_clause(clause)
    return cnf


class TestCdclAgainstBruteForce:
    @given(random_cnf())
    @settings(max_examples=120, deadline=None)
    def test_same_satisfiability_verdict(self, cnf):
        expected = brute_force_satisfiable(cnf)
        result = solve_cnf(cnf)
        assert bool(result) == expected

    @given(random_cnf())
    @settings(max_examples=60, deadline=None)
    def test_sat_models_are_brute_force_models(self, cnf):
        result = solve_cnf(cnf)
        if result:
            assert cnf.evaluate(result.model)
            # The model must appear in the oracle's full enumeration.
            oracle = brute_force_models(cnf)
            assert any(
                all(result.model[v] == m[v] for v in m) for m in oracle
            )


# -- NN verification: all engines on one query ------------------------------------


def make_network(weight_rows_1, bias_1, weight_rows_2, bias_2) -> QuantizedNetwork:
    def frac_matrix(rows):
        return tuple(tuple(Fraction(v, SCALE) for v in row) for row in rows)

    def frac_vector(values):
        return tuple(Fraction(v, SCALE) for v in values)

    return QuantizedNetwork(
        [
            QuantizedLayer(frac_matrix(weight_rows_1), frac_vector(bias_1), relu=True),
            QuantizedLayer(frac_matrix(weight_rows_2), frac_vector(bias_2), relu=False),
        ]
    )


@st.composite
def random_problem(draw):
    """Random 2-3 input / 2-4 hidden / 2 output network, input and noise."""
    num_inputs = draw(st.integers(2, 3))
    hidden = draw(st.integers(2, 4))
    weight = st.integers(-2000, 2000)
    w1 = [[draw(weight) for _ in range(num_inputs)] for _ in range(hidden)]
    b1 = [draw(weight) for _ in range(hidden)]
    w2 = [[draw(weight) for _ in range(hidden)] for _ in range(2)]
    b2 = [draw(weight) for _ in range(2)]
    network = make_network(w1, b1, w2, b2)
    x = np.array([draw(st.integers(1, 30)) for _ in range(num_inputs)])
    percent = draw(st.integers(1, 6))
    label = network.predict(x)
    return network, x, label, percent


def query_of(network, x, label, percent):
    return build_query(network, x, label, NoiseConfig(percent))


def runner_verdict(network, x, label, percent):
    """The production path for one query, with nothing memoised."""
    runner = QueryRunner(network, runtime=RuntimeConfig(cache=False))
    return runner.verify_at(x, label, percent)


class TestEnginesNeverContradict:
    @given(random_problem())
    @settings(max_examples=50, deadline=None)
    def test_all_engines_agree_on_one_query(self, problem):
        query = query_of(*problem)
        truth = ExhaustiveEnumerator().verify(query)
        verdicts = {
            "interval": interval_bulk([query])[0],
            "smt": SmtVerifier().verify(query),
            "runner": runner_verdict(*problem),
        }
        for name, result in verdicts.items():
            # Sound engines may abstain but never contradict ground truth.
            if result.status is not VerificationStatus.UNKNOWN:
                assert result.status == truth.status, (
                    f"{name} says {result.status}, exhaustive says {truth.status}"
                )
            if result.is_vulnerable:
                assert query.misclassified(result.witness), (
                    f"{name} produced a witness that does not misclassify"
                )

    @given(random_problem())
    @settings(max_examples=50, deadline=None)
    def test_complete_engines_always_decide(self, problem):
        query = query_of(*problem)
        for result in (SmtVerifier().verify(query), runner_verdict(*problem)):
            assert result.status is not VerificationStatus.UNKNOWN

    @given(random_problem())
    @settings(max_examples=30, deadline=None)
    def test_interval_proofs_imply_empty_witness_set(self, problem):
        query = query_of(*problem)
        if interval_bulk([query])[0].is_robust:
            assert ExhaustiveEnumerator().collect_witnesses(query) == []
