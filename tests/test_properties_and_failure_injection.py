"""Cross-cutting property tests and failure injection.

These target the invariants DESIGN.md §7 commits to: interval soundness,
Tseitin equisatisfiability, scaled-query/network agreement on deep nets,
and graceful behaviour on degenerate inputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NoiseConfig
from repro.errors import VerificationError
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.sat import CdclSolver, SatStatus, tseitin
from repro.sat.formula import And, FALSE, Iff, Implies, Not, Or, TRUE, Var, Xor
from repro.verify import (
    ExhaustiveEnumerator,
    IntervalVerifier,
    SmtVerifier,
    build_query,
)

SCALE = 1000


def quantized_from_ints(layer_specs):
    """Build a QuantizedNetwork from integer-thousandth layer specs."""
    layers = []
    for rows, bias, relu in layer_specs:
        layers.append(
            QuantizedLayer(
                tuple(tuple(Fraction(v, SCALE) for v in row) for row in rows),
                tuple(Fraction(v, SCALE) for v in bias),
                relu=relu,
            )
        )
    return QuantizedNetwork(layers)


@st.composite
def deep_network_query(draw):
    """Random THREE-layer network (2 hidden ReLU layers) + small query."""
    n_in = draw(st.integers(2, 3))
    h1 = draw(st.integers(2, 3))
    h2 = draw(st.integers(2, 3))
    weight = st.integers(-1500, 1500)

    def matrix(rows, cols):
        return [[draw(weight) for _ in range(cols)] for _ in range(rows)]

    def vector(size):
        return [draw(weight) for _ in range(size)]

    network = quantized_from_ints(
        [
            (matrix(h1, n_in), vector(h1), True),
            (matrix(h2, h1), vector(h2), True),
            (matrix(2, h2), vector(2), False),
        ]
    )
    x = np.array([draw(st.integers(1, 20)) for _ in range(n_in)])
    percent = draw(st.integers(1, 4))
    return network, x, NoiseConfig(percent)


class TestDeepNetworks:
    @given(deep_network_query())
    @settings(max_examples=30, deadline=None)
    def test_query_encoding_matches_network_on_deep_nets(self, problem):
        network, x, noise = problem
        label = network.predict(x)
        query = build_query(network, x, label, noise)
        rng = np.random.default_rng(0)
        for _ in range(10):
            vector = tuple(
                int(rng.integers(noise.low, noise.high + 1))
                for _ in range(len(x))
            )
            assert query.predict_single(vector) == network.predict_noisy(x, vector)

    @given(deep_network_query())
    @settings(max_examples=20, deadline=None)
    def test_smt_complete_on_deep_nets(self, problem):
        network, x, noise = problem
        label = network.predict(x)
        query = build_query(network, x, label, noise)
        truth = ExhaustiveEnumerator().verify(query)
        result = SmtVerifier().verify(query)
        assert result.status == truth.status

    @given(deep_network_query())
    @settings(max_examples=30, deadline=None)
    def test_interval_sound_on_deep_nets(self, problem):
        network, x, noise = problem
        label = network.predict(x)
        query = build_query(network, x, label, noise)
        if IntervalVerifier().verify(query).is_robust:
            assert ExhaustiveEnumerator().verify(query).is_robust


@st.composite
def random_formula(draw, depth=0):
    if depth >= 4 or draw(st.booleans()):
        choice = draw(st.integers(0, 4))
        if choice == 0:
            return TRUE
        if choice == 1:
            return FALSE
        return Var(f"v{draw(st.integers(0, 3))}")
    kind = draw(st.sampled_from(["not", "and", "or", "implies", "iff", "xor"]))
    if kind == "not":
        return Not(draw(random_formula(depth + 1)))
    left = draw(random_formula(depth + 1))
    right = draw(random_formula(depth + 1))
    return {
        "and": And,
        "or": Or,
        "implies": Implies,
        "iff": Iff,
        "xor": Xor,
    }[kind](left, right)


class TestTseitin:
    @given(random_formula())
    @settings(max_examples=200, deadline=None)
    def test_equisatisfiable_with_semantics(self, formula):
        """tseitin(F) SAT  <=>  F has a satisfying assignment."""
        cnf, var_map = tseitin(formula)
        solver = CdclSolver()
        solver.add_cnf(cnf)
        solver_says = solver.solve().status is SatStatus.SAT

        names = sorted(formula.variables())
        semantic = False
        for mask in range(2 ** len(names)):
            assignment = {
                name: bool((mask >> i) & 1) for i, name in enumerate(names)
            }
            if formula.evaluate(assignment):
                semantic = True
                break
        assert solver_says == semantic

    @given(random_formula())
    @settings(max_examples=100, deadline=None)
    def test_model_projects_to_satisfying_assignment(self, formula):
        cnf, var_map = tseitin(formula)
        solver = CdclSolver()
        solver.add_cnf(cnf)
        result = solver.solve()
        if result.status is not SatStatus.SAT:
            return
        assignment = {
            name: result.model[index] for name, index in var_map.items()
        }
        # Variables absent from the map (formula had none) default False.
        for name in formula.variables():
            assignment.setdefault(name, False)
        assert formula.evaluate(assignment)


class TestFailureInjection:
    def test_zero_weight_network_is_fully_robust(self):
        """All-zero weights: constant output, no noise can flip it."""
        network = quantized_from_ints(
            [
                ([[0, 0], [0, 0]], [0, 0], True),
                ([[0, 0], [0, 0]], [500, 0], False),
            ]
        )
        x = np.array([10, 10])
        label = network.predict(x)  # logits (0.5, 0): always label 0
        assert label == 0
        query = build_query(network, x, label, NoiseConfig(40))
        assert IntervalVerifier().verify(query).is_robust
        assert SmtVerifier().verify(query).is_robust

    def test_zero_noise_range_behaves(self):
        network = quantized_from_ints(
            [
                ([[1000, -1000]], [0], True),
                ([[1000], [-1000]], [0, 100], False),
            ]
        )
        x = np.array([5, 3])
        label = network.predict(x)
        query = build_query(network, x, label, NoiseConfig(0))
        assert query.noise_space_size() == 1
        assert ExhaustiveEnumerator().verify(query).is_robust

    def test_tie_exactly_on_boundary_resolves_to_lower_index(self):
        """Logits exactly equal: argmax must pick label 0; a query with
        true label 1 must therefore be 'vulnerable' at zero noise —
        exercised through every engine's threshold handling."""
        network = quantized_from_ints(
            [
                ([[1000]], [0], True),
                ([[1000], [1000]], [0, 0], False),  # o0 == o1 always
            ]
        )
        x = np.array([7])
        assert network.predict(x) == 0
        query = build_query(network, x, 1, NoiseConfig(0))
        truth = ExhaustiveEnumerator().verify(query)
        smt = SmtVerifier().verify(query)
        assert truth.is_vulnerable and smt.is_vulnerable

    def test_input_containing_zero_is_rejected_upstream(self):
        """The preprocessing maps inputs to [1, scale]; zeros would make a
        node invisible to relative noise.  The scaler guarantees >= 1."""
        from repro.data import scale_to_integers

        train = np.array([[0.0, 5.0], [1.0, 9.0]])
        _, scaled = scale_to_integers(train, scale=50)
        assert scaled.min() >= 1

    def test_build_query_derives_the_scale_from_the_weights(self):
        """No weight can miss the scale: the encoding reads its scale off
        the network (the lcm of every denominator), so a 1/7 weight next
        to a 1/2 bias still encodes exactly."""
        from repro.verify import NetworkEncoding

        layer = QuantizedLayer(
            ((Fraction(1, 7), Fraction(-3, 7)), (Fraction(2, 7), Fraction(1))),
            (Fraction(1, 2), Fraction(0)),
            relu=False,
        )
        network = QuantizedNetwork([layer])
        assert NetworkEncoding(network).weight_scale == 14
        x = (3, 2)
        query = build_query(network, np.array(x), network.predict(x), NoiseConfig(5))
        for p0 in range(-5, 6):
            for p1 in range(-5, 6):
                assert query.predict_single((p0, p1)) == network.predict_noisy(
                    x, (p0, p1)
                )

    def test_single_class_dataset_bias_census(self):
        from repro.core.bias import TrainingBiasAnalysis
        from repro.core.noise_vectors import ExtractionReport
        from repro.data.dataset import Dataset

        data = Dataset(np.ones((4, 2)), np.array([1, 1, 1, 1]))
        report = TrainingBiasAnalysis(data).analyze(
            ExtractionReport(noise_percent=5)
        )
        assert report.training_majority_label == 1
        assert report.total_flips == 0
        assert not report.bias_confirmed  # no evidence without flips
