"""Tests for the NN verification engines.

The anchor property: on random tiny networks the complete engines (SMT,
portfolio) agree with exhaustive enumeration — the exact ground truth.
"""

from __future__ import annotations

import ast
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import NoiseConfig, VerifierConfig
from repro.errors import BudgetExceededError, VerificationError
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.verify import (
    CornerFalsifier,
    ExhaustiveEnumerator,
    IntervalVerifier,
    NetworkEncoding,
    NoiseVectorCollector,
    PortfolioVerifier,
    RandomFalsifier,
    ScaledQuery,
    SmtVerifier,
    VerificationStatus,
    build_query,
)
from repro.verify import exhaustive

SCALE = 1000


def make_network(weight_rows_1, bias_1, weight_rows_2, bias_2) -> QuantizedNetwork:
    """Tiny quantised network from integer-thousandth weights."""

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


@pytest.fixture
def simple_network():
    """2-input, 3-hidden, 2-output network with a clear decision rule."""
    return make_network(
        [[1500, -500], [-800, 1200], [400, 400]],
        [100, -200, 0],
        [[1000, -300, 500], [-700, 900, 200]],
        [50, -50],
    )


@st.composite
def random_scaled_query(draw):
    """A scaled query on a random network and an asymmetric noise box.

    1-2 hidden layers, 2-4 outputs, signed weights; int64 or forced
    object arithmetic, the latter sometimes with weights far past int64.
    Each bias is drawn inside its neuron's interval range over the box,
    so ReLUs and decision boundaries tend to cross the box.  Some draws
    copy one output row onto another, so two labels tie at every point
    and argmax must keep the lower index.
    """
    num_inputs = draw(st.integers(2, 4))
    hidden = [draw(st.integers(2, 5)) for _ in range(draw(st.integers(1, 2)))]
    sizes = [num_inputs, *hidden, draw(st.integers(2, 4))]
    exact = draw(st.booleans())
    scale = 10**15 if exact and draw(st.booleans()) else 1
    x = [draw(st.integers(1, 30)) for _ in range(num_inputs)]
    low = [draw(st.integers(-12, 4)) for _ in range(num_inputs)]
    high = [lo + draw(st.integers(0, 12)) for lo in low]
    act_low = [xi * (100 + lo) for xi, lo in zip(x, low)]
    act_high = [xi * (100 + hi) for xi, hi in zip(x, high)]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        rows = [[draw(st.integers(-9, 9)) * scale for _ in range(fan_in)]
                for _ in range(fan_out)]
        pre_low = [
            sum(w * (a if w >= 0 else b) for w, a, b in zip(row, act_low, act_high))
            for row in rows
        ]
        pre_high = [
            sum(w * (b if w >= 0 else a) for w, a, b in zip(row, act_low, act_high))
            for row in rows
        ]
        bias = [-draw(st.integers(lo, hi)) for lo, hi in zip(pre_low, pre_high)]
        act_low = [max(0, lo + b) for lo, b in zip(pre_low, bias)]
        act_high = [max(0, hi + b) for hi, b in zip(pre_high, bias)]
        weights.append(np.array(rows, dtype=object))
        biases.append(np.array(bias, dtype=object))
    if draw(st.booleans()):
        source, target = draw(st.permutations(range(sizes[-1])))[:2]
        weights[-1][target] = weights[-1][source]
        biases[-1][target] = biases[-1][source]
    dtype = object if exact else np.int64
    return ScaledQuery(
        weights=[w.astype(dtype) for w in weights],
        biases=[b.astype(dtype) for b in biases],
        x=np.array(x, dtype=np.int64),
        true_label=draw(st.integers(0, sizes[-1] - 1)),
        low=np.array(low, dtype=np.int64),
        high=np.array(high, dtype=np.int64),
        exact_dtype=exact,
    )


def flat_grid_witnesses(query):
    """Every grid point evaluated, in lexicographic order: the reference."""
    axes = [range(int(lo), int(hi) + 1) for lo, hi in zip(query.low, query.high)]
    points = np.array(list(itertools.product(*axes)), dtype=np.int64)
    labels = query.labels_for_batch(points)
    return [
        (tuple(int(v) for v in point), int(label))
        for point, label in zip(points, labels)
        if label != query.true_label
    ]


def reference_predict(query, noise):
    """The per-element pure-Python forward pass ``predict_single`` replaced."""
    values = [int(xi) * (100 + int(pi)) for xi, pi in zip(query.x, noise)]
    for index, (weight, bias) in enumerate(zip(query.weights, query.biases)):
        values = [
            int(bias[j]) + sum(int(weight[j][i]) * values[i] for i in range(len(values)))
            for j in range(weight.shape[0])
        ]
        if index < query.num_layers - 1:
            values = [max(0, v) for v in values]
    best = 0
    for k in range(1, len(values)):
        if values[k] > values[best]:
            best = k
    return best


class TestBuildQuery:
    def test_rejects_non_integer_input(self, simple_network):
        with pytest.raises(VerificationError):
            build_query(simple_network, np.array([1.5, 2.0]), 0, NoiseConfig(5))

    def test_rejects_bad_label(self, simple_network):
        with pytest.raises(VerificationError):
            build_query(simple_network, np.array([10, 20]), 5, NoiseConfig(5))

    def test_prediction_matches_quantized_network(self, simple_network):
        x = np.array([10, 20])
        query = build_query(simple_network, x, 0, NoiseConfig(10))
        for noise in [(0, 0), (5, -5), (-10, 10), (10, 10)]:
            assert query.predict_single(noise) == simple_network.predict_noisy(
                x, noise
            )

    def test_batch_matches_single(self, simple_network):
        x = np.array([10, 20])
        query = build_query(simple_network, x, 0, NoiseConfig(6))
        batch = np.array([[0, 0], [6, -6], [-3, 2], [-6, -6]])
        labels = query.labels_for_batch(batch)
        for row, label in zip(batch, labels):
            assert query.predict_single(row) == int(label)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_predict_single_matches_reference_formula(self, data):
        query = data.draw(random_scaled_query())
        rows = st.tuples(
            *(st.integers(int(lo), int(hi)) for lo, hi in zip(query.low, query.high))
        )
        for noise in data.draw(st.lists(rows, min_size=1, max_size=8)):
            assert query.predict_single(noise) == reference_predict(query, noise)

    def test_layer_bounds_contain_all_evaluations(self, simple_network):
        x = np.array([10, 20])
        query = build_query(simple_network, x, 0, NoiseConfig(4))
        bounds = query.layer_bounds()
        enumerator = ExhaustiveEnumerator()
        for block in enumerator._grid_chunks(query):
            values = (query.x * (100 + block)).astype(np.int64)
            for layer_index, (weight, bias) in enumerate(
                zip(query.weights, query.biases)
            ):
                values = values @ np.asarray(weight, dtype=np.int64).T + np.asarray(
                    bias, dtype=np.int64
                )
                lows, highs = bounds[layer_index]
                assert (values >= np.array(lows)).all()
                assert (values <= np.array(highs)).all()
                if layer_index < query.num_layers - 1:
                    values = np.maximum(values, 0)

    def test_noise_space_size(self, simple_network):
        query = build_query(simple_network, np.array([10, 20]), 0, NoiseConfig(3))
        assert query.noise_space_size() == 7 * 7

    def test_misclass_threshold_tiebreak(self, simple_network):
        query = build_query(simple_network, np.array([10, 20]), 1, NoiseConfig(3))
        # Adversary 0 < true 1: ties go to the lower index, threshold 0.
        assert query.misclass_threshold(0) == 0
        query = build_query(simple_network, np.array([10, 20]), 0, NoiseConfig(3))
        assert query.misclass_threshold(1) == 1


@st.composite
def random_encodable_network(draw):
    """A random quantised network: 0-2 hidden layers, 2-4 classes, signed
    thousandth weights and biases."""
    sizes = [draw(st.integers(1, 4))]
    sizes += [draw(st.integers(1, 5)) for _ in range(draw(st.integers(0, 2)))]
    sizes.append(draw(st.integers(2, 4)))
    coefficient = st.integers(-3000, 3000).map(lambda v: Fraction(v, SCALE))
    layers = []
    for position, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        weights = tuple(
            tuple(draw(coefficient) for _ in range(fan_in)) for _ in range(fan_out)
        )
        bias = tuple(draw(coefficient) for _ in range(fan_out))
        layers.append(QuantizedLayer(weights, bias, relu=position < len(sizes) - 2))
    return QuantizedNetwork(layers)


#: Small inputs stay on int64; the larger ones push the magnitude
#: analysis onto exact object ints at some layer (or already at the input).
encodable_input = st.one_of(
    st.integers(-100, 100), st.integers(-(2**62), 2**62), st.integers(-(10**9), 10**9)
)


def fresh_encoding(network, x, noise):
    """Scale every weight for this one query and pick its dtype, as the
    per-query encoder did before weights were shared."""
    weights, biases = [], []
    factor = 100
    for layer in network.layers:
        weights.append([[int(w * SCALE) for w in row] for row in layer.weights])
        factor *= SCALE
        biases.append([int(b * factor) for b in layer.bias])
    reach = max(abs(100 + noise.low), abs(100 + noise.high))
    magnitude = max(abs(v) for v in x) * reach
    safe = magnitude < 2**62
    for rows, bias in zip(weights, biases):
        magnitude = max(sum(map(abs, row)) for row in rows) * magnitude + max(
            map(abs, bias)
        )
        safe = safe and magnitude < 2**62
    return weights, biases, not safe


class TestNetworkEncoding:
    @given(random_encodable_network(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_a_fresh_encoding_and_the_rational_network(self, network, data):
        encoding = NetworkEncoding(network)
        rows = data.draw(
            st.lists(
                st.lists(
                    encodable_input,
                    min_size=network.num_inputs,
                    max_size=network.num_inputs,
                ),
                min_size=1,
                max_size=6,
            )
        )
        for x in rows:
            label = data.draw(st.integers(0, network.num_outputs - 1))
            high = data.draw(st.integers(0, 60))
            noise = NoiseConfig(high, min_percent=data.draw(st.integers(-300, high)))
            query = encoding.query(np.array(x, dtype=np.int64), label, noise)
            weights, biases, exact = fresh_encoding(network, x, noise)
            dtype = object if exact else np.int64
            assert query.exact_dtype == exact
            assert [w.dtype for w in query.weights] == [np.dtype(dtype)] * len(weights)
            assert [b.dtype for b in query.biases] == [np.dtype(dtype)] * len(biases)
            assert [w.tolist() for w in query.weights] == weights
            assert [b.tolist() for b in query.biases] == biases
            assert query.x.dtype == np.int64 and query.x.tolist() == x
            assert query.true_label == label
            assert query.low.dtype == query.high.dtype == np.int64
            assert query.low.tolist() == [noise.low] * network.num_inputs
            assert query.high.tolist() == [noise.high] * network.num_inputs
        # Past int64 as well: the labels take plain Python ints.
        rows.append([3**41 * (-1) ** i for i in range(network.num_inputs)])
        expected = [network.predict(x) for x in rows]
        assert encoding.labels(np.array(rows, dtype=object)).tolist() == expected
        assert encoding.labels(rows[:-1]).tolist() == expected[:-1]

    def test_labels_of_no_rows(self, simple_network):
        assert NetworkEncoding(simple_network).labels(np.empty((0, 2))).shape == (0,)

    def test_labels_reject_non_integer_rows(self, simple_network):
        encoding = NetworkEncoding(simple_network)
        with pytest.raises(VerificationError):
            encoding.labels(np.array([[1.5, 2.0]]))
        with pytest.raises(VerificationError):
            encoding.labels(np.array([[1, 2, 3]]))

    @pytest.mark.parametrize("x", [[10, 20], [2**61, 3]])
    def test_built_queries_cannot_write_the_shared_arrays(self, simple_network, x):
        encoding = NetworkEncoding(simple_network)
        query = encoding.query(np.array(x), 0, NoiseConfig(5))
        assert query.exact_dtype == (x[0] > 2**40)
        with pytest.raises(ValueError, match="read-only"):
            query.weights[0][0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            query.biases[-1][0] += 1
        later = encoding.query(np.array(x), 1, NoiseConfig(3))
        assert later.weights[0] is query.weights[0]
        assert later.weights[0].tolist() == build_query(
            simple_network, np.array(x), 1, NoiseConfig(3)
        ).weights[0].tolist()


class TestIntervalVerifier:
    def test_zero_noise_certifies(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(0))
        assert IntervalVerifier().verify(query).is_robust

    def test_never_vulnerable(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(40))
        result = IntervalVerifier().verify(query)
        assert result.status in (
            VerificationStatus.ROBUST,
            VerificationStatus.UNKNOWN,
        )

    def test_soundness_vs_exhaustive(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        for percent in (1, 2, 4, 8, 16):
            query = build_query(simple_network, x, label, NoiseConfig(percent))
            if IntervalVerifier().verify(query).is_robust:
                assert ExhaustiveEnumerator().verify(query).is_robust


class TestExhaustive:
    def test_budget_enforced(self, simple_network):
        query = build_query(simple_network, np.array([10, 20]), 0, NoiseConfig(40))
        with pytest.raises(BudgetExceededError):
            ExhaustiveEnumerator(max_vectors=100).verify(query)

    def test_witness_is_misclassifying(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        for percent in (10, 20, 40):
            query = build_query(simple_network, x, label, NoiseConfig(percent))
            result = ExhaustiveEnumerator().verify(query)
            if result.is_vulnerable:
                assert query.misclassified(result.witness)
                return
        pytest.skip("network too robust for this test input")

    def test_census_counts_match_collection(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(25))
        enumerator = ExhaustiveEnumerator()
        count = enumerator.count_misclassifications(query)
        witnesses = enumerator.collect_witnesses(query)
        assert count == len(witnesses)
        census = enumerator.misclassification_census(query)
        assert sum(census.values()) == count


class TestSplitEnumerator:
    """The box-splitting census against the flat grid walk it replaced."""

    @pytest.fixture
    def vulnerable_query(self, simple_network):
        x = np.array([10, 20])
        query = build_query(
            simple_network, x, simple_network.predict(x), NoiseConfig(25)
        )
        assert ExhaustiveEnumerator().collect_witnesses(query)
        return query

    def test_zero_limit_returns_nothing(self, vulnerable_query):
        assert ExhaustiveEnumerator().collect_witnesses(vulnerable_query, limit=0) == []
        collected = NoiseVectorCollector().collect(vulnerable_query, limit=0)
        assert (collected.vectors, collected.labels) == ([], [])
        assert not collected.exhausted  # nothing was searched

    def test_negative_limit_raises(self, vulnerable_query):
        with pytest.raises(VerificationError):
            ExhaustiveEnumerator().collect_witnesses(vulnerable_query, limit=-1)
        with pytest.raises(VerificationError):
            NoiseVectorCollector().collect(vulnerable_query, limit=-1)

    @given(random_scaled_query(), st.integers(1, 2000))
    @settings(max_examples=80, deadline=None)
    def test_matches_flat_grid(self, query, drawn_limit):
        expected = flat_grid_witnesses(query)
        enumerator = ExhaustiveEnumerator()
        assert enumerator.collect_witnesses(query) == expected
        total = len(expected)
        limits = {1, total // 4, total // 2, total - 1, total + 1, drawn_limit} - {0, -1}
        for limit in limits:
            assert enumerator.collect_witnesses(query, limit=limit) == expected[:limit]
        # Split down to single points, one leaf per forward pass: many
        # more levels, so the limit prunes far more often.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exhaustive, "LEAF_POINTS", 1)
            fine = ExhaustiveEnumerator(chunk=1)
            for limit in limits:
                assert fine.collect_witnesses(query, limit=limit) == expected[:limit]
        census = Counter(label for _, label in expected)
        assert enumerator.misclassification_census(query) == dict(census)
        assert enumerator.count_misclassifications(query) == total

    def test_limit_stops_the_split_early(self, vulnerable_query):
        unlimited = ExhaustiveEnumerator()
        expected = unlimited.collect_witnesses(vulnerable_query)
        limited = ExhaustiveEnumerator()
        assert limited.collect_witnesses(vulnerable_query, limit=3) == expected[:3]
        assert limited.leaf_points < unlimited.leaf_points


class TestFalsifiers:
    def test_random_finds_wide_violation(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(40))
        truth = ExhaustiveEnumerator().verify(query)
        if truth.is_robust:
            pytest.skip("no violation exists at this range")
        result = RandomFalsifier(samples=8192).verify(query)
        if result.is_vulnerable:
            assert query.misclassified(result.witness)

    def test_corner_witness_valid(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(40))
        result = CornerFalsifier().verify(query)
        if result.is_vulnerable:
            assert query.misclassified(result.witness)

    def test_falsifiers_never_claim_robust(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(1))
        assert not RandomFalsifier(samples=16).verify(query).is_robust
        assert not CornerFalsifier().verify(query).is_robust


@st.composite
def random_tiny_network_query(draw):
    """Random 2-3 input / 2-4 hidden / 2 output query with small noise."""
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
    return network, x, label, NoiseConfig(percent)


class TestCompleteEnginesAgainstGroundTruth:
    @given(random_tiny_network_query())
    @settings(max_examples=60, deadline=None)
    def test_smt_matches_exhaustive(self, problem):
        network, x, label, noise = problem
        query = build_query(network, x, label, noise)
        truth = ExhaustiveEnumerator().verify(query)
        result = SmtVerifier().verify(query)
        assert result.status == truth.status
        if result.is_vulnerable:
            assert query.misclassified(result.witness)

    def test_src_never_imports_scipy(self):
        """No module of the package imports scipy, so the CLI and the daemon
        never pay its load time (scipy stays a test-only LP oracle)."""
        package = Path(repro.__file__).parent
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    assert module.split(".")[0] != "scipy", (
                        f"{path.relative_to(package.parent)} imports {module}"
                    )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        code = (
            "import sys, repro.cli, repro.serve; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert result.stdout.strip() == "[]"

    @given(random_tiny_network_query())
    @settings(max_examples=40, deadline=None)
    def test_portfolio_matches_exhaustive(self, problem):
        network, x, label, noise = problem
        query = build_query(network, x, label, noise)
        truth = ExhaustiveEnumerator().verify(query)
        result = PortfolioVerifier().verify(query)
        assert result.status == truth.status


class TestNoiseVectorCollector:
    def test_small_space_collects_all(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(20))
        expected = ExhaustiveEnumerator().collect_witnesses(query)
        collected = NoiseVectorCollector().collect(query)
        assert collected.exhausted
        assert list(zip(collected.vectors, collected.labels)) == expected

    def test_limit_respected(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(20))
        expected = ExhaustiveEnumerator().collect_witnesses(query)
        if len(expected) < 3:
            pytest.skip("needs at least 3 witnesses")
        collected = NoiseVectorCollector().collect(query, limit=3)
        assert len(collected) == 3

    def test_exhausts_when_no_witnesses(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(1))
        expected = ExhaustiveEnumerator().collect_witnesses(query)
        if expected:
            pytest.skip("expected a robust range for this test")
        collected = NoiseVectorCollector().collect(query, limit=5)
        assert collected.exhausted
        assert len(collected) == 0

    def test_box_above_the_old_cutoff_collects_all(self):
        """A box of 9.8 M points (above the 8 M points where extraction
        used to switch to a capped solver loop) yields every vector.

        With d = p0 - p1 + p2 - p3 + p4, output 0 is 10·(100 + d) and
        output 1 is 1020 minus that, so label 1 wins exactly when
        d <= -50: shifting each coordinate to q = ±p + 12 in [0, 24],
        that is q0 + ... + q4 <= 10, which C(15, 5) = 3003 vectors meet.
        """
        weights = [np.array([[1, -1, 1, -1, 1], [-1, 1, -1, 1, -1]], dtype=np.int64)]
        biases = [np.array([0, 1020], dtype=np.int64)]
        query = ScaledQuery(
            weights=weights,
            biases=biases,
            x=np.full(5, 10, dtype=np.int64),
            true_label=0,
            low=np.full(5, -12, dtype=np.int64),
            high=np.full(5, 12, dtype=np.int64),
            exact_dtype=False,
        )
        assert query.noise_space_size() > 8_000_000
        collected = NoiseVectorCollector().collect(query)
        assert collected.exhausted
        assert len(collected) == len(set(collected.vectors)) == math.comb(15, 5)
        assert collected.labels == [1] * len(collected)
        for vector in collected.vectors:
            p0, p1, p2, p3, p4 = vector
            assert p0 - p1 + p2 - p3 + p4 <= -50
        assert collected.vectors == sorted(collected.vectors)
