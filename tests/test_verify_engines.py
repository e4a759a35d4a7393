"""Tests for the NN verification engines.

The anchor property: on random tiny networks the complete engines (SMT,
portfolio) agree with exhaustive enumeration — the exact ground truth.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import repro
from repro.config import NoiseConfig, RuntimeConfig
from repro.errors import BudgetExceededError, VerificationError
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.verify import (
    ExhaustiveEnumerator,
    NetworkEncoding,
    NoiseVectorCollector,
    ScaledQuery,
    SmtVerifier,
    VerificationStatus,
    build_query,
    interval_bulk,
)
from repro.runtime import QueryRunner
from repro.verify import exhaustive
from repro.verify.encoder import _float64_exact_layers, forward_scaled
from repro.verify.interval import layer_bounds, linear_layer_bounds

from reference_engines import CornerFalsifier, RandomFalsifier, reference_layer_bounds

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


def pre_activations(query, noise):
    """Each layer's pre-activations at one (integer or ``Fraction``) noise
    point, in exact Python arithmetic; the last layer's are the logits."""
    values = [int(xi) * (100 + pi) for xi, pi in zip(query.x, noise)]
    for weight, bias in zip(query.weights, query.biases):
        values = [
            int(b) + sum(int(w) * v for w, v in zip(row, values))
            for row, b in zip(weight, bias)
        ]
        yield values
        values = [max(0, v) for v in values]


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
        bounds = layer_bounds(query)
        assert len(bounds) == query.num_layers - 1  # hidden layers only
        enumerator = ExhaustiveEnumerator()
        for block in enumerator._grid_chunks(query):
            values = (query.x * (100 + block)).astype(np.int64)
            for (weight, bias), (lows, highs) in zip(
                zip(query.weights, query.biases), bounds
            ):
                values = values @ np.asarray(weight, dtype=np.int64).T + np.asarray(
                    bias, dtype=np.int64
                )
                assert (values >= np.array(lows)).all()
                assert (values <= np.array(highs)).all()
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
def random_encodable_network(draw, hidden=(0, 2)):
    """A random quantised network: ``hidden`` (min, max) hidden layers,
    2-4 classes, signed thousandth weights and biases."""
    sizes = [draw(st.integers(1, 4))]
    sizes += [draw(st.integers(1, 5)) for _ in range(draw(st.integers(*hidden)))]
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
    """Scale every weight for this one query and pick its dtype.

    The scale is the network's least common denominator of every weight
    and bias, as :class:`NetworkEncoding` documents; it is read off the
    ``Fraction``s here, not from the encoder, and returned first."""
    scale = math.lcm(
        *(
            value.denominator
            for layer in network.layers
            for row in (*layer.weights, layer.bias)
            for value in row
        )
    )
    weights, biases = [], []
    factor = 100
    for layer in network.layers:
        weights.append([[int(w * scale) for w in row] for row in layer.weights])
        factor *= scale
        biases.append([int(b * factor) for b in layer.bias])
    reach = max(abs(100 + noise.low), abs(100 + noise.high))
    magnitude = max(abs(v) for v in x) * reach
    safe = magnitude < 2**62
    for rows, bias in zip(weights, biases):
        magnitude = max(sum(map(abs, row)) for row in rows) * magnitude + max(
            map(abs, bias)
        )
        safe = safe and magnitude < 2**62
    return scale, weights, biases, not safe


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
            scale, weights, biases, exact = fresh_encoding(network, x, noise)
            dtype = object if exact else np.int64
            assert encoding.weight_scale == scale
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

    @pytest.mark.parametrize(
        "bias, scale, weights, biases",
        [
            # Every parameter reduces to a denominator of 500, so the
            # scale is 500, not the 1000 the property draws weights at.
            (Fraction(1, 500), 500, [[[0], [1]]], [[0, 100]]),
            # A finer bias denominator sets the scale for the weights too.
            (Fraction(1, 1000), 1000, [[[0], [2]]], [[0, 100]]),
        ],
        ids=["scale-500", "bias-sets-scale"],
    )
    def test_scale_is_the_lcm_of_every_weight_and_bias(
        self, bias, scale, weights, biases
    ):
        network = QuantizedNetwork(
            [
                QuantizedLayer(
                    ((Fraction(0),), (Fraction(1, 500),)),
                    (Fraction(0), bias),
                    relu=False,
                )
            ]
        )
        noise = NoiseConfig(0)
        encoding = NetworkEncoding(network)
        query = encoding.query(np.array([0]), 0, noise)
        assert fresh_encoding(network, [0], noise) == (scale, weights, biases, False)
        assert encoding.weight_scale == scale
        assert not query.exact_dtype
        assert [w.dtype for w in query.weights] == [np.dtype(np.int64)]
        assert [b.dtype for b in query.biases] == [np.dtype(np.int64)]
        assert [w.tolist() for w in query.weights] == weights
        assert [b.tolist() for b in query.biases] == biases
        assert query.x.tolist() == [0] and query.true_label == 0
        assert query.low.tolist() == query.high.tolist() == [0]

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


def up_to(bits: int):
    """Ints of magnitude between ``2**bits / 2`` and ``2**bits``, either sign."""
    edge = 2**bits
    return st.builds(
        lambda sign, cut: sign * (edge - cut),
        st.sampled_from([-1, 1]),
        st.integers(0, edge // 2),
    )


@st.composite
def int64_network_and_rows(draw):
    """Int64 layers and rows whose magnitude bound ends near ``2**target``
    for a target from 44 to 62 bits, so layers run in float64, in int64, or
    switch from one to the other part-way through."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    layers = len(widths) - 1
    target = draw(st.sampled_from(range(44, 63)), label="target bits")
    input_bits = target // (layers + 1)
    entry = up_to(input_bits)
    rows = draw(
        st.lists(
            st.lists(entry, min_size=widths[0], max_size=widths[0]),
            min_size=1,
            max_size=8,
        )
    )
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        # fan_in entries of at most 2**bits sum to at most 2**(bits + lg).
        entry = up_to((target - input_bits) // layers - (fan_in - 1).bit_length())
        weights.append(
            [[draw(entry) for _ in range(fan_in)] for _ in range(fan_out)]
        )
        biases.append([draw(entry) for _ in range(fan_out)])
    bound = max(abs(v) for row in rows for v in row)
    for layer, bias in zip(weights, biases):
        bound = max(sum(map(abs, row)) for row in layer) * bound + max(map(abs, bias))
    assume(bound < 2**62)  # the callers' own int64 proof
    return rows, weights, biases


class TestForwardScaled:
    @given(int64_network_and_rows())
    @settings(max_examples=300, deadline=None)
    def test_int64_input_equals_the_object_int_pass(self, case):
        rows, weights, biases = case
        as_int64 = [np.array(a, dtype=np.int64) for a in (rows, *weights, *biases)]
        as_object = [np.array(a, dtype=object) for a in (rows, *weights, *biases)]
        layers = len(weights)
        fast = forward_scaled(
            as_int64[0], as_int64[1:1 + layers], as_int64[1 + layers:]
        )
        exact = forward_scaled(
            as_object[0], as_object[1:1 + layers], as_object[1 + layers:]
        )
        assert fast.dtype == np.int64
        assert fast.tolist() == exact.tolist()
        flags = _float64_exact_layers(
            as_int64[0], as_int64[1:1 + layers], as_int64[1 + layers:]
        )
        event("float64 layers: " + "".join("F" if f else "I" for f in flags))

    def test_a_layer_past_2_53_falls_back_to_int64(self):
        # Layer 1 reaches 2**52 + 2**27 + 1 (float64-exact); layer 2 triples
        # it past 2**53, where float64 would drop the odd last bit.
        values = np.array([[2**26 + 1]], dtype=np.int64)
        weights = [np.array([[2**26 + 1]]), np.array([[3], [-3]])]
        biases = [np.array([0]), np.array([0, 1])]
        assert _float64_exact_layers(values, weights, biases) == [True, False]
        out = forward_scaled(values, weights, biases)
        assert out.dtype == np.int64
        assert out.tolist() == [[3 * (2**26 + 1) ** 2, -3 * (2**26 + 1) ** 2 + 1]]


class TestIntervalVerifier:
    def test_zero_noise_certifies(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(0))
        assert interval_bulk([query])[0].is_robust

    def test_never_vulnerable(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(40))
        result = interval_bulk([query])[0]
        assert result.status in (
            VerificationStatus.ROBUST,
            VerificationStatus.UNKNOWN,
        )

    def test_soundness_vs_exhaustive(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        for percent in (1, 2, 4, 8, 16):
            query = build_query(simple_network, x, label, NoiseConfig(percent))
            if interval_bulk([query])[0].is_robust:
                assert ExhaustiveEnumerator().verify(query).is_robust

    @given(random_encodable_network(hidden=(1, 3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_layer_bounds_match_the_scalar_reference(self, network, data):
        """Hidden-layer bounds equal the element-by-element reference
        exactly, as Python ints, on int64 and object queries alike."""
        encoding = NetworkEncoding(network)
        width = network.num_inputs
        rows = data.draw(
            st.lists(
                st.lists(encodable_input, min_size=width, max_size=width),
                min_size=1,
                max_size=4,
            )
        )
        # Past int64 whatever was drawn: this query runs on object ints.
        rows.append([2**62 * (-1) ** i for i in range(width)])
        for x in rows:
            ceiling = data.draw(st.integers(0, 60))
            floor = data.draw(st.integers(-300, ceiling))
            noise = NoiseConfig(ceiling, min_percent=floor)
            query = encoding.query(np.array(x, dtype=np.int64), 0, noise)
            event(f"exact_dtype={query.exact_dtype}")
            bounds = layer_bounds(query)
            assert bounds == reference_layer_bounds(query)[:-1]
            assert all(type(v) is int for pair in bounds for side in pair for v in side)
        assert query.exact_dtype

    @given(random_encodable_network(hidden=(1, 3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_linear_layer_bounds_contain_every_point_of_the_box(self, network, data):
        """Linear relaxation bounds hold every hidden pre-activation at every
        integer point of a small box and at rational points of it (an exact
        ``Fraction`` forward pass), are Python ints, are never looser than
        the interval bounds and equal them on the first hidden layer — on
        int64 and object queries alike."""
        for query, points in small_box_queries(network, data):
            bounds, _ = linear_layer_bounds(query)
            interval = layer_bounds(query)
            assert all(type(v) is int for pair in bounds for side in pair for v in side)
            assert bounds[0] == interval[0]
            tighter = False
            for (lows, highs), (interval_lows, interval_highs) in zip(bounds, interval):
                assert all(a >= b for a, b in zip(lows, interval_lows))
                assert all(a <= b for a, b in zip(highs, interval_highs))
                tighter |= lows != interval_lows or highs != interval_highs
            event(f"tighter than interval={tighter}")
            for noise in points:
                values = pre_activations(query, noise)
                for layer, (lows, highs) in zip(values, bounds):
                    assert all(lo <= v <= hi for v, lo, hi in zip(layer, lows, highs))

    @given(random_encodable_network(hidden=(1, 3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_linear_margin_bounds_cover_every_point_of_the_box(self, network, data):
        """Each adversary's margin bound is a Python int at or above the
        exact ``N_adv − N_true`` at every integer point of a small box and
        at rational points of it (the bound is ceiled, so it holds over the
        continuous box), on int64 and object queries alike; the true
        label's own margin is 0."""
        for query, points in small_box_queries(network, data):
            _, margins = linear_layer_bounds(query)
            true = query.true_label
            assert len(margins) == query.num_outputs and margins[true] == 0
            assert all(type(v) is int for v in margins)
            refutes = any(
                margins[k] < query.misclass_threshold(k)
                for k in range(query.num_outputs)
                if k != true
            )
            event(f"margin refutes an adversary={refutes}")
            for noise in points:
                *_, logits = pre_activations(query, noise)
                assert all(v - logits[true] <= m for v, m in zip(logits, margins))


def small_box_queries(network, data):
    """Queries on small sub-boxes of ``network``'s encoded noise box, with
    every integer point of each box and up to four drawn rational points.

    Up to three drawn inputs run on int64 where the magnitude analysis
    allows it, and one ±2**62 row always runs on object ints.  Each box
    is at most 2 wide per component, often near −100 %, where the scaled
    inputs change sign and phases turn unstable; the true label is drawn."""
    encoding = NetworkEncoding(network)
    width = network.num_inputs
    rows = data.draw(
        st.lists(
            st.lists(encodable_input, min_size=width, max_size=width),
            min_size=1,
            max_size=3,
        )
    )
    # Past int64 whatever was drawn: this query runs on object ints.
    rows.append([2**62 * (-1) ** i for i in range(width)])
    cases = []
    for x in rows:
        label = data.draw(st.integers(0, network.num_outputs - 1))
        query = encoding.query(
            np.array(x, dtype=np.int64), label, NoiseConfig(60, min_percent=-300)
        )
        # A sub-box of the encoded one keeps its dtype proof.
        low = data.draw(
            st.lists(
                st.one_of(st.integers(-300, 60), st.integers(-103, -99)),
                min_size=width,
                max_size=width,
            )
        )
        high = [lo + data.draw(st.integers(0, 2)) for lo in low]
        query = dataclasses.replace(
            query,
            low=np.array(low, dtype=np.int64),
            high=np.array(high, dtype=np.int64),
        )
        event(f"exact_dtype={query.exact_dtype}")
        points = list(itertools.product(*map(range, low, [h + 1 for h in high])))
        points += data.draw(
            st.lists(
                st.tuples(
                    *(
                        st.fractions(lo, hi, max_denominator=97)
                        for lo, hi in zip(low, high)
                    )
                ),
                max_size=4,
            )
        )
        cases.append((query, points))
    return cases


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
        runner = QueryRunner(network, runtime=RuntimeConfig(cache=False))
        result = runner.verify_at(x, label, noise.max_percent)
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
