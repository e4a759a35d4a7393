"""Interval bound propagation (sound, incomplete robustness certificates).

The ERAN/DeepPoly-family baseline at its simplest: exact integer interval
arithmetic through the scaled network.  When the certified margin between
the true logit and every adversary stays on the right side, no noise
vector in the box can flip the prediction — a proof, obtained in
microseconds.  When the margin straddles zero the verdict is UNKNOWN and
a complete engine must take over.

The output-difference bound is computed on the *difference* weights
``w_adv - w_true`` (one affine form) rather than subtracting two
independent logit intervals — the standard one-step tightening that often
doubles the certified radius.

The pass is **frontier-vectorised**: :func:`interval_bulk` stacks any
number of queries over the same network into ``(Q, n)`` bound matrices
and propagates them with one matmul pair per layer for the whole batch,
replacing the per-query per-element Python loops.  Queries are grouped
by integer dtype — int64 where the magnitude analysis proved it safe,
exact object integers otherwise — so the arithmetic stays bit-exact
either way.  A single query is a batch of one: ``interval_bulk([q])[0]``.

:func:`layer_bounds` reads one query's hidden pre-activation bounds off
the same pass: the phase fixing and activation caps of
:class:`~repro.verify.smt_verifier.SmtVerifier`.
:func:`linear_layer_bounds` tightens them with an exact symbolic linear
relaxation (affine bounds in the noise percents, concretised per layer)
and carries it one step further, through the final layer's difference
weights, to an upper bound of each adversary's margin: the phase fixing,
activation caps and margin refutation of
:class:`~repro.verify.incremental.LadderSession`, and the margin gate of
the random falsifier in :class:`~repro.verify.batch.FrontierPrepass`.
:func:`margin_refutes` is the one place that compares a margin bound
with its misclassification threshold.

:func:`proved_labels` runs the same pass over many sub-boxes of one
query's noise box and reports, per sub-box, the label the interval lower
bounds prove every point takes — the pruning step of the exhaustive
enumerator's box splitting.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import VerificationError
from .encoder import ScaledQuery
from .result import VerificationResult, VerificationStatus

_NAME = "interval"


def _input_bounds(x, lo, hi, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Activation bounds at the network input, one row per box ``(B, n_in)``.

    ``lo``/``hi`` are ``(B, n_in)`` noise-percent boxes; ``x`` is one
    input row per box or a single input shared by every box.
    """
    x = x.astype(dtype)
    a = x * (100 + lo.astype(dtype))
    b = x * (100 + hi.astype(dtype))
    # Negative inputs flip the interval; stay general, as the scalar did.
    return np.minimum(a, b), np.maximum(a, b)


def _propagate(
    weights, biases, x, lo, hi, dtype, pre_bounds: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Activation bounds entering the final layer, one row per box.

    Sound for any sub-box of a query's noise box in the query's dtype: a
    sub-box only shrinks the magnitudes the encoder's int64 analysis
    bounded.  Each hidden layer's pre-activation ``(low, high)`` bounds
    are appended to ``pre_bounds`` when one is given.
    """
    act_low, act_high = _input_bounds(x, lo, hi, dtype)
    for weight, bias in zip(weights[:-1], biases[:-1]):
        w = weight.astype(dtype)
        w_pos = np.maximum(w, 0)
        w_neg = np.minimum(w, 0)
        b = bias.astype(dtype)
        pre_low = act_low @ w_pos.T + act_high @ w_neg.T + b
        pre_high = act_high @ w_pos.T + act_low @ w_neg.T + b
        if pre_bounds is not None:
            pre_bounds.append((pre_low, pre_high))
        act_low = np.maximum(pre_low, 0)
        act_high = np.maximum(pre_high, 0)
    return act_low, act_high


def layer_bounds(query: ScaledQuery) -> list[tuple[list[int], list[int]]]:
    """Exact pre-activation bounds of each hidden layer under the noise box.

    Per hidden layer, ``(lower, upper)`` lists of Python ints: the phase
    fixing of the complete engines (a neuron whose bounds do not straddle
    zero has a known ReLU phase).  Read off the same pass as
    :func:`interval_bulk`; the final layer is not bounded.
    """
    dtype = object if query.exact_dtype else np.int64
    pre_bounds: list = []
    _propagate(
        query.weights,
        query.biases,
        query.x,
        query.low[None, :],
        query.high[None, :],
        dtype,
        pre_bounds,
    )
    return [(low[0].tolist(), high[0].tolist()) for low, high in pre_bounds]


def linear_layer_bounds(
    query: ScaledQuery,
) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """Hidden-layer bounds tightened by linear relaxation, and margin bounds.

    Returns ``(layers, margins)``.  ``layers`` has the shape of
    :func:`layer_bounds`, is never looser, and equals it on the first
    hidden layer.  ``margins[k]`` is an upper bound of ``N_k − N_true``
    over the box (0 for the true label).  Every neuron keeps a lower and
    an upper affine function of the noise percents that bound it over the
    whole (continuous) box — the symbolic propagation of Neurify, which is
    DeepPoly back-substitution when there are two hidden layers:

    - the first layer is exact, ``b + W·x·(100 + p)`` being affine in ``p``;
    - a ReLU whose bounds ``l < 0 < u`` straddle zero is bounded above by
      the triangle line ``u·(z − l)/(u − l)``, below by ``z`` when
      ``u > −l`` and by 0 otherwise; a stable ReLU is ``z`` or 0.

    Each hidden function is concretised over the box, lower bounds floored
    and upper bounds ceiled, and intersected with :func:`layer_bounds`;
    the intersected ``(l, u)`` feed the next layer's relaxation.  The last
    hidden layer's activation rows go through the difference weights
    ``W[k] − W[true]`` of the final layer (the CROWN margin), whose upper
    functions are ceiled likewise.  Arithmetic is exact: every function is
    a row ``[constant, coefficient per noise component]`` of Python ints
    over one positive denominator per layer.
    """
    interval = layer_bounds(query)
    lo = query.low.astype(object)
    hi = query.high.astype(object)
    x = query.x.astype(object)
    weights = [weight.astype(object) for weight in query.weights]
    biases = [bias.astype(object) for bias in query.biases]
    # The final layer as margins N_k − N_true: the true label's row is 0.
    weights[-1] = weights[-1] - weights[-1][query.true_label]
    biases[-1] = biases[-1] - biases[-1][query.true_label]
    pre = np.column_stack([biases[0] + weights[0] @ (100 * x), weights[0] * x])
    pre_low = pre_high = pre
    scale = 1
    bounds: list[tuple[list[int], list[int]]] = []
    for layer, (interval_low, interval_high) in enumerate(interval):
        floor = _box_extreme(pre_low, lo, hi) // scale
        ceiling = -(-_box_extreme(pre_high, hi, lo) // scale)
        low = list(map(max, floor, interval_low))
        high = list(map(min, ceiling, interval_high))
        bounds.append((low, high))
        # Activation rows over scale·widen: every triangle slope u/(u−l)
        # becomes an integer multiple of 1/widen.
        widen = math.lcm(*(u - l for l, u in zip(low, high) if l < 0 < u))
        act_low = pre_low * widen
        act_high = pre_high * widen
        for j, (l, u) in enumerate(zip(low, high)):
            if u <= 0:
                act_low[j] = act_high[j] = 0
            elif l < 0:
                if u <= -l:
                    act_low[j] = 0
                line = pre_high[j].copy()
                line[0] -= l * scale
                act_high[j] = line * (u * (widen // (u - l)))
        scale *= widen
        positive = np.maximum(weights[layer + 1], 0)
        negative = np.minimum(weights[layer + 1], 0)
        bias = biases[layer + 1] * scale
        pre_low = positive @ act_low + negative @ act_high
        pre_high = positive @ act_high + negative @ act_low
        pre_low[:, 0] += bias
        pre_high[:, 0] += bias
    margins = -(-_box_extreme(pre_high, hi, lo) // scale)
    return bounds, margins.tolist()


def margin_refutes(query: ScaledQuery, margins: Sequence[int], adversary: int) -> bool:
    """Whether the margin bound proves no point of the box flips to ``adversary``.

    ``margins`` are the upper bounds :func:`linear_layer_bounds` returns:
    below :meth:`~repro.verify.encoder.ScaledQuery.misclass_threshold`,
    ``N_adversary − N_true`` cannot reach a flip anywhere in the box.
    """
    return margins[adversary] < query.misclass_threshold(adversary)


def _box_extreme(rows, toward_positive, toward_negative) -> np.ndarray:
    """Each affine row's value at the box corner its coefficient signs pick.

    ``rows`` are ``[constant, coefficients…]``; a positive coefficient
    takes its component from ``toward_positive``, any other from
    ``toward_negative`` — the minimum over the box for ``(lo, hi)``, the
    maximum for ``(hi, lo)``.
    """
    coefficients = rows[:, 1:]
    corner = np.where(coefficients > 0, toward_positive, toward_negative)
    return rows[:, 0] + (coefficients * corner).sum(axis=1)


def proved_labels(query: ScaledQuery, lo, hi) -> np.ndarray:
    """The label every point of each sub-box provably takes, or -1.

    ``lo``/``hi`` are ``(B, n_in)`` sub-boxes of ``query``'s noise box.
    Label ``k`` is proved for a box when the interval lower bound of
    ``N_k - N_j`` reaches the argmax tie threshold for every other
    ``j``: 0 when ``k < j`` (ties go to the lower index), 1 otherwise
    (a strict win; all scaled values are integers).
    """
    dtype = object if query.exact_dtype else np.int64
    act_low, act_high = _propagate(
        query.weights, query.biases, query.x, lo, hi, dtype
    )
    final_w = query.weights[-1].astype(dtype)
    final_b = query.biases[-1].astype(dtype)
    labels = np.full(act_low.shape[0], -1, dtype=np.int64)
    for k in range(query.num_outputs):
        proved = np.ones(act_low.shape[0], dtype=bool)
        for j in range(query.num_outputs):
            if j == k:
                continue
            # act* attains the lower bound of N_k - N_j over the box; two
            # dot products, as in _decide_group, stay within the encoder's
            # int64 magnitude analysis.
            act_star = np.where(final_w[k] >= final_w[j], act_low, act_high)
            lower = (act_star @ final_w[k] + final_b[k]) - (
                act_star @ final_w[j] + final_b[j]
            )
            proved &= lower >= (0 if k < j else 1)
        labels[proved] = k
    return labels


def interval_bulk(queries: Sequence[ScaledQuery]) -> list[VerificationResult]:
    """Interval verdicts for many same-network queries, vectorised.

    Returns one result per query, in order: ROBUST when certified,
    UNKNOWN otherwise (with ``blocking_adversary`` / ``margin`` stats:
    the first adversary whose bound reaches it, and that bound).  All
    queries must encode the same network (they may differ in input,
    label and noise box); they are grouped by integer dtype so exact
    object arithmetic and fast int64 coexist.
    """
    results: list[VerificationResult | None] = [None] * len(queries)
    groups: dict[bool, list[int]] = {}
    for position, query in enumerate(queries):
        if query.num_layers < 1:
            raise VerificationError("query has no layers")
        groups.setdefault(query.exact_dtype, []).append(position)
    for exact, positions in groups.items():
        group = [queries[p] for p in positions]
        dtype = object if exact else np.int64
        for position, result in zip(positions, _decide_group(group, dtype)):
            results[position] = result
    return results  # type: ignore[return-value]


def _decide_group(group, dtype) -> list[VerificationResult]:
    act_low, act_high = _propagate(
        group[0].weights,
        group[0].biases,
        np.stack([q.x for q in group]),
        np.stack([q.low for q in group]),
        np.stack([q.high for q in group]),
        dtype,
    )
    final_w = group[0].weights[-1].astype(dtype)
    final_b = group[0].biases[-1].astype(dtype)
    num_outputs = group[0].num_outputs
    true_labels = np.array([q.true_label for q in group])

    blocking = np.full(len(group), -1, dtype=np.int64)
    margins = np.zeros(len(group), dtype=object)
    # First blocking adversary in ascending index order, as the scalar did.
    for adversary in range(num_outputs):
        undecided = blocking < 0
        for true in range(num_outputs):
            if adversary == true:
                continue
            rows = np.nonzero(undecided & (true_labels == true))[0]
            if rows.size == 0:
                continue
            diff = final_w[adversary] - final_w[true]
            # act* attains the upper bound of N_adv - N_true over the box;
            # the encoder's partial-sum magnitude analysis (the int64/object
            # dtype choice) covers these dot products and their difference.
            act_star = np.where(diff >= 0, act_high[rows], act_low[rows])
            upper = (act_star @ final_w[adversary] + final_b[adversary]) - (
                act_star @ final_w[true] + final_b[true]
            )
            threshold = group[int(rows[0])].misclass_threshold(adversary)
            hit = np.nonzero(upper >= threshold)[0]
            for k in hit:
                row = rows[k]
                blocking[row] = adversary
                margins[row] = int(upper[k])
    results = []
    for position in range(len(group)):
        if blocking[position] >= 0:
            results.append(
                VerificationResult(
                    VerificationStatus.UNKNOWN,
                    engine=_NAME,
                    stats={
                        "blocking_adversary": int(blocking[position]),
                        "margin": int(margins[position]),
                    },
                )
            )
        else:
            results.append(
                VerificationResult(VerificationStatus.ROBUST, engine=_NAME)
            )
    return results

