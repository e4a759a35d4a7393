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
either way.  :class:`IntervalVerifier` is the single-query wrapper.

:func:`proved_labels` runs the same pass over many sub-boxes of one
query's noise box and reports, per sub-box, the label the interval lower
bounds prove every point takes — the pruning step of the exhaustive
enumerator's box splitting.
"""

from __future__ import annotations

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


def _propagate(weights, biases, x, lo, hi, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Activation bounds entering the final layer, one row per box.

    Sound for any sub-box of a query's noise box in the query's dtype: a
    sub-box only shrinks the magnitudes the encoder's int64 analysis
    bounded.
    """
    act_low, act_high = _input_bounds(x, lo, hi, dtype)
    for weight, bias in zip(weights[:-1], biases[:-1]):
        w = weight.astype(dtype)
        w_pos = np.maximum(w, 0)
        w_neg = np.minimum(w, 0)
        b = bias.astype(dtype)
        pre_low = act_low @ w_pos.T + act_high @ w_neg.T + b
        pre_high = act_high @ w_pos.T + act_low @ w_neg.T + b
        act_low = np.maximum(pre_low, 0)
        act_high = np.maximum(pre_high, 0)
    return act_low, act_high


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
    UNKNOWN otherwise (with the scalar verifier's ``blocking_adversary``
    / ``margin`` stats).  All queries must encode the same network (they
    may differ in input, label and noise box); they are grouped by
    integer dtype so exact object arithmetic and fast int64 coexist.
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


class IntervalVerifier:
    """Certify robustness via interval arithmetic (single-query wrapper)."""

    name = _NAME

    def verify(self, query: ScaledQuery) -> VerificationResult:
        """ROBUST when certified; UNKNOWN otherwise (never VULNERABLE)."""
        return interval_bulk([query])[0]

    def certified(self, query: ScaledQuery) -> bool:
        """Convenience: True when the box is certified robust."""
        return self.verify(query).is_robust
