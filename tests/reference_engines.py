"""Scalar references for the vectorised verification passes.

:class:`CornerFalsifier` and :class:`RandomFalsifier` decide one query at
a time from the same candidate generators the frontier plane
(:mod:`repro.verify.batch`) uses in bulk, so the bulk corner and random
passes must reproduce their verdicts, witnesses and node counts exactly;
the tests hold them to it.  :func:`reference_layer_bounds` propagates one
query's interval bounds element by element in Python ints, the reference
for :func:`repro.verify.interval.layer_bounds`.  :func:`fig2_search` is
the paper's literal Fig.-2 tolerance loop, the reference for the
one-frontier P2 search.
"""

from __future__ import annotations

import numpy as np

from repro.verify import ScaledQuery, VerificationResult, VerificationStatus
from repro.verify.falsify import (
    MAX_CORNERS,
    RANDOM_BLOCK,
    RANDOM_SAMPLES,
    corner_grid,
    draw_noise_block,
)


class RandomFalsifier:
    """Uniform random sampling of the noise box."""

    name = "random-falsifier"

    def __init__(
        self,
        samples: int = RANDOM_SAMPLES,
        seed: int = 0,
        batch: int = RANDOM_BLOCK,
    ):
        self.samples = samples
        self.seed = seed
        self.batch = batch

    def verify(self, query: ScaledQuery) -> VerificationResult:
        """VULNERABLE with a witness, or UNKNOWN — never ROBUST."""
        rng = np.random.default_rng(self.seed)
        remaining = self.samples
        tried = 0
        while remaining > 0:
            block_size = min(self.batch, remaining)
            remaining -= block_size
            block = draw_noise_block(rng, query, block_size)
            labels = query.labels_for_batch(block)
            tried += block_size
            bad = np.nonzero(labels != query.true_label)[0]
            if bad.size:
                return VerificationResult(
                    VerificationStatus.VULNERABLE,
                    witness=tuple(int(v) for v in block[bad[0]]),
                    predicted_label=int(labels[bad[0]]),
                    engine=self.name,
                    nodes_explored=tried,
                )
        return VerificationResult(
            VerificationStatus.UNKNOWN, engine=self.name, nodes_explored=tried
        )


class CornerFalsifier:
    """Tries the corners of the noise box (optionally with midpoints).

    Piecewise-linear networks attain extreme logit differences at box
    corners far more often than in the interior, so this tiny search
    catches most vulnerable inputs.  The grid is built with one
    mixed-radix construction (no Python product loop) in the exact order
    the old ``itertools.product`` generation used.
    """

    name = "corner-falsifier"

    def __init__(self, include_midpoints: bool = True, max_corners: int = MAX_CORNERS):
        self.include_midpoints = include_midpoints
        self.max_corners = max_corners

    def verify(self, query: ScaledQuery) -> VerificationResult:
        block = corner_grid(query, self.include_midpoints, self.max_corners)
        if block is None:
            return VerificationResult(
                VerificationStatus.UNKNOWN, engine=self.name, nodes_explored=0
            )
        labels = query.labels_for_batch(block)
        bad = np.nonzero(labels != query.true_label)[0]
        if bad.size:
            return VerificationResult(
                VerificationStatus.VULNERABLE,
                witness=tuple(int(v) for v in block[bad[0]]),
                predicted_label=int(labels[bad[0]]),
                engine=self.name,
                nodes_explored=int(block.shape[0]),
            )
        return VerificationResult(
            VerificationStatus.UNKNOWN,
            engine=self.name,
            nodes_explored=int(block.shape[0]),
        )


def reference_layer_bounds(query: ScaledQuery) -> list[tuple[list[int], list[int]]]:
    """Exact pre-activation bounds per layer under the noise box.

    Returns, per layer (the final one included), (lower, upper) lists of
    Python ints for the pre-activation values.
    """
    low = [int(xi) * (100 + int(lo)) for xi, lo in zip(query.x, query.low)]
    high = [int(xi) * (100 + int(hi)) for xi, hi in zip(query.x, query.high)]
    # Negative inputs flip the interval.
    act_low = [min(a, b) for a, b in zip(low, high)]
    act_high = [max(a, b) for a, b in zip(low, high)]

    bounds: list[tuple[list[int], list[int]]] = []
    for index, (weight, bias) in enumerate(zip(query.weights, query.biases)):
        pre_low, pre_high = [], []
        for j in range(weight.shape[0]):
            total_low = int(bias[j])
            total_high = int(bias[j])
            for i in range(weight.shape[1]):
                coeff = int(weight[j][i])
                if coeff >= 0:
                    total_low += coeff * act_low[i]
                    total_high += coeff * act_high[i]
                else:
                    total_low += coeff * act_high[i]
                    total_high += coeff * act_low[i]
            pre_low.append(total_low)
            pre_high.append(total_high)
        bounds.append((pre_low, pre_high))
        if index < query.num_layers - 1:
            act_low = [max(0, v) for v in pre_low]
            act_high = [max(0, v) for v in pre_high]
    return bounds


def fig2_search(verify, ceiling: int) -> dict:
    """The paper's Fig.-2 loop: start at ``±ceiling`` and shrink the range
    by one point while a counterexample exists.

    ``verify(percent)`` answers one query.  Returns the last flipping
    range with its witness and wrong label, all None when ``±ceiling``
    itself is robust.
    """
    last, last_flip = None, None
    for percent in range(ceiling, 0, -1):
        result = verify(percent)
        if not result.is_vulnerable:
            break
        last, last_flip = result, percent
    return {
        "min_flip_percent": last_flip,
        "witness": last.witness if last else None,
        "flipped_to": last.predicted_label if last else None,
    }
