"""Single-query falsifiers: the scalar references for the bulk prepass.

:class:`CornerFalsifier` and :class:`RandomFalsifier` decide one query at
a time from the same candidate generators the frontier plane
(:mod:`repro.verify.batch`) uses in bulk, so the bulk corner and random
passes must reproduce their verdicts, witnesses and node counts exactly;
the tests hold them to it.
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
