"""Falsifiers: fast counterexample search without completeness.

These play the role adversarial-attack baselines play against formal
tools: when a misclassifying noise vector exists they usually find one in
milliseconds, letting the portfolio skip the complete engines.

The candidate generation lives in module-level helpers
(:func:`corner_grid`, :func:`draw_noise_block`) and budget constants,
which the frontier plane (:mod:`repro.verify.batch`) — the only
implementation of the incomplete stages on the production path — uses
verbatim.  :class:`CornerFalsifier` and :class:`RandomFalsifier` are the
single-query references: the bulk passes evaluate *exactly* the
candidate streams these would, and the tests hold them to it.
"""

from __future__ import annotations

import numpy as np

from .encoder import ScaledQuery
from .result import VerificationResult, VerificationStatus

#: Sampling budget / block size of the random falsifier; the frontier
#: plane imports these so it draws the reference falsifier's streams.
RANDOM_SAMPLES = 4096
RANDOM_BLOCK = 512

#: Default corner budget (grids above this are skipped as UNKNOWN).
MAX_CORNERS = 4096


def mixed_radix_grid(spans: list[np.ndarray]) -> np.ndarray:
    """All combinations of ``spans`` as a ``(prod sizes, len(spans))`` array.

    Row order equals ``itertools.product(*spans)`` — the last span varies
    fastest — so vectorised construction is a drop-in replacement for the
    Python-loop generation it supersedes (witness selection depends on
    this order).
    """
    sizes = [int(span.shape[0]) for span in spans]
    total = 1
    for size in sizes:
        total *= size
    indices = np.arange(total, dtype=np.int64)
    columns = []
    remaining = indices
    for size, span in zip(sizes[::-1], spans[::-1]):
        columns.append(span[remaining % size])
        remaining = remaining // size
    return np.stack(columns[::-1], axis=1)


def corner_spans(
    query: ScaledQuery, include_midpoints: bool = True
) -> list[np.ndarray]:
    """Per-node candidate values of the corner search (sorted, unique)."""
    spans = []
    for lo, hi in zip(query.low, query.high):
        lo, hi = int(lo), int(hi)
        options = {lo, hi}
        if include_midpoints:
            options.add((lo + hi) // 2)
        spans.append(np.array(sorted(options), dtype=np.int64))
    return spans


def corner_grid(
    query: ScaledQuery,
    include_midpoints: bool = True,
    max_corners: int = MAX_CORNERS,
) -> np.ndarray | None:
    """The corner falsifier's candidate block, or None above the budget."""
    spans = corner_spans(query, include_midpoints)
    total = 1
    for span in spans:
        total *= int(span.shape[0])
    if total > max_corners:
        return None
    return mixed_radix_grid(spans)


def draw_noise_block(
    rng: np.random.Generator, query: ScaledQuery, size: int
) -> np.ndarray:
    """One block of uniform noise rows — a single ``rng.integers`` call.

    The scalar falsifier and the bulk frontier pass both consume this
    helper, so their sample streams are identical by construction.  When
    every node shares one box (every :class:`~repro.config.NoiseConfig`
    box does) the bounds are passed as scalars, which numpy draws faster
    and into the same stream as the per-node bounds broadcast over the
    row axis that any other box gets.
    """
    low, high = query.low.astype(np.int64), query.high.astype(np.int64) + 1
    if (low == low[0]).all() and (high == high[0]).all():
        low, high = low[0], high[0]
    return rng.integers(low, high, size=(size, query.num_inputs), dtype=np.int64)


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
