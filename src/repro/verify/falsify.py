"""Falsifier candidates: fast counterexample search without completeness.

The corner and random stages play the role adversarial-attack baselines
play against formal tools: when a misclassifying noise vector exists
they usually find one in milliseconds, letting a query skip the
complete engines.

This module holds their candidate generation (:func:`corner_grid`,
:func:`draw_noise_block`) and budget constants; the frontier plane
(:mod:`repro.verify.batch`), the only implementation of the incomplete
stages, evaluates these candidate blocks in bulk.  It draws random
blocks only for the rungs the exact margin bound of
:func:`~repro.verify.interval.linear_layer_bounds` leaves open; on a
rung the bound proves ROBUST no sample could flip.
"""

from __future__ import annotations

import numpy as np

from .encoder import ScaledQuery

#: Sampling budget / block size of the random stage.
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

    Every random-stage sample stream is drawn through this helper.  When
    every node shares one box (every :class:`~repro.config.NoiseConfig`
    box does) the bounds are passed as scalars, which numpy draws faster
    and into the same stream as the per-node bounds broadcast over the
    row axis that any other box gets.
    """
    low, high = query.low.astype(np.int64), query.high.astype(np.int64) + 1
    if (low == low[0]).all() and (high == high[0]).all():
        low, high = low[0], high[0]
    return rng.integers(low, high, size=(size, query.num_inputs), dtype=np.int64)
