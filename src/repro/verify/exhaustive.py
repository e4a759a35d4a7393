"""Exhaustive noise-space enumeration (exact ground truth).

:meth:`ExhaustiveEnumerator.verify` evaluates the scaled-integer network
on every noise vector in the box, vectorised and chunked, up to the first
witness.  Integer arithmetic makes this bit-exact, so the enumerator is
the reference the complete solvers are tested against.

The census queries behind the paper's P3 analyses (every flipping
vector, its label, per-label counts) are output-sensitive instead of
walking every grid point.  They bisect the noise box, always on its
first dimension wider than one point, so every sub-box is a contiguous
run of the lexicographic grid order.  Each frontier level is bounded in
one exact interval pass (:func:`~repro.verify.interval.proved_labels`):

- a sub-box proved to keep the true label emits nothing;
- a sub-box proved to take one wrong label emits all its points with
  that label, with no forward pass (the census only counts them);
- an unproved sub-box of at most :data:`LEAF_POINTS` points is evaluated
  point by point, the rest are split again.

The results equal the flat grid walk's, in the same order.  Their cost
is the leaf points, not the box size, so they are complete at every
noise range; a ``limit`` on the witnesses ends the split as soon as the
first ``limit`` of them in grid order are known.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import BudgetExceededError, VerificationError
from .encoder import ScaledQuery
from .interval import proved_labels
from .result import VerificationResult, VerificationStatus

#: Unproved sub-boxes of at most this many points are evaluated point by
#: point instead of being split further.
LEAF_POINTS = 64

#: Box splitting ranks grid points in int64, so boxes must hold fewer
#: points than this.
GRID_LIMIT = 2**63


class ExhaustiveEnumerator:
    """Full enumeration; ``max_vectors`` bounds the flat walk of
    :meth:`verify`.

    ``boxes`` and ``leaf_points`` count, over this instance's lifetime,
    the sub-boxes the census queries bounded and the leaf points they
    evaluated one by one.
    """

    name = "exhaustive"

    def __init__(self, max_vectors: int = 20_000_000, chunk: int = 250_000):
        self.max_vectors = max_vectors
        self.chunk = chunk
        self.boxes = 0
        self.leaf_points = 0

    # -- enumeration plumbing ---------------------------------------------------

    def _check_budget(self, query: ScaledQuery) -> int:
        """Number of vectors in the box; raises when it exceeds the budget."""
        # A product of Python ints: np.prod wraps silently at 64 bits,
        # which let astronomically large boxes slip past the budget check.
        total = query.noise_space_size()
        if total > self.max_vectors:
            raise BudgetExceededError(
                f"noise space has {total} vectors, budget is {self.max_vectors}",
                budget=self.max_vectors,
            )
        return total

    def _grid_chunks(self, query: ScaledQuery) -> Iterator[np.ndarray]:
        """Yield (chunk, n_in) int64 arrays covering the whole box."""
        spans = [
            np.arange(int(lo), int(hi) + 1, dtype=np.int64)
            for lo, hi in zip(query.low, query.high)
        ]
        sizes = [s.shape[0] for s in spans]
        total = self._check_budget(query)
        # Mixed-radix enumeration in blocks.
        radix = np.array(sizes, dtype=np.int64)
        for start in range(0, total, self.chunk):
            stop = min(start + self.chunk, total)
            indices = np.arange(start, stop, dtype=np.int64)
            columns = []
            remaining = indices
            for size, span in zip(radix[::-1], spans[::-1]):
                columns.append(span[remaining % size])
                remaining = remaining // size
            yield np.stack(columns[::-1], axis=1)

    # -- queries --------------------------------------------------------------------

    def verify(self, query: ScaledQuery) -> VerificationResult:
        """Decide the query by scanning the box; always exact."""
        checked = 0
        for block in self._grid_chunks(query):
            labels = query.labels_for_batch(block)
            bad = np.nonzero(labels != query.true_label)[0]
            checked += block.shape[0]
            if bad.size:
                witness = tuple(int(v) for v in block[bad[0]])
                return VerificationResult(
                    VerificationStatus.VULNERABLE,
                    witness=witness,
                    predicted_label=int(labels[bad[0]]),
                    engine=self.name,
                    nodes_explored=checked,
                )
        return VerificationResult(
            VerificationStatus.ROBUST, engine=self.name, nodes_explored=checked
        )

    def _split(self, query: ScaledQuery, limit: int | None = None):
        """Bisect the box down to proved sub-boxes and evaluated leaves.

        Returns ``(lo, hi, labels)`` of the sub-boxes proved to take a
        wrong label, and ``(points, labels)`` of the wrongly labelled leaf
        points.  Neither is in grid order; callers order by
        :func:`_ranks`.  With a ``limit``, once the wrong points found
        hold at least ``limit`` points, open sub-boxes that start after
        the ``limit``-th of them in grid order are dropped: they hold
        only later points.

        The cost is the leaf points, not the box size, so the only bound
        is the int64 grid rank: boxes of 2^63 points or more raise.
        """
        total = query.noise_space_size()
        if total >= GRID_LIMIT:
            raise BudgetExceededError(
                f"noise space has {total} vectors; grid ranks are int64",
                budget=GRID_LIMIT - 1,
            )
        width = query.num_inputs
        lo = np.asarray(query.low, dtype=np.int64).reshape(1, width)
        hi = np.asarray(query.high, dtype=np.int64).reshape(1, width)
        boxes: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        leaves = [(np.empty((0, width), dtype=np.int64), np.empty(0, dtype=np.int64))]
        step = max(1, self.chunk // LEAF_POINTS)  # leaf boxes per forward pass
        found = 0
        while lo.shape[0]:
            labels = proved_labels(query, lo, hi)
            self.boxes += labels.shape[0]
            flipped = (labels >= 0) & (labels != query.true_label)
            boxes.append((lo[flipped], hi[flipped], labels[flipped]))
            open_ = labels < 0
            leaf = open_ & ((hi - lo + 1).prod(axis=1) <= LEAF_POINTS)
            leaf_lo, leaf_hi = lo[leaf], hi[leaf]
            for start in range(0, leaf_lo.shape[0], step):
                points = _box_points(
                    leaf_lo[start : start + step], leaf_hi[start : start + step]
                )
                self.leaf_points += points.shape[0]
                point_labels = query.labels_for_batch(points)
                wrong = point_labels != query.true_label
                leaves.append((points[wrong], point_labels[wrong]))
                found += int(wrong.sum())
            found += int((hi[flipped] - lo[flipped] + 1).prod(axis=1).sum())
            lo, hi = lo[open_ & ~leaf], hi[open_ & ~leaf]
            if limit is not None and found >= limit:
                keep = _ranks(query, lo) <= _rank_of(query, boxes, leaves, limit)
                lo, hi = lo[keep], hi[keep]
            lo, hi = _bisect(lo, hi)
        box_lo, box_hi, box_labels = (np.concatenate(part) for part in zip(*boxes))
        points, point_labels = (np.concatenate(part) for part in zip(*leaves))
        return (box_lo, box_hi, box_labels), (points, point_labels)

    def count_misclassifications(self, query: ScaledQuery) -> int:
        """Number of misclassifying noise vectors in the box."""
        return sum(self.misclassification_census(query).values())

    def collect_witnesses(
        self, query: ScaledQuery, limit: int | None = None
    ) -> list[tuple[tuple[int, ...], int]]:
        """All (or the first ``limit``) misclassifying noise vectors.

        Returns ``(vector, label)`` pairs in lexicographic grid order,
        ``label`` being the wrong label the network predicts.
        """
        if limit is not None and limit < 0:
            raise VerificationError(f"limit must be non-negative, got {limit}")
        if limit == 0:
            return []
        (box_lo, box_hi, box_labels), (points, labels) = self._split(query, limit)
        # Proved boxes are disjoint runs of the grid order: once the first
        # boxes in that order hold ``limit`` points, later boxes hold only
        # later points and need not be materialised.
        order = np.argsort(_ranks(query, box_lo))
        box_lo, box_hi, box_labels = box_lo[order], box_hi[order], box_labels[order]
        sizes = (box_hi - box_lo + 1).prod(axis=1)
        if limit is not None:
            keep = int(np.searchsorted(np.cumsum(sizes), limit)) + 1
            box_lo, box_hi, box_labels = box_lo[:keep], box_hi[:keep], box_labels[:keep]
            sizes = sizes[:keep]
        points = np.concatenate([_box_points(box_lo, box_hi), points])
        labels = np.concatenate([np.repeat(box_labels, sizes), labels])
        order = np.argsort(_ranks(query, points))[:limit]
        return list(zip(map(tuple, points[order].tolist()), labels[order].tolist()))

    def misclassification_census(self, query: ScaledQuery) -> dict[int, int]:
        """Histogram: wrong label → count (used by the bias analysis)."""
        (box_lo, box_hi, box_labels), (_, labels) = self._split(query)
        census: dict[int, int] = {}
        sizes = (box_hi - box_lo + 1).prod(axis=1)
        for label, size in zip(box_labels.tolist(), sizes.tolist()):
            census[label] = census.get(label, 0) + size
        for label in labels.tolist():
            census[label] = census.get(label, 0) + 1
        return dict(sorted(census.items()))


def _ranks(query: ScaledQuery, points: np.ndarray) -> np.ndarray:
    """Position of each point (or box corner) in the box's grid order."""
    low = np.asarray(query.low, dtype=np.int64)
    radix = np.asarray(query.high, dtype=np.int64) - low + 1
    strides = np.concatenate([np.cumprod(radix[:0:-1])[::-1], [1]]).astype(np.int64)
    return (points - low) @ strides


def _rank_of(query: ScaledQuery, boxes, leaves, limit: int) -> int:
    """Grid rank of the ``limit``-th point among proved boxes and leaves."""
    starts = np.concatenate(
        [_ranks(query, lo) for lo, _, _ in boxes]
        + [_ranks(query, points) for points, _ in leaves]
    )
    sizes = np.concatenate(
        [(hi - lo + 1).prod(axis=1) for lo, hi, _ in boxes]
        + [np.ones(points.shape[0], dtype=np.int64) for points, _ in leaves]
    )
    order = np.argsort(starts)
    starts, sizes = starts[order], sizes[order]
    ends = np.cumsum(sizes)
    run = int(np.searchsorted(ends, limit))  # the run holding the limit-th point
    return int(starts[run] + limit - 1 - (ends[run] - sizes[run]))


def _box_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every point of each ``(B, n)`` box, box after box, in grid order."""
    radix = hi - lo + 1
    sizes = radix.prod(axis=1)
    owner = np.repeat(np.arange(sizes.shape[0]), sizes)
    offset = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    columns = []
    for dim in reversed(range(lo.shape[1])):
        size = radix[owner, dim]
        columns.append(lo[owner, dim] + offset % size)
        offset = offset // size
    return np.stack(columns[::-1], axis=1)


def _bisect(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve each box on its first dimension wider than one point."""
    rows = np.arange(lo.shape[0])
    axis = np.argmax(hi > lo, axis=1)
    middle = (lo[rows, axis] + hi[rows, axis]) // 2
    left_hi = hi.copy()
    left_hi[rows, axis] = middle
    right_lo = lo.copy()
    right_lo[rows, axis] = middle + 1
    return np.concatenate([lo, right_lo]), np.concatenate([left_hi, hi])
