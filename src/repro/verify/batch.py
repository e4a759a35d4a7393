"""Frontier-batched verification plane (bulk prepass + survivor dispatch).

The paper's P2/P3 workflow resolves almost every ``(input, percent)``
query with an *incomplete* engine — an interval proof or a falsifier
witness — and only the thin boundary band ever needs a complete solver.
This module exploits that economics in bulk: a whole **frontier** of
:class:`~repro.verify.encoder.ScaledQuery` grids (same network, many
inputs × many percents) is resolved together:

- :func:`interval_bulk <repro.verify.interval.interval_bulk>` certifies
  the robust mass with one matmul pair per layer for the entire frontier;
- a batched corner pass evaluates every query's corner grid in one
  concatenated network evaluation;
- a batched random pass samples only the rungs the exact margin bound
  of :func:`~repro.verify.interval.linear_layer_bounds` leaves open
  (:func:`margin_open`; a skipped rung is ROBUST, so no sample there
  could flip, and it goes on to the complete engines as before), drawing
  each query's blocks from its *own* seeded RNG but evaluating the
  concatenated blocks together, round by round;
- surviving queries — the boundary band — go to the complete engines
  *per query*, and :func:`resolve_survivors` dispatches them along a
  monotone bisection per input: a complete ROBUST verdict at ±P covers
  every smaller surviving percent, a VULNERABLE one every larger, so a
  band of width ``w`` costs ``O(log w)`` complete calls instead of ``w``.

:class:`FrontierPrepass` is the only implementation of the incomplete
stages, and a single query is a frontier of one probe.  Determinism
contract (inherited from the runtime): every decided result is
bit-identical to what the probe would get in a frontier of its own —
each probe's candidate streams are evaluated in the same order with its
own seed, whatever else shares the frontier (the tests check this
against single-query reference engines), and the monotone implications
used for skipping come from the same
:class:`~repro.verify.result.LadderFacts` the
:class:`~repro.runtime.cache.QueryCache` derives through.
Row chunking (:data:`ROW_CHUNK`) only splits the concatenated
evaluations; it can never move a verdict, a witness or a node count.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .encoder import ScaledQuery, forward_scaled
from .falsify import RANDOM_BLOCK, RANDOM_SAMPLES, corner_grid, draw_noise_block
from .interval import interval_bulk, linear_layer_bounds, margin_refutes
from .result import LadderFacts, VerificationResult, VerificationStatus
from .stats import EngineStats

#: Cap on rows per concatenated network evaluation (bounds peak memory).
#: At 2,048 rows a 12-wide layer's float64 GEMM stays under OpenBLAS's
#: two-thread threshold: on a 2-vCPU VM the two-thread 4,096-row GEMMs of
#: the deep 5-12-12-2 network read up to ≈ 1,950 ns/row, against
#: ≈ 130–145 at 2,048 rows or with one BLAS thread.
ROW_CHUNK = 2048


@dataclass
class FrontierProbe:
    """One ``(input, percent)`` robustness query inside a frontier.

    ``key`` is the caller's handle (the runtime uses its cache key);
    ``group`` identifies the monotone implication group — probes of one
    group must share input, label and per-node noise shape so that their
    boxes nest along the percent axis.  ``seed`` feeds the random
    falsifier (the runtime derives it from ``(base seed, input index)``).
    """

    key: Any
    query: ScaledQuery
    percent: int
    group: Any
    seed: int = 0


@dataclass
class FrontierOutcome:
    """Result of a bulk prepass over one frontier."""

    #: Engine-proved results (safe to memoise), keyed by probe key.
    decided: dict = field(default_factory=dict)
    #: Results a witness decided here implies at another percent of its
    #: group (:meth:`LadderFacts.implied`; valid answers, but — like the
    #: cache's derivations — not materialised as engine-proved facts).
    derived: dict = field(default_factory=dict)
    #: Probes every incomplete stage passed on: the boundary band.
    unknown: list = field(default_factory=list)


def labels_for_rows(
    blocks: Sequence[tuple[ScaledQuery, np.ndarray]],
    chunk: int = ROW_CHUNK,
) -> list[np.ndarray]:
    """Predicted labels for many per-query noise blocks, evaluated together.

    Concatenates the scaled inputs ``x_q · (100 + noise)`` of every block
    into one matrix per dtype group and pushes each through the shared
    network in ``chunk``-row slices — the bulk counterpart of
    :meth:`ScaledQuery.labels_for_batch`, exact in the same way.
    """
    labels: list[np.ndarray | None] = [None] * len(blocks)
    groups: dict[bool, list[int]] = {}
    for position, (query, block) in enumerate(blocks):
        if block.ndim != 2 or block.shape[1] != query.num_inputs:
            raise ValueError(f"noise block must be (m, {query.num_inputs})")
        groups.setdefault(query.exact_dtype, []).append(position)
    for exact, positions in groups.items():
        dtype = object if exact else np.int64
        reference = blocks[positions[0]][0]
        weights = [w.astype(dtype) for w in reference.weights]
        biases = [b.astype(dtype) for b in reference.biases]
        rows = np.concatenate(
            [
                blocks[p][0].x.astype(dtype) * (100 + blocks[p][1].astype(dtype))
                for p in positions
            ]
        )
        out = np.empty(rows.shape[0], dtype=np.int64)
        for start in range(0, rows.shape[0], chunk):
            values = forward_scaled(rows[start:start + chunk], weights, biases)
            out[start:start + chunk] = np.argmax(values, axis=1)
        offset = 0
        for p in positions:
            size = blocks[p][1].shape[0]
            labels[p] = out[offset:offset + size]
            offset += size
    return labels  # type: ignore[return-value]


class FrontierPrepass:
    """Bulk incomplete-stage resolution over a frontier of probes.

    The stages run in one fixed order — interval, corner, random — and
    every per-probe result is bit-identical to the scalar engine's.
    Corner grids use the falsifier defaults (midpoints on, at most
    :data:`~repro.verify.falsify.MAX_CORNERS` rows); random
    probes draw :data:`~repro.verify.falsify.RANDOM_SAMPLES` rows in
    :data:`~repro.verify.falsify.RANDOM_BLOCK`-row rounds.  The random
    stage samples only the probes :func:`margin_open` returns: the rest
    are proved ROBUST by the margin bound, where the scalar falsifier
    could only return UNKNOWN, so they pass on undecided exactly as if
    sampled.  The stage's ``attempts`` count the sampled probes, and its
    wall includes the margin scan.
    """

    #: Corner rungs evaluated per implication group per ascending wave:
    #: the first witness covers the rest of the group's ladder, so waves
    #: bound the speculative work to one wave past the flip boundary.
    corner_wave = 8

    def __init__(self, engine_stats: EngineStats | None = None):
        self.engine_stats = engine_stats if engine_stats is not None else EngineStats()

    # -- the pass -----------------------------------------------------------------

    def resolve(self, probes: Iterable[FrontierProbe]) -> FrontierOutcome:
        outcome = FrontierOutcome()
        pending = list(probes)
        #: group -> the witnesses the corner and random stages decided
        facts: dict[Any, LadderFacts] = defaultdict(LadderFacts)
        for stage in (self._interval_stage, self._corner_stage, self._random_stage):
            if not pending:
                break
            pending = stage(pending, outcome, facts)
        for probe in pending:
            implied = facts[probe.group].implied(probe.percent)
            if implied is not None:
                outcome.derived[probe.key] = implied
            else:
                outcome.unknown.append(probe)
        return outcome

    def _interval_stage(self, pending, outcome, facts):
        active = [p for p in pending if facts[p.group].implied(p.percent) is None]
        if not active:
            return pending
        start = time.perf_counter()
        results = interval_bulk([p.query for p in active])
        wall = time.perf_counter() - start
        mean_wall = wall / len(active)
        decided = 0
        for probe, result in zip(active, results):
            if result.is_robust:
                decided += 1
                outcome.decided[probe.key] = stamp(result, "interval", mean_wall)
        self.engine_stats.record_bulk("interval", len(active), decided, wall)
        return [p for p in pending if p.key not in outcome.decided]

    def _corner_stage(self, pending, outcome, facts):
        start = time.perf_counter()
        attempted: set = set()
        stage_decided: dict[Any, VerificationResult] = {}
        attempts = decided = 0
        while True:
            # Next ascending wave per group: lowest unattempted rungs not
            # already covered by a witness at a smaller percent.
            per_group: dict[Any, list[FrontierProbe]] = {}
            for probe in pending:
                if probe.key in attempted:
                    continue
                if facts[probe.group].implied(probe.percent) is not None:
                    continue
                per_group.setdefault(probe.group, []).append(probe)
            wave: list[FrontierProbe] = []
            for probes in per_group.values():
                probes.sort(key=lambda p: p.percent)
                wave.extend(probes[: self.corner_wave])
            if not wave:
                break
            evaluated: list[FrontierProbe] = []
            blocks: list[tuple[ScaledQuery, np.ndarray]] = []
            for probe in wave:
                attempted.add(probe.key)
                grid = corner_grid(probe.query)
                if grid is None:
                    # Over the corner budget: the scalar falsifier returns
                    # UNKNOWN with zero nodes — the probe just moves on.
                    continue
                evaluated.append(probe)
                blocks.append((probe.query, grid))
            attempts += len(wave)
            if not blocks:
                continue
            labels = labels_for_rows(blocks)
            for probe, (query, block), row_labels in zip(evaluated, blocks, labels):
                bad = np.nonzero(row_labels != query.true_label)[0]
                if bad.size:
                    decided += 1
                    result = VerificationResult(
                        VerificationStatus.VULNERABLE,
                        witness=tuple(int(v) for v in block[bad[0]]),
                        predicted_label=int(row_labels[bad[0]]),
                        engine="corner-falsifier",
                        nodes_explored=int(block.shape[0]),
                    )
                    stage_decided[probe.key] = result
                    facts[probe.group].note(probe.percent, result)
        wall = time.perf_counter() - start
        mean_wall = wall / max(1, attempts)
        for key, result in stage_decided.items():
            outcome.decided[key] = stamp(result, "corner", mean_wall)
        self.engine_stats.record_bulk("corner", attempts, decided, wall)
        return [p for p in pending if p.key not in outcome.decided]

    def _random_stage(self, pending, outcome, facts):
        start = time.perf_counter()
        stage_decided: dict[Any, VerificationResult] = {}
        active = margin_open(
            [p for p in pending if facts[p.group].implied(p.percent) is None]
        )
        streams = {
            p.key: np.random.default_rng(p.seed) for p in active
        }
        tried = {p.key: 0 for p in active}
        remaining = RANDOM_SAMPLES
        attempts = len(active)
        decided = 0
        while remaining > 0 and active:
            block_size = min(RANDOM_BLOCK, remaining)
            remaining -= block_size
            blocks = [
                (p.query, draw_noise_block(streams[p.key], p.query, block_size))
                for p in active
            ]
            labels = labels_for_rows(blocks)
            still = []
            for probe, (query, block), row_labels in zip(active, blocks, labels):
                tried[probe.key] += block_size
                bad = np.nonzero(row_labels != query.true_label)[0]
                if bad.size:
                    decided += 1
                    result = VerificationResult(
                        VerificationStatus.VULNERABLE,
                        witness=tuple(int(v) for v in block[bad[0]]),
                        predicted_label=int(row_labels[bad[0]]),
                        engine="random-falsifier",
                        nodes_explored=tried[probe.key],
                    )
                    stage_decided[probe.key] = result
                    facts[probe.group].note(probe.percent, result)
                else:
                    still.append(probe)
            # A witness at a lower percent of the same group covers the
            # rest of that group's ladder: stop sampling those probes.
            active = [p for p in still if facts[p.group].implied(p.percent) is None]
        wall = time.perf_counter() - start
        mean_wall = wall / max(1, attempts)
        for key, result in stage_decided.items():
            outcome.decided[key] = stamp(result, "random", mean_wall)
        self.engine_stats.record_bulk("random", attempts, decided, wall)
        return [p for p in pending if p.key not in outcome.decided]


def margin_open(probes: Sequence[FrontierProbe]) -> list[FrontierProbe]:
    """The probes whose box the exact margin bound leaves open, in order.

    Walks each implication group from its highest rung down and stops at
    the first rung where :func:`~repro.verify.interval.margin_refutes`
    holds for every adversary.  Boxes nest along a group, so that rung
    and every rung below it are ROBUST: no sample there can flip, and
    only the rungs above it are returned.
    """
    by_group: dict[Any, list[FrontierProbe]] = defaultdict(list)
    for probe in probes:
        by_group[probe.group].append(probe)
    open_keys = set()
    for group in by_group.values():
        for probe in sorted(group, key=lambda p: p.percent, reverse=True):
            query = probe.query
            _, margins = linear_layer_bounds(query)
            if all(
                margin_refutes(query, margins, adversary)
                for adversary in range(query.num_outputs)
                if adversary != query.true_label
            ):
                break
            open_keys.add(probe.key)
    return [p for p in probes if p.key in open_keys]


def resolve_survivors(
    survivors: Sequence[FrontierProbe],
    complete_fn: Callable[[FrontierProbe], VerificationResult],
) -> tuple[dict, dict]:
    """Dispatch boundary-band probes to the complete engines, bisected.

    Within one implication group the ground truth is monotone in the
    percent (noise boxes nest), so a binary search over the surviving
    rungs decides the whole band: every complete ROBUST verdict covers
    the smaller rungs, every VULNERABLE one the larger (one
    :class:`LadderFacts` per group).  Returns
    ``(exact, derived)`` dicts keyed by probe key; ``complete_fn`` is
    invoked once per bisection step and is expected to memoise/account
    on the caller's side.  The runtime's ``complete_fn`` routes every
    probe through the runner's one portfolio, whose sessions are keyed
    by ``(input values, label)``, so the whole bisection shares one warm
    :class:`~repro.verify.incremental.LadderSession` — probe order does
    not matter to the session (each rung's bounds live in their own
    retractable frame), so bisection jumps are as cheap as ladder steps.
    """
    exact: dict[Any, VerificationResult] = {}
    derived: dict[Any, VerificationResult] = {}
    by_group: dict[Any, list[FrontierProbe]] = {}
    for probe in survivors:
        by_group.setdefault(probe.group, []).append(probe)
    for probes in by_group.values():
        probes = remaining = sorted(probes, key=lambda p: p.percent)
        facts = LadderFacts()
        while remaining:
            mid = remaining[len(remaining) // 2]
            result = complete_fn(mid)
            exact[mid.key] = result
            facts.note(mid.percent, result)
            # An undecided complete engine resolves nothing but its own rung.
            remaining = [
                p for p in remaining
                if p is not mid and facts.implied(p.percent) is None
            ]
        for probe in probes:
            if probe.key not in exact:
                derived[probe.key] = facts.implied(probe.percent)
    return exact, derived


def stamp(result: VerificationResult, stage: str, wall_s: float) -> VerificationResult:
    """Record the deciding stage and its wall time in ``result.stats``.

    For a bulk pass ``wall_s`` is the stage's per-attempt mean (stamped
    once, at stage end); for a frontier of one probe — and for the
    complete engines — that is simply the stage's duration.
    """
    result.stats["stage"] = stage
    result.stats["portfolio"] = True
    result.stats["wall_s"] = wall_s
    return result
