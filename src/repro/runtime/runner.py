"""Parallel, cache-aware, frontier-batched execution of analysis queries.

:class:`QueryRunner` is the single chokepoint through which the FANNet
analyses (P2 tolerance search, P3 extraction, sensitivity probes) issue
verification work.  It provides:

- **Memoisation** — every query outcome lands in a :class:`QueryCache`
  (by default the monotonicity-aware :class:`MonotoneCache`) keyed by
  ``(kind, input index, input values, true label, noise percent,
  extra)`` under a (network, verifier-config) fingerprint context, so the
  tolerance bisection, the literal paper schedule, the Fig.-4 sweep,
  extraction and the probes stop re-solving identical queries — and,
  with the monotone layer, stop re-solving queries whose answer is
  *implied* by a verdict at a different percent.
- **Persistence** — with ``RuntimeConfig.cache_dir`` set, the cache
  warm-starts from a per-context :class:`~repro.runtime.store.CacheStore`
  file at construction and spills new entries back on :meth:`QueryRunner.flush`
  / :meth:`QueryRunner.close`, so repeated CLI runs over the same model
  and budget issue zero solver calls.
- **Frontier batching** — the analyses submit whole probe ladders and
  grids (:meth:`prepass_ladder`, :meth:`verify_frontier`,
  :meth:`probe_ladder`): a vectorised bulk prepass
  (:class:`~repro.verify.batch.FrontierPrepass`) resolves the cheap mass
  of the frontier — one interval matmul pair per layer for *all*
  queries, concatenated falsifier evaluations — and only the boundary
  band reaches a complete engine, per query (lazily for searches,
  monotone-bisected for grids).  A lone :meth:`verify_at` miss runs the
  same prepass on a frontier of one inside its portfolio.
- **Engine utilisation** — an :class:`~repro.verify.stats.EngineStats`
  table records per-stage attempts, decisions and wall time for this
  runner's own work (worker tables fold in; nothing is persisted).  It
  is a report only: the incomplete stages always run interval → corner
  → random.
- **Fan-out** — independent per-input tasks (see
  :mod:`repro.runtime.tasks`) run over a ``ProcessPoolExecutor`` when
  ``RuntimeConfig.workers > 1``.  Warm cache entries for each task's
  input ship with the task; entries the worker computes ship back and
  merge into the parent cache, so a warm parallel run issues zero new
  solver calls.
- **Deterministic seeding** — the stochastic falsifier inside each
  worker derives its seed from ``(config.seed, input index)``
  (:func:`~repro.runtime.fingerprint.derive_seed`), so reports are
  bit-identical for any worker count and any scheduling order.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..config import NoiseConfig, RuntimeConfig, VerifierConfig
from ..errors import VerificationError
from ..verify import (
    EngineStats,
    FrontierPrepass,
    FrontierProbe,
    NetworkEncoding,
    NoiseVectorCollector,
    PortfolioVerifier,
    labels_for_rows,
    resolve_survivors,
)
from ..verify.result import VerificationResult
from .cache import MISS, CacheStats, MonotoneCache, QueryCache, make_key
from .fingerprint import derive_seed, runtime_context
from .store import CacheStore


@dataclass
class RunnerStats:
    """Uncached work actually performed (the cache's savings baseline)."""

    verify_calls: int = 0
    extract_calls: int = 0
    probe_evals: int = 0
    tasks: int = 0
    parallel_batches: int = 0
    frontier_queries: int = 0  # probes entering a bulk prepass
    frontier_decided: int = 0  # of which the incomplete bulk passes decided

    @property
    def solver_calls(self) -> int:
        """Verifier + collector invocations that reached an engine."""
        return self.verify_calls + self.extract_calls

    def merge(self, other: "RunnerStats") -> None:
        self.verify_calls += other.verify_calls
        self.extract_calls += other.extract_calls
        self.probe_evals += other.probe_evals
        self.frontier_queries += other.frontier_queries
        self.frontier_decided += other.frontier_decided

    def describe(self) -> str:
        text = (
            f"runner: {self.verify_calls} verifier calls, "
            f"{self.extract_calls} extractions, {self.probe_evals} probe evals "
            f"over {self.tasks} tasks"
        )
        if self.frontier_queries:
            text += (
                f"; frontier prepass decided {self.frontier_decided}"
                f"/{self.frontier_queries} queries"
            )
        return text


class QueryRunner:
    """Submit analysis queries; get memoised, optionally pooled, results."""

    def __init__(
        self,
        network,
        config: VerifierConfig | None = None,
        runtime: RuntimeConfig | None = None,
        cache: QueryCache | None = None,
        store: CacheStore | None = None,
        data_digest: str | None = None,
    ):
        self.network = network
        self.config = config or VerifierConfig()
        self.runtime = runtime or RuntimeConfig()
        #: Content digest of an external dataset source (None for the
        #: case-study splits): part of the cache context, so results over
        #: one file revision never warm-start an analysis over another.
        self.data_digest = data_digest
        if cache is None:
            cache_cls = MonotoneCache if self.runtime.monotone else QueryCache
            cache = cache_cls(enabled=self.runtime.cache)
        self.cache = cache
        self.cache.bind(runtime_context(network, self.config, data_digest))
        self.engine_stats = EngineStats()
        self.store = store
        if self.store is None and self.runtime.persistence_enabled:
            self.store = CacheStore(self.runtime.cache_dir)
        if self.store is not None and self.cache.enabled:
            warm = self.store.load(self.cache.context)
            if warm:
                self.cache.preload(warm)
        self.stats = RunnerStats()
        self._verifiers: dict[int, PortfolioVerifier] = {}
        self._pool: ProcessPoolExecutor | None = None
        #: Keys whose incomplete stages a bulk prepass already exhausted:
        #: a later exact query skips straight to the complete engine.
        self._frontier_unknown: set = set()
        #: (index, x, label, node, sign) -> (checked ceiling, min flip
        #: magnitude or None): the bulk single-node probe ladders.
        self._probe_thresholds: dict = {}
        #: Serialises flush/close and stats snapshots.  Query execution
        #: itself is not made concurrent by this lock — a runner shared
        #: between threads (the serve plane's per-context runner pool)
        #: must still serialise run_tasks calls externally — but the
        #: maintenance operations (periodic flushes, a stats endpoint
        #: sampling a runner mid-job) are safe from any thread.
        self._io_lock = threading.RLock()

    # -- engine selection -------------------------------------------------------

    def _verifier_for(self, index: int) -> PortfolioVerifier:
        """Per-input verifier with a seed derived from (base seed, index)."""
        verifier = self._verifiers.get(index)
        if verifier is None:
            seeded = replace(self.config, seed=derive_seed(self.config.seed, index))
            verifier = PortfolioVerifier(
                seeded,
                engine_stats=self.engine_stats,
            )
            self._verifiers[index] = verifier
        return verifier

    @functools.cached_property
    def encoding(self) -> NetworkEncoding:
        """The network's scaled-integer weights, shared by every query."""
        return NetworkEncoding(self.network)

    def _build_query(self, x, true_label: int, percent: int):
        return self.encoding.query(
            np.asarray(x, dtype=np.int64),
            true_label,
            NoiseConfig(max_percent=percent),
        )

    def correctly_classified(self, dataset) -> list[tuple[int, tuple, int]]:
        """``(index, x, label)`` of every input the network labels correctly.

        The paper analyses only these inputs *"for fair analysis of the
        impact of noise"*; one exact batched pass labels the whole set.
        """
        predicted = self.encoding.labels(dataset.features)
        return [
            (index, tuple(int(v) for v in x), int(label))
            for index, (x, label, guess) in enumerate(
                zip(dataset.features, dataset.labels, predicted)
            )
            if guess == label
        ]

    # -- cached building blocks -----------------------------------------------------

    def verify_at(
        self, x, true_label: int, percent: int, index: int = -1
    ) -> VerificationResult:
        """One robustness query at ``±percent``, memoised."""
        x = tuple(int(v) for v in x)
        key = make_key("verify", index, x, true_label, percent)
        cached = self.cache.get(key)
        if cached is not MISS:
            return cached
        query = self._build_query(x, true_label, percent)
        if key in self._frontier_unknown:
            # The bulk prepass already ran (and failed) every incomplete
            # stage for this query: go straight to the complete engine.
            self._frontier_unknown.discard(key)
            result = self._verifier_for(index).verify_complete(query)
        else:
            result = self._verifier_for(index).verify(query)
        self.stats.verify_calls += 1
        self.cache.put(key, result)
        return result

    def collect_at(
        self,
        x,
        true_label: int,
        percent: int,
        limit: int | None,
        index: int = -1,
    ) -> dict:
        """P3 collection at ``±percent``, memoised; reuses robust verdicts.

        Collects the first ``limit`` flipping vectors in grid order, or
        every one when ``limit`` is None.
        """
        x = tuple(int(v) for v in x)
        key = make_key("extract", index, x, true_label, percent, extra=(limit,))
        cached = self.cache.get(key)
        if cached is not MISS:
            return cached
        verdict = self.cache.peek(make_key("verify", index, x, true_label, percent))
        if verdict is not MISS and verdict.is_robust:
            # The P2 pass already proved this box clean: the vector set is
            # empty, no collector run needed.
            outcome = {"vectors": [], "flipped_to": [], "exhausted": True}
            self.cache.put(key, outcome)
            return outcome
        query = self._build_query(x, true_label, percent)
        collected = NoiseVectorCollector().collect(query, limit=limit)
        # The collector's labels come from interval proofs and vectorised
        # passes; one independent pure-Python evaluation per vector audits
        # them before they reach a report.
        for vector, label in zip(collected.vectors, collected.labels):
            if query.predict_single(vector) != label or label == true_label:
                raise VerificationError(
                    f"extracted vector {vector} labelled {label}, exact "
                    f"evaluation disagrees"
                )
        outcome = {
            "vectors": list(collected.vectors),
            "flipped_to": list(collected.labels),
            "exhausted": collected.exhausted,
        }
        self.stats.extract_calls += 1
        self.cache.put(key, outcome)
        return outcome

    def flips_single_node(
        self,
        x,
        true_label: int,
        node: int,
        sign: int,
        percent: int,
        index: int = -1,
    ) -> bool:
        """Exact Eq.-3 check (noise on one node only), memoised."""
        x = tuple(int(v) for v in x)
        key = make_key("probe", index, x, true_label, percent, extra=(node, sign))
        cached = self.cache.get(key)
        if cached is not MISS:
            return cached
        threshold = self._probe_threshold(index, x, true_label, node, sign, percent)
        flips = threshold is not None and threshold <= percent
        self.stats.probe_evals += 1
        self.cache.put(key, flips)
        return flips

    # -- frontier batching -------------------------------------------------------------

    def prepass_ladder(self, x, true_label: int, percents, index: int = -1) -> None:
        """Bulk-resolve a whole verify ladder's cheap mass ahead of a search.

        Submits every ``±percent`` of ``percents`` whose answer is not
        already cached (or implied, or known-undecidable) to the frontier
        prepass.  Decided verdicts are memoised; survivors are remembered
        so the search's own probes skip straight to the complete engine.
        A no-op with the cache off: the verdicts would be dropped, and
        every rung the search probes would run its incomplete stages again.
        """
        if not self.cache.enabled:
            return
        x = tuple(int(v) for v in x)
        probes = []
        for percent in percents:
            key = make_key("verify", index, x, true_label, int(percent))
            if key in self._frontier_unknown:
                continue
            if self.cache.peek(key) is not MISS:
                continue
            probes.append((key, index, x, true_label, int(percent)))
        if not probes:
            return
        outcome = self._prepass(probes)
        self._frontier_unknown.update(probe.key for probe in outcome.unknown)

    def verify_frontier(self, probes, complete: bool = True) -> dict:
        """Resolve many ``(index, x, true_label, percent)`` probes in bulk.

        The grid entry point (Fig.-4 sweeps, extraction prepasses).
        Returns ``{cache key: VerificationResult}`` covering every probe:
        cache answers, bulk-prepass verdicts, in-frontier implications,
        and — with ``complete=True`` — complete-engine verdicts for the
        boundary band, dispatched along a monotone bisection per input
        so a band of width ``w`` costs ``O(log w)`` complete calls.
        With ``complete=False`` survivors are only marked for lazy
        complete dispatch (the extraction prepass never needs them), and
        with the cache off as well nothing runs at all: the prepass's
        verdicts would only have been memoised, and the cache drops them.
        A probe repeated in ``probes`` is resolved once.
        """
        results: dict = {}
        pending: dict = {}
        for index, x, true_label, percent in probes:
            x = tuple(int(v) for v in x)
            key = make_key("verify", index, x, true_label, int(percent))
            if key in results or key in pending:
                continue
            cached = self.cache.get(key)
            if cached is not MISS:
                results[key] = cached
                continue
            pending[key] = (key, index, x, true_label, int(percent))
        if not pending or (not complete and not self.cache.enabled):
            return results
        fresh = [p for p in pending.values() if p[0] not in self._frontier_unknown]
        known_unknown = [p for p in pending.values() if p[0] in self._frontier_unknown]
        outcome = self._prepass(fresh)
        for key, result in outcome.decided.items():
            results[key] = result
        results.update(outcome.derived)
        survivors = outcome.unknown + [
            self._frontier_probe(*p) for p in known_unknown
        ]
        if complete:
            exact, derived = resolve_survivors(survivors, self._complete_probe)
            results.update(exact)
            results.update(derived)
        else:
            self._frontier_unknown.update(probe.key for probe in survivors)
        return results

    def _frontier_probe(self, key, index, x, true_label, percent) -> FrontierProbe:
        return FrontierProbe(
            key=key,
            query=self._build_query(x, true_label, percent),
            percent=percent,
            group=(index, x, true_label),
            seed=derive_seed(self.config.seed, index),
        )

    def _prepass(self, probes):
        """Run the bulk incomplete stages; memoise every decided verdict."""
        frontier = [self._frontier_probe(*probe) for probe in probes]
        outcome = FrontierPrepass(engine_stats=self.engine_stats).resolve(frontier)
        for key, result in outcome.decided.items():
            self.cache.put(key, result)
        self.stats.verify_calls += len(outcome.decided)
        self.stats.frontier_queries += len(frontier)
        self.stats.frontier_decided += len(outcome.decided)
        return outcome

    def _complete_probe(self, probe: FrontierProbe) -> VerificationResult:
        """Complete-engine dispatch for one frontier survivor (memoised).

        Routed through the probe's per-input portfolio, which carries the
        *session affinity*: every bisection probe of one input's boundary
        band lands in the same warm
        :class:`~repro.verify.incremental.LadderSession`."""
        index = probe.group[0]
        result = self._verifier_for(index).verify_complete(probe.query)
        self.stats.verify_calls += 1
        self.cache.put(probe.key, result)
        self._frontier_unknown.discard(probe.key)
        return result

    def probe_ladder(self, inputs, node: int, sign: int, ceiling: int) -> None:
        """Bulk-evaluate the single-node flip ladders of many inputs at once.

        One concatenated exact network evaluation covers every magnitude
        ``1..ceiling`` of every input, seeding the threshold memo the
        Eq.-3 probes read — the probe bisections then never evaluate the
        network again.
        """
        todo = []
        for index, x, true_label in inputs:
            x = tuple(int(v) for v in x)
            group = (index, x, true_label, node, sign)
            memo = self._probe_thresholds.get(group)
            if memo is not None and (memo[1] is not None or memo[0] >= ceiling):
                continue
            todo.append((group, x, true_label))
        if not todo:
            return
        blocks = []
        for group, x, true_label in todo:
            query = self._build_query(x, true_label, ceiling)
            block = np.zeros((ceiling, len(x)), dtype=np.int64)
            block[:, node] = sign * np.arange(1, ceiling + 1, dtype=np.int64)
            blocks.append((query, block))
        labels = labels_for_rows(blocks)
        for (group, x, true_label), row_labels in zip(todo, labels):
            flips = np.nonzero(row_labels != true_label)[0]
            threshold = int(flips[0]) + 1 if flips.size else None
            self._probe_thresholds[group] = (ceiling, threshold)

    def _probe_threshold(
        self, index: int, x, true_label: int, node: int, sign: int, percent: int
    ) -> int | None:
        """Minimal flipping magnitude ≤ ``percent`` from the ladder memo.

        Extends the memo with one vectorised evaluation when the asked
        percent exceeds what has been checked so far.
        """
        group = (index, x, true_label, node, sign)
        memo = self._probe_thresholds.get(group)
        if memo is not None:
            checked, threshold = memo
            if threshold is not None or checked >= percent:
                return threshold
        checked = memo[0] if memo is not None else 0
        query = self._build_query(x, true_label, percent)
        magnitudes = np.arange(checked + 1, percent + 1, dtype=np.int64)
        block = np.zeros((magnitudes.shape[0], len(x)), dtype=np.int64)
        block[:, node] = sign * magnitudes
        flips = np.nonzero(query.labels_for_batch(block) != true_label)[0]
        threshold = int(magnitudes[flips[0]]) if flips.size else None
        self._probe_thresholds[group] = (percent, threshold)
        return threshold

    # -- fan-out ----------------------------------------------------------------------

    def run_tasks(self, tasks: list) -> list:
        """Execute independent tasks, inline or over a process pool.

        Results come back in task order either way; parallel execution is
        purely a scheduling change (see the per-input seeding contract).
        """
        tasks = list(tasks)
        self.stats.tasks += len(tasks)
        if min(self.runtime.workers, len(tasks)) <= 1:
            return [task.run(self) for task in tasks]
        return self._run_pooled(tasks)

    def _run_pooled(self, tasks: list) -> list:
        for task in tasks:
            task.warm = self._warm_entries(task)
        self.stats.parallel_batches += 1
        try:
            outcomes = list(self._pool_handle().map(_run_task, tasks))
        finally:
            # The shipped warm dicts have done their job; leaving them
            # attached would retain potentially large entry maps and seed
            # stale warm state if a task object is ever resubmitted.
            for task in tasks:
                task.warm = {}
        values = []
        for outcome in outcomes:
            # adopt(), not put(): the worker already counted these stores
            # (merged below via CacheStats.merge), and exact containment
            # — not peek() — decides what lands, so a monotone-derivable
            # answer never stops the engine-proved entry reaching the
            # parent cache (and the disk store).
            self.cache.adopt(outcome.entries)
            self.stats.merge(outcome.stats)
            self.cache.stats.merge(outcome.cache_stats)
            self.engine_stats.merge(outcome.engine_stats)
            values.append(outcome.value)
        return values

    def _warm_entries(self, task) -> dict:
        """Cache entries relevant to a task's inputs, shipped to the worker."""
        kinds = getattr(task, "warm_kinds", None)
        warm: dict = {}
        for index, x in task_inputs(task):
            warm.update(self.cache.entries_for_input(index, x, kinds=kinds))
        return warm

    def _pool_handle(self) -> ProcessPoolExecutor:
        """Lazily created, reused worker pool.

        The pool (and the network shipped to each worker through the
        initializer) is paid for once per runner, not once per batch —
        one ``Fannet.analyze`` runs its tolerance, extraction and probe
        batches on the same workers.
        """
        if self._pool is None:
            context = _WorkerContext(
                network=self.network,
                config=self.config,
                monotone=self.runtime.monotone,
                data_digest=self.data_digest,
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.runtime.workers,
                initializer=_init_worker,
                initargs=(context,),
            )
        return self._pool

    # -- persistence ----------------------------------------------------------------

    def flush(self) -> None:
        """Spill new cache entries to the disk store (no-op without one).

        Writes only when entries were added since the warm-start load (or
        the previous flush): a pure warm replay rewrites nothing, so
        concurrent readers of the same cache directory are not churned
        for zero information.
        """
        if self.store is None or not self.cache.enabled:
            return
        with self._io_lock:
            if not self.cache.added:
                return
            saved = self.store.save(self.cache.context, self.cache.snapshot())
            if saved is not None:
                self.cache.added.clear()
                if self.runtime.max_cache_bytes is not None:
                    # Size-bound the directory, but never evict the context
                    # this run is writing — only colder neighbours age out.
                    from .lifecycle import prune_cache_dir

                    prune_cache_dir(
                        self.store.directory,
                        self.runtime.max_cache_bytes,
                        keep={saved},
                    )

    def stats_payload(self) -> dict:
        """JSON-ready snapshot of this runner's work and cache counters.

        Taken under the I/O lock so a reader sampling a shared runner
        (the serve plane's ``/v1/stats`` endpoint) sees one consistent
        picture rather than counters torn across a concurrent flush.
        """
        with self._io_lock:
            return {
                "context": self.cache.context,
                "runner": asdict(self.stats),
                "cache": asdict(self.cache.stats),
                "cache_entries": len(self.cache),
            }

    def close(self) -> None:
        """Flush the disk store and shut the worker pool down."""
        self.flush()
        with self._io_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __del__(self):  # best-effort cleanup; close() is the real API
        try:
            self.close()
        except Exception:
            pass


def task_inputs(task) -> list[tuple[int, tuple]]:
    """The ``(index, input values)`` pairs a task will query."""
    if hasattr(task, "inputs"):  # ProbeTask spans several inputs
        return [(index, x) for index, x, _ in task.inputs]
    return [(task.index, task.x)]


# -- worker-process side ----------------------------------------------------------


@dataclass
class _WorkerContext:
    """Everything a pooled worker needs, shipped once per process."""

    network: object
    config: VerifierConfig
    monotone: bool = True
    data_digest: str | None = None


@dataclass
class _TaskOutcome:
    """A task's value plus the cache entries and effort it produced."""

    value: object
    entries: dict
    stats: RunnerStats
    cache_stats: CacheStats = field(default_factory=CacheStats)
    engine_stats: EngineStats = field(default_factory=EngineStats)


_WORKER_CONTEXT: _WorkerContext | None = None


def _init_worker(context: _WorkerContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_task(task) -> _TaskOutcome:
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - pool misconfiguration
        raise RuntimeError("worker pool used before initialisation")
    runner = QueryRunner(
        context.network,
        context.config,
        RuntimeConfig(workers=1, cache=True, monotone=context.monotone),
        data_digest=context.data_digest,
    )
    runner.cache.preload(task.warm)
    # The preload above is warm-dict *transport*, not logical cache
    # activity; reset the counters so the stats shipped back (and folded
    # into the parent by CacheStats.merge) describe only what the task
    # itself did — keeping parallel == serial accounting.
    runner.cache.stats = CacheStats()
    value = task.run(runner)
    return _TaskOutcome(
        value=value,
        entries=dict(runner.cache.added),
        stats=runner.stats,
        cache_stats=runner.cache.stats,
        engine_stats=runner.engine_stats,
    )
