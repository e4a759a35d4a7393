"""Parallel, cache-aware, frontier-batched execution of analysis queries.

:class:`QueryRunner` is the single chokepoint through which the FANNet
analyses (P2 tolerance search, P3 extraction, sensitivity probes) issue
verification work.  It provides:

- **Memoisation** — every verify and extract outcome lands in a
  :class:`QueryCache` keyed by ``(kind, input index, input values, true
  label, noise percent, extra)`` under a (network, verifier-config)
  fingerprint context, so the tolerance search, the Fig.-4 sweep and
  extraction stop re-solving identical queries — and queries whose
  answer is *implied* by a verdict at a different percent (nested noise
  boxes).
- **Persistence** — with ``RuntimeConfig.cache_dir`` set, the cache
  warm-starts from a per-context :class:`~repro.runtime.store.CacheStore`
  file at construction and spills new entries back on :meth:`QueryRunner.flush`
  / :meth:`QueryRunner.close`, so repeated CLI runs over the same model
  and budget issue zero solver calls.
- **Frontier batching** — every verification query goes through
  :meth:`verify_frontier`, which takes whole probe ladders and grids (a
  P2 search's ladder ``1..ceiling``, a Fig.-4 grid): a vectorised bulk
  prepass (:class:`~repro.verify.batch.FrontierPrepass`) resolves the
  cheap mass of the frontier — one interval matmul pair per layer for
  *all* queries, concatenated falsifier evaluations — and only the
  boundary band reaches a complete engine, monotone-bisected per input.
  A lone :meth:`verify_at` is a frontier of one.  One
  :class:`~repro.verify.portfolio.PortfolioVerifier` per runner serves
  the complete stage.
- **Eq.-3 probes** — :meth:`probe_ladder` finds many inputs' exact
  single-node flip thresholds in one bulk network evaluation; it needs
  no solver and caches nothing.
- **Engine utilisation** — an :class:`~repro.verify.stats.EngineStats`
  table records per-stage attempts, decisions and wall time for this
  runner's own work (worker tables fold in; nothing is persisted).  It
  is a report only: the incomplete stages always run interval → corner
  → random.
- **Fan-out** — independent per-input tasks (see
  :mod:`repro.runtime.tasks`) run over a ``ProcessPoolExecutor`` when
  ``RuntimeConfig.workers > 1``.  Each worker runs under the parent's
  cache setting, so a run's counters do not depend on the worker count.
  Warm cache entries for each task's input ship beside the task;
  entries the worker computes ship back and merge into the parent
  cache, so a warm parallel run issues zero new solver calls.
- **Deterministic seeding** — the stochastic falsifier inside each
  worker derives its seed from ``(config.seed, input index)``
  (:func:`~repro.runtime.fingerprint.derive_seed`), so reports are
  bit-identical for any worker count and any scheduling order.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

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
from .cache import MISS, CacheStats, QueryCache, make_key
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
            cache = QueryCache(enabled=self.runtime.cache)
        self.cache = cache
        self.cache.bind(runtime_context(network, self.config, data_digest))
        self.engine_stats = EngineStats()
        self.store = (
            CacheStore(self.runtime.cache_dir)
            if self.runtime.persistence_enabled
            else None
        )
        if self.store is not None and self.cache.enabled:
            warm = self.store.load(self.cache.context)
            if warm:
                self.cache.preload(warm)
        self.stats = RunnerStats()
        #: The complete stage for every query: its warm ladder sessions
        #: are keyed by (input values, label), so all of one input's
        #: boundary-band rungs share a session whatever index asks.
        self._portfolio = PortfolioVerifier(self.config, engine_stats=self.engine_stats)
        self._pool: ProcessPoolExecutor | None = None
        #: Serialises flush/close and stats snapshots.  Query execution
        #: itself is not made concurrent by this lock — a runner shared
        #: between threads (the serve plane's per-context runner pool)
        #: must still serialise run_tasks calls externally — but the
        #: maintenance operations (periodic flushes, a stats endpoint
        #: sampling a runner mid-job) are safe from any thread.
        self._io_lock = threading.RLock()

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
        """One robustness query at ``±percent``: a frontier of one."""
        key = make_key("verify", index, x, true_label, percent)
        return self.verify_frontier([(index, x, true_label, percent)])[key]

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

    # -- frontier batching -------------------------------------------------------------

    def _pending(self, probes) -> tuple[dict, dict]:
        """Split ``(index, x, true_label, percent)`` probes into cached
        ``{key: result}`` and pending ``{key: probe}``, deduplicated."""
        answered: dict = {}
        pending: dict = {}
        for index, x, true_label, percent in probes:
            x = tuple(int(v) for v in x)
            key = make_key("verify", index, x, true_label, int(percent))
            if key in answered or key in pending:
                continue
            cached = self.cache.get(key)
            if cached is not MISS:
                answered[key] = cached
                continue
            pending[key] = (key, index, x, true_label, int(percent))
        return answered, pending

    def verify_frontier(self, probes) -> dict:
        """Resolve many ``(index, x, true_label, percent)`` probes in bulk.

        Returns ``{cache key: VerificationResult}`` covering every probe:
        cache answers, bulk-prepass verdicts, in-frontier implications
        and complete-engine verdicts for the boundary band, dispatched
        along a monotone bisection per input so a band of width ``w``
        costs ``O(log w)`` complete calls.  A probe repeated in
        ``probes`` is resolved once.
        """
        results, pending = self._pending(probes)
        if not pending:
            return results
        outcome = self._prepass(pending.values())
        results.update(outcome.decided)
        results.update(outcome.derived)
        exact, derived = resolve_survivors(outcome.unknown, self._complete_probe)
        results.update(exact)
        results.update(derived)
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
        """Complete-engine dispatch for one frontier survivor (memoised)."""
        result = self._portfolio.verify_complete(probe.query)
        self.stats.verify_calls += 1
        self.cache.put(probe.key, result)
        return result

    def probe_ladder(
        self, inputs, node: int, sign: int, ceiling: int
    ) -> list[int | None]:
        """Exact Eq.-3 flip thresholds of many inputs in one bulk pass.

        One concatenated exact network evaluation covers every magnitude
        ``1..ceiling`` of every ``(index, x, true_label)`` input, with the
        noise on ``node`` alone and of sign ``sign``.  Returns, per input,
        the least magnitude that changes its label, or None.
        """
        inputs = list(inputs)
        blocks = []
        for _, x, true_label in inputs:
            query = self._build_query(x, true_label, ceiling)
            block = np.zeros((ceiling, len(x)), dtype=np.int64)
            block[:, node] = sign * np.arange(1, ceiling + 1, dtype=np.int64)
            blocks.append((query, block))
        self.stats.probe_evals += len(inputs)
        thresholds = []
        for (_, _, true_label), row_labels in zip(inputs, labels_for_rows(blocks)):
            flips = np.nonzero(row_labels != true_label)[0]
            thresholds.append(int(flips[0]) + 1 if flips.size else None)
        return thresholds

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
        warms = [self._warm_entries(task) for task in tasks]
        self.stats.parallel_batches += 1
        outcomes = list(self._pool_handle().map(_run_task, tasks, warms))
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
        """Cache entries relevant to a task's input, shipped to the worker."""
        if not task.warm_kinds:
            return {}
        return self.cache.entries_for_input(task.index, task.x, kinds=task.warm_kinds)

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
                cache=self.runtime.cache,
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


# -- worker-process side ----------------------------------------------------------


@dataclass
class _WorkerContext:
    """Everything a pooled worker needs, shipped once per process."""

    network: object
    config: VerifierConfig
    cache: bool = True
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


def _run_task(task, warm: dict) -> _TaskOutcome:
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - pool misconfiguration
        raise RuntimeError("worker pool used before initialisation")
    runner = QueryRunner(
        context.network,
        context.config,
        RuntimeConfig(workers=1, cache=context.cache),
        data_digest=context.data_digest,
    )
    runner.cache.preload(warm)
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
