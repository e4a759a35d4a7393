"""Analysis runtime (system S11): parallel, cache-aware query execution.

The FANNet methodology is embarrassingly parallel — the P2 noise-tolerance
search, the P3 noise-vector extraction and the Eq.-3 sensitivity probes
each issue hundreds of *independent* verification queries per input.
This package turns that structure into throughput:

- :class:`QueryRunner` — the chokepoint every analysis submits work
  through: memoised single queries, whole-ladder/grid frontiers resolved
  by the vectorised bulk prepass of :mod:`repro.verify.batch` (the only
  implementation of the incomplete stages), plus per-input task fan-out
  over a process pool with deterministic ``(seed, input index)`` seeding.  An
  :class:`~repro.verify.stats.EngineStats` table — persisted alongside
  the cache — records per-stage decide rates and wall time and drives
  the portfolio's stage order per workload;
- :class:`QueryCache` / :class:`MonotoneCache` / :class:`CacheStats` —
  the keyed query memo with fingerprint-based invalidation.  Lookups
  return :data:`MISS` (never ``None``) when nothing is cached, so a
  legitimately-``None`` payload round-trips.  The monotone flavour (the
  default) additionally answers queries *implied* along the noise-percent
  axis: ROBUST at ±P ⇒ ROBUST at every ±P' ≤ P (nested boxes),
  VULNERABLE at ±P ⇒ VULNERABLE at every ±P' ≥ P (the witness stays in
  range), and dually for single-node probe flips.  Derived answers are
  counted in ``CacheStats.derived_hits`` and never stored — the entry
  table holds engine-proved facts only;
- :class:`CacheStore` (:mod:`repro.runtime.store`) — cross-run
  persistence: one versioned, checksummed file per (network,
  verifier-config) fingerprint context under ``RuntimeConfig.cache_dir``.
  Corrupt, truncated, wrong-version or wrong-context files are discarded
  with a :class:`CacheStoreWarning` (cold start, never a wrong verdict),
  and deserialisation is restricted to the verdict types a cache entry
  legitimately contains — a crafted file referencing any other callable
  is refused before anything executes; writes are atomic, so concurrent
  runs degrade to last-writer-wins;
- :mod:`repro.runtime.tasks` — the picklable per-input work units;
- :mod:`repro.runtime.fingerprint` — network/config fingerprints and the
  seed-derivation contract.

Invalidation rules, in decreasing severity: a context change (different
network weights or verifier budget/seed) drops every in-memory entry and
ignores every disk file written under another context; a store-format
version bump discards older files wholesale; within one context, entries
never expire — verdicts are mathematical facts about a fixed network.

``RuntimeConfig`` (in :mod:`repro.config`) selects worker count, cache
policy, monotone reuse and the persistence directory; ``--workers`` /
``--no-cache`` / ``--cache-dir`` / ``--no-persist`` expose it on the CLI.
"""

from ..verify.stats import EngineStats, StageStat
from .cache import MISS, CacheStats, MonotoneCache, QueryCache, make_key
from .fingerprint import (
    derive_seed,
    network_fingerprint,
    runtime_context,
    verifier_fingerprint,
)
from .lifecycle import (
    PruneReport,
    StoreFileInfo,
    inspect_cache_file,
    prune_cache_dir,
    scan_cache_dir,
)
from .runner import QueryRunner, RunnerStats
from .store import CacheStore, CacheStoreWarning
from .tasks import ExtractionTask, ProbeTask, ToleranceSearchTask

__all__ = [
    "QueryRunner",
    "RunnerStats",
    "EngineStats",
    "StageStat",
    "QueryCache",
    "MonotoneCache",
    "CacheStats",
    "CacheStore",
    "CacheStoreWarning",
    "MISS",
    "PruneReport",
    "StoreFileInfo",
    "inspect_cache_file",
    "prune_cache_dir",
    "scan_cache_dir",
    "make_key",
    "derive_seed",
    "network_fingerprint",
    "verifier_fingerprint",
    "runtime_context",
    "ToleranceSearchTask",
    "ExtractionTask",
    "ProbeTask",
]
