"""Per-context :class:`QueryRunner` pool shared by every daemon client.

The daemon's whole point is that many concurrent clients multiplex onto
*shared* warm caches: one :class:`~repro.runtime.QueryRunner` lives per
runtime-context fingerprint (network × verifier config × dataset
digest), created on first use and reused for every later job on the
same context — the second client's ladder is answered from the first
client's engine-proved verdicts (exact and monotone-derived hits), and
with a ``cache_dir`` the warmth survives daemon restarts through the
existing :class:`~repro.runtime.store.CacheStore`.

Safety model: :class:`QueryRunner` is not internally thread-safe for
query execution, so each pooled runner carries a lease lock — jobs on
the *same* context serialise (they share one cache and would race its
fact tables), jobs on *different* contexts run fully in parallel on the
worker pool.  Maintenance operations (flush, stats snapshots) are safe
from any thread via the runner's own I/O lock, which is what lets the
``/v1/stats`` endpoint sample runners mid-job.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from ..config import RuntimeConfig, VerifierConfig
from ..runtime import QueryRunner
from ..runtime.fingerprint import join_context, network_fingerprint

#: Network objects whose fingerprint the pool remembers (oldest dropped
#: first).  The daemon leases a handful of long-lived networks; a batch
#: campaign builds a fresh one per job and simply re-hashes it.
NETWORK_PRINTS_HELD = 16


@dataclass
class _PooledRunner:
    runner: QueryRunner
    lock: threading.Lock
    jobs_served: int = 0


class RunnerPool:
    """Lazily built map of runtime-context fingerprint → shared runner."""

    def __init__(self, runtime: RuntimeConfig | None = None):
        self.runtime = runtime or RuntimeConfig()
        self._mutex = threading.Lock()
        self._entries: dict[str, _PooledRunner] = {}
        # id(network) -> (network, fingerprint).  Holding the object keeps
        # its id from being reused by another network while it is here.
        self._network_prints: dict[int, tuple[object, str]] = {}

    @contextmanager
    def lease(self, network, config: VerifierConfig, data_digest: str | None = None):
        """Exclusive use of the context's shared runner for one job.

        Creating the runner (which may warm-load a disk store) happens
        under the pool mutex; the query work happens under the runner's
        own lease lock only, so slow jobs never block unrelated contexts.
        """
        with self._mutex:
            context = join_context(self._network_print(network), config, data_digest)
            entry = self._entries.get(context)
            if entry is None:
                entry = _PooledRunner(
                    runner=QueryRunner(
                        network, config, self.runtime, data_digest=data_digest
                    ),
                    lock=threading.Lock(),
                )
                self._entries[context] = entry
        with entry.lock:
            entry.jobs_served += 1
            yield entry.runner

    def _network_print(self, network) -> str:
        """``network_fingerprint(network)``, hashed once per held object
        (the caller holds the pool mutex)."""
        held = self._network_prints.get(id(network))
        if held is None:
            if len(self._network_prints) >= NETWORK_PRINTS_HELD:
                del self._network_prints[next(iter(self._network_prints))]
            held = self._network_prints[id(network)] = (
                network,
                network_fingerprint(network),
            )
        return held[1]

    # -- maintenance -------------------------------------------------------------

    def _snapshot(self) -> list[_PooledRunner]:
        with self._mutex:
            return list(self._entries.values())

    def close_all(self) -> None:
        """Flush and shut down every runner (daemon shutdown)."""
        with self._mutex:
            entries, self._entries = list(self._entries.values()), {}
        for entry in entries:
            entry.runner.close()

    def stats(self) -> list[dict]:
        """One consistent stats snapshot per pooled runner (any thread)."""
        out = []
        for entry in self._snapshot():
            payload = entry.runner.stats_payload()
            payload["jobs_served"] = entry.jobs_served
            out.append(payload)
        return out

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)
