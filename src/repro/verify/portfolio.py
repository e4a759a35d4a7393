"""Portfolio verifier: cheap engines first, complete engine last.

The schedule mirrors how the paper's workflow spends effort: most
(input, noise-range) queries are either clearly robust (interval proof in
microseconds) or clearly vulnerable (a falsifier finds a witness), and
only the thin boundary band needs the complete solver.

The incomplete stages (interval → corner → random) are the frontier
plane's :class:`~repro.verify.batch.FrontierPrepass` run on a frontier
of one probe.  Stage *order* is not hard-coded: an
:class:`~repro.verify.stats.EngineStats` table (shared with the runner,
persisted in the cache store) records each stage's decide rate and wall
time, and the scheduler reorders the incomplete stages to minimise
expected time on the observed workload.  Reordering is verdict- and
witness-preserving: the incomplete stages can only fail towards UNKNOWN,
and the corner falsifier always runs before the random one, so the
returned result is bit-identical to the canonical interval → corner →
random → complete order — statistics may only change *which* engine
answers first among agreeing engines.
"""

from __future__ import annotations

import time

from ..config import VerifierConfig
from .batch import FrontierPrepass, FrontierProbe, stamp
from .encoder import ScaledQuery
from .exhaustive import ExhaustiveEnumerator
from .incremental import LadderSession
from .result import VerificationResult, VerificationStatus
from .stats import EngineStats

#: Warm ladder sessions kept per portfolio: one per (input, label) pair
#: whose noise box was too large to enumerate.  A per-input portfolio
#: only ever sees a handful of pairs; the cap is a safety net against
#: unbounded growth when a verifier is shared across inputs.
MAX_SESSIONS = 8


class PortfolioVerifier:
    """interval / corner / random (stats-ordered) ⇒ exhaustive-or-session."""

    name = "portfolio"

    def __init__(
        self,
        config: VerifierConfig | None = None,
        exhaustive_cutoff: int = 200_000,
        engine_stats: EngineStats | None = None,
    ):
        self.config = config or VerifierConfig()
        self.exhaustive_cutoff = exhaustive_cutoff
        self.exhaustive = ExhaustiveEnumerator()
        self.engine_stats = engine_stats if engine_stats is not None else EngineStats()
        self.stage_counts: dict[str, int] = {}
        #: (input values, true label) -> LadderSession, insertion-ordered.
        self._sessions: dict[tuple, LadderSession] = {}

    def verify(self, query: ScaledQuery) -> VerificationResult:
        """Complete verdict; ``stats['stage']`` records the deciding engine.

        The incomplete stages run as a one-probe frontier prepass whose
        random stage is seeded with ``config.seed``."""
        probe = FrontierProbe(
            key=None, query=query, percent=0, group=None, seed=self.config.seed
        )
        prepass = FrontierPrepass(engine_stats=self.engine_stats)
        decided = prepass.resolve([probe]).decided
        if decided:
            result = decided[None]
            self._count(result.stats["stage"])
            return result
        return self.verify_complete(query)

    def verify_complete(self, query: ScaledQuery) -> VerificationResult:
        """The complete stage alone: enumeration when the box is small (it
        is usually faster than phase splitting there), otherwise the warm
        per-(input, label) :class:`LadderSession`, whose verdicts and
        witnesses are byte-identical to a from-scratch
        :class:`~repro.verify.smt_verifier.SmtVerifier` run (the session
        re-derives witnesses canonically).

        Also the entry point for queries whose incomplete stages already
        ran inside a bulk frontier prepass (:mod:`repro.verify.batch`)."""
        if query.noise_space_size() <= self.exhaustive_cutoff:
            stage, engine = "exhaustive", self.exhaustive
        else:
            stage, engine = "session", self._session_for(query)
        start = time.perf_counter()
        result = engine.verify(query)
        wall = time.perf_counter() - start
        self.engine_stats.record(
            stage, result.status is not VerificationStatus.UNKNOWN, wall
        )
        self._count(stage)
        return stamp(result, stage, wall)

    def _session_for(self, query: ScaledQuery) -> LadderSession:
        """The warm session for this query's (input, label) ladder."""
        key = (tuple(int(v) for v in query.x), query.true_label)
        session = self._sessions.get(key)
        if session is None:
            if len(self._sessions) >= MAX_SESSIONS:
                # Deterministic FIFO eviction: drop the oldest ladder.
                self._sessions.pop(next(iter(self._sessions)))
            session = self._sessions[key] = LadderSession(self.config)
        return session

    def complete_pivots(self) -> int:
        """Simplex pivots spent by this portfolio's ladder sessions.

        The deterministic effort metric the incremental-ladder benchmark
        gates on."""
        return sum(session.total_pivots for session in self._sessions.values())

    def _count(self, stage: str) -> None:
        self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1
