"""Portfolio verifier: the complete stage behind the frontier prepass.

The schedule mirrors how the paper's workflow spends effort: most
(input, noise-range) queries are either clearly robust (interval proof in
microseconds) or clearly vulnerable (a falsifier finds a witness), and
only the thin boundary band needs a complete solver.

The cheap stages run in bulk, interval → corner → random, as the
frontier plane's :class:`~repro.verify.batch.FrontierPrepass`; the
analysis runtime keeps one portfolio per runner and calls
:meth:`PortfolioVerifier.verify_complete` on the survivors of its own
frontier prepass.  The complete stage enumerates small boxes and runs a
warm :class:`~repro.verify.incremental.LadderSession` on the rest; it
folds its attempts, decisions and wall time into an
:class:`~repro.verify.stats.EngineStats` table (shared with the runner)
for the engine-utilisation report.
"""

from __future__ import annotations

import time

from ..config import VerifierConfig
from .batch import stamp
from .encoder import ScaledQuery
from .exhaustive import ExhaustiveEnumerator
from .incremental import LadderSession
from .result import VerificationResult, VerificationStatus
from .stats import EngineStats

#: Warm ladder sessions kept per portfolio: one per (input, label) pair
#: whose noise box was too large to enumerate.  A runner shares one
#: portfolio across every input, and its analyses finish one input's
#: ladder before moving on, so FIFO eviction of the oldest pair costs
#: little; the cap bounds a long-lived (serve) runner's memory.
MAX_SESSIONS = 8


class PortfolioVerifier:
    """The complete stage: exhaustive enumeration or a warm ladder session."""

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
        #: (input values, true label) -> LadderSession, insertion-ordered.
        self._sessions: dict[tuple, LadderSession] = {}

    def verify_complete(self, query: ScaledQuery) -> VerificationResult:
        """A complete verdict: enumeration when the box is small (it is
        usually faster than phase splitting there), otherwise the warm
        per-(input, label) :class:`LadderSession`, whose verdicts and
        witnesses are byte-identical to a from-scratch
        :class:`~repro.verify.smt_verifier.SmtVerifier` run (the session
        re-derives witnesses canonically).

        Callers run the incomplete stages first, in a bulk frontier
        prepass (:mod:`repro.verify.batch`), and pass only its survivors."""
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

    def margin_refutations(self) -> int:
        """Rung adversaries this portfolio's sessions refuted by the margin
        bound alone, before any search."""
        return sum(
            session.margin_refutations for session in self._sessions.values()
        )
