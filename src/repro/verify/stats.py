"""Per-engine execution statistics: the engine-utilisation table.

Every bulk pass of the frontier prepass (:mod:`repro.verify.batch`) and
every complete-engine call of a
:class:`~repro.verify.portfolio.PortfolioVerifier` records how often its
stage was attempted, how often it *decided* the query, and how much wall
time it spent.  The table is observability only: the CLI prints it per
run, perfbench reads it, and worker processes ship theirs back to be
folded in with :meth:`EngineStats.merge`.  It never steers execution —
the incomplete stages always run interval → corner → random — so the
attempt and decide counters are a deterministic function of the queries
asked, whatever the host's speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The incomplete stages, in the order the frontier prepass runs them.
CANONICAL_INCOMPLETE: tuple[str, ...] = ("interval", "corner", "random")

#: Names counted as complete-engine invocations.  ``session`` is the
#: warm ladder session (:mod:`repro.verify.incremental`).
COMPLETE_STAGES: tuple[str, ...] = ("exhaustive", "session")


@dataclass
class StageStat:
    """Aggregate counters for one engine stage."""

    attempts: int = 0
    decided: int = 0
    wall_s: float = 0.0

    @property
    def decide_rate(self) -> float:
        return self.decided / self.attempts if self.attempts else 0.0

    @property
    def mean_wall_s(self) -> float:
        return self.wall_s / self.attempts if self.attempts else 0.0


@dataclass
class EngineStats:
    """Decide-rate and wall-time table over all verification stages."""

    stages: dict[str, StageStat] = field(default_factory=dict)

    def stage(self, name: str) -> StageStat:
        stat = self.stages.get(name)
        if stat is None:
            stat = self.stages[name] = StageStat()
        return stat

    def record(self, name: str, decided: bool, wall_s: float) -> None:
        """Fold one attempt in."""
        self.record_bulk(name, 1, int(decided), wall_s)

    def record_bulk(self, name: str, attempts: int, decided: int, wall_s: float) -> None:
        """Fold one bulk pass over ``attempts`` queries in."""
        stat = self.stage(name)
        stat.attempts += attempts
        stat.decided += decided
        stat.wall_s += wall_s

    # -- aggregates -------------------------------------------------------------

    def complete_calls(self) -> int:
        """Complete-engine invocations recorded so far."""
        return sum(
            self.stages[name].attempts for name in COMPLETE_STAGES if name in self.stages
        )

    def merge(self, other: "EngineStats") -> None:
        """Fold another table in (a pooled worker's, shipped back whole)."""
        for name, stat in other.stages.items():
            self.record_bulk(name, stat.attempts, stat.decided, stat.wall_s)

    # -- reporting ---------------------------------------------------------------

    def describe_table(self) -> str:
        """Engine-utilisation table (CLI report path)."""
        if not self.stages:
            return "engine utilisation: no engine activity recorded"
        header = f"{'stage':<12}{'attempts':>10}{'decided':>10}{'rate':>8}{'wall':>10}{'mean':>10}"
        lines = ["engine utilisation:", "  " + header]
        order = [n for n in (*CANONICAL_INCOMPLETE, *COMPLETE_STAGES) if n in self.stages]
        order += [n for n in sorted(self.stages) if n not in order]
        for name in order:
            stat = self.stages[name]
            lines.append(
                "  "
                + f"{name:<12}{stat.attempts:>10}{stat.decided:>10}"
                + f"{stat.decide_rate:>8.0%}{stat.wall_s:>9.2f}s"
                + f"{stat.mean_wall_s * 1000:>8.2f}ms"
            )
        return "\n".join(lines)
