"""Verdict container shared by all verification engines, and the one
monotone-implication rule over a percent ladder (:class:`LadderFacts`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class VerificationStatus(Enum):
    #: No noise vector in the range can change the prediction (proof).
    ROBUST = "robust"
    #: A concrete misclassifying noise vector was found (witness).
    VULNERABLE = "vulnerable"
    #: The engine could not decide within its budget / ability.
    UNKNOWN = "unknown"


@dataclass
class VerificationResult:
    """Outcome of one noise-robustness query.

    ``witness`` is the misclassifying integer noise-percent vector when
    ``status`` is VULNERABLE; ``predicted_label`` is the wrong label the
    network emits under that noise.
    """

    status: VerificationStatus
    witness: tuple[int, ...] | None = None
    predicted_label: int | None = None
    engine: str = ""
    nodes_explored: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def is_robust(self) -> bool:
        return self.status is VerificationStatus.ROBUST

    @property
    def is_vulnerable(self) -> bool:
        return self.status is VerificationStatus.VULNERABLE

    def __repr__(self):
        extra = f", witness={self.witness}" if self.witness else ""
        return f"VerificationResult({self.status.value}, engine={self.engine!r}{extra})"


@dataclass
class LadderFacts:
    """Engine verdicts along one input's percent ladder, and what they imply.

    FANNet's noise boxes nest (±P' ⊆ ±P for P' ≤ P), so a ROBUST verdict
    at ±P covers every smaller percent and a VULNERABLE one every larger
    percent, where its witness stays in range.  Only the strongest fact
    of each kind is kept: the largest ROBUST percent, and the smallest
    VULNERABLE percent with its result (the first noted wins a tie).
    The monotone cache, the frontier prepass and the survivor bisection
    all derive through this one rule.
    """

    robust_max: int | None = None
    vulnerable_min: int | None = None
    vulnerable: VerificationResult | None = None

    def note(self, percent: int, result: VerificationResult) -> None:
        """Record an engine verdict at ``percent``; UNKNOWN records nothing."""
        if result.is_robust:
            if self.robust_max is None or percent > self.robust_max:
                self.robust_max = percent
        elif result.is_vulnerable:
            if self.vulnerable_min is None or percent < self.vulnerable_min:
                self.vulnerable_min, self.vulnerable = percent, result

    def implied(self, percent: int) -> VerificationResult | None:
        """The verdict the noted facts imply at ``percent``, or None.

        An implied VULNERABLE verdict carries the witness of the least
        VULNERABLE percent noted: a valid counterexample for the larger
        box, though not necessarily the one an engine run at ``percent``
        would report.
        """
        if self.robust_max is not None and percent <= self.robust_max:
            return VerificationResult(
                VerificationStatus.ROBUST,
                engine=f"monotone(robust@±{self.robust_max}%)",
                stats={"derived_from_percent": self.robust_max},
            )
        if self.vulnerable is not None and percent >= self.vulnerable_min:
            return VerificationResult(
                VerificationStatus.VULNERABLE,
                witness=self.vulnerable.witness,
                predicted_label=self.vulnerable.predicted_label,
                engine=f"monotone(vulnerable@±{self.vulnerable_min}%)",
                stats={"derived_from_percent": self.vulnerable_min},
            )
        return None
