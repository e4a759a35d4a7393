"""Training-bias analysis (paper §V-C.3).

The paper's observation: with ~70 % of training samples in class L1, all
noise-induced misclassifications flow L0 → L1 — the network errs toward
the majority class.  This module measures both sides:

- the *dataset* census (class shares of the training set), and
- the *counterexample* census (direction of every extracted flip),

and reports whether they corroborate (Eq. 4 of the paper instantiated
over the whole extraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data.dataset import CLASS_NAMES, Dataset
from .noise_vectors import ExtractionReport


@dataclass
class BiasReport:
    """Combined dataset + counterexample bias evidence."""

    training_class_counts: dict[int, int] = field(default_factory=dict)
    training_majority_label: int = -1
    training_majority_share: float = 0.0
    #: (true_label, wrong_label) → number of flips observed.
    flip_matrix: dict[tuple[int, int], int] = field(default_factory=dict)
    noise_percent: int = 0

    @classmethod
    def from_census(
        cls,
        training_class_counts: dict[int, int],
        flip_matrix: dict[tuple[int, int], int],
        noise_percent: int = 0,
    ) -> "BiasReport":
        """The report implied by a dataset census and a flip census.

        The single place the majority class is chosen (ties break to the
        smallest label, deterministically) — both the in-process
        :class:`TrainingBiasAnalysis` and the batch service's merge fold
        build their reports here, so the paper's Eq.-4 criterion lives
        exactly once.
        """
        majority = max(sorted(training_class_counts), key=training_class_counts.get)
        return cls(
            training_class_counts=dict(training_class_counts),
            training_majority_label=majority,
            training_majority_share=(
                training_class_counts[majority] / sum(training_class_counts.values())
            ),
            flip_matrix=dict(flip_matrix),
            noise_percent=noise_percent,
        )

    @property
    def flips_toward_majority(self) -> int:
        return sum(
            count
            for (_, wrong), count in self.flip_matrix.items()
            if wrong == self.training_majority_label
        )

    @property
    def total_flips(self) -> int:
        return sum(self.flip_matrix.values())

    @property
    def majority_flip_share(self) -> float:
        """Fraction of flips landing on the majority class (paper: 1.0)."""
        total = self.total_flips
        return self.flips_toward_majority / total if total else 0.0

    @property
    def bias_confirmed(self) -> bool:
        """True when flips skew toward the training majority class."""
        return self.total_flips > 0 and self.majority_flip_share > 0.5

    def describe(self) -> str:
        lines = ["Training-set census:"]
        total = sum(self.training_class_counts.values())
        for label, count in sorted(self.training_class_counts.items()):
            name = CLASS_NAMES.get(label, str(label))
            lines.append(f"  {name}: {count}/{total} ({count / total:.1%})")
        lines.append(f"Counterexample flips at ±{self.noise_percent}%:")
        if not self.flip_matrix:
            lines.append("  none found")
        for (true, wrong), count in sorted(self.flip_matrix.items()):
            lines.append(
                f"  {CLASS_NAMES.get(true, true)} -> "
                f"{CLASS_NAMES.get(wrong, wrong)}: {count}"
            )
        lines.append(
            f"Share of flips toward the majority class: "
            f"{self.majority_flip_share:.1%}"
        )
        lines.append(
            "=> training bias CONFIRMED"
            if self.bias_confirmed
            else "=> no training bias detected"
        )
        return "\n".join(lines)


class TrainingBiasAnalysis:
    """Correlates dataset imbalance with counterexample flow."""

    def __init__(self, training_set: Dataset):
        self.training_set = training_set

    def analyze(self, extraction: ExtractionReport) -> BiasReport:
        flip_matrix: dict[tuple[int, int], int] = {}
        for _, true_label, _, wrong_label in extraction.all_vectors_with_labels():
            key = (true_label, wrong_label)
            flip_matrix[key] = flip_matrix.get(key, 0) + 1
        return BiasReport.from_census(
            self.training_set.class_counts(),
            flip_matrix,
            noise_percent=extraction.noise_percent,
        )
