"""Adversarial noise-vector extraction — the P3 loop (paper §IV-C).

Collects, per input, the array ``e`` of unique noise vectors that flip
the prediction, annotated with the wrong label each vector produces.
The census feeds both the training-bias analysis (which direction do
flips go?) and the input-sensitivity analysis (which nodes carry signed
noise?).

Like the tolerance search, extraction executes on the analysis runtime
(:mod:`repro.runtime`): each input becomes an
:class:`~repro.runtime.tasks.ExtractionTask` submitted to a
:class:`~repro.runtime.QueryRunner`.  The runner memoises extraction
outcomes per ``(input, percent, limit)`` and short-circuits inputs whose
P2 pass already proved the same noise box robust — exactly, or via the
cache's monotone derivation, *implied*: a ROBUST verdict at any larger percent
covers this box, so the vector set is empty and no collector runs at
all — and fans inputs out over a worker pool when
``RuntimeConfig.workers > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import RuntimeConfig, VerifierConfig
from ..data.dataset import Dataset
from ..nn.quantize import QuantizedNetwork
from ..runtime import ExtractionTask, QueryRunner


@dataclass
class InputNoiseVectors:
    """All extracted vectors for one dataset input."""

    index: int
    true_label: int
    vectors: list[tuple[int, ...]] = field(default_factory=list)
    flipped_to: list[int] = field(default_factory=list)
    exhausted: bool = True

    def __len__(self):
        return len(self.vectors)


@dataclass
class ExtractionReport:
    """Dataset-wide extraction outcome at one noise range."""

    noise_percent: int
    per_input: list[InputNoiseVectors] = field(default_factory=list)

    @property
    def total_vectors(self) -> int:
        return sum(len(entry) for entry in self.per_input)

    def vulnerable_inputs(self) -> list[InputNoiseVectors]:
        return [entry for entry in self.per_input if entry.vectors]

    def all_vectors_with_labels(self):
        """Yield (input_index, true_label, vector, wrong_label) tuples."""
        for entry in self.per_input:
            for vector, wrong in zip(entry.vectors, entry.flipped_to):
                yield entry.index, entry.true_label, vector, wrong


class NoiseVectorExtraction:
    """Runs the P3 loop over a dataset at a fixed noise range."""

    def __init__(
        self,
        network: QuantizedNetwork,
        config: VerifierConfig | None = None,
        per_input_limit: int | None = None,
        runner: QueryRunner | None = None,
        runtime: RuntimeConfig | None = None,
    ):
        self.network = network
        self.per_input_limit = per_input_limit
        self.runner = runner or QueryRunner(network, config or VerifierConfig(), runtime)
        # The runner's config is the single source of truth — an injected
        # runner's budgets/seed win over a separately passed ``config``.
        self.config = self.runner.config

    def extract(self, dataset: Dataset, noise_percent: int) -> ExtractionReport:
        """P3 extraction over every correctly-classified input.

        An input whose box the runner's cache already holds (or implies)
        ROBUST — after a P2 pass, every input below its minimum flip —
        short-circuits to an empty vector set; the collector's own
        interval split proves the other robust boxes.
        """
        report = ExtractionReport(noise_percent=noise_percent)
        tasks = [
            ExtractionTask(
                index=index,
                x=x,
                true_label=true_label,
                percent=noise_percent,
                limit=self.per_input_limit,
            )
            for index, x, true_label in self.runner.correctly_classified(dataset)
        ]
        for task, outcome in zip(tasks, self.runner.run_tasks(tasks)):
            report.per_input.append(
                InputNoiseVectors(index=task.index, true_label=task.true_label, **outcome)
            )
        return report
