"""Noise-tolerance analysis (paper §IV-B, results §V-C.1).

For every correctly-classified test input the analysis finds the minimal
noise percentage ``(Δx)min`` whose range admits a misclassifying noise
vector; the network's noise tolerance is the largest range below *all*
of them.  The paper reports ±11 % for its trained network.

The paper's Fig.-2 loop shrinks the range by one point while a
counterexample exists.  Noise boxes nest (±P' ⊆ ±P for P' ≤ P), so the
verdict is monotone in P and that loop's answer is the least VULNERABLE
rung of the ladder ``1..ceiling``: each input's search is one
:class:`~repro.runtime.tasks.ToleranceSearchTask`, which decides its
whole ladder in one frontier call (:mod:`repro.verify.batch`).  The
vectorised incomplete passes decide the cheap mass of the ladder in
bulk, and a monotone bisection reaches a complete engine only inside
the thin boundary band.  The least flip is never implied by another
rung, so every reported witness is an exact one.

Execution goes through the analysis runtime (:mod:`repro.runtime`): the
tasks are submitted to a :class:`~repro.runtime.QueryRunner`, which
memoises every ``(input, percent)`` verdict in its query cache and —
when ``RuntimeConfig.workers > 1`` — fans the searches out over a
process pool with deterministic per-input seeding, so parallel runs
reproduce serial runs bit for bit.  The cache answers a probe at ±P
from any proved ROBUST verdict at ±P' ≥ P or VULNERABLE verdict at
±P' ≤ P, so a search that overlaps earlier work — a previous run
warm-started from disk, a different ceiling, the Fig.-4 sweep — issues
no solver call for a percent whose answer is already forced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import RuntimeConfig, VerifierConfig
from ..data.dataset import Dataset
from ..nn.quantize import QuantizedNetwork
from ..runtime import QueryRunner, ToleranceSearchTask


@dataclass
class InputTolerance:
    """Per-input outcome of the tolerance search."""

    index: int
    true_label: int
    min_flip_percent: int | None  # None: robust up to the search ceiling
    witness: tuple[int, ...] | None
    flipped_to: int | None

    @property
    def robust_at_ceiling(self) -> bool:
        return self.min_flip_percent is None


@dataclass
class ToleranceReport:
    """Aggregate tolerance result over a dataset."""

    per_input: list[InputTolerance] = field(default_factory=list)
    search_ceiling: int = 0
    correctly_classified: int = 0
    total_inputs: int = 0

    @property
    def tolerance(self) -> int | None:
        """Largest ΔX with no counterexample for any input (paper: ±11)."""
        flips = [
            r.min_flip_percent
            for r in self.per_input
            if r.min_flip_percent is not None
        ]
        if not flips:
            return self.search_ceiling
        return min(flips) - 1

    def misclassified_inputs_at(self, percent: int) -> list[InputTolerance]:
        """Inputs with a counterexample within ``±percent``."""
        return [
            r
            for r in self.per_input
            if r.min_flip_percent is not None and r.min_flip_percent <= percent
        ]

    def misclassification_counts(self, percents: list[int]) -> dict[int, int]:
        """Series for the Fig.-4 sweep: range → #vulnerable inputs."""
        return {p: len(self.misclassified_inputs_at(p)) for p in percents}


class NoiseToleranceAnalysis:
    """Drives the P2 loop over a dataset through the query runner."""

    def __init__(
        self,
        network: QuantizedNetwork,
        config: VerifierConfig | None = None,
        search_ceiling: int = 60,
        runner: QueryRunner | None = None,
        runtime: RuntimeConfig | None = None,
    ):
        self.network = network
        self.search_ceiling = search_ceiling
        self.runner = runner or QueryRunner(
            network, config or VerifierConfig(), runtime
        )

    # -- dataset ------------------------------------------------------------------

    def analyze(self, dataset: Dataset) -> ToleranceReport:
        """Run the tolerance search over every correctly-classified input.

        The paper considers only correctly-classified inputs *"for fair
        analysis of the impact of noise"* — misclassified-at-zero-noise
        inputs carry no tolerance information.
        """
        report = ToleranceReport(
            search_ceiling=self.search_ceiling,
            total_inputs=dataset.num_samples,
        )
        tasks = [
            ToleranceSearchTask(
                index=index,
                x=x,
                true_label=true_label,
                ceiling=self.search_ceiling,
            )
            for index, x, true_label in self.runner.correctly_classified(dataset)
        ]
        report.correctly_classified = len(tasks)
        for task, outcome in zip(tasks, self.runner.run_tasks(tasks)):
            report.per_input.append(
                InputTolerance(index=task.index, true_label=task.true_label, **outcome)
            )
        return report

    def sweep(self, dataset: Dataset, percents: list[int]) -> dict[int, list[int]]:
        """Live Fig.-4 sweep: ``{percent: [vulnerable input indices]}``.

        Unlike :meth:`ToleranceReport.misclassification_counts` (which
        re-reads a finished report), this issues one verification query
        per correctly-classified input per percent — and therefore shows
        the cache's implied verdicts at work: after :meth:`analyze` has
        run on the same runner, every query here is answered from an
        exact or implied verdict and *zero* solver calls are issued, even
        at percents the search never probed directly.

        On a cold runner the whole (input × percent) grid goes through
        the frontier plane in one :meth:`~repro.runtime.QueryRunner.verify_frontier`
        call: the bulk prepass decides the cheap mass and each input's
        boundary band costs only a logarithmic number of complete-engine
        calls (monotone bisection) instead of one per grid point.
        """
        from ..runtime import make_key

        grid = [
            (index, x, true_label, percent)
            for index, x, true_label in self.runner.correctly_classified(dataset)
            for percent in percents
        ]
        results = self.runner.verify_frontier(grid)
        vulnerable: dict[int, list[int]] = {p: [] for p in percents}
        for index, x, true_label, percent in grid:
            key = make_key("verify", index, x, true_label, percent)
            if results[key].is_vulnerable:
                vulnerable[percent].append(index)
        return vulnerable
