"""FANNet facade: the full Fig.-2 pipeline in one object.

``Fannet`` takes a trained float network plus datasets, quantises it,
validates the translation (P1), and exposes the noise-tolerance (P2),
noise-vector-extraction (P3), bias, sensitivity and boundary analyses.
``run_case_study`` reproduces the paper's §V end to end from nothing but
a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import FannetConfig, NoiseConfig
from ..data import LeukemiaCaseStudy, load_leukemia_case_study
from ..data.dataset import Dataset
from ..errors import VerificationError
from ..nn import Network, accuracy, quantize_network, train_paper_network
from ..nn.quantize import QuantizedNetwork
from ..runtime import QueryRunner
from .bias import BiasReport, TrainingBiasAnalysis
from .boundary import BoundaryEstimation, BoundaryReport
from .noise_vectors import ExtractionReport, NoiseVectorExtraction
from .sensitivity import InputSensitivityAnalysis, SensitivityReport
from .tolerance import NoiseToleranceAnalysis, ToleranceReport
from .translate import network_noise_module, validate_translation


@dataclass
class FannetReport:
    """Everything the paper's evaluation section reports, in one place."""

    train_accuracy: float = 0.0
    test_accuracy: float = 0.0
    tolerance: ToleranceReport | None = None
    extraction: ExtractionReport | None = None
    bias: BiasReport | None = None
    sensitivity: SensitivityReport | None = None
    boundary: BoundaryReport | None = None
    extraction_percent: int = 0
    config: FannetConfig = field(default_factory=FannetConfig)

    def summary(self) -> str:
        lines = ["=== FANNet analysis report ==="]
        lines.append(
            f"accuracy: train {self.train_accuracy:.2%}, test {self.test_accuracy:.2%}"
        )
        if self.tolerance is not None:
            lines.append(
                f"noise tolerance: ±{self.tolerance.tolerance}% "
                f"({self.tolerance.correctly_classified} correctly-classified inputs)"
            )
        if self.bias is not None:
            lines.append(self.bias.describe())
        if self.sensitivity is not None:
            lines.append(self.sensitivity.describe())
        if self.boundary is not None:
            lines.append(self.boundary.describe())
        return "\n".join(lines)


class Fannet:
    """The FANNet methodology bound to one trained network."""

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        config: FannetConfig | None = None,
    ):
        self.config = config or FannetConfig()
        self.network = network
        self.train_set = train_set
        self.test_set = test_set
        self.quantized: QuantizedNetwork = quantize_network(
            network, weight_scale=self.config.weight_scale
        )
        # One runner, shared by every analysis: P2, P3 and the probes all
        # hit the same query cache and the same worker-pool policy.
        self.runner = QueryRunner(
            self.quantized, self.config.verifier, self.config.runtime
        )
        self._tolerance_analysis = NoiseToleranceAnalysis(
            self.quantized, self.config.verifier, runner=self.runner
        )
        self._extraction = NoiseVectorExtraction(
            self.quantized, self.config.verifier, runner=self.runner
        )
        self._bias_analysis = TrainingBiasAnalysis(train_set)
        self._sensitivity_analysis = InputSensitivityAnalysis(
            self.quantized, self.config.verifier, runner=self.runner
        )
        self._boundary_estimation = BoundaryEstimation()

    def close(self) -> None:
        """Flush the runner's disk cache store and stop its worker pool.

        Safe to call repeatedly; a ``Fannet`` remains usable afterwards
        (the pool and the store flush are both lazily re-established).
        """
        self.runner.close()

    def engine_utilisation(self) -> str:
        """Per-engine decide-rate / wall-time table for this run.

        Aggregated across every analysis that ran on the shared runner —
        including worker processes and the frontier bulk passes.  It
        covers this run only: a warm start from the disk cache begins
        with an empty table.
        """
        return self.runner.engine_stats.describe_table()

    # -- behaviour extraction / P1 --------------------------------------------

    def validate(self) -> bool:
        """P1: float net, quantised net and SMV model agree on the data.

        Raises :class:`VerificationError` on the first disagreement.
        """
        for dataset in (self.train_set, self.test_set):
            exact_labels = self.runner.encoding.labels(dataset.features)
            for x, exact_label in zip(dataset.features, exact_labels):
                float_label = int(self.network.predict(np.asarray(x, dtype=float)))
                if float_label != exact_label:
                    raise VerificationError(
                        "quantisation changed a prediction; increase weight_scale"
                    )
        # SMV translation check on one representative input.
        x = np.asarray(self.test_set.features[0])
        label = int(self.test_set.labels[0])
        module, query = network_noise_module(
            self.quantized, x, label, NoiseConfig(max_percent=1)
        )
        probe_vectors = [
            tuple([1] * query.num_inputs),
            tuple([-1] * query.num_inputs),
        ]
        validate_translation(module, query, probe_vectors)
        return True

    # -- the analyses -------------------------------------------------------------

    def noise_tolerance(self, search_ceiling: int = 60) -> ToleranceReport:
        """P2 loop over the test set (§V-C.1)."""
        self._tolerance_analysis.search_ceiling = search_ceiling
        return self._tolerance_analysis.analyze(self.test_set)

    def extract_noise_vectors(self, percent: int) -> ExtractionReport:
        """P3 loop at a fixed range (§IV-C)."""
        return self._extraction.extract(self.test_set, percent)

    def training_bias(self, extraction: ExtractionReport) -> BiasReport:
        """Dataset-vs-counterexample bias census (§V-C.3)."""
        return self._bias_analysis.analyze(extraction)

    def input_sensitivity(
        self, extraction: ExtractionReport, probe: bool = False
    ) -> SensitivityReport:
        """Node census, optionally with Eq.-3 single-node probes (§V-C.4)."""
        return self._sensitivity_analysis.analyze(
            extraction, dataset=self.test_set, probe=probe
        )

    def boundary(self, tolerance: ToleranceReport) -> BoundaryReport:
        """Boundary-proximity picture (§V-C.2)."""
        return self._boundary_estimation.analyze(tolerance)

    # -- one-call pipeline -----------------------------------------------------------

    def analyze(
        self,
        search_ceiling: int = 60,
        extraction_percent: int | None = None,
        probe_sensitivity: bool = False,
    ) -> FannetReport:
        """Run the complete FANNet pipeline.

        ``extraction_percent`` defaults to a few points above the found
        tolerance — the first range with a non-trivial counterexample
        census, mirroring how the paper picks its analysis ranges.
        """
        self.validate()
        report = FannetReport(config=self.config)
        report.train_accuracy = accuracy(
            self.network.predict(np.asarray(self.train_set.features, dtype=float)),
            self.train_set.labels,
        )
        report.test_accuracy = accuracy(
            self.network.predict(np.asarray(self.test_set.features, dtype=float)),
            self.test_set.labels,
        )
        report.tolerance = self.noise_tolerance(search_ceiling)
        if extraction_percent is None:
            base = report.tolerance.tolerance or 0
            extraction_percent = min(base + 2, search_ceiling)
        report.extraction_percent = extraction_percent
        report.extraction = self.extract_noise_vectors(extraction_percent)
        report.bias = self.training_bias(report.extraction)
        report.sensitivity = self.input_sensitivity(
            report.extraction, probe=probe_sensitivity
        )
        report.boundary = self.boundary(report.tolerance)
        self.runner.flush()  # spill new verdicts to the disk store, if any
        return report


def run_case_study(
    config: FannetConfig | None = None,
    case_study: LeukemiaCaseStudy | None = None,
    search_ceiling: int = 60,
    extraction_percent: int | None = None,
    probe_sensitivity: bool = False,
) -> tuple[Fannet, FannetReport]:
    """Reproduce the paper's §V from scratch: data → training → analysis."""
    config = config or FannetConfig()
    case_study = case_study or load_leukemia_case_study(config)
    result = train_paper_network(
        case_study.train.features, case_study.train.labels, config.train
    )
    fannet = Fannet(
        result.network, case_study.train, case_study.test, config
    )
    report = fannet.analyze(
        search_ceiling=search_ceiling,
        extraction_percent=extraction_percent,
        probe_sensitivity=probe_sensitivity,
    )
    return fannet, report
