"""Input-node sensitivity analysis (paper §V-C.4).

Two complementary measurements:

1. **Census over extracted counterexamples** — for each input node,
   how many adversarial vectors carry positive / negative / zero noise
   on that node.  The paper's headline findings are census statements:
   *"no counterexamples were obtained with positive noise at input node
   i5"* and *"more noise patterns with positive noise at i2 than the
   other way around"*.
2. **Single-node probing** (Eq. 3 of the paper) — noise restricted to
   one node at a time: the minimal single-node noise that flips the
   prediction, per node and sign.  This isolates a node's own
   sensitivity from correlations with the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import RuntimeConfig, VerifierConfig
from ..data.dataset import Dataset
from ..nn.quantize import QuantizedNetwork
from ..runtime import ProbeTask, QueryRunner
from .noise_vectors import ExtractionReport


@dataclass
class NodeSensitivity:
    """Census entry for one input node."""

    node: int
    positive: int = 0
    negative: int = 0
    zero: int = 0

    @property
    def total(self) -> int:
        return self.positive + self.negative + self.zero

    @property
    def insensitive_to_positive(self) -> bool:
        """The paper's i5 pattern: counterexamples never push this node up."""
        return self.total > 0 and self.positive == 0

    @property
    def insensitive_to_negative(self) -> bool:
        return self.total > 0 and self.negative == 0

    @property
    def skew(self) -> float:
        """Positive-vs-negative asymmetry in [-1, 1]."""
        signed = self.positive + self.negative
        if signed == 0:
            return 0.0
        return (self.positive - self.negative) / signed


@dataclass
class SensitivityReport:
    """Census over all nodes plus optional single-node probe results."""

    nodes: list[NodeSensitivity] = field(default_factory=list)
    noise_percent: int = 0
    #: node → (min flip percent with positive-only noise, with negative-only)
    single_node_flips: dict[int, tuple[int | None, int | None]] = field(
        default_factory=dict
    )

    def most_sensitive_nodes(self, top: int = 2) -> list[int]:
        """Nodes whose noise appears most often in counterexamples."""
        ranked = sorted(
            self.nodes, key=lambda n: n.positive + n.negative, reverse=True
        )
        return [n.node for n in ranked[:top]]

    def one_sided_nodes(self) -> list[int]:
        """Nodes with counterexamples on one sign only (paper's i5)."""
        return [
            n.node
            for n in self.nodes
            if n.insensitive_to_positive or n.insensitive_to_negative
        ]

    def describe(self) -> str:
        lines = [f"Input-node sensitivity census at ±{self.noise_percent}%:"]
        for n in self.nodes:
            verdicts = []
            if n.insensitive_to_positive:
                verdicts.append("insensitive to positive noise")
            if n.insensitive_to_negative:
                verdicts.append("insensitive to negative noise")
            suffix = f"  <- {', '.join(verdicts)}" if verdicts else ""
            lines.append(
                f"  i{n.node + 1}: +{n.positive}  -{n.negative}  "
                f"0:{n.zero}  skew {n.skew:+.2f}{suffix}"
            )
        if self.single_node_flips:
            lines.append("Single-node flip thresholds (positive / negative):")
            for node, (pos, neg) in sorted(self.single_node_flips.items()):
                lines.append(
                    f"  i{node + 1}: +{pos if pos is not None else '—'}% / "
                    f"-{neg if neg is not None else '—'}%"
                )
        return "\n".join(lines)


class InputSensitivityAnalysis:
    """Builds sensitivity reports from extractions and probes.

    The Eq.-3 probes run as :class:`~repro.runtime.ProbeTask` units on the
    query runner — one task per ``(node, sign)`` pair, fanned out in
    parallel when the runtime allows.  Each task evaluates its whole
    ladder (every input × every magnitude up to the ceiling) as one bulk
    exact network pass and reports the least flipping magnitude.
    """

    def __init__(
        self,
        network: QuantizedNetwork,
        config: VerifierConfig | None = None,
        runner: QueryRunner | None = None,
        runtime: RuntimeConfig | None = None,
    ):
        self.network = network
        self.runner = runner or QueryRunner(network, config or VerifierConfig(), runtime)
        # The runner's config is the single source of truth — an injected
        # runner's budgets/seed win over a separately passed ``config``.
        self.config = self.runner.config

    # -- census over extracted counterexamples --------------------------------

    def census(self, extraction: ExtractionReport) -> SensitivityReport:
        """Signed-noise histogram per node over all extracted vectors."""
        num_nodes = self.network.num_inputs
        nodes = [NodeSensitivity(node=i) for i in range(num_nodes)]
        for _, _, vector, _ in extraction.all_vectors_with_labels():
            for i, value in enumerate(vector):
                if value > 0:
                    nodes[i].positive += 1
                elif value < 0:
                    nodes[i].negative += 1
                else:
                    nodes[i].zero += 1
        return SensitivityReport(
            nodes=nodes, noise_percent=extraction.noise_percent
        )

    # -- Eq. 3 single-node probing ---------------------------------------------------

    def probe_all_nodes(
        self, dataset: Dataset, search_ceiling: int = 60
    ) -> dict[int, tuple[int | None, int | None]]:
        """(positive, negative) single-node flip thresholds for every node."""
        inputs = tuple(self.runner.correctly_classified(dataset))
        tasks = [
            ProbeTask(node=node, sign=sign, ceiling=search_ceiling, inputs=inputs)
            for node in range(self.network.num_inputs)
            for sign in (+1, -1)
        ]
        results = self.runner.run_tasks(tasks)
        thresholds: dict[int, tuple[int | None, int | None]] = {}
        for node in range(self.network.num_inputs):
            thresholds[node] = (results[2 * node], results[2 * node + 1])
        return thresholds

    # -- combined -----------------------------------------------------------------------

    def analyze(
        self,
        extraction: ExtractionReport,
        dataset: Dataset | None = None,
        probe: bool = False,
        search_ceiling: int = 60,
    ) -> SensitivityReport:
        report = self.census(extraction)
        if probe and dataset is not None:
            report.single_node_flips = self.probe_all_nodes(
                dataset, search_ceiling=search_ceiling
            )
        return report
