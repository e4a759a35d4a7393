"""Tests for the FANNet core: translation, properties, analyses.

Uses a small deterministic fixture network so each test runs fast; the
full-pipeline integration test lives in test_case_study.py.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.config import NoiseConfig
from repro.core import (
    BoundaryEstimation,
    InputSensitivityAnalysis,
    NoiseToleranceAnalysis,
    NoiseVectorExtraction,
    TrainingBiasAnalysis,
    dataset_fsm_module,
    network_noise_module,
    validate_translation,
)
from repro.core.properties import (
    noise_vector_equals,
    p1_functional_property,
    p2_noise_property,
    p3_next_counterexample_property,
)
from repro.core.translate import noise_model_state_counts
from repro.data.dataset import Dataset
from repro.errors import VerificationError
from repro.fsm import TransitionSystem, count_states_and_transitions, evaluate_expression
from repro.mc import ExplicitChecker, Verdict
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.runtime import ProbeTask, QueryRunner
from repro.smv import print_module, parse_module
from repro.smv.ast import Ident

SCALE = 1000


@pytest.fixture
def network():
    """2-input network separating on x0 - x1 with a weak secondary path."""

    def matrix(rows):
        return tuple(tuple(Fraction(v, SCALE) for v in row) for row in rows)

    def vector(values):
        return tuple(Fraction(v, SCALE) for v in values)

    return QuantizedNetwork(
        [
            QuantizedLayer(matrix([[1000, -1000], [-500, 1500]]), vector([0, 100]), relu=True),
            QuantizedLayer(matrix([[1000, -200], [-1000, 800]]), vector([0, 0]), relu=False),
        ]
    )


@pytest.fixture
def dataset(network):
    features = np.array([[20, 10], [10, 20], [30, 8], [9, 27], [15, 14]])
    labels = np.array([int(network.predict(x)) for x in features])
    return Dataset(features, labels)


class TestTranslation:
    def test_module_parses_and_round_trips(self, network):
        module, _ = network_noise_module(
            network, np.array([20, 10]), 0, NoiseConfig(2)
        )
        text = print_module(module)
        reparsed = parse_module(text)
        assert reparsed.variables == module.variables
        assert len(reparsed.defines) == len(module.defines)

    def test_p1_validation_passes(self, network):
        module, query = network_noise_module(
            network, np.array([20, 10]), 0, NoiseConfig(3)
        )
        assert validate_translation(
            module, query, [(1, -1), (3, 3), (-3, -3), (2, 0)]
        )

    def test_p1_validation_catches_corruption(self, network):
        module, query = network_noise_module(
            network, np.array([20, 10]), 0, NoiseConfig(3)
        )
        # Corrupt the output comparison.
        module.defines["o0"], module.defines["o1"] = (
            module.defines["o1"],
            module.defines["o0"],
        )
        with pytest.raises(VerificationError):
            validate_translation(module, query, [(3, -3), (-3, 3), (1, 2)])

    def test_smv_oc_agrees_with_query_on_grid(self, network):
        x = np.array([20, 10])
        label = int(network.predict(x))
        module, query = network_noise_module(network, x, label, NoiseConfig(2))
        for p0 in range(-2, 3):
            for p1 in range(-2, 3):
                state = {"phase": "eval", "p0": p0, "p1": p1}
                smv_label = evaluate_expression(Ident("oc"), state, module)
                assert smv_label == query.predict_single((p0, p1))

    def test_invariant_checking_detects_vulnerability(self, network):
        """P2 through the real model checker: explicit engine on the SMV
        model agrees with the arithmetic verifier."""
        from repro.verify import ExhaustiveEnumerator, build_query

        x = np.array([15, 14])
        label = int(network.predict(x))
        for percent in (1, 4):
            module, query = network_noise_module(
                network, x, label, NoiseConfig(percent)
            )
            truth = ExhaustiveEnumerator().verify(query)
            result = ExplicitChecker().check_invariant(module, module.invarspecs[0])
            assert result.violated == truth.is_vulnerable
            if result.violated:
                final = result.counterexample.final
                vector = tuple(
                    final[f"p{i}"] for i in range(query.num_inputs)
                )
                assert query.misclassified(vector)

    def test_dataset_fsm_counts(self, network, dataset):
        module = dataset_fsm_module(network, dataset.features)
        counts = count_states_and_transitions(TransitionSystem(module))
        assert counts == (3, 6)  # Fig. 3(b)

    def test_noise_model_state_counts_with_bias_node(self, network):
        counts = noise_model_state_counts(
            network,
            np.array([20, 10]),
            0,
            NoiseConfig(min_percent=0, max_percent=1),
            noisy_bias_node=True,
        )
        # 2 inputs + bias node, binary noise: 1 + 2^3 states, 8 + 64 edges.
        assert counts == (9, 72)


class TestProperties:
    def test_p1_p2_structure(self):
        assert "oc" in repr(p1_functional_property(1))
        module_prop = p2_noise_property(0)
        assert "phase" in repr(module_prop)

    def test_noise_vector_equals(self):
        expr = noise_vector_equals([1, -2])
        assert "p0" in repr(expr) and "p1" in repr(expr)
        with pytest.raises(ValueError):
            noise_vector_equals([])

    def test_p3_blocks_known_vectors(self, network):
        x = np.array([15, 14])
        label = int(network.predict(x))
        # ±14 is the least range at which this input has witnesses (three).
        module, query = network_noise_module(network, x, label, NoiseConfig(14))
        from repro.verify import ExhaustiveEnumerator

        witnesses = [v for v, _ in ExhaustiveEnumerator().collect_witnesses(query)]
        assert len(witnesses) > 1

        def check(known):
            module.invarspecs = [p3_next_counterexample_property(label, known)]
            return ExplicitChecker().check_invariant(module, module.invarspecs[0])

        # Blocking every witness leaves no counterexample ...
        assert check(witnesses).verdict is Verdict.HOLDS
        # ... and blocking some leaves a fresh one.
        known = witnesses[: len(witnesses) // 2]
        result = check(known)
        assert result.verdict is Verdict.VIOLATED
        final = result.counterexample.final
        vector = tuple(final[f"p{i}"] for i in range(query.num_inputs))
        assert vector not in known
        assert query.misclassified(vector)


class TestToleranceAnalysis:
    def test_tolerance_has_no_counterexample_below(self, network, dataset):
        from repro.verify import ExhaustiveEnumerator, build_query

        report = NoiseToleranceAnalysis(network, search_ceiling=20).analyze(dataset)
        tolerance = report.tolerance
        if tolerance is None or tolerance >= 20:
            pytest.skip("fixture robust through the ceiling")
        for entry in report.per_input:
            x = dataset.features[entry.index]
            query = build_query(
                network, x, entry.true_label, NoiseConfig(tolerance)
            )
            assert ExhaustiveEnumerator().verify(query).is_robust

    def test_witnesses_are_exact(self, network, dataset):
        report = NoiseToleranceAnalysis(network, search_ceiling=20).analyze(dataset)
        for entry in report.per_input:
            if entry.witness is not None:
                assert (
                    network.predict_noisy(
                        dataset.features[entry.index], entry.witness
                    )
                    != entry.true_label
                )

    def test_counts_series_monotone(self, network, dataset):
        report = NoiseToleranceAnalysis(network, search_ceiling=20).analyze(dataset)
        counts = report.misclassification_counts([5, 10, 15, 20])
        values = [counts[p] for p in (5, 10, 15, 20)]
        assert values == sorted(values)


class TestExtractionAndDownstreamAnalyses:
    def _extraction(self, network, dataset, percent=6):
        return NoiseVectorExtraction(network).extract(dataset, percent)

    def test_extraction_vectors_unique_and_valid(self, network, dataset):
        extraction = self._extraction(network, dataset)
        for entry in extraction.per_input:
            assert len(set(entry.vectors)) == len(entry.vectors)
            x = dataset.features[entry.index]
            for vector, wrong in zip(entry.vectors, entry.flipped_to):
                assert network.predict_noisy(x, vector) == wrong
                assert wrong != entry.true_label

    def test_bias_analysis_census(self, network, dataset):
        extraction = self._extraction(network, dataset)
        report = TrainingBiasAnalysis(dataset).analyze(extraction)
        assert sum(report.training_class_counts.values()) == dataset.num_samples
        assert report.total_flips == extraction.total_vectors
        text = report.describe()
        assert "census" in text.lower()

    def test_sensitivity_census_accounts_every_vector(self, network, dataset):
        extraction = self._extraction(network, dataset)
        report = InputSensitivityAnalysis(network).census(extraction)
        total = extraction.total_vectors
        for node in report.nodes:
            assert node.total == total

    def test_single_node_probe_consistency(self, network, dataset):
        runner = QueryRunner(network)
        inputs = tuple(runner.correctly_classified(dataset))
        task = ProbeTask(node=1, sign=-1, ceiling=30, inputs=inputs)
        threshold = task.run(runner)
        assert threshold is not None

        def flips(magnitude) -> bool:
            noise = [0, 0]
            noise[task.node] = task.sign * magnitude
            return any(
                network.predict_noisy(x, noise) != label for _, x, label in inputs
            )

        # At the threshold some input flips; below it none does.
        assert flips(threshold)
        assert not any(flips(m) for m in range(1, threshold))

    def test_boundary_partition_is_complete(self, network, dataset):
        tolerance = NoiseToleranceAnalysis(network, search_ceiling=55).analyze(dataset)
        boundary = BoundaryEstimation().analyze(tolerance)
        assigned = (
            len(boundary.near_boundary)
            + len(boundary.interior)
            + len(boundary.far_from_boundary)
        )
        assert assigned == len(tolerance.per_input)
