"""Integration test: the paper's §V case study end to end.

Asserts the reproduction targets recorded in EXPERIMENTS.md:

- E6: 100 % training accuracy, 94.12 % (32/34) test accuracy;
- E2: noise tolerance in the single-digit-to-low-teens band (paper ±11 %,
  ours ±7 % — the shape claim is "a tolerance exists and is small");
- E4: every counterexample flips minority → majority (paper: all L0→L1);
- E5: at least one node is one-sided (paper: i5 has no positive-noise
  counterexamples);
- E3: several inputs robust beyond ±50 % (boundary spread);
- E1: Fig.-3 state counts through the real SMV/FSM path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FannetConfig, NoiseConfig
from repro.core import (
    Fannet,
    NoiseVectorExtraction,
    TrainingBiasAnalysis,
    InputSensitivityAnalysis,
    dataset_fsm_module,
)
from repro.core.translate import noise_model_state_counts
from repro.data import LABEL_ALL, LABEL_AML, load_leukemia_case_study
from repro.fsm import TransitionSystem, count_states_and_transitions
from repro.nn import quantize_network, train_paper_network


@pytest.fixture(scope="module")
def trained():
    case_study = load_leukemia_case_study()
    result = train_paper_network(case_study.train.features, case_study.train.labels)
    return case_study, result


@pytest.fixture(scope="module")
def fannet(trained):
    case_study, result = trained
    return Fannet(result.network, case_study.train, case_study.test)


@pytest.fixture(scope="module")
def tolerance_report(fannet):
    return fannet.noise_tolerance(search_ceiling=60)


class TestE6Accuracies:
    def test_train_accuracy_is_perfect(self, trained):
        _, result = trained
        assert result.train_accuracy == 1.0

    def test_test_accuracy_matches_paper(self, trained):
        case_study, result = trained
        predictions = result.network.predict(
            np.asarray(case_study.test.features, dtype=float)
        )
        correct = int((predictions == case_study.test.labels).sum())
        assert correct == 32  # 32/34 = 94.12 %, the paper's number

    def test_quantization_preserves_every_prediction(self, trained, fannet):
        case_study, result = trained
        for x in case_study.test.features:
            assert fannet.quantized.predict(x) == int(
                result.network.predict(np.asarray(x, dtype=float))
            )


class TestP1Validation:
    def test_translation_validates(self, fannet):
        assert fannet.validate() is True

    def test_non_decimal_weight_scale_runs_end_to_end(self, trained):
        """A quantisation scale whose denominators do not divide 1000:
        the encoding reads its scale off the network, so P1 validates and
        the P2 search agrees with the exact rational network."""
        case_study, result = trained
        fannet = Fannet(
            result.network,
            case_study.train,
            case_study.test,
            FannetConfig(weight_scale=1024),
        )
        assert fannet.runner.encoding.weight_scale == 1024
        assert fannet.validate() is True
        report = fannet.noise_tolerance(search_ceiling=12)
        correct = [
            index
            for index, (x, label) in enumerate(
                zip(case_study.test.features, case_study.test.labels)
            )
            if fannet.quantized.predict(x) == label
        ]
        assert [entry.index for entry in report.per_input] == correct
        assert any(entry.min_flip_percent is not None for entry in report.per_input)
        for entry in report.per_input:
            if entry.min_flip_percent is None:
                continue
            x = case_study.test.features[entry.index]
            assert max(abs(v) for v in entry.witness) <= entry.min_flip_percent
            flipped = fannet.quantized.predict_noisy(x, entry.witness)
            assert flipped == entry.flipped_to != entry.true_label


class TestE2NoiseTolerance:
    def test_tolerance_in_paper_band(self, tolerance_report):
        # Paper: ±11 %.  Substrate differences (synthetic data) shift the
        # constant; the claim is a small single-to-low-double-digit band.
        assert tolerance_report.tolerance is not None
        assert 3 <= tolerance_report.tolerance <= 20

    def test_no_counterexample_at_tolerance(self, fannet, tolerance_report):
        from repro.verify import ExhaustiveEnumerator, build_query

        case_study_features = fannet.test_set.features
        tolerance = tolerance_report.tolerance
        enumerator = ExhaustiveEnumerator()
        for entry in tolerance_report.per_input[:6]:  # spot-check subset
            query = build_query(
                fannet.quantized,
                np.asarray(case_study_features[entry.index]),
                entry.true_label,
                NoiseConfig(max_percent=tolerance),
            )
            assert enumerator.verify(query).is_robust

    def test_misclassification_count_grows_with_range(self, tolerance_report):
        counts = tolerance_report.misclassification_counts([10, 20, 30, 40])
        values = [counts[p] for p in (10, 20, 30, 40)]
        assert values == sorted(values)
        assert values[-1] > 0


class TestE4TrainingBias:
    @pytest.fixture(scope="class")
    def extraction(self, fannet, tolerance_report):
        percent = (tolerance_report.tolerance or 6) + 1
        return NoiseVectorExtraction(fannet.quantized).extract(
            fannet.test_set, percent
        )

    def test_all_flips_go_to_majority_class(self, fannet, extraction):
        report = TrainingBiasAnalysis(fannet.train_set).analyze(extraction)
        assert report.training_majority_label == LABEL_ALL
        assert report.training_majority_share == pytest.approx(27 / 38)
        assert report.total_flips > 0
        # The paper's headline: *all* misclassifications are L0 -> L1.
        assert report.majority_flip_share == 1.0
        assert report.bias_confirmed

    def test_flip_sources_are_minority_class(self, extraction):
        for entry in extraction.vulnerable_inputs():
            assert entry.true_label == LABEL_AML


class TestE5InputSensitivity:
    def test_at_least_one_one_sided_node(self, fannet, tolerance_report):
        percent = (tolerance_report.tolerance or 6) + 1
        extraction = NoiseVectorExtraction(fannet.quantized).extract(
            fannet.test_set, percent
        )
        report = InputSensitivityAnalysis(fannet.quantized).census(extraction)
        assert report.one_sided_nodes()  # paper: i5 is one-sided


class TestE3Boundary:
    def test_wide_spread_with_robust_inputs(self, fannet, tolerance_report):
        boundary = fannet.boundary(tolerance_report)
        # Paper: some inputs flip easily, others survive ±50 %.
        assert boundary.far_from_boundary
        assert boundary.near_boundary or boundary.interior
        profile_values = [
            v for v in boundary.profile.values() if v is not None
        ]
        assert max(profile_values) - min(profile_values) >= 10


class TestE1StateSpace:
    def test_fig3b_counts(self, fannet):
        module = dataset_fsm_module(fannet.quantized, fannet.test_set.features)
        assert count_states_and_transitions(TransitionSystem(module)) == (3, 6)

    def test_fig3c_counts(self, fannet):
        x = np.asarray(fannet.test_set.features[0])
        label = int(fannet.test_set.labels[0])
        counts = noise_model_state_counts(
            fannet.quantized,
            x,
            label,
            NoiseConfig(min_percent=0, max_percent=1),
            noisy_bias_node=True,
        )
        assert counts == (65, 4160)
