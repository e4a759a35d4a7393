"""Tests for reporting, experiment records, configs and rational helpers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis import (
    ExperimentRecord,
    fig3_state_space_series,
    format_table,
    horizontal_bar_chart,
    load_record,
    save_record,
)
from repro.config import FannetConfig, NoiseConfig, TrainConfig, VerifierConfig
from repro.errors import ConfigError, DataError
from repro.rational import (
    argmax_with_tiebreak,
    dot,
    mat_vec,
    relative_noise,
    to_fraction,
    to_fraction_vector,
    vec_add,
)


class TestTables:
    def test_basic_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [None, "x"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "—" in text  # None rendering

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_empty_headers(self):
        with pytest.raises(ValueError):
            format_table([], [])


class TestCharts:
    def test_bars_scale_to_peak(self):
        text = horizontal_bar_chart({"a": 10, "b": 5}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty_series(self):
        assert "empty" in horizontal_bar_chart({})

    def test_zero_values(self):
        text = horizontal_bar_chart({"a": 0.0})
        assert "#" not in text


class TestRecords:
    def test_round_trip(self, tmp_path):
        record = ExperimentRecord(
            experiment_id="E1",
            description="fig3",
            parameters={"noise": 1},
            measured={"states": 65, "shape_holds": True},
            expected_shape="3→65 states",
        )
        path = tmp_path / "record.json"
        save_record(record, path)
        loaded = load_record(path)
        assert loaded.experiment_id == "E1"
        assert loaded.measured["states"] == 65
        assert loaded.matches_shape() is True

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(DataError):
            load_record(path)

    def test_fig3_series(self):
        series = fig3_state_space_series((3, 6), (65, 4160))
        assert series["growth_factor_transitions"] == pytest.approx(4160 / 6)


class TestConfigs:
    def test_noise_config_values(self):
        noise = NoiseConfig(max_percent=2)
        assert noise.percent_values() == [-2, -1, 0, 1, 2]

    def test_noise_asymmetric_range(self):
        noise = NoiseConfig(max_percent=1, min_percent=0)
        assert noise.percent_values() == [0, 1]

    def test_noise_validation(self):
        with pytest.raises(ConfigError):
            NoiseConfig(max_percent=-1)
        with pytest.raises(ConfigError):
            NoiseConfig(max_percent=1, min_percent=5)

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(hidden_units=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr_phase1=0)

    def test_verifier_config_validation(self):
        with pytest.raises(ConfigError):
            VerifierConfig(node_budget=0)

    def test_fannet_config_to_dict(self):
        payload = FannetConfig().to_dict()
        assert payload["train"]["epochs_phase1"] == 40
        assert payload["noise"]["max_percent"] == 40


class TestRational:
    def test_to_fraction_conversions(self):
        assert to_fraction(3) == Fraction(3)
        assert to_fraction("2/5") == Fraction(2, 5)
        assert to_fraction(0.5) == Fraction(1, 2)
        assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
        with pytest.raises(TypeError):
            to_fraction(True)
        with pytest.raises(TypeError):
            to_fraction(object())

    def test_float_snapping(self):
        assert to_fraction(0.1) == Fraction(1, 10)

    def test_linear_algebra(self):
        a = to_fraction_vector([1, 2])
        b = to_fraction_vector([3, 4])
        assert dot(a, b) == Fraction(11)
        assert vec_add(a, b) == [Fraction(4), Fraction(6)]
        assert mat_vec([a, b], to_fraction_vector([1, 1])) == [
            Fraction(3),
            Fraction(7),
        ]
        with pytest.raises(ValueError):
            dot(a, to_fraction_vector([1]))

    def test_argmax_tiebreak(self):
        assert argmax_with_tiebreak(to_fraction_vector([1, 1])) == 0
        assert argmax_with_tiebreak(to_fraction_vector([1, 2])) == 1
        with pytest.raises(ValueError):
            argmax_with_tiebreak([])

    def test_relative_noise_exact(self):
        assert relative_noise(Fraction(50), 11) == Fraction(50 * 111, 100)
        assert relative_noise(Fraction(50), -11) == Fraction(50 * 89, 100)
