"""Tests for the data substrate: generator, mRMR, preprocessing."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FannetConfig
from repro.data import (
    CLASS_NAMES,
    Dataset,
    GolubConfig,
    LABEL_ALL,
    LABEL_AML,
    discretize_three_level,
    generate_golub_like,
    load_leukemia_case_study,
    mrmr_select,
    mutual_information,
    scale_to_integers,
    select_columns,
)
from repro.errors import ConfigError, DataError


class TestDataset:
    def test_class_counts_and_share(self):
        data = Dataset(np.zeros((4, 2)), np.array([0, 1, 1, 1]))
        assert data.class_counts() == {0: 1, 1: 3}
        assert data.class_share(1) == pytest.approx(0.75)

    def test_shape_validation(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(DataError):
            Dataset(np.zeros(3), np.array([0, 1, 0]))

    def test_subset(self):
        data = Dataset(np.arange(8).reshape(4, 2), np.array([0, 1, 0, 1]))
        sub = data.subset([2, 0])
        assert sub.features.tolist() == [[4, 5], [0, 1]]


class TestGolubGenerator:
    def test_published_shape(self):
        split = generate_golub_like()
        assert split.train.num_samples == 38
        assert split.test.num_samples == 34
        assert split.train.num_features == 7129
        assert split.train.class_counts() == {LABEL_AML: 11, LABEL_ALL: 27}
        assert split.test.class_counts() == {LABEL_AML: 14, LABEL_ALL: 20}

    def test_majority_share_near_seventy_percent(self):
        split = generate_golub_like()
        assert split.train.class_share(LABEL_ALL) == pytest.approx(27 / 38)

    def test_deterministic_given_seed(self):
        a = generate_golub_like(GolubConfig(seed=5, num_genes=50, num_informative=10))
        b = generate_golub_like(GolubConfig(seed=5, num_genes=50, num_informative=10))
        assert (a.train.features == b.train.features).all()

    def test_integer_intensities_above_floor(self):
        split = generate_golub_like(
            GolubConfig(num_genes=100, seed=1, num_informative=20)
        )
        assert split.train.features.dtype == np.int64
        assert split.train.features.min() >= 20

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GolubConfig(num_genes=0)
        with pytest.raises(ConfigError):
            GolubConfig(num_informative=0)
        with pytest.raises(ConfigError):
            GolubConfig(effect_low=2.0, effect_high=1.0)

    def test_class_names(self):
        assert "AML" in CLASS_NAMES[LABEL_AML]
        assert "ALL" in CLASS_NAMES[LABEL_ALL]


class TestMutualInformation:
    def test_identical_vectors_have_entropy_mi(self):
        a = np.array([0, 0, 1, 1])
        assert mutual_information(a, a) == pytest.approx(1.0)  # 1 bit

    def test_independent_vectors_have_zero_mi(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert mutual_information(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 2, size=50)
        assert mutual_information(a, b) == pytest.approx(mutual_information(b, a))

    def test_validation(self):
        for a in (np.array([1, 2]), np.array([[1, 0], [2, 0]])):  # 1-D and matrix form
            with pytest.raises(DataError):  # row-count mismatch
                mutual_information(a, np.array([1]))
            with pytest.raises(DataError):  # 2-D b
                mutual_information(a, np.array([[1], [2]]))
            with pytest.raises(DataError):  # empty input
                mutual_information(a[:0], np.array([], dtype=int))
            with pytest.raises(DataError):  # 3-D a
                mutual_information(a.reshape(2, -1, 1), np.array([1, 2]))
        with pytest.raises(DataError):  # no columns
            mutual_information(np.zeros((2, 0)), np.array([1, 2]))

    def test_matrix_form_scores_every_column(self):
        b = np.array([0, 0, 1, 1])
        a = np.array([[0, 0, 7], [0, 1, 7], [1, 0, 7], [1, 1, 7]])
        assert mutual_information(a, b).tolist() == [1.0, 0.0, 0.0]
        assert isinstance(mutual_information(a[:, 0], b), float)


@st.composite
def discretised_problems(draw):
    """A 3-level matrix and a 2- or 3-class vector ``b`` with equal rows.

    Columns are drawn to stress the contingency table: constant columns,
    columns missing a level, duplicates of earlier columns (exact ties
    for mRMR) and free columns.
    """
    n = draw(st.integers(2, 24))
    classes = draw(st.sampled_from([2, 3]))
    b = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    columns: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "constant", "missing-level", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append(np.full(n, draw(st.integers(0, 2))))
        else:
            values = [0, 2] if kind == "missing-level" else [0, 1, 2]
            drawn = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
            columns.append(np.array(drawn))
    return np.stack(columns, axis=1).astype(np.int8), b


def oracle_mutual_information(a, b) -> float:
    """I(a; b) in bits from pure-Python counts, independent of numpy."""
    a, b = a.tolist(), b.tolist()
    n = len(a)
    count_a, count_b = Counter(a), Counter(b)
    return sum(
        c / n * math.log2(c * n / (count_a[x] * count_b[y]))
        for (x, y), c in Counter(zip(a, b)).items()
    )


def loop_mrmr_select(levels, labels, k, scheme):
    """Incremental mRMR as a plain loop over 1-D ``mutual_information`` calls.

    ``max`` returns the first of equal scores, so ties break toward the
    lower column.
    """
    m = levels.shape[1]
    relevance = [mutual_information(levels[:, j], labels) for j in range(m)]
    selected = [max(range(m), key=lambda j: relevance[j])]
    rows: list[list[float]] = []
    while len(selected) < k:
        last = selected[-1]
        rows.append([mutual_information(levels[:, j], levels[:, last]) for j in range(m)])

        def score(j):
            mean = sum(row[j] for row in rows) / len(rows)
            if scheme == "mid":
                return relevance[j] - mean
            return relevance[j] / (mean + 1e-12)

        selected.append(max((j for j in range(m) if j not in selected), key=score))
    return selected


class TestMutualInformationProperties:
    @settings(max_examples=150, deadline=None)
    @given(discretised_problems())
    def test_matrix_call_equals_column_calls_bit_for_bit(self, problem):
        levels, b = problem
        columns = [mutual_information(levels[:, j], b) for j in range(levels.shape[1])]
        assert mutual_information(levels, b).tobytes() == np.array(columns).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(discretised_problems())
    def test_matches_pure_python_oracle(self, problem):
        levels, b = problem
        values = mutual_information(levels, b)
        for j in range(levels.shape[1]):
            assert abs(values[j] - oracle_mutual_information(levels[:, j], b)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(discretised_problems(), st.sampled_from(["mid", "miq"]), st.data())
    def test_mrmr_equals_loop_reference(self, problem, scheme, data):
        levels, labels = problem
        k = data.draw(st.integers(1, levels.shape[1]))
        assert mrmr_select(levels, labels, k, scheme) == loop_mrmr_select(
            levels, labels, k, scheme
        )


class TestMrmr:
    def test_informative_feature_found_first(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=60)
        noise = rng.integers(0, 3, size=(60, 10))
        informative = labels.reshape(-1, 1)  # column 10 = the label itself
        levels = np.hstack([noise, informative])
        selected = mrmr_select(levels, labels, k=3)
        assert selected[0] == 10

    def test_redundancy_penalised(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=120)
        strong = (labels ^ (rng.random(120) < 0.1)).astype(int)  # strong feature
        duplicate = strong.copy()  # perfectly redundant copy of it
        weak = (labels ^ (rng.random(120) < 0.35)).astype(int)  # weak but fresh
        levels = np.stack([strong, duplicate, weak], axis=1)
        selected = mrmr_select(levels, labels, k=2, scheme="mid")
        # The redundant duplicate must lose to the weaker-but-new column.
        assert selected == [0, 2]

    def test_schemes_and_validation(self):
        levels = np.array([[0, 1], [1, 0], [0, 1], [1, 1]])
        labels = np.array([0, 1, 0, 1])
        assert len(mrmr_select(levels, labels, k=2, scheme="miq")) == 2
        with pytest.raises(DataError):
            mrmr_select(levels, labels, k=3)
        with pytest.raises(DataError):
            mrmr_select(levels, labels, k=1, scheme="bogus")


class TestPreprocess:
    def test_discretize_three_levels(self):
        column = np.array([[0.0], [0.0], [0.0], [100.0], [-100.0]])
        levels = discretize_three_level(column, k=0.5)
        assert set(levels.ravel().tolist()) == {0, 1, 2}

    def test_discretize_constant_column(self):
        levels = discretize_three_level(np.ones((5, 1)))
        assert (levels == 1).all()

    def test_select_columns_validation(self):
        with pytest.raises(DataError):
            select_columns(np.zeros((3, 2)), [5])

    def test_scale_to_integers_range(self):
        train = np.array([[0.0, 100.0], [50.0, 200.0], [100.0, 300.0]])
        scaler, scaled = scale_to_integers(train, scale=50)
        assert scaled.min() >= 1 and scaled.max() <= 50
        assert scaled[0, 0] == 1 and scaled[2, 0] == 50

    def test_scaler_clips_unseen_values(self):
        train = np.array([[0.0], [10.0]])
        scaler, _ = scale_to_integers(train, scale=10)
        assert scaler.transform(np.array([[99.0]]))[0, 0] == 10
        assert scaler.transform(np.array([[-99.0]]))[0, 0] == 1


class TestCaseStudyLoader:
    def test_end_to_end_shapes(self):
        case_study = load_leukemia_case_study(
            FannetConfig(num_features=5),
            golub_config=GolubConfig(num_genes=400, seed=32),
        )
        assert case_study.train.num_features == 5
        assert len(case_study.selected_genes) == 5
        assert case_study.train.features.min() >= 1
        assert case_study.train.features.max() <= 50

    @pytest.mark.parametrize(
        "scheme, genes",
        [("mid", [1868, 1996, 891, 1773, 532]), ("miq", [1868, 9, 3801, 4430, 4218])],
    )
    def test_default_case_study_genes(self, scheme, genes):
        """The default case study's five genes, pinned: a drift in mRMR's
        arithmetic or tie-break changes them."""
        assert load_leukemia_case_study(mrmr_scheme=scheme).selected_genes == genes

    def test_no_test_leakage_in_selection(self):
        """Feature selection must depend on training data only."""
        base = GolubConfig(num_genes=300, seed=9)
        case_a = load_leukemia_case_study(golub_config=base)
        # Same training data, different test seed (regenerate + swap test).
        case_b = load_leukemia_case_study(golub_config=base)
        assert case_a.selected_genes == case_b.selected_genes
