"""Tests for the frontier-batched verification plane.

The bulk prepass is the only implementation of the incomplete stages —
a single query's portfolio runs it as a frontier of one — so the scalar
engines (``IntervalVerifier``, ``CornerFalsifier``, ``RandomFalsifier``)
serve as its references.  Three layers of coverage:

1. **Bulk = scalar, bit for bit** — hypothesis property tests on random
   small networks assert that the vectorised interval pass and the
   batched falsifier passes (in bulk and through
   ``PortfolioVerifier.verify``) produce exactly the results the scalar
   reference engines do (verdict, witness, node counts), and that
   in-frontier implications are sound against exhaustive ground truth.
2. **Determinism matrix** — workers 1/4 × cache on/off/warm × monotone
   on/off must produce bit-identical tolerance reports and Fig.-4 sweeps
   on the case-study substrate; row chunking never moves a label.
3. **Satellites** — the ``_grid_chunks`` int64-overflow regression, the
   mixed-radix corner order, the engine-stats table (scheduling,
   persistence, merging) and the survivor bisection.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import NoiseConfig, RuntimeConfig, VerifierConfig
from repro.data import load_leukemia_case_study
from repro.data.dataset import Dataset
from repro.errors import BudgetExceededError
from repro.nn import train_paper_network
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork, quantize_network
from repro.runtime import EngineStats, QueryRunner, make_key
from repro.verify import (
    CornerFalsifier,
    ExhaustiveEnumerator,
    FrontierPrepass,
    FrontierProbe,
    IntervalVerifier,
    PortfolioVerifier,
    RandomFalsifier,
    ScaledQuery,
    build_query,
    interval_bulk,
    labels_for_rows,
    resolve_survivors,
)
from repro.verify.falsify import (
    corner_grid,
    corner_spans,
    draw_noise_block,
    mixed_radix_grid,
)
from repro.verify.result import VerificationResult, VerificationStatus
from repro.verify.stats import CANONICAL_INCOMPLETE

SCALE = 1000
MAX_PERCENT = 10

HARNESS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

weight = st.integers(min_value=-2500, max_value=2500)


@st.composite
def quantized_networks(draw) -> QuantizedNetwork:
    """Random 2-input, 2-output networks with one small hidden ReLU layer."""
    hidden = draw(st.integers(min_value=2, max_value=3))

    def frac_matrix(rows, cols):
        return tuple(
            tuple(Fraction(draw(weight), SCALE) for _ in range(cols))
            for _ in range(rows)
        )

    def frac_vector(size):
        return tuple(Fraction(draw(weight), SCALE) for _ in range(size))

    return QuantizedNetwork(
        [
            QuantizedLayer(frac_matrix(hidden, 2), frac_vector(hidden), relu=True),
            QuantizedLayer(frac_matrix(2, hidden), frac_vector(2), relu=False),
        ]
    )


inputs = st.tuples(
    st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=25)
)


def ladder_queries(network, x, label, ceiling):
    return [
        build_query(
            network, np.asarray(x, dtype=np.int64), label, NoiseConfig(max_percent=p)
        )
        for p in range(1, ceiling + 1)
    ]


class TestBulkIntervalEqualsScalar:
    @HARNESS
    @given(network=quantized_networks(), x=inputs, ceiling=st.integers(2, MAX_PERCENT))
    def test_bulk_pass_matches_single_queries(self, network, x, ceiling):
        label = network.predict(x)
        queries = ladder_queries(network, x, label, ceiling)
        bulk = interval_bulk(queries)
        scalar = [IntervalVerifier().verify(q) for q in queries]
        for many, one in zip(bulk, scalar):
            assert many.status == one.status
            assert many.stats == one.stats  # blocking adversary + margin

    @HARNESS
    @given(network=quantized_networks(), x=inputs, percent=st.integers(1, 6))
    def test_robust_claims_hold_exhaustively(self, network, x, percent):
        label = network.predict(x)
        query = build_query(
            network, np.asarray(x, dtype=np.int64), label, NoiseConfig(max_percent=percent)
        )
        result = interval_bulk([query])[0]
        if result.is_robust:
            ground = ExhaustiveEnumerator().verify(query)
            assert ground.is_robust

    @HARNESS
    @given(network=quantized_networks(), x=inputs, percent=st.integers(1, MAX_PERCENT))
    def test_exact_object_dtype_group_matches_int64(self, network, x, percent):
        """The unbounded-integer path must agree with the fast int64 path."""
        from dataclasses import replace as dc_replace

        from repro.verify import labels_for_rows
        from repro.verify.falsify import draw_noise_block

        label = network.predict(x)
        fast = build_query(
            network, np.asarray(x, dtype=np.int64), label, NoiseConfig(max_percent=percent)
        )
        assert not fast.exact_dtype  # tiny magnitudes: int64 by default
        exact = dc_replace(
            fast,
            weights=[w.astype(object) for w in fast.weights],
            biases=[b.astype(object) for b in fast.biases],
            exact_dtype=True,
        )
        fast_result, exact_result = interval_bulk([fast, exact])
        assert fast_result.status == exact_result.status
        assert fast_result.stats == exact_result.stats

        rng = np.random.default_rng(0)
        block = draw_noise_block(rng, fast, 16)
        fast_labels, exact_labels = labels_for_rows([(fast, block), (exact, block)])
        assert np.array_equal(fast_labels, exact_labels)

    def test_mixed_true_labels_in_one_frontier(self):
        case_study = load_leukemia_case_study()
        result = train_paper_network(case_study.train.features, case_study.train.labels)
        network = quantize_network(result.network)
        queries, scalar = [], []
        for index in range(8):
            x = np.asarray(case_study.test.features[index])
            label = int(case_study.test.labels[index])
            if network.predict(x) != label:
                continue
            for percent in (2, 9, 17):
                q = build_query(network, x, label, NoiseConfig(max_percent=percent))
                queries.append(q)
                scalar.append(IntervalVerifier().verify(q))
        bulk = interval_bulk(queries)
        assert [r.status for r in bulk] == [r.status for r in scalar]
        assert [r.stats for r in bulk] == [r.stats for r in scalar]


class TestPrepassEqualsScalarPortfolio:
    """The bulk prepass must reproduce the scalar engines bit for bit."""

    @HARNESS
    @given(
        network=quantized_networks(),
        x=inputs,
        ceiling=st.integers(2, MAX_PERCENT),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ladder_prepass_matches_per_query_stages(self, network, x, ceiling, seed):
        label = network.predict(x)
        queries = ladder_queries(network, x, label, ceiling)
        probes = [
            FrontierProbe(
                key=p, query=q, percent=p, group=(0, tuple(x), label), seed=seed
            )
            for p, q in zip(range(1, ceiling + 1), queries)
        ]
        outcome = FrontierPrepass().resolve(probes)

        interval = IntervalVerifier()
        corner = CornerFalsifier()
        portfolio = PortfolioVerifier(VerifierConfig(seed=seed))
        for percent, query in zip(range(1, ceiling + 1), queries):
            # The scalar incomplete prefix of the portfolio.
            expected = interval.verify(query)
            if not expected.is_robust:
                expected = corner.verify(query)
                if not expected.is_vulnerable:
                    expected = RandomFalsifier(seed=seed).verify(query)

            if expected.status is not VerificationStatus.UNKNOWN:
                # A single query's portfolio (a one-probe prepass) decides
                # every rung the scalar chain decides, identically.
                single = portfolio.verify(query)
                assert single.status == expected.status
                assert single.witness == expected.witness
                assert single.predicted_label == expected.predicted_label
                assert single.engine == expected.engine
                assert single.nodes_explored == expected.nodes_explored

            if percent in outcome.decided:
                got = outcome.decided[percent]
                assert got.status == expected.status
                assert got.witness == expected.witness
                assert got.predicted_label == expected.predicted_label
                assert got.engine == expected.engine
                assert got.nodes_explored == expected.nodes_explored
            elif percent in outcome.derived:
                got = outcome.derived[percent]
                # Implied by a witness at a smaller rung: sound (the
                # witness stays in range) though not the scalar witness.
                assert got.is_vulnerable
                assert expected.status is not VerificationStatus.ROBUST
                assert max(abs(v) for v in got.witness) <= percent
                assert network.predict_noisy(x, got.witness) != label
            else:
                assert percent in {p.percent for p in outcome.unknown}
                # Scalar incomplete stages failed too.
                assert expected.status is VerificationStatus.UNKNOWN

    @HARNESS
    @given(network=quantized_networks(), x=inputs, ceiling=st.integers(2, MAX_PERCENT))
    def test_runner_frontier_matches_cold_runner(self, network, x, ceiling):
        label = network.predict(x)
        frontier = QueryRunner(network)
        grid = [(0, tuple(x), label, p) for p in range(1, ceiling + 1)]
        results = frontier.verify_frontier(grid, complete=True)
        for index, xv, lab, percent in grid:
            key = make_key("verify", index, xv, lab, percent)
            query = build_query(
                network, np.asarray(xv, dtype=np.int64), lab, NoiseConfig(percent)
            )
            truth = ExhaustiveEnumerator().verify(query)
            assert results[key].status == truth.status


CEILING = 12
SWEEP = list(range(1, CEILING + 1))


@pytest.fixture(scope="module")
def substrate():
    case_study = load_leukemia_case_study()
    result = train_paper_network(case_study.train.features, case_study.train.labels)
    network = quantize_network(result.network)
    test_slice = Dataset(
        features=case_study.test.features[:10], labels=case_study.test.labels[:10]
    )
    return network, test_slice


def run_workload(network, dataset, runtime):
    """The Fig.-4 workload: P2 tolerance analysis plus the live sweep."""
    from repro.core import NoiseToleranceAnalysis

    analysis = NoiseToleranceAnalysis(network, search_ceiling=CEILING, runtime=runtime)
    report = analysis.analyze(dataset)
    sweep = analysis.sweep(dataset, SWEEP)
    flat = [
        (e.index, e.true_label, e.min_flip_percent, e.witness, e.flipped_to, e.queries)
        for e in report.per_input
    ]
    return (report.tolerance, flat, sweep), analysis.runner


class TestFrontierDeterminismMatrix:
    """workers 1/4 × cache on/off/warm × monotone on/off ⇒ identical reports."""

    @pytest.fixture(scope="class")
    def baseline(self, substrate):
        network, dataset = substrate
        outcome, _ = run_workload(network, dataset, RuntimeConfig())
        return outcome

    @pytest.mark.parametrize(
        "runtime",
        [
            RuntimeConfig(workers=4),
            RuntimeConfig(monotone=False),
            RuntimeConfig(cache=False),
        ],
        ids=["frontier-w4", "frontier-exact-cache", "frontier-no-cache"],
    )
    def test_variant_matches_default_baseline(self, substrate, baseline, runtime):
        network, dataset = substrate
        outcome, _ = run_workload(network, dataset, runtime)
        assert outcome == baseline

    def test_row_chunking_never_moves_a_label(self, substrate):
        network, dataset = substrate
        rng = np.random.default_rng(0)
        blocks = []
        for index in range(4):
            x = np.asarray(dataset.features[index])
            for percent in (3, 11):
                query = build_query(
                    network, x, int(dataset.labels[index]), NoiseConfig(percent)
                )
                blocks.append((query, draw_noise_block(rng, query, 9 + index)))
        chunked = labels_for_rows(blocks, chunk=7)  # splits blocks mid-way
        whole = labels_for_rows(blocks)
        for (query, block), small, large in zip(blocks, chunked, whole):
            assert np.array_equal(small, large)
            assert np.array_equal(small, query.labels_for_batch(block))

    def test_warm_replay_is_identical_and_solver_free(self, substrate, baseline):
        network, dataset = substrate
        cold, runner = run_workload(network, dataset, RuntimeConfig())
        assert cold == baseline
        calls = runner.stats.solver_calls
        from repro.core import NoiseToleranceAnalysis

        analysis = NoiseToleranceAnalysis(
            network, search_ceiling=CEILING, runner=runner
        )
        report = analysis.analyze(dataset)
        sweep = analysis.sweep(dataset, SWEEP)
        warm = (
            report.tolerance,
            [
                (e.index, e.true_label, e.min_flip_percent, e.witness, e.flipped_to, e.queries)
                for e in report.per_input
            ],
            sweep,
        )
        assert warm == baseline
        assert runner.stats.solver_calls == calls  # warm replay: zero engine work

    def test_probe_thresholds_match_frontier_on_off(self, substrate):
        """Bulk probe ladders ("on") vs one pure-Python exact evaluation
        per input and magnitude ("off", computed here as the reference);
        every threshold found is confirmed on the ``Fraction`` network."""
        from repro.core import InputSensitivityAnalysis

        network, dataset = substrate
        ceiling = 100  # the slice's first single-node flips sit at 62..99 %
        on = InputSensitivityAnalysis(network).probe_all_nodes(
            dataset, search_ceiling=ceiling
        )
        inputs = [
            (x, build_query(network, np.asarray(x), int(label), NoiseConfig(ceiling)))
            for x, label in zip(dataset.features, dataset.labels)
            if network.predict(x) == label
        ]
        assert any(flip is not None for pair in on.values() for flip in pair)
        for node, (positive, negative) in on.items():
            for sign, got in ((1, positive), (-1, negative)):
                expected = None
                for magnitude in range(1, ceiling + 1):
                    vector = [0] * network.num_inputs
                    vector[node] = sign * magnitude
                    flipped = [
                        x for x, query in inputs
                        if query.predict_single(vector) != query.true_label
                    ]
                    if flipped:
                        expected = magnitude
                        assert network.predict_noisy(flipped[0], vector) != (
                            network.predict(flipped[0])
                        )
                        break
                assert got == expected

    def test_extraction_matches_frontier_on_off(self, substrate):
        """``extract`` bulk-prepasses the input frontier ("on");
        ``extract_for_input`` runs each input's task alone ("off")."""
        from repro.core import NoiseVectorExtraction

        network, dataset = substrate
        percent = 28  # the slice's first flips: input 7 at ±28 %
        on = NoiseVectorExtraction(network).extract(dataset, percent)
        off = NoiseVectorExtraction(network)
        expected = []
        for index, (x, label) in enumerate(zip(dataset.features, dataset.labels)):
            if network.predict(x) != label:
                continue
            entry = off.extract_for_input(x, int(label), percent, index=index)
            expected.extend(
                (index, int(label), vector, wrong)
                for vector, wrong in zip(entry.vectors, entry.flipped_to)
            )
        assert expected
        assert sorted(on.all_vectors_with_labels()) == sorted(expected)


class TestGridChunkOverflowRegression:
    def test_budget_check_survives_int64_overflow(self):
        """A box with more than 2^63 vectors must hit the budget check.

        ``np.prod`` over int64 sizes wraps (possibly to a small or
        negative number) and used to slip past ``max_vectors``.
        """
        span = 20_001  # (2·10^4 + 1) values per node
        sizes = [span] * 5
        assert math.prod(sizes) > 2**63  # genuinely overflows int64
        wrapped = np.prod([np.int64(s) for s in sizes])
        assert wrapped != math.prod(sizes)  # the old computation lies

        weights = [np.array([[1] * 5], dtype=np.int64)]
        biases = [np.array([0], dtype=np.int64)]
        query = ScaledQuery(
            weights=weights,
            biases=biases,
            x=np.ones(5, dtype=np.int64),
            true_label=0,
            low=np.full(5, -10_000, dtype=np.int64),
            high=np.full(5, 10_000, dtype=np.int64),
            exact_dtype=False,
        )
        enumerator = ExhaustiveEnumerator(max_vectors=10**6)
        with pytest.raises(BudgetExceededError):
            enumerator.verify(query)
        # Box splitting ignores max_vectors, but ranks grid points in
        # int64: the census queries must refuse the box, not wrap.
        with pytest.raises(BudgetExceededError):
            enumerator.collect_witnesses(query)
        with pytest.raises(BudgetExceededError):
            enumerator.misclassification_census(query)

    def test_in_budget_boxes_still_enumerate(self):
        network = QuantizedNetwork(
            [
                QuantizedLayer(
                    ((Fraction(1), Fraction(-1)),), (Fraction(0),), relu=False
                ),
            ]
        )
        # Single linear output: never misclassifies (argmax over 1 label).
        query = build_query(
            network, np.array([3, 4]), 0, NoiseConfig(max_percent=2)
        )
        result = ExhaustiveEnumerator().verify(query)
        assert result.is_robust
        assert result.nodes_explored == 25


class TestDtypeAnalysisCoversPartialSums:
    def test_cancelling_weights_with_huge_inputs_stay_exact(self):
        """Sign-separated matmul halves must be covered by the dtype choice.

        Opposite weights on a huge input give *small* cancellation-aware
        interval totals (the old demotion criterion) while each half of
        the vectorised ``W⁺/W⁻`` split — and each partial sum of the
        falsifiers' forward products — would wrap int64.  The magnitude
        analysis must keep such queries on exact object integers.  The
        weights' denominators put the encoding at scale 1000, so each
        scaled weight is ±1001.
        """
        w = Fraction(1001, 1000)
        network = QuantizedNetwork(
            [
                QuantizedLayer(
                    ((w, -w), (-w, w)),
                    (Fraction(0), Fraction(0)),
                    relu=False,
                ),
            ]
        )
        x = np.array([2**52, 2**52 + 1], dtype=np.int64)
        label = network.predict(x)
        query = build_query(network, x, label, NoiseConfig(max_percent=1))
        # One weight·activation term alone exceeds int64...
        assert int(query.weights[0][0][0]) == 1001
        assert 1001 * int(x[0]) * 101 > 2**62
        # ...so the query must stay on unbounded integers.
        assert query.exact_dtype

        result = interval_bulk([query])[0]
        if result.is_robust:
            assert ExhaustiveEnumerator().verify(query).is_robust
        else:
            # UNKNOWN is always sound; the margin must be a real int,
            # not a wrapped one: recompute it exactly on the corner the
            # bound selects (diff = ±2002·x, act* within the box).
            assert isinstance(result.stats["margin"], int)
            assert not isinstance(result.stats["margin"], bool)

    def test_case_study_queries_keep_the_fast_path(self, substrate):
        network, dataset = substrate
        x = np.asarray(dataset.features[0])
        query = build_query(
            network, x, int(dataset.labels[0]), NoiseConfig(max_percent=60)
        )
        assert not query.exact_dtype  # realistic magnitudes stay int64


class TestVectorisedCornerGeneration:
    @HARNESS
    @given(
        spans=st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    def test_mixed_radix_grid_matches_itertools_product(self, spans):
        arrays = [np.array(sorted(v), dtype=np.int64) for v in spans]
        grid = mixed_radix_grid(arrays)
        expected = np.array(
            list(product(*[a.tolist() for a in arrays])), dtype=np.int64
        )
        assert grid.shape == expected.shape
        assert np.array_equal(grid, expected)

    def test_corner_grid_matches_legacy_product_order(self):
        query = ScaledQuery(
            weights=[np.array([[1, 1, 1]], dtype=np.int64)],
            biases=[np.array([0], dtype=np.int64)],
            x=np.array([1, 2, 3], dtype=np.int64),
            true_label=0,
            low=np.array([-4, -3, -5], dtype=np.int64),
            high=np.array([4, 3, 5], dtype=np.int64),
            exact_dtype=False,
        )
        legacy = np.array(
            list(product(*[v.tolist() for v in corner_spans(query)])), dtype=np.int64
        )
        assert np.array_equal(corner_grid(query), legacy)

    def test_corner_budget_skip(self):
        query = ScaledQuery(
            weights=[np.array([[1] * 8], dtype=np.int64)],
            biases=[np.array([0], dtype=np.int64)],
            x=np.ones(8, dtype=np.int64),
            true_label=0,
            low=np.full(8, -1, dtype=np.int64),
            high=np.full(8, 1, dtype=np.int64),
            exact_dtype=False,
        )
        assert corner_grid(query, max_corners=100) is None  # 3^8 > 100


def robust():
    return VerificationResult(VerificationStatus.ROBUST, engine="t")


def vulnerable(witness=(1,)):
    return VerificationResult(
        VerificationStatus.VULNERABLE, witness=witness, predicted_label=1, engine="t"
    )


class TestSurvivorBisection:
    def _probes(self, percents):
        return [
            FrontierProbe(key=p, query=None, percent=p, group="g") for p in percents
        ]

    @HARNESS
    @given(
        band=st.integers(2, 64),
        boundary=st.integers(0, 64),
    )
    def test_logarithmic_dispatch_and_sound_closure(self, band, boundary):
        """A width-``band`` band costs O(log band) complete calls."""
        boundary = min(boundary, band)  # percents > boundary are vulnerable
        calls = []

        def complete(probe):
            calls.append(probe.percent)
            return vulnerable((probe.percent,)) if probe.percent > boundary else robust()

        exact, derived = resolve_survivors(self._probes(range(1, band + 1)), complete)
        assert len(calls) <= math.ceil(math.log2(band)) + 1
        assert set(exact) | set(derived) == set(range(1, band + 1))
        for percent in range(1, band + 1):
            result = exact.get(percent) or derived.get(percent)
            assert result.is_vulnerable == (percent > boundary)

    def test_derived_vulnerable_carries_minimal_witness(self):
        def complete(probe):
            return vulnerable((probe.percent,))

        exact, derived = resolve_survivors(self._probes([3, 9, 27]), complete)
        # Bisection: 9 decides vulnerable (covers 27), then 3 decides.
        assert set(exact) == {9, 3}
        assert set(derived) == {27}
        # The implied verdict carries the *minimal* proved witness.
        assert derived[27].witness == (3,)


class TestEngineStats:
    def test_merge_folds_another_table(self):
        stats = EngineStats()
        stats.record("session", True, 0.5)
        other = EngineStats()
        other.record("session", False, 0.25)
        other.record_bulk("interval", 3, 2, 0.01)
        stats.merge(other)
        assert stats.stages["session"].attempts == 2
        assert stats.stages["session"].decided == 1
        assert stats.stages["session"].wall_s == pytest.approx(0.75)
        assert stats.stages["interval"].attempts == 3
        assert stats.complete_calls() == 2
        assert other.stages["session"].attempts == 1  # the source is untouched

    def test_describe_table_lists_stages_and_order(self):
        stats = EngineStats()
        stats.record("interval", True, 0.001)
        stats.record("exhaustive", True, 0.1)
        stats.record("random", False, 0.01)
        stats.record("corner", True, 0.01)
        table = stats.describe_table()
        rows = [line.split()[0] for line in table.splitlines()[2:]]
        assert rows == [*CANONICAL_INCOMPLETE, "exhaustive"]

    def test_wall_time_lands_in_result_stats(self, substrate):
        network, dataset = substrate
        runner = QueryRunner(network)
        x = tuple(int(v) for v in dataset.features[0])
        result = runner.verify_at(x, int(dataset.labels[0]), 3, index=0)
        assert result.stats["wall_s"] >= 0
        assert result.stats["stage"] in runner.engine_stats.stages
        assert runner.engine_stats.total_wall_s() > 0


class TestEngineStatsScope:
    def test_warm_runner_reports_only_its_own_run(self, tmp_path, substrate):
        network, dataset = substrate
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        cold = QueryRunner(network, runtime=runtime)
        x = tuple(int(v) for v in dataset.features[0])
        cold.verify_at(x, int(dataset.labels[0]), 5, index=0)
        assert cold.engine_stats.stages  # something was recorded
        cold.close()

        warm = QueryRunner(network, runtime=runtime)
        assert warm.store.loaded_entries > 0
        assert warm.engine_stats.stages == {}  # nothing rides in the store
        warm.verify_at(x, int(dataset.labels[0]), 5, index=0)
        assert warm.stats.verify_calls == 0
        assert warm.engine_stats.stages == {}  # a cache hit runs no stage
        warm.close()
