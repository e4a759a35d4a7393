"""Unit tests for the analysis runtime: cache, fingerprints, runner.

Covers the cache contract the analyses rely on — hit/miss accounting,
fingerprint-based invalidation, warm-cache zero-solver-call replays —
plus the per-input seed derivation and the process-pool fan-out.
"""

from __future__ import annotations

from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from repro.config import NoiseConfig, RuntimeConfig, VerifierConfig
from repro.errors import ConfigError, VerificationError
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.runtime import (
    MISS,
    CacheStats,
    ExtractionTask,
    MonotoneCache,
    QueryCache,
    QueryRunner,
    ToleranceSearchTask,
    derive_seed,
    make_key,
    network_fingerprint,
    runtime_context,
    verifier_fingerprint,
)
from repro.verify.result import VerificationResult, VerificationStatus
from repro.verify import PortfolioVerifier, build_query

SCALE = 1000


def make_network(weight_rows_1, bias_1, weight_rows_2, bias_2) -> QuantizedNetwork:
    def frac_matrix(rows):
        return tuple(tuple(Fraction(v, SCALE) for v in row) for row in rows)

    def frac_vector(values):
        return tuple(Fraction(v, SCALE) for v in values)

    return QuantizedNetwork(
        [
            QuantizedLayer(frac_matrix(weight_rows_1), frac_vector(bias_1), relu=True),
            QuantizedLayer(frac_matrix(weight_rows_2), frac_vector(bias_2), relu=False),
        ]
    )


@pytest.fixture
def network():
    return make_network(
        [[1500, -500], [-800, 1200], [400, 400]],
        [100, -200, 0],
        [[1000, -300, 500], [-700, 900, 200]],
        [50, -50],
    )


@pytest.fixture
def x(network):
    return (10, 20)


@pytest.fixture
def label(network, x):
    return network.predict(x)


class TestQueryCache:
    def test_hit_and_miss_accounting(self):
        cache = QueryCache()
        key = make_key("verify", 0, (1, 2), 0, 5)
        assert cache.get(key) is MISS
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_does_not_touch_stats(self):
        cache = QueryCache()
        key = make_key("verify", 0, (1,), 0, 5)
        assert cache.peek(key) is MISS
        cache.put(key, "value")
        assert cache.peek(key) == "value"
        assert cache.stats.lookups == 0

    def test_disabled_cache_stores_nothing(self):
        cache = QueryCache(enabled=False)
        key = make_key("verify", 0, (1,), 0, 5)
        cache.put(key, "value")
        assert cache.get(key) is MISS
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_none_payload_is_a_hit_not_a_miss(self):
        """Regression: a legitimately-None payload must not read as a miss."""
        cache = QueryCache()
        key = make_key("probe", 0, (1, 2), 0, 5, extra=(0, 1))
        cache.put(key, None)
        assert cache.get(key) is None  # the cached payload, not a miss
        assert cache.get(key) is not MISS
        assert cache.peek(key) is None and cache.peek(key) is not MISS
        assert cache.stats.hits == 1 + 1  # peek never counts; both gets hit
        assert cache.stats.misses == 0

    def test_miss_sentinel_is_falsy_and_unique(self):
        assert not MISS
        assert MISS is not None
        cache = MonotoneCache()
        cache.put(make_key("probe", 0, (1,), 0, 5, extra=(0, 1)), None)
        # The monotone fact indexer must skip non-bool probe payloads.
        assert cache.get(make_key("probe", 0, (1,), 0, 9, extra=(0, 1))) is MISS

    def test_rebinding_same_context_keeps_entries(self):
        cache = QueryCache()
        cache.bind("ctx-a")
        cache.put(make_key("verify", 0, (1,), 0, 5), "value")
        cache.bind("ctx-a")
        assert len(cache) == 1
        assert cache.stats.invalidations == 0

    def test_context_change_invalidates(self):
        cache = QueryCache()
        cache.bind("ctx-a")
        cache.put(make_key("verify", 0, (1,), 0, 5), "value")
        cache.bind("ctx-b")
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_entries_for_input_filters_by_index_and_values(self):
        cache = QueryCache()
        key_a = make_key("verify", 0, (1, 2), 0, 5)
        key_b = make_key("verify", 1, (3, 4), 0, 5)
        cache.put(key_a, "a")
        cache.put(key_b, "b")
        assert cache.entries_for_input(0, (1, 2)) == {key_a: "a"}
        assert cache.entries_for_input(0, (9, 9)) == {}

    def test_stats_merge_folds_every_counter(self):
        """Regression: merge() used to drop stores/preloads/invalidations."""
        parent = CacheStats(hits=1, derived_hits=2, misses=3, stores=4, preloads=5, invalidations=0)
        worker = CacheStats(hits=10, derived_hits=20, misses=30, stores=40, preloads=50, invalidations=1)
        parent.merge(worker)
        assert parent == CacheStats(
            hits=11, derived_hits=22, misses=33, stores=44, preloads=55, invalidations=1
        )

    def test_adopt_journals_without_counting_stores(self):
        for cache in (QueryCache(), MonotoneCache()):
            existing = make_key("verify", 0, (1, 2), 0, 5)
            cache.put(existing, "parent")
            cache.added.clear()  # as after a flush
            shipped = make_key("verify", 1, (1, 2), 0, 9)
            cache.adopt({existing: "worker", shipped: robust()})
            assert cache.stats.stores == 1  # only the original put
            assert cache.peek(existing) == "parent"  # present keys kept
            assert cache.peek(shipped).is_robust
            assert list(cache.added) == [shipped]  # journalled for flush
            assert shipped in cache.entries_for_input(1, (1, 2))
        # The monotone flavour indexes adopted facts for derivation.
        assert cache.get(make_key("verify", 1, (1, 2), 0, 3)).is_robust

    def test_entries_for_input_mixes_empty_and_nonempty_extras(self):
        """Keys with extra=() and extra=(...) for one input coexist."""
        for cache in (QueryCache(), MonotoneCache()):
            verify_key = make_key("verify", 2, (5, 6), 1, 10)  # extra ()
            extract_key = make_key("extract", 2, (5, 6), 1, 10, extra=(None, 100))
            probe_key = make_key("probe", 2, (5, 6), 1, 10, extra=(0, -1))
            cache.put(verify_key, "verdict")
            cache.put(extract_key, "vectors")
            cache.put(probe_key, True)
            bucket = cache.entries_for_input(2, (5, 6))
            assert set(bucket) == {verify_key, extract_key, probe_key}
            assert cache.entries_for_input(2, (5, 6), kinds=("verify",)) == {
                verify_key: "verdict"
            }
            assert set(
                cache.entries_for_input(2, (5, 6), kinds=("extract", "probe"))
            ) == {extract_key, probe_key}


def robust(engine="test"):
    return VerificationResult(status=VerificationStatus.ROBUST, engine=engine)


def vulnerable(witness=(3, -3), label=1, engine="test"):
    return VerificationResult(
        status=VerificationStatus.VULNERABLE,
        witness=witness,
        predicted_label=label,
        engine=engine,
    )


class TestMonotoneCache:
    def test_robust_verdict_covers_smaller_percents(self):
        cache = MonotoneCache()
        cache.put(make_key("verify", 0, (1, 2), 0, 12), robust())
        derived = cache.get(make_key("verify", 0, (1, 2), 0, 7))
        assert derived is not MISS and derived.is_robust
        assert "monotone" in derived.engine
        # Not covered above the proved percent.
        assert cache.get(make_key("verify", 0, (1, 2), 0, 13)) is MISS

    def test_vulnerable_verdict_covers_larger_percents_with_witness(self):
        cache = MonotoneCache()
        cache.put(make_key("verify", 0, (1, 2), 0, 9), vulnerable(witness=(4, -9)))
        derived = cache.get(make_key("verify", 0, (1, 2), 0, 30))
        assert derived is not MISS and derived.is_vulnerable
        assert derived.witness == (4, -9)  # valid in the larger box too
        assert derived.predicted_label == 1
        assert cache.get(make_key("verify", 0, (1, 2), 0, 8)) is MISS

    def test_strongest_fact_wins(self):
        cache = MonotoneCache()
        cache.put(make_key("verify", 0, (1,), 0, 5), robust())
        cache.put(make_key("verify", 0, (1,), 0, 8), robust())
        cache.put(make_key("verify", 0, (1,), 0, 20), vulnerable())
        cache.put(make_key("verify", 0, (1,), 0, 15), vulnerable(witness=(15,)))
        assert cache.get(make_key("verify", 0, (1,), 0, 8)).is_robust  # exact
        assert cache.get(make_key("verify", 0, (1,), 0, 6)).is_robust  # derived
        derived = cache.get(make_key("verify", 0, (1,), 0, 40))
        assert derived.witness == (15,)  # from the *minimal* vulnerable entry
        assert cache.get(make_key("verify", 0, (1,), 0, 12)) is MISS  # gap

    def test_no_derivation_across_groups(self):
        """Different input, label, index or extra never share facts."""
        cache = MonotoneCache()
        cache.put(make_key("verify", 0, (1, 2), 0, 12), robust())
        for other in (
            make_key("verify", 1, (1, 2), 0, 5),  # different index
            make_key("verify", 0, (9, 9), 0, 5),  # different values
            make_key("verify", 0, (1, 2), 1, 5),  # different label
            make_key("verify", 0, (1, 2), 0, 5, extra=("x",)),  # different extra
            make_key("extract", 0, (1, 2), 0, 5),  # different kind
        ):
            assert cache.get(other) is MISS

    def test_probe_flip_thresholds_derive_both_ways(self):
        cache = MonotoneCache()
        cache.put(make_key("probe", 0, (1,), 0, 10, extra=(2, 1)), True)
        cache.put(make_key("probe", 0, (1,), 0, 4, extra=(2, 1)), False)
        assert cache.get(make_key("probe", 0, (1,), 0, 15, extra=(2, 1))) is True
        assert cache.get(make_key("probe", 0, (1,), 0, 2, extra=(2, 1))) is False
        assert cache.get(make_key("probe", 0, (1,), 0, 7, extra=(2, 1))) is MISS
        # Opposite sign is a different group.
        assert cache.get(make_key("probe", 0, (1,), 0, 15, extra=(2, -1))) is MISS

    def test_derived_hits_counted_separately(self):
        cache = MonotoneCache()
        key = make_key("verify", 0, (1,), 0, 10)
        cache.put(key, robust())
        assert cache.get(key).is_robust  # exact
        assert cache.get(make_key("verify", 0, (1,), 0, 3)).is_robust  # derived
        assert cache.get(make_key("verify", 0, (1,), 0, 99)) is MISS  # miss
        assert (cache.stats.hits, cache.stats.derived_hits, cache.stats.misses) == (
            1,
            1,
            1,
        )
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert "derived" in cache.stats.describe()

    def test_derived_answers_are_never_materialised(self):
        cache = MonotoneCache()
        cache.put(make_key("verify", 0, (1, 2), 0, 12), robust())
        assert cache.get(make_key("verify", 0, (1, 2), 0, 7)).is_robust
        assert len(cache) == 1  # still only the proved entry
        assert make_key("verify", 0, (1, 2), 0, 7) not in cache
        # Warm-entry harvesting ships only the proved fact.
        assert list(cache.entries_for_input(0, (1, 2))) == [
            make_key("verify", 0, (1, 2), 0, 12)
        ]

    def test_preload_rebuilds_monotone_facts(self):
        source = MonotoneCache()
        source.put(make_key("verify", 0, (1,), 0, 10), robust())
        source.put(make_key("probe", 0, (1,), 0, 6, extra=(0, 1)), True)
        target = MonotoneCache()
        target.preload(source.snapshot())
        assert target.get(make_key("verify", 0, (1,), 0, 4)).is_robust
        assert target.get(make_key("probe", 0, (1,), 0, 9, extra=(0, 1))) is True
        assert target.stats.derived_hits == 2

    def test_context_invalidation_drops_monotone_facts(self):
        cache = MonotoneCache()
        cache.bind("ctx-a")
        cache.put(make_key("verify", 0, (1,), 0, 10), robust())
        cache.bind("ctx-b")
        assert cache.get(make_key("verify", 0, (1,), 0, 4)) is MISS
        assert cache.stats.invalidations == 1

    def test_disabled_monotone_cache_never_derives(self):
        cache = MonotoneCache(enabled=False)
        cache.put(make_key("verify", 0, (1,), 0, 10), robust())
        assert cache.get(make_key("verify", 0, (1,), 0, 4)) is MISS
        assert cache.stats.derived_hits == 0


class TestFingerprints:
    def test_network_fingerprint_changes_with_weights(self, network):
        other = make_network(
            [[1501, -500], [-800, 1200], [400, 400]],
            [100, -200, 0],
            [[1000, -300, 500], [-700, 900, 200]],
            [50, -50],
        )
        assert network_fingerprint(network) != network_fingerprint(other)
        assert network_fingerprint(network) == network_fingerprint(network)

    def test_verifier_fingerprint_changes_with_any_field(self):
        base = VerifierConfig()
        assert verifier_fingerprint(base) == verifier_fingerprint(VerifierConfig())
        for field in fields(VerifierConfig):
            change = replace(base, **{field.name: getattr(base, field.name) + 1})
            assert verifier_fingerprint(base) != verifier_fingerprint(change)

    def test_derive_seed_is_stable_and_spread(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        seeds = {derive_seed(7, index) for index in range(-1, 40)}
        assert len(seeds) == 41  # no collisions across indices
        assert derive_seed(7, 3) != derive_seed(8, 3)


class TestRunnerCaching:
    def test_repeated_query_issues_zero_new_solver_calls(self, network, x, label):
        runner = QueryRunner(network)
        first = runner.verify_at(x, label, 5)
        again = runner.verify_at(x, label, 5)
        assert runner.stats.verify_calls == 1
        assert first is again

    def test_cache_off_always_reaches_the_solver(self, network, x, label):
        runner = QueryRunner(network, runtime=RuntimeConfig(cache=False))
        runner.verify_at(x, label, 5)
        runner.verify_at(x, label, 5)
        assert runner.stats.verify_calls == 2

    def test_verifier_config_change_invalidates_shared_cache(self, network, x, label):
        cache = QueryCache()
        runner = QueryRunner(network, VerifierConfig(seed=0), cache=cache)
        runner.verify_at(x, label, 5)
        assert len(cache) == 1
        # Same network, different budget: every entry must be dropped.
        QueryRunner(network, VerifierConfig(seed=0, node_budget=123), cache=cache)
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_network_change_invalidates_shared_cache(self, network, x, label):
        other = make_network(
            [[1501, -500], [-800, 1200], [400, 400]],
            [100, -200, 0],
            [[1000, -300, 500], [-700, 900, 200]],
            [50, -50],
        )
        cache = QueryCache()
        QueryRunner(network, cache=cache).verify_at(x, label, 5)
        assert len(cache) == 1
        QueryRunner(other, cache=cache)
        assert len(cache) == 0

    def test_robust_verdict_short_circuits_extraction(self, network, x, label):
        runner = QueryRunner(network)
        result = runner.verify_at(x, label, 1)
        assert result.is_robust
        outcome = runner.collect_at(x, label, 1, limit=None)
        assert outcome == {"vectors": [], "flipped_to": [], "exhausted": True}
        assert runner.stats.extract_calls == 0  # no collector run happened

    def test_extraction_is_memoised(self, network, x, label):
        runner = QueryRunner(network)
        first = runner.collect_at(x, label, 20, limit=None)
        second = runner.collect_at(x, label, 20, limit=None)
        assert runner.stats.extract_calls == 1
        assert first is second
        assert first["vectors"]  # ±20 % flips this input

    @pytest.mark.parametrize("relabel", ["next", "true"])
    def test_extraction_audits_every_label(self, network, x, label, relabel, monkeypatch):
        """collect_at re-evaluates each extracted vector exactly and refuses
        a label the enumerator got wrong."""
        from repro.verify import ExhaustiveEnumerator

        honest = ExhaustiveEnumerator.collect_witnesses

        def mislabelled(self, query, limit=None):
            pairs = honest(self, query, limit)
            vector, wrong = pairs[-1]
            pairs[-1] = (vector, wrong + 1 if relabel == "next" else query.true_label)
            return pairs

        monkeypatch.setattr(ExhaustiveEnumerator, "collect_witnesses", mislabelled)
        with pytest.raises(VerificationError, match="exact evaluation disagrees"):
            QueryRunner(network).collect_at(x, label, 20, limit=None)

    def test_probe_checks_are_memoised(self, network, x, label):
        runner = QueryRunner(network)
        first = runner.flips_single_node(x, label, node=0, sign=1, percent=10)
        second = runner.flips_single_node(x, label, node=0, sign=1, percent=10)
        assert first == second
        assert runner.stats.probe_evals == 1

    def test_unlimited_extraction_above_the_old_cutoff_is_complete(self):
        """No hidden cap: ±12 % on five inputs is 9.8 M points, where
        extraction used to stop at 1,000 vectors.

        With d = p0 - p1 + p2 - p3 + p4, output 0 is 10 + d/10 and output 1
        is 10.1 minus that, so label 1 wins exactly when d <= -50: C(15, 5)
        = 3003 vectors (shift each coordinate to ±p + 12 in [0, 24]; their
        sum must be at most 10).
        """
        signs = (1, -1, 1, -1, 1)
        network = QuantizedNetwork(
            [
                QuantizedLayer(
                    (
                        tuple(Fraction(s) for s in signs),
                        tuple(Fraction(-s) for s in signs),
                    ),
                    (Fraction(0), Fraction(101, 10)),
                    relu=False,
                )
            ]
        )
        x = (10,) * 5
        assert network.predict(x) == 0
        outcome = QueryRunner(network).collect_at(x, 0, 12, limit=None)
        assert outcome["exhausted"]
        assert len(outcome["vectors"]) == len(set(outcome["vectors"])) == 3003
        assert outcome["flipped_to"] == [1] * 3003

    def test_cache_off_search_runs_no_ladder_prepass(
        self, network, x, label, monkeypatch
    ):
        """With the cache off a ladder prepass's verdicts would be dropped
        and re-derived by every probe: each engine call is one probe."""
        runner = QueryRunner(network, runtime=RuntimeConfig(cache=False))
        probes = []
        verify_at = runner.verify_at

        def counted(*args, **kwargs):
            probes.append(args)
            return verify_at(*args, **kwargs)

        monkeypatch.setattr(runner, "verify_at", counted)
        task = ToleranceSearchTask(index=0, x=x, true_label=label, ceiling=40)
        report = task.run(runner)
        assert probes
        assert runner.stats.verify_calls == len(probes)
        assert runner.stats.frontier_queries == 0
        cached = QueryRunner(network)
        assert task.run(cached) == report

    def test_cache_off_extraction_prepass_is_skipped(self, network, x, label):
        runner = QueryRunner(network, runtime=RuntimeConfig(cache=False))
        assert runner.verify_frontier([(0, x, label, 20)], complete=False) == {}
        assert runner.stats.verify_calls == 0
        assert runner.stats.frontier_queries == 0
        assert runner.engine_stats.stages == {}

    def test_duplicate_frontier_probes_are_resolved_once(self, network, x, label):
        runner = QueryRunner(network)
        results = runner.verify_frontier([(0, x, label, 10)] * 3)
        assert len(results) == 1
        assert next(iter(results.values())).engine == "corner-falsifier"
        assert runner.stats.frontier_queries == 1
        assert runner.stats.frontier_decided == 1
        assert runner.engine_stats.stages["corner"].attempts == 1

    def test_verify_result_matches_direct_portfolio(self, network, x, label):
        runner = QueryRunner(network, VerifierConfig())
        query = build_query(network, np.array(x), label, NoiseConfig(max_percent=8))
        direct = PortfolioVerifier(VerifierConfig()).verify(query)
        via_runner = runner.verify_at(x, label, 8)
        assert via_runner.status == direct.status


class TestSharedEncoding:
    def test_each_weight_is_scaled_once_per_runner(self, network, x, label, monkeypatch):
        from repro.verify import encoder

        scaled = []
        real = encoder._as_scaled_int

        def counting(value, scale):
            scaled.append(value)
            return real(value, scale)

        monkeypatch.setattr(encoder, "_as_scaled_int", counting)
        runner = QueryRunner(network)
        runner.prepass_ladder(x, label, range(1, 31), index=0)
        runner.verify_at(x, label, 7, index=0)
        runner.verify_frontier([(1, x, label, p) for p in (3, 9, 15, 40)])
        runner.collect_at(x, label, 20, limit=None, index=0)
        runner.probe_ladder([(0, x, label)], node=0, sign=1, ceiling=30)
        runner.flips_single_node(x, label, node=1, sign=-1, percent=40, index=0)
        assert runner.stats.frontier_queries and runner.stats.extract_calls
        assert runner.stats.probe_evals == 1
        weights = [w for layer in network.layers for row in layer.weights for w in row]
        assert scaled == weights

    def test_correctly_classified_excludes_a_misclassified_input(self, network, x, label):
        from repro.data.dataset import Dataset

        other = (20, 10)
        wrong = 1 - network.predict(other)
        dataset = Dataset(np.array([x, other, x]), np.array([label, wrong, label]))
        runner = QueryRunner(network)
        assert runner.correctly_classified(dataset) == [(0, x, label), (2, x, label)]


class TestRunnerMonotoneReuse:
    def test_implied_verdicts_skip_the_solver(self, network, x, label):
        runner = QueryRunner(network)
        assert isinstance(runner.cache, MonotoneCache)  # the default
        first = runner.verify_at(x, label, 20)
        assert first.is_vulnerable
        wider = runner.verify_at(x, label, 30)  # implied by vulnerable@20
        robust_small = runner.verify_at(x, label, 3)
        tighter = runner.verify_at(x, label, 1)  # implied by robust@3
        assert runner.stats.verify_calls == 2
        assert wider.is_vulnerable and tighter.is_robust
        assert runner.cache.stats.derived_hits == 2
        assert robust_small.is_robust

    def test_derived_verdict_matches_cold_solver(self, network, x, label):
        runner = QueryRunner(network)
        runner.verify_at(x, label, 20)
        derived = runner.verify_at(x, label, 26)
        cold = QueryRunner(
            network, runtime=RuntimeConfig(cache=False)
        ).verify_at(x, label, 26)
        assert derived.status == cold.status
        # The derived witness is a genuine counterexample for ±26.
        assert max(abs(v) for v in derived.witness) <= 26
        assert network.predict_noisy(x, derived.witness) != label

    def test_monotone_off_reverts_to_exact_key_reuse(self, network, x, label):
        runner = QueryRunner(network, runtime=RuntimeConfig(monotone=False))
        assert type(runner.cache) is QueryCache
        runner.verify_at(x, label, 20)
        runner.verify_at(x, label, 30)  # exact-key cache must re-solve
        assert runner.stats.verify_calls == 2
        assert runner.cache.stats.derived_hits == 0

    def test_implied_robust_short_circuits_extraction(self, network, x, label):
        runner = QueryRunner(network)
        assert runner.verify_at(x, label, 3).is_robust
        # No exact verify entry at ±2, but robust@3 implies the box is clean.
        outcome = runner.collect_at(x, label, 2, limit=None)
        assert outcome == {"vectors": [], "flipped_to": [], "exhausted": True}
        assert runner.stats.extract_calls == 0

    def test_probe_thresholds_derive_through_the_runner(self, network, x, label):
        runner = QueryRunner(network)
        flipped = runner.flips_single_node(x, label, node=0, sign=1, percent=40)
        evals = runner.stats.probe_evals
        if flipped:
            assert runner.flips_single_node(x, label, node=0, sign=1, percent=50)
        else:
            assert not runner.flips_single_node(x, label, node=0, sign=1, percent=30)
        assert runner.stats.probe_evals == evals  # answered by derivation
        assert runner.cache.stats.derived_hits >= 1

    def test_sweep_after_analyze_issues_zero_solver_calls(self, network):
        from repro.core import NoiseToleranceAnalysis
        from repro.data.dataset import Dataset

        features = [[10, 20], [14, 9], [7, 31]]
        labels = [network.predict(f) for f in features]
        dataset = Dataset(features=features, labels=labels)
        analysis = NoiseToleranceAnalysis(network, search_ceiling=16)
        analysis.analyze(dataset)
        calls = analysis.runner.stats.solver_calls
        sweep = analysis.sweep(dataset, percents=list(range(1, 17)))
        assert analysis.runner.stats.solver_calls == calls  # all implied
        # Vulnerability is monotone in the percent across the sweep.
        counts = [len(sweep[p]) for p in range(1, 17)]
        assert counts == sorted(counts)

    def test_parallel_workers_share_monotone_facts(self, network, x, label):
        runner = QueryRunner(network, runtime=RuntimeConfig(workers=2))
        tasks = [
            ToleranceSearchTask(
                index=index, x=x, true_label=label, ceiling=12, schedule="binary"
            )
            for index in range(2)
        ]
        serial = QueryRunner(network)
        assert runner.run_tasks(tasks) == serial.run_tasks(
            [
                ToleranceSearchTask(
                    index=index, x=x, true_label=label, ceiling=12, schedule="binary"
                )
                for index in range(2)
            ]
        )
        # The paper-schedule replay over the same runner consumes implied
        # verdicts: vulnerable@P answers every percent above it.
        before = runner.stats.solver_calls
        replay = [
            ToleranceSearchTask(
                index=index, x=x, true_label=label, ceiling=30, schedule="paper"
            )
            for index in range(2)
        ]
        outcomes = runner.run_tasks(replay)
        assert [o["min_flip_percent"] for o in outcomes] == [
            o["min_flip_percent"]
            for o in serial.run_tasks(
                [
                    ToleranceSearchTask(
                        index=index, x=x, true_label=label, ceiling=30, schedule="paper"
                    )
                    for index in range(2)
                ]
            )
        ]
        assert runner.stats.solver_calls - before < serial.stats.solver_calls


class TestRunnerPersistence:
    def test_cold_then_warm_from_disk(self, tmp_path, network, x, label):
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        cold = QueryRunner(network, runtime=runtime)
        cold.verify_at(x, label, 10)
        cold.collect_at(x, label, 10, limit=5)
        cold.close()
        assert cold.store.saved_entries == 2
        assert list(tmp_path.glob("*.qcache"))

        warm = QueryRunner(network, runtime=runtime)
        assert warm.store.loaded_entries == 2
        first = warm.verify_at(x, label, 10)
        again = warm.collect_at(x, label, 10, limit=5)
        assert warm.stats.verify_calls == 0 and warm.stats.solver_calls == 0
        assert first.status == cold.verify_at(x, label, 10).status
        assert again == cold.collect_at(x, label, 10, limit=5)

    def test_warm_replay_does_not_rewrite_the_file(self, tmp_path, network, x, label):
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        cold = QueryRunner(network, runtime=runtime)
        cold.verify_at(x, label, 10)
        cold.close()
        path = next(tmp_path.glob("*.qcache"))
        stamp = (path.stat().st_mtime_ns, path.read_bytes())
        warm = QueryRunner(network, runtime=runtime)
        warm.verify_at(x, label, 10)
        warm.close()  # nothing new → no write
        assert (path.stat().st_mtime_ns, path.read_bytes()) == stamp

    def test_no_persist_ignores_the_cache_dir(self, tmp_path, network, x, label):
        QueryRunner(
            network, runtime=RuntimeConfig(cache_dir=str(tmp_path))
        ).verify_at(x, label, 10)
        runtime = RuntimeConfig(cache_dir=str(tmp_path), persist=False)
        runner = QueryRunner(network, runtime=runtime)
        assert runner.store is None
        runner.verify_at(x, label, 10)
        assert runner.stats.verify_calls == 1  # cold: the file was not read
        runner.close()

    def test_cache_disabled_disables_persistence(self, tmp_path, network, x, label):
        runtime = RuntimeConfig(cache=False, cache_dir=str(tmp_path))
        runner = QueryRunner(network, runtime=runtime)
        assert runner.store is None
        runner.verify_at(x, label, 10)
        runner.close()
        assert not list(tmp_path.glob("*.qcache"))

    def test_flush_ignores_stats_accrued_during_a_warm_replay(
        self, tmp_path, network, x, label
    ):
        """Stage statistics are a per-run report: a replay that adds no
        cache entry rewrites nothing, whatever its table recorded."""
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        cold = QueryRunner(network, runtime=runtime)
        cold.verify_at(x, label, 10)
        cold.close()
        path = next(tmp_path.glob("*.qcache"))
        stamp = (path.stat().st_mtime_ns, path.read_bytes())

        warm = QueryRunner(network, runtime=runtime)
        warm.verify_at(x, label, 10)  # pure cache hit: nothing added
        assert not warm.cache.added
        warm.engine_stats.record("interval", decided=False, wall_s=0.5)
        warm.close()
        assert (path.stat().st_mtime_ns, path.read_bytes()) == stamp

        reloaded = QueryRunner(network, runtime=runtime)
        assert reloaded.engine_stats.stages == {}
        reloaded.close()

    def test_config_change_keys_a_different_file(self, tmp_path, network, x, label):
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        first = QueryRunner(network, VerifierConfig(seed=0), runtime=runtime)
        first.verify_at(x, label, 10)
        first.close()
        other = QueryRunner(network, VerifierConfig(seed=1), runtime=runtime)
        assert other.store.loaded_entries == 0  # different context, cold start
        other.verify_at(x, label, 10)
        other.close()
        assert len(list(tmp_path.glob("*.qcache"))) == 2


class TestRunnerFanOut:
    def _tasks(self, network, x, label, ceiling=12):
        return [
            ToleranceSearchTask(
                index=index, x=x, true_label=label, ceiling=ceiling, schedule="binary"
            )
            for index in range(3)
        ] + [
            ExtractionTask(
                index=3,
                x=x,
                true_label=label,
                percent=10,
                limit=5,
            )
        ]

    def test_parallel_matches_serial(self, network, x, label):
        serial = QueryRunner(network)
        parallel = QueryRunner(network, runtime=RuntimeConfig(workers=2))
        tasks = self._tasks(network, x, label)
        assert serial.run_tasks(tasks) == parallel.run_tasks(
            self._tasks(network, x, label)
        )
        assert parallel.stats.parallel_batches == 1

    def test_parallel_cache_stats_match_serial(self, network, x, label):
        """Regression: merge() dropped worker stores, so the CLI cache
        report undercounted stores on every parallel run."""
        serial = QueryRunner(network)
        serial.run_tasks(self._tasks(network, x, label))
        parallel = QueryRunner(network, runtime=RuntimeConfig(workers=2))
        parallel.run_tasks(self._tasks(network, x, label))
        assert parallel.stats.parallel_batches == 1  # the pool really ran
        assert parallel.cache.stats == serial.cache.stats
        assert parallel.cache.stats.stores == len(serial.cache)
        # A warm second batch ships warm dicts to the workers; their
        # transport preload must not read as logical cache activity.
        serial.run_tasks(self._tasks(network, x, label))
        parallel.run_tasks(self._tasks(network, x, label))
        assert parallel.cache.stats == serial.cache.stats
        assert parallel.cache.stats.preloads == 0

    def test_pooled_tasks_drop_their_warm_dicts(self, network, x, label):
        """Regression: _run_pooled left the shipped warm entry maps
        attached to the task objects after the batch."""
        runner = QueryRunner(network, runtime=RuntimeConfig(workers=2))
        tasks = self._tasks(network, x, label)
        runner.run_tasks(tasks)  # cold batch fills the parent cache
        runner.run_tasks(tasks)  # warm batch ships non-empty warm dicts
        assert runner.stats.parallel_batches == 2
        assert all(task.warm == {} for task in tasks)

    def test_parallel_run_fills_parent_cache(self, network, x, label):
        runner = QueryRunner(network, runtime=RuntimeConfig(workers=2))
        runner.run_tasks(self._tasks(network, x, label))
        assert len(runner.cache) > 0
        # A warm re-run performs no new solver work anywhere.
        before = runner.stats.solver_calls
        runner.run_tasks(self._tasks(network, x, label))
        assert runner.stats.solver_calls == before

    def test_single_task_runs_inline(self, network, x, label):
        runner = QueryRunner(network, runtime=RuntimeConfig(workers=4))
        task = ToleranceSearchTask(
            index=0, x=x, true_label=label, ceiling=6, schedule="paper"
        )
        runner.run_tasks([task])
        assert runner.stats.parallel_batches == 0  # pool skipped for one task

    def test_pool_is_reused_across_batches(self, network, x, label):
        runner = QueryRunner(network, runtime=RuntimeConfig(workers=2))
        runner.run_tasks(self._tasks(network, x, label))
        pool = runner._pool
        assert pool is not None
        runner.run_tasks(self._tasks(network, x, label, ceiling=14))
        assert runner._pool is pool  # same executor, no respawn
        runner.close()
        assert runner._pool is None

    def test_injected_runner_config_wins(self, network):
        from repro.core import NoiseVectorExtraction

        runner = QueryRunner(network, VerifierConfig(seed=3))
        extraction = NoiseVectorExtraction(
            network, config=VerifierConfig(seed=9), runner=runner
        )
        assert extraction.config is runner.config  # single source of truth


class TestRuntimeConfig:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(workers=0)

    def test_defaults(self):
        config = RuntimeConfig()
        assert config.workers == 1
        assert config.cache is True
