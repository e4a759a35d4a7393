"""Determinism regression: the runtime must not change any result.

The full case-study pipeline (``run_case_study`` = training +
``Fannet.analyze``; training is runtime-independent, so the analysis is
what is exercised) must produce bit-identical reports for

- ``workers=1`` vs ``workers=4`` (process-pool fan-out), and
- cache-on vs cache-off runs.

This is the contract that makes the parallel path a pure scheduling
change: stochastic engines seed from ``(seed, input index)``, never from
shared global state, so neither worker count nor memoisation can move a
single number in the report.

Runs on a 12-sample slice of the test set with a fixed extraction range
to keep the three full-pipeline passes affordable.
"""

from __future__ import annotations

import pytest

from repro.config import FannetConfig, RuntimeConfig
from repro.core import Fannet
from repro.data import load_leukemia_case_study
from repro.data.dataset import Dataset
from repro.nn import train_paper_network

SEARCH_CEILING = 20
EXTRACTION_PERCENT = 8
PROBE_CEILING = 15


@pytest.fixture(scope="module")
def substrate():
    case_study = load_leukemia_case_study()
    result = train_paper_network(case_study.train.features, case_study.train.labels)
    test_slice = Dataset(
        features=case_study.test.features[:12], labels=case_study.test.labels[:12]
    )
    return case_study, test_slice, result


def run_pipeline(substrate, runtime: RuntimeConfig):
    case_study, test_slice, result = substrate
    fannet = Fannet(
        result.network,
        case_study.train,
        test_slice,
        FannetConfig(runtime=runtime),
    )
    report = fannet.analyze(
        search_ceiling=SEARCH_CEILING, extraction_percent=EXTRACTION_PERCENT
    )
    return fannet, report


def canonical(report) -> dict:
    """Everything the report asserts, as comparable plain data."""
    return {
        "accuracy": (report.train_accuracy, report.test_accuracy),
        "tolerance": report.tolerance.tolerance,
        "per_input": [
            (e.index, e.true_label, e.min_flip_percent, e.witness, e.flipped_to)
            for e in report.tolerance.per_input
        ],
        "extraction_percent": report.extraction_percent,
        "extraction": sorted(report.extraction.all_vectors_with_labels()),
        "exhausted": [e.exhausted for e in report.extraction.per_input],
        "bias": report.bias.describe(),
        "sensitivity": report.sensitivity.describe(),
        "boundary": report.boundary.describe(),
    }


@pytest.fixture(scope="module")
def baseline(substrate):
    fannet, report = run_pipeline(substrate, RuntimeConfig(workers=1, cache=True))
    return fannet, canonical(report)


class TestWorkerCountInvariance:
    def test_workers_4_matches_workers_1(self, substrate, baseline):
        _, expected = baseline
        fannet, report = run_pipeline(substrate, RuntimeConfig(workers=4, cache=True))
        assert canonical(report) == expected
        assert fannet.runner.stats.parallel_batches >= 1  # the pool really ran

    def test_probe_thresholds_match_across_worker_counts(self, substrate):
        case_study, test_slice, result = substrate
        serial_fannet, _ = (
            Fannet(result.network, case_study.train, test_slice),
            None,
        )
        serial = serial_fannet._sensitivity_analysis.probe_all_nodes(
            test_slice, search_ceiling=PROBE_CEILING
        )
        parallel_fannet = Fannet(
            result.network,
            case_study.train,
            test_slice,
            FannetConfig(runtime=RuntimeConfig(workers=2)),
        )
        parallel = parallel_fannet._sensitivity_analysis.probe_all_nodes(
            test_slice, search_ceiling=PROBE_CEILING
        )
        assert serial == parallel


class TestCacheInvariance:
    def test_cache_off_matches_cache_on(self, substrate, baseline):
        _, expected = baseline
        fannet, report = run_pipeline(substrate, RuntimeConfig(workers=1, cache=False))
        assert canonical(report) == expected
        assert len(fannet.runner.cache) == 0  # nothing was memoised

    def test_warm_rerun_matches_and_solves_nothing(self, substrate, baseline):
        fannet, expected = baseline
        before = fannet.runner.stats.solver_calls
        report = fannet.analyze(
            search_ceiling=SEARCH_CEILING, extraction_percent=EXTRACTION_PERCENT
        )
        assert canonical(report) == expected
        assert fannet.runner.stats.solver_calls == before
