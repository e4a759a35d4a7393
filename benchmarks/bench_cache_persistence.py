"""E9 — persistent + monotone query cache: warm-from-disk and implied verdicts.

Two hardware-independent claims, asserted (timings printed for context):

1. **Warm-from-disk** — a fresh process-equivalent runner pointed at a
   populated ``cache_dir`` reproduces the tolerance report bit for bit
   with *zero* solver calls.
2. **Monotone reuse** — on a workload with percent overlap (a search at
   ±30 %, a re-search at ±20 % and a Fig.-4 live sweep), the cache —
   exact hits plus verdicts implied along the percent axis —
   issues strictly fewer solver calls than a cache-off run, with
   bit-identical reports, and answers some lookups by derivation.
"""

from __future__ import annotations

import time

from repro.config import RuntimeConfig
from repro.core import NoiseToleranceAnalysis

CEILING = 30
RESEARCH_CEILING = 20
SWEEP = list(range(1, CEILING + 1))


def _flat(report):
    return [
        (e.index, e.min_flip_percent, e.witness, e.flipped_to)
        for e in report.per_input
    ]


def _overlap_workload(analysis, dataset):
    """A search at the full ceiling, a re-search at a lower one, then a
    live Fig.-4 sweep — three passes over the same percent axis with
    different query sets."""
    analysis.search_ceiling = CEILING
    full = analysis.analyze(dataset)
    analysis.search_ceiling = RESEARCH_CEILING
    lower = analysis.analyze(dataset)
    analysis.search_ceiling = CEILING
    sweep = analysis.sweep(dataset, SWEEP)
    return full, lower, sweep


def test_warm_from_disk_zero_solver_calls(benchmark, quantized, case_study, tmp_path):
    runtime = RuntimeConfig(cache_dir=str(tmp_path / "qcache"))

    cold = NoiseToleranceAnalysis(quantized, search_ceiling=CEILING, runtime=runtime)
    start = time.perf_counter()
    cold_report = cold.analyze(case_study.test)
    cold.runner.close()  # spill to disk
    cold_time = time.perf_counter() - start
    cold_calls = cold.runner.stats.solver_calls

    warm = NoiseToleranceAnalysis(quantized, search_ceiling=CEILING, runtime=runtime)
    warm_report = benchmark.pedantic(
        lambda: warm.analyze(case_study.test), rounds=1, iterations=1
    )

    print(
        f"\ncold-to-disk {cold_time:.2f}s ({cold_calls} solver calls, "
        f"{cold.runner.store.saved_entries} entries persisted); warm-from-disk "
        f"loaded {warm.runner.store.loaded_entries} entries"
    )
    print("warm " + warm.runner.cache.stats.describe())

    assert cold_calls > 0
    assert warm.runner.stats.solver_calls == 0  # everything came from the file
    assert _flat(warm_report) == _flat(cold_report)  # bit-identical


def test_monotone_reuse_beats_no_cache(benchmark, quantized, case_study):
    uncached = NoiseToleranceAnalysis(
        quantized, search_ceiling=CEILING, runtime=RuntimeConfig(cache=False)
    )
    start = time.perf_counter()
    uncached_results = _overlap_workload(uncached, case_study.test)
    uncached_time = time.perf_counter() - start

    monotone = NoiseToleranceAnalysis(quantized, search_ceiling=CEILING)
    start = time.perf_counter()
    monotone_results = benchmark.pedantic(
        lambda: _overlap_workload(monotone, case_study.test), rounds=1, iterations=1
    )
    monotone_time = time.perf_counter() - start

    uncached_calls = uncached.runner.stats.solver_calls
    monotone_calls = monotone.runner.stats.solver_calls
    print(
        f"\nno cache: {uncached_calls} solver calls in {uncached_time:.2f}s; "
        f"monotone cache: {monotone_calls} solver calls in {monotone_time:.2f}s "
        f"({1 - monotone_calls / uncached_calls:.0%} fewer)"
    )
    print("monotone " + monotone.runner.cache.stats.describe())

    # Bit-identical outcomes on every pass of the workload...
    assert _flat(monotone_results[0]) == _flat(uncached_results[0])
    assert _flat(monotone_results[1]) == _flat(uncached_results[1])
    assert monotone_results[2] == uncached_results[2]
    # ...for strictly fewer solver calls.
    assert monotone_calls < uncached_calls
    assert monotone.runner.cache.stats.derived_hits > 0
