"""E9 — adversarial noise-vector extraction throughput (the P3 loop).

P3 has one extraction path: the exact census (interval-pruned box
splitting, which evaluates only the sub-boxes it cannot prove).  One arm
times it against the flat grid walk it replaced, which evaluates every
grid point, and requires identical vectors and labels in identical
order.  Another runs it with ``limit=10``, which must return the first
ten vectors of the unlimited run while evaluating fewer leaf points.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.config import NoiseConfig, RuntimeConfig
from repro.core import NoiseVectorExtraction
from repro.verify import ExhaustiveEnumerator, NoiseVectorCollector, build_query


def test_exhaustive_extraction(benchmark, quantized, case_study, vulnerable_input):
    index, x, label, min_flip = vulnerable_input
    query = build_query(quantized, x, label, NoiseConfig(max_percent=min_flip + 1))

    vectors = benchmark(lambda: ExhaustiveEnumerator().collect_witnesses(query))
    print(f"\n{len(vectors)} unique NVs at ±{min_flip + 1}% for test[{index}]")
    assert vectors
    assert len(set(vectors)) == len(vectors)


def flat_grid_witnesses(query):
    """Every grid point evaluated, in grid order: the walk box splitting replaced."""
    pairs = []
    for block in ExhaustiveEnumerator()._grid_chunks(query):
        labels = query.labels_for_batch(block)
        wrong = np.nonzero(labels != query.true_label)[0]
        pairs.extend(zip(map(tuple, block[wrong].tolist()), labels[wrong].tolist()))
    return pairs


def test_split_matches_flat_grid(quantized, vulnerable_input):
    """Box splitting against the flat walk on the most susceptible input."""
    index, x, label, min_flip = vulnerable_input
    query = build_query(quantized, x, label, NoiseConfig(max_percent=min_flip + 1))

    start = time.perf_counter()
    flat = flat_grid_witnesses(query)
    flat_time = time.perf_counter() - start
    enumerator = ExhaustiveEnumerator()
    start = time.perf_counter()
    split = enumerator.collect_witnesses(query)
    split_time = time.perf_counter() - start

    size = query.noise_space_size()
    print(
        f"\ntest[{index}] at ±{min_flip + 1}%: {len(split)} NVs of {size} points; "
        f"flat walk {flat_time:.3f}s, split {split_time:.3f}s "
        f"({enumerator.boxes} boxes, {enumerator.leaf_points} leaf points evaluated)"
    )
    assert split == flat
    assert enumerator.leaf_points < size


def test_limited_extraction(benchmark, quantized, vulnerable_input):
    """P3 with ``limit=10``: the split stops once the first ten are known."""
    index, x, label, min_flip = vulnerable_input
    query = build_query(quantized, x, label, NoiseConfig(max_percent=min_flip + 1))
    unlimited = ExhaustiveEnumerator()
    full = unlimited.collect_witnesses(query)
    limited = ExhaustiveEnumerator()

    def collect_ten():
        return limited.collect_witnesses(query, limit=10)

    result = benchmark.pedantic(collect_ten, rounds=1, iterations=1)
    print(
        f"\nlimit=10: {limited.leaf_points} leaf points evaluated, "
        f"against {unlimited.leaf_points} for all {len(full)} NVs"
    )
    assert result == full[:10]
    assert limited.leaf_points < unlimited.leaf_points
    collected = NoiseVectorCollector().collect(query, limit=10)
    assert list(zip(collected.vectors, collected.labels)) == full[:10]
    assert not collected.exhausted


def _census(report):
    return sorted(report.all_vectors_with_labels())


def test_extraction_runtime_variants(benchmark, quantized, case_study, tolerance_report):
    """Dataset-wide P3 through the runtime: serial/parallel, cold/warm.

    Warm-cache extraction must issue strictly fewer (zero) collector
    runs than cold while reproducing the census exactly; the parallel
    path must reproduce it too, and beat serial when cores allow.
    """
    percent = (tolerance_report.tolerance or 6) + 1

    serial = NoiseVectorExtraction(quantized)
    start = time.perf_counter()
    serial_report = serial.extract(case_study.test, percent)
    serial_time = time.perf_counter() - start
    cold_calls = serial.runner.stats.extract_calls

    start = time.perf_counter()
    warm_report = serial.extract(case_study.test, percent)
    warm_time = time.perf_counter() - start
    warm_calls = serial.runner.stats.extract_calls - cold_calls

    parallel = NoiseVectorExtraction(quantized, runtime=RuntimeConfig(workers=4))
    start = time.perf_counter()
    parallel_report = benchmark.pedantic(
        lambda: parallel.extract(case_study.test, percent), rounds=1, iterations=1
    )
    parallel_time = time.perf_counter() - start

    cores = os.cpu_count() or 1
    print(
        f"\n±{percent}%: serial cold {serial_time:.2f}s ({cold_calls} collector runs), "
        f"warm {warm_time:.3f}s ({warm_calls} runs), "
        f"parallel x4 {parallel_time:.2f}s on {cores} cores"
    )

    assert _census(serial_report) == _census(warm_report) == _census(parallel_report)
    assert serial_report.total_vectors > 0
    assert cold_calls > 0
    assert warm_calls < cold_calls
    assert warm_calls == 0
    if cores >= 4:
        assert parallel_time < serial_time, (
            f"parallel ({parallel_time:.2f}s) should beat serial "
            f"({serial_time:.2f}s) on {cores} cores"
        )
    else:
        print(f"(speed-up assertion skipped: only {cores} core(s) available)")
