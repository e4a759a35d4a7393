"""E8 — verification-engine ablation on the case-study query.

Runs every engine on the same (input, noise-range) queries: interval
(sound/incomplete), exhaustive enumeration (exact), SMT phase splitting
(exact) and the production path, a cache-off ``QueryRunner.verify_at``
(bulk prepass, then the portfolio's complete stage).  Complete engines
must agree; the bench records their relative cost — the trade-off the
paper's §III-B discusses.
"""

from __future__ import annotations

import pytest

from repro.config import NoiseConfig, RuntimeConfig
from repro.runtime import QueryRunner
from repro.verify import (
    ExhaustiveEnumerator,
    SmtVerifier,
    VerificationStatus,
    build_query,
    interval_bulk,
)

ENGINES = ("interval", "exhaustive", "smt", "portfolio")


def make_engine(name: str, quantized):
    """``verify(query, x, label, percent)`` for one engine arm."""
    if name == "interval":
        return lambda query, *_: interval_bulk([query])[0]
    if name == "portfolio":
        runner = QueryRunner(quantized, runtime=RuntimeConfig(cache=False))
        return lambda _, x, label, percent: runner.verify_at(x, label, percent)
    engine = {"exhaustive": ExhaustiveEnumerator, "smt": SmtVerifier}[name]()
    return lambda query, *_: engine.verify(query)


@pytest.mark.parametrize("engine_name", ENGINES)
def test_robust_query_engines(benchmark, quantized, case_study, engine_name):
    """A clearly-robust query (±2 % on a stable input)."""
    x = case_study.test.features[0]
    label = int(case_study.test.labels[0])
    query = build_query(quantized, x, label, NoiseConfig(max_percent=2))
    verify = make_engine(engine_name, quantized)

    result = benchmark(lambda: verify(query, x, label, 2))
    assert result.status is VerificationStatus.ROBUST


@pytest.mark.parametrize("engine_name", ["smt", "portfolio"])
def test_vulnerable_query_engines(
    benchmark, quantized, case_study, vulnerable_input, engine_name
):
    """A clearly-vulnerable query (min-flip + 6 on the weakest input)."""
    index, x, label, min_flip = vulnerable_input
    percent = min_flip + 6
    query = build_query(quantized, x, label, NoiseConfig(max_percent=percent))
    verify = make_engine(engine_name, quantized)

    result = benchmark(lambda: verify(query, x, label, percent))
    assert result.status is VerificationStatus.VULNERABLE
    assert query.misclassified(result.witness)


def test_complete_engines_agree_across_ranges(
    benchmark, quantized, case_study, vulnerable_input
):
    """SMT vs exhaustive across the robust/vulnerable crossover."""
    index, x, label, min_flip = vulnerable_input

    def sweep():
        agreements = []
        for percent in (min_flip - 1, min_flip, min_flip + 2):
            query = build_query(quantized, x, label, NoiseConfig(max_percent=percent))
            smt = SmtVerifier().verify(query)
            truth = ExhaustiveEnumerator().verify(query)
            agreements.append(
                (percent, smt.status.value, truth.status.value)
            )
            assert smt.status == truth.status
        return agreements

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\ncrossover agreement (P, smt, exhaustive):", rows)
    # The crossover itself: robust below min_flip, vulnerable at/above.
    assert rows[0][1] == "robust"
    assert rows[1][1] == "vulnerable"
