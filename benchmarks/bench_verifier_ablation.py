"""E8 — verification-engine ablation on the case-study query.

Runs every engine on the same (input, noise-range) queries:
interval (sound/incomplete), falsifiers (complete for SAT only),
exhaustive enumeration (exact), SMT phase splitting (exact) and the
portfolio.  Complete engines must agree; the bench records their
relative cost — the trade-off the paper's §III-B discusses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NoiseConfig
from repro.verify import (
    CornerFalsifier,
    ExhaustiveEnumerator,
    IntervalVerifier,
    PortfolioVerifier,
    RandomFalsifier,
    SmtVerifier,
    VerificationStatus,
    build_query,
)

ENGINES = {
    "interval": IntervalVerifier,
    "corner": CornerFalsifier,
    "random": RandomFalsifier,
    "exhaustive": ExhaustiveEnumerator,
    "smt": SmtVerifier,
    "portfolio": PortfolioVerifier,
}


@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_robust_query_engines(benchmark, quantized, case_study, engine_name):
    """A clearly-robust query (±2 % on a stable input)."""
    x = np.asarray(case_study.test.features[0])
    label = int(case_study.test.labels[0])
    query = build_query(quantized, x, label, NoiseConfig(max_percent=2))
    engine = ENGINES[engine_name]()

    result = benchmark(lambda: engine.verify(query))
    if engine_name in ("interval", "exhaustive", "smt", "portfolio"):
        assert result.status is VerificationStatus.ROBUST
    else:
        assert result.status is not VerificationStatus.ROBUST  # falsifiers abstain


@pytest.mark.parametrize("engine_name", ["corner", "random", "smt", "portfolio"])
def test_vulnerable_query_engines(
    benchmark, quantized, case_study, vulnerable_input, engine_name
):
    """A clearly-vulnerable query (min-flip + 6 on the weakest input)."""
    index, x, label, min_flip = vulnerable_input
    query = build_query(quantized, x, label, NoiseConfig(max_percent=min_flip + 6))
    engine = ENGINES[engine_name]()

    result = benchmark(lambda: engine.verify(query))
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
