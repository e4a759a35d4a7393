"""E-frontier — bulk prepass + bisected dispatch vs per-query portfolio.

The claim under test: on the Fig.-4 tolerance workload (the live
misclassification sweep over every ``(input, percent)`` grid point), the
frontier-batched plane issues **≥ 5× fewer complete-engine invocations**
than the per-query portfolio — one ``QueryRunner.verify_at`` per grid
point on a fresh runner (monotone cache on, as in production) — the
vectorised incomplete passes decide
the cheap mass in bulk, and each input's boundary band is dispatched
along a monotone bisection (``O(log w)`` complete calls instead of
``w``) — at a measurable wall-clock win, with bit-identical results.

Two substrates:

- the **paper's 5-20-2 network**: its boundary band is *empty* — the
  interval pass and the corner falsifier decide 100 % of the grid, so
  neither path ever invokes a complete engine (asserted; the frontier's
  win here is wall-clock only);
- a **deeper 5-12-12-2 case-study variant** (same data, same trainer,
  seeded) whose compounded interval looseness opens a real boundary
  band: the complete-call ratio is measured there.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import NoiseToleranceAnalysis
from repro.nn import Network, SgdTrainer, quantize_network
from repro.nn.layers import DenseLayer
from repro.runtime import QueryRunner

#: Sweep resolution of the Fig.-4 grid.  The deep substrate's bands must
#: be wide enough to show the log-vs-linear dispatch gap; ±100 % keeps the
#: widest (ceiling-robust) bands in view.
DEEP_CEILING = 100
PAPER_CEILING = 40


def deep_case_study_network(case_study) -> "quantize_network":
    """A 5-12-12-2 variant of the case-study network (seeded, trained)."""
    rng = np.random.default_rng(3)
    network = Network(
        [
            DenseLayer.from_init(rng, 5, 12, activation="relu"),
            DenseLayer.from_init(rng, 12, 12, activation="relu"),
            DenseLayer.from_init(rng, 12, 2, activation="linear"),
        ]
    )
    trainer = SgdTrainer(schedule=[(150, 0.4), (100, 0.15)], seed=3)
    result = trainer.fit(
        network,
        np.asarray(case_study.train.features, dtype=float),
        np.asarray(case_study.train.labels),
    )
    assert result.train_accuracy == 1.0  # fully trained, like the paper's
    return quantize_network(network)


def run_sweep(network, dataset, ceiling):
    """The frontier arm: ``NoiseToleranceAnalysis.sweep`` over the grid."""
    analysis = NoiseToleranceAnalysis(network, search_ceiling=ceiling)
    start = time.perf_counter()
    sweep = analysis.sweep(dataset, list(range(1, ceiling + 1)))
    wall = time.perf_counter() - start
    return sweep, analysis.runner.engine_stats, wall


def run_per_query_sweep(network, dataset, ceiling):
    """The per-query arm: the same grid, one ``verify_at`` per point."""
    runner = QueryRunner(network)
    percents = list(range(1, ceiling + 1))
    start = time.perf_counter()
    sweep: dict[int, list[int]] = {p: [] for p in percents}
    for index, x, label in runner.correctly_classified(dataset):
        for percent in percents:
            if runner.verify_at(x, label, percent, index=index).is_vulnerable:
                sweep[percent].append(index)
    wall = time.perf_counter() - start
    return sweep, runner.engine_stats, wall


def test_frontier_prepass_vs_per_query_portfolio(benchmark, case_study):
    network = deep_case_study_network(case_study)

    frontier_sweep, frontier_stats, frontier_wall = benchmark.pedantic(
        lambda: run_sweep(network, case_study.test, DEEP_CEILING),
        rounds=1,
        iterations=1,
    )
    perquery_sweep, perquery_stats, perquery_wall = run_per_query_sweep(
        network, case_study.test, DEEP_CEILING
    )

    frontier_complete = frontier_stats.complete_calls()
    perquery_complete = perquery_stats.complete_calls()
    ratio = perquery_complete / max(1, frontier_complete)
    print(
        f"\nFig.-4 sweep, deep substrate (±{DEEP_CEILING}%): "
        f"complete-engine calls {perquery_complete} per-query vs "
        f"{frontier_complete} frontier = {ratio:.1f}x fewer; "
        f"wall {perquery_wall:.1f}s vs {frontier_wall:.1f}s "
        f"({perquery_wall / frontier_wall:.1f}x)"
    )
    print("frontier " + frontier_stats.describe_table())
    print("per-query " + perquery_stats.describe_table())

    # Bit-identical results on both paths.
    assert frontier_sweep == perquery_sweep
    # The band is real on this substrate...
    assert perquery_complete > 0
    # ...and the frontier resolves it with >= 5x fewer complete calls.
    assert frontier_complete < perquery_complete
    assert ratio >= 5.0, f"complete-call reduction {ratio:.2f}x < 5x"
    # Bulk passes beat per-query loops on the wall clock as well.
    assert frontier_wall < perquery_wall, (
        f"frontier ({frontier_wall:.2f}s) should beat per-query "
        f"({perquery_wall:.2f}s) on the grid workload"
    )


def test_paper_substrate_grid_needs_no_complete_engine(quantized, case_study):
    """The stock 5-20-2 network: both paths decide the grid cheaply.

    This is the economics the frontier plane is built on — documented
    here so a future substrate change that opens a band on the paper
    network shows up as a benchmark delta, not a silent slowdown.
    """
    frontier_sweep, frontier_stats, frontier_wall = run_sweep(
        quantized, case_study.test, PAPER_CEILING
    )
    perquery_sweep, perquery_stats, perquery_wall = run_per_query_sweep(
        quantized, case_study.test, PAPER_CEILING
    )
    print(
        f"\nFig.-4 sweep, paper substrate (±{PAPER_CEILING}%): "
        f"complete calls {perquery_stats.complete_calls()} per-query vs "
        f"{frontier_stats.complete_calls()} frontier; "
        f"wall {perquery_wall:.2f}s vs {frontier_wall:.2f}s"
    )
    assert frontier_sweep == perquery_sweep
    assert frontier_stats.complete_calls() == 0
    assert perquery_stats.complete_calls() == 0
