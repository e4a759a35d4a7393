"""Incremental ladder sessions — warm vs from-scratch complete engines.

The claim under test (PR 10): on the boundary band of the Fig.-4
tolerance sweep — the probes every incomplete stage passes on — routing
each input's bisection through one warm
:class:`~repro.verify.incremental.LadderSession` (encode once, assume
the rung's noise budget, keep learned clauses and the simplex basis
alive) costs **≤ half the simplex pivots** of re-encoding every probe
from scratch, with **byte-identical verdicts and witnesses**.

Pivots are the gate, not wall-clock: the exact Dutertre–de Moura
simplex counts them deterministically, so the ratio is reproducible on
any machine.  The substrate is the deep 5-12-12-2 case-study variant
from :mod:`bench_frontier_prepass` — the paper's 5-20-2 network has an
empty boundary band, so there would be nothing to measure there.

The measured numbers are written to ``BENCH_incremental.json`` (the CI
workflow uploads it as an artifact).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from bench_frontier_prepass import deep_case_study_network
from repro.config import NoiseConfig, VerifierConfig
from repro.runtime.fingerprint import derive_seed
from repro.verify import (
    FrontierPrepass,
    FrontierProbe,
    PortfolioVerifier,
    build_query,
    resolve_survivors,
)

#: Sweep resolution; matches the frontier benchmark's deep-substrate grid.
CEILING = 100

#: The CI gate: warm sessions must at least halve the pivot bill.
REQUIRED_RATIO = 2.0

#: (from-scratch pivots, warm pivots, complete calls) on this substrate.
EXACT_BILL = (10968, 4802, 124)


def boundary_band(network, dataset):
    """The sweep's boundary band: probes no incomplete stage decides."""
    probes = []
    for index, x in enumerate(dataset.features):
        x = np.asarray(x, dtype=np.int64)
        label = network.predict(x)
        for percent in range(1, CEILING + 1):
            probes.append(
                FrontierProbe(
                    key=(index, percent),
                    query=build_query(network, x, label, NoiseConfig(percent)),
                    percent=percent,
                    group=index,
                    seed=derive_seed(0, index),
                )
            )
    return FrontierPrepass().resolve(probes).unknown


def dispatch(survivors, incremental: bool):
    """Bisect the band through per-input portfolios, SMT path forced."""
    verifiers: dict[int, PortfolioVerifier] = {}

    def complete_fn(probe):
        verifier = verifiers.get(probe.group)
        if verifier is None:
            verifier = verifiers[probe.group] = PortfolioVerifier(
                VerifierConfig(seed=derive_seed(0, probe.group)),
                exhaustive_cutoff=0,  # every probe reaches session/smt
                incremental=incremental,
            )
        return verifier.verify_complete(probe.query)

    start = time.perf_counter()
    exact, derived = resolve_survivors(survivors, complete_fn)
    wall = time.perf_counter() - start
    pivots = sum(v.complete_pivots() for v in verifiers.values())
    calls = sum(v.engine_stats.complete_calls() for v in verifiers.values())
    return exact, derived, pivots, calls, wall


def canonical(results: dict) -> dict:
    return {
        key: (r.status.value, r.witness, r.predicted_label)
        for key, r in results.items()
    }


def test_incremental_ladder_halves_the_pivot_bill(case_study):
    network = deep_case_study_network(case_study)
    survivors = boundary_band(network, case_study.test)
    # The band is real on this substrate — otherwise nothing is measured.
    assert survivors, "deep substrate no longer has a boundary band"

    warm_exact, warm_derived, warm_pivots, warm_calls, warm_wall = dispatch(
        survivors, incremental=True
    )
    cold_exact, cold_derived, cold_pivots, cold_calls, cold_wall = dispatch(
        survivors, incremental=False
    )

    ratio = cold_pivots / max(1, warm_pivots)
    print(
        f"\nboundary band: {len(survivors)} probes, {warm_calls} complete "
        f"calls per arm; simplex pivots {cold_pivots} from-scratch vs "
        f"{warm_pivots} warm sessions = {ratio:.1f}x fewer; "
        f"wall {cold_wall:.1f}s vs {warm_wall:.1f}s"
    )

    # Byte-identical results: same verdicts, same witnesses, same labels.
    assert canonical(warm_exact) == canonical(cold_exact)
    assert canonical(warm_derived) == canonical(cold_derived)
    assert warm_calls == cold_calls  # identical bisection trajectories

    payload = {
        "substrate": "deep-5-12-12-2",
        "ceiling": CEILING,
        "band_probes": len(survivors),
        "complete_calls": warm_calls,
        "pivots_incremental": warm_pivots,
        "pivots_scratch": cold_pivots,
        "pivot_ratio": ratio,
        "wall_incremental_s": warm_wall,
        "wall_scratch_s": cold_wall,
        "required_ratio": REQUIRED_RATIO,
    }
    Path("BENCH_incremental.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # The CI gate: warm sessions at least halve the deterministic pivot bill.
    assert warm_pivots * REQUIRED_RATIO <= cold_pivots, (
        f"incremental sessions saved only {ratio:.2f}x pivots "
        f"(< {REQUIRED_RATIO}x): {warm_pivots} vs {cold_pivots}"
    )
    # The exact bill: tableau arithmetic may get cheaper, never move a pivot.
    assert (cold_pivots, warm_pivots, warm_calls) == EXACT_BILL
