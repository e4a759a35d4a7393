"""Quickstart: train the case-study network and formally analyse it.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import Fannet
from repro.data import load_leukemia_case_study
from repro.nn import train_paper_network


def main() -> None:
    # 1. Data: synthetic Golub-style leukemia microarrays, mRMR-reduced to
    #    the 5 most informative genes, integer-scaled (see repro.data).
    case_study = load_leukemia_case_study()
    print(
        f"dataset: {case_study.train.num_samples} train / "
        f"{case_study.test.num_samples} test samples, "
        f"{case_study.train.num_features} selected genes"
    )

    # 2. Train with the paper's recipe (lr 0.5 x40 epochs, then 0.2 x40).
    result = train_paper_network(case_study.train.features, case_study.train.labels)
    print(f"training accuracy: {result.train_accuracy:.2%}")

    # 3. Wrap in the FANNet methodology: quantise + validate (property P1).
    fannet = Fannet(result.network, case_study.train, case_study.test)
    fannet.validate()
    print("P1 validation passed: float net == exact net == SMV model")

    # 4. One formal robustness query: can ±5% noise on every gene flip the
    #    first test sample's diagnosis?  The runner runs the cheap stages
    #    (interval, corner, random) first and a complete engine only if
    #    they cannot decide; index=0 names the sample's cache entry.
    x = case_study.test.features[0]
    label = int(case_study.test.labels[0])
    verdict = fannet.runner.verify_at(x, label, 5, index=0)
    print(f"test[0] under ±5% noise: {verdict.status.value}")

    # 5. The headline number: the network's noise tolerance.
    report = fannet.noise_tolerance(search_ceiling=60)
    print(f"network noise tolerance: ±{report.tolerance}%  (paper: ±11%)")

    # 6. Every verdict above went through the runtime's monotone query
    #    cache: a ROBUST verdict at ±P covers all smaller ranges and a
    #    VULNERABLE one all larger ranges, so re-asking along the percent
    #    axis is free.  Point RuntimeConfig(cache_dir=...) — or the CLI's
    #    --cache-dir — at a directory and the cache also persists across
    #    runs: a repeat of this script would issue zero solver calls.
    print(fannet.runner.stats.describe())
    print(fannet.runner.cache.stats.describe())
    fannet.close()  # flush the disk cache store (when one is configured)


if __name__ == "__main__":
    main()
