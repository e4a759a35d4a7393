"""Picklable per-input work units for the analysis runtime.

Each task describes one independent slice of an analysis — the P2
tolerance search for one input, the P3 extraction for one input, one
``(node, sign)`` sensitivity probe — as plain data plus a ``run`` method
that only needs a :class:`~repro.runtime.runner.QueryRunner`.  The same
object executes identically inline (``workers=1``) and inside a pooled
worker process, which is what makes the parallel path a pure scheduling
change: the search logic exists exactly once.

Tasks return plain dicts/tuples rather than the report dataclasses of
:mod:`repro.core` so the runtime layer stays import-free of the analysis
layer (the analyses wrap task outcomes into their own report types).

Ladder tasks carry *session affinity* for free: every query a task
issues for its input routes through ``runner._verifier_for(index)``, the
same per-input portfolio — so all of one input's boundary-band rungs
(search probes and frontier bisection alike) reuse one warm
:class:`~repro.verify.incremental.LadderSession`.  Sessions leave cache
keys and contexts untouched, so warm disk verdicts short-circuit before
any session is even created.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError

#: Warm cache entries shipped with a task into a worker process.
WarmEntries = dict


@dataclass
class ToleranceSearchTask:
    """P2 for one input: smallest ±P admitting a counterexample.

    With the frontier plane enabled, the whole probe ladder ``1..ceiling``
    — every rung either search schedule could visit, binary-search rungs
    included — is submitted speculatively to the bulk prepass first: the
    vectorised incomplete passes and the monotone implication closure
    resolve most rungs, and the search's own probes then only reach a
    complete engine inside the thin boundary band.
    """

    index: int
    x: tuple
    true_label: int
    ceiling: int
    schedule: str = "binary"
    warm: WarmEntries = field(default_factory=dict)
    warm_kinds = ("verify",)

    def run(self, runner) -> dict[str, Any]:
        if self.schedule not in ("binary", "paper"):
            raise ConfigError("schedule must be 'binary' or 'paper'")
        runner.prepass_ladder(
            self.x, self.true_label, range(1, self.ceiling + 1), index=self.index
        )
        verify = lambda percent: runner.verify_at(  # noqa: E731
            self.x, self.true_label, percent, index=self.index
        )
        if self.schedule == "binary":
            return _search_binary(verify, self.ceiling)
        return _search_paper(verify, self.ceiling)


@dataclass
class ExtractionTask:
    """P3 for one input: unique adversarial vectors at a fixed range."""

    index: int
    x: tuple
    true_label: int
    percent: int
    limit: int | None
    exhaustive_cutoff: int
    warm: WarmEntries = field(default_factory=dict)
    # "verify" rides along for the robust-verdict short-circuit.
    warm_kinds = ("extract", "verify")

    def run(self, runner) -> dict[str, Any]:
        return runner.collect_at(
            self.x,
            self.true_label,
            self.percent,
            limit=self.limit,
            exhaustive_cutoff=self.exhaustive_cutoff,
            index=self.index,
        )


@dataclass
class ProbeTask:
    """Eq.-3 probe: minimal single-node noise (one node, one sign) that
    flips *any* of the given correctly-classified inputs.

    With the frontier plane enabled, the task submits its whole ladder —
    every input × every magnitude up to the ceiling — as one bulk exact
    network evaluation before bisecting; the bisections then read the
    memoised flip thresholds and never evaluate the network again.
    """

    node: int
    sign: int
    ceiling: int
    inputs: tuple  # ((index, x, true_label), ...)
    warm: WarmEntries = field(default_factory=dict)
    warm_kinds = ("probe",)

    def run(self, runner) -> int | None:
        if getattr(runner, "frontier_enabled", False):
            runner.probe_ladder(self.inputs, self.node, self.sign, self.ceiling)
        best: int | None = None
        for index, x, true_label in self.inputs:
            low = 1
            high = best - 1 if best is not None else self.ceiling
            while low <= high:
                mid = (low + high) // 2
                if runner.flips_single_node(
                    x, true_label, self.node, self.sign, mid, index=index
                ):
                    best, high = mid, mid - 1
                else:
                    low = mid + 1
        return best


# -- the two P2 search schedules (paper §IV-B / Fig. 2) -------------------------


def _search_binary(verify, ceiling: int) -> dict[str, Any]:
    """Bisection on the range bound; each probe is one verification."""
    low, high = 1, ceiling
    best = None
    best_percent: int | None = None
    queries = 0
    while low <= high:
        mid = (low + high) // 2
        result = verify(mid)
        queries += 1
        if result.is_vulnerable:
            best, best_percent = result, mid
            high = mid - 1
        else:
            low = mid + 1
    return {
        "min_flip_percent": best_percent,
        "witness": best.witness if best else None,
        "flipped_to": best.predicted_label if best else None,
        "queries": queries,
    }


def _search_paper(verify, ceiling: int) -> dict[str, Any]:
    """Fig.-2 literal loop: shrink ΔX while counterexamples exist."""
    percent = ceiling
    last = None
    last_flip: int | None = None
    queries = 0
    while percent >= 1:
        result = verify(percent)
        queries += 1
        if not result.is_vulnerable:
            break
        last, last_flip = result, percent
        percent -= 1
    return {
        "min_flip_percent": last_flip,
        "witness": last.witness if last else None,
        "flipped_to": last.predicted_label if last else None,
        "queries": queries,
    }
