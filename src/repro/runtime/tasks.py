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

The P2 task is one frontier call: its whole ladder ``1..ceiling`` goes
to :meth:`~repro.runtime.QueryRunner.verify_frontier`, and the minimum
flip is read off the decided ladder.  Its boundary-band rungs reach the
runner's one portfolio, which keys its warm ladder sessions
(:class:`~repro.verify.incremental.LadderSession`) by ``(input values,
label)``, so all of one input's complete calls reuse one session.
Sessions leave cache keys and contexts untouched, so warm disk verdicts
short-circuit before any session is even created.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .cache import _percent_of


@dataclass
class ToleranceSearchTask:
    """P2 for one input: smallest ±P admitting a counterexample.

    Noise boxes nest, so the verdict is monotone in P and the Fig.-2
    minimum is the least VULNERABLE rung of the ladder ``1..ceiling``.
    One :meth:`~repro.runtime.QueryRunner.verify_frontier` call decides
    the whole ladder: the bulk prepass settles its cheap mass and a
    monotone bisection reaches a complete engine only inside the thin
    boundary band.  The least flip is never derived from another rung,
    so its witness is always an exact one.
    """

    index: int
    x: tuple
    true_label: int
    ceiling: int
    warm_kinds = ("verify",)

    def run(self, runner) -> dict[str, Any]:
        results = runner.verify_frontier(
            [
                (self.index, self.x, self.true_label, percent)
                for percent in range(1, self.ceiling + 1)
            ]
        )
        flips = {
            _percent_of(key): result
            for key, result in results.items()
            if result.is_vulnerable
        }
        if not flips:
            return {"min_flip_percent": None, "witness": None, "flipped_to": None}
        percent = min(flips)
        return {
            "min_flip_percent": percent,
            "witness": flips[percent].witness,
            "flipped_to": flips[percent].predicted_label,
        }


@dataclass
class ExtractionTask:
    """P3 for one input: unique adversarial vectors at a fixed range."""

    index: int
    x: tuple
    true_label: int
    percent: int
    limit: int | None
    # "verify" rides along for the robust-verdict short-circuit.
    warm_kinds = ("extract", "verify")

    def run(self, runner) -> dict[str, Any]:
        return runner.collect_at(
            self.x,
            self.true_label,
            self.percent,
            limit=self.limit,
            index=self.index,
        )


@dataclass
class ProbeTask:
    """Eq.-3 probe: minimal single-node noise (one node, one sign) that
    flips *any* of the given correctly-classified inputs.

    One bulk exact network evaluation over every input × every magnitude
    up to the ceiling yields each input's flip threshold; the probe is
    their minimum.  Nothing is cached, so no warm entries ship with it.
    """

    node: int
    sign: int
    ceiling: int
    inputs: tuple  # ((index, x, true_label), ...)
    warm_kinds = ()

    def run(self, runner) -> int | None:
        thresholds = runner.probe_ladder(self.inputs, self.node, self.sign, self.ceiling)
        return min((t for t in thresholds if t is not None), default=None)
