"""Neural-network verification engines.

The FANNet query (§IV-B of the paper): given a quantised network, a test
input ``x`` with true label ``Sx`` and an integer-percent noise range,
does some noise vector ``p`` make ``f(x·(100+p)/100) ≠ Sx``?

Engines, ordered by the guarantees they offer:

- :class:`ExhaustiveEnumerator` — exact integer evaluation of *every*
  noise vector (vectorised int64 with overflow guard); ground truth for
  small ranges.  Its P3 census query returns the same answers without
  visiting every point: interval-proved sub-boxes are skipped or emitted
  whole, and only unproved leaves are evaluated.
- :func:`interval_bulk` — interval bound propagation over many queries
  at once; proves robustness (UNSAT) quickly, never finds
  counterexamples.  The same pass gives the complete engines their
  hidden-layer bounds (:func:`~repro.verify.interval.layer_bounds`).
- :class:`SmtVerifier` — complete: ReLU phase splitting over the exact
  rational simplex with integer branch & bound (Reluplex-style).  The
  from-scratch reference; sessions call it to derive canonical witnesses.
- :class:`PortfolioVerifier` — the complete stage: enumeration for small
  boxes, a warm :class:`LadderSession` otherwise, with an
  :class:`EngineStats` table of decide rates and wall time.  The runtime
  keeps one per runner and hands it the survivors of its frontier
  prepass.
- :class:`LadderSession` (:mod:`repro.verify.incremental`) — the
  portfolio's complete stage for boxes too large to enumerate: each
  adversary encoded once (:func:`~repro.verify.smt_verifier.encode_adversary`,
  shared with :class:`SmtVerifier`), each rung's noise budget expressed
  as retractable assumption literals and push/pop bound frames, learned
  clauses and tableau bases reused across the whole ladder.
- :class:`FrontierPrepass` / :func:`resolve_survivors`
  (:mod:`repro.verify.batch`) — the frontier-batched plane and the only
  implementation of the incomplete stages (interval → corner → random):
  many queries (same network, many inputs × many percents) resolved in
  bulk by vectorised incomplete passes, with only the boundary band
  dispatched to the complete engines along a monotone bisection.  A
  single query is a frontier of one.

All engines consume the same :class:`ScaledQuery`, whose arithmetic is
integer-exact by construction.  A :class:`NetworkEncoding` scales one
network's weights once and builds every query over that network from
them; it also labels many inputs exactly in one pass.
:func:`build_query` is the one-off form.
"""

from .encoder import NetworkEncoding, ScaledQuery, build_query
from .result import VerificationResult, VerificationStatus
from .interval import interval_bulk
from .exhaustive import ExhaustiveEnumerator
from .smt_verifier import SmtVerifier
from .incremental import LadderSession
from .stats import EngineStats, StageStat
from .portfolio import PortfolioVerifier
from .batch import (
    FrontierOutcome,
    FrontierPrepass,
    FrontierProbe,
    labels_for_rows,
    resolve_survivors,
)
from .enumerate import NoiseVectorCollector

__all__ = [
    "NetworkEncoding",
    "ScaledQuery",
    "build_query",
    "VerificationResult",
    "VerificationStatus",
    "interval_bulk",
    "ExhaustiveEnumerator",
    "SmtVerifier",
    "LadderSession",
    "EngineStats",
    "StageStat",
    "PortfolioVerifier",
    "FrontierPrepass",
    "FrontierProbe",
    "FrontierOutcome",
    "labels_for_rows",
    "resolve_survivors",
    "NoiseVectorCollector",
]
