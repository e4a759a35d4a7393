"""Neural-network verification engines (system S9 in DESIGN.md).

The FANNet query (§IV-B of the paper): given a quantised network, a test
input ``x`` with true label ``Sx`` and an integer-percent noise range,
does some noise vector ``p`` make ``f(x·(100+p)/100) ≠ Sx``?

Engines, ordered by the guarantees they offer:

- :class:`ExhaustiveEnumerator` — exact integer evaluation of *every*
  noise vector (vectorised int64 with overflow guard); ground truth for
  small ranges.  Its P3 census queries return the same answers without
  visiting every point: interval-proved sub-boxes are skipped or emitted
  whole, and only unproved leaves are evaluated.
- :class:`IntervalVerifier` — interval bound propagation; proves
  robustness (UNSAT) quickly, never finds counterexamples.
- :class:`RandomFalsifier` / :class:`CornerFalsifier` — find
  counterexamples quickly, never prove robustness.  These three scalar
  engines are the single-query references the frontier plane's bulk
  passes are tested against.
- :class:`SmtVerifier` — complete: ReLU phase splitting over the exact
  rational simplex with integer branch & bound (Reluplex-style).  The
  from-scratch reference; sessions call it to derive canonical witnesses.
- :class:`PortfolioVerifier` — interval ⇒ falsifiers ⇒ complete engine,
  with the incomplete stages run as a one-probe :class:`FrontierPrepass`
  in one fixed order (an :class:`EngineStats` table reports their
  decide rates and wall time); the default used by the FANNet pipeline.
- :class:`LadderSession` (:mod:`repro.verify.incremental`) — the
  portfolio's complete stage for boxes too large to enumerate: each
  adversary encoded once (:func:`~repro.verify.smt_verifier.encode_adversary`,
  shared with :class:`SmtVerifier`), each rung's noise budget expressed
  as retractable assumption literals and push/pop bound frames, learned
  clauses and tableau bases reused across the whole ladder.
- :class:`FrontierPrepass` / :func:`resolve_survivors`
  (:mod:`repro.verify.batch`) — the frontier-batched plane and the only
  implementation of the incomplete stages: many queries (same network,
  many inputs × many percents) resolved in bulk by vectorised incomplete
  passes, with only the boundary band dispatched to the complete engines
  along a monotone bisection.

All engines consume the same :class:`ScaledQuery`, whose arithmetic is
integer-exact by construction.  A :class:`NetworkEncoding` scales one
network's weights once and builds every query over that network from
them; it also labels many inputs exactly in one pass.
:func:`build_query` is the one-off form.
"""

from .encoder import NetworkEncoding, ScaledQuery, build_query
from .result import VerificationResult, VerificationStatus
from .interval import IntervalVerifier, interval_bulk
from .exhaustive import ExhaustiveEnumerator
from .falsify import CornerFalsifier, RandomFalsifier
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
    "IntervalVerifier",
    "interval_bulk",
    "ExhaustiveEnumerator",
    "RandomFalsifier",
    "CornerFalsifier",
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
