"""Stable fingerprints for the query cache and per-input seed derivation.

A cached :class:`~repro.verify.result.VerificationResult` is only valid
while both the quantised network and the verifier configuration that
produced it are unchanged.  Both are fingerprinted here with SHA-256 over
a canonical text rendering (exact rationals for the network, sorted
``repr`` items for the config), so the cache can detect — and drop —
entries computed under a different model or budget.

``derive_seed`` is the one place the runtime turns the run-wide base seed
into a per-input seed.  Deriving from ``(base seed, input index)`` makes
every stochastic engine (the :class:`~repro.verify.falsify.RandomFalsifier`)
reproducible regardless of which worker process, and in which order, ends
up verifying the input.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import asdict

import numpy as np

from ..config import VerifierConfig
from ..nn.quantize import QuantizedNetwork

_MASK32 = 0xFFFFFFFF


def network_fingerprint(network: QuantizedNetwork) -> str:
    """Digest of the exact-rational parameters (and layer shapes/kinds)."""
    digest = hashlib.sha256()
    for layer in network.layers:
        digest.update(b"layer:relu=" + (b"1" if layer.relu else b"0"))
        for row in layer.weights:
            for value in row:
                digest.update(f"{value.numerator}/{value.denominator},".encode())
        digest.update(b"|bias:")
        for value in layer.bias:
            digest.update(f"{value.numerator}/{value.denominator},".encode())
    return digest.hexdigest()[:20]


def verifier_fingerprint(config: VerifierConfig) -> str:
    """Digest of every :class:`VerifierConfig` field, including the seed."""
    digest = hashlib.sha256()
    for key in sorted(asdict(config)):
        digest.update(f"{key}={getattr(config, key)!r};".encode())
    return digest.hexdigest()[:20]


def runtime_context(
    network: QuantizedNetwork,
    config: VerifierConfig,
    data_digest: str | None = None,
) -> str:
    """Combined cache context: network fingerprint + verifier fingerprint.

    ``data_digest`` (the content digest of an external dataset source,
    see :mod:`repro.data.sources`) folds a third component in: jobs over
    different source files — or different parses of the same file —
    must never share a persisted cache context, even when network and
    budget coincide, so a changed file invalidates the store exactly
    like a changed network would.
    """
    base = f"{network_fingerprint(network)}:{verifier_fingerprint(config)}"
    if data_digest is None:
        return base
    return f"{base}:{data_digest[:20]}"


@functools.lru_cache(maxsize=4096)
def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-input seed from ``(base_seed, input index)``.

    Routed through :class:`numpy.random.SeedSequence` so nearby indices do
    not produce correlated falsifier sample streams.  ``index`` may be -1
    (the single-input convenience APIs); it is offset before masking so
    every index maps to a distinct non-negative entropy word.  Memoised:
    every frontier probe of an input asks for the same seed.
    """
    entropy = (int(base_seed) & _MASK32, (int(index) + 1) & _MASK32)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
