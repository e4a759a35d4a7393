"""Run-wide configuration objects.

Keeping every tunable in one dataclass makes experiment scripts and
benchmarks self-documenting: each records the exact configuration it ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, fields

from .errors import ConfigError


class _FromMapping:
    """Mixin: build a config dataclass from a manifest/JSON mapping.

    Unknown keys raise :class:`ConfigError` naming the offender — a
    typoed manifest option must fail loudly, not silently fall back to a
    default.  Field validation itself stays in each ``__post_init__``.
    """

    @classmethod
    def from_dict(cls, payload: dict | None):
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise ConfigError(
                f"{cls.__name__} section must be a mapping, got {type(payload).__name__}"
            )
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} option(s): {', '.join(unknown)} "
                f"(expected a subset of: {', '.join(sorted(allowed))})"
            )
        try:
            return cls(**payload)
        except TypeError as err:
            # e.g. a string where a number belongs: __post_init__ trips
            # on the comparison, or the constructor on the call itself.
            raise ConfigError(f"bad {cls.__name__} section: {err}") from None


@dataclass(frozen=True)
class TrainConfig(_FromMapping):
    """Training recipe.  Defaults mirror the paper (§V-A, footnote 1):

    MATLAB, learning rate 0.5 for the first 40 epochs then 0.2 for the
    remaining 40, reaching 100 % training and 94.12 % testing accuracy.
    """

    hidden_units: int = 20
    epochs_phase1: int = 40
    epochs_phase2: int = 40
    lr_phase1: float = 0.5
    lr_phase2: float = 0.2
    momentum: float = 0.0
    seed: int = 7
    batch_size: int = 0  # 0 means full batch

    def __post_init__(self):
        if self.hidden_units <= 0:
            raise ConfigError("hidden_units must be positive")
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.lr_phase1 <= 0 or self.lr_phase2 <= 0:
            raise ConfigError("learning rates must be positive")
        if self.batch_size < 0:
            raise ConfigError("batch_size must be >= 0 (0 = full batch)")


@dataclass(frozen=True)
class NoiseConfig:
    """Noise model parameters for the formal analysis.

    The paper injects *relative* integer-percent noise independently on
    every input node: ``x'_i = x_i (100 + p_i)/100`` with
    ``p_i ∈ [-max_percent, +max_percent] ∩ Z``.
    """

    max_percent: int = 40
    min_percent: int | None = None  # None means symmetric: -max_percent

    def __post_init__(self):
        if self.max_percent < 0:
            raise ConfigError("max_percent must be non-negative")
        low = self.low
        if low > self.max_percent:
            raise ConfigError("empty noise range")

    @property
    def low(self) -> int:
        return -self.max_percent if self.min_percent is None else self.min_percent

    @property
    def high(self) -> int:
        return self.max_percent

    def percent_values(self) -> list[int]:
        """All admissible signed noise percentages."""
        return list(range(self.low, self.high + 1))


@dataclass(frozen=True)
class VerifierConfig(_FromMapping):
    """Budgets and tolerances shared by the verification engines."""

    node_budget: int = 2_000_000
    seed: int = 0

    def __post_init__(self):
        if self.node_budget <= 0:
            raise ConfigError("node_budget must be positive")


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is an ``int`` subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RuntimeConfig(_FromMapping):
    """Execution policy for the analysis runtime (:mod:`repro.runtime`).

    The analyses always submit whole probe ladders and grids to the
    frontier-batched verification plane (:mod:`repro.verify.batch`); the
    fields below only choose where that work runs and what it remembers.

    ``workers=1`` runs every query inline; higher counts fan per-input
    tasks out over a process pool whose workers run under this same
    policy.  Results are bit-identical either way: stochastic engines
    seed from ``(VerifierConfig.seed, input index)``, never from shared
    global state.  ``cache=False`` disables the query memo (every query
    reaches a solver), for measurement and debugging; with it on, the
    memo also answers queries *implied* by proved verdicts along the
    noise-percent axis (see :mod:`repro.runtime.cache`).

    ``cache_dir`` names a directory for cross-run persistence: the memo
    is warm-started from — and spilled back to — one file per (network,
    verifier-config) fingerprint context there (see
    :mod:`repro.runtime.store`).  ``cache_dir=None`` (the default)
    disables persistence.

    ``max_cache_bytes`` bounds the size of the ``cache_dir`` directory:
    after every flush the oldest-by-mtime store files are evicted until
    the directory fits the budget (see :mod:`repro.runtime.lifecycle`).
    The context the flushing run just wrote is never evicted by its own
    flush.  ``None`` (the default) never evicts — entries are
    mathematical facts about a fixed network and do not expire.
    """

    workers: int = 1
    cache: bool = True
    cache_dir: str | None = None
    max_cache_bytes: int | None = None

    def __post_init__(self):
        # Manifests reach here unchecked: a "false" string is truthy and
        # a ``true`` is an int, so every field's type is checked first.
        workers, cache_dir, bound = self.workers, self.cache_dir, self.max_cache_bytes
        if not _is_int(workers) or workers <= 0:
            raise ConfigError(f"workers must be a positive integer, got {workers!r}")
        if not isinstance(self.cache, bool):
            raise ConfigError(f"cache must be a boolean, got {self.cache!r}")
        if cache_dir is not None and not isinstance(cache_dir, str):
            raise ConfigError(f"cache_dir must be a string or null, got {cache_dir!r}")
        if bound is not None and not (_is_int(bound) and bound >= 0):
            raise ConfigError(
                f"max_cache_bytes must be an integer >= 0 or null, got {bound!r}"
            )

    @property
    def persistence_enabled(self) -> bool:
        """Whether this run reads/writes a disk cache store."""
        return self.cache and self.cache_dir is not None


@dataclass(frozen=True)
class FannetConfig:
    """Top-level configuration for the FANNet pipeline."""

    train: TrainConfig = field(default_factory=TrainConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    num_features: int = 5
    input_scale: int = 50
    weight_scale: int = 1000

    def __post_init__(self):
        if self.num_features <= 0:
            raise ConfigError("num_features must be positive")
        if self.input_scale <= 0:
            raise ConfigError("input_scale must be positive")
        if self.weight_scale <= 0:
            raise ConfigError("weight_scale must be positive")

    def to_dict(self) -> dict:
        return asdict(self)
