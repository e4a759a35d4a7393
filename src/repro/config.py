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

    @property
    def total_epochs(self) -> int:
        return self.epochs_phase1 + self.epochs_phase2


@dataclass(frozen=True)
class NoiseConfig:
    """Noise model parameters for the formal analysis.

    The paper injects *relative* integer-percent noise independently on
    every input node: ``x'_i = x_i (100 + p_i)/100`` with
    ``p_i ∈ [-max_percent, +max_percent] ∩ Z``.
    """

    max_percent: int = 40
    min_percent: int | None = None  # None means symmetric: -max_percent
    step: int = 1

    def __post_init__(self):
        if self.max_percent < 0:
            raise ConfigError("max_percent must be non-negative")
        if self.step <= 0:
            raise ConfigError("step must be positive")
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
        return list(range(self.low, self.high + 1, self.step))

    def vector_count(self, num_inputs: int) -> int:
        """Size of the noise-vector space for ``num_inputs`` nodes."""
        return len(self.percent_values()) ** num_inputs


@dataclass(frozen=True)
class VerifierConfig(_FromMapping):
    """Budgets and tolerances shared by the verification engines."""

    node_budget: int = 2_000_000
    seed: int = 0

    def __post_init__(self):
        if self.node_budget <= 0:
            raise ConfigError("node_budget must be positive")


@dataclass(frozen=True)
class RuntimeConfig(_FromMapping):
    """Execution policy for the analysis runtime (:mod:`repro.runtime`).

    ``workers=1`` runs every query inline; higher counts fan per-input
    tasks out over a process pool.  Results are bit-identical either way:
    stochastic engines seed from ``(VerifierConfig.seed, input index)``,
    never from shared global state.  ``cache=False`` disables the query
    memo (every query reaches a solver), for measurement and debugging.

    ``monotone=True`` (the default) upgrades the memo to a
    :class:`~repro.runtime.cache.MonotoneCache`, which also answers
    queries *implied* by already-proved verdicts along the noise-percent
    axis (ROBUST at ±P covers every smaller range, VULNERABLE every
    larger one); ``monotone=False`` falls back to exact-key reuse only.

    ``cache_dir`` names a directory for cross-run persistence: the memo
    is warm-started from — and spilled back to — one file per (network,
    verifier-config) fingerprint context there (see
    :mod:`repro.runtime.store`).  ``persist=False`` keeps a configured
    ``cache_dir`` untouched (neither read nor written) for this run.
    ``cache_dir=None`` (the default) disables persistence entirely.

    ``frontier=True`` (the default) lets the analyses submit whole probe
    ladders to the frontier-batched verification plane
    (:mod:`repro.verify.batch`): a vectorised bulk prepass resolves the
    cheap mass of every ladder before any complete engine runs, and
    grid-shaped workloads dispatch their boundary-band survivors along a
    monotone bisection.  Reports are bit-identical with the frontier on
    or off; ``batch_size`` caps the rows per concatenated bulk network
    evaluation (a memory knob — it can never move a result).

    ``max_cache_bytes`` bounds the size of the ``cache_dir`` directory:
    after every flush the oldest-by-mtime store files are evicted until
    the directory fits the budget (see :mod:`repro.runtime.lifecycle`).
    The context the flushing run just wrote is never evicted by its own
    flush.  ``None`` (the default) never evicts — entries are
    mathematical facts about a fixed network and do not expire.
    """

    workers: int = 1
    cache: bool = True
    monotone: bool = True
    cache_dir: str | None = None
    persist: bool = True
    frontier: bool = True
    batch_size: int = 4096
    max_cache_bytes: int | None = None

    def __post_init__(self):
        if self.workers <= 0:
            raise ConfigError("workers must be positive")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.max_cache_bytes is not None and self.max_cache_bytes < 0:
            raise ConfigError("max_cache_bytes must be >= 0 (or null: unbounded)")

    @property
    def persistence_enabled(self) -> bool:
        """Whether this run reads/writes a disk cache store."""
        return self.cache and self.persist and self.cache_dir is not None


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
