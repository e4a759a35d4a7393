"""Batch specifications: many (network, dataset slice, analyses, budget) jobs.

A :class:`BatchSpec` names the workload of one batch campaign — every
job pairs a network source with a dataset slice, a verifier budget and
the analyses to run on it.  Specs are plain frozen dataclasses, built
either in Python or from a JSON/TOML *manifest* file::

    {
      "version": 1,
      "name": "seed-sweep",
      "runtime": {"workers": 2, "cache_dir": ".qcache"},
      "jobs": [
        {
          "name": "seed7",
          "network": {"kind": "case-study", "train_seed": 7},
          "dataset": {"split": "test", "stop": 8},
          "verifier": {"seed": 0},
          "analyses": {
            "tolerance": {"ceiling": 20},
            "extraction": {"percent": 8, "limit": 5},
            "probe": {"ceiling": 15}
          }
        }
      ]
    }

Validation is strict and loud: unknown keys, duplicate job names, bad
kinds and malformed sections all raise :class:`~repro.errors.ConfigError`
with the offending field named — a typo in a manifest must never
silently change what a campaign measures.  Unreadable or syntactically
broken files raise :class:`~repro.errors.DataError`.

``to_dict`` / ``from_dict`` round-trip exactly, so a spec constructed in
Python can be written out as the manifest of the run that executed it.
"""

from __future__ import annotations

import json
import re
import tomllib
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..config import RuntimeConfig, VerifierConfig
from ..data.sources import SOURCE_DTYPES, DatasetSource, build_source, source_kinds
from ..errors import ConfigError, DataError

#: Manifest schema version this module reads and writes.
MANIFEST_VERSION = 1

#: Job and batch names become file names and task identities.
#: \Z, not $: '$' would admit a trailing newline into file names.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*\Z")

NETWORK_KINDS = ("case-study", "file")
DATASET_SPLITS = ("test", "train")


def _check_name(name, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigError(
            f"{what} name {name!r} is invalid: use letters, digits, '.', '_' "
            "or '-' (names become file names and task identities)"
        )
    return name


def _section(payload: dict, key: str, what: str) -> dict:
    value = payload.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{what} '{key}' section must be a mapping")
    return value


def _reject_unknown(payload: dict, allowed: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {what} key(s): {', '.join(unknown)} "
            f"(expected a subset of: {', '.join(allowed)})"
        )


def _build(cls, payload: dict, what: str):
    """Construct a spec dataclass, turning type mismatches into ConfigError."""
    try:
        return cls(**payload)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {what} section: {err}") from None


@dataclass(frozen=True)
class NetworkSpec:
    """Where a job's network comes from.

    ``case-study`` trains the paper's 5-20-2 network on the case-study
    training split with ``train_seed`` (different seeds give genuinely
    different networks — the cross-model comparison axis).  ``file``
    loads a network previously saved with ``fannet train`` /
    :func:`repro.nn.save_network` from ``path``.
    """

    kind: str = "case-study"
    train_seed: int = 7
    path: str | None = None

    def __post_init__(self):
        if self.kind not in NETWORK_KINDS:
            raise ConfigError(
                f"network kind {self.kind!r} is not one of {NETWORK_KINDS}"
            )
        if self.kind == "file" and not self.path:
            raise ConfigError("network kind 'file' requires a 'path'")

    @classmethod
    def from_dict(cls, payload: dict) -> "NetworkSpec":
        _reject_unknown(payload, ("kind", "train_seed", "path"), "network")
        return _build(cls, payload, "network")


@dataclass(frozen=True)
class DataSourceSpec:
    """An external feature file a job analyses (see :mod:`repro.data.sources`).

    ``kind`` selects the registered loader (``csv`` or ``npz``); the
    remaining fields are that loader's parse parameters.  Fields that do
    not belong to the chosen kind must stay at their defaults — a
    manifest naming ``features_key`` on a CSV source is a typo, not a
    preference.  Construction validates eagerly by building the source
    (the file itself is only read at planning time).
    """

    kind: str = "csv"
    path: str = ""
    label_column: str | int | None = None  # csv: name, index, or None = last
    delimiter: str = ","  # csv
    features_key: str = "features"  # npz
    labels_key: str = "labels"  # npz
    dtype: str = "int64"

    #: Manifest keys each kind accepts (strict: anything else is a typo).
    _KIND_KEYS = {
        "csv": ("kind", "path", "label_column", "delimiter", "dtype"),
        "npz": ("kind", "path", "features_key", "labels_key", "dtype"),
    }

    def __post_init__(self):
        if self.kind not in source_kinds():
            raise ConfigError(
                f"dataset source kind {self.kind!r} is not one of {source_kinds()}"
            )
        if not self.path or not isinstance(self.path, str):
            raise ConfigError(f"{self.kind} dataset source requires a 'path'")
        foreign = {
            "csv": (("features_key", "features"), ("labels_key", "labels")),
            "npz": (("label_column", None), ("delimiter", ",")),
        }[self.kind]
        for name, default in foreign:
            if getattr(self, name) != default:
                raise ConfigError(
                    f"{self.kind} dataset source does not take {name!r}"
                )
        self.build()  # parameter validation (no file I/O)

    def source_params(self) -> dict:
        keys = [k for k in self._KIND_KEYS[self.kind] if k != "kind"]
        return {key: getattr(self, key) for key in keys}

    def build(self) -> DatasetSource:
        """The live :class:`DatasetSource` this spec names."""
        return build_source(self.kind, **self.source_params())

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.source_params()}

    @classmethod
    def from_dict(cls, payload: dict) -> "DataSourceSpec":
        if not isinstance(payload, dict):
            raise ConfigError("dataset 'source' section must be a mapping")
        kind = payload.get("kind")
        if kind not in cls._KIND_KEYS:
            raise ConfigError(
                f"dataset source kind {kind!r} is not one of {source_kinds()}"
            )
        _reject_unknown(payload, cls._KIND_KEYS[kind], f"{kind} dataset source")
        if "dtype" in payload and payload["dtype"] not in SOURCE_DTYPES:
            raise ConfigError(
                f"dataset source dtype {payload['dtype']!r} is not one of "
                f"{SOURCE_DTYPES}"
            )
        return _build(cls, payload, "dataset source")


@dataclass(frozen=True)
class DatasetSpec:
    """Which data a job analyses: a case-study split or an external source.

    Without ``source``, ``split`` selects one of the built-in case-study
    splits (default ``test``).  With ``source``, the job reads an
    external feature file (see :class:`DataSourceSpec`) and ``split``
    must be omitted.  Either way the slice is an explicit ``indices``
    tuple or a ``start``/``stop`` range (half-open, like Python
    slicing).  Indices are *dataset-absolute*: task identities and
    per-input results keep them, so the same input keeps the same
    identity across slice definitions.
    """

    split: str | None = None
    start: int | None = None
    stop: int | None = None
    indices: tuple[int, ...] | None = None
    source: DataSourceSpec | None = None

    def __post_init__(self):
        if self.source is not None:
            if self.split is not None:
                raise ConfigError(
                    "a dataset takes either a case-study 'split' or an "
                    "external 'source', not both"
                )
        elif self.split is None:
            object.__setattr__(self, "split", "test")
        if self.split is not None and self.split not in DATASET_SPLITS:
            raise ConfigError(
                f"dataset split {self.split!r} is not one of {DATASET_SPLITS}"
            )
        if self.indices is not None:
            if self.start is not None or self.stop is not None:
                raise ConfigError(
                    "dataset slice takes either 'indices' or 'start'/'stop', not both"
                )
            object.__setattr__(
                self, "indices", tuple(int(i) for i in self.indices)
            )
            if any(i < 0 for i in self.indices):
                raise ConfigError("dataset indices must be non-negative")
            if len(set(self.indices)) != len(self.indices):
                raise ConfigError("dataset indices must be unique")
        for bound in (self.start, self.stop):
            if bound is not None and bound < 0:
                raise ConfigError("dataset start/stop must be non-negative")

    def resolve(self, num_samples: int) -> tuple[int, ...]:
        """The dataset-absolute row indices this slice selects."""
        if self.indices is not None:
            bad = [i for i in self.indices if i >= num_samples]
            if bad:
                raise ConfigError(
                    f"dataset indices {bad} out of range for a "
                    f"{num_samples}-sample dataset"
                    + (f" ({self.split} split)" if self.split else "")
                )
            return self.indices
        return tuple(range(num_samples))[self.start:self.stop]

    def to_dict(self) -> dict:
        payload: dict = {}
        if self.source is not None:
            payload["source"] = self.source.to_dict()
        else:
            payload["split"] = self.split
        payload.update(start=self.start, stop=self.stop)
        payload["indices"] = list(self.indices) if self.indices is not None else None
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DatasetSpec":
        _reject_unknown(
            payload, ("split", "start", "stop", "indices", "source"), "dataset"
        )
        if payload.get("split") is not None and payload.get("source") is not None:
            raise ConfigError(
                "a dataset takes either a case-study 'split' or an external "
                "'source', not both"
            )
        if "indices" in payload and payload["indices"] is not None:
            if not isinstance(payload["indices"], (list, tuple)):
                raise ConfigError("dataset 'indices' must be a list")
            payload = dict(payload, indices=tuple(payload["indices"]))
        if payload.get("source") is not None:
            payload = dict(payload, source=DataSourceSpec.from_dict(payload["source"]))
        return _build(cls, payload, "dataset")


@dataclass(frozen=True)
class ToleranceSpec:
    """P2 search parameters (noise budget = the search ceiling)."""

    ceiling: int = 60

    def __post_init__(self):
        if self.ceiling < 1:
            raise ConfigError("tolerance ceiling must be >= 1")

    @classmethod
    def from_dict(cls, payload: dict) -> "ToleranceSpec":
        _reject_unknown(payload, ("ceiling",), "tolerance")
        return _build(cls, payload, "tolerance")


@dataclass(frozen=True)
class ExtractionSpec:
    """P3 extraction parameters at a fixed noise range."""

    percent: int = 8
    limit: int | None = None

    def __post_init__(self):
        if self.percent < 1:
            raise ConfigError("extraction percent must be >= 1")
        if self.limit is not None and self.limit < 1:
            raise ConfigError("extraction limit must be >= 1 (or null)")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExtractionSpec":
        _reject_unknown(payload, ("percent", "limit"), "extraction")
        return _build(cls, payload, "extraction")


@dataclass(frozen=True)
class ProbeSpec:
    """Eq.-3 single-node probe parameters."""

    ceiling: int = 60

    def __post_init__(self):
        if self.ceiling < 1:
            raise ConfigError("probe ceiling must be >= 1")

    @classmethod
    def from_dict(cls, payload: dict) -> "ProbeSpec":
        _reject_unknown(payload, ("ceiling",), "probe")
        return _build(cls, payload, "probe")


@dataclass(frozen=True)
class JobSpec:
    """One (network, dataset slice, analyses, budget) tuple of a batch."""

    name: str
    network: NetworkSpec = field(default_factory=NetworkSpec)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    tolerance: ToleranceSpec | None = None
    extraction: ExtractionSpec | None = None
    probe: ProbeSpec | None = None

    def __post_init__(self):
        _check_name(self.name, "job")
        if self.tolerance is None and self.extraction is None and self.probe is None:
            raise ConfigError(
                f"job {self.name!r} requests no analyses; give it at least one "
                "of 'tolerance', 'extraction' or 'probe'"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ConfigError("each job must be a mapping")
        _reject_unknown(
            payload, ("name", "network", "dataset", "verifier", "analyses"), "job"
        )
        if "name" not in payload:
            raise ConfigError("every job needs a 'name'")
        analyses = _section(payload, "analyses", "job")
        _reject_unknown(analyses, ("tolerance", "extraction", "probe"), "analyses")

        def sub(spec_cls, key):
            if key not in analyses or analyses[key] is None:
                return None
            section = analyses[key]
            if section is True:  # bare opt-in: defaults
                section = {}
            if not isinstance(section, dict):
                raise ConfigError(f"analysis '{key}' section must be a mapping")
            return spec_cls.from_dict(section)

        return cls(
            name=payload["name"],
            network=NetworkSpec.from_dict(_section(payload, "network", "job")),
            dataset=DatasetSpec.from_dict(_section(payload, "dataset", "job")),
            verifier=VerifierConfig.from_dict(_section(payload, "verifier", "job")),
            tolerance=sub(ToleranceSpec, "tolerance"),
            extraction=sub(ExtractionSpec, "extraction"),
            probe=sub(ProbeSpec, "probe"),
        )


@dataclass(frozen=True)
class BatchSpec:
    """A whole batch campaign: jobs plus the shared runtime policy."""

    name: str
    jobs: tuple[JobSpec, ...] = ()
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self):
        _check_name(self.name, "batch")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ConfigError("a batch needs at least one job")
        names = [job.name for job in self.jobs]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate job name(s): {', '.join(dupes)}")

    def job(self, name: str) -> JobSpec:
        for job in self.jobs:
            if job.name == name:
                return job
        raise ConfigError(f"batch {self.name!r} has no job {name!r}")

    # -- (de)serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Manifest-shaped plain dict (round-trips through from_dict)."""
        jobs = []
        for job in self.jobs:
            analyses: dict = {}
            for key in ("tolerance", "extraction", "probe"):
                section = getattr(job, key)
                if section is not None:
                    analyses[key] = asdict(section)
            jobs.append(
                {
                    "name": job.name,
                    "network": asdict(job.network),
                    "dataset": job.dataset.to_dict(),
                    "verifier": asdict(job.verifier),
                    "analyses": analyses,
                }
            )
        return {
            "version": MANIFEST_VERSION,
            "name": self.name,
            "runtime": asdict(self.runtime),
            "jobs": jobs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BatchSpec":
        if not isinstance(payload, dict):
            raise ConfigError("a batch manifest must be a mapping at top level")
        _reject_unknown(payload, ("version", "name", "runtime", "jobs"), "manifest")
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise ConfigError(
                f"manifest version {version!r} is unsupported "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        if "name" not in payload:
            raise ConfigError("a batch manifest needs a 'name'")
        jobs = payload.get("jobs")
        if not isinstance(jobs, list):
            raise ConfigError("manifest 'jobs' must be a list")
        return cls(
            name=payload["name"],
            jobs=tuple(JobSpec.from_dict(job) for job in jobs),
            runtime=RuntimeConfig.from_dict(_section(payload, "runtime", "manifest")),
        )

    @classmethod
    def from_manifest(cls, path: str | Path) -> "BatchSpec":
        """Load a JSON (default) or TOML (``.toml``) manifest file."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as err:
            raise DataError(f"cannot read manifest {path}: {err}") from None
        if path.suffix.lower() == ".toml":
            try:
                payload = tomllib.loads(raw.decode("utf-8"))
            except (tomllib.TOMLDecodeError, UnicodeDecodeError) as err:
                raise DataError(f"manifest {path} is not valid TOML: {err}") from None
        else:
            try:
                payload = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise DataError(f"manifest {path} is not valid JSON: {err}") from None
        return cls.from_dict(payload)
