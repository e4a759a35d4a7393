"""The batch service: plan → run shards → status/resume → merge.

:class:`BatchService` executes a :class:`~repro.service.spec.BatchSpec`
in decoupled steps, each a plain CLI invocation — which is what makes
multi-machine scale-out trivial (a shard is just a process):

- :meth:`plan` expands the spec into the global task list (see
  :mod:`repro.service.planner`) — deterministic, so every shard
  re-plans identically;
- :meth:`run_shard` executes the slice of the task list a ``--shard
  i/N`` invocation owns, one per-context
  :class:`~repro.runtime.QueryRunner` per job (each runner's cache is
  keyed — and, with ``cache_dir`` set, persisted — under its own
  (network, verifier-config[, dataset-digest]) fingerprint), writes one
  JSON result file per job per shard, and maintains the shard's
  :class:`~repro.service.ledger.CampaignLedger`.  With ``resume=True``
  it first classifies every recorded result against the ledger
  (digest + context fingerprint) and re-executes only the missing,
  corrupt and stale ones;
- :meth:`status` reports, per job, exactly which task identities are
  done, missing, corrupt or stale in an output directory — the triage
  step after a shard dies;
- :meth:`merge` folds a complete set of shard files back into one
  aggregate :class:`~repro.analysis.records.ExperimentRecord` with
  per-job summaries and cross-network comparison series.  An incomplete
  set raises :class:`~repro.errors.IncompleteCampaignError` naming the
  missing identities — a partial campaign must never silently merge
  into a plausible-looking report.

Results are keyed by task identity and merged in sorted order, so the
merged report is **bit-identical for every shard layout and every
interruption history**: one shard, N shards, shuffled manifest job
order, killed-and-resumed — same bytes.  (Task outcomes themselves are
shard-invariant by the runtime's determinism contract: every stochastic
engine seeds from ``(verifier seed, input index)``, and the cache can
never move a result.)
"""

# lint: canonical-json — every JSON payload this module emits is
# digest- or artifact-bound and must serialise byte-stably.
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from ..analysis.records import ExperimentRecord
from ..errors import ConfigError, DataError, IncompleteCampaignError
from ..ioutils import atomic_write_bytes
from ..runtime import QueryRunner
from .ledger import CampaignLedger, ledger_file_name, outcome_digest
from .planner import BatchPlanner, PlannedJob
from .spec import BatchSpec

#: Version stamp of the per-job shard result files.  Version 2: job
#: headers carry the dataset source digest/description and are checked
#: against the current plan at merge time.
SHARD_FORMAT_VERSION = 2


def shard_file_name(job: str, shard_index: int, shard_count: int) -> str:
    """File name for one job's results from one shard (1-based display)."""
    return f"{job}.shard-{shard_index + 1}-of-{shard_count}.json"


def _jsonable(value):
    """Task outcomes as JSON-stable plain data (tuples become lists).

    Numpy scalars and arrays are converted to their Python equivalents:
    a stray ``np.int64`` in an outcome would either crash ``json.dumps``
    or (with a permissive encoder) digest differently from its re-parsed
    form, flipping the ledger's ``outcome_digest`` ok/corrupt verdicts.
    """
    if isinstance(value, np.generic):
        return _jsonable(value.item())
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {_jsonable_key(k): _jsonable(v) for k, v in value.items()}
    return value


def _jsonable_key(key):
    """Dict keys: numpy scalars become Python scalars (JSON wants str/int)."""
    return key.item() if isinstance(key, np.generic) else key


def _read_shard_payload(path: Path, batch: str):
    """Parse and gate one shard result file — the single acceptance rule.

    Returns ``(payload, problem)``: the validated payload dict when the
    file is a readable, current-format shard file of ``batch`` (its
    ``job`` header and ``results`` table are then guaranteed present),
    else ``None`` plus a human-readable reason — or ``(None, None)``
    for a file that merely belongs to another campaign.  The strict
    merge scanner, the tolerant status scanner and the resume reader
    all go through here, so they can never disagree on what counts as
    a shard file.
    """
    try:
        # Shard files are UTF-8 by construction; never let the locale
        # decide how a result written on another machine is decoded.
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
        return None, f"shard file {path} is unreadable: {err}"
    if not isinstance(payload, dict) or payload.get("batch") != batch:
        return None, None  # another campaign sharing the directory
    if payload.get("format") != SHARD_FORMAT_VERSION:
        return None, (
            f"shard file {path} has format {payload.get('format')!r}, "
            f"expected {SHARD_FORMAT_VERSION}"
        )
    meta = payload.get("job")
    if not isinstance(meta, dict) or "job" not in meta:
        return None, f"shard file {path} has no job header"
    if not isinstance(payload.get("results"), dict):
        return None, f"shard file {path} has no results table"
    return payload, None


def write_job_results(
    out_dir: Path, ledger: CampaignLedger, meta: dict, outcomes: dict, report
) -> None:
    """Write one job's shard file, vouch for it and checkpoint the ledger.

    The one writer behind both a local :meth:`BatchService.run_shard`
    and ``fannet batch run --server``, so the two paths produce
    byte-identical artifacts.  The batch name and the 1-based shard
    position come from ``ledger``; ``report`` (a :class:`ShardRunReport`)
    records the written paths.  The write is atomic, so a kill during a
    resume's rewrite cannot tear a previously intact result file, and the
    ledger is saved after every job, so a kill between jobs loses at most
    the job in flight.
    """
    position, count = ledger.shard
    payload = {
        "format": SHARD_FORMAT_VERSION,
        "batch": ledger.batch,
        "shard": [position, count],
        "job": meta,
        "results": outcomes,
    }
    path = out_dir / shard_file_name(meta["job"], position - 1, count)
    atomic_write_bytes(
        path, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    )
    report.written.append(path)
    for identity, outcome in outcomes.items():
        ledger.record(meta["job"], meta["context"], identity, outcome)
    report.ledger_path = ledger.save(out_dir)


@dataclass
class ShardRunReport:
    """What one ``run_shard`` invocation did."""

    shard: tuple[int, int]  # 1-based (index, count)
    written: list[Path] = field(default_factory=list)
    executed: int = 0  # tasks actually run this invocation
    reused: int = 0  # tasks skipped via validated ledger entries
    ledger_path: Path | None = None


@dataclass
class JobStatus:
    """Per-job completion triage of one output directory."""

    job: str
    expected: int
    done: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    corrupt: list[str] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not (self.missing or self.corrupt or self.stale)

    def to_payload(self) -> dict:
        return {
            "job": self.job,
            "expected": self.expected,
            "done": len(self.done),
            "missing": self.missing,
            "corrupt": self.corrupt,
            "stale": self.stale,
        }


@dataclass
class CampaignStatus:
    """The whole directory's triage: ``fannet batch status``'s payload."""

    batch: str
    jobs: list[JobStatus] = field(default_factory=list)
    stray: list[str] = field(default_factory=list)  # present but unplanned
    problems: list[str] = field(default_factory=list)  # unreadable/conflicting files

    @property
    def complete(self) -> bool:
        """Whether :meth:`BatchService.merge` would accept this directory.

        Any recorded problem — an unreadable file, shards disagreeing on
        a header or a task — blocks completeness too: the strict merge
        scanner raises on exactly those findings, and status must never
        green-light a directory merge would reject.
        """
        return (
            all(job.complete for job in self.jobs)
            and not self.stray
            and not self.problems
        )

    @property
    def rerun(self) -> list[str]:
        """Every identity a resume pass would re-execute, sorted."""
        out = []
        for job in self.jobs:
            out.extend(job.missing)
            out.extend(job.corrupt)
            out.extend(job.stale)
        return sorted(out)

    def to_payload(self) -> dict:
        return {
            "batch": self.batch,
            "complete": self.complete,
            "jobs": [job.to_payload() for job in self.jobs],
            "stray": self.stray,
            "problems": self.problems,
        }


@dataclass
class _ShardScan:
    """Everything readable about one batch under an output directory."""

    results: dict = field(default_factory=dict)  # job -> identity -> outcome
    metas: dict = field(default_factory=dict)  # job -> shard-file header
    problems: list[str] = field(default_factory=list)  # tolerant mode only
    seen_any: bool = False


class BatchService:
    """Plan, execute, triage and merge one batch campaign."""

    def __init__(self, spec: BatchSpec):
        self.spec = spec
        self._planner = BatchPlanner(spec)
        self._plan: list[PlannedJob] | None = None

    @classmethod
    def from_manifest(cls, path) -> "BatchService":
        return cls(BatchSpec.from_manifest(path))

    def plan(self) -> list[PlannedJob]:
        """The expanded job list (cached — planning trains networks)."""
        if self._plan is None:
            self._plan = self._planner.plan()
        return self._plan

    # -- execution --------------------------------------------------------------

    def run_shard(
        self,
        shard_index: int,
        shard_count: int,
        out_dir: str | Path,
        resume: bool = False,
    ) -> ShardRunReport:
        """Execute shard ``shard_index`` (0-based) of ``shard_count``.

        Writes one ``<job>.shard-<i>-of-<N>.json`` per job that owns at
        least one task in this shard, plus the shard's ledger file (both
        updated after every job, so an interruption keeps everything
        finished so far).  With ``resume=True``, task results already in
        the directory whose ledger digest and context fingerprint
        validate are reused; only the gap — missing, corrupt or stale
        identities — is re-executed.  The rewritten files are canonical,
        so a resumed shard is byte-identical to an uninterrupted one.
        """
        if not 0 <= shard_index < shard_count:
            raise ConfigError(
                f"shard index {shard_index} out of range for {shard_count} shard(s)"
            )
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = ShardRunReport(shard=(shard_index + 1, shard_count))
        reusable = self._reusable_results(out_dir, shard_index, shard_count) if resume else {}
        # Carry the prior ledger forward: a run killed after its first
        # job must not have clobbered the vouchers for every later job's
        # still-valid on-disk results.  Entries this run recomputes are
        # overwritten job by job; leftovers for vanished results are
        # inert (status and resume trust files first, ledger second).
        ledger = CampaignLedger.load(
            out_dir / ledger_file_name(self.spec.name, shard_index, shard_count)
        )
        if ledger is None or ledger.batch != self.spec.name or tuple(
            ledger.shard
        ) != (shard_index + 1, shard_count):
            ledger = CampaignLedger(
                batch=self.spec.name, shard=(shard_index + 1, shard_count)
            )
        for job in self.plan():
            mine = job.shard_tasks(shard_index, shard_count)
            if not mine:
                continue
            outcomes: dict[str, object] = {}
            todo = []
            bucket = reusable.get(job.name, {})
            for planned in mine:
                # Membership, not get(): a probe outcome may *be* None.
                if planned.identity in bucket:
                    outcomes[planned.identity] = bucket[planned.identity]
                else:
                    todo.append(planned)
            report.reused += len(mine) - len(todo)
            if todo:
                runner = QueryRunner(
                    job.network,
                    job.spec.verifier,
                    self.spec.runtime,
                    data_digest=job.data_digest,
                )
                try:
                    fresh = runner.run_tasks([planned.task for planned in todo])
                finally:
                    runner.close()
                for planned, outcome in zip(todo, fresh):
                    outcomes[planned.identity] = _jsonable(outcome)
                report.executed += len(todo)
            write_job_results(out_dir, ledger, job.meta, outcomes, report)
        if report.ledger_path is None:  # shard owned no task at all
            report.ledger_path = ledger.save(out_dir)
        return report

    def _reusable_results(
        self, out_dir: Path, shard_index: int, shard_count: int
    ) -> dict[str, dict]:
        """Validated identity → outcome maps this shard may skip re-running.

        Reads this shard's own result files and ledger; an outcome is
        reusable only when the ledger's recorded digest matches the
        stored bytes *and* the recorded context fingerprint matches the
        current plan's — everything else re-executes.  No ledger, no
        reuse (correct, just slower).
        """
        ledger = CampaignLedger.load(
            out_dir / ledger_file_name(self.spec.name, shard_index, shard_count)
        )
        if ledger is None or ledger.batch != self.spec.name:
            return {}
        reusable: dict[str, dict] = {}
        for job in self.plan():
            path = out_dir / shard_file_name(job.name, shard_index, shard_count)
            payload, _ = _read_shard_payload(path, self.spec.name)
            if payload is None:
                continue  # dead, torn or foreign file: nothing to reuse
            context = job.meta["context"]
            bucket = reusable.setdefault(job.name, {})
            for identity, outcome in payload["results"].items():
                if ledger.verdict(identity, job.name, context, outcome) == "ok":
                    bucket[identity] = outcome
        return reusable

    # -- status ------------------------------------------------------------------

    def status(self, out_dir: str | Path) -> CampaignStatus:
        """Triage ``out_dir``: which planned identities are done/missing/bad.

        Tolerant by design — a truncated shard file or a corrupt ledger
        is a *finding*, not an exception; everything readable is
        classified against the current plan and the recorded ledgers.
        """
        out_dir = Path(out_dir)
        scan = self._scan_shards(out_dir, strict=False)
        ledgers = self._load_ledgers(out_dir)
        status = CampaignStatus(batch=self.spec.name, problems=list(scan.problems))
        expected_all: set[str] = set()
        for job in self.plan():
            expected = [planned.identity for planned in job.tasks]
            expected_all.update(expected)
            job_status = JobStatus(job=job.name, expected=len(expected))
            context = job.meta["context"]
            have = scan.results.get(job.name, {})
            meta = scan.metas.get(job.name)
            # Full header equality, exactly the merge-time gate: any
            # divergence from the current plan (context fingerprint,
            # spec echo, census) makes the recorded results stale —
            # status must never green-light what merge would reject.
            header_stale = meta is not None and meta != job.meta
            for identity in sorted(expected):
                if identity not in have:  # a probe outcome may be None
                    job_status.missing.append(identity)
                    continue
                outcome = have[identity]
                if header_stale:
                    job_status.stale.append(identity)
                    continue
                verdict = self._ledger_verdict(
                    ledgers, identity, job.name, context, outcome
                )
                if verdict == "corrupt":
                    job_status.corrupt.append(identity)
                elif verdict == "stale":
                    job_status.stale.append(identity)
                else:  # "ok", or no ledger vouches ("unknown") — the
                    # result exists and nothing contradicts it
                    job_status.done.append(identity)
            status.jobs.append(job_status)
        found = {
            identity
            for bucket in scan.results.values()
            for identity in bucket
        }
        status.stray = sorted(found - expected_all)
        return status

    @staticmethod
    def _ledger_verdict(ledgers, identity, job, context, outcome) -> str:
        """Fold every ledger's opinion: any 'ok' wins, else worst finding."""
        verdicts = {
            ledger.verdict(identity, job, context, outcome) for ledger in ledgers
        }
        for ranked in ("ok", "corrupt", "stale"):
            if ranked in verdicts:
                return ranked
        return "unknown"

    def _load_ledgers(self, out_dir: Path) -> list[CampaignLedger]:
        ledgers = []
        for path in sorted(out_dir.glob(f"{self.spec.name}.shard-*.ledger.json")):
            ledger = CampaignLedger.load(path)
            if ledger is not None and ledger.batch == self.spec.name:
                ledgers.append(ledger)
        return ledgers

    # -- merge -------------------------------------------------------------------

    def merge(self, out_dir: str | Path) -> ExperimentRecord:
        """Fold every shard file under ``out_dir`` into one aggregate record.

        Raises :class:`IncompleteCampaignError` (listing every missing
        task identity) when the shard set has gaps, and
        :class:`~repro.errors.DataError` when it is inconsistent (two
        shards disagreeing on one task, a job header that does not match
        the current plan — stale networks/datasets under an unchanged
        manifest — or syntactically broken files).
        """
        out_dir = Path(out_dir)
        scan = self._scan_shards(out_dir, strict=True)
        if not scan.seen_any:
            raise DataError(
                f"no shard files for batch {self.spec.name!r} under {out_dir}; "
                "run `fannet batch run` first"
            )
        missing_by_job: dict[str, list[str]] = {}
        jobs_payload = []
        for job in self.plan():  # sorted by name, the merge order contract
            expected = {planned.identity for planned in job.tasks}
            have = scan.results.get(job.name, {})
            meta = scan.metas.get(job.name)
            if meta is not None and meta != job.meta:
                raise DataError(
                    f"job {job.name!r}: shard-file header does not match the "
                    f"current plan (stale network/dataset/config under "
                    f"{out_dir}?); re-run the affected shards"
                )
            missing = sorted(expected - set(have))
            if missing:
                missing_by_job[job.name] = missing
                continue
            stray = sorted(set(have) - expected)
            if stray:
                raise DataError(
                    f"job {job.name!r} has result(s) for unplanned task(s) "
                    f"(first: {stray[0]!r}); the shard files under {out_dir} "
                    "were produced from a different manifest"
                )
            # A job whose slice yields zero tasks never wrote a shard
            # file; its header comes from this process's own plan.
            jobs_payload.append(_summarise_job(job, have, meta or job.meta))
        if missing_by_job:
            total = sum(len(v) for v in missing_by_job.values())
            preview = [
                identity
                for identities in missing_by_job.values()
                for identity in identities
            ][:8]
            raise IncompleteCampaignError(
                f"cannot merge an incomplete campaign: {total} task result(s) "
                f"missing under {out_dir} across job(s) "
                f"{', '.join(sorted(missing_by_job))} "
                f"(missing identities: {', '.join(preview)}"
                + (", ..." if total > len(preview) else "")
                + "); run `fannet batch status` for the full list and "
                "`fannet batch run --resume` to fill the gap",
                missing=missing_by_job,
            )
        # Canonical manifest echo: job order in the manifest is a
        # presentation detail and must not move a byte of the report.
        manifest = self.spec.to_dict()
        manifest["jobs"] = sorted(manifest["jobs"], key=lambda job: job["name"])
        record = ExperimentRecord(
            experiment_id=f"batch-{self.spec.name}",
            description=(
                f"merged batch campaign over {len(jobs_payload)} job(s); "
                "identical for every shard layout"
            ),
            parameters={"manifest": manifest},
            measured={
                "jobs": jobs_payload,
                "comparison": _comparison_series(jobs_payload),
            },
            expected_shape=(
                "per-job tolerance/extraction/probe summaries plus "
                "cross-network min-tolerance and bias-delta series"
            ),
        )
        return record

    def _scan_shards(self, out_dir: Path, strict: bool) -> _ShardScan:
        """Read every shard file of this batch under ``out_dir``.

        ``strict`` (the merge path) raises :class:`DataError` on the
        first unreadable or self-contradictory file; tolerant mode (the
        status path) records the same findings in ``scan.problems`` and
        keeps going.
        """
        scan = _ShardScan()

        def problem(message: str):
            if strict:
                raise DataError(message)
            scan.problems.append(message)

        for path in sorted(out_dir.glob("*.shard-*-of-*.json")):
            if path.name.endswith(".ledger.json"):
                continue  # completion bookkeeping, not results
            payload, issue = _read_shard_payload(path, self.spec.name)
            if payload is None:
                if issue is not None:
                    problem(issue)
                continue
            meta = payload["job"]
            name = meta["job"]
            scan.seen_any = True
            if name in scan.metas and scan.metas[name] != meta:
                problem(
                    f"shard files disagree on job {name!r}'s header (e.g. {path}); "
                    "shards were produced from different manifests or code versions"
                )
                continue
            scan.metas.setdefault(name, meta)
            bucket = scan.results.setdefault(name, {})
            for identity, outcome in payload["results"].items():
                if identity in bucket and bucket[identity] != outcome:
                    problem(
                        f"shard files disagree on task {identity!r} (e.g. {path}); "
                        "determinism violation or mixed manifests"
                    )
                    continue
                bucket[identity] = outcome
        return scan


# -- per-job summarisation ------------------------------------------------------


def _summarise_job(job: PlannedJob, results: dict, meta: dict) -> dict:
    spec = job.spec
    summary: dict = {
        "name": job.name,
        "context": meta["context"],
        "correctly_classified": meta["correctly_classified"],
        "sliced_inputs": meta["sliced_inputs"],
    }
    if meta.get("dataset_source") is not None:
        summary["dataset_source"] = meta["dataset_source"]
    if spec.tolerance is not None:
        summary["tolerance"] = _fold_tolerance(job, results)
    if spec.extraction is not None:
        summary["extraction"] = _fold_extraction(job, results, meta)
    if spec.probe is not None:
        summary["probe"] = _fold_probe(job, results)
    return summary


def _tasks_of(job: PlannedJob, kind: str):
    prefix = f"{job.identity_prefix}/{kind}/"
    return [p for p in job.tasks if p.identity.startswith(prefix)]


def _fold_tolerance(job: PlannedJob, results: dict) -> dict:
    per_input = []
    for planned in sorted(_tasks_of(job, "tolerance"), key=lambda p: p.task.index):
        outcome = results[planned.identity]
        per_input.append(
            {
                "index": planned.task.index,
                "true_label": planned.task.true_label,
                "min_flip_percent": outcome["min_flip_percent"],
                "witness": outcome["witness"],
                "flipped_to": outcome["flipped_to"],
            }
        )
    flips = sorted(
        entry["min_flip_percent"]
        for entry in per_input
        if entry["min_flip_percent"] is not None
    )
    ceiling = job.spec.tolerance.ceiling
    return {
        "ceiling": ceiling,
        # Largest ΔX with no counterexample for any input (paper: ±11).
        "tolerance": (min(flips) - 1) if flips else ceiling,
        "min_flip_percents": flips,  # the distribution, smallest first
        "min_flip_median": median(flips) if flips else None,
        "robust_at_ceiling": len(per_input) - len(flips),
        "per_input": per_input,
    }


def _fold_extraction(job: PlannedJob, results: dict, meta: dict) -> dict:
    from ..core.bias import BiasReport

    per_input = []
    flip_matrix: dict[tuple[int, int], int] = {}
    total = 0
    for planned in sorted(_tasks_of(job, "extract"), key=lambda p: p.task.index):
        outcome = results[planned.identity]
        true_label = planned.task.true_label
        count = len(outcome["vectors"])
        total += count
        per_input.append(
            {
                "index": planned.task.index,
                "true_label": true_label,
                "vectors": count,
                "exhausted": outcome["exhausted"],
            }
        )
        for wrong in outcome["flipped_to"]:
            key = (true_label, int(wrong))
            flip_matrix[key] = flip_matrix.get(key, 0) + 1

    # The paper's Eq.-4 criterion lives in core/bias.py, once.
    bias = BiasReport.from_census(
        {int(k): v for k, v in meta["train_class_counts"].items()},
        flip_matrix,
        noise_percent=job.spec.extraction.percent,
    )
    return {
        "percent": job.spec.extraction.percent,
        "total_vectors": total,
        "vulnerable_inputs": sum(1 for entry in per_input if entry["vectors"]),
        "per_input": per_input,
        "flip_matrix": {
            f"{true}->{wrong}": count
            for (true, wrong), count in sorted(flip_matrix.items())
        },
        "bias": {
            "training_majority_label": bias.training_majority_label,
            "training_majority_share": bias.training_majority_share,
            "majority_flip_share": bias.majority_flip_share,
            # How much more often flips land on the majority class than
            # its training share alone would predict (paper: ≈ +0.3).
            "delta": (
                bias.majority_flip_share - bias.training_majority_share
                if total
                else None
            ),
            "confirmed": bias.bias_confirmed,
        },
    }


def _fold_probe(job: PlannedJob, results: dict) -> dict:
    thresholds: dict[int, dict] = {}
    for planned in _tasks_of(job, "probe"):
        task = planned.task
        entry = thresholds.setdefault(task.node, {"node": task.node})
        entry["positive" if task.sign > 0 else "negative"] = results[planned.identity]
    return {
        "ceiling": job.spec.probe.ceiling,
        "thresholds": [thresholds[node] for node in sorted(thresholds)],
    }


# -- cross-network comparison ---------------------------------------------------


def _comparison_series(jobs_payload: list[dict]) -> dict:
    """The cross-job series the merge report tabulates.

    Plain data here; :mod:`repro.analysis.compare` renders the tables.
    """
    min_tolerance = []
    bias_delta = []
    for job in jobs_payload:
        tolerance = job.get("tolerance")
        if tolerance is not None:
            flips = tolerance["min_flip_percents"]
            min_tolerance.append(
                {
                    "job": job["name"],
                    "tolerance": tolerance["tolerance"],
                    "min_flip_min": flips[0] if flips else None,
                    "min_flip_median": tolerance["min_flip_median"],
                    "min_flip_max": flips[-1] if flips else None,
                    "robust_at_ceiling": tolerance["robust_at_ceiling"],
                    "inputs": len(tolerance["per_input"]),
                }
            )
        extraction = job.get("extraction")
        if extraction is not None:
            bias = extraction["bias"]
            bias_delta.append(
                {
                    "job": job["name"],
                    "percent": extraction["percent"],
                    "vectors": extraction["total_vectors"],
                    "training_majority_share": bias["training_majority_share"],
                    "majority_flip_share": bias["majority_flip_share"],
                    "delta": bias["delta"],
                    "confirmed": bias["confirmed"],
                }
            )
    return {"min_tolerance": min_tolerance, "bias_delta": bias_delta}
