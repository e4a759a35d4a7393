"""The daemon's HTTP/JSON application: routes, validation, job executors.

API surface (all JSON; one request per connection):

- ``GET  /healthz`` — liveness probe;
- ``GET  /v1/stats`` — queue depth, per-context runner/cache counters;
- ``POST /v1/jobs`` — submit a job; ``202`` with the job id, ``429`` +
  ``Retry-After`` when the pending queue is full, ``400`` on malformed
  bodies (bad JSON, unknown kind, invalid specs — validated eagerly at
  submit so clients fail fast, not minutes later in a worker);
- ``GET  /v1/jobs`` — every registered job's status;
- ``GET  /v1/jobs/<id>`` — one job's status (poll target);
- ``GET  /v1/jobs/<id>/events`` — NDJSON stream of status snapshots
  until the job reaches a terminal state (live progress);
- ``GET  /v1/jobs/<id>/result`` — the result once ``done`` (``409``
  while still queued/running, ``500`` carrying the error message when
  the job failed);
- ``DELETE /v1/jobs/<id>`` — cancel (queued jobs die immediately;
  running jobs stop at the next task boundary).

Job kinds:

- ``verify`` — one robustness query: network spec + input + percent;
- ``tolerance`` / ``extraction`` / ``sensitivity`` — one analysis over
  one :class:`~repro.service.spec.JobSpec` (the manifest ``job``
  section, with the matching ``analyses`` entry);
- ``batch`` — a whole batch manifest (optionally one shard of it);
  the payload mirrors ``fannet batch run``, which is exactly how the
  batch CLI's ``--server`` mode uses it;
- ``sleep`` — an operational no-op that holds a worker for N seconds;
  the smoke probe for queue/backpressure behaviour.

Execution runs on worker threads; every analysis-bearing kind resolves
to planned tasks executed through the shared per-context
:class:`~repro.serve.runners.RunnerPool`, with a cache flush after each
job (the ledger-style checkpoint discipline of the batch plane) and a
progress snapshot after every task.  Task outcomes are produced by the
same planner/runtime path as the CLI, so an HTTP-submitted ladder is
bit-identical to its ``fannet batch run`` equivalent.
"""

# lint: canonical-json — every JSON payload this module emits is
# digest- or artifact-bound and must serialise byte-stably.
from __future__ import annotations

import asyncio
import json
import threading
import time

from ..config import VerifierConfig
from ..data import load_leukemia_case_study
from ..errors import ConfigError, DataError, ReproError
from ..service import BatchService, BatchSpec, JobSpec, NetworkSpec
from ..service.planner import build_network
from ..service.service import _jsonable, _summarise_job
from .http import HttpError, Request, Response, StreamResponse
from .jobs import DONE_RETENTION, Job, JobCancelled, JobQueue, QueueFullError
from .runners import RunnerPool

#: Job kinds the daemon accepts.
JOB_KINDS = ("verify", "tolerance", "extraction", "sensitivity", "batch", "sleep")

#: Single-analysis kinds → the JobSpec analysis section they require.
_ANALYSIS_OF = {"tolerance": "tolerance", "extraction": "extraction",
                "sensitivity": "probe"}

#: Ceiling on the operational sleep kind.
MAX_SLEEP_S = 60.0

#: Poll interval of the events stream (seconds).
EVENTS_POLL_S = 0.05


class ServeApp:
    """Routes, the job queue, the runner pool and the executors."""

    def __init__(
        self,
        workers: int,
        max_pending: int,
        runtime=None,
        done_retention: int = DONE_RETENTION,
    ):
        self.workers = workers
        self.queue = JobQueue(max_pending, done_retention=done_retention)
        self.runners = RunnerPool(runtime)
        self.journal = None
        self.started_at = time.time()
        self._net_mutex = threading.Lock()
        self._networks: dict[NetworkSpec, object] = {}
        self._case_study = None

    def attach_journal(self, journal) -> dict:
        """Wire a :class:`~repro.serve.journal.JobJournal` and replay it.

        Re-admits every journaled job without a terminal record in
        submission order (jobs caught *running* by the crash simply
        re-execute — warm per-context caches make the redo cheap), keeps
        finished jobs answerable through the journal's retained terminal
        records, and continues the job-id serial past everything
        replayed.  Returns a boot report: ``{"queued": n, "rerun": n,
        "finished": n, "warnings": [...]}``.
        """
        self.journal = journal
        self.queue.journal = journal
        replayed = journal.replay_jobs()
        for job in replayed:
            self.queue.restore(job)
        self.queue.resume_serials(journal.max_serial)
        return {
            "queued": sum(1 for job in replayed if job.state == "queued"),
            "rerun": sum(1 for job in replayed if job.state == "running"),
            "finished": journal.stats_payload()["terminal"],
            "warnings": list(journal.warnings),
        }

    # -- routing -----------------------------------------------------------------

    async def handle(self, request: Request) -> Response | StreamResponse:
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            self._require(request, "GET")
            return Response.json({"ok": True, "uptime_s": self._uptime()})
        if path == "/v1/stats":
            self._require(request, "GET")
            return Response.json(self._stats_payload())
        if path == "/v1/jobs":
            if request.method == "POST":
                return self._submit(request)
            self._require(request, "GET")
            return Response.json({"jobs": self.queue.summaries()})
        parts = path.strip("/").split("/")
        if len(parts) in (3, 4) and parts[0] == "v1" and parts[1] == "jobs":
            job, live = self._lookup(parts[2])
            if job is None:
                raise HttpError(404, f"no such job: {parts[2]!r}")
            if len(parts) == 3:
                if request.method == "DELETE":
                    if live:
                        self.queue.cancel(job.id)
                    return Response.json(job.status_payload())
                self._require(request, "GET")
                return Response.json(job.status_payload())
            if parts[3] == "result":
                self._require(request, "GET")
                return self._result(job)
            if parts[3] == "events":
                self._require(request, "GET")
                return StreamResponse(chunks=self._events(job))
        raise HttpError(404, f"no route for {request.path!r}")

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(405, f"{request.path} only supports {method}")

    def _uptime(self) -> float:
        return round(time.time() - self.started_at, 3)

    def _lookup(self, job_id: str):
        """``(job, live)`` — the registry's live job, or a read-only view
        reconstructed from the journal's terminal records.

        The journal view is what keeps two classes of job answerable:
        jobs finished before a daemon restart, and jobs FIFO-evicted
        from the bounded registry while their (slow) submitter was
        still between polls — both would otherwise 404 on success.
        """
        job = self.queue.get(job_id)
        if job is not None:
            return job, True
        if self.journal is not None:
            record = self.journal.terminal_record(job_id)
            if record is not None:
                return (
                    Job(
                        id=record["id"],
                        kind=record.get("kind", "unknown"),
                        payload={},
                        state=record["state"],
                        result=record.get("result"),
                        error=record.get("error"),
                        version=int(record.get("version", 0)),
                    ),
                    False,
                )
        return None, False

    # -- submission --------------------------------------------------------------

    def _submit(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "job submission must be a JSON object")
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise HttpError(
                400, f"unknown job kind {kind!r} (one of: {', '.join(JOB_KINDS)})"
            )
        try:
            self._validate(kind, payload)
        except (ConfigError, DataError) as err:
            raise HttpError(400, f"invalid {kind} job: {err}") from None
        try:
            job = self.queue.submit(kind, payload)
        except QueueFullError as err:
            raise HttpError(
                429, str(err), headers={"Retry-After": str(err.retry_after_s)}
            ) from None
        body = job.status_payload()
        body["links"] = {
            "status": f"/v1/jobs/{job.id}",
            "events": f"/v1/jobs/{job.id}/events",
            "result": f"/v1/jobs/{job.id}/result",
        }
        return Response.json(body, status=202)

    def _validate(self, kind: str, payload: dict) -> None:
        """Cheap eager validation (specs parse; no training, no file I/O)."""
        if kind == "sleep":
            seconds = payload.get("seconds", 0)
            if not isinstance(seconds, (int, float)) or isinstance(seconds, bool) or \
                    not 0 <= seconds <= MAX_SLEEP_S:
                raise ConfigError(
                    f"sleep 'seconds' must be a number in [0, {MAX_SLEEP_S}]"
                )
            return
        if kind == "verify":
            self._verify_parts(payload)
            return
        if kind == "batch":
            spec, shard = self._batch_parts(payload)
            del spec, shard
            return
        self._single_job_spec(kind, payload)

    @staticmethod
    def _verify_parts(payload: dict):
        network = NetworkSpec.from_dict(payload.get("network") or {})
        verifier = VerifierConfig.from_dict(payload.get("verifier") or {})
        x = payload.get("input")
        if not isinstance(x, list) or not x or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in x
        ):
            raise ConfigError("verify 'input' must be a non-empty list of integers")
        label = payload.get("true_label")
        if not isinstance(label, int) or isinstance(label, bool):
            raise ConfigError("verify 'true_label' must be an integer")
        percent = payload.get("percent")
        if not isinstance(percent, int) or isinstance(percent, bool) or percent < 1:
            raise ConfigError("verify 'percent' must be an integer >= 1")
        index = payload.get("index", -1)
        if not isinstance(index, int) or isinstance(index, bool):
            raise ConfigError("verify 'index' must be an integer")
        return network, verifier, tuple(x), label, percent, index

    @staticmethod
    def _batch_parts(payload: dict) -> tuple[BatchSpec, tuple[int, int]]:
        manifest = payload.get("manifest")
        if not isinstance(manifest, dict):
            raise ConfigError("batch job needs a 'manifest' mapping")
        spec = BatchSpec.from_dict(manifest)
        shard = payload.get("shard", [1, 1])
        if (
            not isinstance(shard, list)
            or len(shard) != 2
            or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in shard
            )
            or shard[1] < 1
            or not 1 <= shard[0] <= shard[1]
        ):
            raise ConfigError("batch 'shard' must be [i, N] with 1 <= i <= N")
        return spec, (shard[0] - 1, shard[1])

    @staticmethod
    def _single_job_spec(kind: str, payload: dict) -> JobSpec:
        section = payload.get("job")
        if not isinstance(section, dict):
            raise ConfigError(f"{kind} job needs a 'job' mapping (manifest job shape)")
        if "name" not in section:
            section = dict(section, name="adhoc")
        spec = JobSpec.from_dict(section)
        required = _ANALYSIS_OF[kind]
        if getattr(spec, required) is None:
            raise ConfigError(
                f"{kind} job must define the 'analyses.{required}' section"
            )
        return spec

    # -- results / events --------------------------------------------------------

    def _result(self, job) -> Response:
        if job.state == "done":
            return Response.json(
                {"id": job.id, "kind": job.kind, "state": job.state,
                 "result": job.result}
            )
        if job.state == "error":
            return Response.json(
                {"id": job.id, "kind": job.kind, "state": job.state,
                 "error": job.error},
                status=500,
            )
        if job.state == "cancelled":
            raise HttpError(409, f"job {job.id} was cancelled")
        raise HttpError(
            409,
            f"job {job.id} is still {job.state}; poll /v1/jobs/{job.id} "
            "or stream /v1/jobs/{id}/events",
        )

    async def _events(self, job):
        """NDJSON status snapshots until the job terminates."""
        last = -1
        while True:
            if job.version != last:
                last = job.version
                snapshot = job.status_payload()
                yield (json.dumps(snapshot, sort_keys=True) + "\n").encode("utf-8")
                if snapshot["state"] in ("done", "error", "cancelled"):
                    return
            await asyncio.sleep(EVENTS_POLL_S)

    def _stats_payload(self) -> dict:
        payload = {
            "uptime_s": self._uptime(),
            "workers": self.workers,
            "queue": {
                "pending": self.queue.pending,
                "max_pending": self.queue.max_pending,
                "jobs": self.queue.counts(),
            },
            "runners": self.runners.stats(),
        }
        if self.journal is not None:
            payload["journal"] = self.journal.stats_payload()
        return payload

    # -- execution (worker threads) ----------------------------------------------

    def execute(self, job) -> None:
        """Run one job to a terminal state; never raises (worker thread)."""
        try:
            if job.cancel_requested:
                raise JobCancelled(f"job {job.id} cancelled before start")
            if job.kind == "sleep":
                result = self._run_sleep(job)
            elif job.kind == "verify":
                result = self._run_verify(job)
            else:
                result = self._run_campaign(job)
        except JobCancelled:
            job.finish("cancelled")
        except ReproError as err:
            job.finish("error", error=str(err))
        except Exception as err:  # a worker must never take the daemon down
            job.finish("error", error=f"internal error: {err!r}")
        else:
            job.finish("done", result=result)
        finally:
            self.queue.note_finished(job)

    def _run_sleep(self, job) -> dict:
        deadline = time.monotonic() + float(job.payload.get("seconds", 0))
        while time.monotonic() < deadline:
            if job.cancel_requested:
                raise JobCancelled(f"job {job.id} cancelled")
            time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
        return {"slept_s": float(job.payload.get("seconds", 0))}

    def _run_verify(self, job) -> dict:
        network_spec, verifier, x, label, percent, index = self._verify_parts(
            job.payload
        )
        network = self._network_for(network_spec)
        job.advance({"phase": "verify", "total": 1, "done": 0})
        with self.runners.lease(network, verifier) as runner:
            result = runner.verify_at(x, label, percent, index=index)
            runner.flush()
        job.advance({"phase": "verify", "total": 1, "done": 1})
        return _jsonable(
            {
                "status": result.status.value,
                "witness": list(result.witness) if result.witness is not None else None,
                "predicted_label": result.predicted_label,
                "engine": result.engine,
                "percent": percent,
            }
        )

    def _run_campaign(self, job) -> dict:
        """tolerance/extraction/sensitivity/batch — all via the batch planner."""
        if job.kind == "batch":
            spec, (shard_index, shard_count) = self._batch_parts(job.payload)
        else:
            job_spec = self._single_job_spec(job.kind, job.payload)
            spec = BatchSpec(name=f"serve-{job.kind}", jobs=(job_spec,))
            shard_index, shard_count = 0, 1
        service = BatchService(spec)
        job.advance({"phase": "planning"})
        plan = service.plan()
        owned = [
            (planned, planned.shard_tasks(shard_index, shard_count))
            for planned in plan
        ]
        total = sum(len(tasks) for _, tasks in owned)
        done = 0
        jobs_out = []
        for planned_job, tasks in owned:
            if not tasks:
                continue
            outcomes: dict[str, object] = {}
            with self.runners.lease(
                planned_job.network,
                planned_job.spec.verifier,
                planned_job.data_digest,
            ) as runner:
                for planned in tasks:
                    if job.cancel_requested:
                        raise JobCancelled(f"job {job.id} cancelled")
                    value = runner.run_tasks([planned.task])[0]
                    outcomes[planned.identity] = _jsonable(value)
                    done += 1
                    job.advance(
                        {"phase": planned_job.name, "total": total, "done": done}
                    )
                # Checkpoint discipline mirrors the batch plane's ledger
                # writes: every finished job's warmth survives a crash.
                runner.flush()
            entry = {"job": planned_job.meta, "results": outcomes}
            if len(tasks) == len(planned_job.tasks):
                # The shard covers the whole job: fold the same per-job
                # summary the merge plane would compute.
                entry["summary"] = _jsonable(
                    _summarise_job(planned_job, outcomes, planned_job.meta)
                )
            jobs_out.append(entry)
        return {
            "batch": spec.name,
            "shard": [shard_index + 1, shard_count],
            "executed": done,
            "jobs": jobs_out,
        }

    def _case_study_data(self):
        """The case study every case-study network trains on, loaded once."""
        with self._net_mutex:
            if self._case_study is None:
                self._case_study = load_leukemia_case_study()
            return self._case_study

    def _network_for(self, spec: NetworkSpec):
        """Quantised network for a spec (cached; built by the planner's builder)."""
        with self._net_mutex:
            cached = self._networks.get(spec)
        if cached is not None:
            return cached
        quantized = build_network(spec, self._case_study_data)
        with self._net_mutex:
            return self._networks.setdefault(spec, quantized)

    # -- shutdown ----------------------------------------------------------------

    def shutdown(self) -> None:
        self.runners.close_all()
        if self.journal is not None:
            self.journal.close()
