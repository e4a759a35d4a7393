"""Client side of the daemon: small HTTP client + batch ``--server`` mode.

:class:`ServeClient` is a deliberately thin stdlib-only wrapper over
``http.client`` (one request per connection, matching the daemon's
framing; no proxy-environment surprises, which matters in CI).  It
knows the three verbs a campaign needs — submit (with 429/
``Retry-After`` backoff), poll-until-terminal, fetch result — and maps
server-reported errors onto :class:`ServeClientError`.

:func:`run_batch_shard_via_server` is the ``fannet batch run --server``
implementation: it ships the manifest to the daemon as one ``batch``
job, waits, then writes the *identical* artifacts a local
``BatchService.run_shard`` would have written — per-job shard files and
the campaign ledger, canonical JSON through the same atomic writer.
Outcome values survive the HTTP hop exactly (JSON round-trips ints,
floats — via ``repr`` — lists and nulls bit-for-bit), canonical dumps
erase ordering, and the runtime's determinism contract erases cache
warmth, so the files are byte-identical to the local path's: every
downstream consumer (``status``, ``merge``, resume) works unchanged,
and CI byte-compares the two paths to keep it that way.
"""

# lint: canonical-json — every JSON payload this module emits is
# digest- or artifact-bound and must serialise byte-stably.
from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from urllib.parse import urlsplit

from ..errors import ReproError
from ..service import BatchSpec, CampaignLedger, ShardRunReport
from ..service.service import write_job_results

#: Default per-request socket timeout (seconds).  Generous: one request
#: may be a result fetch for a large shard.
REQUEST_TIMEOUT_S = 300.0

#: Default status-poll interval (seconds).
POLL_INTERVAL_S = 0.25

#: How long :meth:`ServeClient.wait` tolerates an unreachable daemon
#: before giving up — the window in which a journal-backed daemon
#: restart (deploy, crash + supervisor respawn) looks like a blip, not
#: a failure.  The replayed journal re-admits the awaited job, so
#: polling simply resumes where it left off.
RECONNECT_WINDOW_S = 60.0


class ServeClientError(ReproError):
    """A daemon interaction failed (transport or server-reported)."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ServeClient:
    """Talk to one ``fannet serve`` daemon."""

    def __init__(self, base_url: str, timeout: float = REQUEST_TIMEOUT_S):
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if split.scheme not in ("", "http"):
            raise ServeClientError(
                f"unsupported server URL scheme {split.scheme!r} (http only)"
            )
        if not split.hostname:
            raise ServeClientError(f"server URL {base_url!r} has no host")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout

    # -- transport ---------------------------------------------------------------

    def request(self, method: str, path: str, payload=None):
        """One request; returns ``(status, parsed_body, headers)``."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            blob = response.read()
            status = response.status
            response_headers = dict(response.getheaders())
        except (OSError, HTTPException) as err:
            raise ServeClientError(
                f"could not reach fannet serve at {self.host}:{self.port}: {err}"
            ) from None
        finally:
            conn.close()
        parsed = None
        if blob:
            try:
                parsed = json.loads(blob.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise ServeClientError(
                    f"server sent undecodable JSON for {method} {path}: {err}",
                    status=status,
                )
        return status, parsed, response_headers

    @staticmethod
    def _error_of(body, status: int, what: str) -> ServeClientError:
        message = body.get("error") if isinstance(body, dict) else None
        return ServeClientError(
            f"{what} failed with HTTP {status}: {message or 'no detail'}",
            status=status,
        )

    # -- the three campaign verbs ------------------------------------------------

    def submit(self, payload: dict, max_wait_s: float = 600.0) -> dict:
        """Submit a job, backing off on 429 until ``max_wait_s`` elapses."""
        deadline = time.monotonic() + max_wait_s
        while True:
            status, body, headers = self.request("POST", "/v1/jobs", payload)
            if status == 202:
                return body
            if status == 429 and time.monotonic() < deadline:
                try:
                    pause = float(headers.get("Retry-After", "1"))
                except ValueError:
                    pause = 1.0
                time.sleep(min(max(pause, 0.1), 10.0))
                continue
            raise self._error_of(body, status, "job submission")

    def wait(
        self,
        job_id: str,
        poll_s: float = POLL_INTERVAL_S,
        timeout_s: float | None = None,
        reconnect_s: float = RECONNECT_WINDOW_S,
    ) -> dict:
        """Poll one job until it reaches a terminal state.

        A daemon that bounces mid-wait (restart, crash + respawn) shows
        up as transport errors; those are tolerated for up to
        ``reconnect_s`` consecutive seconds before the wait fails, so a
        journal-backed restart — which re-admits the job and keeps
        serving its result — is survived transparently.  Server-reported
        errors (a real HTTP status) still fail immediately.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        down_since: float | None = None
        while True:
            try:
                status, body, _ = self.request("GET", f"/v1/jobs/{job_id}")
            except ServeClientError as err:
                if err.status is not None:
                    raise  # the server answered; this is not an outage
                now = time.monotonic()
                if down_since is None:
                    down_since = now
                if now - down_since > reconnect_s:
                    raise ServeClientError(
                        f"daemon unreachable for {reconnect_s}s while waiting "
                        f"for job {job_id}: {err}"
                    ) from None
                time.sleep(max(poll_s, 0.05))
                continue
            down_since = None
            if status != 200:
                raise self._error_of(body, status, f"status poll for {job_id}")
            if body.get("state") in ("done", "error", "cancelled"):
                return body
            if deadline is not None and time.monotonic() > deadline:
                raise ServeClientError(
                    f"job {job_id} still {body.get('state')!r} after {timeout_s}s"
                )
            time.sleep(poll_s)

    def result(self, job_id: str):
        """Fetch a done job's result (raises with the server's error otherwise)."""
        status, body, _ = self.request("GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            raise self._error_of(body, status, f"result fetch for {job_id}")
        return body["result"]

    # -- convenience -------------------------------------------------------------

    def healthy(self) -> bool:
        try:
            status, _, _ = self.request("GET", "/healthz")
        except ServeClientError:
            return False
        return status == 200

    def stats(self) -> dict:
        status, body, _ = self.request("GET", "/v1/stats")
        if status != 200:
            raise self._error_of(body, status, "stats fetch")
        return body

    def run_and_fetch(
        self, payload: dict, poll_s: float = POLL_INTERVAL_S,
        timeout_s: float | None = None,
    ):
        """submit → wait → result, in one call."""
        job_id = self.submit(payload)["id"]
        final = self.wait(job_id, poll_s=poll_s, timeout_s=timeout_s)
        if final["state"] != "done":
            raise ServeClientError(
                f"job {job_id} ended {final['state']!r}: "
                f"{final.get('error', 'no detail')}"
            )
        return self.result(job_id)


def run_batch_shard_via_server(
    client: ServeClient,
    spec: BatchSpec,
    shard_index: int,
    shard_count: int,
    out_dir,
    poll_s: float = POLL_INTERVAL_S,
    timeout_s: float | None = None,
) -> ShardRunReport:
    """Execute one batch shard on the daemon; write the local artifacts.

    ``shard_index`` is 0-based, mirroring ``BatchService.run_shard``.
    The daemon executes every task of the shard (its per-context cache
    pool makes repeats cheap); this function then writes the same
    shard files and ledger a local run would have, so ``fannet batch
    status | merge`` and later resumed local runs see no difference.
    """
    result = client.run_and_fetch(
        {
            "kind": "batch",
            "manifest": spec.to_dict(),
            "shard": [shard_index + 1, shard_count],
        },
        poll_s=poll_s,
        timeout_s=timeout_s,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ShardRunReport(shard=(shard_index + 1, shard_count))
    report.executed = int(result.get("executed", 0))
    ledger = CampaignLedger(batch=spec.name, shard=(shard_index + 1, shard_count))
    for entry in result["jobs"]:
        write_job_results(out_dir, ledger, entry["job"], entry["results"], report)
    if report.ledger_path is None:  # shard owned no task at all
        report.ledger_path = ledger.save(out_dir)
    return report


__all__ = [
    "POLL_INTERVAL_S",
    "RECONNECT_WINDOW_S",
    "REQUEST_TIMEOUT_S",
    "ServeClient",
    "ServeClientError",
    "run_batch_shard_via_server",
]
