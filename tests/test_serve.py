"""`fannet serve` daemon tests: failure modes, backpressure, shared caches.

The load-bearing properties:

- admission control sheds deterministically — a queue saturated past
  ``--max-pending`` answers 429 with a ``Retry-After`` hint and recovers
  once the backlog drains;
- malformed input of every shape (bad JSON, bad specs, bad HTTP) dies
  loudly as a 4xx, never as a hung connection or a daemon crash;
- a client vanishing mid-stream is the client's problem: the daemon
  stays healthy and the job runs to completion;
- concurrent clients on the same runtime context share one warm
  :class:`~repro.runtime.QueryRunner` — the second ladder is answered
  from the first's cache (exact and monotone-derived hits) — and the
  artifacts a ``--server`` campaign writes are byte-identical to the
  local CLI path's.

The shared module server runs the default runtime: each tolerance
ladder's bulk prepass memoises exact entries for the rungs it decides
(±1..12 here), so the derived-hit check asks a percent outside that
ladder, whose answer only a monotone fact can give.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.data import load_leukemia_case_study
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    running_server,
    run_batch_shard_via_server,
)
from repro.serve.jobs import JobQueue, QueueFullError
from repro.service import (
    BatchService,
    BatchSpec,
    DatasetSpec,
    JobSpec,
    ToleranceSpec,
)

#: test-split indices with known behaviour under the seed-7 network:
#: 0 is robust at ceiling 12, 10 flips at ±8%.
ROBUST_INDEX, EARLY_FLIP = 0, 10

TOLERANCE_JOB = {
    "kind": "tolerance",
    "job": {
        "name": "ladder",
        "dataset": {"indices": [EARLY_FLIP, ROBUST_INDEX]},
        "analyses": {"tolerance": {"ceiling": 12}},
    },
}


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(port=0, workers=2, max_pending=8)
    with running_server(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url)


def _half_close_exchange(server, blob: bytes, timeout: float = 10.0) -> bytes:
    """Send bytes, half-close the write side (EOF), read until close."""
    with socket.create_connection(
        (server.config.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(blob)
        sock.shutdown(socket.SHUT_WR)
        chunks = b""
        while True:
            piece = sock.recv(65536)
            if not piece:
                break
            chunks += piece
    return chunks


def _raw_exchange(server, blob: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, read until the daemon closes the connection."""
    with socket.create_connection(
        (server.config.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(blob)
        chunks = b""
        try:
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break
                chunks += piece
        except TimeoutError:
            pass
    return chunks


class TestJobQueueUnit:
    def test_sheds_past_the_bound(self):
        queue = JobQueue(max_pending=2)
        queue.submit("sleep", {})
        queue.submit("sleep", {})
        with pytest.raises(QueueFullError) as err:
            queue.submit("sleep", {})
        assert err.value.pending == 2
        assert err.value.retry_after_s >= 1

    def test_cancel_of_a_queued_job_is_immediate(self):
        queue = JobQueue(max_pending=4)
        job = queue.submit("sleep", {})
        queue.cancel(job.id)
        assert job.state == "cancelled" and job.done

    def test_done_retention_evicts_oldest_first(self):
        from repro.serve.jobs import DONE_RETENTION

        queue = JobQueue(max_pending=DONE_RETENTION + 10)
        jobs = [queue.submit("sleep", {}) for _ in range(DONE_RETENTION + 3)]
        for job in jobs:
            job.finish("done")
            queue.note_finished(job)
        assert queue.get(jobs[0].id) is None  # oldest evicted
        assert queue.get(jobs[-1].id) is jobs[-1]
        assert len(queue.jobs) == DONE_RETENTION

    def test_cancelled_queued_jobs_free_admission_capacity(self):
        # Regression: cancelling a queued job used to leave its stale
        # entry counted against max_pending until a worker drained it,
        # so submits could 429 with free slots.
        queue = JobQueue(max_pending=2)
        first = queue.submit("sleep", {})
        queue.submit("sleep", {})
        queue.cancel(first.id)
        assert queue.pending == 1
        replacement = queue.submit("sleep", {})  # raised QueueFullError before
        assert replacement.state == "queued"

        async def drain_two():
            one = await queue.next_job()
            two = await queue.next_job()
            return {one.id, two.id}

        # the stale entry for the cancelled job is skipped, not served
        picked = asyncio.run(drain_two())
        assert first.id not in picked and queue.pending == 0

    def test_cancelled_queued_jobs_are_retention_evicted(self):
        # Regression: cancelled-while-queued jobs never reached the
        # retention path, so the registry grew without bound.
        queue = JobQueue(max_pending=8, done_retention=2)
        cancelled = []
        for _ in range(4):
            job = queue.submit("sleep", {})
            queue.cancel(job.id)
            cancelled.append(job)
        assert len(queue.jobs) == 2  # bounded, oldest cancelled evicted
        assert queue.get(cancelled[0].id) is None
        assert queue.get(cancelled[-1].id) is cancelled[-1]

    def test_worker_side_eviction_is_marshalled_to_the_loop(self):
        # Regression: note_finished popped registry entries directly on
        # worker threads, racing the event loop's summaries()/counts()
        # iteration ("dictionary changed size during iteration").  The
        # eviction must now wait for the loop to run it.
        loop = asyncio.new_event_loop()
        try:
            queue = JobQueue(max_pending=8, done_retention=1)
            queue.bind_loop(loop)
            jobs = [queue.submit("sleep", {}) for _ in range(3)]
            for job in jobs:
                job.finish("done")
            worker = threading.Thread(
                target=lambda: [queue.note_finished(job) for job in jobs]
            )
            worker.start()
            worker.join()
            # nothing evicted yet: the callbacks are queued on the loop
            assert len(queue.jobs) == 3
            loop.run_until_complete(asyncio.sleep(0.05))
            assert len(queue.jobs) == 1
        finally:
            loop.close()


class TestMalformedRequests:
    def test_non_json_body_is_a_400(self, server, client):
        blob = b"{not json"
        head = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(blob)}\r\n\r\n"
        ).encode()
        reply = _raw_exchange(server, head + blob)
        assert b"400" in reply.split(b"\r\n", 1)[0]
        assert b"not valid JSON" in reply

    def test_empty_body_is_a_400(self, client):
        status, body, _ = client.request("POST", "/v1/jobs", None)
        assert status == 400 and "JSON" in body["error"]

    def test_unknown_kind_is_a_400(self, client):
        status, body, _ = client.request("POST", "/v1/jobs", {"kind": "frobnicate"})
        assert status == 400 and "frobnicate" in body["error"]

    def test_invalid_spec_is_a_400_not_a_worker_error(self, client):
        status, body, _ = client.request(
            "POST", "/v1/jobs",
            {"kind": "tolerance",
             "job": {"name": "bad", "dataset": {"limit": 3},
                     "analyses": {"tolerance": {}}}},
        )
        assert status == 400 and "limit" in body["error"]

    def test_missing_analysis_section_is_a_400(self, client):
        status, body, _ = client.request(
            "POST", "/v1/jobs",
            {"kind": "sensitivity",
             "job": {"name": "bad", "analyses": {"tolerance": {}}}},
        )
        assert status == 400 and "probe" in body["error"]

    def test_boolean_sleep_seconds_is_a_400(self, client):
        status, _, _ = client.request(
            "POST", "/v1/jobs", {"kind": "sleep", "seconds": True}
        )
        assert status == 400

    def test_malformed_request_line_is_a_400(self, server):
        reply = _raw_exchange(server, b"BOGUS\r\n\r\n")
        assert reply.split(b"\r\n", 1)[0].startswith(b"HTTP/1.1 400")

    def test_oversized_body_is_a_413_before_reading_it(self, server):
        from repro.serve.http import MAX_BODY_BYTES

        head = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode()
        reply = _raw_exchange(server, head)
        assert b"413" in reply.split(b"\r\n", 1)[0]

    def test_chunked_encoding_is_a_411(self, server):
        head = (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        reply = _raw_exchange(server, head)
        assert b"411" in reply.split(b"\r\n", 1)[0]

    def test_eof_mid_headers_is_a_hangup_not_a_routed_request(
        self, server, client
    ):
        # Regression: a client disconnecting after the request line used
        # to parse as a complete request with truncated headers and get
        # routed (a 200 here).  EOF before the blank header terminator
        # is a hang-up: the daemon answers nothing and stays healthy.
        for torn in (
            b"GET /healthz HTTP/1.1\r\n",           # EOF after the request line
            b"GET /healthz HTTP/1.1\r\nHost: x",    # EOF mid-header line
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n",  # EOF between headers
            b"GET /healthz HTTP",                   # EOF mid-request-line
        ):
            assert _half_close_exchange(server, torn) == b"", torn
        assert client.healthy()

    def test_unknown_route_and_job_are_404(self, client):
        assert client.request("GET", "/v1/nope")[0] == 404
        assert client.request("GET", "/v1/jobs/j999999")[0] == 404

    def test_wrong_method_is_a_405(self, client):
        assert client.request("DELETE", "/healthz")[0] == 405

    def test_result_of_an_unfinished_job_is_a_409(self, client):
        job = client.submit({"kind": "sleep", "seconds": 5})
        status, body, _ = client.request("GET", f"/v1/jobs/{job['id']}/result")
        assert status == 409 and job["id"] in body["error"]
        client.request("DELETE", f"/v1/jobs/{job['id']}")
        final = client.wait(job["id"], timeout_s=30)
        assert final["state"] == "cancelled"


class TestBackpressure:
    def test_saturated_queue_sheds_with_429_and_recovers(self):
        config = ServeConfig(port=0, workers=1, max_pending=1)
        with running_server(config) as server:
            client = ServeClient(server.url)
            running = client.submit({"kind": "sleep", "seconds": 2})
            # wait until the single worker holds it, so the next submit
            # is the queue's one allowed pending job
            deadline = time.monotonic() + 10
            while client.request("GET", f"/v1/jobs/{running['id']}")[1][
                "state"
            ] == "queued":
                assert time.monotonic() < deadline, "worker never picked up"
                time.sleep(0.05)
            queued = client.submit({"kind": "sleep", "seconds": 0})
            status, body, headers = client.request(
                "POST", "/v1/jobs", {"kind": "sleep", "seconds": 0}
            )
            assert status == 429
            assert headers.get("Retry-After", "").isdigit()
            assert "full" in body["error"]
            # the shed is at the door: the registry never saw the job
            assert client.stats()["queue"]["pending"] == 1
            # drain, then the daemon accepts again
            client.wait(queued["id"], timeout_s=30)
            again = client.submit({"kind": "sleep", "seconds": 0})
            assert client.wait(again["id"], timeout_s=30)["state"] == "done"

    def test_client_submit_backs_off_on_429(self):
        config = ServeConfig(port=0, workers=1, max_pending=1)
        with running_server(config) as server:
            client = ServeClient(server.url)
            ids = [
                client.submit({"kind": "sleep", "seconds": 0.3}, max_wait_s=60)["id"]
                for _ in range(4)  # > workers + max_pending: must back off
            ]
            for job_id in ids:
                assert client.wait(job_id, timeout_s=30)["state"] == "done"


class TestEventStream:
    def test_events_stream_ends_with_the_terminal_state(self, server, client):
        job = client.submit({"kind": "sleep", "seconds": 0.5})
        reply = _raw_exchange(
            server,
            f"GET /v1/jobs/{job['id']}/events HTTP/1.1\r\nHost: x\r\n\r\n".encode(),
            timeout=30.0,
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"application/x-ndjson" in head
        events = [json.loads(line) for line in body.splitlines() if line]
        assert events, "stream sent no snapshots"
        assert events[-1]["state"] == "done"
        versions = [event["version"] for event in events]
        assert versions == sorted(versions)  # monotonic progress

    def test_disconnect_mid_stream_leaves_the_daemon_healthy(self, server, client):
        job = client.submit({"kind": "sleep", "seconds": 1.5})
        with socket.create_connection(
            (server.config.host, server.port), timeout=10
        ) as sock:
            sock.sendall(
                f"GET /v1/jobs/{job['id']}/events HTTP/1.1\r\n"
                "Host: x\r\n\r\n".encode()
            )
            sock.recv(1024)  # read a little, then vanish mid-stream
        assert client.healthy()
        final = client.wait(job["id"], timeout_s=30)
        assert final["state"] == "done"  # the job outlived its watcher


class TestSharedCacheConcurrency:
    def test_same_context_jobs_share_the_warm_cache(self, client):
        first = client.run_and_fetch(TOLERANCE_JOB, timeout_s=300)
        before = client.stats()
        second = client.run_and_fetch(TOLERANCE_JOB, timeout_s=300)
        after = client.stats()
        # bit-identical answers, exactly one pooled runner for the context
        assert first["jobs"][0]["results"] == second["jobs"][0]["results"]
        context = first["jobs"][0]["job"]["context"]
        runners = [r for r in after["runners"] if r["context"] == context]
        assert len(runners) == 1
        assert runners[0]["jobs_served"] >= 2
        # the second ladder was answered from the first's stored verdicts
        hits_before = sum(r["cache"]["hits"] for r in before["runners"])
        hits_after = sum(r["cache"]["hits"] for r in after["runners"])
        assert hits_after > hits_before

    def test_monotone_facts_answer_new_percents_derived(self, client):
        client.run_and_fetch(TOLERANCE_JOB, timeout_s=300)  # warm the facts
        data = load_leukemia_case_study()
        x = [int(v) for v in np.asarray(data.test.features[EARLY_FLIP])]
        label = int(data.test.labels[EARLY_FLIP])
        before = sum(
            r["cache"]["derived_hits"] for r in client.stats()["runners"]
        )
        # the ladder (ceiling 12) proved vulnerable at ±8%; ±20% lies
        # outside the ±1..12 rungs the prepass memoised, so this answer
        # must come from the monotone fact, not an engine.
        # Cache keys carry the dataset index, so the query names it.
        verdict = client.run_and_fetch(
            {"kind": "verify", "input": x, "true_label": label,
             "percent": 20, "index": EARLY_FLIP},
            timeout_s=120,
        )
        after = sum(
            r["cache"]["derived_hits"] for r in client.stats()["runners"]
        )
        assert verdict["status"] == "vulnerable"
        assert after > before

    def test_server_batch_artifacts_match_the_local_cli_path(
        self, client, tmp_path
    ):
        spec = BatchSpec(
            name="parity",
            jobs=(
                JobSpec(
                    name="ladder",
                    dataset=DatasetSpec(indices=(EARLY_FLIP, ROBUST_INDEX)),
                    tolerance=ToleranceSpec(ceiling=12),
                ),
            ),
        )
        local_dir, server_dir = tmp_path / "local", tmp_path / "server"
        BatchService(spec).run_shard(0, 1, local_dir)
        run_batch_shard_via_server(client, spec, 0, 1, server_dir)
        local_files = sorted(p.name for p in local_dir.iterdir())
        assert local_files == sorted(p.name for p in server_dir.iterdir())
        for name in local_files:
            assert (local_dir / name).read_bytes() == (
                server_dir / name
            ).read_bytes(), f"{name} differs between local and server paths"


class TestServeClientErrors:
    def test_unreachable_server_raises_a_named_error(self):
        client = ServeClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServeClientError, match="could not reach"):
            client.request("GET", "/healthz")
        assert not client.healthy()

    def test_failed_job_error_reaches_the_client(self, client):
        # a file-network spec whose path vanishes between submit and run
        job = client.submit(
            {
                "kind": "tolerance",
                "job": {
                    "name": "doomed",
                    "network": {"kind": "file", "path": "/nonexistent/net.json"},
                    "analyses": {"tolerance": {}},
                },
            }
        )
        final = client.wait(job["id"], timeout_s=60)
        assert final["state"] == "error"
        with pytest.raises(ServeClientError, match="500"):
            client.result(job["id"])
