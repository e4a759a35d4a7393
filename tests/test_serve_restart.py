"""Crash-safety of the serve plane: the job journal and restart resume.

The load-bearing properties:

- every acknowledged job survives a daemon death: queued jobs are
  re-admitted in submission order, jobs caught running re-execute, and
  finished jobs keep answering status/result requests from the journal
  — across both a graceful stop and a SIGKILL;
- a SIGKILL between two jobs of a batch campaign, followed by a restart
  onto the same ``--journal-dir``/``--cache-dir``, completes the
  campaign with shard files, ledger and merged report **byte-identical**
  to an uninterrupted local run (the client's ``wait`` reconnects
  through the bounce on its own);
- journal corruption of every shape — truncated tail record, garbage
  bytes, a torn result — degrades to a warned partial replay, never a
  crash;
- the bounded in-memory registry can evict a finished job before its
  (slow) submitter's next poll; with a journal the status/result
  endpoints keep answering from the retained terminal records instead
  of 404ing a successful job.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.analysis import save_record
from repro.serve import (
    JOURNAL_FILE_NAME,
    JobJournal,
    ServeClient,
    ServeClientError,
    ServeConfig,
    run_batch_shard_via_server,
    running_server,
)
from repro.service import (
    BatchService,
    BatchSpec,
    DatasetSpec,
    JobSpec,
    ToleranceSpec,
)
from repro.service.ledger import outcome_digest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Two single-input tolerance jobs: enough work that a SIGKILL can land
#: between them, cheap enough to re-run after the restart.
KILL_SPEC = BatchSpec(
    name="killsafe",
    jobs=(
        JobSpec(
            name="flip",
            dataset=DatasetSpec(indices=(10,)),
            tolerance=ToleranceSpec(ceiling=12),
        ),
        JobSpec(
            name="robust",
            dataset=DatasetSpec(indices=(0,)),
            tolerance=ToleranceSpec(ceiling=12),
        ),
    ),
)


def _write_journal(directory: Path, lines: list[str]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / JOURNAL_FILE_NAME
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _meta() -> str:
    return json.dumps({"format": 1, "type": "meta"}, sort_keys=True)


def _submitted(job_id: str, kind: str = "sleep", payload: dict | None = None) -> str:
    return json.dumps(
        {
            "type": "submitted",
            "id": job_id,
            "kind": kind,
            "payload": payload or {"seconds": 0},
            "submitted_at": 1.0,
        },
        sort_keys=True,
    )


def _finished_done(job_id: str, result) -> str:
    return json.dumps(
        {
            "type": "finished",
            "id": job_id,
            "kind": "sleep",
            "state": "done",
            "result": result,
            "digest": outcome_digest(result),
            "version": 3,
        },
        sort_keys=True,
    )


class TestJournalReplayUnit:
    def test_round_trip_replays_live_and_terminal_state(self, tmp_path):
        _write_journal(
            tmp_path,
            [
                _meta(),
                _submitted("j000001"),
                _submitted("j000002"),
                json.dumps({"type": "running", "id": "j000002"}),
                _submitted("j000003"),
                _finished_done("j000001", {"slept_s": 0}),
            ],
        )
        journal = JobJournal(tmp_path)
        assert journal.warnings == []
        replayed = journal.replay_jobs()
        assert [job.id for job in replayed] == ["j000002", "j000003"]
        assert [job.state for job in replayed] == ["running", "queued"]
        assert journal.terminal_record("j000001")["state"] == "done"
        assert journal.max_serial == 3

    def test_truncated_tail_record_degrades_to_warned_partial_replay(
        self, tmp_path
    ):
        path = _write_journal(
            tmp_path, [_meta(), _submitted("j000001"), _submitted("j000002")]
        )
        # a crash mid-append tears the last record
        with open(path, "ab") as fh:
            fh.write(b'{"id":"j000003","kind":"sle')
        journal = JobJournal(tmp_path)
        assert [job.id for job in journal.replay_jobs()] == ["j000001", "j000002"]
        assert any("damaged" in w for w in journal.warnings)
        # the damaged original is preserved for post-mortems
        assert (tmp_path / (JOURNAL_FILE_NAME + ".bad")).exists()

    def test_garbage_bytes_mid_file_drop_the_unreadable_remainder(self, tmp_path):
        path = _write_journal(tmp_path, [_meta(), _submitted("j000001")])
        with open(path, "ab") as fh:
            fh.write(b"\x00\xff garbage \xfe\n")
            fh.write((_submitted("j000009") + "\n").encode("utf-8"))
        journal = JobJournal(tmp_path)
        # everything before the damage is trusted, everything after dropped
        assert [job.id for job in journal.replay_jobs()] == ["j000001"]
        assert any("dropped 1 later record" in w for w in journal.warnings)

    def test_pure_garbage_file_is_ignored_with_a_warning(self, tmp_path):
        (tmp_path / JOURNAL_FILE_NAME).write_bytes(b"\x89PNG not a journal")
        journal = JobJournal(tmp_path)  # must not raise
        assert journal.replay_jobs() == []
        assert journal.warnings

    def test_unsupported_header_is_ignored_not_crashed(self, tmp_path):
        _write_journal(
            tmp_path,
            [json.dumps({"type": "meta", "format": 999}), _submitted("j000001")],
        )
        journal = JobJournal(tmp_path)
        assert journal.replay_jobs() == []
        assert any("unsupported header" in w for w in journal.warnings)

    def test_torn_done_result_is_dropped_not_served(self, tmp_path):
        record = json.loads(_finished_done("j000001", {"slept_s": 1}))
        record["result"] = {"slept_s": 2}  # bit-rot: digest no longer matches
        _write_journal(
            tmp_path, [_meta(), json.dumps(record, sort_keys=True)]
        )
        journal = JobJournal(tmp_path)
        assert journal.terminal_record("j000001") is None
        assert any("digest mismatch" in w for w in journal.warnings)

    def test_compaction_bounds_the_file_to_live_plus_terminal(self, tmp_path):
        journal = JobJournal(tmp_path, compact_every=10_000)
        for i in range(1, 30):
            journal.record_progress(f"j{i:06d}", {"done": i})
        journal.compact()
        lines = (tmp_path / JOURNAL_FILE_NAME).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1  # progress history is dropped: meta only
        journal.close()

    def test_terminal_retention_is_bounded(self, tmp_path):
        journal = JobJournal(tmp_path, terminal_retention=3)

        class FakeJob:
            def __init__(self, i):
                self.id = f"j{i:06d}"
                self.kind = "sleep"
                self.state = "done"
                self.result = {"slept_s": i}
                self.error = None
                self.version = 1

        for i in range(1, 6):
            journal.record_terminal(FakeJob(i))
        assert journal.terminal_record("j000001") is None
        assert journal.terminal_record("j000005") is not None
        assert journal.stats_payload()["terminal"] == 3
        journal.close()


class TestGracefulRestartResume:
    def test_stop_and_reboot_resumes_queued_and_running_jobs(self, tmp_path):
        journal_dir = tmp_path / "journal"
        config = ServeConfig(
            port=0, workers=1, max_pending=8, journal_dir=str(journal_dir)
        )
        with running_server(config) as server:
            client = ServeClient(server.url)
            finished = client.submit({"kind": "sleep", "seconds": 0})
            client.wait(finished["id"], timeout_s=30)
            held = client.submit({"kind": "sleep", "seconds": 1.0})
            # wait until the single worker holds it
            while client.request("GET", f"/v1/jobs/{held['id']}")[1][
                "state"
            ] == "queued":
                time.sleep(0.02)
            queued = client.submit({"kind": "sleep", "seconds": 0})
        # the daemon is gone; its drain cancelled `held` and `queued`
        # in memory but deliberately did NOT journal those cancellations
        with running_server(config) as server:
            client = ServeClient(server.url)
            assert server.replayed is not None
            assert server.replayed["queued"] + server.replayed["rerun"] == 2
            assert server.replayed["finished"] >= 1
            # acknowledged work resumes and completes after the restart
            assert client.wait(held["id"], timeout_s=30)["state"] == "done"
            assert client.wait(queued["id"], timeout_s=30)["state"] == "done"
            # the first life's finished job still answers from the journal
            final = client.wait(finished["id"], timeout_s=5)
            assert final["state"] == "done"
            assert client.result(finished["id"]) == {"slept_s": 0}

    def test_done_job_evicted_from_registry_is_served_from_the_journal(
        self, tmp_path
    ):
        # Regression: with DONE_RETENTION completions racing a slow
        # poller, a successful job 404ed out from under its submitter.
        config = ServeConfig(
            port=0,
            workers=2,
            max_pending=8,
            journal_dir=str(tmp_path / "journal"),
            done_retention=2,
        )
        with running_server(config) as server:
            client = ServeClient(server.url)
            slow_poll = client.submit({"kind": "sleep", "seconds": 0.6})
            outcome: dict = {}

            def waiter():
                try:
                    outcome["final"] = client.wait(
                        slow_poll["id"], poll_s=0.5, timeout_s=60
                    )
                except ServeClientError as err:  # pragma: no cover
                    outcome["error"] = err

            thread = threading.Thread(target=waiter)
            thread.start()
            # hammer retention until the completions really have evicted
            # `slow_poll` from the registry (a queued job is always
            # listed, so absence proves it finished *and* was evicted)
            deadline = time.monotonic() + 60
            while True:
                assert time.monotonic() < deadline, "job never evicted"
                quick = client.submit({"kind": "sleep", "seconds": 0})
                client.wait(quick["id"], timeout_s=30)
                listed = {
                    job["id"]
                    for job in client.request("GET", "/v1/jobs")[1]["jobs"]
                }
                if slow_poll["id"] not in listed:
                    break
            thread.join(timeout=60)
            assert outcome.get("final", {}).get("state") == "done", outcome
            # ... yet status and result still answer, from the journal
            status, body, _ = client.request("GET", f"/v1/jobs/{slow_poll['id']}")
            assert status == 200 and body["state"] == "done"
            assert client.result(slow_poll["id"]) == {"slept_s": 0.6}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_daemon(
    port: int, journal_dir: Path, cache_dir: Path, stderr_path: Path
):
    """Start ``fannet serve`` in a child process, its stderr kept in
    ``stderr_path`` so a failed start-up can be reported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with open(stderr_path, "wb") as stderr:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port),
                "--workers", "1",
                "--max-pending", "8",
                "--journal-dir", str(journal_dir),
                "--cache-dir", str(cache_dir),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )


def _journal_reports_progress(journal_path: Path, done_at_least: int = 1) -> bool:
    """True once the journal holds a progress checkpoint of ``done >= n``.

    Tolerates the file not existing yet and a torn (mid-append) tail
    line — both just read as "not yet".
    """
    try:
        blob = journal_path.read_bytes()
    except OSError:
        return False
    for raw in blob.splitlines():
        try:
            record = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if (
            isinstance(record, dict)
            and record.get("type") == "progress"
            and record.get("progress", {}).get("done", 0) >= done_at_least
        ):
            return True
    return False


def _wait_healthy(
    client: ServeClient,
    proc: subprocess.Popen,
    stderr_path: Path,
    timeout_s: float = 60.0,
) -> None:
    """Poll ``/healthz`` until it answers; fail at once, with the exit
    code and stderr, if the daemon ``proc`` exits first."""
    deadline = time.monotonic() + timeout_s
    while not client.healthy():
        code = proc.poll()
        assert code is None, (
            f"daemon exited with code {code} before it became healthy; "
            f"stderr:\n{stderr_path.read_text(encoding='utf-8', errors='replace')}"
        )
        assert time.monotonic() < deadline, "daemon never became healthy"
        time.sleep(0.1)


class TestSigkillRestart:
    def test_sigkill_mid_campaign_resumes_to_byte_identical_artifacts(
        self, tmp_path
    ):
        local_dir = tmp_path / "local"
        server_dir = tmp_path / "server"
        journal_dir = tmp_path / "journal"
        cache_dir = tmp_path / "cache"
        # the uninterrupted reference run, plain local execution
        BatchService(KILL_SPEC).run_shard(0, 1, local_dir)

        port = _free_port()
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=30)
        proc_stderr = tmp_path / "daemon-stderr.log"
        proc = _spawn_daemon(port, journal_dir, cache_dir, proc_stderr)
        restarted = None
        outcome: dict = {}

        def drive():
            try:
                outcome["report"] = run_batch_shard_via_server(
                    client, KILL_SPEC, 0, 1, server_dir,
                    poll_s=0.05, timeout_s=600,
                )
            except BaseException as err:  # surfaced in the main thread
                outcome["error"] = err

        thread = threading.Thread(target=drive)
        try:
            _wait_healthy(client, proc, proc_stderr)
            thread.start()
            # SIGKILL the daemon between the campaign's two jobs.  HTTP
            # polling can lose this race (a round trip per look), so tail
            # the journal file itself: progress checkpoints are flushed
            # on append, and the first ``done >= 1`` record appears the
            # moment sub-job one completes — while sub-job two runs.
            journal_path = journal_dir / JOURNAL_FILE_NAME
            deadline = time.monotonic() + 300
            while not _journal_reports_progress(journal_path):
                assert (
                    time.monotonic() < deadline
                ), "first sub-job never checkpointed"
                time.sleep(0.002)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            # restart onto the same journal + cache: the journal replays
            # the interrupted batch job, the warm cache store makes the
            # redo cheap, and the client's wait() reconnects on its own
            restarted = _spawn_daemon(
                port, journal_dir, cache_dir, tmp_path / "restarted-stderr.log"
            )
            thread.join(timeout=600)
            assert not thread.is_alive(), "client wait never completed"
            assert "error" not in outcome, outcome.get("error")
            assert outcome["report"].executed == 2
        finally:
            if thread.is_alive():  # pragma: no cover - diagnostics path
                thread.join(timeout=5)
            for daemon in (proc, restarted):
                if daemon is not None and daemon.poll() is None:
                    daemon.kill()
                    daemon.wait(timeout=30)

        # shard files and ledger: byte-identical to the uninterrupted run
        local_files = sorted(p.name for p in local_dir.iterdir())
        assert local_files == sorted(p.name for p in server_dir.iterdir())
        for name in local_files:
            assert (local_dir / name).read_bytes() == (
                server_dir / name
            ).read_bytes(), f"{name} differs after the kill/restart"
        # and so is the merged report
        save_record(BatchService(KILL_SPEC).merge(local_dir), local_dir / "merged.json")
        save_record(BatchService(KILL_SPEC).merge(server_dir), server_dir / "merged.json")
        assert (local_dir / "merged.json").read_bytes() == (
            server_dir / "merged.json"
        ).read_bytes()
