"""One workload run in a fresh interpreter; spawned by run.py.

Roles:

- ``warm``  — import the program once (compiles bytecode), untimed;
- ``setup`` — set up, print ``READY`` and exit (a set-up time sample:
  the parent times launch to ``READY``);
- ``run``   — set up, print ``READY``, run the fixed job list, check
  every output and print ``RESULT <json>``.

With ``--trace 1`` the run role times the job list twice in one process:
once untraced, then again with span wrappers installed, and reports the
per-layer metrics from the traced pass plus the difference between the
two passes (the tracing overhead).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checks
import workloads
from tracing import Tracer, self_times, span_counts

HERE = Path(__file__).resolve().parent
#: Pause between status polls of one serve request (ServeClient.wait).
POLL_INTERVAL_S = 0.001
DAEMON_STOP_TIMEOUT_S = 10
MAX_PROBLEMS_SHOWN = 5


def emit(tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    print(line, flush=True)


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    except OSError:
        if pid != "self":
            raise
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kib = int(re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.M).group(1))
    return kib / 1024.0


def job_coverage(spans, daemon_spans=()) -> float:
    """Share (%) of job time covered by named layer spans.

    In-process, that is the job span's children.  For serve-verify the
    client's HTTP spans and the daemon's queue-wait and execute spans
    share one clock (``perf_counter`` is system-wide on Linux), so a
    request's window is covered by the union of both.
    """
    by_id = {record[0]: record for record in spans}
    pieces: dict[int, list] = {r[0]: [] for r in spans if r[1] == "job"}
    for _, _, start, end, parent, _ in spans:
        if parent in pieces:
            pieces[parent].append((start, end))
    remote = sorted((r[2], r[3]) for r in daemon_spans
                    if r[1] in ("serve.queue_wait", "serve.execute"))
    starts = [interval[0] for interval in remote]
    covered = total = 0.0
    for job_id, intervals in pieces.items():
        _, _, job_start, job_end, _, _ = by_id[job_id]
        total += job_end - job_start
        first = bisect.bisect_left(starts, job_start - 60.0)
        for start, end in remote[first:bisect.bisect_right(starts, job_end)]:
            intervals.append((max(start, job_start), min(end, job_end)))
        reach = job_start
        for start, end in sorted(intervals):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
    return 100.0 * covered / total if total else 0.0


def layer_payload(tracer: Tracer, daemon_spans=()) -> dict:
    """Self times and call counts per span name, summed over processes
    (span ids are per process, so each process's tree is walked alone)."""
    self_s = Counter(self_times(tracer.spans))
    self_s.update(self_times(daemon_spans))
    calls = span_counts(tracer.spans) + span_counts(daemon_spans)
    return {"self_s": dict(self_s), "calls": dict(calls),
            "counters": dict(tracer.counters)}


# -- paper-pipeline and deep-band (in-process jobs) -------------------------


def run_in_process(args) -> None:
    workload = args.workload
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    workloads.import_program()
    if tracer:
        tracer.add_span("import.repro", started, time.perf_counter())
        tracer.install()
    state = workloads.SETUPS[workload]()
    emit("READY")
    if args.role == "setup":
        return
    net = checks.IntegerNetwork(state["quantized"])
    if workload == "paper-pipeline":
        jobs = workloads.paper_jobs(state, args.seed, args.seconds)
        run_job = lambda job: workloads.paper_run(state, job)  # noqa: E731
    else:
        jobs = workloads.deep_jobs(state, args.seed, args.seconds)
        run_job = lambda job: workloads.deep_run(state, job)[1]  # noqa: E731

    def attempt(job):
        try:
            return run_job(job)
        except Exception as err:  # a job that raises is a failed operation
            return err

    def timed_pass(traced: bool):
        results, latencies = [], []
        gc.collect()
        begin = time.perf_counter()
        for k, job in enumerate(jobs):
            t0 = time.perf_counter()
            if traced:
                with tracer.span("job", job=k):
                    results.append(attempt(job))
                tracer.harvest()
            else:
                results.append(attempt(job))
            latencies.append(time.perf_counter() - t0)
        return results, latencies, time.perf_counter() - begin

    payload = {}
    if tracer:
        tracer.uninstall()
        tracer.harvest()
        _, _, untraced_wall = timed_pass(False)
        tracer.install()
        results, latencies, wall = timed_pass(True)
        tracer.uninstall()
        payload["layers"] = layer_payload(tracer)
        payload["layers"]["coverage_pct"] = job_coverage(tracer.spans)
        payload["layers"]["overhead_pct"] = 100.0 * (1 - untraced_wall / wall)
    else:
        results, latencies, wall = timed_pass(False)
        payload["peak_rss_mb"] = peak_rss_mb()

    outputs, problems = [], []
    for k, (job, result) in enumerate(zip(jobs, results)):
        try:
            if isinstance(result, Exception):
                raise result
            if workload == "paper-pipeline":
                output = workloads.paper_output(*result)
                found = workloads.paper_problems(net, result[0], output)
            else:
                output = workloads.deep_output(job, result)
                found = workloads.deep_problems(net, output, seed=k)
        except Exception as err:  # a failed job or a malformed output
            output, found = None, [f"job {k} failed: {err!r}"]
        outputs.append(output)
        problems.append(found)
    finish(payload, outputs, problems, latencies, wall)


def finish(payload, outputs, problems, latencies, wall) -> None:
    failed = [p for p in problems if p]
    payload.update({
        "jobs": len(outputs),
        "failed": len(failed),
        "problems": [msg for p in failed for msg in p][:MAX_PROBLEMS_SHOWN],
        "latencies": latencies,
        "wall_s": wall,
        "digest": checks.digest(outputs),
    })
    emit("RESULT", payload)


# -- serve-verify (a daemon subprocess and one closed-loop client) ----------


def pin_apart(pid: int) -> None:
    """Move the daemon to a CPU the client does not use, if there is one.

    On the client's CPU, whether a request was done by the first status
    poll depended on which process the scheduler ran first, which split
    latencies into two modes whose mix moved from run to run.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    others = sorted(set(range(os.cpu_count() or 1)) - os.sched_getaffinity(0))
    if others:
        os.sched_setaffinity(pid, {others[0]})


class Daemon:
    """A ``fannet serve`` subprocess on an ephemeral port."""

    def __init__(self, argv: list[str], cache_dir: Path):
        command = argv + ["serve", "--port", "0", "--workers", "1",
                          "--cache-dir", str(cache_dir)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                     encoding="utf-8")
        pin_apart(self.proc.pid)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:\s]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start (first line {line!r})")
        self.port = int(match.group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def verify(client, network: dict, request: tuple):
    """One closed-loop verify request through the program's ServeClient.

    Returns (latency from submission until a status poll sees done, answer).
    """
    index, x, label, percent = request
    payload = {"kind": "verify", "network": network, "input": x,
               "true_label": label, "percent": percent, "index": index}
    start = time.perf_counter()
    job_id = client.submit(payload)["id"]
    final = client.wait(job_id, poll_s=POLL_INTERVAL_S)
    latency = time.perf_counter() - start
    if final["state"] != "done":
        raise RuntimeError(f"verify job {job_id} ended {final['state']}")
    return latency, client.result(job_id)


def run_serve(args) -> None:
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=args.work))
    try:
        _run_serve(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_serve(args, work: Path) -> None:
    # Untimed preparation: the daemon serves a saved network file, so it
    # never runs mRMR itself.
    from repro.errors import ReproError
    from repro.nn import save_network
    from repro.serve.client import ServeClient

    state = workloads.setup_paper()
    network_path = work / "network.json"
    save_network(state["network"], network_path)
    network = {"kind": "file", "path": str(network_path)}
    net = checks.IntegerNetwork(state["quantized"])
    features = [[int(v) for v in row] for row in state["case_study"].test.features]
    requests = workloads.serve_requests(net, features, args.seed, args.seconds)
    first_request = requests[0]
    plain = [sys.executable, "-m", "repro"]
    serial = iter(range(1_000_000))

    def launch(argv):
        """Start a daemon; time launch -> first answered verify request."""
        start = time.perf_counter()
        daemon = Daemon(argv, work / f"cache-{next(serial)}")
        try:
            verify(ServeClient(f"127.0.0.1:{daemon.port}"), network, first_request)
        except BaseException:
            daemon.stop()
            raise
        return daemon, time.perf_counter() - start

    def closed_loop(daemon, tracer=None):
        client = ServeClient(f"127.0.0.1:{daemon.port}")
        answers, latencies = [], []
        gc.collect()
        begin = time.perf_counter()
        for k, request in enumerate(requests):
            try:
                if tracer is not None:
                    with tracer.span("job", job=k):
                        latency, answer = verify(client, network, request)
                else:
                    latency, answer = verify(client, network, request)
            except (ReproError, RuntimeError) as err:
                answers.append({"status": f"request failed: {err!r}"})
                continue  # a failed request counts as failed, not as a latency
            latencies.append(latency)
            answers.append(answer)
        wall = time.perf_counter() - begin
        return answers, latencies, wall

    payload = {}
    if args.trace:
        daemon, _ = launch(plain)
        try:
            _, _, untraced_wall = closed_loop(daemon)
        finally:
            daemon.stop()
        spans_path = work / "daemon-spans.json"
        tracer = Tracer()
        daemon, _ = launch([sys.executable, str(HERE / "serve_launcher.py"),
                            "--spans", str(spans_path), "--"])
        tracer.wrap("serve.http", "repro.serve.client:ServeClient.request")
        try:
            answers, latencies, wall = closed_loop(daemon, tracer)
        finally:
            tracer.uninstall()
            daemon.stop()
        recorded = json.loads(spans_path.read_text(encoding="utf-8"))
        tracer.counters.update(recorded["counters"])
        payload["layers"] = layer_payload(tracer, recorded["spans"])
        payload["layers"]["coverage_pct"] = job_coverage(tracer.spans, recorded["spans"])
        payload["layers"]["overhead_pct"] = 100.0 * (1 - untraced_wall / wall)
        payload["layers"]["counters"]["serve.http.requests_per_job"] = (
            span_counts(tracer.spans)["serve.http"] / len(requests))
    else:
        setup_samples = []
        for _ in range(workloads.SETUP_REPEATS - 1):
            daemon, seconds = launch(plain)
            daemon.stop()
            setup_samples.append(seconds)
        daemon, seconds = launch(plain)
        setup_samples.append(seconds)
        try:
            answers, latencies, wall = closed_loop(daemon)
            payload["peak_rss_mb"] = peak_rss_mb(daemon.proc.pid)
        finally:
            daemon.stop()
        payload["setup_s"] = setup_samples

    outputs = [
        {key: answer.get(key) for key in ("status", "witness", "predicted_label", "engine")}
        for answer in answers
    ]
    try:
        problems = workloads.serve_problems(net, requests, outputs)
    except Exception as err:  # a malformed answer fails every request
        problems = [[f"output check raised {err!r}"]] * len(outputs)
    finish(payload, outputs, problems, latencies, wall)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("warm", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="scratch directory")
    args = parser.parse_args()
    # A process started in the background inherits SIGINT as ignored, and
    # a Python child that inherits it never installs KeyboardInterrupt: the
    # daemons would ignore the SIGINT that stops them.  A handler set here
    # is reset to the default in every child at exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.role == "warm":
        workloads.import_program()
        import repro.cli  # noqa: F401
        import repro.serve.daemon  # noqa: F401
        return
    if args.workload == "serve-verify":
        run_serve(args)
    else:
        run_in_process(args)


if __name__ == "__main__":
    main()
