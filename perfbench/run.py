"""FANNet reproduction benchmark: three seeded workloads, one command.

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  Each run starts fresh interpreters for
the program (``perfbench/worker.py`` with ``PYTHONPATH=src``), checks
every job's output independently of the engines under test, and prints
one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, from a separate traced
run.  ``--smoke`` runs every workload briefly in both modes and asserts
that every named metric is emitted with its unit.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

from workloads import SETUP_REPEATS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-pipeline", "deep-band", "serve-verify")
#: Hard limit on any one worker process (the whole run must end in 180 s).
WORKER_TIMEOUT_S = 170
WORK_DIR = ROOT / ".perfbench-work"

#: Per-layer metric -> the span whose summed self time it reports.
SELF_TIME = {
    "import.repro_s": "import.repro",
    "data.load_case_study_s": "data.load_case_study",
    "data.mrmr_select_s": "data.mrmr_select",
    "nn.train_s": "nn.train",
    "nn.quantize_s": "nn.quantize",
    "core.validate_s": "core.validate",
    "core.tolerance_s": "core.tolerance",
    "core.extraction_s": "core.extraction",
    "core.bias_s": "core.bias",
    "core.sensitivity_s": "core.sensitivity",
    "verify.prepass_s": "verify.prepass",
    "verify.resolve_survivors_s": "verify.resolve_survivors",
    "verify.collect_s": "verify.collect",
    "verify.recheck_s": "verify.recheck",
    "verify.complete.exhaustive.s": "verify.complete.exhaustive",
    "verify.complete.session.s": "verify.complete.session",
    "verify.complete.smt.s": "verify.complete.smt",
    "verify.witness_s": "verify.witness",
    "smt.simplex.check_s": "smt.simplex.check",
    "sat.cdcl.solve_s": "sat.cdcl.solve",
    "runtime.cache.get_s": "runtime.cache.get",
    "runtime.runner.verify_at_s": "runtime.runner.verify_at",
    "runtime.runner.flush_s": "runtime.runner.flush",
    "runtime.store.save.s": "runtime.store.save",
    "serve.execute_s": "serve.execute",
    "serve.lease_s": "serve.lease",
    "serve.queue_wait_s": "serve.queue_wait",
}
#: Per-layer metric -> the span whose call count it reports.
CALLS = {
    "verify.recheck.calls": "verify.recheck",
    "smt.simplex.check.calls": "smt.simplex.check",
    "sat.cdcl.solve.calls": "sat.cdcl.solve",
    "runtime.store.save.calls": "runtime.store.save",
}


def ref_loop() -> float:
    """host.ref_loop_s: a fixed pure-Python Fraction loop, timed.

    It exercises the same kind of work as the exact simplex and does not
    depend on the program, so when it moves between runs the host moved.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20_000):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        if acc.denominator > 10**60:
            acc = Fraction(acc.numerator % 997, 13)
    return time.perf_counter() - start


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(role: str, args, work: Path, trace: int = 0) -> dict:
    """Spawn one worker; returns {"ready_s": launch->READY, "result": ...}."""
    command = [sys.executable, str(HERE / "worker.py"), role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--work", str(work)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(),
                            text=True, encoding="utf-8", start_new_session=True)
    # The worker's session holds any daemon it starts: kill them together.
    watchdog = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    outcome: dict = {}
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                outcome["ready_s"] = time.perf_counter() - start
            elif line.startswith("RESULT "):
                outcome["result"] = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {role} {args.workload} exited {proc.returncode}")
    return outcome


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(spec: dict, setups: list[float], result: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": result["jobs"] / result["wall_s"],
        "latency_p50_s": statistics.median(result["latencies"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: metric(values[name], unit) for name, unit in units.items()}


def per_layer(spec: dict, result: dict, host_s: float) -> dict:
    layers = result["layers"]
    counters = layers["counters"]
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name in SELF_TIME:
            value = layers["self_s"].get(SELF_TIME[name], 0.0)
        elif name in CALLS:
            value = layers["calls"].get(CALLS[name], 0)
        elif name == "host.ref_loop_s":
            value = host_s
        elif name == "trace.overhead_pct":
            value = layers["overhead_pct"]
        elif name == "trace.coverage_pct":
            value = layers["coverage_pct"]
        else:
            value = counters.get(name, 0)
        metrics[name] = metric(value, entry["unit"])
    return metrics


def pin_to_one_cpu() -> None:
    """Run this process and every worker on one CPU (the serve daemon is
    then moved to another one, see worker.pin_apart), so that the work
    never migrates between CPUs mid-run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(args, spec: dict) -> dict:
    """One benchmark run; returns the contract's result object."""
    pin_to_one_cpu()
    host_start = ref_loop()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        run_worker("warm", args, work)
        if args.trace:
            result = run_worker("run", args, work, trace=1)["result"]
        else:
            setups = []
            if args.workload != "serve-verify":
                for _ in range(SETUP_REPEATS - 1):
                    setups.append(run_worker("setup", args, work)["ready_s"])
            outcome = run_worker("run", args, work)
            result = outcome["result"]
            setups += result.get("setup_s", [outcome.get("ready_s")])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host_end = ref_loop()
    host_s = (host_start + host_end) / 2
    if args.trace:
        metrics = per_layer(spec, result, host_s)
    else:
        metrics = end_to_end(spec, setups, result)
    latencies = sorted(result["latencies"])
    diagnostic = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": result["jobs"], "latency_samples": len(latencies),
        "digest": result["digest"],
        "host.ref_loop_s": {"start": host_start, "end": host_end},
        "problems": result["problems"],
    }
    if len(latencies) >= 100:  # at least 10 samples beyond the 90th percentile
        diagnostic["latency_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    print("perfbench " + json.dumps(diagnostic), flush=True)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["jobs"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def smoke(spec: dict) -> int:
    """Every workload, a few jobs, both modes: every metric with its unit.

    A per-layer metric that reads 0 on a workload predictions.json says
    it is measured on also fails: the span or counter behind it is no
    longer recorded (an entry point bypassed or renamed, a counter key
    misspelled), which would otherwise read as a plain 0.
    """
    mapped = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))["layers"]
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=2, trace=trace)
            report = run_once(args, spec)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for entry in wanted:
                got = report["metrics"].get(entry["name"])
                value = None if got is None else got.get("value")
                if (got is None or got.get("unit") != entry["unit"]
                        or isinstance(value, bool) or not isinstance(value, (int, float))):
                    failures.append(f"{workload} trace={trace}: {entry['name']} missing")
            if set(report["metrics"]) != {entry["name"] for entry in wanted}:
                failures.append(f"{workload} trace={trace}: unexpected metric names")
            if trace:
                for name, got in report["metrics"].items():
                    if got["value"] == 0 and workload in mapped.get(name, {}).get("on", ()):
                        failures.append(f"{workload} trace=1: {name} reads 0")
            if not report["correct"] or report["failed"]:
                failures.append(f"{workload} trace={trace}: output checks failed")
            print(f"smoke {workload} trace={trace}: {len(report['metrics'])} metrics, "
                  f"{report['attempted']} jobs, correct={report['correct']}", flush=True)
    for entry in spec["per_layer"]:
        if entry["name"] not in mapped:
            failures.append(f"{entry['name']} has no entry in predictions.json")
    for failure in failures:
        print("smoke FAIL " + failure, flush=True)
    print("smoke " + ("FAILED" if failures else "ok"), flush=True)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    report = run_once(args, spec)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
