"""Run the ``fannet`` CLI with span wrappers installed; write spans at exit.

    python perfbench/serve_launcher.py --spans OUT.json -- serve --port 0 ...

The traced serve-verify run starts its daemon through this launcher
instead of ``python -m repro``, so the daemon's entry points are wrapped
from the benchmark's own files.  Besides the shared span targets it
times the serve layer: each job's queue wait (submission to execution
start), its execution, and the wait for the shared runner's lease.
On a clean stop (SIGINT) it folds the public counters of every runner
the daemon built and writes ``{"spans": [...], "counters": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from pathlib import Path

from tracing import Tracer, resolve


def install_serve_spans(tracer: Tracer) -> None:
    submitted: dict[str, float] = {}

    queue_cls, _ = resolve("repro.serve.jobs:JobQueue.submit")
    submit = queue_cls.submit

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        job = submit(self, *args, **kwargs)
        submitted[job.id] = time.perf_counter()
        return job

    app_cls, _ = resolve("repro.serve.app:ServeApp.execute")
    execute = app_cls.execute

    @functools.wraps(execute)
    def traced_execute(self, job):
        start = time.perf_counter()
        if job.id in submitted:
            tracer.add_span("serve.queue_wait", submitted.pop(job.id), start, job=job.id)
        with tracer.span("serve.execute", job=job.id):
            return execute(self, job)

    pool_cls, _ = resolve("repro.serve.runners:RunnerPool.lease")
    lease = pool_cls.lease

    @contextlib.contextmanager
    def traced_lease(self, *args, **kwargs):
        with contextlib.ExitStack() as stack:
            with tracer.span("serve.lease"):
                runner = stack.enter_context(lease(self, *args, **kwargs))
            yield runner

    tracer.patch(queue_cls, "submit", traced_submit)
    tracer.patch(app_cls, "execute", traced_execute)
    tracer.patch(pool_cls, "lease", traced_lease)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    started = time.perf_counter()
    import repro.cli
    import repro.serve.daemon  # noqa: F401  (imported lazily by the CLI)

    tracer.add_span("import.repro", started, time.perf_counter())
    tracer.install()
    install_serve_spans(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.harvest()
        args.spans.write_text(
            json.dumps({"spans": tracer.spans, "counters": dict(tracer.counters)}),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main())
