"""Command-line interface: ``fannet <subcommand>`` (or ``python -m repro``).

Subcommands mirror the paper's workflow:

- ``run``        — full case study (train → P1 → P2 → P3 → analyses)
- ``train``      — train the case-study network and save it as JSON
- ``translate``  — emit the SMV model for one test input
- ``check``      — model-check an ``.smv`` file's INVARSPECs
- ``statespace`` — Fig.-3 state/transition counts
- ``tolerance``  — noise-tolerance search only
- ``batch``      — multi-network campaigns: ``plan`` / ``run`` /
  ``status`` / ``merge`` a sharded batch manifest (see
  :mod:`repro.service`); ``run --resume`` re-executes only the tasks a
  killed shard lost
- ``cache``      — lifecycle tooling over ``--cache-dir`` stores:
  ``list`` / ``inspect`` / ``prune`` (see :mod:`repro.runtime.lifecycle`)
- ``serve``      — verification-as-a-service daemon: an HTTP/JSON job
  queue over shared warm per-context caches (see :mod:`repro.serve`);
  ``batch run --server URL`` executes a campaign through it with
  byte-identical output files
- ``lint``       — the self-hosted invariant analyzer (see
  :mod:`repro.lint`): AST rules FAN001–FAN005 over ``src``/``tests``/
  ``benchmarks``, run as a CI gate; this repository lints itself clean
"""
# lint: canonical-json — every JSON artifact this module writes
# (reports, status payloads, lint findings) is byte-stable.

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import fig4_bias_series, fig4_sensitivity_series, fig4_tolerance_series
from .config import FannetConfig, NoiseConfig, RuntimeConfig, TrainConfig
from .data import load_leukemia_case_study
from .errors import ReproError
from .nn import save_network, train_paper_network


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan per-input analysis tasks over this many worker processes",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the query cache (every query reaches a solver)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist the query cache under DIR (one file per network/config "
        "fingerprint), so repeated runs warm-start and issue zero solver "
        "calls for already-proved verdicts",
    )
    parser.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="with --cache-dir: after every flush, evict the oldest store "
        "files until the directory fits this budget (the context this run "
        "writes is never evicted); default: unbounded",
    )


def _runtime_config(args) -> RuntimeConfig:
    return RuntimeConfig(
        workers=args.workers,
        cache=not args.no_cache,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        max_cache_bytes=args.max_cache_bytes,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # A downstream consumer (`| head`, `| grep -q`) closed the pipe
        # early: die quietly with the conventional SIGPIPE status, not a
        # traceback.  stdout is re-pointed at devnull so the interpreter
        # teardown's implicit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fannet",
        description="FANNet: formal analysis of NN noise tolerance, "
        "training bias and input sensitivity (DATE 2020 reproduction)",
    )
    sub = parser.add_subparsers()

    run = sub.add_parser("run", help="full case-study pipeline")
    run.add_argument("--ceiling", type=int, default=60, help="tolerance search ceiling")
    run.add_argument("--extract-at", type=int, default=None, help="P3 extraction range")
    run.add_argument("--probe", action="store_true", help="single-node sensitivity probes")
    run.add_argument("--json", type=Path, default=None, help="write the report as JSON")
    _add_runtime_flags(run)
    run.set_defaults(handler=_cmd_run)

    train = sub.add_parser("train", help="train the case-study network")
    train.add_argument("output", type=Path, help="where to save the network JSON")
    train.add_argument("--seed", type=int, default=7)
    train.set_defaults(handler=_cmd_train)

    translate = sub.add_parser("translate", help="emit the SMV model for a test input")
    translate.add_argument("--input-index", type=int, default=0)
    translate.add_argument("--noise", type=int, default=1, help="noise range ±P")
    translate.add_argument("--output", type=Path, default=None)
    translate.set_defaults(handler=_cmd_translate)

    check = sub.add_parser("check", help="model-check an .smv file")
    check.add_argument("model", type=Path)
    check.set_defaults(handler=_cmd_check)

    statespace = sub.add_parser("statespace", help="Fig.-3 state-space counts")
    statespace.add_argument("--noise", type=int, default=1)
    statespace.add_argument("--input-index", type=int, default=0)
    statespace.set_defaults(handler=_cmd_statespace)

    tolerance = sub.add_parser("tolerance", help="noise-tolerance search")
    tolerance.add_argument("--ceiling", type=int, default=60)
    _add_runtime_flags(tolerance)
    tolerance.set_defaults(handler=_cmd_tolerance)

    batch = sub.add_parser(
        "batch",
        help="multi-network batch campaigns (shardable; see the README)",
    )
    batch_sub = batch.add_subparsers()

    batch_plan = batch_sub.add_parser(
        "plan", help="show the task list and its shard assignment"
    )
    batch_plan.add_argument("manifest", type=Path, help="batch manifest (JSON/TOML)")
    batch_plan.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="preview the task partition over N shards",
    )
    batch_plan.set_defaults(handler=_cmd_batch_plan)

    batch_run = batch_sub.add_parser(
        "run", help="execute one shard of the batch and write its result files"
    )
    batch_run.add_argument("manifest", type=Path, help="batch manifest (JSON/TOML)")
    batch_run.add_argument(
        "--out", type=Path, required=True, metavar="DIR",
        help="directory for the per-job shard result files",
    )
    batch_run.add_argument(
        "--shard", default="1/1", metavar="I/N",
        help="this invocation's shard, 1-based (e.g. 2/4); default 1/1 "
        "runs everything — identical results either way",
    )
    batch_run.add_argument(
        "--resume", action="store_true",
        help="skip task results already in --out whose ledger fingerprints "
        "validate; re-execute only the missing/corrupt/stale gap (the "
        "merged report is byte-identical to an uninterrupted run)",
    )
    batch_run.add_argument(
        "--server", default=None, metavar="URL",
        help="execute this shard through a running `fannet serve` daemon "
        "instead of locally; the shard files and ledger written to --out "
        "are byte-identical to a local run's",
    )
    batch_run.set_defaults(handler=_cmd_batch_run)

    batch_status = batch_sub.add_parser(
        "status",
        help="report which task identities are done, missing, corrupt or "
        "stale in an output directory (exit 3 when incomplete)",
    )
    batch_status.add_argument("manifest", type=Path, help="batch manifest (JSON/TOML)")
    batch_status.add_argument("out", type=Path, help="directory holding the shard files")
    batch_status.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the status report as JSON",
    )
    batch_status.set_defaults(handler=_cmd_batch_status)

    batch_merge = batch_sub.add_parser(
        "merge", help="fold shard result files into one aggregate report"
    )
    batch_merge.add_argument("manifest", type=Path, help="batch manifest (JSON/TOML)")
    batch_merge.add_argument("out", type=Path, help="directory holding the shard files")
    batch_merge.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="where to write the merged report (default: DIR/merged.json)",
    )
    batch_merge.set_defaults(handler=_cmd_batch_merge)

    cache = sub.add_parser(
        "cache",
        help="cache-store lifecycle: list / inspect / prune a --cache-dir",
    )
    cache_sub = cache.add_subparsers()

    cache_list = cache_sub.add_parser(
        "list", help="one line per *.qcache store file under a directory"
    )
    cache_list.add_argument("directory", type=Path, help="a --cache-dir directory")
    cache_list.set_defaults(handler=_cmd_cache_list)

    cache_inspect = cache_sub.add_parser(
        "inspect", help="validate one store file and print its header"
    )
    cache_inspect.add_argument("file", type=Path, help="a *.qcache store file")
    cache_inspect.set_defaults(handler=_cmd_cache_inspect)

    cache_prune = cache_sub.add_parser(
        "prune",
        help="evict oldest-mtime store files until the directory fits a "
        "byte budget (never touches non-store files)",
    )
    cache_prune.add_argument("directory", type=Path, help="a --cache-dir directory")
    cache_prune.add_argument(
        "--max-cache-bytes", type=int, required=True, metavar="BYTES",
        help="byte budget the directory must fit after pruning",
    )
    cache_prune.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without removing anything",
    )
    cache_prune.set_defaults(handler=_cmd_cache_prune)

    serve = sub.add_parser(
        "serve",
        help="verification-as-a-service daemon: HTTP/JSON job queue over "
        "shared warm per-context caches (see the README's Serving section)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8414,
        help="TCP port to listen on (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent job worker threads (jobs on the same runtime "
        "context still serialise on its shared cache)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=16, metavar="N",
        help="admission bound: submissions past this many queued jobs are "
        "shed with 429 + Retry-After",
    )
    serve.add_argument(
        "--task-workers", type=int, default=1, metavar="N",
        help="process fan-out inside each job's runner (the batch plane's "
        "--workers knob)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the query cache (every query reaches a solver)",
    )
    serve.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="persist per-context query caches under DIR so warmth "
        "survives daemon restarts",
    )
    serve.add_argument(
        "--max-cache-bytes", type=int, default=None, metavar="BYTES",
        help="with --cache-dir: evict oldest store files past this budget "
        "after each flush",
    )
    serve.add_argument(
        "--journal-dir", type=Path, default=None, metavar="DIR",
        help="write-ahead job journal under DIR: a daemon restart "
        "re-admits queued/running jobs and keeps serving finished "
        "results instead of dropping them",
    )
    serve.add_argument(
        "--done-retention", type=int, default=None, metavar="N",
        help="finished jobs kept in the in-memory registry before FIFO "
        "eviction (default 256; the journal serves older results)",
    )
    serve.set_defaults(handler=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="self-hosted invariant analyzer: AST rules FAN001-FAN005 "
        "(encoding pins, canonical JSON, bool-int, loop affinity, "
        "determinism); exit 1 on any unsuppressed finding",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src tests benchmarks, "
        "whichever exist under the current directory)",
    )
    lint.add_argument(
        "--select", default=None, metavar="CODES",
        help="run only these comma-separated rule codes (e.g. FAN001,FAN003)",
    )
    lint.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="skip these comma-separated rule codes",
    )
    lint.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the full report as JSON (CI uploads this on failure)",
    )
    lint.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="checked-in audit file of accepted findings; matches are "
        "reported but do not fail the gate",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    return parser


def _parse_shard(text: str) -> tuple[int, int]:
    """``"i/N"`` (1-based) → 0-based ``(index, count)``; loud on nonsense."""
    from .errors import ConfigError

    parts = text.split("/")
    try:
        index, count = (int(part) for part in parts)
    except ValueError:
        raise ConfigError(
            f"--shard takes the form i/N (e.g. 2/4), got {text!r}"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(
            f"--shard {text!r} is out of range: need 1 <= i <= N"
        )
    return index - 1, count


def _print_store(runner) -> None:
    """One-line persistence summary when a disk cache store is active."""
    store = runner.store
    if store is None:
        return
    print(
        f"cache store: {store.loaded_entries} entries loaded, "
        f"{store.saved_entries} saved under {store.directory}"
    )


def _trained_case_study():
    from .nn import quantize_network

    case_study = load_leukemia_case_study()
    result = train_paper_network(case_study.train.features, case_study.train.labels)
    return case_study, result.network, quantize_network(result.network)


def _cmd_run(args) -> int:
    from .core import run_case_study

    fannet, report = run_case_study(
        config=FannetConfig(runtime=_runtime_config(args)),
        search_ceiling=args.ceiling,
        extraction_percent=args.extract_at,
        probe_sensitivity=args.probe,
    )
    fannet.close()  # flush the disk cache store before reporting
    print(report.summary())
    print(fannet.runner.stats.describe())
    print(fannet.runner.cache.stats.describe())
    print(fannet.engine_utilisation())
    _print_store(fannet.runner)
    if args.json is not None:
        payload = {
            "tolerance": fig4_tolerance_series(report.tolerance),
            "bias": fig4_bias_series(report.bias),
            "sensitivity": fig4_sensitivity_series(report.sensitivity),
            "accuracy": {
                "train": report.train_accuracy,
                "test": report.test_accuracy,
            },
        }
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"\nJSON report written to {args.json}")
    return 0


def _cmd_train(args) -> int:
    case_study = load_leukemia_case_study()
    result = train_paper_network(
        case_study.train.features,
        case_study.train.labels,
        TrainConfig(seed=args.seed),
    )
    save_network(result.network, args.output)
    test_accuracy = float(
        (result.network.predict(np.asarray(case_study.test.features, dtype=float))
         == case_study.test.labels).mean()
    )
    print(
        f"trained: {result.train_accuracy:.2%} train, {test_accuracy:.2%} test; "
        f"saved to {args.output}"
    )
    return 0


def _cmd_translate(args) -> int:
    from .core import network_noise_module
    from .smv import print_module

    case_study, _, quantized = _trained_case_study()
    x = np.asarray(case_study.test.features[args.input_index])
    label = int(case_study.test.labels[args.input_index])
    module, _ = network_noise_module(
        quantized, x, label, NoiseConfig(max_percent=args.noise)
    )
    text = print_module(module)
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"SMV model written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_check(args) -> int:
    from .mc import ExplicitChecker
    from .smv import parse_module

    module = parse_module(args.model.read_text(encoding="utf-8"))
    checker = ExplicitChecker()
    if not module.invarspecs:
        print("no INVARSPEC properties in the model")
        return 1
    failures = 0
    for spec in module.invarspecs:
        result = checker.check_invariant(module, spec)
        print(f"[{result.verdict.value.upper()}] {result.property_text}")
        if result.violated and result.counterexample is not None:
            print(result.counterexample.format())
            failures += 1
    return 1 if failures else 0


def _cmd_statespace(args) -> int:
    from .core.translate import dataset_fsm_module, noise_model_state_counts
    from .fsm import TransitionSystem, count_states_and_transitions

    case_study, _, quantized = _trained_case_study()
    x = np.asarray(case_study.test.features[args.input_index])
    label = int(case_study.test.labels[args.input_index])

    no_noise = dataset_fsm_module(quantized, case_study.test.features)
    base = count_states_and_transitions(TransitionSystem(no_noise))
    print(f"no noise      : {base[0]} states, {base[1]} transitions")

    noisy = noise_model_state_counts(
        quantized, x, label, NoiseConfig(min_percent=0, max_percent=args.noise)
    )
    print(f"noise [0,{args.noise}]%  : {noisy[0]} states, {noisy[1]} transitions")
    return 0


def _cmd_tolerance(args) -> int:
    from .core import NoiseToleranceAnalysis

    case_study, _, quantized = _trained_case_study()
    analysis = NoiseToleranceAnalysis(
        quantized,
        search_ceiling=args.ceiling,
        runtime=_runtime_config(args),
    )
    report = analysis.analyze(case_study.test)
    analysis.runner.close()  # flush the disk cache store, stop the pool
    print(f"noise tolerance: ±{report.tolerance}%")
    print(analysis.runner.stats.describe())
    print(analysis.runner.cache.stats.describe())
    print(analysis.runner.engine_stats.describe_table())
    _print_store(analysis.runner)
    for entry in report.per_input:
        flip = (
            f"flips at ±{entry.min_flip_percent}% -> L{entry.flipped_to}"
            if entry.min_flip_percent is not None
            else f"robust to ±{args.ceiling}%"
        )
        print(f"  test[{entry.index}] (L{entry.true_label}): {flip}")
    return 0


def _cmd_batch_plan(args) -> int:
    from .analysis import format_table
    from .service import BatchService

    service = BatchService.from_manifest(args.manifest)
    shards = args.shards
    rows = []
    per_shard = [0] * shards
    for job in service.plan():
        counts = [len(job.shard_tasks(index, shards)) for index in range(shards)]
        for index, count in enumerate(counts):
            per_shard[index] += count
        rows.append(
            (
                job.name,
                job.meta["correctly_classified"],
                len(job.tasks),
                " ".join(str(c) for c in counts),
            )
        )
    print(
        format_table(
            ("job", "inputs", "tasks", f"tasks per shard (1..{shards})"),
            rows,
            title=f"batch '{service.spec.name}': "
            f"{sum(len(j.tasks) for j in service.plan())} task(s) over {shards} shard(s)",
        )
    )
    print(
        "\nshard totals: "
        + ", ".join(f"{i + 1}/{shards}: {n}" for i, n in enumerate(per_shard))
    )
    return 0


def _cmd_batch_run(args) -> int:
    from .service import BatchService

    shard_index, shard_count = _parse_shard(args.shard)
    if args.server is not None:
        from .errors import ConfigError
        from .serve import ServeClient, run_batch_shard_via_server
        from .service import BatchSpec

        if args.resume:
            raise ConfigError(
                "--resume is a local-execution feature; the daemon's shared "
                "cache already makes repeats cheap — drop --resume with --server"
            )
        spec = BatchSpec.from_manifest(args.manifest)
        report = run_batch_shard_via_server(
            ServeClient(args.server), spec, shard_index, shard_count, args.out
        )
        print(
            f"batch '{spec.name}' shard {shard_index + 1}/{shard_count}: "
            f"{report.executed} task(s) executed via {args.server}, "
            f"{len(report.written)} job file(s) written to {args.out}"
        )
        for path in report.written:
            print(f"  {path}")
        return 0
    service = BatchService.from_manifest(args.manifest)
    report = service.run_shard(
        shard_index, shard_count, args.out, resume=args.resume
    )
    print(
        f"batch '{service.spec.name}' shard {shard_index + 1}/{shard_count}: "
        f"{report.executed} task(s) executed, {report.reused} reused"
        f"{' (resume)' if args.resume else ''}, "
        f"{len(report.written)} job file(s) written to {args.out}"
    )
    for path in report.written:
        print(f"  {path}")
    return 0


def _cmd_batch_status(args) -> int:
    import json as json_module

    from .analysis import format_table
    from .service import BatchService

    service = BatchService.from_manifest(args.manifest)
    status = service.status(args.out)
    rows = [
        (
            job.job,
            job.expected,
            len(job.done),
            len(job.missing),
            len(job.corrupt),
            len(job.stale),
        )
        for job in status.jobs
    ]
    print(
        format_table(
            ("job", "expected", "done", "missing", "corrupt", "stale"),
            rows,
            title=f"batch '{status.batch}' under {args.out}: "
            + ("complete" if status.complete else "INCOMPLETE"),
        )
    )
    rerun = status.rerun
    if rerun:
        print(f"\n{len(rerun)} task identit(ies) need re-execution:")
        for identity in rerun:
            print(f"  {identity}")
        print("\nfill the gap with: fannet batch run <manifest> --out "
              f"{args.out} --shard i/N --resume")
    if status.stray:
        print(f"\n{len(status.stray)} stray identit(ies) from another manifest:")
        for identity in status.stray:
            print(f"  {identity}")
    for problem in status.problems:
        print(f"note: {problem}")
    if args.json is not None:
        args.json.write_text(
            json_module.dumps(status.to_payload(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        print(f"\nstatus JSON written to {args.json}")
    return 0 if status.complete else 3


def _cmd_batch_merge(args) -> int:
    from .analysis import comparison_tables, save_record
    from .service import BatchService

    service = BatchService.from_manifest(args.manifest)
    record = service.merge(args.out)
    target = args.json if args.json is not None else args.out / "merged.json"
    save_record(record, target)
    jobs = record.measured["jobs"]
    print(
        f"batch '{service.spec.name}': merged {len(jobs)} job(s) "
        f"into {target}"
    )
    print()
    print(comparison_tables(record.measured["comparison"]))
    return 0


def _size(num_bytes: int) -> str:
    """Human-readable byte count (stable, locale-free)."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(num_bytes)} B"  # pragma: no cover - unreachable


def _cmd_cache_list(args) -> int:
    from .analysis import format_table
    from .runtime import scan_cache_dir

    infos = scan_cache_dir(args.directory)
    if not infos:
        print(f"no cache store files under {args.directory}")
        return 0
    rows = []
    for info in infos:
        if info.ok:
            state = "stale-version" if info.stale_version else "ok"
        else:
            state = f"INVALID: {info.error}"
        rows.append(
            (
                info.path.name,
                _size(info.size),
                info.entries if info.entries is not None else "-",
                info.context or "-",
                state,
            )
        )
    total = sum(info.size for info in infos if info.ok)
    print(
        format_table(
            ("file", "size", "entries", "context", "state"),
            rows,
            title=f"{len(infos)} cache file(s) under {args.directory} "
            f"({_size(total)} of valid stores)",
        )
    )
    return 0


def _cmd_cache_inspect(args) -> int:
    from .runtime import inspect_cache_file
    from .runtime.store import STORE_VERSION

    info = inspect_cache_file(args.file)
    print(f"file          : {info.path}")
    print(f"size          : {_size(info.size)}")
    print(f"store version : {info.version}"
          + ("" if info.version == STORE_VERSION else f" (this build reads {STORE_VERSION})"))
    print(f"context       : {info.context}")
    print(f"entries       : {info.entries}")
    print("checksum      : ok")
    return 0


def _cmd_cache_prune(args) -> int:
    from .runtime import prune_cache_dir

    report = prune_cache_dir(
        args.directory, args.max_cache_bytes, dry_run=args.dry_run
    )
    verb = "would evict" if args.dry_run else "evicted"
    print(
        f"cache prune {args.directory} (budget {_size(report.budget)}"
        f"{', dry run' if args.dry_run else ''}): "
        f"{verb} {len(report.evicted)} file(s) ({_size(report.evicted_bytes)}), "
        f"kept {len(report.kept)} ({_size(report.remaining_bytes)})"
    )
    for info in report.evicted:
        print(f"  {verb}: {info.path.name} ({_size(info.size)})")
    for info in report.skipped:
        print(f"  skipped (not a store file): {info.path.name} — {info.error}")
    for error in report.errors:
        print(f"  warning: {error}")
    return 0


def _cmd_serve(args) -> int:
    from .serve import DONE_RETENTION, ServeConfig
    from .serve.daemon import run

    runtime = RuntimeConfig(
        workers=args.task_workers,
        cache=not args.no_cache,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        max_cache_bytes=args.max_cache_bytes,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        runtime=runtime,
        journal_dir=(
            str(args.journal_dir) if args.journal_dir is not None else None
        ),
        done_retention=(
            args.done_retention if args.done_retention is not None
            else DONE_RETENTION
        ),
    )

    def announce(server):
        extras = ""
        if args.cache_dir:
            extras += f", cache dir {args.cache_dir}"
        if args.journal_dir:
            extras += f", journal dir {args.journal_dir}"
        print(
            f"fannet serve listening on {server.url} "
            f"({config.workers} worker(s), max {config.max_pending} pending"
            f"{extras})",
            flush=True,
        )
        if server.replayed is not None:
            report = server.replayed
            print(
                f"journal replayed: {report['queued']} queued re-admitted, "
                f"{report['rerun']} interrupted re-run, "
                f"{report['finished']} finished retained",
                flush=True,
            )
            for warning in report["warnings"]:
                print(f"journal warning: {warning}", flush=True)

    run(config, announce=announce)
    return 0


def _parse_codes(raw: str | None) -> set[str] | None:
    if raw is None:
        return None
    codes = {part.strip().upper() for part in raw.split(",") if part.strip()}
    return codes or None


def _cmd_lint(args) -> int:
    from .lint import iter_rules, lint_paths, load_baseline

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"    {rule.summary}")
        return 0

    paths = list(args.paths)
    if not paths:
        paths = [p for p in ("src", "tests", "benchmarks") if Path(p).is_dir()]
        if not paths:
            print(
                "error: no paths given and none of src/tests/benchmarks "
                "exist here",
                file=sys.stderr,
            )
            return 2

    baseline = load_baseline(args.baseline) if args.baseline else None
    report = lint_paths(
        paths,
        select=_parse_codes(args.select),
        ignore=_parse_codes(args.ignore),
        baseline=baseline,
    )

    if args.json is not None:
        args.json.write_text(
            json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    for finding in report.findings:
        print(finding.format())
    for finding in report.baselined:
        print(f"{finding.format()} [baselined]")

    tail = (
        f"{report.files} file(s), {len(report.findings)} finding(s), "
        f"{len(report.baselined)} baselined, {report.suppressed} suppressed"
    )
    if report.clean:
        print(f"lint clean: {tail}")
        return 0
    print(f"lint failed: {tail}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
