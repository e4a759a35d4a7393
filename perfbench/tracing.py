"""Span/counter tracing installed from outside the program under test.

The benchmark never edits ``src/``: it wraps public entry points of each
module (functions and methods) with timing spans at run time and reads
the counters the program already keeps through its public API.

A span is ``[id, name, start, end, parent_id, job]``.  Spans live in
memory and are written out once, at the end of a run.  Parents come from
a context variable, so spans nest per thread and per asyncio task.  A
layer's *self time* is its span duration minus the time covered by its
direct children (children of one span are sequential on one thread, so
their durations do not overlap).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import time
from collections import Counter, defaultdict
from contextvars import ContextVar

#: (span name, "module:qualname") of every wrapped entry point.  The
#: span name is the per-layer metric prefix: ``<name>_s`` is its summed
#: self time and ``<name>.calls`` its call count.
SPAN_TARGETS = (
    ("data.load_case_study", "repro.data.loaders:load_leukemia_case_study"),
    ("data.mrmr_select", "repro.data.mrmr:mrmr_select"),
    ("nn.train", "repro.nn.train:SgdTrainer.fit"),
    ("nn.quantize", "repro.nn.quantize:quantize_network"),
    ("core.validate", "repro.core.fannet:Fannet.validate"),
    ("core.tolerance", "repro.core.tolerance:NoiseToleranceAnalysis.analyze"),
    ("core.tolerance", "repro.core.tolerance:NoiseToleranceAnalysis.sweep"),
    ("core.extraction", "repro.core.noise_vectors:NoiseVectorExtraction.extract"),
    ("core.bias", "repro.core.bias:TrainingBiasAnalysis.analyze"),
    ("core.sensitivity", "repro.core.sensitivity:InputSensitivityAnalysis.analyze"),
    ("verify.prepass", "repro.verify.batch:FrontierPrepass.resolve"),
    ("verify.resolve_survivors", "repro.verify.batch:resolve_survivors"),
    ("verify.collect", "repro.verify.enumerate:NoiseVectorCollector.collect"),
    # Recorded only when called directly under core.extraction (P3's
    # per-vector recheck).  P1's translation check in core.validate and the
    # complete engines' witness rechecks stay in their caller's self time.
    ("verify.recheck", "repro.verify.encoder:ScaledQuery.predict_single"),
    ("verify.complete.exhaustive", "repro.verify.exhaustive:ExhaustiveEnumerator.verify"),
    ("verify.complete.session", "repro.verify.incremental:LadderSession.verify"),
    ("verify.complete.smt", "repro.verify.smt_verifier:SmtVerifier.verify"),
    ("verify.witness", "repro.verify.smt_verifier:SmtVerifier.witness_against"),
    ("smt.simplex.check", "repro.smt.simplex:Simplex.check"),
    ("sat.cdcl.solve", "repro.sat.solver:CdclSolver.solve"),
    ("runtime.cache.get", "repro.runtime.cache:QueryCache.get"),
    ("runtime.runner.verify_at", "repro.runtime.runner:QueryRunner.verify_at"),
    ("runtime.runner.flush", "repro.runtime.runner:QueryRunner.flush"),
    ("runtime.store.save", "repro.runtime.store:CacheStore.save"),
)

#: Entry points counted but not timed: called so often (tens of
#: thousands of times per job) that a span each would distort the
#: parent's self time more than it explains.
COUNT_TARGETS = (
    ("data.mutual_information", "repro.data.mrmr:mutual_information"),
)


def resolve(target: str):
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory spans and counters, plus the patches that feed them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: Objects the program keeps public counters on, seen during the
        #: current job (keyed by id so each instance counts once).
        self.seen: dict[str, dict[int, object]] = defaultdict(dict)
        self._ids = itertools.count(1)
        self._current: ContextVar = ContextVar("perfbench_span", default=None)
        self._job: ContextVar = ContextVar("perfbench_job", default=None)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        parent = self._current.get()
        record = [next(self._ids), name, time.perf_counter(), None,
                  None if parent is None else parent[0],
                  job if job is not None else self._job.get()]
        self.spans.append(record)
        token = self._current.set(record)
        job_token = self._job.set(record[5]) if job is not None else None
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            if job_token is not None:
                self._job.reset(job_token)
            self._current.reset(token)

    def add_span(self, name: str, start: float, end: float, job=None) -> None:
        """A span measured elsewhere (e.g. a queue wait between two events)."""
        self.spans.append([next(self._ids), name, start, end, None, job])

    # -- patching ------------------------------------------------------------

    def _timed(self, name: str, original, remember: str | None):
        tracer = self
        sized = name == "verify.collect"
        only_under = "core.extraction" if name == "verify.recheck" else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if only_under is not None:
                parent = tracer._current.get()
                if parent is None or parent[1] != only_under:
                    return original(*args, **kwargs)
            if remember is not None and args:
                tracer.seen[remember][id(args[0])] = args[0]
            with tracer.span(name):
                result = original(*args, **kwargs)
            if sized:
                tracer.counters["verify.collect.vectors"] += len(result)
            return result

        return wrapper

    def _counted(self, name: str, original):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _replace_function(self, owner, attr: str, replacement) -> None:
        """Patch a module-level function and every ``from x import f`` alias."""
        original = getattr(owner, attr)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, name, replacement)

    def wrap(self, name: str, target: str, remember: str | None = None) -> None:
        """Time every call of ``target`` ("module:qualname") as span ``name``."""
        owner, attr = resolve(target)
        wrapper = self._timed(name, getattr(owner, attr), remember)
        if isinstance(owner, type):
            self.patch(owner, attr, wrapper)
        else:
            self._replace_function(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every entry point in SPAN_TARGETS and COUNT_TARGETS."""
        remember = {
            "verify.complete.session": "sessions",
            "verify.complete.smt": "smt_verifiers",
        }
        for name, target in SPAN_TARGETS:
            self.wrap(name, target, remember.get(name))
        for name, target in COUNT_TARGETS:
            owner, attr = resolve(target)
            self._replace_function(owner, attr, self._counted(name, getattr(owner, attr)))
        self._install_store_bytes()
        self._install_runner_capture()

    def _install_store_bytes(self) -> None:
        owner, attr = resolve("repro.runtime.store:CacheStore.save")
        inner = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(inner)
        def save(*args, **kwargs):
            path = inner(*args, **kwargs)
            if path is not None:
                counters["runtime.store.save.bytes"] += path.stat().st_size
            return path

        self.patch(owner, attr, save)

    def _install_runner_capture(self) -> None:
        """Remember every QueryRunner built, to read its public stats later."""
        owner, attr = resolve("repro.runtime.runner:QueryRunner.__init__")
        inner = getattr(owner, attr)
        seen = self.seen

        @functools.wraps(inner)
        def init(runner, *args, **kwargs):
            inner(runner, *args, **kwargs)
            seen["runners"][id(runner)] = runner

        self.patch(owner, attr, init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters read through the program's public API ---------------------

    def harvest(self) -> None:
        """Fold the public counters of objects seen so far, then forget them."""
        c = self.counters
        for runner in self.seen.pop("runners", {}).values():
            fold_runner(c, runner)
        for session in self.seen.pop("sessions", {}).values():
            c["smt.pivots"] += session.total_pivots
            c["sat.conflicts"] += session.sat_conflicts
            c["smt.theory_conflicts"] += session.theory_conflicts
        for verifier in self.seen.pop("smt_verifiers", {}).values():
            c["smt.pivots"] += verifier.total_pivots


def fold_runner(counters: Counter, runner) -> None:
    """Add one QueryRunner's CacheStats, RunnerStats and EngineStats."""
    cache = runner.cache.stats
    for field in ("hits", "derived_hits", "misses", "stores"):
        counters[f"runtime.cache.{field}"] += getattr(cache, field)
    counters["verify.prepass.queries"] += runner.stats.frontier_queries
    counters["verify.prepass.decided"] += runner.stats.frontier_decided
    for name, stat in runner.engine_stats.stages.items():
        if name in ("interval", "corner", "random"):
            counters[f"verify.stage.{name}.attempts"] += stat.attempts
            counters[f"verify.stage.{name}.decided"] += stat.decided
            counters[f"verify.stage.{name}.s"] += stat.wall_s
        else:  # the complete engines: exhaustive, session, smt
            counters[f"verify.complete.{name}.calls"] += stat.attempts


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None and end is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        if end is not None:
            totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def span_counts(spans: list[list]) -> Counter:
    return Counter(record[1] for record in spans)
