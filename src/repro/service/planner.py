"""Deterministic batch planning: specs → picklable task units → shards.

The planner expands a :class:`~repro.service.spec.BatchSpec` into the
global list of self-contained work units the runtime already knows how
to execute (:class:`~repro.runtime.tasks.ToleranceSearchTask` /
:class:`ExtractionTask` / :class:`ProbeTask`), each wrapped with a
stable *identity* string.  Sharding is a pure function of that identity
(:func:`shard_of` — SHA-256, not Python's salted ``hash``), so every
shard invocation, on any machine, re-plans the identical task list and
agrees on who owns what without any coordination.  Results are keyed by
identity, which is what lets the merge step fold any shard layout into
one bit-identical report.

Planning is deterministic end to end: the case-study data generator and
the trainer are seeded, quantisation is exact, and jobs are planned in
sorted-name order.  The planner dedupes expensive resources (the case
study, trained networks) across jobs that share them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..config import TrainConfig
from ..data import load_leukemia_case_study
from ..data.dataset import Dataset
from ..errors import ConfigError
from ..nn import load_network, quantize_network, train_paper_network
from ..runtime import (
    ExtractionTask,
    ProbeTask,
    ToleranceSearchTask,
    runtime_context,
)
from ..verify import NetworkEncoding
from .spec import BatchSpec, JobSpec, NetworkSpec


def shard_of(identity: str, shard_count: int) -> int:
    """Stable shard index for one task identity (0-based).

    SHA-256 of the identity string — invariant across processes, hosts
    and Python hash randomisation, so any ``--shard i/N`` invocation
    computes the same partition of the global task list.
    """
    if shard_count < 1:
        raise ConfigError("shard count must be >= 1")
    digest = hashlib.sha256(identity.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


@dataclass(frozen=True)
class PlannedTask:
    """One schedulable unit: a runtime task plus its global identity."""

    job: str
    identity: str
    task: Any  # ToleranceSearchTask | ExtractionTask | ProbeTask

    def shard(self, shard_count: int) -> int:
        return shard_of(self.identity, shard_count)


@dataclass
class PlannedJob:
    """A job expanded against its built network and dataset slice."""

    spec: JobSpec
    network: Any  # QuantizedNetwork
    dataset: Dataset  # the selected slice (rows in index order)
    indices: tuple[int, ...]  # dataset-absolute row indices of the slice
    data_digest: str | None = None  # external-source content digest
    tasks: list[PlannedTask] = field(default_factory=list)
    meta: dict = field(default_factory=dict)  # JSON-ready shard-file header

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def identity_prefix(self) -> str:
        """Leading component of every task identity of this job.

        External-source jobs embed the source's content digest, so a
        changed file (or a different parse of the same file) changes
        every identity — stale shard results then surface as missing/
        stray at merge and status time instead of silently blending in.
        """
        if self.data_digest is None:
            return self.spec.name
        return f"{self.spec.name}@d{self.data_digest[:12]}"

    def shard_tasks(self, shard_index: int, shard_count: int) -> list[PlannedTask]:
        """This job's tasks owned by ``shard_index`` (0-based) of ``shard_count``."""
        return [t for t in self.tasks if t.shard(shard_count) == shard_index]


def build_network(spec: NetworkSpec, load_case_study):
    """The quantised network a spec names, built afresh (callers cache it).

    A ``case-study`` network trains on the training split of the case
    study ``load_case_study()`` returns; callers memoise that one too."""
    if spec.kind == "file":
        return quantize_network(load_network(spec.path))
    data = load_case_study()
    trained = train_paper_network(
        data.train.features, data.train.labels, TrainConfig(seed=spec.train_seed)
    )
    return quantize_network(trained.network)


class BatchPlanner:
    """Expands a spec into :class:`PlannedJob` lists, deduping resources."""

    def __init__(self, spec: BatchSpec):
        self.spec = spec
        self._case_study = None
        self._networks: dict[NetworkSpec, Any] = {}
        self._sources: dict[Any, tuple] = {}  # DataSourceSpec -> (data, digest, desc)

    # -- resource construction -------------------------------------------------

    def _case_study_data(self):
        if self._case_study is None:
            self._case_study = load_leukemia_case_study()
        return self._case_study

    def _network_for(self, network_spec: NetworkSpec):
        """The quantised network a spec names (cached per distinct source)."""
        quantized = self._networks.get(network_spec)
        if quantized is None:
            quantized = build_network(network_spec, self._case_study_data)
            self._networks[network_spec] = quantized
        return quantized

    def _dataset_for(
        self, job: JobSpec
    ) -> tuple[Dataset, tuple[int, ...], str | None, dict | None]:
        """The job's sliced dataset plus the source digest/description.

        Case-study jobs return ``(slice, indices, None, None)``; external
        sources additionally carry their content digest (folded into
        task identities and the cache context) and a JSON-ready
        description for the shard-file header.
        """
        if job.dataset.source is not None:
            full, digest, described = self._source_dataset(job.dataset.source)
            indices = job.dataset.resolve(full.num_samples)
            return full.subset(indices), indices, digest, described
        data = self._case_study_data()
        split = data.test if job.dataset.split == "test" else data.train
        indices = job.dataset.resolve(split.num_samples)
        return split.subset(indices), indices, None, None

    def _source_dataset(self, spec) -> tuple[Dataset, str, dict]:
        """Load (once per distinct source spec) an external feature file."""
        loaded = self._sources.get(spec)
        if loaded is None:
            source = spec.build()
            loaded = (source.load(), source.digest(), source.describe())
            self._sources[spec] = loaded
        return loaded

    # -- planning ---------------------------------------------------------------

    def plan(self) -> list[PlannedJob]:
        """Every job expanded to tasks, in sorted job-name order."""
        return [
            self._plan_job(job)
            for job in sorted(self.spec.jobs, key=lambda job: job.name)
        ]

    def _plan_job(self, job: JobSpec) -> PlannedJob:
        quantized = self._network_for(job.network)
        dataset, indices, digest, source_desc = self._dataset_for(job)
        if quantized.num_inputs != dataset.num_features:
            raise ConfigError(
                f"job {job.name!r}: network takes {quantized.num_inputs} inputs "
                f"but the dataset has {dataset.num_features} features"
            )
        planned = PlannedJob(
            spec=job,
            network=quantized,
            dataset=dataset,
            indices=indices,
            data_digest=digest,
        )

        # The paper's convention everywhere: only correctly-classified
        # inputs carry noise-tolerance information.
        predicted = NetworkEncoding(quantized).labels(dataset.features)
        triples = [
            (int(index), tuple(int(v) for v in x), int(true_label))
            for index, x, true_label, guess in zip(
                indices, dataset.features, dataset.labels, predicted
            )
            if guess == true_label
        ]

        name = job.name
        prefix = planned.identity_prefix
        if job.tolerance is not None:
            for index, x, true_label in triples:
                planned.tasks.append(
                    PlannedTask(
                        job=name,
                        identity=f"{prefix}/tolerance/i{index}",
                        task=ToleranceSearchTask(
                            index=index,
                            x=x,
                            true_label=true_label,
                            ceiling=job.tolerance.ceiling,
                        ),
                    )
                )
        if job.extraction is not None:
            for index, x, true_label in triples:
                planned.tasks.append(
                    PlannedTask(
                        job=name,
                        identity=f"{prefix}/extract/i{index}@p{job.extraction.percent}",
                        task=ExtractionTask(
                            index=index,
                            x=x,
                            true_label=true_label,
                            percent=job.extraction.percent,
                            limit=job.extraction.limit,
                        ),
                    )
                )
        if job.probe is not None:
            inputs = tuple(triples)
            for node in range(quantized.num_inputs):
                for sign, tag in ((+1, "pos"), (-1, "neg")):
                    planned.tasks.append(
                        PlannedTask(
                            job=name,
                            identity=f"{prefix}/probe/n{node}.{tag}",
                            task=ProbeTask(
                                node=node,
                                sign=sign,
                                ceiling=job.probe.ceiling,
                                inputs=inputs,
                            ),
                        )
                    )

        # Bias census (Eq. 4): the trained network's class distribution.
        # Case-study networks trained on the case-study split keep the
        # paper's census even when they analyse external data; a file
        # network over an external source falls back to that source's
        # own distribution (the best census available without the
        # original training set).
        if job.network.kind == "case-study" or job.dataset.source is None:
            train_counts = self._case_study_data().train.class_counts()
        else:
            full, _, _ = self._source_dataset(job.dataset.source)
            train_counts = full.class_counts()
        planned.meta = {
            "job": name,
            "context": runtime_context(quantized, job.verifier, digest),
            "correctly_classified": len(triples),
            "sliced_inputs": len(indices),
            "indices": [int(i) for i in indices],
            "dataset_digest": digest,
            "dataset_source": source_desc,
            "train_class_counts": {
                str(label): int(count) for label, count in sorted(train_counts.items())
            },
            "spec": _job_spec_dict(self.spec, job),
        }
        return planned


def _job_spec_dict(spec: BatchSpec, job: JobSpec) -> dict:
    """The manifest fragment describing one job (for shard-file headers)."""
    for entry in spec.to_dict()["jobs"]:
        if entry["name"] == job.name:
            return entry
    raise ConfigError(f"job {job.name!r} is not part of batch {spec.name!r}")
