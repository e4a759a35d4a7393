"""Batch service tests: manifests, sharding determinism, merge, CLI.

The load-bearing property is the shard-invariance contract: any shard
layout — one shard, N shards, a manifest with its jobs listed in a
different order — must merge to a byte-identical aggregate report.
The matrix test enforces it on real (small) campaigns; the rest covers
the manifest round-trip and the loud failure paths (corrupt manifests,
incomplete or foreign shard sets).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis import save_record
from repro.cli import main
from repro.config import RuntimeConfig, VerifierConfig
from repro.errors import ConfigError, DataError
from repro.service import (
    BatchService,
    BatchSpec,
    DatasetSpec,
    ExtractionSpec,
    JobSpec,
    NetworkSpec,
    ProbeSpec,
    ToleranceSpec,
    shard_of,
)

#: test-split indices with known behaviour under the seed-7 network:
#: 0 is robust, 10 flips at ±8%, 18 at ±19% (7 at ±28%).
ROBUST_INDEX, EARLY_FLIP, LATE_FLIP = 0, 10, 18


def small_spec(name: str = "small", jobs=None) -> BatchSpec:
    """A fast two-job campaign with a real vulnerable input."""
    if jobs is None:
        jobs = [
            JobSpec(
                name="flips",
                dataset=DatasetSpec(indices=(EARLY_FLIP, ROBUST_INDEX)),
                tolerance=ToleranceSpec(ceiling=12),
                extraction=ExtractionSpec(percent=9, limit=3),
            ),
            JobSpec(
                name="probes",
                dataset=DatasetSpec(indices=(ROBUST_INDEX, LATE_FLIP)),
                tolerance=ToleranceSpec(ceiling=10, schedule="paper"),
                probe=ProbeSpec(ceiling=10),
            ),
        ]
    return BatchSpec(name=name, jobs=tuple(jobs))


class TestSpecValidation:
    def test_round_trips_through_dict(self):
        spec = small_spec()
        assert BatchSpec.from_dict(spec.to_dict()) == spec

    def test_round_trips_through_a_json_manifest(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert BatchSpec.from_manifest(path) == spec

    def test_loads_a_toml_manifest(self, tmp_path):
        path = tmp_path / "batch.toml"
        path.write_text(
            """
version = 1
name = "toml-batch"

[runtime]
workers = 2

[[jobs]]
name = "a"
[jobs.network]
kind = "case-study"
train_seed = 9
[jobs.dataset]
split = "test"
stop = 3
[jobs.analyses.tolerance]
ceiling = 8
""",
            encoding="utf-8",
        )
        spec = BatchSpec.from_manifest(path)
        assert spec.name == "toml-batch"
        assert spec.runtime.workers == 2
        assert spec.jobs[0].network.train_seed == 9
        assert spec.jobs[0].tolerance.ceiling == 8
        assert spec.jobs[0].extraction is None

    def test_unreadable_and_unparsable_manifests_raise_data_errors(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            BatchSpec.from_manifest(tmp_path / "absent.json")
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            BatchSpec.from_manifest(bad_json)
        bad_toml = tmp_path / "bad.toml"
        bad_toml.write_text("version = = 1", encoding="utf-8")
        with pytest.raises(DataError, match="not valid TOML"):
            BatchSpec.from_manifest(bad_toml)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("version"), "manifest version"),
            (lambda d: d.update(version=99), "manifest version"),
            (lambda d: d.pop("name"), "needs a 'name'"),
            (lambda d: d.update(jobs="nope"), "'jobs' must be a list"),
            (lambda d: d.update(jobs=[]), "at least one job"),
            (lambda d: d.update(extra=1), "unknown manifest key"),
            (lambda d: d["runtime"].update(worker_count=4), "unknown RuntimeConfig"),
            (lambda d: d["runtime"].update(frontier=False), "unknown RuntimeConfig"),
            (lambda d: d["runtime"].update(batch_size=512), "unknown RuntimeConfig"),
            (lambda d: d["jobs"][0].pop("name"), "every job needs a 'name'"),
            (lambda d: d["jobs"][0].update(name="bad name!"), "job name"),
            (lambda d: d["jobs"][0]["network"].update(kind="hive"), "network kind"),
            (
                lambda d: d["jobs"][0]["analyses"].update(census={}),
                "unknown analyses key",
            ),
            (
                lambda d: d["jobs"][0]["analyses"]["tolerance"].update(ceiling=0),
                "ceiling must be",
            ),
            (
                lambda d: d["jobs"][0]["analyses"]["extraction"].update(
                    exhaustive_cutoff=10**6
                ),
                "unknown extraction key",
            ),
            (
                lambda d: d["jobs"][0]["dataset"].update(start=1),
                "not both",
            ),
            (
                lambda d: d["jobs"].append(dict(d["jobs"][0])),
                "duplicate job name",
            ),
            (
                lambda d: d["jobs"][0]["analyses"]["tolerance"].update(
                    ceiling="high"
                ),
                "bad tolerance section",
            ),
            (
                lambda d: d["jobs"][0]["dataset"].update(indices=["x"]),
                "bad dataset section",
            ),
        ],
    )
    def test_corrupt_manifests_fail_loudly(self, mutate, message):
        payload = small_spec().to_dict()
        mutate(payload)
        with pytest.raises(ConfigError, match=message):
            BatchSpec.from_dict(payload)

    def test_job_without_analyses_is_rejected(self):
        with pytest.raises(ConfigError, match="no analyses"):
            JobSpec(name="idle")

    def test_names_with_trailing_newlines_are_rejected(self):
        """Regression: '$' matched before a trailing newline, letting a
        newline into file names and task identities."""
        with pytest.raises(ConfigError, match="job name"):
            JobSpec(name="seed7\n", tolerance=ToleranceSpec())
        with pytest.raises(ConfigError, match="batch name"):
            small_spec(name="sweep\n")

    def test_file_network_requires_a_path(self):
        with pytest.raises(ConfigError, match="requires a 'path'"):
            NetworkSpec(kind="file")

    def test_dataset_indices_must_be_unique_and_in_range(self):
        with pytest.raises(ConfigError, match="unique"):
            DatasetSpec(indices=(1, 1))
        with pytest.raises(ConfigError, match="out of range"):
            DatasetSpec(indices=(5,)).resolve(3)


class TestSharding:
    def test_shard_of_is_stable_and_in_range(self):
        for count in (1, 2, 3, 7):
            for identity in ("a/tolerance/i0", "b/extract/i3@p9", "b/probe/n2.neg"):
                shard = shard_of(identity, count)
                assert 0 <= shard < count
                assert shard == shard_of(identity, count)  # pure function
        assert shard_of("x", 1) == 0
        with pytest.raises(ConfigError):
            shard_of("x", 0)

    def test_every_task_lands_in_exactly_one_shard(self):
        service = BatchService(small_spec())
        jobs = service.plan()
        total = sum(len(job.tasks) for job in jobs)
        assert total > 0
        for count in (1, 2, 3):
            owned = sum(
                len(job.shard_tasks(index, count))
                for job in jobs
                for index in range(count)
            )
            assert owned == total

    def test_identities_are_globally_unique(self):
        jobs = BatchService(small_spec()).plan()
        identities = [p.identity for job in jobs for p in job.tasks]
        assert len(identities) == len(set(identities))


@pytest.fixture(scope="module")
def merged_baseline(tmp_path_factory):
    """The unsharded single-process run's merged report (bytes + record)."""
    out = tmp_path_factory.mktemp("baseline")
    service = BatchService(small_spec())
    service.run_shard(0, 1, out)
    record = service.merge(out)
    target = out / "merged.json"
    save_record(record, target)
    return target.read_bytes(), record


class TestShardDeterminism:
    """1 shard vs N shards vs shuffled job order: identical merged bytes."""

    @pytest.mark.parametrize("shard_count", [2, 3])
    def test_sharded_runs_merge_bit_identical(
        self, tmp_path, merged_baseline, shard_count
    ):
        baseline_bytes, _ = merged_baseline
        service = BatchService(small_spec())
        for index in range(shard_count):
            service.run_shard(index, shard_count, tmp_path)
        record = service.merge(tmp_path)
        target = tmp_path / "merged.json"
        save_record(record, target)
        assert target.read_bytes() == baseline_bytes

    def test_shuffled_job_order_merges_bit_identical(self, tmp_path, merged_baseline):
        baseline_bytes, _ = merged_baseline
        shuffled = small_spec(jobs=tuple(reversed(small_spec().jobs)))
        service = BatchService(shuffled)
        for index in range(2):
            service.run_shard(index, 2, tmp_path)
        record = service.merge(tmp_path)
        target = tmp_path / "merged.json"
        save_record(record, target)
        assert target.read_bytes() == baseline_bytes

    def test_merged_report_reflects_the_known_flips(self, merged_baseline):
        _, record = merged_baseline
        jobs = {job["name"]: job for job in record.measured["jobs"]}
        flips = jobs["flips"]["tolerance"]
        assert flips["min_flip_percents"] == [8]  # test[10] flips at ±8%
        assert flips["tolerance"] == 7
        extraction = jobs["flips"]["extraction"]
        assert extraction["total_vectors"] > 0
        assert extraction["bias"]["confirmed"]  # L0 -> L1, the paper's signature
        assert jobs["probes"]["probe"]["thresholds"]  # probes actually merged
        comparison = record.measured["comparison"]
        assert [row["job"] for row in comparison["min_tolerance"]] == [
            "flips",
            "probes",
        ]

    def test_parallel_shard_run_matches_serial(self, tmp_path, merged_baseline):
        baseline_bytes, _ = merged_baseline
        spec = replace(small_spec(), runtime=RuntimeConfig(workers=2))
        service = BatchService(spec)
        service.run_shard(0, 1, tmp_path)
        record = service.merge(tmp_path)
        # The runtime knob may not leak into the merged measurements:
        # only the manifest echo differs, so compare the measured payload.
        _, baseline_record = merged_baseline
        assert record.measured == baseline_record.measured


class TestMergeFailurePaths:
    def test_missing_shards_refuse_to_merge(self, tmp_path):
        service = BatchService(small_spec())
        service.run_shard(0, 2, tmp_path)  # second shard never ran
        with pytest.raises(DataError, match="missing"):
            service.merge(tmp_path)

    def test_empty_directory_refuses_to_merge(self, tmp_path):
        with pytest.raises(DataError, match="no shard files"):
            BatchService(small_spec()).merge(tmp_path)

    def test_unreadable_shard_file_refuses_to_merge(self, tmp_path):
        service = BatchService(small_spec())
        service.run_shard(0, 1, tmp_path)
        next(iter(tmp_path.glob("*.json"))).write_text("{broken", encoding="utf-8")
        with pytest.raises(DataError, match="unreadable"):
            service.merge(tmp_path)

    def test_foreign_manifest_results_are_rejected(self, tmp_path):
        wider = BatchSpec(
            name="small",  # same batch name, different extraction percent
            jobs=(
                replace(
                    small_spec().job("flips"), extraction=ExtractionSpec(percent=8)
                ),
                small_spec().job("probes"),
            ),
        )
        BatchService(wider).run_shard(0, 1, tmp_path)
        with pytest.raises(DataError, match="missing|unplanned|header"):
            BatchService(small_spec()).merge(tmp_path)

    def test_zero_task_job_still_merges(self, tmp_path):
        """Regression: a job whose slice plans zero tasks wrote no shard
        file, and merge crashed on its missing header."""
        spec = BatchSpec(
            name="with-empty",
            jobs=(
                JobSpec(
                    name="real",
                    dataset=DatasetSpec(indices=(EARLY_FLIP,)),
                    tolerance=ToleranceSpec(ceiling=10),
                ),
                JobSpec(
                    name="empty",
                    dataset=DatasetSpec(start=0, stop=0),  # empty slice
                    tolerance=ToleranceSpec(ceiling=10),
                ),
            ),
        )
        service = BatchService(spec)
        service.run_shard(0, 1, tmp_path)
        record = service.merge(tmp_path)
        jobs = {job["name"]: job for job in record.measured["jobs"]}
        assert jobs["empty"]["tolerance"]["per_input"] == []
        assert jobs["empty"]["tolerance"]["tolerance"] == 10  # vacuously robust
        assert jobs["real"]["tolerance"]["min_flip_percents"] == [8]

    def test_other_campaigns_in_the_directory_are_ignored(self, tmp_path):
        other = BatchService(small_spec(name="other"))
        other.run_shard(0, 1, tmp_path)
        service = BatchService(small_spec())
        service.run_shard(0, 1, tmp_path)
        record = service.merge(tmp_path)
        assert record.experiment_id == "batch-small"


class TestFileNetworks:
    def test_job_over_a_saved_network_file(self, tmp_path):
        from repro.data import load_leukemia_case_study
        from repro.nn import save_network, train_paper_network

        case_study = load_leukemia_case_study()
        result = train_paper_network(
            case_study.train.features, case_study.train.labels
        )
        net_path = tmp_path / "net.json"
        save_network(result.network, net_path)
        spec = BatchSpec(
            name="from-file",
            jobs=(
                JobSpec(
                    name="loaded",
                    network=NetworkSpec(kind="file", path=str(net_path)),
                    dataset=DatasetSpec(indices=(EARLY_FLIP,)),
                    tolerance=ToleranceSpec(ceiling=10),
                ),
            ),
        )
        service = BatchService(spec)
        service.run_shard(0, 1, tmp_path / "out")
        record = service.merge(tmp_path / "out")
        tolerance = record.measured["jobs"][0]["tolerance"]
        # The saved seed-7 network behaves like the freshly trained one.
        assert tolerance["min_flip_percents"] == [8]


class TestBatchCli:
    def _manifest(self, tmp_path) -> str:
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(small_spec().to_dict()), encoding="utf-8")
        return str(path)

    def test_plan_prints_the_shard_table(self, tmp_path, capsys):
        assert main(["batch", "plan", self._manifest(tmp_path), "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch 'small'" in out
        assert "flips" in out and "probes" in out
        assert "shard totals" in out

    def test_run_then_merge_end_to_end(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        out_dir = str(tmp_path / "out")
        for shard in ("1/2", "2/2"):
            assert main(["batch", "run", manifest, "--out", out_dir, "--shard", shard]) == 0
        assert main(["batch", "merge", manifest, out_dir]) == 0
        printed = capsys.readouterr().out
        assert "min-tolerance distribution" in printed
        assert "per-class bias delta" in printed
        assert (tmp_path / "out" / "merged.json").exists()

    @pytest.mark.parametrize("shard", ["0/2", "3/2", "2", "a/b", "1/0"])
    def test_bad_shard_specs_fail_loudly(self, tmp_path, capsys, shard):
        manifest = self._manifest(tmp_path)
        out_dir = str(tmp_path / "out")
        assert main(["batch", "run", manifest, "--out", out_dir, "--shard", shard]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_manifest_exits_with_an_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["batch", "plan", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestConfigFromDict:
    def test_runtime_config_from_dict(self):
        config = RuntimeConfig.from_dict({"workers": 3, "cache_dir": "x"})
        assert config.workers == 3 and config.cache_dir == "x"
        assert RuntimeConfig.from_dict(None) == RuntimeConfig()

    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="cache_dirs"):
            RuntimeConfig.from_dict({"cache_dirs": "x"})
        with pytest.raises(ConfigError, match="unknown VerifierConfig"):
            VerifierConfig.from_dict({"sed": 1})

    def test_field_validation_still_applies(self):
        with pytest.raises(ConfigError, match="workers"):
            RuntimeConfig.from_dict({"workers": 0})


class TestJsonable:
    """Shard-file payloads must serialise whatever the runtime hands back.

    Task outcomes can carry numpy scalars (an ``np.int64`` index, an
    ``np.float64`` median) or small arrays; ``json.dumps`` refuses all
    of them.  ``_jsonable`` converts them to their exact Python
    equivalents, and — load-bearing for resume — the conversion is
    digest-stable: the ledger digest of a converted outcome equals the
    digest of its plain-Python twin, so a resumed shard validates
    results written before the numpy types ever appeared.
    """

    def test_numpy_scalars_and_arrays_convert_exactly(self):
        import numpy as np

        from repro.service.service import _jsonable

        converted = _jsonable(
            {
                "index": np.int64(7),
                "median": np.float64(8.5),
                "flag": np.bool_(True),
                "witness": np.array([3, -1], dtype=np.int32),
                "grid": np.array([[1.5, 2.0]]),
            }
        )
        assert converted == {
            "index": 7,
            "median": 8.5,
            "flag": True,
            "witness": [3, -1],
            "grid": [[1.5, 2.0]],
        }
        # numpy-typed keys become their exact Python twins too
        assert _jsonable({np.int64(4): "np-keyed"}) == {4: "np-keyed"}
        blob = json.dumps(converted, sort_keys=True)  # must not raise
        assert isinstance(converted["index"], int)
        assert not isinstance(converted["index"], bool)
        assert isinstance(converted["median"], float)
        assert isinstance(converted["flag"], bool)
        assert "7" in blob

    def test_conversion_is_digest_stable(self):
        import numpy as np

        from repro.service import outcome_digest
        from repro.service.service import _jsonable

        plain = {"min_flip_percent": 8, "witness": [3, -1], "queries": 4.0}
        numpyish = {
            "min_flip_percent": np.int64(8),
            "witness": np.array([3, -1]),
            "queries": np.float64(4.0),
        }
        assert outcome_digest(_jsonable(numpyish)) == outcome_digest(plain)

    def test_nested_tuples_still_become_lists(self):
        from repro.service.service import _jsonable

        assert _jsonable({"a": (1, (2, 3))}) == {"a": [1, [2, 3]]}
