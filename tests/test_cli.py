"""CLI smoke tests (fast paths only; `run` is covered by integration)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_no_args_shows_help(self, capsys):
        assert main([]) == 2
        assert "fannet" in capsys.readouterr().out

    def test_train_saves_network(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["train", str(out)]) == 0
        assert out.exists()
        assert "trained" in capsys.readouterr().out

    def test_translate_writes_smv(self, tmp_path, capsys):
        out = tmp_path / "model.smv"
        assert main(["translate", "--noise", "1", "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("MODULE fannet")
        assert "INVARSPEC" in text

    def test_check_engine_on_generated_model(self, tmp_path, capsys):
        model = tmp_path / "counter.smv"
        model.write_text(
            """
MODULE main
VAR
  n : 0..3;
ASSIGN
  init(n) := 0;
  next(n) := case n < 3 : n + 1; TRUE : 0; esac;
INVARSPEC n <= 3;
INVARSPEC n <= 1;
""",
            encoding="utf-8",
        )
        code = main(["check", str(model)])
        out = capsys.readouterr().out
        assert code == 1  # one property fails
        assert "[HOLDS]" in out and "[VIOLATED]" in out
        assert "State 0" in out  # counterexample trace printed

    def test_check_has_no_engine_option(self, tmp_path, capsys):
        model = tmp_path / "counter.smv"
        model.write_text("MODULE main VAR x : boolean; INVARSPEC x | !x;", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["check", str(model), "--engine", "bdd"])
        assert exit_info.value.code == 2  # argparse: unrecognized arguments

    def test_check_model_without_specs(self, tmp_path, capsys):
        model = tmp_path / "empty.smv"
        model.write_text("MODULE main VAR x : boolean;", encoding="utf-8")
        assert main(["check", str(model)]) == 1

    def test_check_reports_parse_error_gracefully(self, tmp_path, capsys):
        model = tmp_path / "broken.smv"
        model.write_text("MODULE main VAR x : ;", encoding="utf-8")
        assert main(["check", str(model)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_statespace_matches_paper(self, capsys):
        assert main(["statespace", "--noise", "1"]) == 0
        out = capsys.readouterr().out
        assert "3 states, 6 transitions" in out


class TestCliCachePersistence:
    """`--cache-dir` warm replays: second run answers everything from disk."""

    def _tolerance(self, capsys, *extra):
        assert main(["tolerance", "--ceiling", "6", *extra]) == 0
        return capsys.readouterr().out

    @staticmethod
    def _report_lines(out: str) -> list[str]:
        """The verdict lines only (stats lines legitimately differ)."""
        return [
            line
            for line in out.splitlines()
            if line.startswith(("noise tolerance", "  test["))
        ]

    def test_second_run_issues_zero_solver_calls(self, tmp_path, capsys):
        cache_dir = tmp_path / "qcache"
        cold = self._tolerance(capsys, "--cache-dir", str(cache_dir))
        assert "runner: 0 verifier calls" not in cold
        assert "saved under" in cold
        assert list(cache_dir.glob("*.qcache"))

        warm = self._tolerance(capsys, "--cache-dir", str(cache_dir))
        assert "runner: 0 verifier calls, 0 extractions" in warm
        assert "entries loaded" in warm
        # Bit-identical verdicts, cold vs warm-from-disk.
        assert self._report_lines(warm) == self._report_lines(cold)

    def test_corrupt_cache_file_degrades_to_cold_run(self, tmp_path, capsys):
        import pytest

        from repro.runtime import CacheStoreWarning

        cache_dir = tmp_path / "qcache"
        self._tolerance(capsys, "--cache-dir", str(cache_dir))
        for path in cache_dir.glob("*.qcache"):
            path.write_bytes(path.read_bytes()[:40])  # truncate mid-header
        with pytest.warns(CacheStoreWarning):
            out = self._tolerance(capsys, "--cache-dir", str(cache_dir))
        assert "0 entries loaded" in out
        assert "runner: 0 verifier calls" not in out  # genuinely re-solved


class TestCliCacheLifecycle:
    """`fannet cache list|inspect|prune`: golden output and exit codes."""

    @staticmethod
    def _store_files(tmp_path, contexts=("aaaa1111:bbbb2222", "cccc3333:dddd4444")):
        """Real store files with strictly increasing mtimes, oldest first."""
        import os

        from repro.runtime import CacheStore, make_key

        store = CacheStore(tmp_path)
        paths = []
        for offset, context in enumerate(contexts):
            entries = {
                make_key("verify", i, (1, 2), 0, 5): f"verdict-{context}-{i}"
                for i in range(offset + 1)
            }
            path = store.save(context, entries)
            os.utime(path, (1000 + offset, 1000 + offset))
            paths.append(path)
        return paths

    def test_list_shows_contexts_entries_and_junk(self, tmp_path, capsys):
        self._store_files(tmp_path)
        (tmp_path / "junk.qcache").write_bytes(b"garbage")
        (tmp_path / "unrelated.txt").write_text("not scanned", encoding="utf-8")
        assert main(["cache", "list", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aaaa1111:bbbb2222" in out and "cccc3333:dddd4444" in out
        assert "INVALID: no FANNet cache header" in out
        assert "unrelated.txt" not in out  # only *.qcache is scanned
        assert "3 cache file(s)" in out

    def test_list_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "list", str(tmp_path)]) == 0
        assert "no cache store files" in capsys.readouterr().out

    def test_list_missing_directory_exits_nonzero(self, tmp_path, capsys):
        assert main(["cache", "list", str(tmp_path / "absent")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_inspect_prints_the_header(self, tmp_path, capsys):
        from repro.runtime.store import STORE_VERSION

        old, _ = self._store_files(tmp_path)
        assert main(["cache", "inspect", str(old)]) == 0
        out = capsys.readouterr().out
        assert f"store version : {STORE_VERSION}" in out
        assert "context       : aaaa1111:bbbb2222" in out
        assert "entries       : 1" in out
        assert "checksum      : ok" in out

    def test_inspect_refuses_non_store_files(self, tmp_path, capsys):
        junk = tmp_path / "junk.qcache"
        junk.write_bytes(b"garbage")
        assert main(["cache", "inspect", str(junk)]) == 1
        assert "not a valid cache store file" in capsys.readouterr().err
        assert main(["cache", "inspect", str(tmp_path / "absent.qcache")]) == 1
        assert "not a file" in capsys.readouterr().err

    def test_inspect_refuses_truncated_store_files(self, tmp_path, capsys):
        old, _ = self._store_files(tmp_path)
        old.write_bytes(old.read_bytes()[:-5])
        assert main(["cache", "inspect", str(old)]) == 1
        assert "checksum" in capsys.readouterr().err

    def test_prune_dry_run_removes_nothing(self, tmp_path, capsys):
        old, new = self._store_files(tmp_path)
        budget = new.stat().st_size
        code = main(
            ["cache", "prune", str(tmp_path), "--max-cache-bytes", str(budget),
             "--dry-run"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dry run" in out and "would evict 1 file(s)" in out
        assert old.name in out
        assert old.exists() and new.exists()  # nothing touched

    def test_prune_honours_the_budget_lru_by_mtime(self, tmp_path, capsys):
        old, new = self._store_files(tmp_path)
        budget = new.stat().st_size
        assert main(
            ["cache", "prune", str(tmp_path), "--max-cache-bytes", str(budget)]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 1 file(s)" in out
        assert not old.exists()  # oldest mtime went first
        assert new.exists()  # newest survived within budget

    def test_prune_to_zero_keeps_only_non_store_files(self, tmp_path, capsys):
        self._store_files(tmp_path)
        junk = tmp_path / "junk.qcache"
        junk.write_bytes(b"garbage")
        note = tmp_path / "README.txt"
        note.write_text("docs", encoding="utf-8")
        assert main(["cache", "prune", str(tmp_path), "--max-cache-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted 2 file(s)" in out
        assert "skipped (not a store file): junk.qcache" in out
        assert list(tmp_path.glob("*.qcache")) == [junk]  # junk survives
        assert junk.exists() and note.exists()

    def test_prune_missing_directory_exits_nonzero(self, tmp_path, capsys):
        assert main(
            ["cache", "prune", str(tmp_path / "absent"), "--max-cache-bytes", "0"]
        ) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_flush_time_pruning_never_evicts_the_live_context(
        self, tmp_path, capsys
    ):
        """`--max-cache-bytes 0` on a run: every *other* context ages
        out at flush, but the context the run itself just wrote survives
        its own eviction pass."""
        import os

        cache_dir = tmp_path / "qcache"
        (old,) = self._store_files(cache_dir, contexts=("dead0000:beef0000",))
        os.utime(old, (1, 1))  # archaeologically old
        assert main(
            ["tolerance", "--ceiling", "5", "--cache-dir", str(cache_dir),
             "--max-cache-bytes", "0"]
        ) == 0
        survivors = list(cache_dir.glob("*.qcache"))
        assert old not in survivors  # the cold neighbour was evicted
        assert len(survivors) == 1  # the live run's own context was not


class TestPruneAccounting:
    """Unlink failures must not corrupt the prune report's books.

    The eviction plan is fixed from sizes alone before the first
    unlink, so a file that cannot be removed (a read-only directory
    entry, an NFS permission quirk) lands back in ``kept`` with its
    bytes in ``remaining_bytes`` — and its failure never widens the
    eviction to newer files a dry run would not have named.
    """

    _store_files = staticmethod(TestCliCacheLifecycle._store_files)

    def test_unlink_failure_keeps_books_consistent(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.runtime import prune_cache_dir

        old, new = self._store_files(tmp_path)
        sizes = {old: old.stat().st_size, new: new.stat().st_size}

        # Same effect as a read-only directory entry, without depending
        # on the test running unprivileged (root ignores file modes).
        real_unlink = Path.unlink

        def refusing_unlink(self, *args, **kwargs):
            if self.name == old.name:
                raise OSError(13, "Permission denied")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", refusing_unlink)
        report = prune_cache_dir(tmp_path, max_bytes=0)

        assert [info.path for info in report.evicted] == [new]
        assert old in [info.path for info in report.kept]
        assert report.errors and "Permission denied" in report.errors[0]
        # books: every scanned byte is in exactly one column
        assert report.evicted_bytes == sizes[new]
        assert report.remaining_bytes == sizes[old]
        assert old.exists() and not new.exists()

    def test_dry_run_predicts_the_real_eviction_set(self, tmp_path):
        from repro.runtime import prune_cache_dir

        self._store_files(tmp_path, contexts=("aaaa1111:bbbb2222",
                                              "cccc3333:dddd4444",
                                              "eeee5555:ffff6666"))
        budget = sorted(p.stat().st_size for p in tmp_path.glob("*.qcache"))[-1]
        preview = prune_cache_dir(tmp_path, max_bytes=budget, dry_run=True)
        assert preview.dry_run and all(
            info.path.exists() for info in preview.evicted
        )
        real = prune_cache_dir(tmp_path, max_bytes=budget)
        assert [i.path for i in preview.evicted] == [i.path for i in real.evicted]
        assert preview.evicted_bytes == real.evicted_bytes
        assert preview.remaining_bytes == real.remaining_bytes
        assert not any(info.path.exists() for info in real.evicted)
