"""Adversarial tests for the disk cache store (:mod:`repro.runtime.store`).

The store's contract is asymmetric: a good file saves solver time, and a
bad file — truncated, stale-version, wrong-context, foreign, torn —
must cost at most a warning and a cold start.  It may *never* crash a
run or smuggle a verdict from another model/config into the cache.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.runtime import CacheStore, CacheStoreWarning, inspect_cache_file, make_key
from repro.runtime.store import MAGIC, STORE_VERSION, _LEN_BYTES


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path)


@pytest.fixture
def entries():
    return {
        make_key("verify", 0, (1, 2), 0, 5): "verdict",
        make_key("probe", 0, (1, 2), 0, 7, extra=(1, -1)): True,
        make_key("probe", 0, (1, 2), 0, 9, extra=(0, 1)): None,  # None payload
    }


CONTEXT = "aaaa1111:bbbb2222"

#: Written to by :func:`_record_execution` — the canary for pickle-RCE tests.
_EXECUTED: list[str] = []


def _record_execution():
    """Stands in for ``os.system`` in crafted-pickle payloads."""
    _EXECUTED.append("pwned")
    return None


def assert_cold(store, context=CONTEXT):
    """The load degrades to a cold start: {} plus exactly one warning."""
    with pytest.warns(CacheStoreWarning):
        loaded = store.load(context)
    assert loaded == {}
    assert store.loaded_entries == 0
    return loaded


class TestRoundTrip:
    def test_save_then_load_is_identity(self, store, entries):
        path = store.save(CONTEXT, entries)
        assert path is not None and path.exists()
        assert path.parent == store.directory
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clean load must not warn
            assert store.load(CONTEXT) == entries
        assert store.loaded_entries == len(entries)

    def test_missing_file_is_a_silent_cold_start(self, store):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # absence is normal, no warning
            assert store.load(CONTEXT) == {}

    def test_contexts_get_separate_files(self, store, entries):
        store.save(CONTEXT, entries)
        store.save("cccc3333:dddd4444", {next(iter(entries)): "other"})
        assert len(list(store.directory.glob("*.qcache"))) == 2
        assert store.load(CONTEXT) == entries

    def test_resave_replaces_the_file(self, store, entries):
        store.save(CONTEXT, entries)
        smaller = dict(list(entries.items())[:1])
        store.save(CONTEXT, smaller)
        assert store.load(CONTEXT) == smaller

    def test_save_into_missing_directory_creates_it(self, tmp_path, entries):
        store = CacheStore(tmp_path / "deeply" / "nested")
        assert store.save(CONTEXT, entries) is not None
        assert store.load(CONTEXT) == entries


class TestCorruption:
    def test_truncated_payload(self, store, entries):
        path = store.save(CONTEXT, entries)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        assert_cold(store)

    def test_truncated_inside_header(self, store, entries):
        path = store.save(CONTEXT, entries)
        path.write_bytes(path.read_bytes()[: len(MAGIC) + _LEN_BYTES + 3])
        assert_cold(store)

    def test_truncated_to_bare_magic(self, store, entries):
        path = store.save(CONTEXT, entries)
        path.write_bytes(MAGIC)
        assert_cold(store)

    def test_flipped_payload_byte_fails_checksum(self, store, entries):
        path = store.save(CONTEXT, entries)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert_cold(store)

    def test_foreign_file_without_magic(self, store):
        path = store.path_for(CONTEXT)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a cache file at all")
        assert_cold(store)

    def test_empty_file(self, store):
        path = store.path_for(CONTEXT)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        assert_cold(store)

    def test_crafted_pickle_payload_is_rejected_not_executed(self, store):
        """The classic pickle RCE vector: a payload whose reduction calls an
        arbitrary callable.  The restricted unpickler must refuse it before
        anything runs, and the load degrades to a warned cold start."""
        import hashlib

        from repro.runtime.store import STORE_VERSION

        class Exploit:
            def __reduce__(self):
                return (_record_execution, ())

        payload = pickle.dumps({("verify", 0, (1,), 0, 5, ()): Exploit()})
        header = pickle.dumps(
            {
                "version": STORE_VERSION,
                "context": CONTEXT,
                "checksum": hashlib.sha256(payload).hexdigest(),
                "entries": 1,
            }
        )
        path = store.path_for(CONTEXT)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(MAGIC + len(header).to_bytes(_LEN_BYTES, "big") + header + payload)
        _EXECUTED.clear()
        assert_cold(store)
        assert _EXECUTED == []  # the exploit callable never ran

    def test_crafted_pickle_header_is_rejected_not_executed(self, store):
        class Exploit:
            def __reduce__(self):
                return (_record_execution, ())

        header = pickle.dumps({"version": Exploit()})
        path = store.path_for(CONTEXT)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(MAGIC + len(header).to_bytes(_LEN_BYTES, "big") + header)
        _EXECUTED.clear()
        assert_cold(store)
        assert _EXECUTED == []

    def test_malformed_keys_in_a_valid_frame_degrade_to_cold(self, store):
        """A checksum-valid file whose keys don't match the make_key layout
        must not reach QueryCache.preload (whose indexing would crash)."""
        for bad_entries in (
            {1: "x"},  # key is not a tuple at all
            {("verify", 0): "x"},  # too short to unpack
            {("verify", "zero", (1,), 0, 5, ()): "x"},  # index not an int
            {("verify", 0, "12", 0, 5, ()): "x"},  # values not a tuple
        ):
            assert store.save(CONTEXT, bad_entries) is not None  # well-framed
            assert_cold(store)

    def test_runner_survives_a_malformed_cache_file(self, tmp_path):
        """End to end: a bad file costs a warning, never a crashed run."""
        from repro.config import RuntimeConfig
        from repro.runtime import CacheStoreWarning, QueryRunner
        from repro.runtime.fingerprint import runtime_context
        from test_runtime import make_network

        network = make_network(
            [[1500, -500], [-800, 1200], [400, 400]],
            [100, -200, 0],
            [[1000, -300, 500], [-700, 900, 200]],
            [50, -50],
        )
        seed = QueryRunner(network, runtime=RuntimeConfig(cache_dir=str(tmp_path)))
        seed.verify_at((10, 20), network.predict((10, 20)), 5)
        seed.close()
        # Overwrite the real context's file with a well-framed bad payload.
        CacheStore(tmp_path).save(
            runtime_context(network, seed.config), {1: "not a key"}
        )
        with pytest.warns(CacheStoreWarning):
            runner = QueryRunner(network, runtime=RuntimeConfig(cache_dir=str(tmp_path)))
        assert len(runner.cache) == 0  # cold, not crashed
        assert runner.verify_at((10, 20), network.predict((10, 20)), 5) is not None

    def test_legitimate_verdict_entries_survive_the_restriction(self, store):
        """The allowlist must still admit real VerificationResult payloads."""
        from repro.verify.result import VerificationResult, VerificationStatus

        entries = {
            make_key("verify", 0, (1, 2), 0, 5): VerificationResult(
                status=VerificationStatus.VULNERABLE,
                witness=(3, -4),
                predicted_label=1,
                engine="test",
                stats={"nodes": 17},
            )
        }
        store.save(CONTEXT, entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = store.load(CONTEXT)
        result = loaded[make_key("verify", 0, (1, 2), 0, 5)]
        assert result.status is VerificationStatus.VULNERABLE
        assert result.witness == (3, -4)

    def test_header_is_not_a_dict(self, store, entries):
        payload = pickle.dumps(entries)
        header = pickle.dumps(["not", "a", "dict"])
        path = store.path_for(CONTEXT)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(MAGIC + len(header).to_bytes(_LEN_BYTES, "big") + header + payload)
        assert_cold(store)


class TestCompatibility:
    def _tamper_header(self, store, cached, **overrides):
        """Rewrite the saved file with a modified (self-consistent) header."""
        path = store.save(CONTEXT, cached)
        raw = path.read_bytes()
        body = raw[len(MAGIC):]
        header_len = int.from_bytes(body[:_LEN_BYTES], "big")
        header = pickle.loads(body[_LEN_BYTES:_LEN_BYTES + header_len])
        payload = body[_LEN_BYTES + header_len:]
        header.update(overrides)
        blob = pickle.dumps(header)
        path.write_bytes(MAGIC + len(blob).to_bytes(_LEN_BYTES, "big") + blob + payload)
        return path

    def test_future_store_version_is_discarded(self, store, entries):
        self._tamper_header(store, entries, version=STORE_VERSION + 1)
        assert_cold(store)

    def test_ancient_store_version_is_discarded(self, store, entries):
        self._tamper_header(store, entries, version=0)
        assert_cold(store)

    def test_mismatched_context_fingerprint_is_discarded(self, store, entries):
        # A file renamed (or hash-colliding) onto another context's path:
        # the embedded fingerprint disagrees and the file is not trusted.
        source = store.save(CONTEXT, entries)
        other = "eeee5555:ffff6666"
        source.rename(store.path_for(other))
        assert_cold(store, context=other)

    def test_entry_count_mismatch_is_discarded(self, store, entries):
        self._tamper_header(store, entries, entries=len(entries) + 1)
        assert_cold(store)

    def test_header_with_engine_stats_still_loads(self, store, entries):
        # Files written while stage statistics were persisted carry them
        # as an extra header field after the others; the reader ignores it.
        path = self._tamper_header(
            store,
            entries,
            engine_stats={"interval": {"attempts": 3, "decided": 2, "wall_s": 0.5}},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", CacheStoreWarning)
            assert store.load(CONTEXT) == entries
        assert store.loaded_entries == len(entries)
        info = inspect_cache_file(path)
        assert info.ok and info.version == STORE_VERSION
        assert info.entries == len(entries) and info.context == CONTEXT


class TestConcurrency:
    def test_last_writer_wins(self, store, tmp_path, entries):
        """Two runs racing on one context converge on the later snapshot."""
        first = CacheStore(tmp_path)
        second = CacheStore(tmp_path)
        first_entries = {make_key("verify", 0, (1,), 0, 5): "first"}
        second_entries = {make_key("verify", 0, (1,), 0, 5): "second",
                          make_key("verify", 0, (1,), 0, 9): "extra"}
        first.save(CONTEXT, first_entries)
        second.save(CONTEXT, second_entries)
        assert store.load(CONTEXT) == second_entries
        # No temp files left behind by either writer.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_unpicklable_payload_warns_instead_of_raising(self, store):
        """save() keeps its never-raise contract even when an entry holds
        something pickle cannot serialise (e.g. a live handle)."""
        import threading

        bad = {make_key("verify", 0, (1,), 0, 5): threading.Lock()}
        with pytest.warns(CacheStoreWarning):
            assert store.save(CONTEXT, bad) is None
        assert store.saved_entries == 0
        assert not list(store.directory.glob("*.qcache"))

    def test_failed_write_warns_and_returns_none(self, tmp_path, entries):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the store wants a directory", encoding="utf-8")
        store = CacheStore(blocker / "sub")
        with pytest.warns(CacheStoreWarning):
            assert store.save(CONTEXT, entries) is None
        assert store.saved_entries == 0

    def test_unreadable_path_warns_and_degrades(self, tmp_path, entries):
        blocker = tmp_path / "blocked"
        blocker.write_text("plain file", encoding="utf-8")
        store = CacheStore(blocker / "sub")  # path_for() traverses a file
        with pytest.warns(CacheStoreWarning):
            assert store.load(CONTEXT) == {}
