"""Disk persistence for the query cache: warm-start across CLI runs.

A :class:`CacheStore` spills a cache's exact entries to one file per
*context* (the network + verifier-config fingerprint pair from
:mod:`repro.runtime.fingerprint`), so a second run over the same model
and budget starts with every previously-proved verdict already in
memory — zero solver calls for a repeated workload.

File format (version :data:`STORE_VERSION`)::

    MAGIC                       fixed byte string, format marker
    header length               8-byte big-endian unsigned int
    header                      pickle: {"version", "context", "checksum",
                                "entries", "engine_stats"?}
    payload                     pickle of the {key: value} entry dict

The header's ``checksum`` is the SHA-256 of the payload bytes and
``entries`` its entry count, so truncation and bit-rot are detected
before any payload byte is unpickled into the cache.

The optional ``engine_stats`` header field carries the
:class:`~repro.verify.stats.EngineStats` snapshot (plain containers
only) so a warm-started run schedules its portfolio stages from
day-one statistics.  Files without the field — every pre-scheduler
file — load exactly as before; the stats are *advisory* (they steer
stage order, never verdicts), so they ride outside the payload
checksum and a malformed table simply degrades to canonical order.

Trust policy — a cache file is *evidence, never authority*:

- wrong magic, wrong version, context mismatch, checksum mismatch,
  truncation, or any unpickling error ⇒ the file is ignored with a
  :class:`CacheStoreWarning` and the run proceeds cold.  A bad cache
  file can cost time; it can never change a verdict.
- deserialisation is *restricted*: the unpickler resolves only the
  result types a cache entry legitimately contains (see
  :data:`_ALLOWED_GLOBALS`) plus pickle's built-in containers and
  scalars.  A crafted file referencing any other callable — the classic
  pickle code-execution vector — is rejected before anything runs, and
  degrades to the same warned cold start.
- writes are atomic (temp file + ``os.replace``), so a reader racing a
  writer sees either the old file or the new one, never a torn mix;
  concurrent runs degrade to last-writer-wins.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import warnings
from pathlib import Path
from typing import Any

from ..ioutils import atomic_write_bytes
from .cache import QueryKey

#: Leading bytes of every cache file; anything else is not ours.
MAGIC = b"FANNET-QCACHE\n"

#: Bump whenever the entry layout changes — or when cached payloads
#: become version-dependent in any observable way; older files are
#: discarded.  Version 2: the random falsifier's sampling stream changed
#: (one broadcast draw per block instead of per-dimension draws), so
#: witnesses cached by version-1 code would make a warm replay diverge
#: from a cold run of the current code.  Version 3: the extraction
#: collector's seed derivation moved from the run-wide base seed to the
#: per-input ``(seed, index)`` contract, so solver-driven "extract"
#: entries cached by version-2 code would serve old-stream vector sets
#: that a cold run of the current code cannot reproduce.  Dropping the
#: cutoff from the "extract" key (``(limit, cutoff)`` → ``(limit,)``)
#: needed no bump: old keys cannot collide with new ones, they only miss.
STORE_VERSION = 3

_LEN_BYTES = 8


class CacheStoreWarning(UserWarning):
    """A cache file was unusable and has been ignored (cold start)."""


#: The only non-builtin globals a legitimate cache entry pickles: the
#: verdict container and its status enum.  Everything else a snapshot
#: holds (keys, witnesses, extraction dicts, probe booleans) is plain
#: containers and scalars, which pickle reconstructs without imports.
_ALLOWED_GLOBALS = frozenset(
    {
        ("repro.verify.result", "VerificationResult"),
        ("repro.verify.result", "VerificationStatus"),
    }
)


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that refuses every global outside :data:`_ALLOWED_GLOBALS`."""

    def find_class(self, module, name):
        if (module, name) in _ALLOWED_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"cache file references disallowed type {module}.{name}"
        )


def _restricted_loads(blob: bytes) -> Any:
    return _RestrictedUnpickler(io.BytesIO(blob)).load()


def _valid_key(key: Any) -> bool:
    """Structural check against the :func:`repro.runtime.cache.make_key`
    layout: ``(kind, index, input values, true label, percent, extra)``."""
    return (
        isinstance(key, tuple)
        and len(key) == 6
        and isinstance(key[0], str)
        and isinstance(key[1], int)
        and not isinstance(key[1], bool)
        and isinstance(key[2], tuple)
        and isinstance(key[3], int)
        and not isinstance(key[3], bool)
        and isinstance(key[4], int)
        and not isinstance(key[4], bool)
    )


def _warn(message: str) -> None:
    warnings.warn(message, CacheStoreWarning, stacklevel=3)


def parse_store_blob(raw: bytes) -> tuple[dict | None, bytes | None, str | None]:
    """Split a raw cache-file blob into ``(header, payload, error)``.

    The one place the binary layout (magic, length-prefixed restricted-
    pickle header, payload) is parsed — :meth:`CacheStore._decode` and
    the lifecycle tooling (:mod:`repro.runtime.lifecycle`) both build on
    it.  Verifies structure and the header's payload checksum; does NOT
    unpickle the payload (the caller decides whether to trust it).  On
    any problem returns ``(None, None, reason)``.
    """
    if not raw.startswith(MAGIC):
        return None, None, "no FANNet cache header"
    body = raw[len(MAGIC):]
    if len(body) < _LEN_BYTES:
        return None, None, "truncated before the header length"
    header_len = int.from_bytes(body[:_LEN_BYTES], "big")
    header_blob = body[_LEN_BYTES:_LEN_BYTES + header_len]
    payload = body[_LEN_BYTES + header_len:]
    if len(header_blob) < header_len:
        return None, None, "truncated inside the header"
    try:
        header = _restricted_loads(header_blob)
    except Exception as err:
        return None, None, f"corrupt header ({err!r})"
    if not isinstance(header, dict):
        return None, None, "malformed header"
    if hashlib.sha256(payload).hexdigest() != header.get("checksum"):
        return None, None, "payload failed its checksum (truncated?)"
    return header, payload, None


class CacheStore:
    """Per-context cache files under one directory.

    ``load``/``save`` never raise on bad files or I/O failures — the
    cache is an optimisation, so every failure path degrades to "no
    cache" with a :class:`CacheStoreWarning`.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.loaded_entries = 0  # from the most recent successful load
        self.saved_entries = 0  # from the most recent successful save
        #: Engine-stats payload from the most recent successful load
        #: (None when the file predates the scheduler or had no stats).
        self.loaded_stats: dict | None = None

    def path_for(self, context: str) -> Path:
        """The cache file owning ``context`` (fingerprints are hex + ':')."""
        return self.directory / f"{context.replace(':', '-')}.qcache"

    # -- read side ------------------------------------------------------------------

    def load(self, context: str) -> dict[QueryKey, Any]:
        """Entries previously saved for ``context``; ``{}`` when unusable.

        A usable file's engine-stats header (if any) lands in
        :attr:`loaded_stats` as a side effect.
        """
        self.loaded_entries = 0
        self.loaded_stats = None
        path = self.path_for(context)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return {}
        except OSError as err:
            _warn(f"cache file {path} unreadable ({err}); starting cold")
            return {}
        entries = self._decode(path, raw, context)
        self.loaded_entries = len(entries)
        return entries

    def _decode(self, path: Path, raw: bytes, context: str) -> dict[QueryKey, Any]:
        header, payload, error = parse_store_blob(raw)
        if header is None:
            _warn(f"cache file {path}: {error}; starting cold")
            return {}
        if header.get("version") != STORE_VERSION:
            _warn(
                f"cache file {path} is store version {header.get('version')!r}, "
                f"expected {STORE_VERSION}; starting cold"
            )
            return {}
        if header.get("context") != context:
            _warn(
                f"cache file {path} was written for context "
                f"{header.get('context')!r}, not {context!r}; starting cold"
            )
            return {}
        try:
            entries = _restricted_loads(payload)
        except Exception as err:
            _warn(f"cache file {path} payload is corrupt ({err!r}); starting cold")
            return {}
        if not isinstance(entries, dict) or len(entries) != header.get("entries"):
            _warn(f"cache file {path} payload does not match its header; starting cold")
            return {}
        if not all(_valid_key(key) for key in entries):
            # Malformed keys would crash QueryCache.preload's indexing;
            # a checksum-valid file is still not trusted on shape.
            _warn(f"cache file {path} contains malformed query keys; starting cold")
            return {}
        stats = header.get("engine_stats")
        self.loaded_stats = stats if isinstance(stats, dict) else None
        return entries

    # -- write side ------------------------------------------------------------------

    def save(
        self,
        context: str,
        entries: dict[QueryKey, Any],
        engine_stats: dict | None = None,
    ) -> Path | None:
        """Atomically (re)write the context's file; None if the write failed.

        ``engine_stats`` (an :meth:`EngineStats.snapshot` payload of plain
        containers) rides in the header when provided.
        """
        path = self.path_for(context)
        try:
            payload = pickle.dumps(dict(entries), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            # An unpicklable payload (e.g. an engine stashing a live handle
            # in a result) must not crash a run at flush time.
            _warn(f"could not serialise cache entries for {path} ({err!r}); continuing without")
            return None
        header_fields = {
            "version": STORE_VERSION,
            "context": context,
            "checksum": hashlib.sha256(payload).hexdigest(),
            "entries": len(entries),
        }
        if engine_stats:
            header_fields["engine_stats"] = engine_stats
        header = pickle.dumps(header_fields, protocol=pickle.HIGHEST_PROTOCOL)
        blob = MAGIC + len(header).to_bytes(_LEN_BYTES, "big") + header + payload
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, blob)
        except OSError as err:
            _warn(f"could not persist cache to {path} ({err}); continuing without")
            return None
        self.saved_entries = len(entries)
        return path
