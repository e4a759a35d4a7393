"""Cache-store lifecycle tooling: list, inspect and prune ``--cache-dir``s.

A long-lived cache directory accretes one ``*.qcache`` file per
(network, verifier-config[, dataset]) fingerprint context and — within a
context — entries never expire, so the directory grows without bound as
models and budgets churn.  This module is the maintenance plane over
those directories, shared by the ``fannet cache`` CLI subcommands and by
:meth:`repro.runtime.runner.QueryRunner.flush` (which applies
``RuntimeConfig.max_cache_bytes`` after every successful save):

- :func:`scan_cache_dir` — one :class:`StoreFileInfo` per ``*.qcache``
  file, validated down to the payload checksum without unpickling any
  payload byte;
- :func:`inspect_cache_file` — the same validation for a single file
  (loud: a non-store file raises :class:`~repro.errors.DataError`);
- :func:`prune_cache_dir` — size-bounded LRU-by-mtime eviction: oldest
  store files go first until the directory fits the byte budget.

Safety rules, in order of precedence:

- only ``*.qcache`` files are ever considered; nothing else in the
  directory is read or removed;
- a ``*.qcache`` file that does not carry the FANNet store magic is
  *reported* but never deleted — pruning reclaims space from files this
  library wrote (intact or truncated), it does not decide what foreign
  junk to destroy;
- paths in ``keep`` (the context a live run just flushed) are never
  evicted, whatever the budget;
- eviction is oldest-``mtime``-first, so the most recently written
  contexts — the ones a fleet is actively warming — survive longest.

Pruning runs after every flush of a budgeted runner, so its scan is
deliberately cheap: one ``stat`` plus a magic-bytes read per file (the
budget needs sizes and provenance, not payload integrity).  The full
checksum-deep validation belongs to :func:`scan_cache_dir` /
:func:`inspect_cache_file`, which back the human-facing ``fannet cache
list|inspect``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import DataError
from .store import MAGIC, STORE_VERSION, parse_store_blob

#: File-name pattern of cache-store files under a ``--cache-dir``.
STORE_GLOB = "*.qcache"


@dataclass(frozen=True)
class StoreFileInfo:
    """Validated metadata of one ``*.qcache`` file (payload never unpickled)."""

    path: Path
    size: int
    mtime_ns: int
    ok: bool
    error: str | None = None  # why validation failed (ok=False only)
    context: str | None = None
    version: int | None = None
    entries: int | None = None

    @property
    def stale_version(self) -> bool:
        """Readable file written by another store version (dead weight)."""
        return self.ok and self.version != STORE_VERSION


def _info_for(path: Path) -> StoreFileInfo:
    try:
        stat = path.stat()
        raw = path.read_bytes()
    except OSError as err:
        return StoreFileInfo(
            path=path, size=0, mtime_ns=0, ok=False, error=f"unreadable: {err}"
        )
    header, _, error = parse_store_blob(raw)
    if header is None:
        return StoreFileInfo(
            path=path,
            size=stat.st_size,
            mtime_ns=stat.st_mtime_ns,
            ok=False,
            error=error,
        )
    entries = header.get("entries")
    version = header.get("version")
    return StoreFileInfo(
        path=path,
        size=stat.st_size,
        mtime_ns=stat.st_mtime_ns,
        ok=True,
        context=header.get("context"),
        version=(
            version
            if isinstance(version, int) and not isinstance(version, bool)
            else None
        ),
        entries=(
            entries
            if isinstance(entries, int) and not isinstance(entries, bool)
            else None
        ),
    )


def _light_info(path: Path) -> StoreFileInfo:
    """Size/mtime plus a magic-bytes provenance check — no payload read.

    ``ok`` here means "written by this library" (intact or not), which
    is all eviction safety needs; header fields stay unset.
    """
    try:
        stat = path.stat()
        with open(path, "rb") as handle:
            lead = handle.read(len(MAGIC))
    except OSError as err:
        return StoreFileInfo(
            path=path, size=0, mtime_ns=0, ok=False, error=f"unreadable: {err}"
        )
    if lead != MAGIC:
        return StoreFileInfo(
            path=path,
            size=stat.st_size,
            mtime_ns=stat.st_mtime_ns,
            ok=False,
            error="no FANNet cache header",
        )
    return StoreFileInfo(path=path, size=stat.st_size, mtime_ns=stat.st_mtime_ns, ok=True)


def _checked_dir(directory: str | os.PathLike) -> Path:
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"cache directory {directory} does not exist")
    return directory


def scan_cache_dir(directory: str | os.PathLike) -> list[StoreFileInfo]:
    """Every ``*.qcache`` file under ``directory``, oldest mtime first.

    Full validation down to the payload checksum (the listing's "state"
    column).  Raises :class:`DataError` when the directory itself is
    absent (a typoed path must not read as "empty, nothing to do").
    """
    directory = _checked_dir(directory)
    infos = [_info_for(path) for path in sorted(directory.glob(STORE_GLOB))]
    return sorted(infos, key=lambda info: (info.mtime_ns, info.path.name))


def inspect_cache_file(path: str | os.PathLike) -> StoreFileInfo:
    """Validate one cache file, loudly.

    Unlike the scan (which reports broken files inline), inspection of a
    path that is not a readable, checksum-valid store file raises
    :class:`DataError` naming the reason — the CLI turns that into a
    non-zero exit.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path} is not a file")
    info = _info_for(path)
    if not info.ok:
        raise DataError(f"{path} is not a valid cache store file: {info.error}")
    return info


@dataclass
class PruneReport:
    """What a prune pass did (or, with ``dry_run``, would have done).

    Accounting invariants, enforced under every outcome — dry runs,
    pinned files and unlink failures included:

    - every scanned store file lands in exactly one of ``evicted`` or
      ``kept``, so ``evicted_bytes + remaining_bytes`` equals the bytes
      scanned;
    - ``evicted`` contains only files actually removed (or, with
      ``dry_run``, the exact set a real run would remove) — a file whose
      unlink failed stays in ``kept`` with its bytes in
      ``remaining_bytes``, and its failure never widens the eviction set
      to newer files (the plan is fixed before the first unlink).
    """

    budget: int
    dry_run: bool
    evicted: list[StoreFileInfo] = field(default_factory=list)
    kept: list[StoreFileInfo] = field(default_factory=list)
    skipped: list[StoreFileInfo] = field(default_factory=list)  # invalid, untouched
    errors: list[str] = field(default_factory=list)  # unlink failures

    @property
    def evicted_bytes(self) -> int:
        """Bytes freed (``dry_run``: bytes a real run would free)."""
        return sum(info.size for info in self.evicted)

    @property
    def remaining_bytes(self) -> int:
        """Store bytes still on disk, unlink failures included."""
        return sum(info.size for info in self.kept)


def prune_cache_dir(
    directory: str | os.PathLike,
    max_bytes: int,
    keep: set[Path] | frozenset[Path] = frozenset(),
    dry_run: bool = False,
) -> PruneReport:
    """Evict oldest-mtime store files until the directory fits ``max_bytes``.

    Only ``*.qcache`` files carrying the FANNet store magic count toward
    the budget and only they are eviction candidates (truncated stores
    included — they are this library's dead weight); foreign files land
    in ``report.skipped`` untouched.  ``keep`` paths are pinned (the
    flushing runner pins the file it just wrote).  With ``dry_run`` the
    report is computed but nothing is unlinked.
    """
    if max_bytes < 0:
        raise DataError("max cache bytes must be >= 0")
    keep = {Path(p).resolve() for p in keep}
    report = PruneReport(budget=int(max_bytes), dry_run=dry_run)
    infos = sorted(
        (_light_info(path) for path in _checked_dir(directory).glob(STORE_GLOB)),
        key=lambda info: (info.mtime_ns, info.path.name),
    )
    report.skipped = [info for info in infos if not info.ok]
    stores = [info for info in infos if info.ok]  # oldest mtime first
    # Plan first, then execute: the eviction set is fixed from sizes
    # alone, so a dry run reports exactly what a real run would remove,
    # and an unlink failure mid-run never cascades into evicting newer
    # files to compensate for bytes that cannot be freed anyway.
    total = sum(info.size for info in stores)
    plan = []
    for info in stores:
        if total <= max_bytes or info.path.resolve() in keep:
            report.kept.append(info)
            continue
        total -= info.size
        plan.append(info)
    for info in plan:
        if not dry_run:
            try:
                info.path.unlink()
            except OSError as err:
                report.errors.append(f"could not remove {info.path}: {err}")
                report.kept.append(info)
                continue
        report.evicted.append(info)
    return report
