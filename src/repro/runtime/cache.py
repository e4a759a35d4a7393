"""Keyed memoisation of verification outcomes.

Every query the analyses issue is addressed by a structured key::

    (kind, input index, input values, true label, noise percent, extra)

``kind`` namespaces the payload ("verify" → :class:`VerificationResult`,
"extract" → collected noise vectors).
The input *values* ride along with the index so a cache can never hand
back results for a different dataset that happens to reuse an index.

The cache is bound to a *context* string (network fingerprint + verifier
fingerprint, see :mod:`repro.runtime.fingerprint`); binding a different
context invalidates everything, which is what makes it safe to hand one
cache object to successive runners.

Misses are reported with the :data:`MISS` sentinel, never ``None`` — a
cached payload may legitimately *be* ``None``, so ``None`` cannot double
as "not present".

Besides exact-key hits, :class:`QueryCache` answers "verify" queries
*implied* by the paper's noise-model monotonicity, through one
:class:`~repro.verify.result.LadderFacts` per ``(input, label, extra)``
group: a ROBUST verdict at ±P covers every ±P' ≤ P (the smaller box is
a subset), and a VULNERABLE verdict at ±P covers every ±P' ≥ P (its
witness stays in range).  Derived answers read ``monotone(...)``, are
counted in :attr:`CacheStats.derived_hits` and are never stored back as
"verify" entries (the facts hold engine-proved verdicts only).  One
downstream consequence *is* stored: the extraction short-circuit in
:meth:`~repro.runtime.runner.QueryRunner.collect_at` memoises its empty
"extract" outcome whether the ROBUST verdict that forced it was exact or
implied — either way the entry records a fact forced by an engine-proved
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from ..verify.result import LadderFacts, VerificationResult

#: Structured cache key; see the module docstring for the field layout.
QueryKey = tuple


class _Miss:
    """Singleton sentinel distinguishing "not cached" from a None payload."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<cache MISS>"

    def __bool__(self) -> bool:
        return False


#: Returned by :meth:`QueryCache.get` / :meth:`QueryCache.peek` on a miss.
MISS = _Miss()


@dataclass
class CacheStats:
    """Hit/miss accounting, exposed on :class:`QueryCache.stats`.

    ``hits`` counts exact-key hits; ``derived_hits`` counts answers
    implied by a proved entry at a different percent.  Both
    count as successful lookups for :attr:`hit_rate`.
    """

    hits: int = 0
    derived_hits: int = 0
    misses: int = 0
    stores: int = 0
    preloads: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.derived_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.derived_hits) / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold a worker's counters into this one (bulk transfer).

        Every counter folds — stores, preloads and invalidations
        included — so a parallel run reports the same totals a serial
        run of the same tasks would (the stats describe logical cache
        activity, wherever it physically happened).
        """
        self.hits += other.hits
        self.derived_hits += other.derived_hits
        self.misses += other.misses
        self.stores += other.stores
        self.preloads += other.preloads
        self.invalidations += other.invalidations

    def describe(self) -> str:
        return (
            f"cache: {self.hits} exact + {self.derived_hits} derived hits "
            f"/ {self.misses} misses ({self.hit_rate:.0%} hit rate), "
            f"{self.stores} stores, {self.preloads} preloaded"
        )


def make_key(
    kind: str,
    index: int,
    x: Iterable[int],
    true_label: int,
    percent: int,
    extra: Hashable = (),
) -> QueryKey:
    """Canonical key for one analysis query (input values included)."""
    return (kind, int(index), tuple(int(v) for v in x), int(true_label), int(percent), extra)


def _group_of(key: QueryKey) -> tuple:
    """The percent-independent part of a key: what monotone facts attach to."""
    kind, index, x, true_label, _percent, extra = key
    return (kind, index, x, true_label, extra)


def _percent_of(key: QueryKey) -> int:
    return key[4]


class QueryCache:
    """In-memory query memo with monotone derivation, stats and context
    invalidation.

    ``enabled=False`` turns every operation into a no-op so callers never
    need an ``if cache`` branch; stats still record the misses.

    Derivation is :class:`~repro.verify.result.LadderFacts`, sound
    because the noise boxes are nested (±P' ⊆ ±P for P' ≤ P), and
    strictly side-effect-free: derived answers are never stored, so
    the entry table — and therefore the disk store and the
    warm entries shipped to pooled workers — only ever contains
    engine-proved facts.
    """

    def __init__(self, enabled: bool = True, context: str | None = None):
        self.enabled = enabled
        self.context = context
        self.stats = CacheStats()
        self._entries: dict[QueryKey, Any] = {}
        # Secondary index: (index, input values) → that input's entries,
        # so warm-entry harvesting never scans the whole cache.
        self._by_input: dict[tuple, dict[QueryKey, Any]] = {}
        self._facts: dict[tuple, LadderFacts] = {}
        #: Entries stored via :meth:`put` since construction, the last
        #: :meth:`preload` or the last journal reset — what a pooled
        #: worker ships back to the parent, and what a
        #: :class:`~repro.runtime.store.CacheStore` flush spills to disk.
        self.added: dict[QueryKey, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: QueryKey) -> bool:
        return self.enabled and key in self._entries

    # -- context binding -------------------------------------------------------

    def bind(self, context: str) -> None:
        """Attach to a (network, verifier-config) context.

        A context change means every cached result was computed against a
        different model or budget: drop them all and count an invalidation.
        """
        if self.context is not None and self.context != context and self._entries:
            self.clear()
            self.stats.invalidations += 1
        self.context = context

    def clear(self) -> None:
        self._entries.clear()
        self._by_input.clear()
        self._facts.clear()
        self.added.clear()

    # -- lookups -------------------------------------------------------------------

    def get(self, key: QueryKey) -> Any:
        """Stats-counted lookup; :data:`MISS` on miss (or when disabled)."""
        if not self.enabled:
            self.stats.misses += 1
            return MISS
        if key in self._entries:
            self.stats.hits += 1
            return self._entries[key]
        implied = self._implied(key)
        if implied is not MISS:
            self.stats.derived_hits += 1
            return implied
        self.stats.misses += 1
        return MISS

    def peek(self, key: QueryKey) -> Any:
        """Lookup without touching the stats (warm-entry harvesting).

        Like :meth:`get` this answers implied verdicts too, so an
        extraction short-circuit sees implied ROBUST verdicts.
        """
        if not self.enabled:
            return MISS
        if key in self._entries:
            return self._entries[key]
        return self._implied(key)

    def put(self, key: QueryKey, value: Any) -> None:
        if not self.enabled:
            return
        self._insert(key, value)
        self.added[key] = value
        self.stats.stores += 1

    # -- bulk transfer (parallel workers, disk store) ----------------------------------

    def adopt(self, entries: dict[QueryKey, Any]) -> None:
        """Fold entries a pooled worker shipped back (exact keys only).

        Like :meth:`put` for each *new* key — indexed and journalled in
        ``added`` so the next disk flush persists them — but without
        counting ``stores``: the producing cache already counted each
        store, and its :class:`CacheStats` merge carries that count
        here, so counting the physical transfer again would double-book
        every parallel store.  Keys already present are kept as-is.
        """
        if not self.enabled:
            return
        for key, value in entries.items():
            if key in self._entries:
                continue
            self._insert(key, value)
            self.added[key] = value

    def preload(self, entries: dict[QueryKey, Any]) -> None:
        """Seed entries without counting stores; resets the ``added`` journal."""
        if not self.enabled:
            return
        for key, value in entries.items():
            self._insert(key, value)
        self.stats.preloads += len(entries)
        self.added.clear()

    def snapshot(self) -> dict[QueryKey, Any]:
        """Copy of every exact entry (what a disk store persists)."""
        return dict(self._entries)

    def entries_for_input(
        self, index: int, x: Iterable[int], kinds: tuple[str, ...] | None = None
    ) -> dict[QueryKey, Any]:
        """Cached entries addressing one ``(index, input values)`` pair.

        Served from the per-input secondary index (no full-cache scan).
        ``kinds`` restricts the result to the given key namespaces so a
        task is only shipped entries it can actually consume (a search
        task has no use for cached extraction vector lists).  Only exact
        entries are returned — derived answers are re-derived on the
        receiving side from the same facts, never materialised.
        """
        if not self.enabled:
            return {}
        bucket = self._by_input.get((index, tuple(int(v) for v in x)), {})
        if kinds is None:
            return dict(bucket)
        return {key: value for key, value in bucket.items() if key[0] in kinds}

    # -- fact indexing and derivation ----------------------------------------------

    def _insert(self, key: QueryKey, value: Any) -> None:
        """Add an entry to the table, the per-input index and the fact table."""
        self._entries[key] = value
        self._by_input.setdefault((key[1], key[2]), {})[key] = value
        if key[0] == "verify" and isinstance(value, VerificationResult):
            self._facts.setdefault(_group_of(key), LadderFacts()).note(
                _percent_of(key), value
            )

    def _implied(self, key: QueryKey) -> Any:
        """The verdict a proved fact at another percent implies, or MISS.

        Only "verify" keys have facts, so every other kind misses here.
        """
        facts = self._facts.get(_group_of(key))
        implied = facts.implied(_percent_of(key)) if facts is not None else None
        return MISS if implied is None else implied
