"""Adversarial noise-vector extraction (property P3 of the paper).

§IV-C: *"If OCn ≠ Sx and the NV is not already contained in e, then the
NV obtained from the generated counterexample is added to e"* — building
an array of unique noise patterns the network is vulnerable to.

One strategy at every noise range: the exhaustive enumerator's census
(:meth:`~repro.verify.exhaustive.ExhaustiveEnumerator.collect_witnesses`)
bisects the box with exact interval bounds and evaluates only the
sub-boxes it cannot prove, so it returns every witness, with the wrong
label it produces, without visiting every grid point.  A ``limit`` stops
the split as soon as the first ``limit`` witnesses in grid order are
known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoder import ScaledQuery
from .exhaustive import ExhaustiveEnumerator


@dataclass
class NoiseVectorSet:
    """The paper's ``e`` matrix: unique adversarial noise vectors."""

    vectors: list[tuple[int, ...]] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)  # wrong label per vector
    exhausted: bool = False  # True when no further vector exists

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __contains__(self, vector):
        return tuple(vector) in set(self.vectors)


class NoiseVectorCollector:
    """Extract unique adversarial noise vectors from a query."""

    def collect(self, query: ScaledQuery, limit: int | None = None) -> NoiseVectorSet:
        """Gather the first ``limit`` unique noise vectors in grid order
        (every one, when None).

        With ``limit=0`` nothing is searched: the set is empty and not
        exhausted.  A negative ``limit`` raises
        :class:`~repro.errors.VerificationError`.
        """
        pairs = ExhaustiveEnumerator().collect_witnesses(query, limit=limit)
        return NoiseVectorSet(
            vectors=[vector for vector, _ in pairs],
            labels=[label for _, label in pairs],
            exhausted=limit is None or len(pairs) < limit,
        )
