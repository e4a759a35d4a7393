"""Exact rational arithmetic helpers.

The model-checking side of FANNet needs the *checked* model to agree with
the *deployed* model bit-for-bit.  Floating-point inference cannot offer
that, so the library carries an exact execution mode built on
:class:`fractions.Fraction`.  This module centralises conversions and the
small amount of linear algebra needed over rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

#: Default denominator bound used when snapping floats onto the rationals.
DEFAULT_DENOMINATOR_LIMIT = 10**6


def to_fraction(value, limit: int = DEFAULT_DENOMINATOR_LIMIT) -> Fraction:
    """Convert ``value`` (int, float, str or Fraction) to an exact Fraction.

    Floats are snapped with ``limit_denominator`` so that artifacts of the
    binary representation (e.g. ``0.1`` not being exact) do not leak into
    the formal model.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(limit)
    if isinstance(value, str):
        return Fraction(value)
    # numpy scalar types expose item()
    if hasattr(value, "item"):
        return to_fraction(value.item(), limit)
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def to_fraction_vector(values: Iterable, limit: int = DEFAULT_DENOMINATOR_LIMIT) -> list[Fraction]:
    """Convert an iterable of scalars to a list of exact Fractions."""
    return [to_fraction(v, limit) for v in values]


def to_fraction_matrix(rows: Iterable[Iterable], limit: int = DEFAULT_DENOMINATOR_LIMIT) -> list[list[Fraction]]:
    """Convert a 2-D iterable to a matrix (list of rows) of Fractions."""
    return [to_fraction_vector(row, limit) for row in rows]


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact dot product of two equal-length rational vectors."""
    if len(a) != len(b):
        raise ValueError(f"dot: length mismatch {len(a)} != {len(b)}")
    total = Fraction(0)
    for x, y in zip(a, b):
        total += x * y
    return total


def mat_vec(matrix: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]) -> list[Fraction]:
    """Exact matrix-vector product ``matrix @ vector``."""
    return [dot(row, vector) for row in matrix]


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Elementwise sum of two rational vectors."""
    if len(a) != len(b):
        raise ValueError(f"vec_add: length mismatch {len(a)} != {len(b)}")
    return [x + y for x, y in zip(a, b)]


def argmax_with_tiebreak(values: Sequence[Fraction]) -> int:
    """Index of the maximum; ties resolve to the *lowest* index.

    This mirrors the paper's output rule ``⟨L0 ≥ L1 → L0, L1 ≥ L0 → L1⟩``
    read as an ordered conditional: the first clause wins on equality.
    """
    if not values:
        raise ValueError("argmax of empty sequence")
    best_index = 0
    best_value = values[0]
    for index, value in enumerate(values[1:], start=1):
        if value > best_value:
            best_index = index
            best_value = value
    return best_index


def relative_noise(value: Fraction, percent: int | Fraction) -> Fraction:
    """Apply the paper's relative-noise channel ``X ± X·(ΔX/100)``.

    ``percent`` is the signed integer noise percentage; the result is
    exact: ``value * (100 + percent) / 100``.
    """
    return value * (Fraction(100) + Fraction(percent)) / Fraction(100)
