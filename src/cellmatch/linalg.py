"""Exact linear algebra over the rationals and the two-element field.

Boundary maps are stored sparsely, one column per cell, as a
``{row: coefficient}`` dict with no zero entries. The same column type
and the same code serve both fields; the field only picks the modulus
that sums are taken in: 2 over the two-element field (``"f2"``), none
over the rationals (``"q"``). Coefficients are plain ints, and a
rational column turns to ``Fraction`` only where reduction meets a pivot
whose lowest entry is not a unit.

``reduce_columns`` is the left-to-right column reduction of PHAT
(Bauer-Kerber-Reininghaus-Wagner 2014). Each column is reduced against the
pivot columns to its left, by its lowest (largest-index) nonzero row, until
that row is new or the column vanishes. A column keeps a pivot exactly when
it is independent of the columns to its left, so the pivot columns are the
ones that dense elimination with leftmost-lowest pivoting picks.
"""

from __future__ import annotations

from fractions import Fraction

FIELDS = ("q", "f2")


def check_field(name: str) -> str:
    if name not in FIELDS:
        raise ValueError(f"unknown field {name!r}; expected 'q' or 'f2'")
    return name


def _modulus(field: str) -> int | None:
    return 2 if field == "f2" else None


def dense_rows(columns: list, n_rows: int, field: str) -> list[list]:
    """The columns as ``n_rows`` dense rows: ints 0/1 over f2, Fractions
    over q."""
    entry = int if field == "f2" else Fraction
    return [[entry(col.get(i, 0)) for col in columns] for i in range(n_rows)]


def reduce_columns(columns: list, field: str, skip=()) -> dict[int, int]:
    """Reduce ``columns`` left to right; map each pivot column to its
    lowest row, in column order. Columns listed in ``skip`` are known to
    depend on the columns to their left and are not reduced.

    A pivot column is stored with lowest entry 1: as it is, negated, or,
    for any other lowest entry, scaled by a ``Fraction``. Over f2 every
    lowest entry is already 1."""
    modulus = _modulus(field)
    lows: dict[int, int] = {}
    pivots: dict[int, dict] = {}  # lowest row -> reduced pivot column
    for j, col in enumerate(columns):
        if j in skip or not col:
            continue
        col = dict(col)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                lead = col[low]
                if lead == -1:
                    col = {r: -v for r, v in col.items()}
                elif lead != 1:
                    scale = Fraction(1, lead)
                    col = {r: v * scale for r, v in col.items()}
                pivots[low] = col
                lows[j] = low
                break
            factor = col[low]
            for r, v in other.items():
                value = col.get(r, 0) - factor * v
                if modulus:
                    value %= modulus
                if value:
                    col[r] = value
                else:
                    del col[r]
    return lows


def composes_to_zero(lower: list, upper: list, field: str) -> bool:
    """Whether the map with columns ``lower`` kills every column of
    ``upper``, whose rows index the columns of ``lower``."""
    modulus = _modulus(field)
    for col in upper:
        image: dict[int, int] = {}
        for i, a in col.items():
            for r, b in lower[i].items():
                image[r] = image.get(r, 0) + a * b
        values = image.values()
        if any(v % modulus for v in values) if modulus else any(values):
            return False
    return True

