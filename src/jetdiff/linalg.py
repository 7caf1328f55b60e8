"""Exact rank and nullspace of sparse rational matrices.

Rows are sparse maps column -> coefficient.  Each row is scaled to a
primitive integer row on ingestion, then reduced by two-step division-exact
(Bareiss) elimination: at every pivot step all still-active rows are updated
as new = (pivot * row - row[pivot_col] * pivot_row) / previous_pivot, an
exact integer division.  Pivoting picks the smallest absolute entry in the
pivot column (ties broken by row index), which keeps the integer growth of
sparse systems low and makes the whole reduction deterministic.

`nullspace` scales each row once, then tries a one-sided certificate
modulo the prime 2^61 - 1 on the scaled rows: reducing an integer matrix
mod p can only lower its rank, so full column rank mod p proves that the
kernel over Q is {0}.  Any other outcome, a nonzero kernel or an unlucky
prime, falls back to the exact elimination of the same rows.

`SparseMatrix` is the labelled matrix every exact system of the package
is built into, column by column, through `SparseMatrix.from_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Mapping, Sequence

SparseRow = dict[int, Fraction]

_PRIME = (1 << 61) - 1


def _to_primitive_int_row(row: SparseRow) -> dict[int, int]:
    if not row:
        return {}
    scale = lcm(*[c.denominator for c in row.values()])
    ints = {j: int(c * scale) for j, c in row.items() if c != 0}
    if not ints:
        return {}
    content = 0
    for v in ints.values():
        content = gcd(content, v)
    return {j: v // content for j, v in ints.items()}


@dataclass(frozen=True)
class Echelon:
    """Result of the forward elimination."""

    ncols: int
    pivot_cols: tuple[int, ...]
    pivot_rows: tuple[dict[int, int], ...]  # integer rows, in pivot order

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def row_echelon(rows: list[SparseRow], ncols: int) -> Echelon:
    """Fraction-free forward elimination; returns the pivot skeleton."""
    work = [_to_primitive_int_row(r) for r in rows]
    active = [i for i, r in enumerate(work) if r]
    pivot_cols: list[int] = []
    pivot_rows: list[dict[int, int]] = []
    prev = 1
    for col in range(ncols):
        candidates = [i for i in active if work[i].get(col, 0)]
        if not candidates:
            continue
        piv_idx = min(candidates, key=lambda i: (abs(work[i][col]), i))
        piv_row = work[piv_idx]
        piv_val = piv_row[col]
        active.remove(piv_idx)
        next_active = []
        for i in active:
            row = work[i]
            v = row.get(col, 0)
            if v:
                keys = set(row) | set(piv_row)
                keys.discard(col)
                new = {}
                for j in keys:
                    val = (piv_val * row.get(j, 0) - v * piv_row.get(j, 0)) // prev
                    if val:
                        new[j] = val
            else:
                new = {j: (piv_val * w) // prev for j, w in row.items()}
                new = {j: w for j, w in new.items() if w}
            work[i] = new
            if new:
                next_active.append(i)
        active = next_active
        pivot_cols.append(col)
        pivot_rows.append(piv_row)
        prev = piv_val
    return Echelon(ncols=ncols, pivot_cols=tuple(pivot_cols), pivot_rows=tuple(pivot_rows))


def _full_column_rank_mod_p(rows: list[SparseRow], ncols: int) -> bool:
    """True when the primitive integer rows have rank ncols modulo _PRIME.

    Rows are inserted one at a time into a basis of monic rows keyed by
    their leading column; the scan stops as soon as ncols pivots exist.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {j: v % _PRIME for j, v in _to_primitive_int_row(row).items() if v % _PRIME}
        while vec:
            col = min(vec)
            pivot = basis.get(col)
            if pivot is None:
                inv = pow(vec[col], -1, _PRIME)
                basis[col] = {j: v * inv % _PRIME for j, v in vec.items()}
                if len(basis) == ncols:
                    return True
                break
            factor = vec[col]
            for j, w in pivot.items():
                v = (vec.get(j, 0) - factor * w) % _PRIME
                if v:
                    vec[j] = v
                else:
                    vec.pop(j, None)
    return len(basis) == ncols


def rank(rows: list[SparseRow], ncols: int) -> int:
    return row_echelon(rows, ncols).rank


def nullspace(rows: list[SparseRow], ncols: int) -> list[list[Fraction]]:
    """Basis of the exact right nullspace.

    One vector per free column f, normalised so that entry f is 1 and the
    entries at the other free columns are 0; pivot entries are obtained by
    exact back-substitution, so every returned v satisfies rows . v = 0
    bit-exactly.  Full column rank mod p returns [] without elimination.
    """
    int_rows = [_to_primitive_int_row(r) for r in rows]
    if _full_column_rank_mod_p(int_rows, ncols):
        return []
    ech = row_echelon(int_rows, ncols)
    pivot_set = set(ech.pivot_cols)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis: list[list[Fraction]] = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for col, row in zip(reversed(ech.pivot_cols), reversed(ech.pivot_rows)):
            acc = Fraction(0)
            for j, w in row.items():
                if j != col:
                    acc += w * vec[j]
            vec[col] = -acc / row[col]
        basis.append(vec)
    return basis


def matvec(rows: list[SparseRow], vec: list[Fraction]) -> list[Fraction]:
    return [sum((c * vec[j] for j, c in row.items()), Fraction(0)) for row in rows]


@dataclass(frozen=True)
class SparseMatrix:
    """Exact sparse matrix with labelled rows and columns.

    row_entries[ri] maps a column index to the nonzero coefficient in row
    rows[ri]; no zero is ever stored and no row is empty.
    """

    columns: tuple
    rows: tuple
    row_entries: tuple[SparseRow, ...]

    @classmethod
    def from_columns(cls, columns: Sequence, column_maps: Sequence[Mapping[Hashable, Fraction]],
                     row_key: Callable[[Hashable], object], **fields):
        """The matrix whose column ci holds column_maps[ci][label] in row `label`.

        Rows are the labels with a nonzero coefficient in some column, sorted
        by row_key.  Extra keyword fields go to the constructor of a subclass.
        """
        rows = tuple(sorted({label for entries in column_maps
                             for label, coeff in entries.items() if coeff}, key=row_key))
        row_index = {label: ri for ri, label in enumerate(rows)}
        row_entries: list[SparseRow] = [{} for _ in rows]
        for ci, entries in enumerate(column_maps):
            for label, coeff in entries.items():
                if coeff:
                    row_entries[row_index[label]][ci] = coeff
        return cls(columns=tuple(columns), rows=rows, row_entries=tuple(row_entries), **fields)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.columns)

    def matvec(self, vector: list[Fraction]) -> list[Fraction]:
        return matvec(list(self.row_entries), vector)

    def rank(self) -> int:
        return rank(list(self.row_entries), len(self.columns))

    def kernel(self) -> list[list[Fraction]]:
        return nullspace(list(self.row_entries), len(self.columns))
