"""Exact rank and nullspace of sparse rational matrices.

Rows are sparse maps column -> coefficient, an int wherever the entry is
integral and a Fraction otherwise.  Each row is scaled to a primitive
integer row on ingestion, then reduced by two-step division-exact (Bareiss)
elimination: at every pivot step all still-active rows are updated as
new = (pivot * row - row[pivot_col] * pivot_row) / previous_pivot, an
exact integer division.  Pivoting picks the smallest absolute entry in the
pivot column (ties broken by row index), which keeps the integer growth of
sparse systems low and makes the whole reduction deterministic.

`nullspace` scales each row once, then certifies the kernel modulo the
prime p = 2^61 - 1.  Each row, reduced mod p, is packed into one Python int
with a fixed-width slot per column, so that a reduction step is one big-int
multiply-add.  Full column rank mod p proves the kernel over Q is {0}:
reducing an integer matrix mod p can only lower its rank.  Otherwise the
reduced echelon form mod p gives one candidate kernel vector per free
column; its entries are rationally reconstructed and the vector is checked
against every integer row by an exact matvec.  Verified vectors are the
exact kernel basis: a verified vector puts its free column in the span of
the earlier columns over Q, so the free columns mod p (F_p) are free over Q
(F_Q); rank mod p <= rank over Q gives |F_p| >= |F_Q|, so F_p = F_Q, and
the normalised basis on F_Q is unique.  A failed reconstruction or check
falls back to Bareiss elimination and exact back-substitution on the same
rows.

`rank` is ncols minus the length of that basis, so it takes the same
route: full column rank mod p or a verified kernel proves it, and only a
failed proof reaches Bareiss elimination.

`SparseMatrix` is the labelled matrix every exact system of the package
is built into, column by column, through `SparseMatrix.from_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Hashable, Iterable, Mapping, Sequence

SparseRow = dict[int, int | Fraction]

_PRIME = (1 << 61) - 1


def _to_primitive_int_row(row: SparseRow) -> dict[int, int]:
    entries = {j: c for j, c in row.items() if c}
    if not entries:
        return {}
    scale = lcm(*[c.denominator for c in entries.values()])
    ints = {j: c.numerator * (scale // c.denominator) for j, c in entries.items()}
    content = gcd(*ints.values())
    if content == 1:
        return ints
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


# -- the kernel modulo p ------------------------------------------------------

def _slot_bits(ncols: int) -> int:
    """Width of one column's slot in a packed row.

    A slot starts below p and takes at most ncols updates s * (p - w) with
    s, w < p, so it stays below (ncols + 1) * p^2 < 2^(2*p.bit_length() +
    ncols.bit_length() + 1): no slot ever carries into the next.
    """
    return 2 * _PRIME.bit_length() + ncols.bit_length() + 1


def _pack(entries: Iterable[tuple[int, int]], bits: int) -> int:
    return sum(v << (bits * j) for j, v in entries)


def _unpack_mod_p(packed: int, bits: int, width: int) -> list[int]:
    mask = (1 << bits) - 1
    out = []
    for _ in range(width):
        out.append((packed & mask) % _PRIME)
        packed >>= bits
    return out


def _negated(entries: list[int], bits: int) -> int:
    """The packed row holding p - w in the slot of every nonzero entry w."""
    return _pack(((j, _PRIME - w) for j, w in enumerate(entries) if w), bits)


def _echelon_mod_p(int_rows: list[dict[int, int]], ncols: int) -> dict[int, list[int]]:
    """Monic echelon basis of the integer rows mod p, keyed by pivot column.

    Each value lists its row's entries mod p from the pivot column on.  Rows
    are inserted one at a time; a packed row keeps only the slots from its
    current column on, and reducing it by the pivot row of that column is one
    `row += lead * negated_pivot`.  The scan stops at ncols pivots.
    """
    bits = _slot_bits(ncols)
    mask = (1 << bits) - 1
    monic: dict[int, list[int]] = {}
    negated: dict[int, int] = {}
    for row in int_rows:
        packed = _pack(((j, v % _PRIME) for j, v in row.items()), bits)
        col = 0
        while packed:
            skip = ((packed & -packed).bit_length() - 1) // bits
            packed >>= bits * skip
            col += skip
            lead = (packed & mask) % _PRIME
            if lead:
                if col not in negated:
                    inv = pow(lead, -1, _PRIME)
                    entries = [w * inv % _PRIME for w in _unpack_mod_p(packed, bits, ncols - col)]
                    monic[col] = entries
                    negated[col] = _negated(entries, bits)
                    if len(monic) == ncols:
                        return monic
                    break
                packed += lead * negated[col]
            packed >>= bits
            col += 1
    return monic


def _reduced_echelon_mod_p(monic: dict[int, list[int]], ncols: int) -> dict[int, list[int]]:
    """Back-reduce the monic echelon rows to the reduced row echelon form mod p.

    A pivot row is reduced by every later (already reduced) pivot row once;
    those have zeros at all other pivot columns, so the multiplier is the
    row's own original entry there, and a slot takes fewer than ncols updates.
    """
    bits = _slot_bits(ncols)
    pivots = sorted(monic)
    reduced: dict[int, list[int]] = {}
    negated: dict[int, int] = {}
    for index in range(len(pivots) - 1, -1, -1):
        col = pivots[index]
        entries = monic[col]
        packed = _pack(enumerate(entries), bits)
        for later in pivots[index + 1:]:
            lead = entries[later - col]
            if lead:
                packed += (lead * negated[later]) << (bits * (later - col))
        reduced[col] = _unpack_mod_p(packed, bits, ncols - col)
        negated[col] = _negated(reduced[col], bits)
    return reduced


def _rational_reconstruction(residue: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = d * residue mod p, |n| and 0 < d within the bound, or None."""
    if residue <= bound:
        return residue, 1
    if _PRIME - residue <= bound:
        return residue - _PRIME, 1
    r0, r1, t0, t1 = _PRIME, residue, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _modular_nullspace(int_rows: list[dict[int, int]], ncols: int) -> list[list[Fraction]] | None:
    """The normalised kernel basis, proved through p; None when the proof fails."""
    monic = _echelon_mod_p(int_rows, ncols)
    if len(monic) == ncols:
        return []
    reduced = _reduced_echelon_mod_p(monic, ncols)
    bound = isqrt(_PRIME // 2)  # a residue has at most one reconstruction within it
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(int_rows):
        for j, v in row.items():
            columns[j].append((i, v))
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in reduced:
            continue
        entries = {free: (1, 1)}
        for col, row in reduced.items():
            if col < free and row[free - col]:
                fraction = _rational_reconstruction(_PRIME - row[free - col], bound)
                if fraction is None:
                    return None
                entries[col] = fraction
        scale = lcm(*[d for _, d in entries.values()])
        image = [0] * len(int_rows)
        for j, (n, d) in entries.items():
            w = n * (scale // d)
            for i, v in columns[j]:
                image[i] += v * w
        if any(image):
            return None
        vec = [Fraction(0)] * ncols
        for j, (n, d) in entries.items():
            vec[j] = Fraction(n, d)
        basis.append(vec)
    return basis


def _exact_nullspace(int_rows: list[dict[int, int]], ncols: int) -> list[list[Fraction]]:
    """Bareiss elimination, then exact back-substitution per free column."""
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


def nullspace(rows: list[SparseRow], ncols: int) -> list[list[Fraction]]:
    """Basis of the exact right nullspace.

    One vector per free column f, normalised so that entry f is 1 and the
    entries at the other free columns are 0; every returned v satisfies
    rows . v = 0 bit-exactly.

    The basis is computed mod p and proved over Q.  Bareiss's pivot columns
    are the greedy column basis: column f is free over Q exactly when it lies
    in the span of the columns before it.  Let F_p be the free columns mod p
    and F_Q those over Q.  A verified v_f (entry f is 1, the others sit at
    pivot columns before f) shows that column f lies in the span of earlier
    columns over Q, so F_p is contained in F_Q.  The rank mod p is at most
    the rank over Q, so |F_p| >= |F_Q|; hence F_p = F_Q.  The normalised
    basis on F_Q is unique, so the verified vectors are exactly the ones
    Bareiss elimination and back-substitution return.  Full column rank mod
    p returns [] at once.  Any failed reconstruction or check falls back to
    that exact route on the same integer rows.
    """
    int_rows = [_to_primitive_int_row(r) for r in rows]
    basis = _modular_nullspace(int_rows, ncols)
    return _exact_nullspace(int_rows, ncols) if basis is None else basis


def rank(rows: list[SparseRow], ncols: int) -> int:
    """Exact rank over Q: ncols minus the length of the `nullspace` basis.

    The basis is proved mod p or computed by Bareiss elimination, so the rank
    is exact on either route.
    """
    return ncols - len(nullspace(rows, ncols))


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
    def from_columns(cls, columns: Sequence,
                     column_maps: Sequence[Mapping[Hashable, int | Fraction]],
                     row_key: Callable[[Hashable], object]) -> "SparseMatrix":
        """The matrix whose column ci holds column_maps[ci][label] in row `label`.

        Rows are the labels with a nonzero coefficient in some column, sorted
        by row_key.
        """
        rows = tuple(sorted({label for entries in column_maps
                             for label, coeff in entries.items() if coeff}, key=row_key))
        row_index = {label: ri for ri, label in enumerate(rows)}
        row_entries: list[SparseRow] = [{} for _ in rows]
        for ci, entries in enumerate(column_maps):
            for label, coeff in entries.items():
                if coeff:
                    row_entries[row_index[label]][ci] = coeff
        return cls(columns=tuple(columns), rows=rows, row_entries=tuple(row_entries))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.columns)

    def matvec(self, vector: list[Fraction]) -> list[Fraction]:
        return matvec(list(self.row_entries), vector)

    def rank(self) -> int:
        return rank(list(self.row_entries), len(self.columns))

    def kernel(self) -> list[list[Fraction]]:
        return nullspace(list(self.row_entries), len(self.columns))

    def to_triplet_text(self) -> str:
        """Sparse export: header `rows cols`, then one `row col num/den` per entry."""
        lines = [f"{len(self.rows)} {len(self.columns)}"]
        lines.extend(f"{ri} {ci} {row[ci].numerator}/{row[ci].denominator}"
                     for ri, row in enumerate(self.row_entries) for ci in sorted(row))
        return "\n".join(lines) + "\n"
