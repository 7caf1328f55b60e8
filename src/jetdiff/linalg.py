"""Exact rank and nullspace of sparse rational matrices.

Rows are sparse maps column -> coefficient, an int wherever the entry is
integral and a Fraction otherwise.  Each row is scaled to a primitive
integer row on ingestion, then reduced by two-step division-exact (Bareiss)
elimination: at every pivot step all still-active rows are updated as
new = (pivot * row - row[pivot_col] * pivot_row) / previous_pivot, an
exact integer division.  Pivoting picks the smallest absolute entry in the
pivot column (ties broken by row index), which keeps the integer growth of
sparse systems low and makes the whole reduction deterministic.

`nullspace` certifies the kernel modulo the primes below 2^30 of
`modular.PRIMES`, taken in turn.  Each row, scaled to a primitive integer
row as the first elimination reads it and reduced mod p, is packed into one
Python int with a fixed-width slot of about 68 bits per column, so that a
reduction step is one big-int multiply-add.  Full column rank mod p proves
the kernel over Q is {0}: reducing an integer matrix mod p can only lower
its rank, and the proof reads no row after the last pivot it needs.
Otherwise the reduced echelon form mod p gives one candidate kernel vector
per free column; its entries are rationally reconstructed and the vector is
checked against every integer row by an exact matvec.  Verified vectors are
the exact kernel basis: a verified vector puts its free column in the span
of the earlier columns over Q, so the free columns mod p (F_p) are free over
Q (F_Q); rank mod p <= rank over Q gives |F_p| >= |F_Q|, so F_p = F_Q, and
the normalised basis on F_Q is unique.  When an entry lies beyond the
reconstruction bound of the primes so far, the next prime's images are
joined by CRT (Wang, SYMSAC 1981; Monagan, ISSAC 2004) and the vectors are
tried again, until they verify or the primes' product exceeds twice the
square of the Hadamard bound.  Only then, or when the primes run out, does
Bareiss elimination and exact back-substitution run on the same rows.

`rank` is ncols minus the length of that basis, so it takes the same
route: full column rank mod p or a verified kernel proves it, and only a
failed proof reaches Bareiss elimination.  `full_column_rank` is the
one-sided half alone: True is a proof, False only a failed attempt.

`SparseMatrix` is the labelled matrix every exact system of the package
is built into, by the one builder `divisibility.shift_matrix`: polynomial
bases shifted by monomials, one column per shift, rows graded-lex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterable

from . import modular
from .modular import crt, rational_reconstruction

SparseRow = dict[int, int | Fraction]


def _to_primitive_int_row(row: SparseRow) -> dict[int, int]:
    entries = {j: c for j, c in row.items() if c}
    if not entries:
        return {}
    if all(type(c) is int for c in entries.values()):
        ints = entries
    else:
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


# -- the kernel modulo primes -----------------------------------------------

def _slot_bits(ncols: int, prime: int) -> int:
    """Width of one column's slot in a packed row.

    A slot starts below p and takes at most ncols updates s * (p - w) with
    s, w < p, so it stays below (ncols + 1) * p^2 < 2^(2*p.bit_length() +
    ncols.bit_length() + 1): no slot ever carries into the next.
    """
    return 2 * prime.bit_length() + ncols.bit_length() + 1


def _pack(entries: Iterable[tuple[int, int]], bits: int) -> int:
    return sum(v << (bits * j) for j, v in entries)


def _unpack_mod_p(packed: int, bits: int, width: int, prime: int) -> list[int]:
    mask = (1 << bits) - 1
    out = []
    for _ in range(width):
        out.append((packed & mask) % prime)
        packed >>= bits
    return out


def _negated(entries: list[int], bits: int, prime: int) -> int:
    """The packed row holding p - w in the slot of every nonzero entry w."""
    return _pack(((j, prime - w) for j, w in enumerate(entries) if w), bits)


def _echelon_mod_p(int_rows: Iterable[dict[int, int]], ncols: int,
                   prime: int) -> dict[int, list[int]]:
    """Monic echelon basis of the integer rows mod p, keyed by pivot column.

    Each value lists its row's entries mod p from the pivot column on.  Rows
    are read one at a time; a packed row keeps only the slots from its
    current column on, and reducing it by the pivot row of that column is one
    `row += lead * negated_pivot`.  The scan stops at ncols pivots, so an
    iterator of rows is read no further than the proof needs.
    """
    bits = _slot_bits(ncols, prime)
    mask = (1 << bits) - 1
    monic: dict[int, list[int]] = {}
    negated: dict[int, int] = {}
    for row in int_rows:
        packed = _pack(((j, v % prime) for j, v in row.items()), bits)
        col = 0
        while packed:
            skip = ((packed & -packed).bit_length() - 1) // bits
            packed >>= bits * skip
            col += skip
            lead = (packed & mask) % prime
            if lead:
                if col not in negated:
                    inv = pow(lead, -1, prime)
                    entries = [w * inv % prime
                               for w in _unpack_mod_p(packed, bits, ncols - col, prime)]
                    monic[col] = entries
                    negated[col] = _negated(entries, bits, prime)
                    if len(monic) == ncols:
                        return monic
                    break
                packed += lead * negated[col]
            packed >>= bits
            col += 1
    return monic


def _kernel_images(monic: dict[int, list[int]], ncols: int,
                   prime: int) -> dict[int, list[int]]:
    """The normalised kernel basis mod p: for each free column f, the entries
    of its vector at the pivot columns before f, in increasing order.

    The monic rows are back-reduced to the reduced row echelon form R; then
    entry c of the vector of f is -R[c][f].  A pivot row is reduced by every
    later (already reduced) pivot row once; those have zeros at all other
    pivot columns, so the multiplier is the row's own original entry there,
    and a slot takes fewer than ncols updates.
    """
    bits = _slot_bits(ncols, prime)
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
        reduced[col] = _unpack_mod_p(packed, bits, ncols - col, prime)
        negated[col] = _negated(reduced[col], bits, prime)
    return {f: [-reduced[c][f - c] % prime for c in pivots if c < f]
            for f in range(ncols) if f not in reduced}


def _hadamard_bound(int_rows: list[dict[int, int]], rank: int) -> int:
    """A bound on every rank x rank minor: the product of the rank largest row norms."""
    norms = sorted((isqrt(sum(v * v for v in row.values())) + 1 for row in int_rows),
                   reverse=True)
    return prod(norms[:rank])


def _modular_nullspace(rows: Iterable[SparseRow], ncols: int
                       ) -> tuple[list[dict[int, int]], list[list[Fraction]] | None]:
    """The primitive integer rows read, and the normalised kernel basis proved
    through the primes of `modular.PRIMES`, or None when no proof is found.

    The first prime reads the rows lazily, so full column rank mod p returns
    [] after reading only the rows it needed.  Otherwise every row is read,
    and after each prime the kernel images of the best pivot set seen so far
    (largest rank, then the earliest pivot columns) are joined by CRT,
    rationally reconstructed and checked by an exact matvec.  A prime with
    a worse pivot set is skipped; a better one starts the images afresh.
    The search ends, None, when the primes run out or their product exceeds
    2*H^2 for the Hadamard bound H of the rank: by Cramer's rule every entry
    of the true basis is then within the reconstruction bound, so only a
    wrong pivot set can still fail.
    """
    int_rows: list[dict[int, int]] = []

    def read():
        for row in rows:
            int_rows.append(_to_primitive_int_row(row))
            yield int_rows[-1]

    primes = modular.PRIMES
    monic = _echelon_mod_p(read(), ncols, primes[0])
    best = None
    for prime in primes:
        if best is not None:
            monic = _echelon_mod_p(int_rows, ncols, prime)
        if len(monic) == ncols:
            return int_rows, []
        key = (-len(monic), sorted(monic))
        if best is not None and key > best:
            continue
        images = _kernel_images(monic, ncols, prime)
        if key != best:
            best, pivots, modulus, residues, proved = key, key[1], prime, images, {}
        else:
            residues = {f: crt(residues[f], modulus, images[f], prime) for f in residues}
            modulus *= prime
        basis = _reconstructed_basis(int_rows, ncols, pivots, residues, modulus, proved)
        if basis is not None:
            return int_rows, basis
        if modulus > 2 * _hadamard_bound(int_rows, len(pivots)) ** 2:
            break
    return int_rows, None


def _reconstructed_basis(int_rows: list[dict[int, int]], ncols: int, pivots: list[int],
                         residues: dict[int, list[int]], modulus: int,
                         proved: dict[int, list[Fraction]]) -> list[list[Fraction]] | None:
    """The kernel vectors reconstructed from their residues mod modulus, each
    checked against every integer row by an exact matvec; None at the first
    that fails.  Vectors that pass are kept in proved for the next attempt."""
    bound = isqrt(modulus // 2)
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(int_rows):
        for j, v in row.items():
            columns[j].append((i, v))
    for free, images in residues.items():
        if free in proved:
            continue
        entries = {free: (1, 1)}
        for col, residue in zip(pivots, images):
            if residue:
                fraction = rational_reconstruction(residue, modulus, bound)
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
        proved[free] = vec
    return [proved[free] for free in residues]


def full_column_rank(rows: list[SparseRow], ncols: int) -> bool:
    """True only when the rows are proved to have full column rank over Q.

    The primitive integer rows are reduced modulo the first prime, read one
    by one until ncols pivots are found; ncols pivots mod p prove ncols
    pivots over Q, as reducing an integer matrix mod p can only lower its
    rank.  False proves nothing: the rank over Q may still be full.
    """
    int_rows = map(_to_primitive_int_row, rows)
    return len(_echelon_mod_p(int_rows, ncols, modular.PRIMES[0])) == ncols


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

    The basis is computed modulo primes and proved over Q.  Bareiss's pivot
    columns are the greedy column basis: column f is free over Q exactly
    when it lies in the span of the columns before it.  Let F be the free
    columns of a pivot set found mod p and F_Q those over Q.  A verified v_f
    (entry f is 1, the others sit at pivot columns before f) shows that
    column f lies in the span of earlier columns over Q, so F is contained
    in F_Q.  The rank mod p is at most the rank over Q, so |F| >= |F_Q|;
    hence F = F_Q.  The normalised basis on F_Q is unique, so the verified
    vectors are exactly the ones Bareiss elimination and back-substitution
    return.  Full column rank mod p returns [] at once.  When no prime of
    the list gives a proof, that exact route runs on the same integer rows.
    """
    int_rows, basis = _modular_nullspace(rows, ncols)
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
