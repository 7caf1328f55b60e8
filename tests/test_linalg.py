import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from jetdiff import linalg
from jetdiff.injectivity import injectivity_matrix
from jetdiff.linalg import SparseMatrix, matvec, nullspace, rank, row_echelon
from jetdiff.sampling import random_generic_surface

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
P = linalg._PRIME
BOUND = isqrt(P // 2)


def F(value, den=1):
    return Fraction(value, den)


def random_rows(rng, nrows, ncols, density=0.6):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if value:
                    row[j] = value
        rows.append(row)
    return rows


def test_rank_of_dependent_rows():
    rows = [{0: F(1), 1: F(2), 2: F(3)},
            {0: F(2), 1: F(4), 2: F(6)},
            {1: F(1), 2: F(1, 2)}]
    assert rank(rows, 3) == 2


def test_identity_has_empty_nullspace():
    rows = [{i: F(1)} for i in range(4)]
    assert nullspace(rows, 4) == []
    assert rank(rows, 4) == 4


def test_zero_matrix_nullspace_is_full():
    basis = nullspace([{}, {}], 3)
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        assert vec[i] == 1


def test_nullspace_vectors_annihilate(rng=None):
    rng = random.Random(99)
    for _ in range(40):
        nrows = rng.randint(1, 9)
        ncols = rng.randint(1, 9)
        rows = random_rows(rng, nrows, ncols)
        basis = nullspace(rows, ncols)
        assert rank(rows, ncols) + len(basis) == ncols
        for vec in basis:
            assert all(value == 0 for value in matvec(rows, vec))


def test_rank_stable_under_permutations():
    rng = random.Random(5)
    for _ in range(20):
        rows = random_rows(rng, 6, 6)
        base_rank = rank(rows, 6)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(shuffled, 6) == base_rank
        perm = list(range(6))
        rng.shuffle(perm)
        permuted = [{perm[j]: value for j, value in row.items()} for row in rows]
        assert rank(permuted, 6) == base_rank


def test_echelon_pivot_bookkeeping():
    rows = [{0: F(2), 2: F(1)}, {0: F(4), 2: F(2)}, {1: F(3)}]
    ech = row_echelon(rows, 3)
    assert ech.rank == 2
    assert ech.pivot_cols == (0, 1)


def _naive_fraction_rank_and_nullity(rows, ncols):
    # independent oracle: textbook Gaussian elimination over Fraction,
    # no fraction-free tricks, no pivot heuristics
    dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
    pivot_row = 0
    for col in range(ncols):
        target = next((r for r in range(pivot_row, len(dense)) if dense[r][col] != 0), None)
        if target is None:
            continue
        dense[pivot_row], dense[target] = dense[target], dense[pivot_row]
        lead = dense[pivot_row][col]
        dense[pivot_row] = [v / lead for v in dense[pivot_row]]
        for r in range(len(dense)):
            if r != pivot_row and dense[r][col] != 0:
                factor = dense[r][col]
                dense[r] = [a - factor * b for a, b in zip(dense[r], dense[pivot_row])]
        pivot_row += 1
    return pivot_row, ncols - pivot_row


def test_bareiss_matches_naive_fraction_elimination():
    rng = random.Random(314)
    for trial in range(60):
        nrows = rng.randint(1, 10)
        ncols = rng.randint(1, 10)
        rows = random_rows(rng, nrows, ncols, density=rng.choice((0.2, 0.5, 0.9)))
        if trial % 3 == 0 and nrows > 1:
            # force dependent rows and repeated zero pivot columns
            rows[0] = {j: v * 3 for j, v in rows[-1].items()}
        oracle_rank, oracle_nullity = _naive_fraction_rank_and_nullity(rows, ncols)
        assert rank(rows, ncols) == oracle_rank
        basis = nullspace(rows, ncols)
        assert len(basis) == oracle_nullity
        for vec in basis:
            assert all(v == 0 for v in matvec(rows, vec))


# entries that vanish or collide mod p push the modular check off its fast path
PRIME_ENTRIES = st.sampled_from([Fraction(P), Fraction(-2 * P), Fraction(P + 1),
                                 Fraction(1, P), Fraction(3, P)])


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 7))
    extra = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["tall", "square", "wide"]))
    nrows = {"tall": ncols + extra, "square": ncols, "wide": max(1, ncols - extra)}[shape]
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    entry = small | small | PRIME_ENTRIES
    rows = [{j: v for j, v in enumerate(draw(st.lists(entry, min_size=ncols,
                                                       max_size=ncols))) if v}
            for _ in range(nrows)]
    if nrows > 2 and draw(st.booleans()):
        # a row dependent on two others
        scale = draw(small)
        combo = dict(rows[1])
        for j, v in rows[2].items():
            combo[j] = combo.get(j, 0) + scale * v
        rows[0] = {j: v for j, v in combo.items() if v}
    return rows, ncols


@PROPERTY
@given(matrices())
def test_nullspace_and_rank_match_naive_oracle(matrix):
    rows, ncols = matrix
    oracle_rank, oracle_nullity = _naive_fraction_rank_and_nullity(rows, ncols)
    assert rank(rows, ncols) == oracle_rank
    basis = nullspace(rows, ncols)
    assert len(basis) == oracle_nullity
    for vec in basis:
        assert all(v == 0 for v in matvec(rows, vec))
    as_rows = [dict(enumerate(vec)) for vec in basis]
    assert _naive_fraction_rank_and_nullity(as_rows, ncols)[0] == len(basis)


@st.composite
def planted_kernel_matrices(draw):
    """Columns that are rational combinations of earlier ones, some beyond the bound."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    coeff = small | small | st.sampled_from([Fraction(2**40 + 1), Fraction(1, 2**40 + 1),
                                             Fraction(P - 1), Fraction(1, P)])
    columns = []
    for j in range(ncols):
        if j and draw(st.booleans()):
            picks = draw(st.lists(st.integers(0, j - 1), min_size=1, max_size=2))
            factors = [draw(coeff) for _ in picks]
            columns.append([sum((f * columns[k][i] for f, k in zip(factors, picks)), Fraction(0))
                            for i in range(nrows)])
        else:
            columns.append(draw(st.lists(small, min_size=nrows, max_size=nrows)))
    rows = [{j: col[i] for j, col in enumerate(columns) if col[i]} for i in range(nrows)]
    return rows, ncols


def _int_rows(rows):
    return [linalg._to_primitive_int_row(r) for r in rows]


def modp_rank(rows, ncols):
    return len(linalg._echelon_mod_p(_int_rows(rows), ncols))


@PROPERTY
@given(matrices() | planted_kernel_matrices())
def test_nullspace_equals_exact_route(matrix):
    rows, ncols = matrix
    int_rows = _int_rows(rows)
    exact = linalg._exact_nullspace(int_rows, ncols)
    basis = nullspace(rows, ncols)
    assert basis == exact
    assert all(type(v) is Fraction for vec in basis for v in vec)
    # the modular route proves the basis exactly when it can: the pivot
    # columns agree mod p and every entry reconstructs within the bound
    modular = linalg._modular_nullspace(int_rows, ncols)
    provable = (set(linalg._echelon_mod_p(int_rows, ncols))
                == set(row_echelon(int_rows, ncols).pivot_cols)
                and all(abs(v.numerator) <= BOUND and v.denominator <= BOUND
                        for vec in exact for v in vec))
    assert (modular is not None) == provable
    if modular is not None:
        assert modular == exact


@PROPERTY
@given(matrices() | planted_kernel_matrices(), st.randoms(use_true_random=False))
def test_nullspace_is_independent_of_row_order(matrix, rng):
    # the normalised basis is unique, so a matrix builder may order its rows freely
    rows, ncols = matrix
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert nullspace(shuffled, ncols) == nullspace(rows, ncols)


def spy_row_echelon(monkeypatch):
    """Record the width of every `row_echelon` call; the calls still run."""
    calls = []
    exact = linalg.row_echelon

    def spy(matrix, width):
        calls.append(width)
        return exact(matrix, width)

    monkeypatch.setattr(linalg, "row_echelon", spy)
    return calls


def test_kernel_entry_beyond_the_bound_falls_back(monkeypatch):
    # 2^40 + 1 = (2^21 + 1) / 2^21 mod p reconstructs within the bound, so
    # only the exact matvec rejects the modular vector
    assert linalg._rational_reconstruction((2**40 + 1) % P, BOUND) == (2**21 + 1, 2**21)
    calls = spy_row_echelon(monkeypatch)
    assert nullspace([{0: F(1), 1: F(-(2**40 + 1))}], 2) == [[2**40 + 1, 1]]
    assert calls == [2]


@pytest.mark.parametrize("ncols", [2, 63, 64, 65, 70])
def test_slots_take_the_most_updates_without_carry(monkeypatch, ncols):
    # upper-triangular all-ones rows are monic pivots holding p - 1 in every
    # negated slot; the last row meets a lead of -1 at every column, so its
    # last slots take ncols - 1 updates of (p - 1)^2 before they are read
    rows = [{j: F(1) for j in range(k, ncols)} for k in range(ncols - 1)]
    last = {j: F(-(j + 1)) for j in range(ncols - 1)}
    last[ncols - 1] = F(-(ncols - 1))
    rows.append(last)
    monkeypatch.setattr(linalg, "row_echelon", None)
    assert nullspace(rows, ncols) == [[0] * (ncols - 2) + [-1, 1]]
    last[ncols - 1] = F(-ncols)
    assert nullspace(rows, ncols) == []


NEAR_P = [F(P - 1), F(1 - P), F(P - 2), F(-1), F(1)]


@pytest.mark.parametrize("ncols", [12, 40])
def test_dense_entries_near_p_match_naive_oracle(ncols):
    rng = random.Random(ncols)
    rows = [{j: rng.choice(NEAR_P) for j in range(ncols)} for _ in range(ncols - 3)]
    rows.append({j: rows[0][j] + rows[1][j] * (P - 1) for j in range(ncols)})
    basis = nullspace(rows, ncols)
    assert len(basis) == _naive_fraction_rank_and_nullity(rows, ncols)[1]
    for vec in basis:
        assert all(v == 0 for v in matvec(rows, vec))


@pytest.mark.parametrize("ncols", [64, 70])
def test_dense_planted_kernel_near_p(monkeypatch, ncols):
    # the naive oracle takes minutes at this size; the kernel is planted
    # instead: each of the last three columns is column a minus column b
    rng = random.Random(ncols)
    rows = [{j: rng.choice(NEAR_P) for j in range(ncols - 3)} for _ in range(ncols - 1)]
    expected = []
    for f in range(ncols - 3, ncols):
        a, b = rng.sample(range(ncols - 3), 2)
        for row in rows:
            row[f] = row[a] - row[b]
        vec = [0] * ncols
        vec[f], vec[a], vec[b] = 1, -1, 1
        expected.append(vec)
    monkeypatch.setattr(linalg, "row_echelon", None)
    assert nullspace(rows, ncols) == expected


# full rank over Q (or, for the last case, kernel spanned by e_2), but
# rank-deficient mod p after the primitive integer scaling
UNLUCKY_PRIME = [
    pytest.param([{0: F(1)}, {0: F(1), 1: F(P)}], 2, [], id="entry-multiple-of-p"),
    pytest.param([{0: F(1), 1: F(2)}, {0: F(1 + P), 1: F(2)}], 2, [],
                 id="rows-differ-by-multiple-of-p"),
    pytest.param([{0: F(1, P), 1: F(1)}, {0: F(1)}], 2, [], id="denominator-p"),
    pytest.param([{0: F(1)}, {0: F(1), 1: F(P)}], 3, [[0, 0, 1]], id="nonzero-kernel"),
]


@pytest.mark.parametrize("rows,ncols,kernel", UNLUCKY_PRIME)
def test_unlucky_prime_falls_back_to_exact(monkeypatch, rows, ncols, kernel):
    assert modp_rank(rows, ncols) < ncols
    calls = spy_row_echelon(monkeypatch)
    assert nullspace(rows, ncols) == kernel
    assert calls == [ncols]
    calls.clear()
    assert rank(rows, ncols) == ncols - len(kernel)
    assert calls == [ncols]


def test_row_content_divisible_by_p_is_divided_out():
    rows = [{0: F(1)}, {1: F(P)}]
    assert modp_rank(rows, 2) == 2
    assert nullspace(rows, 2) == []


def test_full_rank_skips_elimination(monkeypatch):
    calls = spy_row_echelon(monkeypatch)
    # both rows lead in column 0: the second pivot only appears after reduction
    full_rank = [{0: F(2), 1: F(1, 3)}, {0: F(1), 1: F(-1)}]
    assert nullspace(full_rank, 2) == []
    assert rank(full_rank + [{1: F(5)}], 2) == 2
    # a kernel proved mod p and verified exactly needs no elimination either
    deficient = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    assert nullspace(deficient, 2) == [[-2, 1]]
    assert rank(deficient, 2) == 1
    # full row rank, wide: the rank follows from the verified kernel
    wide = [{0: F(1), 1: F(3), 2: F(1)}, {}, {0: F(5), 1: F(2), 2: F(1, 2)}]
    assert rank(wide, 3) == 2
    assert calls == []


def test_injectivity_ranks_of_the_verify_suite(monkeypatch):
    # `verify --injectivity --d 4 --m 2` at seed 1: two 570x60 matrices of
    # full column rank, with Bareiss pivots of several hundred bits
    rng = random.Random(1)
    calls = spy_row_echelon(monkeypatch)
    for index in range(2):
        surf, _ = random_generic_surface(rng, 4, 4, audit_seed=1 + index)
        matrix = injectivity_matrix(surf, 2, 2)
        rows = list(matrix.row_entries)
        assert matrix.shape == (570, 60)
        assert rank(rows, 60) == row_echelon(rows, 60).rank
    assert calls == []


COEFFS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
COLUMN_MAPS = st.lists(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                       COEFFS, max_size=6), max_size=6)


@PROPERTY
@given(COLUMN_MAPS)
def test_from_columns_realises_each_column(column_maps):
    def row_key(label):
        return (label[1], -label[0])

    columns = [("col", ci) for ci in range(len(column_maps))]
    matrix = SparseMatrix.from_columns(columns, column_maps, row_key)
    assert matrix.columns == tuple(columns)
    assert matrix.shape == (len(matrix.rows), len(column_maps))
    assert list(matrix.rows) == sorted(set(matrix.rows), key=row_key)
    assert all(row and all(v != 0 for v in row.values()) for row in matrix.row_entries)
    for ci, entries in enumerate(column_maps):
        unit = [Fraction(int(cj == ci)) for cj in range(len(column_maps))]
        image = {label: v for label, v in zip(matrix.rows, matrix.matvec(unit)) if v}
        assert image == {label: c for label, c in entries.items() if c}
