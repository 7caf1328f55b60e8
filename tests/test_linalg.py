import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetdiff import linalg
from jetdiff.linalg import SparseMatrix, matvec, nullspace, rank, row_echelon

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
P = linalg._PRIME


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
    assert not linalg._full_column_rank_mod_p(rows, ncols)
    calls = []
    exact = linalg.row_echelon

    def spy(matrix, width):
        calls.append(width)
        return exact(matrix, width)

    monkeypatch.setattr(linalg, "row_echelon", spy)
    assert nullspace(rows, ncols) == kernel
    assert calls == [ncols]
    assert rank(rows, ncols) == ncols - len(kernel)


def test_row_content_divisible_by_p_is_divided_out():
    rows = [{0: F(1)}, {1: F(P)}]
    assert linalg._full_column_rank_mod_p(rows, 2)
    assert nullspace(rows, 2) == []


def test_full_rank_skips_elimination(monkeypatch):
    def no_elimination(rows, ncols):
        raise RuntimeError("row_echelon called")

    monkeypatch.setattr(linalg, "row_echelon", no_elimination)
    # both rows lead in column 0: the second pivot only appears after reduction
    full_rank = [{0: F(2), 1: F(1, 3)}, {0: F(1), 1: F(-1)}]
    assert nullspace(full_rank, 2) == []
    deficient = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    with pytest.raises(RuntimeError, match="row_echelon called"):
        nullspace(deficient, 2)


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
