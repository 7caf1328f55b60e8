import random
from collections import Counter

import pytest
from hypothesis import given

from jetdiff import injectivity, linalg
from jetdiff.cli import main
from jetdiff.divisibility import jet_matrix, shift_matrix, unknown_labels
from jetdiff.genericity import full_genericity_audit, pair_transversality_check
from jetdiff.injectivity import GenericityGateError, analyze_injectivity, injectivity_matrix
from jetdiff.jetbuilder import (
    JET_VARS,
    XY,
    CoefficientField,
    JetSpec,
    LambdaTerms,
    SurfacePair,
    build_jet,
    expand_lambda,
    index_tuples,
    monomials_upto,
)
from jetdiff.linalg import full_column_rank, nullspace, rank, row_echelon
from jetdiff.polyring import ExactPoly, poly_parse
from jetdiff.sampling import (
    random_coefficient_field,
    random_generic_surface,
    random_small_polynomial,
    random_surface_pair,
)

from conftest import triangular_slice_holds
from test_linalg import PROPERTY, UNLUCKY_PRIME, matrices, planted_kernel_matrices

X = ExactPoly.variable(XY, "x")
Y = ExactPoly.variable(XY, "y")
ONE = ExactPoly.const(XY, 1)


def rx_sx_matrix(surf, m):
    """Matrix of (A[p,q]) -> sum A[p,q] R_x^p S_x^q R^(m-p) S^(m-q), deg A <= d-1."""
    terms = LambdaTerms(surf)
    shifts = list(monomials_upto(surf.d - 1))
    return shift_matrix(((p, q), terms.term(p, 0, q, 0, m), shifts)
                        for p in range(m + 1) for q in range(m + 1 - p))


def rx_sx_injective(surf, m):
    """The R_x/S_x proposition: the reduced map has full column rank."""
    matrix = rx_sx_matrix(surf, m)
    return matrix.rank() == len(matrix.columns)


def vanishing_slice_is_zero(p, q, amax, degree_margin=0):
    """The vanishing lemma: the degree-<= amax slice of the ideal (p, q) is zero.

    Vanishing on the deg(p)*deg(q) intersection points is ideal membership
    only when the points are simple, so the pair must be certified
    transversal.  The slice is read off the Macaulay matrix at truncation
    D = deg p + deg q - 1 (+ margin): it is zero iff the rows of degree
    > amax already carry the full rank.
    """
    assert pair_transversality_check(p, q).passed, "pair not certified transversal"
    dp, dq = p.total_degree(), q.total_degree()
    truncation = dp + dq - 1 + degree_margin
    matrix = shift_matrix([((0,), p, list(monomials_upto(truncation - dp))),
                           ((1,), q, list(monomials_upto(truncation - dq)))])
    high_rows = [row for e, row in zip(matrix.rows, matrix.row_entries) if sum(e) > amax]
    return matrix.rank() == rank(high_rows, len(matrix.columns))


class TestMatrixAssembly:
    def test_column_count(self):
        surf = random_surface_pair(random.Random(1), 3, 3)
        matrix = injectivity_matrix(surf, 1, 1)
        assert len(matrix.columns) == 4 * 3  # tuples x monomials of degree <= 1

    def test_unit_column_is_jet_of_unit_field(self):
        surf = random_surface_pair(random.Random(2), 3, 3)
        matrix = injectivity_matrix(surf, 1, 1)
        ci = matrix.columns.index((1, 0, 0, 0, 0, 0))
        xp = ExactPoly.variable(JET_VARS, "x'")
        expected = xp * surf.r.extend_to(JET_VARS) * surf.s.extend_to(JET_VARS)
        actual = {}
        for ri, row in enumerate(matrix.row_entries):
            if ci in row:
                actual[matrix.rows[ri]] = row[ci]
        assert actual == expected.terms

    def test_matrix_vector_matches_build_jet(self):
        # oracle: build_jet of the very same coefficient field
        rng = random.Random(3)
        surf = random_surface_pair(rng, 3, 3)
        m, a = 1, 1
        matrix = injectivity_matrix(surf, m, a)
        for _ in range(20):
            field = random_coefficient_field(rng, m, a)
            vector = []
            for t in index_tuples(m):
                for (h, i) in monomials_upto(a):
                    vector.append(field.entries[t].coefficient((h, i)))
            image = matrix.matvec(vector)
            jet = build_jet(field, surf, JetSpec(m=m, c=0, a=a))
            for exps, value in zip(matrix.rows, image):
                assert jet.coefficient(exps) == value
            assert sum(1 for v in image if v) == len(jet.terms)

    def test_columns_are_the_unknown_labels(self):
        # the order in which build_section reads a kernel vector back
        surf = random_surface_pair(random.Random(5), 4, 4)
        matrix = injectivity_matrix(surf, 2, 2)
        assert list(matrix.columns) == unknown_labels(JetSpec(m=2, c=0, a=2))

    def test_order_and_degree_validated(self):
        surf = random_surface_pair(random.Random(6), 3, 3)
        for m, a in ((0, 1), (-1, 1), (1, -1)):
            with pytest.raises(ValueError):
                injectivity_matrix(surf, m, a)

    def test_degree_cap_enforced(self):
        surf = random_surface_pair(random.Random(4), 3, 3)
        with pytest.raises(ValueError):
            injectivity_matrix(surf, 1, 2)
        assert len(jet_matrix(surf, 1, 2).columns) == 4 * 6


class TestInjectivityTheorem:
    def test_generic_surfaces_inject(self):
        rng = random.Random(71)
        for d in (2, 3):
            surf, audit = random_generic_surface(rng, d, d, audit_seed=100 + d)
            for m in (1, 2):
                a = d - 2
                assert analyze_injectivity(surf, m, a, audit=audit).injective

    def test_gate_refuses_failed_audit(self):
        rng = random.Random(73)
        r = random_surface_pair(rng, 3, 3).r
        degenerate = SurfacePair(r, r)
        audit = full_genericity_audit(degenerate)
        assert not audit.passed
        with pytest.raises(GenericityGateError):
            analyze_injectivity(degenerate, 1, 1, audit=audit)

    def test_force_records_unverified_result(self):
        rng = random.Random(79)
        r = random_surface_pair(rng, 3, 3).r
        degenerate = SurfacePair(r, r)
        result = analyze_injectivity(degenerate, 1, 1, force=True)
        assert not result.hypotheses_verified
        assert result.columns == 12 and 0 <= result.rank <= 12
        # the rank taken from the kernel is the exact Bareiss rank
        matrix = injectivity_matrix(degenerate, 1, 1)
        assert result.rank == row_echelon(list(matrix.row_entries), 12).rank == 9
        assert not result.injective
        witness = result.kernel_witness
        assert witness is not None
        jet = build_jet(witness, degenerate, JetSpec(m=1, c=0, a=1))
        assert jet.is_zero()
        # the report's witness reads back as the same field
        body = result.to_json_dict()
        assert body["verdict"] == "kernel" and body["hypotheses_verified"] is False
        parsed = CoefficientField.from_json_dict(body["kernel_witness"])
        assert parsed.entries == witness.entries
        assert build_jet(parsed, degenerate, JetSpec(m=1, c=0, a=1)).is_zero()

    def test_runs_its_own_audit_when_none_given(self):
        rng = random.Random(83)
        surf, _ = random_generic_surface(rng, 2, 2, audit_seed=321)
        result = analyze_injectivity(surf, 1, 0, seed=321)
        assert result.hypotheses_verified and result.injective
        r = random_surface_pair(random.Random(73), 3, 3).r
        with pytest.raises(GenericityGateError):
            analyze_injectivity(SurfacePair(r, r), 1, 1)

    def test_asymmetric_degrees(self):
        rng = random.Random(131)
        surf, audit = random_generic_surface(rng, 2, 3, audit_seed=654)
        for m in (1, 2):
            assert analyze_injectivity(surf, m, 0, audit=audit).injective

    def test_small_quadric_config(self):
        rng = random.Random(83)
        surf, audit = random_generic_surface(rng, 2, 2, audit_seed=321)
        result = analyze_injectivity(surf, 1, 0, audit=audit)
        assert result.injective and result.columns == 4

    def test_beyond_cap_outcome_recorded_not_asserted(self):
        # a > d-2 is beyond the theorem, so injectivity is not claimed there;
        # the rank from the proved kernel must still be the Bareiss rank.  At
        # a = d-1 the map stays injective; at a = d the kernel is the Euler
        # syzygies R e_t - R_x e_(j+1,k,p-1,q) - R_y e_(j,k+1,p-1,q) and their
        # S analogues, one per tuple with p >= 1 and one per tuple with q >= 1
        rng = random.Random(89)
        surf, _ = random_generic_surface(rng, 3, 3, audit_seed=17)
        for m, a, expected, columns in ((1, 2, 24, 24), (2, 2, 60, 60),
                                        (1, 3, 38, 40), (2, 3, 92, 100)):
            matrix = jet_matrix(surf, m, a)
            assert len(matrix.columns) == columns
            assert (matrix.rank() == row_echelon(list(matrix.row_entries), columns).rank
                    == expected)


@pytest.fixture(scope="module")
def criterion_04_cases():
    """(surf, audit, m, a) of acceptance criterion 04: d = e in 2..4, a = d - 2."""
    rng = random.Random(4004)
    cases = []
    for d in (2, 3, 4):
        for index in range(5):
            surf, audit = random_generic_surface(rng, d, d, audit_seed=4100 + 10 * d + index)
            cases.extend((surf, audit, m, d - 2) for m in (1, 2))
    return cases


def spy_routes(monkeypatch) -> Counter:
    """Count the analyses the cut proves ("cut") and the full matrices built ("full")."""
    routes = Counter()
    proof, build = linalg.full_column_rank, injectivity.jet_matrix

    def cut_proof(rows, ncols):
        proved = proof(rows, ncols)
        routes["cut"] += proved
        return proved

    def matrix(surf, m, a, y_below=None):
        routes["full"] += y_below is None
        return build(surf, m, a, y_below)

    monkeypatch.setattr(linalg, "full_column_rank", cut_proof)
    monkeypatch.setattr(injectivity, "jet_matrix", matrix)
    return routes


class TestCutProof:
    def test_cut_is_the_rows_of_y_degree_at_most_a(self, criterion_04_cases):
        for surf, _, m, a in criterion_04_cases:
            full = jet_matrix(surf, m, a)
            cut = injectivity_matrix(surf, m, a, y_below=a + 1)
            assert cut.columns == full.columns
            assert cut.rows == tuple(e for e in full.rows if e[1] <= a)
            entries = dict(zip(full.rows, full.row_entries))
            for e, row in zip(cut.rows, cut.row_entries):
                assert row == entries[e]
            # and it proves every case of the criterion on its own
            assert full_column_rank(list(cut.row_entries), len(cut.columns))

    def test_a_cut_below_y_a_holds_the_unit_column_y_a_in_its_kernel(self, criterion_04_cases):
        # A[t] = y^a has no jet term below y^a, so a + 1 is the smallest cut
        for surf, _, m, a in criterion_04_cases:
            low = injectivity_matrix(surf, m, a, y_below=a)
            for t in index_tuples(m):
                unit = [0] * len(low.columns)
                unit[low.columns.index(t + (0, a))] = 1
                assert not any(low.matvec(unit))
            assert not full_column_rank(list(low.row_entries), len(low.columns))

    def test_a_repeated_column_is_not_full_rank(self):
        rows = [{0: 2, 1: 2, 2: 1}, {0: -1, 1: -1}, {2: 5}, {0: 3, 1: 3, 2: 4}]
        assert not full_column_rank(rows, 3)
        assert nullspace(rows, 3) == [[-1, 1, 0]]
        # without the copy, the same rows have full column rank
        assert full_column_rank([{j // 2: v for j, v in row.items() if j != 1}
                                 for row in rows], 2)

    @pytest.mark.parametrize("rows,ncols,kernel", UNLUCKY_PRIME)
    def test_false_proves_nothing(self, rows, ncols, kernel):
        # rank-deficient mod p, whatever the rank over Q
        assert not full_column_rank(rows, ncols)
        assert nullspace(rows, ncols) == kernel


@PROPERTY
@given(matrices() | planted_kernel_matrices())
def test_full_column_rank_is_a_proof(matrix):
    rows, ncols = matrix
    if full_column_rank(rows, ncols):
        assert nullspace(rows, ncols) == []
        assert row_echelon(rows, ncols).rank == ncols


class TestRoutes:
    @staticmethod
    def _reports(monkeypatch, analyses):
        """Each analysis's report on the cut route, then with the cut proof refused."""
        with monkeypatch.context() as patch:
            routes = spy_routes(patch)
            cut = [analysis().to_json_dict() for analysis in analyses]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "full_column_rank", lambda rows, ncols: False)
            refused = spy_routes(patch)
            full = [analysis().to_json_dict() for analysis in analyses]
        assert refused["full"] == len(analyses)
        return cut, full, routes

    def test_generic_surfaces_report_the_same_on_both_routes(self, monkeypatch,
                                                              criterion_04_cases):
        analyses = [lambda surf=surf, audit=audit, m=m, a=a:
                    analyze_injectivity(surf, m, a, audit=audit)
                    for surf, audit, m, a in criterion_04_cases]
        cut, full, routes = self._reports(monkeypatch, analyses)
        assert cut == full
        assert routes == Counter(cut=len(analyses), full=0)
        assert all(report["verdict"] == "injective" for report in cut)

    def test_forced_degenerate_surface_reports_the_same_on_both_routes(self, monkeypatch):
        r = random_surface_pair(random.Random(79), 3, 3).r
        degenerate = SurfacePair(r, r)
        cut, full, routes = self._reports(
            monkeypatch, [lambda: analyze_injectivity(degenerate, 1, 1, force=True)])
        assert cut == full
        # the cut fails on its own here, and the witness is the Bareiss-rank one
        assert routes == Counter(cut=0, full=1)
        assert cut[0]["rank"] == 9 and cut[0]["kernel_witness"] is not None

    def test_benchmark_configuration_never_builds_the_full_matrix(self, capsys,
                                                                  monkeypatch):
        routes = spy_routes(monkeypatch)
        kernels = []
        monkeypatch.setattr(linalg, "nullspace",
                            lambda *args: kernels.append(args) or [])
        assert main(["verify", "--injectivity", "--d", "4", "--m", "2", "--surfaces", "2",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        assert routes == Counter(cut=2, full=0)
        assert kernels == []


class TestRxSxProposition:
    def test_generic_cubics(self):
        rng = random.Random(97)
        surf, _ = random_generic_surface(rng, 3, 3, audit_seed=11)
        assert rx_sx_injective(surf, 1)

    def test_m_zero_identity_map(self):
        rng = random.Random(101)
        surf, _ = random_generic_surface(rng, 2, 2, audit_seed=13)
        matrix = rx_sx_matrix(surf, 0)
        assert len(matrix.columns) == (surf.d) * (surf.d + 1) // 2
        assert rx_sx_injective(surf, 0)

    def test_column_count(self):
        rng = random.Random(103)
        surf = random_surface_pair(rng, 3, 3)
        matrix = rx_sx_matrix(surf, 1)
        assert len(matrix.columns) == 3 * 6  # (p,q) with p+q<=1, monomials deg <= 2


class TestVanishingLemma:
    def test_single_point_kills_constants(self):
        assert vanishing_slice_is_zero(Y - X, Y + X, 0)

    def test_low_degree_generator_defeats_slice(self):
        # y itself lies in the ideal (x^2+y^2-1, y) with degree 1 <= amax
        circle = poly_parse("x^2 + y^2 - 1", XY)
        assert not vanishing_slice_is_zero(circle, Y, 1)

    def test_generic_cubics(self):
        rng = random.Random(107)
        surf = random_surface_pair(rng, 3, 3)
        assert vanishing_slice_is_zero(surf.r, surf.s, 2)

    def test_truncation_stability(self):
        # raising the Macaulay degree by one never changes the verdict
        rng = random.Random(109)
        cases = [(Y - X, Y + X, 0), (poly_parse("x^2 + y^2 - 1", XY), Y, 1)]
        surf = random_surface_pair(rng, 3, 3)
        cases.append((surf.r, surf.s, 2))
        for p, q, amax in cases:
            base = vanishing_slice_is_zero(p, q, amax)
            raised = vanishing_slice_is_zero(p, q, amax, degree_margin=1)
            assert base == raised

    def test_amax_cap(self):
        # the cap amax <= deg(p) - 1 is sharp: at amax = deg p the slice
        # holds p itself
        assert not vanishing_slice_is_zero(Y - X, Y + X, 1)
        surf = random_surface_pair(random.Random(107), 3, 3)
        assert not vanishing_slice_is_zero(surf.r, surf.s, 3)

    def test_requires_certified_transversality(self):
        # y = x^2 is tangent to y = 0: the double point is not simple, so
        # vanishing there is not ideal membership
        assert not pair_transversality_check(Y - X * X, Y).passed
        with pytest.raises(AssertionError, match="not certified transversal"):
            vanishing_slice_is_zero(Y - X * X, Y, 0)


class TestTriangularReduction:
    def test_small_orders(self):
        # entries of degree <= a with coefficients in -5..5, zeros allowed
        rng = random.Random(113)
        surf = random_surface_pair(rng, 2, 2)
        for a in (0, 1):
            for m in (1, 2, 3):
                for k_prime in range(1, m + 1):
                    assert triangular_slice_holds(
                        surf, m, k_prime, a, lambda: random_small_polynomial(rng, a))

    def test_runs_without_the_jet_context(self, monkeypatch):
        # the expansion route is the independent check of build_jet, so it
        # must not read JetContext's caches, also when its own term cache is
        # shared across fields as in one solve
        rng = random.Random(131)
        surf = random_surface_pair(rng, 2, 3)
        spec = JetSpec(m=2, c=0, a=1)
        fields = [random_coefficient_field(rng, 2, 1) for _ in range(3)]
        expected = [build_jet(field, surf, spec) for field in fields]

        def no_context(*args, **kwargs):
            raise AssertionError("JetContext built on the expansion route")

        monkeypatch.setattr("jetdiff.jetbuilder.JetContext", no_context)
        assert expand_lambda(fields[0], surf, spec).reconstruct() == expected[0]
        terms = LambdaTerms(surf)
        assert [expand_lambda(field, surf, spec, terms).reconstruct()
                for field in fields] == expected
