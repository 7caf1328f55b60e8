import random

import pytest

from jetdiff.divisibility import unknown_labels
from jetdiff.genericity import full_genericity_audit, pair_transversality_check
from jetdiff.injectivity import (
    GenericityGateError,
    analyze_injectivity,
    injectivity_matrix,
    rx_sx_matrix,
    triangular_reduction_check,
    vanishing_lemma_check,
    verify_injectivity_theorem,
    verify_rx_sx_proposition,
)
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
from jetdiff.linalg import row_echelon
from jetdiff.polyring import ExactPoly, poly_parse
from jetdiff.sampling import (
    random_coefficient_field,
    random_generic_surface,
    random_surface_pair,
)

X = ExactPoly.variable(XY, "x")
Y = ExactPoly.variable(XY, "y")
ONE = ExactPoly.const(XY, 1)


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
        # the order in which vector_to_field reads a kernel witness back
        surf = random_surface_pair(random.Random(5), 4, 4)
        matrix = injectivity_matrix(surf, 2, 2)
        assert list(matrix.columns) == unknown_labels(JetSpec(m=2, c=0, a=2))

    def test_order_and_degree_validated(self):
        surf = random_surface_pair(random.Random(6), 3, 3)
        for m, a in ((0, 1), (-1, 1), (1, -1)):
            with pytest.raises(ValueError):
                injectivity_matrix(surf, m, a, enforce_cap=False)

    def test_degree_cap_enforced(self):
        surf = random_surface_pair(random.Random(4), 3, 3)
        with pytest.raises(ValueError):
            injectivity_matrix(surf, 1, 2)
        matrix = injectivity_matrix(surf, 1, 2, enforce_cap=False)
        assert len(matrix.columns) == 4 * 6


class TestInjectivityTheorem:
    def test_generic_surfaces_inject(self):
        rng = random.Random(71)
        for d in (2, 3):
            surf, audit = random_generic_surface(rng, d, d, audit_seed=100 + d)
            for m in (1, 2):
                a = d - 2
                assert verify_injectivity_theorem(surf, m, a, audit=audit)

    def test_gate_refuses_failed_audit(self):
        rng = random.Random(73)
        r = random_surface_pair(rng, 3, 3).r
        degenerate = SurfacePair(r, r)
        audit = full_genericity_audit(degenerate)
        assert not audit.passed
        with pytest.raises(GenericityGateError):
            verify_injectivity_theorem(degenerate, 1, 1, audit=audit)

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
            assert verify_injectivity_theorem(surf, m, 0, audit=audit)

    def test_small_quadric_config(self):
        rng = random.Random(83)
        surf, audit = random_generic_surface(rng, 2, 2, audit_seed=321)
        result = analyze_injectivity(surf, 1, 0, audit=audit)
        assert result.injective and result.columns == 4

    def test_beyond_cap_outcome_recorded_not_asserted(self):
        # a = d-1 exceeds the theorem cap; the rank is computed and recorded
        rng = random.Random(89)
        surf, _ = random_generic_surface(rng, 3, 3, audit_seed=17)
        matrix = injectivity_matrix(surf, 1, 2, enforce_cap=False)
        rank = matrix.rank()
        assert 0 <= rank <= len(matrix.columns)


class TestRxSxProposition:
    def test_generic_cubics(self):
        rng = random.Random(97)
        surf, audit = random_generic_surface(rng, 3, 3, audit_seed=11)
        assert verify_rx_sx_proposition(surf, 1, audit=audit)

    def test_m_zero_identity_map(self):
        rng = random.Random(101)
        surf, audit = random_generic_surface(rng, 2, 2, audit_seed=13)
        matrix = rx_sx_matrix(surf, 0)
        assert len(matrix.columns) == (surf.d) * (surf.d + 1) // 2
        assert verify_rx_sx_proposition(surf, 0, audit=audit)

    def test_column_count(self):
        rng = random.Random(103)
        surf = random_surface_pair(rng, 3, 3)
        matrix = rx_sx_matrix(surf, 1)
        assert len(matrix.columns) == 3 * 6  # (p,q) with p+q<=1, monomials deg <= 2


class TestVanishingLemma:
    def test_single_point_kills_constants(self):
        assert vanishing_lemma_check(Y - X, Y + X, 0)

    def test_low_degree_generator_defeats_slice(self):
        # y itself lies in the ideal (x^2+y^2-1, y) with degree 1 <= amax
        circle = poly_parse("x^2 + y^2 - 1", XY)
        assert not vanishing_lemma_check(circle, Y, 1)

    def test_generic_cubics(self):
        rng = random.Random(107)
        surf = random_surface_pair(rng, 3, 3)
        report = pair_transversality_check(surf.r, surf.s)
        assert report.passed
        assert vanishing_lemma_check(surf.r, surf.s, 2, transversality=report)

    def test_truncation_stability(self):
        # raising the Macaulay degree by one never changes the verdict
        rng = random.Random(109)
        cases = [(Y - X, Y + X, 0), (poly_parse("x^2 + y^2 - 1", XY), Y, 1)]
        surf = random_surface_pair(rng, 3, 3)
        cases.append((surf.r, surf.s, 2))
        for p, q, amax in cases:
            base = vanishing_lemma_check(p, q, amax)
            raised = vanishing_lemma_check(p, q, amax, degree_margin=1)
            assert base == raised

    def test_amax_cap(self):
        with pytest.raises(ValueError):
            vanishing_lemma_check(Y - X, Y + X, 1)

    def test_requires_certified_transversality(self):
        with pytest.raises(GenericityGateError):
            vanishing_lemma_check(Y - X * X, Y, 0)


class TestTriangularReduction:
    def test_small_orders(self):
        rng = random.Random(113)
        surf = random_surface_pair(rng, 2, 2)
        assert triangular_reduction_check(surf, 1)
        assert triangular_reduction_check(surf, 2)
        assert triangular_reduction_check(surf, 3, a=0)

    def test_desk_scale_cap(self):
        rng = random.Random(127)
        surf = random_surface_pair(rng, 2, 2)
        with pytest.raises(ValueError):
            triangular_reduction_check(surf, 4)

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
        # injectivity builds its contexts only through divisibility.jet_matrix
        monkeypatch.setattr("jetdiff.divisibility.JetContext", no_context)
        assert expand_lambda(fields[0], surf, spec).reconstruct() == expected[0]
        terms = LambdaTerms(surf)
        assert [expand_lambda(field, surf, spec, terms).reconstruct()
                for field in fields] == expected
        assert triangular_reduction_check(surf, 2)
