import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetdiff.jetbuilder import (
    JET_VARS,
    XY,
    CoefficientField,
    JetContext,
    JetSpec,
    LambdaExpansion,
    SurfacePair,
    build_jet,
    expand_lambda,
    index_tuples,
    monomials_upto,
    unit_field,
)
from jetdiff.polyring import ExactPoly, poly_diff, poly_parse, truncate_below
from jetdiff.sampling import random_coefficient_field, random_surface_pair
from jetdiff.surfacecharts import CHARTS, chart_context, surface_context

from conftest import triangular_slice_holds


def cubic_surface(seed=3):
    return random_surface_pair(random.Random(seed), 3, 3)


class TestSurfacePair:
    def test_degrees_normalised(self):
        surf = SurfacePair.parse("x^2 + y^2 - 1", "x^3 + y^3 + x - 2")
        assert (surf.d, surf.e) == (2, 3)

    def test_rejects_degree_order(self):
        with pytest.raises(ValueError):
            SurfacePair.parse("x^3 + y^3 + 1", "x^2 + y^2 - 1")

    def test_rejects_missing_pure_powers(self):
        # no y^2 term
        with pytest.raises(ValueError):
            SurfacePair.parse("x^2 + x*y - 1", "x^2 + y^2 - 1")
        # no x^3 term
        with pytest.raises(ValueError):
            SurfacePair.parse("x^2 + y^2 - 1", "y^3 + x*y - 1")

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            SurfacePair.parse("3", "x^2 + y^2 - 1")

    def test_degree_capped(self):
        assert SurfacePair.parse("x^100 + y^100 + 1", "x^100 + y^100 + x + 2").e == 100
        for degree in (101, 10 ** 30):
            with pytest.raises(ValueError, match="must not exceed 100"):
                SurfacePair.parse(f"x^{degree} + y^{degree} + 1",
                                  f"x^{degree} + y^{degree} + x + 2")
        with pytest.raises(ValueError, match="must not exceed 100"):
            SurfacePair.parse("x^2 + y^2 - 1", "x^101 + y^101 + 1")


class TestIndexEnumeration:
    def test_tuple_count(self):
        for m in range(5):
            expected = (m + 1) * (m + 2) * (m + 3) // 6
            assert len(list(index_tuples(m))) == expected

    def test_monomial_count(self):
        for a in range(6):
            assert len(list(monomials_upto(a))) == (a + 1) * (a + 2) // 2


class TestBuildJet:
    def test_single_term_no_derivatives(self):
        surf = cubic_surface()
        spec = JetSpec(m=1, c=1, a=0)
        jet = build_jet(unit_field(1, (1, 0, 0, 0)), surf, spec)
        xp = ExactPoly.variable(JET_VARS, "x'")
        assert jet == xp * surf.r.extend_to(JET_VARS) * surf.s.extend_to(JET_VARS)

    def test_single_term_r_prime(self):
        surf = cubic_surface()
        spec = JetSpec(m=1, c=1, a=0)
        jet = build_jet(unit_field(1, (0, 0, 1, 0)), surf, spec)
        xp = ExactPoly.variable(JET_VARS, "x'")
        yp = ExactPoly.variable(JET_VARS, "y'")
        r_prime = (xp * poly_diff(surf.r, "x").extend_to(JET_VARS)
                   + yp * poly_diff(surf.r, "y").extend_to(JET_VARS))
        assert jet == r_prime * surf.s.extend_to(JET_VARS)

    def test_zero_field(self):
        surf = cubic_surface()
        jet = build_jet(CoefficientField(1), surf, JetSpec(m=1, c=1, a=0))
        assert jet.is_zero()

    def test_degree_cap_enforced(self):
        surf = cubic_surface()
        field = CoefficientField(1, {(1, 0, 0, 0): poly_parse("x^2", XY)})
        with pytest.raises(ValueError):
            build_jet(field, surf, JetSpec(m=1, c=1, a=1))

    def test_order_mismatch(self):
        surf = cubic_surface()
        with pytest.raises(ValueError):
            build_jet(CoefficientField(2), surf, JetSpec(m=1, c=1, a=0))

    def test_jet_homogeneous_in_cotangent(self):
        rng = random.Random(8)
        for m in (1, 2):
            surf = random_surface_pair(rng, 2, 3)
            field = random_coefficient_field(rng, m, 1)
            jet = build_jet(field, surf, JetSpec(m=m, c=1, a=1))
            for exps in jet.terms:
                assert exps[2] + exps[3] == m


class TestJetContext:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 8),
           st.sampled_from(("default", "surface") + CHARTS))
    def test_jet_term_base_is_the_left_to_right_product(self, seed, d, c, slots):
        # oracle: x'^j y'^k R'^p S'^q R^(m-p) S^(m-q) by plain powers of the
        # context's own slots, left to right; one context serves m = 1 and 2,
        # and every tuple is asked twice, so later calls read the memos
        surf = random_surface_pair(random.Random(seed), d, 3)
        if slots == "default":
            ctx = JetContext(surf)
        elif slots == "surface":
            ctx = surface_context(surf)
        else:
            ctx = chart_context(surf, slots)
        xp, yp, r, rp, s, sp = (cache[1] for cache in (
            ctx.xp_pow, ctx.yp_pow, ctx.pow_r_slot, ctx.pow_rp_slot,
            ctx.pow_s_slot, ctx.pow_sp_slot))
        cut = JetContext(surf, y_below=c)
        for m in (1, 2, 1):
            tuples = list(index_tuples(m))
            for t in tuples + tuples[::-1]:
                j, k, p, q = t
                expected = xp ** j * yp ** k * rp ** p * sp ** q * r ** (m - p) * s ** (m - q)
                assert ctx.jet_term_base(t, m) == expected
                if slots == "default":
                    # every factor and product cut below y^c: exact on those terms
                    assert cut.jet_term_base(t, m) == truncate_below(expected, "y", c)
        field = random_coefficient_field(random.Random(seed), 2, 1)
        if slots == "default":
            assert cut.realize(field) == truncate_below(ctx.realize(field), "y", c)


class TestExpandLambda:
    def test_hand_expansion_m1(self):
        # A[1,0,0,0]=u, A[0,0,1,0]=v, A[0,0,0,1]=w, A[0,1,0,0]=0:
        #   Lambda[1,0] = u R S + v R_x S + w S_x R
        #   Lambda[0,1] = v R_y S + w S_y R
        surf = cubic_surface()
        u = poly_parse("x - 1", XY)
        v = poly_parse("y + 2", XY)
        w = poly_parse("x + y", XY)
        field = CoefficientField(1, {(1, 0, 0, 0): u, (0, 0, 1, 0): v, (0, 0, 0, 1): w})
        expansion = expand_lambda(field, surf, JetSpec(m=1, c=1, a=1))
        rx, ry, sx, sy = surf.partials()
        assert expansion.entries[(1, 0)] == u * surf.r * surf.s + v * rx * surf.s + w * sx * surf.r
        assert expansion.entries[(0, 1)] == v * ry * surf.s + w * sy * surf.r

    def test_zero_field_gives_zero_expansion(self):
        surf = cubic_surface()
        expansion = expand_lambda(CoefficientField(1), surf, JetSpec(m=1, c=1, a=0))
        assert all(p.is_zero() for p in expansion.entries.values())

    def test_reconstruction_identity(self):
        # oracle: build_jet followed by coefficient extraction in (x', y')
        rng = random.Random(14)
        for _ in range(8):
            m = rng.randint(1, 3)
            d = rng.randint(1, 4)
            e = rng.randint(d, 4)
            surf = random_surface_pair(rng, d, e)
            a = rng.randint(0, 2)
            field = random_coefficient_field(rng, m, a)
            spec = JetSpec(m=m, c=1, a=a)
            assert expand_lambda(field, surf, spec).reconstruct() == build_jet(field, surf, spec)

    def test_linearity_and_scaling(self):
        rng = random.Random(21)
        surf = random_surface_pair(rng, 2, 2)
        spec = JetSpec(m=2, c=1, a=1)
        f1 = random_coefficient_field(rng, 2, 1)
        f2 = random_coefficient_field(rng, 2, 1)
        e1, e2 = expand_lambda(f1, surf, spec), expand_lambda(f2, surf, spec)
        summed = CoefficientField(2, {t: p + f2.entries[t] for t, p in f1.entries.items()})
        assert expand_lambda(summed, surf, spec).entries == {
            ab: p + e2.entries[ab] for ab, p in e1.entries.items()}
        value = Fraction(-3, 2)
        scaled = CoefficientField(2, {t: p.scale(value) for t, p in f1.entries.items()})
        assert expand_lambda(scaled, surf, spec).entries == {
            ab: p.scale(value) for ab, p in e1.entries.items()}

    def test_triangular_slice_witness(self):
        # with A[.,k,.,.] = 0 for k <= k'-1 the beta = k' slice collapses to
        # R^k' S^k' times the R_x/S_x-only reduced sum
        rng = random.Random(31)
        for m in (2, 3):
            for k_prime in range(1, m + 1):
                surf = random_surface_pair(rng, 2, 2)
                assert triangular_slice_holds(
                    surf, m, k_prime, 0, lambda: ExactPoly.const(XY, rng.randint(-3, 3)))


class TestDegreeCheck:
    def test_zero_field_passes(self):
        surf = cubic_surface()
        spec = JetSpec(m=1, c=1, a=1)
        expansion = expand_lambda(CoefficientField(1), surf, spec)
        bound = spec.a + surf.d * spec.m + surf.e * spec.m
        assert all(p.total_degree() <= bound for p in expansion.entries.values())

    def test_generic_bound(self):
        rng = random.Random(77)
        surf = random_surface_pair(rng, 3, 3)
        spec = JetSpec(m=1, c=1, a=1)
        field = random_coefficient_field(rng, 1, 1)
        expansion = expand_lambda(field, surf, spec)
        bound = spec.a + surf.d * spec.m + surf.e * spec.m
        assert all(p.total_degree() <= bound for p in expansion.entries.values())

    def test_oversized_entry_rejected_upstream(self):
        surf = cubic_surface()
        field = CoefficientField(1, {(0, 1, 0, 0): poly_parse("x^2", XY)})
        with pytest.raises(ValueError):
            expand_lambda(field, surf, JetSpec(m=1, c=1, a=1))


class TestJetSpec:
    def test_infinity_margin_recorded(self):
        spec = JetSpec(m=1, c=5, a=1)
        assert spec.infinity_margin == 0 and spec.holomorphic_at_infinity
        spec = JetSpec(m=1, c=5, a=2)
        assert spec.infinity_margin == -1 and not spec.holomorphic_at_infinity

    def test_injectivity_cap(self):
        assert JetSpec(m=1, c=1, a=1).injectivity_cap_ok(3)
        assert not JetSpec(m=1, c=1, a=2).injectivity_cap_ok(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            JetSpec(m=0, c=1, a=0)
        with pytest.raises(ValueError):
            JetSpec(m=1, c=-1, a=0)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(51)
        field = random_coefficient_field(rng, 2, 1)
        data = field.to_json_dict()
        assert set(data) == {",".join(map(str, t)) for t in index_tuples(2)}
        restored = CoefficientField.from_json_dict(data)
        assert restored.entries == field.entries

    def test_missing_entries_fill_as_zero(self):
        field = CoefficientField(1, {(1, 0, 0, 0): poly_parse("x", XY)})
        assert field.entries[(0, 1, 0, 0)].is_zero()
        assert len(field.entries) == 4

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            CoefficientField(1, {(2, 0, 0, 0): poly_parse("x", XY)})

    def test_expansion_requires_full_pairs(self):
        with pytest.raises(ValueError):
            LambdaExpansion(2, {(0, 2): ExactPoly.zero(XY)})
