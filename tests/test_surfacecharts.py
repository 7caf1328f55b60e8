import random

import pytest

from jetdiff.jetbuilder import (
    JET_VARS,
    XY,
    CoefficientField,
    JetContext,
    JetSpec,
    SurfacePair,
    build_jet,
    index_tuples,
    monomials_upto,
    unit_field,
)
from jetdiff.polyring import ExactPoly, poly_diff, poly_parse, poly_substitute
from jetdiff.sampling import (
    random_coefficient_field,
    random_dense_polynomial,
    random_surface_pair,
)
from jetdiff.surfacecharts import (
    CHART_VARS,
    CHARTS,
    SURFACE_VARS,
    _chart_polynomial,
    _residual,
    full_chart_transfer,
    restrict_to_surface,
    verify_derivative_transfer,
    verify_infinity_exponents,
)


def surface(seed=6, d=3, e=3):
    return random_surface_pair(random.Random(seed), d, e)


# non-integer coefficients, so every polynomial built from it has den != 1
FRACTIONAL_SURFACE = SurfacePair.parse("1/2*x^2 - 3/7*x*y + y^2 + 1/3",
                                       "2/5*x^3 + x*y^2 - 1/9*y^3 + x - 5/4")


def chart_oracle(p, degree, chart):
    """u^degree * p under the chart map, substituted one monomial at a time.

    x -> 1/x1, y -> y1/x1 for inv_x and x -> x1/y1, y -> 1/y1 for inv_y; a jet
    coordinate x' or y' maps to the numerator of its image over u^2.
    """
    x1, y1, x1p, y1p = (ExactPoly.variable(CHART_VARS, name)
                        for name in ("x1", "y1", "x1'", "y1'"))
    if chart == "inv_x":
        xp_image, yp_image = -x1p, x1 * y1p - y1 * x1p
    else:
        xp_image, yp_image = y1 * x1p - x1 * y1p, -y1p
    total = ExactPoly.zero(CHART_VARS)
    for exps, coeff in p.terms.items():
        ex, ey, cx, cy = (*exps, 0, 0)[:4]  # (x, y) or (x, y, x', y')
        rest = degree - ex - ey
        plane = (rest, ey, 0, 0) if chart == "inv_x" else (ex, rest, 0, 0)
        total = total + (ExactPoly.monomial(CHART_VARS, plane, coeff)
                         * xp_image ** cx * yp_image ** cy)
    return total


class TestRestriction:
    def test_r_prime_unit(self):
        surf = surface()
        quotient, exact = restrict_to_surface(unit_field(1, (0, 0, 1, 0)), surf,
                                              JetSpec(m=1, c=1, a=0))
        expected = poly_parse("3*t*z'", SURFACE_VARS)  # d = e = 3
        assert exact and quotient == expected

    def test_plain_unit(self):
        surf = surface()
        quotient, exact = restrict_to_surface(unit_field(1, (1, 0, 0, 0)), surf,
                                              JetSpec(m=1, c=1, a=0))
        assert exact and quotient == poly_parse("x'*z*t", SURFACE_VARS)

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(6):
            m = rng.randint(1, 2)
            d = rng.randint(1, 4)
            e = rng.randint(d, 4)
            surf = random_surface_pair(rng, d, e)
            field = random_coefficient_field(rng, m, 1)
            spec = JetSpec(m=m, c=1, a=1)
            quotient, exact = restrict_to_surface(field, surf, spec)
            assert exact
            xp, yp, z, t, zp, tp = (ExactPoly.variable(SURFACE_VARS, name)
                                    for name in ("x'", "y'", "z", "t", "z'", "t'"))
            slots = (xp, yp, z ** d, (z ** (d - 1) * zp).scale(d),
                     t ** e, (t ** (e - 1) * tp).scale(e))
            substituted = JetContext(surf, slots).realize(field)
            assert quotient * z ** (m * (d - 1)) * t ** (m * (e - 1)) == substituted


    def test_field_must_match_spec(self):
        surf = surface()  # d = e = 3
        field = random_coefficient_field(random.Random(0), 2, 1)
        with pytest.raises(ValueError, match="m=2"):
            restrict_to_surface(field, surf, JetSpec(m=1, c=1, a=1))
        with pytest.raises(ValueError, match="degree cap"):
            restrict_to_surface(unit_field(1, (1, 0, 0, 0), h=2), surf, JetSpec(m=1, c=1, a=1))


class TestDerivativeTransfer:
    def test_degree_one_x(self):
        x = ExactPoly.variable(XY, "x")
        assert verify_derivative_transfer(x, 1, "inv_x")

    def test_degree_one_y(self):
        y = ExactPoly.variable(XY, "y")
        assert verify_derivative_transfer(y, 1, "inv_x")

    def test_random_degrees_both_charts(self):
        rng = random.Random(11)
        for degree in range(1, 7):
            for _ in range(3):
                r = random_dense_polynomial(rng, degree)
                assert verify_derivative_transfer(r, degree, "inv_x")
                assert verify_derivative_transfer(r, degree, "inv_y")

    def test_degree_mismatch_rejected(self):
        x = ExactPoly.variable(XY, "x")
        with pytest.raises(ValueError):
            verify_derivative_transfer(x, 2, "inv_x")

    def test_unknown_chart_rejected(self):
        x = ExactPoly.variable(XY, "x")
        with pytest.raises(ValueError):
            verify_derivative_transfer(x, 1, "inv_z")

    def test_chart_symmetry_relabeling(self):
        # the inv_y identity for R is the inv_x identity for R(y, x)
        rng = random.Random(12)
        for degree in (1, 2, 4):
            r = random_dense_polynomial(rng, degree)
            swapped = poly_substitute(r, {"x": ExactPoly.variable(XY, "y"),
                                          "y": ExactPoly.variable(XY, "x")})
            assert (verify_derivative_transfer(r, degree, "inv_y")
                    == verify_derivative_transfer(swapped, degree, "inv_x"))


class TestChartPolynomial:
    @pytest.mark.parametrize("chart", CHARTS)
    def test_jet_matches_oracle(self, chart):
        rng = random.Random(23)
        for surf in (random_surface_pair(rng, 2, 3), FRACTIONAL_SURFACE):
            for m, a in ((1, 2), (2, 1), (3, 0)):
                spec = JetSpec(m=m, c=0, a=a)
                jet = build_jet(random_coefficient_field(rng, m, a), surf, spec)
                assert jet.vars == JET_VARS and not jet.is_zero()
                degree = a + (surf.d + surf.e) * m
                for extra in (0, 2):
                    assert (_chart_polynomial(jet, degree + extra, chart)
                            == chart_oracle(jet, degree + extra, chart))
        assert jet.den != 1

    @pytest.mark.parametrize("chart", CHARTS)
    def test_derivative_combination_matches_oracle(self, chart):
        rng = random.Random(24)
        xp, yp = ExactPoly.variable(JET_VARS, "x'"), ExactPoly.variable(JET_VARS, "y'")
        for r in (random_dense_polynomial(rng, 4), FRACTIONAL_SURFACE.s):
            d = r.total_degree()
            w = (xp * poly_diff(r, "x").extend_to(JET_VARS)
                 + yp * poly_diff(r, "y").extend_to(JET_VARS))
            assert _chart_polynomial(w, d - 1, chart) == chart_oracle(w, d - 1, chart)
            assert _chart_polynomial(r, d, chart) == chart_oracle(r, d, chart)
        assert w.den != 1 and r.den != 1

    def test_degree_too_small_rejected(self):
        jet = build_jet(unit_field(1, (1, 0, 0, 0), h=1), FRACTIONAL_SURFACE,
                        JetSpec(m=1, c=0, a=1))
        with pytest.raises(ValueError, match="too small"):
            _chart_polynomial(jet, 5, "inv_x")  # deg in (x, y) is 1 + 2 + 3


class TestInfinityExponents:
    def test_extreme_index_residual(self):
        # the closed form behind the report: over the whole grid every
        # residual is >= 0, and the least, 0, is at (m,0,0,0,a,0)
        spec = JetSpec(m=3, c=20, a=2)
        residuals = {t + (h, i): _residual(spec, t, h, i)
                     for t in index_tuples(spec.m) for h, i in monomials_upto(spec.a)}
        assert min(residuals.values()) == 0 == residuals[spec.m, 0, 0, 0, spec.a, 0]
        report = verify_infinity_exponents(spec)
        assert report.passed and report.prefactor_exponent == 20 - 2 - 12

    def test_margin_zero(self):
        report = verify_infinity_exponents(JetSpec(m=1, c=5, a=1))
        assert report.passed
        assert report.prefactor_exponent == 0
        assert report.holomorphic_at_infinity and not report.vanishes_at_infinity

    def test_margin_one(self):
        report = verify_infinity_exponents(JetSpec(m=1, c=6, a=1))
        assert report.holomorphic_at_infinity and report.vanishes_at_infinity

    def test_violation_yields_witness(self):
        report = verify_infinity_exponents(JetSpec(m=1, c=5, a=2))
        assert not report.passed
        assert report.witness is not None
        j, k, p, q, h, i = report.witness
        residual = report.a - (h + i) + 2 * report.m - (2 * j + 2 * k + p + q)
        assert report.prefactor_exponent + residual < 0


class TestFullChartTransfer:
    def test_zero_field(self):
        surf = surface()
        spec = JetSpec(m=1, c=6, a=1)
        result = full_chart_transfer(CoefficientField(1), surf, spec, "inv_x")
        assert result.transferred.is_zero()
        assert result.prefactor_exponent == spec.c - spec.a - 4 * spec.m
        assert result.identity_ok

    def test_single_unit_small_surface(self):
        surf = random_surface_pair(random.Random(15), 1, 1)
        spec = JetSpec(m=1, c=5, a=1)
        for chart in ("inv_x", "inv_y"):
            result = full_chart_transfer(unit_field(1, (1, 0, 0, 0)), surf, spec, chart)
            assert result.identity_ok

    def test_random_fields_both_charts(self):
        rng = random.Random(16)
        surf = random_surface_pair(rng, 3, 3)
        spec = JetSpec(m=1, c=7, a=3)
        for chart in ("inv_x", "inv_y"):
            field = random_coefficient_field(rng, 1, 3)
            result = full_chart_transfer(field, surf, spec, chart)
            assert result.identity_ok
            assert result.residual_min >= 0

    def test_order_two_both_charts(self):
        # the residual exponent bookkeeping depends on m through 2j+2k+p+q
        rng = random.Random(12)
        surf = random_surface_pair(rng, 2, 2)
        spec = JetSpec(m=2, c=9, a=1)
        for chart in ("inv_x", "inv_y"):
            field = random_coefficient_field(rng, 2, 1)
            result = full_chart_transfer(field, surf, spec, chart)
            assert result.identity_ok and result.prefactor_exponent == 0

    def test_unknown_chart_rejected(self):
        with pytest.raises(ValueError, match="inv_z"):
            full_chart_transfer(CoefficientField(1), surface(), JetSpec(m=1, c=6, a=1), "inv_z")

    def test_requires_infinity_margin(self):
        surf = surface()
        with pytest.raises(ValueError):
            full_chart_transfer(CoefficientField(1), surf, JetSpec(m=1, c=4, a=1), "inv_x")

    def test_chart_symmetry_relabeling(self):
        # transferring (R, S, A) through inv_y equals transferring the fully
        # x<->y swapped data through inv_x, up to renaming the chart variables
        rng = random.Random(18)
        surf = random_surface_pair(rng, 2, 2)
        spec = JetSpec(m=1, c=6, a=2)
        field = random_coefficient_field(rng, 1, 2)

        swap_xy = {"x": ExactPoly.variable(XY, "y"), "y": ExactPoly.variable(XY, "x")}
        surf_swapped = SurfacePair(poly_substitute(surf.r, swap_xy),
                                   poly_substitute(surf.s, swap_xy))
        entries = {}
        for (j, k, p, q) in index_tuples(1):
            entries[(k, j, p, q)] = poly_substitute(field.entries[(j, k, p, q)], swap_xy)
        field_swapped = CoefficientField(1, entries)

        result_y = full_chart_transfer(field, surf, spec, "inv_y")
        result_x = full_chart_transfer(field_swapped, surf_swapped, spec, "inv_x")
        rename = {"x1": ExactPoly.variable(CHART_VARS, "y1"),
                  "y1": ExactPoly.variable(CHART_VARS, "x1"),
                  "x1'": ExactPoly.variable(CHART_VARS, "y1'"),
                  "y1'": ExactPoly.variable(CHART_VARS, "x1'")}
        assert poly_substitute(result_x.transferred, rename) == result_y.transferred
