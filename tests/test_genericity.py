import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from jetdiff import genericity, polyring
from jetdiff.genericity import (
    DEFAULT_SEED,
    FAIL,
    INCONCLUSIVE,
    PASS,
    SIX_CURVE_NAMES,
    axis_ox_disposition_check,
    curve_smooth_check,
    full_genericity_audit,
    infinity_disposition_check,
    line_y0_disposition_check,
    no_triple_check,
    pair_transversality_check,
    shear,
)
from jetdiff.jetbuilder import XY, SurfacePair, monomials_upto
from jetdiff.polyring import ExactPoly, poly_diff, poly_parse, resultant
from jetdiff.sampling import random_surface_pair

X = ExactPoly.variable(XY, "x")
Y = ExactPoly.variable(XY, "y")
ONE = ExactPoly.const(XY, 1)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def plane_polys(max_degree: int):
    """Nonzero integer polynomials over XY of total degree <= max_degree."""
    monomials = list(monomials_upto(max_degree))
    return st.lists(st.integers(-5, 5), min_size=len(monomials),
                    max_size=len(monomials)).filter(any).map(
        lambda coeffs: ExactPoly(XY, dict(zip(monomials, map(Fraction, coeffs)))))


class TestShear:
    def test_x_maps_to_x_plus_sy(self):
        assert shear(X, 1) == X + Y

    def test_y_untouched(self):
        assert shear(Y, 7) == Y

    def test_square(self):
        assert shear(X * X, 1) == poly_parse("x^2 + 2*x*y + y^2", XY)

    def test_degree_preserved(self, rng):
        from conftest import random_poly
        for _ in range(10):
            p = random_poly(rng, 4)
            if p.is_zero():
                continue
            assert shear(p, Fraction(3, 5)).total_degree() == p.total_degree()


class TestPairTransversality:
    def test_two_lines_pass(self):
        report = pair_transversality_check(Y - X, Y + X)
        assert report.passed and report.verdict == PASS
        assert report.resultant_degree == 1 == report.degree_product

    def test_tangency_fails(self):
        report = pair_transversality_check(Y - X * X, Y)
        assert not report.passed and report.verdict == FAIL

    def test_common_factor_fails(self):
        p = (Y - X) * (Y + X * X)
        q = (Y - X) * (Y + ONE)
        report = pair_transversality_check(p, q)
        assert report.verdict == FAIL and report.resultant_degree == -1

    def test_intersection_at_infinity_fails(self):
        # parallel-asymptote hyperbolas meet on the line at infinity
        report = pair_transversality_check(X * Y - ONE, X * Y - ONE - ONE)
        assert report.verdict == FAIL and not report.all_affine

    def test_random_cubics_pass(self):
        rng = random.Random(1234)
        passes = 0
        for _ in range(5):
            surf = random_surface_pair(rng, 3, 3)
            if pair_transversality_check(surf.r, surf.s).passed:
                passes += 1
        assert passes >= 4

    def test_shear_invariance(self):
        rng = random.Random(555)
        surf = random_surface_pair(rng, 3, 3)
        base = pair_transversality_check(surf.r, surf.s).passed
        for s in (Fraction(1), Fraction(-2, 3), Fraction(5, 7)):
            assert pair_transversality_check(shear(surf.r, s), shear(surf.s, s)).passed == base

    def test_bezout_consistency(self):
        rng = random.Random(77)
        for _ in range(4):
            surf = random_surface_pair(rng, 2, 3)
            report = pair_transversality_check(surf.r, surf.s)
            if report.passed:
                assert report.resultant_degree == surf.d * surf.e

    def test_d_e_minus_one_count(self):
        rng = random.Random(4321)
        surf = random_surface_pair(rng, 3, 3)
        report = pair_transversality_check(surf.r, poly_diff(surf.s, "x"))
        assert report.passed
        assert report.resultant_degree == 3 * 2
        assert report.squarefree

    def test_degenerate_leading_forms_under_all_shears_are_inconclusive(self):
        # the leading forms vanish at [-s:1] for the eight shears s of seed
        # 127, p at the first four and q at the last four, so no shear keeps
        # both y^4 terms
        p = poly_parse("x*(2*x - 3*y)*(13*x + 2*y)*(39*x - 53*y) + x + 1", XY)
        q = poly_parse("(49*x + 87*y)*(19*x + 4*y)*(49*x - 69*y)*(95*x - 14*y) + y - 2",
                       XY)
        report = pair_transversality_check(p, q, seed=127)
        assert report.verdict == INCONCLUSIVE
        assert report.witness == "degenerate leading forms under all shears"
        assert report.shear_used is None

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            pair_transversality_check(ONE, Y)
        with pytest.raises(ValueError):
            pair_transversality_check(ExactPoly.zero(XY), Y)


class TestCurveSmoothness:
    def test_smooth_conic(self):
        assert curve_smooth_check(poly_parse("x^2 + y^2 - 1", XY))

    def test_cuspidal_cubic(self):
        assert not curve_smooth_check(poly_parse("y^2 - x^3", XY))

    def test_smooth_elliptic(self):
        assert curve_smooth_check(poly_parse("y^2 - x^3 - x - 1", XY))

    def test_nodal_cubic(self):
        assert not curve_smooth_check(poly_parse("y^2 - x^2*(x + 1)", XY))

    def test_repeated_component(self):
        assert not curve_smooth_check(poly_parse("(x + y)^2", XY))

    def test_x_free_curve_is_decided_by_its_profile(self):
        # an x-free curve smooth at infinity is a line y = c: ps_x = 0 under
        # every shear, and the resultant with ps_y is a nonzero constant
        for line in (Y - ONE, Y - ExactPoly.const(XY, 3)):
            assert genericity._curve_smooth_verdict(line) == (PASS, None)
            assert curve_smooth_check(line)
        # y^2 + y meets infinity only at [1:0:0], where it is singular
        assert not curve_smooth_check(Y * Y + Y)
        assert genericity._curve_smooth_verdict(Y * Y + Y) == (
            FAIL, "singular direction at infinity of y^2")

    @pytest.mark.parametrize("text", [
        "(y - 1)^2", "y*(y - 1)^2", "(x^2 + y^2 - 1)^2", "(y - x^2)^2",
        "(y - 1)^2*(x + y + 2)", "(x + 2*y - 1)^2*(x^2 - y + 3)"])
    def test_repeated_factor_fails_at_infinity(self, text):
        # res(p, p_y) = 0, a case the affine loop of the smoothness check
        # leaves out: the check at infinity must refuse these curves first
        curve = poly_parse(text, XY)
        assert resultant(curve, poly_diff(curve, "y"), "y").is_zero()
        verdict, witness = genericity._smooth_at_infinity(curve)
        assert verdict == FAIL and witness.startswith("singular direction at infinity")

    @PROPERTY
    @given(plane_polys(2).filter(lambda h: not h.is_constant()), plane_polys(2))
    def test_square_factor_fails_at_infinity(self, h, k):
        # the closure of h = 0 meets infinity, and h^2 k is singular there
        assert genericity._smooth_at_infinity(h * h * k)[0] == FAIL

    @PROPERTY
    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=7).filter(lambda c: c[-1]))
    def test_x_free_curve_of_degree_two_or_more_fails_at_infinity(self, coeffs):
        # leading form c*y^n with n >= 2: singular at [1:0:0]
        curve = ExactPoly(XY, {(0, i): Fraction(c) for i, c in enumerate(coeffs) if c})
        assert genericity._smooth_at_infinity(curve)[0] == FAIL

    def test_nodes_over_irrational_x_stay_inconclusive(self):
        # the nodes (+-sqrt(3), 1) have no rational x: res(ps, ps_x) vanishes
        # under the identity shear, and no shear separates the candidates
        curve = poly_parse("(y - 1)*(x^2 + y^2 - 4)", XY)
        assert resultant(curve, poly_diff(curve, "x"), "y").is_zero()
        verdict, witness = genericity._curve_smooth_verdict(curve)
        assert verdict == INCONCLUSIVE
        assert witness.startswith("unseparated singular-point candidates")
        assert not curve_smooth_check(curve)

    def test_random_dense_curves_smooth(self):
        rng = random.Random(99)
        smooth = 0
        for _ in range(5):
            surf = random_surface_pair(rng, 3, 3)
            if curve_smooth_check(surf.r):
                smooth += 1
        assert smooth >= 4


class TestNoTriple:
    def test_lines_missing_origin(self):
        assert no_triple_check(Y - X, Y + X, Y - ONE)

    def test_lines_through_origin(self):
        assert not no_triple_check(Y - X, Y + X, Y)

    def test_random_trios(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(4):
            surf = random_surface_pair(rng, 3, 3)
            third = random_surface_pair(rng, 3, 3).r
            if no_triple_check(surf.r, surf.s, third):
                hits += 1
        assert hits >= 3

    def test_rational_triple_point_detected(self):
        # all three pass through (1, 2)
        p = poly_parse("y - 2*x", XY)
        q = poly_parse("y + x - 3", XY)
        r = poly_parse("y - x^2 - 1", XY)
        assert not no_triple_check(p, q, r)

    def test_triple_point_with_a_large_root(self):
        # all three pass through (N, 1); the witness needs a root with a
        # 14-digit numerator
        n = 10**13 + 37
        curves = {"p": poly_parse(f"x + y - {n + 1}", XY), "q": poly_parse(f"x - y - {n - 1}", XY),
                  "r": poly_parse(f"y - 1 + (x - {n})^2", XY)}
        assert genericity._triple_verdicts(curves, DEFAULT_SEED)["p", "q", "r"] == (
            FAIL, "triple point: common point over x = 20000000000071/2")


class TestDispositions:
    def test_line_y0_fails_on_circle(self):
        # R_y = 2y vanishes identically on y = 0
        surf = SurfacePair.parse("x^2 + y^2 - 1", "x^2 + y^2 + x*y + y - 2")
        assert not line_y0_disposition_check(surf)

    def test_line_y0_fails_on_shared_root(self):
        # R_y(x,0) = x + 1 shares the root x = -1 with R(x,0) = x^2 - 1
        surf = SurfacePair.parse("x^2 + y^2 + x*y + y - 1", "x^2 + 3*y^2 + x*y + x - 5")
        assert not line_y0_disposition_check(surf)

    def test_line_y0_random_pass(self):
        rng = random.Random(2024)
        hits = 0
        for _ in range(5):
            surf = random_surface_pair(rng, 3, 4)
            if line_y0_disposition_check(surf):
                hits += 1
        assert hits >= 4

    def test_axis_ox(self):
        assert not axis_ox_disposition_check(SurfacePair.parse("y - x", "y + x"))
        assert axis_ox_disposition_check(SurfacePair.parse("y - x - 1", "y + x - 2"))

    def test_infinity_disposition(self):
        good = SurfacePair.parse("x^2 + y^2 - 1", "x^2 + x*y + y^2 - 2")
        assert infinity_disposition_check(good)
        # identical leading forms meet at infinity
        bad = SurfacePair.parse("x^2 + x*y + y^2 - 1", "x^2 + x*y + y^2 - 2")
        assert not infinity_disposition_check(bad)

    def test_infinity_fails_on_a_square_leading_form(self):
        # the leading form (x + y)^2 of R meets infinity twice at [1:-1]
        surf = SurfacePair.parse("x^2 + 2*x*y + y^2 + x", "x^3 + y^3 + 1")
        assert not infinity_disposition_check(surf)
        assert genericity._infinity_verdict(surf) == (
            FAIL, "leading form of R not squarefree: x^2 + 2*x*y + y^2")


class TestFullAudit:
    def test_random_pair_passes(self):
        rng = random.Random(42)
        surf = random_surface_pair(rng, 3, 3)
        report = full_genericity_audit(surf)
        assert report.passed and report.verdict == PASS
        assert len(report.checks) == 2 + 15 + 20 + 3
        assert len(report.optional_checks) == 6
        assert report.seed == 127

    def test_equal_pair_fails_with_witness(self):
        rng = random.Random(7)
        r = random_surface_pair(rng, 3, 3).r
        report = full_genericity_audit(SurfacePair(r, r))
        assert not report.passed and report.verdict == FAIL
        failing = {c.name: c for c in report.failing()}
        assert "pair_R_S" in failing
        assert failing["pair_R_S"].witness is not None

    def test_json_shape(self):
        rng = random.Random(64)
        surf = random_surface_pair(rng, 2, 2)
        body = full_genericity_audit(surf).to_json_dict()
        assert set(body) == {"seed", "verdict", "passed", "checks", "optional_checks"}
        for check in body["checks"]:
            assert check["verdict"] in (PASS, FAIL, INCONCLUSIVE)


class TestFailingAuditReports:
    """Golden digests of failing audit reports.

    Their witness strings are printed from resultants and their gcds, so a
    change to either shows here even where every verdict stays the same.
    """

    CASES = {
        # node at the origin: singular point, repeated factors, triple point
        "singular_curve": ("x^3 + y^3 - x*y", "x^3 - 2*y^3 + x*y + 3*x - y + 5",
                           "d6e86176988b249447aea44a875076d018b2206175d236e0e35028b46a431c63"),
        # R = S: identically zero resultants; unseparated triple candidates
        "equal_pair": ("x^3 + 2*y^3 - x*y + 3*x - 1", "x^3 + 2*y^3 - x*y + 3*x - 1",
                       "bcf5a762e54d8f5293c2df70d07cb6b90ee645dcf08b11d55d597650145ec59b"),
        # leading forms share the direction x = y: resultant degree 3 < 4
        "points_at_infinity": ("x^2 - y^2 + y - 2", "x^2 + x*y - 2*y^2 + 3*x + 1",
                               "3193ac5a846186573a62e55bf14888a75eacc97cef84d424cabca48d0e578505"),
        # the conics touch at (+-1, 0): repeated resultant factor x^2 - 1
        "tangency": ("x^2 + y^2 - 1", "x^2 + 4*y^2 - 1",
                     "45255a73cad83b41a1ba32b09c710ccb7e49c56af9c9c28089d63dcb0544ca22"),
        # d = 1: R_x and R_y are constants, so 9 pairs and 16 triples are
        # "constant curve"; S_y vanishes at the root x = -1 of S(x, 0)
        "line_and_conic": ("x + 2*y - 1", "x^2 + x*y + 3*y^2 - x + y - 2",
                           "666e7b3fb1437b4fe82488154eb83d2d6131d2b95bca1cfa133afe3239df9307"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_digest(self, case):
        r_text, s_text, digest = self.CASES[case]
        report = full_genericity_audit(SurfacePair.parse(r_text, s_text))
        assert report.verdict == FAIL
        body = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == digest


def _audited_surfaces():
    """Three random d = e = 3 surfaces, the golden failing cases, and a pair
    whose R_x = 2x makes the identity shear invalid only for the triples
    with R_x: the triple points of the others have witnesses that move
    with the shear, so each must be decided at its own first valid shear."""
    surfaces = [random_surface_pair(random.Random(seed), 3, 3) for seed in (5, 6, 7)]
    texts = [(r, s) for r, s, _ in TestFailingAuditReports.CASES.values()]
    texts.append(("x^2 + y^2 + 2*y", "x^2 - 2*x*y + 2*y^2 + x"))
    return surfaces + [SurfacePair.parse(r, s) for r, s in texts]


class TestTriplePass:
    def test_audit_triples_equal_each_triple_alone(self):
        non_pass = 0
        for surf in _audited_surfaces():
            curves = genericity._six_curves(surf)
            checks = {c.name: c for c in full_genericity_audit(surf).checks}
            for triple in combinations(SIX_CURVE_NAMES, 3):
                check = checks["triple_" + "_".join(triple)]
                if any(curves[name].is_constant() for name in triple):
                    assert (check.verdict, check.witness) == (INCONCLUSIVE, "constant curve")
                    continue
                alone = genericity._triple_verdicts({name: curves[name] for name in triple},
                                                    DEFAULT_SEED + 997)
                assert (check.verdict, check.witness) == alone[triple]
                non_pass += check.verdict != PASS
        # the golden cases carry failing and inconclusive triples
        assert non_pass >= 20

    def test_at_most_one_resultant_per_pair_and_shear(self, monkeypatch):
        calls = []
        shears = set()
        resultant, shear_ = genericity.resultant, genericity.shear
        monkeypatch.setattr(genericity, "resultant",
                            lambda *args: calls.append(args) or resultant(*args))
        monkeypatch.setattr(genericity, "shear",
                            lambda p, s: shears.add(s) or shear_(p, s))
        for surf in _audited_surfaces():
            calls.clear()
            shears.clear()
            genericity._triple_verdicts({name: poly for name, poly
                                         in genericity._six_curves(surf).items()
                                         if not poly.is_constant()}, DEFAULT_SEED + 997)
            # without sharing, the 20 triples would take 40 resultants per shear
            assert 0 < len(calls) <= 15 * len(shears)


def _dense_polynomial_text(rng, degree):
    """Every monomial of total degree <= degree, coefficients in +-1..9."""
    terms = []
    for h in range(degree + 1):
        for i in range(degree + 1 - h):
            coeff = rng.randint(1, 9) * rng.choice((1, -1))
            terms.append(f"{coeff}*x^{h}*y^{i}")
    return " + ".join(terms).replace("+ -", "- ")


def _count_calls(monkeypatch, module, name, result=None):
    """Count the calls of module.name; return result instead of running it, if given."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args) if result is None else result

    monkeypatch.setattr(module, name, spy)
    return calls


class TestModularGcdRoute:
    """Pass verdicts of the gcd-based checks are proved mod p; the rest stay exact."""

    def test_passing_dense_audit_never_runs_the_prs(self, monkeypatch):
        rng = random.Random(7)
        surf = SurfacePair.parse(_dense_polynomial_text(rng, 8), _dense_polynomial_text(rng, 8))
        modular = _count_calls(monkeypatch, polyring, "_gcd_degree_mod_p")
        exact = _count_calls(monkeypatch, polyring, "_primitive_prem")
        assert full_genericity_audit(surf).verdict == PASS
        assert len(modular) >= 1 and len(exact) == 0

    FAILING = {
        "tangency": lambda: full_genericity_audit(
            SurfacePair.parse(*TestFailingAuditReports.CASES["tangency"][:2])).to_json_dict(),
        "equal_pair": lambda: full_genericity_audit(
            SurfacePair.parse(*TestFailingAuditReports.CASES["equal_pair"][:2])).to_json_dict(),
        "nodal_cubic": lambda: genericity._curve_smooth_verdict(
            poly_parse("y^2 - x^2*(x + 1)", XY)),
        "cuspidal_cubic": lambda: genericity._curve_smooth_verdict(poly_parse("y^2 - x^3", XY)),
        # all three pass through (1, 2)
        "rational_triple_point": lambda: genericity._triple_verdicts(
            {"p": poly_parse("y - 2*x", XY), "q": poly_parse("y + x - 3", XY),
             "r": poly_parse("y - x^2 - 1", XY)}, DEFAULT_SEED)["p", "q", "r"],
    }

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_failing_reports_come_from_the_exact_route(self, monkeypatch, case):
        report = self.FAILING[case]()
        assert (report["verdict"] if isinstance(report, dict) else report[0]) == FAIL
        # a modular gcd of degree >= 1 sends every gcd to the exact PRS
        forced = _count_calls(monkeypatch, polyring, "_gcd_degree_mod_p", result=1)
        assert self.FAILING[case]() == report
        assert len(forced) > 0
