import hashlib
import json
import random
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import test_cli
from jetdiff import genericity, modular, polyring
from jetdiff.genericity import (
    DEFAULT_SEED,
    FAIL,
    INCONCLUSIVE,
    PASS,
    SIX_CURVE_NAMES,
    full_genericity_audit,
    pair_transversality_check,
    shear,
)
from jetdiff.jetbuilder import XY, SurfacePair, monomials_upto
from jetdiff.polyring import ExactPoly, poly_diff, poly_parse, poly_substitute, resultant
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
            assert shear(p, Fraction(3, 5)).total_degree() == p.total_degree()


class TestShearValues:
    def test_seed_127_sequence(self):
        assert list(genericity._shear_values(127)) == [
            Fraction(0), Fraction(3, 2), Fraction(-2, 13), Fraction(53, 39),
            Fraction(-87, 49), Fraction(-4, 19), Fraction(69, 49), Fraction(14, 95)]

    def test_identity_comes_before_the_generator_is_seeded(self, monkeypatch):
        seeded = []
        monkeypatch.setattr(genericity, "random",
                            SimpleNamespace(Random=lambda seed: seeded.append(seed)))
        values = genericity._shear_values(127)
        assert next(values) == 0 and seeded == []
        with pytest.raises(AttributeError):
            next(values)
        assert seeded == [127]


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
        surfaces = [random_surface_pair(rng, 2, 3) for _ in range(4)]
        reports = [pair_transversality_check(surf.r, surf.s) for surf in surfaces]
        # every case passes, so the Bezout count is checked on all four
        assert sum(report.passed for report in reports) == 4
        for surf, report in zip(surfaces, reports):
            assert report.resultant_degree == surf.d * surf.e == report.degree_product

    def test_d_e_minus_one_count(self):
        rng = random.Random(4321)
        surf = random_surface_pair(rng, 3, 3)
        report = pair_transversality_check(surf.r, poly_diff(surf.s, "x"))
        assert report.passed
        assert report.resultant_degree == 3 * 2
        assert report.squarefree

    def test_tangency_is_failed_at_its_point(self):
        # the conics of the tangency fixture touch at (+-1, 0)
        report = pair_transversality_check(poly_parse("x^2 + y^2 - 1", XY),
                                           poly_parse("x^2 + 4*y^2 - 1", XY))
        assert (report.verdict, report.witness) == (
            FAIL, "multiple intersection: common point over x = 1")
        assert not report.squarefree and report.shear_used == 0

    def test_irrational_tangency_is_inconclusive(self):
        # the conics touch at (+-sqrt(2), 0): no rational point to show
        report = pair_transversality_check(poly_parse("x^2 + y^2 - 2", XY),
                                           poly_parse("x^2 + 2*y^2 - 2", XY))
        assert report.verdict == INCONCLUSIVE and not report.passed
        assert report.witness.startswith("unseparated multiple-intersection candidates "
                                         "x^2 - 2 under x -> ")

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


def smooth_verdict(text, seed=DEFAULT_SEED):
    return genericity._curve_smooth_verdict(poly_parse(text, XY), seed)[0]


def triple_verdict(p, q, r, seed=DEFAULT_SEED):
    return genericity._triple_verdicts({"p": p, "q": q, "r": r}, seed)["p", "q", "r"][0]


class TestCurveSmoothness:
    def test_smooth_conic(self):
        assert smooth_verdict("x^2 + y^2 - 1") == PASS

    def test_cuspidal_cubic(self):
        assert smooth_verdict("y^2 - x^3") == FAIL

    def test_smooth_elliptic(self):
        assert smooth_verdict("y^2 - x^3 - x - 1") == PASS

    def test_nodal_cubic(self):
        assert smooth_verdict("y^2 - x^2*(x + 1)") == FAIL

    def test_repeated_component(self):
        assert smooth_verdict("(x + y)^2") == FAIL

    def test_x_free_curve_is_decided_by_its_profile(self):
        # an x-free curve smooth at infinity is a line y = c: ps_x = 0 under
        # every shear, and the resultant with ps_y is a nonzero constant
        for line in (Y - ONE, Y - ExactPoly.const(XY, 3)):
            assert genericity._curve_smooth_verdict(line) == (PASS, None)
        # y^2 + y meets infinity only at [1:0:0], where it is singular
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
        # the candidates print monic, with the shear they were found under
        assert witness.startswith("unseparated singular-point candidates x^6 + ")
        assert witness.endswith(" under x -> x + 14/95*y")

    def test_random_dense_curves_smooth(self):
        rng = random.Random(99)
        verdicts = [genericity._curve_smooth_verdict(random_surface_pair(rng, 3, 3).r)[0]
                    for _ in range(5)]
        assert verdicts.count(PASS) >= 4


class TestNoTriple:
    def test_lines_missing_origin(self):
        assert triple_verdict(Y - X, Y + X, Y - ONE) == PASS

    def test_lines_through_origin(self):
        assert triple_verdict(Y - X, Y + X, Y) == FAIL

    def test_random_trios(self):
        rng = random.Random(31)
        verdicts = []
        for _ in range(4):
            surf = random_surface_pair(rng, 3, 3)
            third = random_surface_pair(rng, 3, 3).r
            verdicts.append(triple_verdict(surf.r, surf.s, third))
        assert verdicts.count(PASS) >= 3

    def test_rational_triple_point_detected(self):
        # all three pass through (1, 2)
        p = poly_parse("y - 2*x", XY)
        q = poly_parse("y + x - 3", XY)
        r = poly_parse("y - x^2 - 1", XY)
        assert triple_verdict(p, q, r) == FAIL

    def test_parallel_lines_share_no_point(self):
        # y and 2*y share a component, but y - 1 meets neither
        assert triple_verdict(Y, Y + Y, Y - ONE) == PASS

    def test_witness_names_its_shear(self):
        # 2x is invalid at the identity shear: the point (0, 0) is found at
        # the first valid shear, 3/2, which the witness names
        assert genericity._triple_verdicts({"p": X + X, "q": Y, "r": X + Y}, DEFAULT_SEED)[
            "p", "q", "r"] == (FAIL, "triple point: common point over x = 0 under x -> x + 3/2*y")

    def test_no_valid_shear_is_inconclusive(self):
        # the leading form of p vanishes at [s:1] for each of the eight shears
        # s of seed 127, so no shear keeps its y^8 term
        factors = "*".join(f"({s.denominator}*x - ({s.numerator})*y)"
                           for s in genericity._shear_values(127))
        curves = {"p": poly_parse(factors + " + 1", XY), "q": Y, "r": X}
        assert genericity._triple_verdicts(curves, 127)["p", "q", "r"] == (
            INCONCLUSIVE, "degenerate leading forms under all shears")

    def test_triple_point_with_a_large_root(self):
        # all three pass through (N, 1); the witness needs a root with 14
        # digits, found at the identity shear, which only p must keep valid
        n = 10**13 + 37
        curves = {"p": poly_parse(f"x + y - {n + 1}", XY), "q": poly_parse(f"x - y - {n - 1}", XY),
                  "r": poly_parse(f"y - 1 + (x - {n})^2", XY)}
        assert genericity._triple_verdicts(curves, DEFAULT_SEED)["p", "q", "r"] == (
            FAIL, f"triple point: common point over x = {n}")


class TestDispositions:
    def test_line_y0_fails_on_circle(self):
        # R_y = 2y vanishes identically on y = 0
        surf = SurfacePair.parse("x^2 + y^2 - 1", "x^2 + y^2 + x*y + y - 2")
        assert genericity._line_y0_verdict(surf)[0] == FAIL

    def test_line_y0_fails_on_shared_root(self):
        # R_y(x,0) = x + 1 shares the root x = -1 with R(x,0) = x^2 - 1
        surf = SurfacePair.parse("x^2 + y^2 + x*y + y - 1", "x^2 + 3*y^2 + x*y + x - 5")
        assert genericity._line_y0_verdict(surf)[0] == FAIL

    def test_line_y0_random_pass(self):
        rng = random.Random(2024)
        verdicts = [genericity._line_y0_verdict(random_surface_pair(rng, 3, 4))[0]
                    for _ in range(5)]
        assert verdicts.count(PASS) >= 4

    def test_axis_ox(self):
        assert genericity._axis_ox_verdict(SurfacePair.parse("y - x", "y + x"))[0] == FAIL
        assert genericity._axis_ox_verdict(
            SurfacePair.parse("y - x - 1", "y + x - 2")) == (PASS, None)

    def test_infinity_disposition(self):
        good = SurfacePair.parse("x^2 + y^2 - 1", "x^2 + x*y + y^2 - 2")
        assert genericity._infinity_verdict(good) == (PASS, None)
        # identical leading forms meet at infinity
        bad = SurfacePair.parse("x^2 + x*y + y^2 - 1", "x^2 + x*y + y^2 - 2")
        assert genericity._infinity_verdict(bad)[0] == FAIL

    def test_infinity_fails_on_a_square_leading_form(self):
        # the leading form (x + y)^2 of R meets infinity twice at [1:-1]
        surf = SurfacePair.parse("x^2 + 2*x*y + y^2 + x", "x^3 + y^3 + 1")
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
        # node at the origin: singular point, multiple intersections and a
        # triple point there
        "singular_curve": ("x^3 + y^3 - x*y", "x^3 - 2*y^3 + x*y + 3*x - y + 5",
                           "622af1f2f4425e89ce50402194cd879d8c965bffa422ae2e09a9fe0408f0c0a3"),
        # R = S: identically zero resultants; the triple points lie over
        # irrational x, so their candidates stay unseparated
        "equal_pair": ("x^3 + 2*y^3 - x*y + 3*x - 1", "x^3 + 2*y^3 - x*y + 3*x - 1",
                       "e69c94710e4a26d4b17b3d7d7040e510b3d8e8052325670ad5ae02f0086d1175"),
        # leading forms share the direction x = y: resultant degree 3 < 4
        "points_at_infinity": ("x^2 - y^2 + y - 2", "x^2 + x*y - 2*y^2 + 3*x + 1",
                               "3193ac5a846186573a62e55bf14888a75eacc97cef84d424cabca48d0e578505"),
        # the conics touch at (+-1, 0): a multiple intersection over x = 1
        "tangency": ("x^2 + y^2 - 1", "x^2 + 4*y^2 - 1",
                     "46ead60a6d7189d1f4fb5870e425b041b43689b123312665cbcd38dbb9b1f95e"),
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


def _standalone_verdicts(surf, seed):
    """Each mandatory curve check of the audit, run alone in a table of its own."""
    curves = genericity._six_curves(surf)
    verdicts = {}
    for label in ("R", "S"):
        verdict, witness = genericity._curve_smooth_verdict(curves[label], seed)
        verdicts[f"smooth_{label}"] = verdict, witness, None
    for (idx_a, a), (idx_b, b) in combinations(enumerate(SIX_CURVE_NAMES), 2):
        if curves[a].is_constant() or curves[b].is_constant():
            continue
        report = pair_transversality_check(curves[a], curves[b], seed=seed + idx_a * 16 + idx_b)
        shear_used = None if report.shear_used is None else str(report.shear_used)
        verdicts[f"pair_{a}_{b}"] = report.verdict, report.witness, shear_used
    for triple in combinations(SIX_CURVE_NAMES, 3):
        polys = [curves[name] for name in triple]
        if any(poly.is_constant() for poly in polys):
            continue
        verdict, witness = genericity._triple_verdicts(dict(zip(triple, polys)),
                                                       seed + 997)[triple]
        verdicts["triple_" + "_".join(triple)] = verdict, witness, None
    return verdicts


def _assert_sharing_changes_no_verdict(surf, seed=DEFAULT_SEED):
    """The audit's curve checks, which share one shear table, equal the
    checks run alone; returns the number of checks decided past the identity."""
    audit = {c.name: c for c in full_genericity_audit(surf, seed).checks}
    alone = _standalone_verdicts(surf, seed)
    assert alone
    for name, expected in alone.items():
        check = audit[name]
        assert (check.verdict, check.witness, check.shear_used) == expected, name
    return sum(shear not in (None, "0") for _, _, shear in alone.values())


def sparse_surfaces():
    """Surfaces of degree 2 or 3 whose other coefficients are mostly zero, so
    that some partials lose their top y-term and need a non-identity shear."""
    def poly(degree, coeffs):
        terms = dict(zip(monomials_upto(degree), map(Fraction, coeffs)))
        terms[degree, 0] = terms[degree, 0] or Fraction(1)
        terms[0, degree] = terms[0, degree] or Fraction(-1)
        return ExactPoly(XY, {e: c for e, c in terms.items() if c})

    def coeffs(degree):
        size = len(list(monomials_upto(degree)))
        return st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=size,
                        max_size=size)

    return st.tuples(st.integers(2, 3), st.integers(2, 3)).map(sorted).flatmap(
        lambda de: st.tuples(coeffs(de[0]).map(partial(poly, de[0])),
                             coeffs(de[1]).map(partial(poly, de[1])))).map(
        lambda rs: SurfacePair(*rs))


class TestSharedShearTable:
    """One audit shears each curve and forms each pair's resultant once, in one
    table; every check must still decide as it does alone."""

    # the seed-127 grid pair: 56 simple affine points, identity shear invalid for p
    GRID_P = "*".join(f"(x - ({i}))" for i in (-87, -4, -2, 0, 3, 14, 53, 69))
    GRID_Q = "*".join(f"(y - ({j}))" for j in (0, 2, 13, 19, 39, 49, 95))

    @pytest.mark.parametrize("case", sorted(TestFailingAuditReports.CASES))
    def test_failing_audits(self, case):
        r_text, s_text, _ = TestFailingAuditReports.CASES[case]
        _assert_sharing_changes_no_verdict(SurfacePair.parse(r_text, s_text))

    def test_audited_surfaces_reach_non_identity_shears(self):
        past_identity = sum(_assert_sharing_changes_no_verdict(surf)
                            for surf in _audited_surfaces())
        assert past_identity > 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sparse_surfaces(), st.integers(1, 300))
    def test_sparse_surfaces(self, surf, seed):
        _assert_sharing_changes_no_verdict(surf, seed)

    def test_grid_pair_reads_the_triple_walks_resultants(self):
        # the triple walk at seed 127 fills the table at the pair's own shears
        curves = {"p": poly_parse(self.GRID_P, XY), "q": poly_parse(self.GRID_Q, XY),
                  "r": X + Y + ONE}
        table = genericity._ShearTable(curves)
        assert (genericity._triple_verdicts(curves, 127, shared=table)
                == genericity._triple_verdicts(curves, 127))
        reports = {}
        for a, b in combinations(curves, 2):
            shared = pair_transversality_check(curves[a], curves[b], 127, shared=(table, a, b))
            assert shared == pair_transversality_check(curves[a], curves[b], 127)
            assert (shared.shear_used != 0) == (a == "p")
            reports[a, b] = shared
        # no shear makes the grid pair's resultant squarefree, so its 56
        # simple points are proved by the Jacobian route
        grid = reports["p", "q"]
        assert grid.verdict == PASS and grid.passed and not grid.squarefree

    def test_table_forms_each_shear_and_resultant_once(self, monkeypatch):
        shears = _count_calls(monkeypatch, genericity, "shear")
        resultants = _count_calls(monkeypatch, genericity, "resultant")
        table = genericity._ShearTable({"p": Y - X, "q": Y + X})
        p2, q2 = poly_parse("y - x - 2*y", XY), poly_parse("y + x + 2*y", XY)
        for _ in range(2):
            assert table.resultant("p", "q", Fraction(2)) == resultant(p2, q2, "y")
            assert table.sheared("p", Fraction(2)) == p2
        assert len(shears) == 2 and len(resultants) == 1


# the FAIL witnesses that are not points: a pair's zero resultant or degree
# deficiency, and the dispositions at infinity, on the axis and on y = 0
NON_POINT_FAIL_WITNESSES = (
    "resultant identically zero (common factor)", "resultant degree ",
    "singular direction at infinity of ", "leading form of ", "leading forms share ",
    "common curve point on the axis: ", "R(x,0) has a multiple root",
    "S(x,0) has a multiple root", "Rx vanishes on a root of ", "Ry vanishes on a root of ",
    "Sx vanishes on a root of ", "Sy vanishes on a root of ")


def _point_check_curves(curves, name):
    """The three curves whose common point a FAIL of the named check shows."""
    kind, *labels = name.split("_")
    if kind == "smooth":
        return [curves[labels[0] + suffix] for suffix in ("", "y", "x")]
    if kind == "pair":
        p, q = (curves[label] for label in labels)
        jacobian = poly_diff(p, "x") * poly_diff(q, "y") - poly_diff(p, "y") * poly_diff(q, "x")
        return [p, q, jacobian]
    return [curves[label] for label in labels]


def _assert_point_witness(polys, witness):
    """The witness "...: common point over x = x0[ under x -> x + s*y]" holds:
    the sheared curves, specialised at x0, share a y-root."""
    point, _, image = witness.partition(": common point over x = ")[2].partition(" under x -> ")
    s = Fraction(0)
    if image:
        x_image = poly_parse(image, XY)
        s = x_image.coefficient((0, 1))
        assert s != 0 and x_image == X + Y * ExactPoly.const(XY, s)
    at_x0 = {"x": ExactPoly.const(XY, Fraction(point))}
    fibres = [f for f in (poly_substitute(shear(p, s), at_x0) for p in polys) if not f.is_zero()]
    assert fibres and not reduce(polyring.gcd_univariate, fibres).is_constant(), witness


def _assert_fail_witnesses(surf, seed=DEFAULT_SEED):
    """Every FAIL of the audit shows a checked point or a non-point witness;
    returns the number of point witnesses."""
    curves = genericity._six_curves(surf)
    points = 0
    for check in full_genericity_audit(surf, seed).checks:
        if check.verdict != FAIL:
            continue
        assert "under all shears" not in check.witness, check
        assert "share a component" not in check.witness, check
        if ": common point over x = " in check.witness:
            _assert_point_witness(_point_check_curves(curves, check.name), check.witness)
            points += 1
        else:
            assert check.witness.startswith(NON_POINT_FAIL_WITNESSES), check
    return points


class TestFailWitnesses:
    """No FAIL without a witness: a point that substitution rechecks, or an
    algebraic degeneracy of a pair or of a special line."""

    def test_failing_audits_and_the_gated_solve(self):
        texts = [(r, s) for r, s, _ in TestFailingAuditReports.CASES.values()]
        r_line, s_line = test_cli.GOLDEN_SURFACE.splitlines()
        texts.append((r_line.removeprefix("R = "), s_line.removeprefix("S = ")))
        points = sum(_assert_fail_witnesses(SurfacePair.parse(r, s)) for r, s in texts)
        assert points >= 15

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sparse_surfaces(), st.integers(1, 300))
    def test_sparse_surfaces(self, surf, seed):
        _assert_fail_witnesses(surf, seed)

    def test_witness_check_refuses_a_wrong_point(self):
        # all three pass through (1, 2), which x -> x + y moves over x = -1
        polys = [poly_parse(text, XY) for text in ("y - 2*x", "y + x - 3", "y - x^2 - 1")]
        _assert_point_witness(polys, "triple point: common point over x = 1")
        _assert_point_witness(polys, "triple point: common point over x = -1 under x -> x + y")
        for wrong in ("x = 2", "x = 1 under x -> x + y"):
            with pytest.raises(AssertionError):
                _assert_point_witness(polys, "triple point: common point over " + wrong)


def _dense_polynomial_text(rng, degree):
    """Every monomial of total degree <= degree, coefficients in +-1..9."""
    terms = []
    for h in range(degree + 1):
        for i in range(degree + 1 - h):
            coeff = rng.randint(1, 9) * rng.choice((1, -1))
            terms.append(f"{coeff}*x^{h}*y^{i}")
    return " + ".join(terms).replace("+ -", "- ")


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _spy_gcd_primes(monkeypatch, unlucky_first=False):
    """The prime of every modular gcd image; with unlucky_first, each image at
    modular.PRIMES[0] is multiplied by x + 1, one degree too high, as an
    unlucky prime would make it."""
    primes = []
    image_mod_p = polyring._gcd_mod_p

    def spy(a, b, prime):
        primes.append(prime)
        image = image_mod_p(a, b, prime)
        if unlucky_first and prime == modular.PRIMES[0]:
            image = [(low + high) % prime for low, high in zip([0] + image, image + [0])]
        return image

    monkeypatch.setattr(polyring, "_gcd_mod_p", spy)
    return primes


class TestModularGcdRoute:
    """Pass verdicts of the gcd-based checks end at the first prime, and no
    verdict depends on which primes are unlucky: every gcd is proved by
    exact division."""

    def test_passing_dense_audit_proves_gcds_at_the_first_prime(self, monkeypatch):
        rng = random.Random(7)
        surf = SurfacePair.parse(_dense_polynomial_text(rng, 8), _dense_polynomial_text(rng, 8))
        primes = _spy_gcd_primes(monkeypatch)
        assert full_genericity_audit(surf).verdict == PASS
        assert len(primes) >= 1 and set(primes) == {modular.PRIMES[0]}

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
        # an unlucky first prime makes every gcd take a second image
        primes = _spy_gcd_primes(monkeypatch, unlucky_first=True)
        assert self.FAILING[case]() == report
        assert modular.PRIMES[1] in primes
