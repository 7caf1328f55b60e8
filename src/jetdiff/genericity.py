"""Audits of the generic-position hypotheses on a surface pair.

Every check here certifies (or refutes, or honestly declines to decide) a
finite transversality/simplicity condition on the six plane curves R, R_x,
R_y, S, S_x, S_y: pairwise transversal intersections with the full product
count of simple affine points, no triple points, smoothness, and the
dispositions along the line y = 0 and the line at infinity.

The certificates are resultant-based.  A pair check passes when the
eliminating resultant of a sheared copy of the pair has exact degree
deg(p)*deg(q) and is squarefree; shears x -> x + s*y with seeded rational s
(numerator and denominator bounded by 97) separate accidental coincidences
of x-coordinates.  Failures are declared only on an algebraic witness; a
degeneracy that survives every attempted shear without a verified witness
is reported as inconclusive, never silently passed.  The pass verdicts of
the gcd-based checks may be proved by a gcd of degree 0 modulo a prime (see
``polyring.gcd_univariate``); fail and inconclusive verdicts, and their
witnesses, always come from the exact remainder sequence.  No rational
root candidate is missed: ``polyring.rational_roots`` is complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from typing import Iterator

from .jetbuilder import XY, SurfacePair
from .polyring import (
    ExactPoly,
    gcd_univariate,
    poly_diff,
    poly_substitute,
    rational_roots,
    resultant,
    squarefree_univariate,
    truncate_below,
)

DEFAULT_SEED = 127
MAX_SHEAR_ATTEMPTS = 8

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def shear(p: ExactPoly, s: Fraction | int) -> ExactPoly:
    """The coordinate change x -> x + s*y; total degree is preserved."""
    s = Fraction(s)
    x_image = ExactPoly(XY, {(1, 0): Fraction(1), (0, 1): s})
    return poly_substitute(p, {"x": x_image})


def _shear_values(seed: int) -> list[Fraction]:
    """The identity shear followed by seeded random rationals (|num|, den <= 97)."""
    rng = random.Random(seed)
    values = [Fraction(0)]
    while len(values) < MAX_SHEAR_ATTEMPTS:
        s = Fraction(rng.randint(1, 97) * rng.choice((1, -1)), rng.randint(1, 97))
        if s not in values:
            values.append(s)
    return values


def _keeps_top_y(polys: list[ExactPoly]) -> bool:
    """True iff every poly keeps its pure y^deg term: the shear is valid for them."""
    return all(p.coefficient((0, p.total_degree())) != 0 for p in polys)


def _valid_shears(polys: tuple[ExactPoly, ...], seed: int
                  ) -> Iterator[tuple[Fraction, list[ExactPoly]]]:
    """Each seeded shear s, with the sheared polys, under which every one stays valid."""
    for s in _shear_values(seed):
        sheared = [shear(p, s) for p in polys]
        if _keeps_top_y(sheared):
            yield s, sheared


def _gcd_fold(polys: list[ExactPoly]) -> ExactPoly:
    """The gcd of the nonzero polys, of which there must be at least one."""
    return reduce(gcd_univariate, [p for p in polys if not p.is_zero()])


@dataclass(frozen=True)
class CheckResult:
    """One named sub-check of an audit, with a witness for non-passes."""

    name: str
    verdict: str
    witness: str | None = None
    shear_used: str | None = None
    shear_seed: int | None = None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "verdict": self.verdict,
                "witness": self.witness, "shear": self.shear_used,
                "shear_seed": self.shear_seed}


@dataclass(frozen=True)
class IntersectionReport:
    """Outcome of a pairwise transversality check.

    passed requires the eliminating resultant to realise the full degree
    product (all intersection points affine), to be squarefree (all points
    simple with separated x-coordinates), under a shear with nondegenerate
    leading forms.
    """

    degree_product: int
    resultant_degree: int   # -1 encodes an identically-zero resultant
    squarefree: bool
    all_affine: bool
    shear_used: Fraction | None
    verdict: str
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return (self.resultant_degree == self.degree_product
                and self.squarefree and self.all_affine)


def pair_transversality_check(p: ExactPoly, q: ExactPoly,
                              seed: int = DEFAULT_SEED) -> IntersectionReport:
    """Certify that p = 0 and q = 0 meet in exactly deg(p)*deg(q) simple affine points."""
    for poly, label in ((p, "p"), (q, "q")):
        if poly.is_zero() or poly.is_constant():
            raise ValueError(f"{label} must be a non-constant polynomial")
    product = p.total_degree() * q.total_degree()
    report = partial(IntersectionReport, degree_product=product, resultant_degree=product,
                     squarefree=False, all_affine=True)
    last_witness = None
    last_shear = None
    for s, (ps, qs) in _valid_shears((p, q), seed):
        res = resultant(ps, qs, "y")
        if res.is_zero():
            return report(resultant_degree=-1, all_affine=False, shear_used=s, verdict=FAIL,
                          witness="resultant identically zero (common factor)")
        rdeg = res.total_degree()
        if rdeg < product:
            # degree deficiency = intersection at the line at infinity;
            # invariant under shears with nondegenerate leading forms.
            return report(resultant_degree=rdeg, all_affine=False, shear_used=s, verdict=FAIL,
                          witness=f"resultant degree {rdeg} < {product} (points at infinity)")
        # res has degree product >= 1 in x, so it is squarefree iff this gcd is constant
        g = gcd_univariate(res, poly_diff(res, "x"))
        if g.is_constant():
            return report(resultant_degree=rdeg, squarefree=True, shear_used=s, verdict=PASS)
        last_witness = str(g)
        last_shear = s
    if last_witness is not None:
        # non-squarefree under every shear with good leading forms: a genuine
        # tangency or multiple point.
        return report(shear_used=last_shear, verdict=FAIL,
                      witness=f"repeated resultant factor {last_witness} under all shears")
    return report(shear_used=None, verdict=INCONCLUSIVE,
                  witness="degenerate leading forms under all shears")


# -- smoothness --------------------------------------------------------------

def _homogeneous_part(p: ExactPoly, degree: int) -> ExactPoly:
    return ExactPoly(XY, {e: c for e, c in p.terms.items() if sum(e) == degree})


def _dehomogenize(form: ExactPoly) -> ExactPoly:
    """Binary form F(x, y) -> F(x, 1); its terms have distinct x-exponents."""
    return form.map_exponents(XY, lambda e: (e[0], 0))


def _binary_squarefree(form: ExactPoly, degree: int) -> bool:
    """Squarefreeness of a nonzero binary form of the stated degree.

    F(x, 1) is nonzero, and degree - deg F(x, 1) is the multiplicity of the
    root [1:0].
    """
    f1 = _dehomogenize(form)
    return squarefree_univariate(f1) and degree - f1.total_degree() <= 1


def _binary_forms_common_root(forms: list[ExactPoly]) -> bool:
    """True iff the nonzero binary forms share a projective root."""
    nonzero = [f for f in forms if not f.is_zero()]
    # the direction [1:0] (y = 0): every form must kill its pure x power
    if all(f.coefficient((f.total_degree(), 0)) == 0 for f in nonzero):
        return True
    # a nonzero binary form has a nonzero dehomogenization, so the gcd below
    # is a plain univariate computation
    return not _gcd_fold([_dehomogenize(f) for f in nonzero]).is_constant()


def _smooth_at_infinity(p: ExactPoly) -> tuple[str, str | None]:
    """Decide smoothness of the projective closure along the line at infinity."""
    n = p.total_degree()
    top = _homogeneous_part(p, n)
    if _binary_squarefree(top, n):
        return PASS, None
    # repeated directions are the common roots of the two partials of the
    # leading form; the point is singular iff the next homogeneous part
    # also vanishes there.
    forms = [poly_diff(top, "x"), poly_diff(top, "y"), _homogeneous_part(p, n - 1)]
    if _binary_forms_common_root(forms):
        return FAIL, f"singular direction at infinity of {top}"
    return PASS, None


def _verify_affine_point_candidates(g: ExactPoly, system: list[ExactPoly]) -> str | None:
    """Check rational roots of g for genuine common solutions of the system.

    Returns a witness for the first root that is one, else None; system
    entries are bivariate, specialised at each candidate x-value.  The first
    entry keeps its pure y^deg term (`_keeps_top_y`), so its specialisation
    is never zero.
    """
    for x0 in rational_roots(g):
        x0_poly = ExactPoly.const(XY, x0)
        specialised = [poly_substitute(p, {"x": x0_poly, "y": ExactPoly.variable(XY, "y")})
                       for p in system]
        if not _gcd_fold(specialised).is_constant():
            return f"common point over x = {x0}"
    return None


def _curve_smooth_verdict(p: ExactPoly, seed: int = DEFAULT_SEED) -> tuple[str, str | None]:
    if p.is_zero() or p.is_constant():
        raise ValueError("smoothness check requires a non-constant polynomial")
    infinity_verdict, infinity_witness = _smooth_at_infinity(p)
    if infinity_verdict == FAIL:
        return FAIL, infinity_witness

    # Every shear ps is now smooth at infinity (a shear fixes that line):
    # * u != 0: else ps and py share an irreducible g with g_y != 0; with
    #   ps = g^k r, g not dividing r, g | py = k g^(k-1) g_y r + g^k r_y
    #   forces k >= 2, and the points at infinity of g = 0 are singular;
    # * px = 0 only on a line y = c: an x-free curve of degree n >= 2 has
    #   leading form c*y^n and is singular at [1:0:0].  u is then constant.
    last_witness = None
    for s, (ps,) in _valid_shears((p,), seed):
        px = poly_diff(ps, "x")
        py = poly_diff(ps, "y")
        u = resultant(ps, py, "y")
        v = resultant(ps, px, "y") if px else px
        g = u if v.is_zero() else gcd_univariate(u, v)
        if g.is_constant():
            return PASS, None
        witness = _verify_affine_point_candidates(g, [ps, px, py])
        if witness is not None:
            return FAIL, f"singular point: {witness}"
        last_witness = str(g)
    return INCONCLUSIVE, f"unseparated singular-point candidates {last_witness}"


def curve_smooth_check(p: ExactPoly, seed: int = DEFAULT_SEED) -> bool:
    """True iff the plane curve p = 0 is certified smooth, affinely and at infinity."""
    return _curve_smooth_verdict(p, seed)[0] == PASS


# -- triple points ------------------------------------------------------------

def _triple_verdicts(curves: dict[str, ExactPoly], seed: int
                     ) -> dict[tuple[str, ...], tuple[str, str | None]]:
    """Verdict and witness of every triple of the named non-constant curves.

    One walk of the shear sequence serves all triples: at each shear, every
    curve of a still undecided triple is sheared once, and the resultant of
    each pair (a, b), a before b, is computed once for every triple it
    serves.  A shear is tried on a triple only if it is valid for its three
    curves, so each triple sees the shears it would see alone.
    """
    undecided = dict.fromkeys(combinations(curves, 3))   # triple -> last witness
    verdicts: dict[tuple[str, ...], tuple[str, str | None]] = {}
    for s in _shear_values(seed):
        needed = {name for triple in undecided for name in triple}
        sheared = {name: shear(poly, s) for name, poly in curves.items() if name in needed}
        resultants: dict[tuple[str, str], ExactPoly] = {}
        for triple in list(undecided):
            polys = [sheared[name] for name in triple]
            if not _keeps_top_y(polys):
                continue
            a, b, c = triple
            for pair in ((a, b), (a, c)):
                if pair not in resultants:
                    resultants[pair] = resultant(sheared[pair[0]], sheared[pair[1]], "y")
            res_ab, res_ac = resultants[a, b], resultants[a, c]
            if res_ab.is_zero() or res_ac.is_zero():
                verdicts[triple] = FAIL, "two of the three curves share a component"
            elif (g := gcd_univariate(res_ab, res_ac)).is_constant():
                verdicts[triple] = PASS, None
            elif (witness := _verify_affine_point_candidates(g, polys)) is not None:
                verdicts[triple] = FAIL, f"triple point: {witness}"
            else:
                undecided[triple] = str(g)
                continue
            del undecided[triple]
    for triple, last_witness in undecided.items():
        verdicts[triple] = INCONCLUSIVE, f"unseparated triple-point candidates {last_witness}"
    return verdicts


def no_triple_check(p: ExactPoly, q: ExactPoly, r: ExactPoly,
                    seed: int = DEFAULT_SEED) -> bool:
    """True iff the three curves are certified to have empty common intersection."""
    curves = {"p": p, "q": q, "r": r}
    for label, poly in curves.items():
        if poly.is_zero() or poly.is_constant():
            raise ValueError(f"{label} must be a non-constant polynomial")
    return _triple_verdicts(curves, seed)["p", "q", "r"][0] == PASS


# -- line and infinity dispositions -------------------------------------------

def _on_axis(p: ExactPoly) -> ExactPoly:
    """Restriction p(x, 0), univariate in x: the terms free of y."""
    return truncate_below(p, "y", 1)


def _line_y0_verdict(surf: SurfacePair) -> tuple[str, str | None]:
    partials = dict(zip(("Rx", "Ry", "Sx", "Sy"), surf.partials()))
    # SurfacePair requires the x^d term, so R(x, 0) keeps the degree of R
    for poly, label in ((surf.r, "R"), (surf.s, "S")):
        restricted = _on_axis(poly)
        if not squarefree_univariate(restricted):
            return FAIL, f"{label}(x,0) has a multiple root"
        for name, derivative in partials.items():
            g = gcd_univariate(restricted, _on_axis(derivative))
            if not g.is_constant():
                return FAIL, f"{name} vanishes on a root of {label}(x,0): gcd {g}"
    return PASS, None


def line_y0_disposition_check(surf: SurfacePair) -> bool:
    """True iff y = 0 meets both curves simply, away from all partial-derivative zeros."""
    return _line_y0_verdict(surf)[0] == PASS


def _axis_ox_verdict(surf: SurfacePair) -> tuple[str, str | None]:
    g = gcd_univariate(_on_axis(surf.r), _on_axis(surf.s))
    if g.is_constant():
        return PASS, None
    return FAIL, f"common curve point on the axis: gcd {g}"


def axis_ox_disposition_check(surf: SurfacePair) -> bool:
    """True iff no intersection point of R = 0 and S = 0 lies on the axis y = 0."""
    return _axis_ox_verdict(surf)[0] == PASS


def _infinity_verdict(surf: SurfacePair) -> tuple[str, str | None]:
    top_r = _homogeneous_part(surf.r, surf.d)
    top_s = _homogeneous_part(surf.s, surf.e)
    # SurfacePair requires the x^d and y^d terms, so neither axis direction
    # is a root of a leading form
    for form, degree, label in ((top_r, surf.d, "R"), (top_s, surf.e, "S")):
        if not _binary_squarefree(form, degree):
            return FAIL, f"leading form of {label} not squarefree: {form}"
    if _binary_forms_common_root([top_r, top_s]):
        return FAIL, "leading forms share a projective root (intersection at infinity)"
    return PASS, None


def infinity_disposition_check(surf: SurfacePair) -> bool:
    """True iff all R-S intersections are affine and both curves meet infinity simply."""
    return _infinity_verdict(surf)[0] == PASS


# -- the full audit -----------------------------------------------------------

SIX_CURVE_NAMES = ("R", "Rx", "Ry", "S", "Sx", "Sy")


def _six_curves(surf: SurfacePair) -> dict[str, ExactPoly]:
    rx, ry, sx, sy = surf.partials()
    return {"R": surf.r, "Rx": rx, "Ry": ry, "S": surf.s, "Sx": sx, "Sy": sy}


@dataclass(frozen=True)
class GenericityReport:
    """Aggregated audit: mandatory checks gate the pipeline, optional ones inform."""

    seed: int
    checks: tuple[CheckResult, ...]
    optional_checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)

    @property
    def verdict(self) -> str:
        if any(c.verdict == FAIL for c in self.checks):
            return FAIL
        if any(c.verdict == INCONCLUSIVE for c in self.checks):
            return INCONCLUSIVE
        return PASS

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if c.verdict != PASS]

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "verdict": self.verdict,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "optional_checks": [c.to_json_dict() for c in self.optional_checks],
        }


def full_genericity_audit(surf: SurfacePair, seed: int = DEFAULT_SEED) -> GenericityReport:
    """Run every generic-position check on the surface pair.

    Mandatory: smoothness of both curves, the 15 pairwise transversality
    checks among the six curves, the 20 triple-emptiness checks, and the
    three special-line dispositions.  Optional (reported, not gating):
    transversality of each of the six curves with the line at infinity.
    """
    curves = _six_curves(surf)
    checks: list[CheckResult] = []

    for label, poly in (("R", surf.r), ("S", surf.s)):
        verdict, witness = _curve_smooth_verdict(poly, seed)
        checks.append(CheckResult(f"smooth_{label}", verdict, witness, shear_seed=seed))

    for (idx_a, a), (idx_b, b) in combinations(enumerate(SIX_CURVE_NAMES), 2):
        name = f"pair_{a}_{b}"
        pair_seed = seed + idx_a * 16 + idx_b
        if curves[a].is_constant() or curves[b].is_constant():
            checks.append(CheckResult(name, INCONCLUSIVE, "constant curve"))
            continue
        report = pair_transversality_check(curves[a], curves[b], seed=pair_seed)
        checks.append(CheckResult(
            name, report.verdict, report.witness,
            shear_used=None if report.shear_used is None else str(report.shear_used),
            shear_seed=pair_seed))

    triples = _triple_verdicts({name: poly for name, poly in curves.items()
                                if not poly.is_constant()}, seed + 997)
    for triple in combinations(SIX_CURVE_NAMES, 3):
        name = "triple_" + "_".join(triple)
        if triple in triples:
            checks.append(CheckResult(name, *triples[triple], shear_seed=seed + 997))
        else:
            checks.append(CheckResult(name, INCONCLUSIVE, "constant curve"))

    verdict, witness = _line_y0_verdict(surf)
    checks.append(CheckResult("line_y0_disposition", verdict, witness))
    verdict, witness = _axis_ox_verdict(surf)
    checks.append(CheckResult("axis_ox_disposition", verdict, witness))
    verdict, witness = _infinity_verdict(surf)
    checks.append(CheckResult("infinity_disposition", verdict, witness))

    optional: list[CheckResult] = []
    for label, poly in curves.items():
        degree = poly.total_degree()
        if not isinstance(degree, int) or degree < 1:
            optional.append(CheckResult(f"infinity_transversal_{label}",
                                        INCONCLUSIVE, "constant curve"))
            continue
        top = _homogeneous_part(poly, degree)
        if _binary_squarefree(top, degree):
            optional.append(CheckResult(f"infinity_transversal_{label}", PASS, None))
        else:
            optional.append(CheckResult(f"infinity_transversal_{label}", FAIL, str(top)))

    return GenericityReport(seed=seed, checks=tuple(checks),
                            optional_checks=tuple(optional))
