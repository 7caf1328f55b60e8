"""Audits of the generic-position hypotheses on a surface pair.

Every check here certifies (or refutes, or honestly declines to decide) a
finite transversality/simplicity condition on the six plane curves R, R_x,
R_y, S, S_x, S_y: pairwise transversal intersections with the full product
count of simple affine points, no triple points, smoothness, and the
dispositions along the line y = 0 and the line at infinity.

The certificates are resultant-based.  A pair check passes at once when
the eliminating resultant of a sheared copy of the pair has exact degree
deg(p)*deg(q) and is squarefree; shears x -> x + s*y with seeded rational s
(numerator and denominator bounded by 97) separate accidental coincidences
of x-coordinates.  Every other affine question is whether three curves
share a point, and one route, ``_common_point_verdict``, answers it: for a
curve and its two partials (smoothness), for each triple of the six curves,
and for a pair and its Jacobian when the pair's resultant stays
non-squarefree.

Failures are declared only on an algebraic witness: a zero resultant or a
degree deficiency of a pair, a disposition at infinity, on the axis or on
y = 0, or a rational common point, which names the shear it was found
under so that substitution rechecks it.  A candidate that no attempted
shear decides is reported as inconclusive, never silently passed.  Every
gcd is exact: ``polyring.gcd_univariate`` joins modular images by CRT and
proves its result by exact division, or by an image of degree 0 when the
gcd is 1, so no verdict depends on an unlucky prime.  No rational root
candidate is missed: ``polyring.rational_roots`` is complete.

One audit keeps one ``_ShearTable``: each curve is sheared at most once per
shear value and each pair's resultant formed at most once, and the
smoothness, pair and triple checks all read them from it.  A check called
on its own builds a table of its own, so sharing changes no verdict.
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


def _x_image(s: Fraction | int) -> ExactPoly:
    return ExactPoly(XY, {(1, 0): Fraction(1), (0, 1): Fraction(s)})


def shear(p: ExactPoly, s: Fraction | int) -> ExactPoly:
    """The coordinate change x -> x + s*y; total degree is preserved."""
    return poly_substitute(p, {"x": _x_image(s)})


def _shear_values(seed: int) -> Iterator[Fraction]:
    """The identity shear, then distinct seeded random rationals (|num|, den <= 97).

    The generator is seeded only when a caller asks for a value past the
    identity, which decides most checks.
    """
    values = [Fraction(0)]
    yield values[0]
    rng = random.Random(seed)
    while len(values) < MAX_SHEAR_ATTEMPTS:
        s = Fraction(rng.randint(1, 97) * rng.choice((1, -1)), rng.randint(1, 97))
        if s not in values:
            values.append(s)
            yield s


def _keeps_top_y(p: ExactPoly) -> bool:
    """True iff p keeps its pure y^deg term: the shear that gave p is valid for it."""
    return p.coefficient((0, p.total_degree())) != 0


class _ShearTable:
    """The named curves of one audit, each sheared and each pair eliminated once.

    `sheared(name, s)` is shear(curve, s), and `resultant(a, b, s)` the
    y-resultant of the sheared curves a and b; each is formed at most once
    per shear value.  Callers name a pair in the order of the table's curves
    (SIX_CURVE_NAMES in an audit), the orientation every check uses.  A
    table lives for one audit and is never shared beyond it.
    """

    def __init__(self, curves: dict[str, ExactPoly]):
        self.curves = dict(curves)
        self._sheared: dict[tuple[str, Fraction], ExactPoly] = {}
        self._resultants: dict[tuple[str, str, Fraction], ExactPoly] = {}

    def sheared(self, name: str, s: Fraction) -> ExactPoly:
        key = name, s
        if key not in self._sheared:
            self._sheared[key] = shear(self.curves[name], s)
        return self._sheared[key]

    def resultant(self, a: str, b: str, s: Fraction) -> ExactPoly:
        key = a, b, s
        if key not in self._resultants:
            self._resultants[key] = resultant(self.sheared(a, s), self.sheared(b, s), "y")
        return self._resultants[key]

    def valid_shears(self, names: tuple[str, ...], seed: int) -> Iterator[Fraction]:
        """Each seeded shear under which every named curve stays valid."""
        return (s for s in _shear_values(seed)
                if all(_keeps_top_y(self.sheared(name, s)) for name in names))


def _gcd_fold(polys: list[ExactPoly]) -> ExactPoly:
    """The gcd of the nonzero polys, of which there must be at least one."""
    return reduce(gcd_univariate, [p for p in polys if not p.is_zero()])


# -- common points ------------------------------------------------------------

def _under(s: Fraction) -> str:
    """The witness suffix that names a non-identity shear."""
    return f" under x -> {_x_image(s)}" if s else ""


def _common_point_verdict(table: _ShearTable, names: tuple[str, str, str], seed: int,
                          label: str) -> tuple[str, str | None, Fraction | None]:
    """Verdict, witness and deciding shear of: do the curves a, b, c share an affine point?

    The one route of every such question of the audit; each rule is a proof.

    * Only a must be valid: the walk takes ``valid_shears((a,), seed)``.
      Once a keeps its pure y^deg term, res_y(a, b) vanishes at the x of
      every common point of a and b, so b and c need no validity check.
    * A nonzero constant curve meets nothing: PASS, at no shear.  A zero
      curve adds no condition, and a zero resultant (a shares a component
      with that curve, under every shear) bounds nothing: both are left
      out.  With nothing left the route declines: INCONCLUSIVE.
    * g is the gcd of the resultants left of res(a, b) and res(a, c), in
      that order.  Every common point lies over a root of g, so a constant
      g proves there is none: PASS.  A rational root x0 of g over which the
      three sheared curves share a y-root is a common point: FAIL, with x0
      and the shear.  Otherwise the next shear is tried; after the last,
      INCONCLUSIVE with the last g, monic, as the unseparated candidates.
    """
    if any(table.curves[name].is_constant() and not table.curves[name].is_zero()
           for name in names):
        return PASS, None, None
    a = names[0]
    others = [name for name in names[1:] if not table.curves[name].is_zero()]
    g = None
    for s in table.valid_shears((a,), seed):
        resultants = [table.resultant(a, name, s) for name in others]
        if all(res.is_zero() for res in resultants):
            return INCONCLUSIVE, "resultants identically zero (shared components)", s
        g = _gcd_fold(resultants)
        if g.is_constant():
            return PASS, None, s
        for x0 in rational_roots(g):
            at_x0 = {"x": ExactPoly.const(XY, x0)}
            # a keeps its y^deg term, so its fibre over x0 is nonzero
            fibres = [poly_substitute(table.sheared(name, s), at_x0) for name in (a, *others)]
            if not _gcd_fold(fibres).is_constant():
                return FAIL, f"{label}: common point over x = {x0}{_under(s)}", s
    if g is None:
        return INCONCLUSIVE, "degenerate leading forms under all shears", None
    # g and s are the last shear's; the label reads as a compound
    # modifier: "triple-point candidates"
    return (INCONCLUSIVE, f"unseparated {label.replace(' ', '-')} candidates "
            f"{g.scale(1 / g.leading_term()[1])}{_under(s)}", s)


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

    passed is verdict == PASS: p = 0 and q = 0 meet in deg(p)*deg(q) simple
    affine points.  squarefree says whether that was proved by a resultant
    of full degree that is squarefree; otherwise (False) by the common
    point route on p, q and their Jacobian.  shear_used is the shear at
    which the verdict was decided, None if none was.
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
        return self.verdict == PASS


def pair_transversality_check(p: ExactPoly, q: ExactPoly, seed: int = DEFAULT_SEED, *,
                              shared: tuple[_ShearTable, str, str] | None = None
                              ) -> IntersectionReport:
    """Certify that p = 0 and q = 0 meet in exactly deg(p)*deg(q) simple affine points.

    Each valid shear of the pair is tried in turn: a zero resultant (a
    common component) or one of degree below deg(p)*deg(q) (points at
    infinity) fails, and a squarefree one of full degree passes.  If none
    is squarefree, every intersection point is affine, and it is simple iff
    the Jacobian p_x q_y - p_y q_x does not vanish there: the common point
    route decides p, q and the Jacobian.

    `shared` is an audit's shear table with the names it holds p and q
    under, p first; without it the check shears in a table of its own.
    """
    for poly, label in ((p, "p"), (q, "q")):
        if poly.is_zero() or poly.is_constant():
            raise ValueError(f"{label} must be a non-constant polynomial")
    product = p.total_degree() * q.total_degree()
    report = partial(IntersectionReport, degree_product=product, resultant_degree=product,
                     squarefree=False, all_affine=True)
    table, a, b = shared or (_ShearTable({"p": p, "q": q}), "p", "q")
    s = None
    for s in table.valid_shears((a, b), seed):
        res = table.resultant(a, b, s)
        if res.is_zero():
            return report(resultant_degree=-1, all_affine=False, shear_used=s, verdict=FAIL,
                          witness="resultant identically zero (common factor)")
        rdeg = res.total_degree()
        if rdeg < product:
            # degree deficiency = intersection at the line at infinity;
            # invariant under shears with nondegenerate leading forms.
            return report(resultant_degree=rdeg, all_affine=False, shear_used=s, verdict=FAIL,
                          witness=f"resultant degree {rdeg} < {product} (points at infinity)")
        if squarefree_univariate(res):
            return report(resultant_degree=rdeg, squarefree=True, shear_used=s, verdict=PASS)
    if s is None:
        return report(shear_used=None, verdict=INCONCLUSIVE,
                      witness="degenerate leading forms under all shears")
    jacobian = f"jacobian_{a}_{b}"
    table.curves[jacobian] = (poly_diff(p, "x") * poly_diff(q, "y")
                              - poly_diff(p, "y") * poly_diff(q, "x"))
    verdict, witness, s = _common_point_verdict(table, (a, b, jacobian), seed,
                                                "multiple intersection")
    return report(shear_used=s, verdict=verdict, witness=witness)


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


def _curve_smooth_verdict(p: ExactPoly, seed: int = DEFAULT_SEED, *,
                          shared: tuple[_ShearTable, str] | None = None
                          ) -> tuple[str, str | None]:
    """Smoothness verdict and witness of the curve p = 0.

    `shared` is an audit's shear table with the name N it holds p under,
    and p_x, p_y under Nx, Ny; without it the check builds its own.
    """
    if p.is_zero() or p.is_constant():
        raise ValueError("smoothness check requires a non-constant polynomial")
    infinity_verdict, infinity_witness = _smooth_at_infinity(p)
    if infinity_verdict == FAIL:
        return FAIL, infinity_witness

    # The affine singular points of a shear ps are the common zeros of ps,
    # shear(p_y) and shear(p_x): by the chain rule ps_x = shear(p_x) and
    # ps_y = shear(p_y) + s*shear(p_x).  The route forms u = res(ps,
    # shear(p_y)) and v = res(ps, shear(p_x)); as p is now smooth at
    # infinity (a shear fixes that line):
    # * u = 0 only if p has a component free of y: a component g with
    #   p = g^k r, g not dividing r, divides p_y = k g^(k-1) g_y r + g^k r_y
    #   only if k >= 2 (then the points at infinity of g = 0 are singular)
    #   or g_y = 0.  Likewise v = 0 only for a component free of x.
    # * An audited curve keeps its x^d and y^d terms, so neither happens.
    #   A curve with both, such as x*y, is singular where the two lines
    #   cross; the route reads it inconclusive.
    # * p_x = 0 or p_y = 0 only on a line y = c or x = c (a curve free of x
    #   or of y of degree >= 2 is singular at infinity), whose other partial
    #   is a nonzero constant: a pass.
    table, name = shared or (_ShearTable({"p": p, "px": poly_diff(p, "x"),
                                          "py": poly_diff(p, "y")}), "p")
    return _common_point_verdict(table, (name, name + "y", name + "x"), seed,
                                 "singular point")[:2]


# -- triple points ------------------------------------------------------------

def _triple_verdicts(curves: dict[str, ExactPoly], seed: int, *,
                     shared: _ShearTable | None = None
                     ) -> dict[tuple[str, ...], tuple[str, str | None]]:
    """Verdict and witness of every triple of the named non-constant curves.

    Each triple (a, b, c), in the order of `curves`, is one call of the
    common point route, which walks the shears valid for a.  Every sheared
    curve and pair resultant comes from one shear table: `shared`, an
    audit's table holding the curves under the same names, or else a table
    of their own.
    """
    table = _ShearTable(curves) if shared is None else shared
    return {triple: _common_point_verdict(table, triple, seed, "triple point")[:2]
            for triple in combinations(curves, 3)}


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


def _axis_ox_verdict(surf: SurfacePair) -> tuple[str, str | None]:
    g = gcd_univariate(_on_axis(surf.r), _on_axis(surf.s))
    if g.is_constant():
        return PASS, None
    return FAIL, f"common curve point on the axis: gcd {g}"


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
    table = _ShearTable(curves)
    checks: list[CheckResult] = []

    for label in ("R", "S"):
        verdict, witness = _curve_smooth_verdict(curves[label], seed, shared=(table, label))
        checks.append(CheckResult(f"smooth_{label}", verdict, witness, shear_seed=seed))

    for (idx_a, a), (idx_b, b) in combinations(enumerate(SIX_CURVE_NAMES), 2):
        name = f"pair_{a}_{b}"
        pair_seed = seed + idx_a * 16 + idx_b
        if curves[a].is_constant() or curves[b].is_constant():
            checks.append(CheckResult(name, INCONCLUSIVE, "constant curve"))
            continue
        report = pair_transversality_check(curves[a], curves[b], seed=pair_seed,
                                           shared=(table, a, b))
        checks.append(CheckResult(
            name, report.verdict, report.witness,
            shear_used=None if report.shear_used is None else str(report.shear_used),
            shear_seed=pair_seed))

    triples = _triple_verdicts({name: poly for name, poly in curves.items()
                                if not poly.is_constant()}, seed + 997, shared=table)
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
