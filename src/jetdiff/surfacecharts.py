"""Algebraic verification of the holomorphy bookkeeping on the surface.

Three families of exact identities are checked here, all as bit-exact
polynomial equalities with denominators cleared by cross-multiplication
(no rational-function type exists anywhere in the package):

* surface restriction: realising the jet (jetbuilder.JetContext) with the
  slots R -> z^d, R' -> d z^(d-1) z' (and the t-analogues for S) makes it
  exactly divisible by z^(m(d-1)) t^(m(e-1));

* chart transfer: under the substitution x -> 1/x1, y -> y1/x1 (or the
  mirrored 1/y chart) the derivative combination x'R_x + y'R_y transfers to
  -x1' d R1 / x1^(d+1) + R1' / x1^d with R1(x1,y1) = x1^d R(1/x1, y1/x1),
  and the whole jet differential, realised with these chart slots, factors
  as x1^(c-a-4m) times a polynomial;

* exponent bookkeeping: the residual chart exponent
  a - (h+i) + 2m - (2j+2k+p+q) is non-negative on the whole admissible
  index grid, and the global prefactor exponent c-a-4m decides holomorphy
  (>= 0) and vanishing (>= 1) along the hyperplane at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jetbuilder import (
    JET_VARS,
    XY,
    CoefficientField,
    IndexTuple,
    JetContext,
    JetSpec,
    SurfacePair,
    build_jet,
    validate_field,
)
from .polyring import ExactPoly, VarSet, monomial_quotient, poly_diff

SURFACE_VARS = VarSet(("x", "y", "z", "t", "x'", "y'", "z'", "t'"))
CHART_VARS = VarSet(("x1", "y1", "x1'", "y1'"))

INV_X = "inv_x"
INV_Y = "inv_y"
CHARTS = (INV_X, INV_Y)


def surface_context(surf: SurfacePair) -> JetContext:
    """The jet context with the surface slots.

    R -> z^d, R' -> d z^(d-1) z', S -> t^e, S' -> e t^(e-1) t', over
    SURFACE_VARS.
    """
    d, e = surf.d, surf.e
    xp, yp, z, t, zp, tp = (ExactPoly.variable(SURFACE_VARS, name)
                            for name in ("x'", "y'", "z", "t", "z'", "t'"))
    return JetContext(surf, (xp, yp, z ** d, (z ** (d - 1) * zp).scale(d),
                             t ** e, (t ** (e - 1) * tp).scale(e)))


def restrict_to_surface(field: CoefficientField, surf: SurfacePair, spec: JetSpec,
                        ctx: JetContext | None = None) -> tuple[ExactPoly, bool]:
    """Realise the jet with the surface slots and divide.

    The jet is realised in `surface_context(surf)`, or in ctx when given,
    and divided by z^(m(d-1)) t^(m(e-1)).  The per-term exponent identity
    m*d - p >= m(d-1) (as p <= m) makes the division exact for every
    well-formed input; exact = False signals an implementation bug.  A field
    that does not match the spec raises ValueError, as in `build_jet`.
    """
    validate_field(field, spec)
    d, e, m = surf.d, surf.e, spec.m
    substituted = (surface_context(surf) if ctx is None else ctx).realize(field)
    quotient, exact_z = monomial_quotient(substituted, "z", m * (d - 1))
    quotient, exact_t = monomial_quotient(quotient, "t", m * (e - 1))
    return quotient, exact_z and exact_t


# -- chart transfer -----------------------------------------------------------

def _chart(chart: str) -> tuple[ExactPoly, ExactPoly, ExactPoly, ExactPoly]:
    """The chart map: (u, u', image of x', image of y'), u the inverted coordinate.

    inv_x is x -> 1/x1, y -> y1/x1 (u = x1); inv_y is x -> x1/y1, y -> 1/y1
    (u = y1).  The images of x' and y' are their numerators over u^2.
    """
    x1, y1, x1p, y1p = (ExactPoly.variable(CHART_VARS, name) for name in CHART_VARS.names)
    if chart == INV_X:
        return x1, x1p, -x1p, x1 * y1p - y1 * x1p
    if chart == INV_Y:
        return y1, y1p, y1 * x1p - x1 * y1p, -y1p
    raise ValueError(f"chart must be one of {CHARTS}, got {chart!r}")


def _chart_polynomial(p: ExactPoly, degree: int, chart: str) -> ExactPoly:
    """u^degree * p under the chart map, for p over (x, y) or over JET_VARS.

    degree bounds the (x, y)-degree of p; a jet polynomial is cleared by a
    further u^2 per x' or y', the denominator of their images.
    """
    plane_degree = max((e[0] + e[1] for e in p.num), default=0)
    if plane_degree > degree:
        raise ValueError(f"degree {degree} too small for a polynomial of degree {plane_degree}")
    u, _, xp_image, yp_image = _chart(chart)
    slot = CHART_VARS.index(u.used_variables()[0])

    def plane(e: tuple[int, ...]) -> tuple[int, int, int, int]:
        image = [e[0], e[1], 0, 0]
        image[slot] = degree - e[0] - e[1]
        return tuple(image)

    if p.vars == XY:
        return p.map_exponents(CHART_VARS, plane)
    # one group of integer numerators per (x', y') exponent pair
    groups: dict[tuple[int, ...], dict] = {}
    for e, coeff in p.num.items():
        groups.setdefault(e[2:], {})[plane(e)] = coeff
    result = ExactPoly.zero(CHART_VARS)
    for (cx, cy), num in groups.items():
        result = result + ExactPoly(CHART_VARS, num) * (xp_image ** cx * yp_image ** cy)
    return result.scale(Fraction(1, p.den))


def _chart_derivative(p: ExactPoly, degree: int, chart: str) -> ExactPoly:
    """The bracket -degree * u' * P1 + u * (x1'P1_x1 + y1'P1_y1), P1 the chart polynomial of p."""
    u, u_prime, _, _ = _chart(chart)
    p1 = _chart_polynomial(p, degree, chart)
    p1_prime = (ExactPoly.variable(CHART_VARS, "x1'") * poly_diff(p1, "x1")
                + ExactPoly.variable(CHART_VARS, "y1'") * poly_diff(p1, "y1"))
    return (u_prime * p1).scale(-degree) + u * p1_prime


def _residual(spec: JetSpec, t: IndexTuple, h: int, i: int) -> int:
    """The chart exponent a - (h+i) + 2m - (2j+2k+p+q) of the term x^h y^i of A[t]."""
    j, k, p, q = t
    return spec.a - (h + i) + 2 * spec.m - (2 * j + 2 * k + p + q)


def verify_derivative_transfer(r: ExactPoly, d: int, chart: str) -> bool:
    """Bit-exact check of the chart identity for x'R_x + y'R_y.

    With denominators cleared by u^(d+1) (u the inverted coordinate), the
    substituted combination must equal -u' * d * R1 + u * (x1'R1_x1 + y1'R1_y1)
    where R1 is the chart polynomial of R.
    """
    if r.total_degree() != d:
        raise ValueError(f"declared degree {d} does not match deg R = {r.total_degree()}")
    w = (ExactPoly.variable(JET_VARS, "x'") * poly_diff(r, "x").extend_to(JET_VARS)
         + ExactPoly.variable(JET_VARS, "y'") * poly_diff(r, "y").extend_to(JET_VARS))
    return _chart_polynomial(w, d - 1, chart) == _chart_derivative(r, d, chart)


@dataclass(frozen=True)
class InfinityExponentReport:
    """Exactness of the chart exponent bookkeeping for one parameter choice.

    residuals_ok and residual_min cover the per-index exponents over the
    whole grid; they are always True and 0.  The prefactor exponent c-a-4m
    decides holomorphy and vanishing along the hyperplane at infinity.
    witness is an index tuple (j,k,p,q,h,i) whose total chart exponent is
    negative, present exactly when the boxed bound a <= c-4m fails.
    """

    m: int
    c: int
    a: int
    residuals_ok: bool
    residual_min: int
    prefactor_exponent: int
    holomorphic_at_infinity: bool
    vanishes_at_infinity: bool
    witness: tuple[int, int, int, int, int, int] | None

    @property
    def passed(self) -> bool:
        return self.residuals_ok and self.holomorphic_at_infinity


def verify_infinity_exponents(spec: JetSpec) -> InfinityExponentReport:
    """The chart exponents over the admissible index grid, in closed form.

    Each residual a - (h+i) + 2m - (2j+2k+p+q) is >= 0, as h + i <= a and
    2j+2k+p+q = m+j+k <= 2m, and is 0 at (m,0,0,0,a,0).  So the least
    total exponent is c-a-4m, and when it is negative that index is a witness.
    """
    margin = spec.infinity_margin
    return InfinityExponentReport(
        m=spec.m, c=spec.c, a=spec.a,
        residuals_ok=True, residual_min=0,
        prefactor_exponent=margin,
        holomorphic_at_infinity=spec.holomorphic_at_infinity,
        vanishes_at_infinity=margin >= 1,
        witness=(spec.m, 0, 0, 0, spec.a, 0) if margin < 0 else None,
    )


@dataclass(frozen=True)
class TransferResult:
    """The fully transferred jet differential in one chart at infinity."""

    chart: str
    transferred: ExactPoly        # polynomial in (x1, y1, x1', y1')
    prefactor_exponent: int       # c - a - 4m
    residual_min: int
    identity_ok: bool             # cross-multiplied reconstruction identity


def chart_context(surf: SurfacePair, chart: str) -> JetContext:
    """The jet context with the slots of one chart at infinity, over CHART_VARS.

    x' and y' map to the numerators of their images, R and S to their chart
    polynomials, R' and S' to u times their chart brackets.
    """
    u, _, xp_image, yp_image = _chart(chart)
    return JetContext(surf, (
        xp_image, yp_image,
        _chart_polynomial(surf.r, surf.d, chart), u * _chart_derivative(surf.r, surf.d, chart),
        _chart_polynomial(surf.s, surf.e, chart), u * _chart_derivative(surf.s, surf.e, chart)))


def full_chart_transfer(field: CoefficientField, surf: SurfacePair, spec: JetSpec,
                        chart: str = INV_X, ctx: JetContext | None = None,
                        jet: ExactPoly | None = None) -> TransferResult:
    """Transfer the jet differential through the 1/x or 1/y chart change.

    Returns the polynomial factor that multiplies u^(c-a-4m) (u the inverted
    coordinate) in the transferred differential, and verifies against the
    directly substituted jet that u^(a+dm+em+2m) * (substituted J) equals the
    returned polynomial, bit-exactly.  ctx, when given, is
    `chart_context(surf, chart)`, shared with other calls, and jet is the
    field's J (`build_jet`), the direct side.
    """
    if not spec.holomorphic_at_infinity:
        raise ValueError(f"chart transfer requires a <= c - 4m, got a={spec.a}, "
                         f"c={spec.c}, m={spec.m}")
    validate_field(field, spec)
    d, e, m, a = surf.d, surf.e, spec.m, spec.a
    # The per-term residual equals (a - h - i) + (p + q) because j+k+p+q = m:
    # the first part is the chart polynomial of A at degree a, the second
    # rides on the R' and S' slots.
    residual_min = min((_residual(spec, t, h, i)
                        for t, a_poly in field.items() for (h, i) in a_poly.num), default=0)
    transferred = (chart_context(surf, chart) if ctx is None else ctx).realize(
        field, lambda a_poly: _chart_polynomial(a_poly, a, chart))
    direct = _chart_polynomial(build_jet(field, surf, spec) if jet is None else jet,
                               a + d * m + e * m, chart)
    return TransferResult(
        chart=chart,
        transferred=transferred,
        prefactor_exponent=spec.infinity_margin,
        residual_min=residual_min,
        identity_ok=direct == transferred,
    )
