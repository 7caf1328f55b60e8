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
    CoefficientField,
    JetContext,
    JetSpec,
    SurfacePair,
    build_jet,
    index_tuples,
    monomials_upto,
    validate_field,
)
from .polyring import ExactPoly, VarSet, monomial_quotient, poly_diff, poly_substitute

SURFACE_VARS = VarSet(("x", "y", "z", "t", "x'", "y'", "z'", "t'"))
CHART_VARS = VarSet(("x1", "y1", "x1'", "y1'"))
HOMOGENEOUS_VARS = VarSet(("U", "X", "Y", "Z", "T"))

INV_X = "inv_x"
INV_Y = "inv_y"


def restrict_to_surface(field: CoefficientField, surf: SurfacePair,
                        spec: JetSpec) -> tuple[ExactPoly, bool]:
    """Realise the jet with the surface slots and divide.

    R -> z^d, R' -> d z^(d-1) z', S -> t^e, S' -> e t^(e-1) t'; the result is
    divided by z^(m(d-1)) t^(m(e-1)).  The per-term exponent identity
    m*d - p >= m(d-1) (as p <= m) makes the division exact for every
    well-formed input; exact = False signals an implementation bug.  A field
    that does not match the spec raises ValueError, as in `build_jet`.
    """
    validate_field(field, spec)
    d, e, m = surf.d, surf.e, spec.m
    xp, yp, z, t, zp, tp = (ExactPoly.variable(SURFACE_VARS, name)
                            for name in ("x'", "y'", "z", "t", "z'", "t'"))
    slots = (xp, yp, z ** d, (z ** (d - 1) * zp).scale(d), t ** e, (t ** (e - 1) * tp).scale(e))
    substituted = JetContext(surf, slots).realize(field)
    quotient, exact_z = monomial_quotient(substituted, "z", m * (d - 1))
    quotient, exact_t = monomial_quotient(quotient, "t", m * (e - 1))
    return quotient, exact_z and exact_t


# -- chart transfer -----------------------------------------------------------

def _chart_polynomial(p: ExactPoly, degree: int, chart: str) -> ExactPoly:
    """x1^degree * p(1/x1, y1/x1) for inv_x, y1^degree * p(x1/y1, 1/y1) for inv_y."""
    if p.total_degree() > degree:
        raise ValueError(f"degree {degree} too small for a polynomial of degree "
                         f"{p.total_degree()}")
    if chart == INV_X:
        return p.map_exponents(CHART_VARS, lambda e: (degree - e[0] - e[1], e[1], 0, 0))
    return p.map_exponents(CHART_VARS, lambda e: (e[0], degree - e[0] - e[1], 0, 0))


def _chart_jet_images(chart: str) -> tuple[ExactPoly, ExactPoly]:
    """Cleared numerators of the jet coordinates: (image of x', image of y')."""
    x1p = ExactPoly.variable(CHART_VARS, "x1'")
    y1p = ExactPoly.variable(CHART_VARS, "y1'")
    x1 = ExactPoly.variable(CHART_VARS, "x1")
    y1 = ExactPoly.variable(CHART_VARS, "y1")
    if chart == INV_X:
        return -x1p, x1 * y1p - y1 * x1p
    return y1 * x1p - x1 * y1p, -y1p


def _check_chart(chart: str) -> None:
    if chart not in (INV_X, INV_Y):
        raise ValueError(f"chart must be {INV_X!r} or {INV_Y!r}, got {chart!r}")


def verify_derivative_transfer(r: ExactPoly, d: int, chart: str) -> bool:
    """Bit-exact check of the chart identity for x'R_x + y'R_y.

    With denominators cleared by u^(d+1) (u the inverted coordinate), the
    substituted combination must equal -u' * d * R1 + u * (x1'R1_x1 + y1'R1_y1)
    where R1 is the chart polynomial of R.
    """
    _check_chart(chart)
    if r.total_degree() != d:
        raise ValueError(f"declared degree {d} does not match deg R = {r.total_degree()}")
    xp_img, yp_img = _chart_jet_images(chart)
    w = (ExactPoly.variable(JET_VARS, "x'") * poly_diff(r, "x").extend_to(JET_VARS)
         + ExactPoly.variable(JET_VARS, "y'") * poly_diff(r, "y").extend_to(JET_VARS))
    # summed over the integer numerators of w, then divided by its denominator
    lhs = ExactPoly.zero(CHART_VARS)
    for (a, b, cx, cy), coeff in w.num.items():
        if chart == INV_X:
            base = ExactPoly.monomial(CHART_VARS, (d - 1 - a - b, b, 0, 0), coeff)
        else:
            base = ExactPoly.monomial(CHART_VARS, (a, d - 1 - a - b, 0, 0), coeff)
        lhs = lhs + base * xp_img ** cx * yp_img ** cy
    lhs = lhs.scale(Fraction(1, w.den))
    r1 = _chart_polynomial(r, d, chart)
    u = ExactPoly.variable(CHART_VARS, "x1" if chart == INV_X else "y1")
    u_prime = ExactPoly.variable(CHART_VARS, "x1'" if chart == INV_X else "y1'")
    r1_prime = (ExactPoly.variable(CHART_VARS, "x1'") * poly_diff(r1, "x1")
                + ExactPoly.variable(CHART_VARS, "y1'") * poly_diff(r1, "y1"))
    rhs = (u_prime * r1).scale(-d) + u * r1_prime
    return lhs == rhs


@dataclass(frozen=True)
class InfinityExponentReport:
    """Exactness of the chart exponent bookkeeping for one parameter choice.

    residuals_ok covers the per-index exponents over the whole grid;
    the prefactor exponent c-a-4m decides holomorphy and vanishing along
    the hyperplane at infinity.  witness is an index tuple (j,k,p,q,h,i)
    whose total chart exponent is negative, present exactly when the
    boxed bound a <= c-4m fails.
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
    """Exhaustively audit the chart exponents over the admissible index grid."""
    m, c, a = spec.m, spec.c, spec.a
    prefactor = c - a - 4 * m
    residual_min = None
    witness = None
    for (j, k, p, q) in index_tuples(m):
        for (h, i) in monomials_upto(a):
            residual = a - (h + i) + 2 * m - (2 * j + 2 * k + p + q)
            if residual_min is None or residual < residual_min:
                residual_min = residual
            if prefactor + residual < 0 and witness is None:
                witness = (j, k, p, q, h, i)
    return InfinityExponentReport(
        m=m, c=c, a=a,
        residuals_ok=residual_min is not None and residual_min >= 0,
        residual_min=residual_min if residual_min is not None else 0,
        prefactor_exponent=prefactor,
        holomorphic_at_infinity=prefactor >= 0,
        vanishes_at_infinity=prefactor >= 1,
        witness=witness,
    )


@dataclass(frozen=True)
class TransferResult:
    """The fully transferred jet differential in one chart at infinity."""

    chart: str
    transferred: ExactPoly        # polynomial in (x1, y1, x1', y1')
    prefactor_exponent: int       # c - a - 4m
    residual_min: int
    identity_ok: bool             # cross-multiplied reconstruction identity


def full_chart_transfer(field: CoefficientField, surf: SurfacePair, spec: JetSpec,
                        chart: str = INV_X) -> TransferResult:
    """Transfer the jet differential through the 1/x or 1/y chart change.

    Returns the polynomial factor that multiplies u^(c-a-4m) (u the inverted
    coordinate) in the transferred differential, and verifies against the
    directly substituted jet that u^(a+dm+em+2m) * (substituted J) equals the
    returned polynomial, bit-exactly.
    """
    _check_chart(chart)
    if not spec.holomorphic_at_infinity:
        raise ValueError(f"chart transfer requires a <= c - 4m, got a={spec.a}, "
                         f"c={spec.c}, m={spec.m}")
    d, e, m, a = surf.d, surf.e, spec.m, spec.a
    r1 = _chart_polynomial(surf.r, d, chart)
    s1 = _chart_polynomial(surf.s, e, chart)
    u = ExactPoly.variable(CHART_VARS, "x1" if chart == INV_X else "y1")
    u_prime = ExactPoly.variable(CHART_VARS, "x1'" if chart == INV_X else "y1'")
    xp_img, yp_img = _chart_jet_images(chart)

    r1_prime = (ExactPoly.variable(CHART_VARS, "x1'") * poly_diff(r1, "x1")
                + ExactPoly.variable(CHART_VARS, "y1'") * poly_diff(r1, "y1"))
    s1_prime = (ExactPoly.variable(CHART_VARS, "x1'") * poly_diff(s1, "x1")
                + ExactPoly.variable(CHART_VARS, "y1'") * poly_diff(s1, "y1"))
    bp = (u_prime * r1).scale(-d) + u * r1_prime
    bq = (u_prime * s1).scale(-e) + u * s1_prime

    # The per-term residual a - (h+i) + 2m - (2j+2k+p+q) equals
    # (a - h - i) + (p + q) because j+k+p+q = m: the first part is the chart
    # polynomial of A at degree a, the second rides on the R' and S' slots.
    residual_min = min((a - (h + i) + 2 * m - (2 * j + 2 * k + p + q)
                        for (j, k, p, q), a_poly in field.items() for (h, i) in a_poly.num),
                       default=0)
    ctx = JetContext(surf, (xp_img, yp_img, r1, u * bp, s1, u * bq))
    transferred = ctx.realize(field, lambda a_poly: _chart_polynomial(a_poly, a, chart))

    # cross-multiplied identity against the directly substituted jet:
    # u^(a+dm+em+2m) * Phi(J) must reproduce the transferred polynomial
    jet = build_jet(field, surf, spec)
    clearing = a + d * m + e * m
    # summed over the integer numerators of J, then divided by its denominator
    direct = ExactPoly.zero(CHART_VARS)
    for (ex, ey, cx, cy), coeff in jet.num.items():
        if chart == INV_X:
            base = ExactPoly.monomial(CHART_VARS, (clearing - ex - ey, ey, 0, 0), coeff)
        else:
            base = ExactPoly.monomial(CHART_VARS, (ex, clearing - ex - ey, 0, 0), coeff)
        direct = direct + base * ctx.xp_pow[cx] * ctx.yp_pow[cy]
    direct = direct.scale(Fraction(1, jet.den))

    identity_ok = (direct == transferred)
    return TransferResult(
        chart=chart,
        transferred=transferred,
        prefactor_exponent=spec.infinity_margin,
        residual_min=residual_min,
        identity_ok=identity_ok,
    )


def homogenize_surface_and_check(surf: SurfacePair) -> bool:
    """Certify that the surface misses the line U = X = Y = 0 at infinity.

    The homogenised equations are Z^d - U^d R(X/U, Y/U) and
    T^e - U^e S(X/U, Y/U); substituting U = X = Y = 0 must leave exactly
    Z^d and T^e, forcing Z = T = 0, which no projective point allows.
    """
    z_var = ExactPoly.variable(HOMOGENEOUS_VARS, "Z")
    t_var = ExactPoly.variable(HOMOGENEOUS_VARS, "T")
    zero = ExactPoly.zero(HOMOGENEOUS_VARS)
    bindings = {"U": zero, "X": zero, "Y": zero,
                "Z": z_var, "T": t_var}
    ok = True
    for poly, degree, pure in ((surf.r, surf.d, z_var ** surf.d),
                               (surf.s, surf.e, t_var ** surf.e)):
        homog = pure - _homogenize_xy(poly, degree)
        restricted = poly_substitute(homog, bindings)
        ok = ok and (restricted == pure)
    return ok


def _homogenize_xy(p: ExactPoly, degree: int) -> ExactPoly:
    """U^degree * p(X/U, Y/U) as a polynomial in (U, X, Y, Z, T)."""
    return p.map_exponents(HOMOGENEOUS_VARS, lambda e: (degree - e[0] - e[1], e[0], e[1], 0, 0))
