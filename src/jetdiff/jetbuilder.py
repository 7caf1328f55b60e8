"""Construction of the symmetric jet polynomial and its cotangent expansion.

The central object is

    J = sum over j+k+p+q = m of
        A[j,k,p,q](x,y) * x'^j * y'^k * Rp^p * Sp^q * R^(m-p) * S^(m-q)

with Rp = x'*R_x + y'*R_y and Sp = x'*S_x + y'*S_y, built from a pair of
plane curves R, S and a field of coefficient polynomials A of bounded
degree.  Expanding the powers of Rp and Sp and regrouping by monomials
x'^alpha y'^beta gives the coefficients

    Lambda[alpha,beta] =
        sum over j+p1+q1 = alpha, k+p2+q2 = beta of
        C(p1+p2, p1) * C(q1+q2, q1) * A[j,k,p1+p2,q1+q2]
        * R_x^p1 * R_y^p2 * S_x^q1 * S_y^q2 * R^(m-p1-p2) * S^(m-q1-q2),

polynomials in (x, y) that are linear in the A entries.  Both routes are
implemented independently and their agreement (J = sum x'^a y'^b Lambda)
is a standing self-check of the reindexation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb
from operator import mul
from typing import Callable, Iterator, Mapping

from .polyring import (
    MAX_DEGREE,
    ExactPoly,
    PowerCache,
    VarSet,
    mul_below,
    poly_diff,
    poly_parse,
    truncate_below,
)

XY = VarSet(("x", "y"))
JET_VARS = VarSet(("x", "y", "x'", "y'"))

IndexTuple = tuple[int, int, int, int]  # (j, k, p, q) with j+k+p+q = m


def index_tuples(m: int) -> Iterator[IndexTuple]:
    """All (j,k,p,q) with j+k+p+q = m, in lexicographic order."""
    for j in range(m + 1):
        for k in range(m + 1 - j):
            for p in range(m + 1 - j - k):
                yield (j, k, p, m - j - k - p)


def monomials_upto(a: int) -> Iterator[tuple[int, int]]:
    """All (h,i) with h+i <= a, in graded-lex order."""
    for total in range(a + 1):
        for h in range(total, -1, -1):
            yield (h, total - h)


class SurfacePair:
    """The two defining curves R, S of the surface z^d = R(x,y), t^e = S(x,y).

    Validates on construction that 1 <= deg R <= deg S <= MAX_DEGREE (the
    parser's expansion cap) and that both pure
    top-degree coefficients (of x^d, y^d in R and x^e, y^e in S) are nonzero,
    the normalisation every downstream construction relies on.
    """

    __slots__ = ("r", "s", "d", "e")

    def __init__(self, r: ExactPoly, s: ExactPoly):
        if r.vars != XY or s.vars != XY:
            raise ValueError("surface polynomials must live in the (x, y) variable set")
        d = r.total_degree()
        e = s.total_degree()
        if not isinstance(d, int) or d < 1:
            raise ValueError("R must be non-constant")
        if not isinstance(e, int) or e < 1:
            raise ValueError("S must be non-constant")
        if d > e:
            raise ValueError(f"degrees must satisfy deg R <= deg S, got {d} > {e}")
        if e > MAX_DEGREE:
            raise ValueError(f"surface degrees must not exceed {MAX_DEGREE}, got d={d}, e={e}")
        for poly, deg, label in ((r, d, "R"), (s, e, "S")):
            if poly.coefficient((deg, 0)) == 0:
                raise ValueError(f"{label} must carry a nonzero x^{deg} term")
            if poly.coefficient((0, deg)) == 0:
                raise ValueError(f"{label} must carry a nonzero y^{deg} term")
        self.r = r
        self.s = s
        self.d = d
        self.e = e

    @classmethod
    def parse(cls, r_text: str, s_text: str) -> "SurfacePair":
        return cls(poly_parse(r_text, XY), poly_parse(s_text, XY))

    def partials(self) -> tuple[ExactPoly, ExactPoly, ExactPoly, ExactPoly]:
        """(R_x, R_y, S_x, S_y)."""
        return (poly_diff(self.r, "x"), poly_diff(self.r, "y"),
                poly_diff(self.s, "x"), poly_diff(self.s, "y"))

    def __repr__(self) -> str:
        return f"SurfacePair(d={self.d}, e={self.e}, R={self.r}, S={self.s})"


@dataclass(frozen=True)
class JetSpec:
    """Order parameters: symmetric degree m, divisibility order c, A-degree cap a.

    c = 0 is the degenerate no-constraint case used by tests.  The boxed
    infinity condition a <= c - 4m is recorded, not enforced; operations
    that need it check holomorphic_at_infinity themselves.
    """

    m: int
    c: int
    a: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("jet order m must be >= 1")
        if self.c < 0:
            raise ValueError("divisibility order c must be >= 0")
        if self.a < 0:
            raise ValueError("degree cap a must be >= 0")

    @property
    def infinity_margin(self) -> int:
        return self.c - self.a - 4 * self.m

    @property
    def holomorphic_at_infinity(self) -> bool:
        return self.infinity_margin >= 0

    def injectivity_cap_ok(self, d: int) -> bool:
        return self.a <= d - 2


class CoefficientField:
    """The association (j,k,p,q) -> A[j,k,p,q](x,y) for all j+k+p+q = m."""

    __slots__ = ("m", "entries")

    def __init__(self, m: int, entries: Mapping[IndexTuple, ExactPoly] | None = None):
        if m < 0:
            raise ValueError("m must be >= 0")
        full: dict[IndexTuple, ExactPoly] = {t: ExactPoly.zero(XY) for t in index_tuples(m)}
        if entries:
            for t, poly in entries.items():
                t = tuple(t)
                if t not in full:
                    raise ValueError(f"index tuple {t} does not sum to {m}")
                if poly.vars != XY:
                    raise ValueError("coefficient polynomials must live in (x, y)")
                full[t] = poly
        self.m = m
        self.entries = full

    def items(self) -> list[tuple[IndexTuple, ExactPoly]]:
        return sorted(self.entries.items())

    def degree_cap_ok(self, a: int) -> bool:
        return all(p.total_degree() <= a for p in self.entries.values() if not p.is_zero())

    def to_json_dict(self) -> dict[str, str]:
        return {",".join(map(str, t)): str(p) for t, p in self.items()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "CoefficientField":
        entries = {}
        m = None
        for key, text in data.items():
            t = tuple(int(v) for v in key.split(","))
            if len(t) != 4:
                raise ValueError(f"bad index key {key!r}")
            if m is None:
                m = sum(t)
            entries[t] = poly_parse(text, XY)
        if m is None:
            raise ValueError("empty coefficient field")
        return cls(m, entries)


@dataclass(frozen=True)
class LambdaExpansion:
    """The coefficients of x'^alpha y'^beta in J, one per alpha+beta = m."""

    m: int
    entries: dict[tuple[int, int], ExactPoly]

    def __post_init__(self):
        expected = {(alpha, self.m - alpha) for alpha in range(self.m + 1)}
        if set(self.entries) != expected:
            raise ValueError("expansion must carry exactly the pairs alpha+beta = m")

    def reconstruct(self) -> ExactPoly:
        """Reassemble sum of x'^alpha y'^beta * Lambda[alpha,beta] in the jet variables."""
        result = ExactPoly.zero(JET_VARS)
        xp = ExactPoly.variable(JET_VARS, "x'")
        yp = ExactPoly.variable(JET_VARS, "y'")
        for (alpha, beta), coeff in sorted(self.entries.items()):
            result = result + coeff.extend_to(JET_VARS) * xp ** alpha * yp ** beta
        return result


class JetContext:
    """Cached powers and products of the six slots of a jet construction.

    The slot caches hold the powers of the images of x', y', R, R', S, S' in
    one target ring; by default the tautological images in (x, y, x', y'),
    where realize gives J.  Other slot values realise the same sum after a
    change of jet chart: on the surface (surfacecharts.surface_context) or
    at infinity (surfacecharts.chart_context).

    The context memoises U_p = R'^p R^(m-p), V_q = S'^q S^(m-q) and
    U_p V_q: each is formed on its first request and kept for the life of
    the context, so one context shared by many fields forms each once.

    With y_below = c, the slots are cut once to their terms of y-degree
    below c (`truncate_below`), and every power and product is formed
    below y^c (`mul_below`), never making the terms it would drop; the
    terms it keeps are exact.
    """

    def __init__(self, surf: SurfacePair, slots: tuple[ExactPoly, ...] | None = None,
                 y_below: int | None = None):
        if slots is None:
            rx, ry, sx, sy = surf.partials()
            xp = ExactPoly.variable(JET_VARS, "x'")
            yp = ExactPoly.variable(JET_VARS, "y'")
            slots = (xp, yp,
                     surf.r.extend_to(JET_VARS),
                     xp * rx.extend_to(JET_VARS) + yp * ry.extend_to(JET_VARS),
                     surf.s.extend_to(JET_VARS),
                     xp * sx.extend_to(JET_VARS) + yp * sy.extend_to(JET_VARS))
        self.target = slots[0].vars
        if y_below is None:
            self._mul = mul
        else:
            self._mul = partial(mul_below, name="y", k=y_below)
            slots = [truncate_below(slot, "y", y_below) for slot in slots]
        (self.xp_pow, self.yp_pow, self.pow_r_slot, self.pow_rp_slot,
         self.pow_s_slot, self.pow_sp_slot) = (PowerCache(slot, self._mul) for slot in slots)
        self._factors: dict[tuple[str, int, int], ExactPoly] = {}
        self._bases: dict[tuple[int, int, int], ExactPoly] = {}

    def _factor(self, curve: str, k: int, m: int) -> ExactPoly:
        """U_k for curve "R", V_k for curve "S"."""
        key = (curve, k, m)
        if key not in self._factors:
            prime, plain = ((self.pow_rp_slot, self.pow_r_slot) if curve == "R"
                            else (self.pow_sp_slot, self.pow_s_slot))
            self._factors[key] = self._mul(prime[k], plain[m - k])
        return self._factors[key]

    def _form_base(self, p: int, q: int, m: int) -> ExactPoly:
        return self._mul(self._factor("R", p, m), self._factor("S", q, m))

    def pq_base(self, p: int, q: int, m: int) -> ExactPoly:
        """U_p V_q = R'^p R^(m-p) S'^q S^(m-q), formed once per (p, q, m)."""
        key = (p, q, m)
        if key not in self._bases:
            self._bases[key] = self._form_base(p, q, m)
        return self._bases[key]

    def jet_term_base(self, t: IndexTuple, m: int) -> ExactPoly:
        """x'^j y'^k R'^p S'^q R^(m-p) S^(m-q) for one index tuple, A = 1.

        The x'^j y'^k factor is multiplied, not shifted: in a chart ring the
        images of x' and y' are not monomials.
        """
        j, k, p, q = t
        return self._mul(self._mul(self.xp_pow[j], self.yp_pow[k]), self.pq_base(p, q, m))

    def realize(self, field: CoefficientField,
                lift: Callable[[ExactPoly], ExactPoly] | None = None) -> ExactPoly:
        """Sum of lift(A[t]) * jet_term_base(t) over the nonzero entries of field.

        lift maps an (x, y) coefficient into the target ring; by default it
        renames the variables into the target.  Each lifted coefficient is
        multiplied by x'^j y'^k first and then by the memoised U_p V_q, which
        the associativity of the product allows, so no term base is formed.
        A context with y_below forms each product below y^c too.
        """
        result = ExactPoly.zero(self.target)
        for (j, k, p, q), a_poly in field.items():
            if a_poly.is_zero():
                continue
            image = a_poly.extend_to(self.target) if lift is None else lift(a_poly)
            image = self._mul(image, self._mul(self.xp_pow[j], self.yp_pow[k]))
            result = result + self._mul(image, self.pq_base(p, q, field.m))
        return result


class LambdaTerms:
    """The products of the expansion route, each formed once.

    term(p1, p2, q1, q2, m) is R_x^p1 R_y^p2 S_x^q1 S_y^q2 R^(m-p1-p2)
    S^(m-q1-q2), kept for the life of the instance.  It is built from the
    surface alone and never reads a JetContext, so that expand_lambda stays
    an independent check of build_jet.
    """

    def __init__(self, surf: SurfacePair):
        (self.pow_r, self.pow_s, self.pow_rx, self.pow_ry, self.pow_sx,
         self.pow_sy) = map(PowerCache, (surf.r, surf.s, *surf.partials()))
        self._terms: dict[tuple[int, int, int, int, int], ExactPoly] = {}

    def _form_term(self, p1: int, p2: int, q1: int, q2: int, m: int) -> ExactPoly:
        return (self.pow_rx[p1] * self.pow_ry[p2] * self.pow_sx[q1] * self.pow_sy[q2]
                * self.pow_r[m - p1 - p2] * self.pow_s[m - q1 - q2])

    def term(self, p1: int, p2: int, q1: int, q2: int, m: int) -> ExactPoly:
        key = (p1, p2, q1, q2, m)
        if key not in self._terms:
            self._terms[key] = self._form_term(*key)
        return self._terms[key]


def validate_field(field: CoefficientField, spec: JetSpec) -> None:
    """Reject a field whose m or degree cap does not match the spec."""
    if field.m != spec.m:
        raise ValueError(f"coefficient field has m={field.m}, spec has m={spec.m}")
    if not field.degree_cap_ok(spec.a):
        raise ValueError(f"coefficient field exceeds the degree cap a={spec.a}")


def build_jet(field: CoefficientField, surf: SurfacePair, spec: JetSpec,
              ctx: JetContext | None = None) -> ExactPoly:
    """The jet polynomial J, homogeneous of degree m in (x', y').

    ctx, when given, is `JetContext(surf)`, shared with other calls.
    """
    validate_field(field, spec)
    return (JetContext(surf) if ctx is None else ctx).realize(field)


def expand_lambda(field: CoefficientField, surf: SurfacePair, spec: JetSpec,
                  terms: LambdaTerms | None = None) -> LambdaExpansion:
    """The (alpha, beta) coefficients of J, computed by direct reindexation.

    terms, when given, is `LambdaTerms(surf)`, shared with other calls.
    """
    validate_field(field, spec)
    if terms is None:
        terms = LambdaTerms(surf)
    m = spec.m
    entries: dict[tuple[int, int], ExactPoly] = {}
    for alpha in range(m + 1):
        beta = m - alpha
        acc = ExactPoly.zero(XY)
        for j in range(alpha + 1):
            for p1 in range(alpha - j + 1):
                q1 = alpha - j - p1
                for k in range(beta + 1):
                    for p2 in range(beta - k + 1):
                        q2 = beta - k - p2
                        a_poly = field.entries[(j, k, p1 + p2, q1 + q2)]
                        if a_poly.is_zero():
                            continue
                        weight = comb(p1 + p2, p1) * comb(q1 + q2, q1)
                        term = terms.term(p1, p2, q1, q2, m)
                        acc = acc + a_poly.scale(weight) * term
        entries[(alpha, beta)] = acc
    return LambdaExpansion(m, entries)


def unit_field(m: int, t: IndexTuple, h: int = 0, i: int = 0) -> CoefficientField:
    """Coefficient field with the single entry A[t] = x^h y^i."""
    return CoefficientField(m, {t: ExactPoly.monomial(XY, (h, i))})
