"""The A -> J matrix, the divisibility system, and certified kernel sections.

The unknowns are the coefficients A[j,k,p,q]^{h,i} (one per index tuple
j+k+p+q = m and monomial h+i <= a).  `jet_matrix` is the one builder of
the A -> J matrix, whose rows are the monomials x^h' y^i' x'^alpha y'^beta.
The constraints that every Lambda[alpha,beta] is divisible by y^c, i.e.
that each coefficient with i' < c vanishes, are its rows of y-degree below
c, on the same columns, built from jet term bases cut below y^c.  This
divisibility system is solved exactly (a
kernel certified mod p and verified by an exact matvec, else
fraction-free elimination), and every kernel vector is re-verified
through the independent route, expand_lambda and monomial_quotient,
before a certificate is issued.  One solve certifies all its kernel
vectors through one SectionContexts, so each route forms its heavy
products once, and each vector's J is realised once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .jetbuilder import (
    XY,
    CoefficientField,
    JetContext,
    JetSpec,
    LambdaTerms,
    SurfacePair,
    build_jet,
    expand_lambda,
    index_tuples,
    monomials_upto,
)
from .polyring import ExactPoly, monomial_quotient
from .surfacecharts import (
    CHARTS,
    chart_context,
    full_chart_transfer,
    restrict_to_surface,
    surface_context,
    verify_infinity_exponents,
)

ColumnLabel = tuple[int, int, int, int, int, int]   # (j, k, p, q, h, i)


class AssemblyError(RuntimeError):
    """An internal consistency failure: a solved vector did not certify."""


def unknown_labels(spec: JetSpec) -> list[ColumnLabel]:
    """Canonical column order: lexicographic index tuple, then graded-lex monomial."""
    return [(j, k, p, q, h, i)
            for (j, k, p, q) in index_tuples(spec.m)
            for (h, i) in monomials_upto(spec.a)]


def jet_matrix(surf: SurfacePair, m: int, a: int,
               y_below: int | None = None) -> linalg.SparseMatrix:
    """The matrix of A -> J, or its rows of y-degree below y_below.

    Column (j,k,p,q,h,i), in the order of `unknown_labels`, is the jet
    x^h y^i * jet_term_base(j,k,p,q) of the unit field A[j,k,p,q] = x^h y^i;
    rows are the realised exponents (x, y, x', y'), graded-lex.  The bases
    come from `JetContext(surf, y_below=y_below)`, whose factors and products
    are all cut below that y-degree (exactly).  Each tuple's base is read
    once and shifted monomially.  `JetSpec` refuses m < 1 and a < 0.
    """
    labels = unknown_labels(JetSpec(m=m, c=0, a=a))
    ctx = JetContext(surf, y_below=y_below)
    top = float("inf") if y_below is None else y_below
    shifts = list(monomials_upto(a))
    column_maps: list[dict[tuple, int | Fraction]] = []
    for t in index_tuples(m):
        terms = ctx.jet_term_base(t, m).coefficients().items()
        column_maps.extend({(eh + h, ei + i, alpha, beta): coeff
                            for (eh, ei, alpha, beta), coeff in terms if ei + i < top}
                           for h, i in shifts)
    del ctx  # the memoised products are not needed to build the matrix
    return linalg.SparseMatrix.from_columns(labels, column_maps, lambda e: (sum(e), e))


def assemble_divisibility_system(surf: SurfacePair, spec: JetSpec) -> linalg.SparseMatrix:
    """Matrix of the constraints `y^c divides every Lambda[alpha,beta]`.

    These are the rows of the A -> J matrix of y-degree below c; rows whose
    linear form is identically zero never materialise.
    """
    return jet_matrix(surf, spec.m, spec.a, spec.c)


def kernel_basis(system: linalg.SparseMatrix) -> list[list[Fraction]]:
    """Exact basis of the nullspace; every vector satisfies system . v = 0."""
    return system.kernel()


def solution_dimension(surf: SurfacePair, spec: JetSpec) -> int:
    system = assemble_divisibility_system(surf, spec)
    return len(system.columns) - system.rank()


def vector_to_field(spec: JetSpec, vector: list[Fraction]) -> CoefficientField:
    """Reinterpret a solution vector as a coefficient field."""
    labels = unknown_labels(spec)
    if len(vector) != len(labels):
        raise ValueError(f"vector length {len(vector)} != {len(labels)} unknowns")
    builders: dict[tuple[int, int, int, int], dict[tuple[int, int], Fraction]] = {}
    for (j, k, p, q, h, i), value in zip(labels, vector):
        if value:
            builders.setdefault((j, k, p, q), {})[(h, i)] = Fraction(value)
    entries = {t: ExactPoly(XY, terms) for t, terms in builders.items()}
    return CoefficientField(spec.m, entries)


@dataclass(frozen=True)
class SectionCertificate:
    """A solved coefficient field with the record of every holomorphy check.

    The constructor refuses a field whose jet is not divisible by y^c;
    y^c * jet_reduced = jet holds bit-exactly for every instance.
    """

    field: CoefficientField
    jet: ExactPoly
    jet_reduced: ExactPoly
    checks: dict[str, bool]

    def __post_init__(self):
        if not self.checks.get("y_divisible", False):
            raise AssemblyError("certificate requires y-divisibility")

    def to_json_dict(self) -> dict:
        return {
            "A": self.field.to_json_dict(),
            "J": str(self.jet),
            "Jtilde": str(self.jet_reduced),
            "checks": dict(self.checks),
        }


class SectionContexts:
    """One memoised context per certification route, for the vectors of one solve.

    `jet` realises J (also the direct side of each chart transfer), `terms`
    feeds the expansion route, `surface` the surface restriction and
    `charts` the transferred side in each chart at infinity (only built when
    spec is holomorphic at infinity).  The J and the expansion routes share
    no cache, so their agreement stays an independent check.  `infinity` is
    the exponent audit, which depends on spec alone.
    """

    def __init__(self, surf: SurfacePair, spec: JetSpec):
        self.infinity = verify_infinity_exponents(spec)
        self.jet = JetContext(surf)
        self.terms = LambdaTerms(surf)
        self.surface = surface_context(surf)
        self.charts = ({chart: chart_context(surf, chart) for chart in CHARTS}
                       if spec.holomorphic_at_infinity else {})


def build_section(surf: SurfacePair, spec: JetSpec, vector: list[Fraction],
                  contexts: SectionContexts | None = None) -> SectionCertificate:
    """Certify one kernel vector end to end.

    Re-expands the field, divides every Lambda[alpha,beta] by y^c through
    monomial_quotient (a failure here is an assembly bug, not user error),
    then runs the surface restriction and the chart checks and records
    their outcomes.  contexts, when given, is `SectionContexts(surf, spec)`
    shared by the other vectors of the same solve.
    """
    if contexts is None:
        contexts = SectionContexts(surf, spec)
    field = vector_to_field(spec, vector)
    expansion = expand_lambda(field, surf, spec, contexts.terms)
    for (alpha, beta), poly in sorted(expansion.entries.items()):
        _, exact = monomial_quotient(poly, "y", spec.c)
        if not exact:
            raise AssemblyError(
                f"Lambda[{alpha},{beta}] not divisible by y^{spec.c}: kernel assembly bug")
    jet = build_jet(field, surf, spec, contexts.jet)
    jet_reduced, exact = monomial_quotient(jet, "y", spec.c)
    if not exact:
        raise AssemblyError("jet not divisible although every Lambda was")
    _, restriction_exact = restrict_to_surface(field, surf, spec, contexts.surface)
    transfer_ok = spec.holomorphic_at_infinity and all(
        full_chart_transfer(field, surf, spec, chart, contexts.charts[chart], jet).identity_ok
        for chart in CHARTS)
    return SectionCertificate(
        field=field,
        jet=jet,
        jet_reduced=jet_reduced,
        checks={
            "y_divisible": True,
            "surface_restriction_exact": restriction_exact,
            "infinity_exponents_ok": contexts.infinity.passed,
            "chart_transfer_verified": transfer_ok,
        },
    )


def kernel_to_json(system: linalg.SparseMatrix,
                   basis: list[list[Fraction]]) -> list[dict[str, str]]:
    """JSON export: one object per vector, unknown label -> rational string."""
    out = []
    for vector in basis:
        entry = {}
        for label, value in zip(system.columns, vector):
            if value:
                entry[",".join(map(str, label))] = str(value)
        out.append(entry)
    return out
