"""The divisibility linear system and its certified kernel sections.

The unknowns are the coefficients A[j,k,p,q]^{h,i} (one per index tuple
j+k+p+q = m and monomial h+i <= a); the constraints say that every
expansion coefficient Lambda[alpha,beta] is divisible by y^c, i.e. that
the coefficient of each monomial x^h' y^i' with i' < c vanishes.  Its
columns are built from the jet term bases with every factor and product
cut below y^c, and a test checks that its rows are the rows of the A -> J
matrix of y-degree below c, on the same columns.  It is solved exactly (a
kernel certified mod p and verified by an exact matvec, else
fraction-free elimination), and every kernel vector is re-verified
through the independent route, expand_lambda and monomial_quotient,
before a certificate is issued.  One solve certifies all its kernel
vectors through one SectionContexts, so each route forms its heavy
products once.
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
RowLabel = tuple[int, int, int, int]                # (alpha, beta, h', i')


class AssemblyError(RuntimeError):
    """An internal consistency failure: a solved vector did not certify."""


def unknown_labels(spec: JetSpec) -> list[ColumnLabel]:
    """Canonical column order: lexicographic index tuple, then graded-lex monomial."""
    return [(j, k, p, q, h, i)
            for (j, k, p, q) in index_tuples(spec.m)
            for (h, i) in monomials_upto(spec.a)]


@dataclass(frozen=True)
class ConstraintSystem(linalg.SparseMatrix):
    """The divisibility matrix: rows are monomials, columns unknowns."""

    unpruned_row_bound: int   # the exinscribed rectangle (m+1)*c*(a+dm+em+1)

    def to_triplet_text(self) -> str:
        """Sparse export: header `rows cols`, then one `row col num/den` per entry."""
        lines = [f"{len(self.rows)} {len(self.columns)}"]
        for ri, row in enumerate(self.row_entries):
            for ci in sorted(row):
                value = row[ci]
                lines.append(f"{ri} {ci} {value.numerator}/{value.denominator}")
        return "\n".join(lines) + "\n"


def assemble_divisibility_system(surf: SurfacePair, spec: JetSpec) -> ConstraintSystem:
    """Matrix of the constraints `y^c divides every Lambda[alpha,beta]`.

    Column (j,k,p,q,h,i) is the jet x^h y^i * jet_term_base(j,k,p,q) of the
    unit field A[j,k,p,q] = x^h y^i; row (alpha,beta,h',i') with i' < c is
    its coefficient of x^h' y^i' x'^alpha y'^beta.  The bases come from
    `JetContext(surf, y_below=c)`, whose factors and products are all cut
    below y^c; this is exact because a term of y-degree >= c only yields
    terms of y-degree >= c.  Each tuple's base is read once and shifted
    monomially.  Rows whose linear form is identically zero never
    materialise.
    """
    m, c, a = spec.m, spec.c, spec.a
    ctx = JetContext(surf, y_below=c)
    shifts = list(monomials_upto(a))
    column_maps: list[dict[RowLabel, int | Fraction]] = []
    for t in index_tuples(m):
        low = [(alpha, beta, mh, mi, coeff) for (mh, mi, alpha, beta), coeff
               in ctx.jet_term_base(t, m).coefficients().items()]
        column_maps.extend({(alpha, beta, mh + h, mi + i): coeff
                            for alpha, beta, mh, mi, coeff in low if mi + i < c}
                           for h, i in shifts)
    del ctx  # the memoised products are not needed to build the matrix
    bound = (m + 1) * c * (a + surf.d * m + surf.e * m + 1)
    return ConstraintSystem.from_columns(
        unknown_labels(spec), column_maps, lambda r: (r[0], r[1], r[2] + r[3], -r[2]),
        unpruned_row_bound=bound)


def kernel_basis(system: ConstraintSystem) -> list[list[Fraction]]:
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

    `jet` realises J (and the direct side of each chart transfer), `terms`
    feeds the expansion route, `surface` the surface restriction and
    `charts` the transferred side in each chart at infinity (only built when
    spec is holomorphic at infinity).  The J and the expansion routes share
    no cache, so their agreement stays an independent check.
    """

    def __init__(self, surf: SurfacePair, spec: JetSpec):
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
    infinity_report = verify_infinity_exponents(spec)
    transfer_ok = spec.holomorphic_at_infinity and all(
        full_chart_transfer(field, surf, spec, chart, contexts.charts[chart],
                            contexts.jet).identity_ok
        for chart in CHARTS)
    return SectionCertificate(
        field=field,
        jet=jet,
        jet_reduced=jet_reduced,
        checks={
            "y_divisible": True,
            "surface_restriction_exact": restriction_exact,
            "infinity_exponents_ok": infinity_report.passed,
            "chart_transfer_verified": transfer_ok,
        },
    )


def kernel_to_json(system: ConstraintSystem, basis: list[list[Fraction]]) -> list[dict[str, str]]:
    """JSON export: one object per vector, unknown label -> rational string."""
    out = []
    for vector in basis:
        entry = {}
        for label, value in zip(system.columns, vector):
            if value:
                entry[",".join(map(str, label))] = str(value)
        out.append(entry)
    return out
