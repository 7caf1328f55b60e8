"""The divisibility linear system and its certified kernel sections.

The unknowns are the coefficients A[j,k,p,q]^{h,i} (one per index tuple
j+k+p+q = m and monomial h+i <= a); the constraints say that every
expansion coefficient Lambda[alpha,beta] is divisible by y^c, i.e. that
the coefficient of each monomial x^h' y^i' with i' < c vanishes.  The
matrix is assembled column by column from unit coefficient fields through
the twice-checked expansion path, solved exactly (a kernel certified mod
p and verified by an exact matvec, else fraction-free elimination), and
every kernel vector is re-verified independently via monomial_quotient
before a certificate is issued.
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
    SurfacePair,
    build_jet,
    expand_lambda,
    index_tuples,
    monomials_upto,
    unit_field,
)
from .polyring import ExactPoly, monomial_quotient
from .surfacecharts import full_chart_transfer, restrict_to_surface, verify_infinity_exponents

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

    Column (j,k,p,q,h,i) is the coefficient extraction of the expansion of
    the unit field A[j,k,p,q] = x^h y^i; a shared base expansion per index
    tuple is shifted monomially, which keeps assembly at one expansion per
    tuple.  Rows whose linear form is identically zero never materialise.
    """
    m, c, a = spec.m, spec.c, spec.a
    ctx = JetContext(surf)
    columns = unknown_labels(spec)
    # the coefficients of each base expansion, read once per tuple
    base = {t: [(alpha, beta, poly.coefficients()) for (alpha, beta), poly
                in expand_lambda(unit_field(m, t), surf, spec, ctx).entries.items()]
            for t in index_tuples(m)}
    column_maps: list[dict[RowLabel, Fraction]] = [
        {(alpha, beta, mh + h, mi + i): coeff
         for alpha, beta, terms in base[(j, k, p, q)]
         for (mh, mi), coeff in terms.items() if mi + i < c}
        for (j, k, p, q, h, i) in columns]
    bound = (m + 1) * c * (a + surf.d * m + surf.e * m + 1)
    return ConstraintSystem.from_columns(
        columns, column_maps, lambda r: (r[0], r[1], r[2] + r[3], -r[2]),
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


def build_section(surf: SurfacePair, spec: JetSpec,
                  vector: list[Fraction]) -> SectionCertificate:
    """Certify one kernel vector end to end.

    Re-expands the field, divides every Lambda[alpha,beta] by y^c through
    monomial_quotient (a failure here is an assembly bug, not user error),
    then runs the surface restriction and the chart checks and records
    their outcomes.
    """
    field = vector_to_field(spec, vector)
    expansion = expand_lambda(field, surf, spec)
    for (alpha, beta), poly in sorted(expansion.entries.items()):
        _, exact = monomial_quotient(poly, "y", spec.c)
        if not exact:
            raise AssemblyError(
                f"Lambda[{alpha},{beta}] not divisible by y^{spec.c}: kernel assembly bug")
    jet = build_jet(field, surf, spec)
    jet_reduced, exact = monomial_quotient(jet, "y", spec.c)
    if not exact:
        raise AssemblyError("jet not divisible although every Lambda was")
    _, restriction_exact = restrict_to_surface(field, surf, spec)
    infinity_report = verify_infinity_exponents(spec)
    if spec.holomorphic_at_infinity:
        transfer_ok = all(
            full_chart_transfer(field, surf, spec, chart).identity_ok
            for chart in ("inv_x", "inv_y"))
    else:
        transfer_ok = False
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
