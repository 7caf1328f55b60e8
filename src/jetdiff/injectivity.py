"""Desk-scale exact verification of the injectivity statements.

Three rank computations.  Each rank is columns minus the dimension of the
exact kernel, which one elimination modulo the prime 2^61 - 1 proves when
the rank mod p is full or the kernel mod p reconstructs to vectors that an
exact matvec verifies; otherwise Bareiss elimination over Q decides it (see
`linalg`).  The map A -> J takes its kernel once, which also yields the
witness when the map is not injective.

* the map A -> J from coefficient fields (degree cap a <= d-2) to jet
  polynomials has trivial kernel on audited-generic surfaces; its matrix
  is `divisibility.jet_matrix`, the same builder whose rows below y^c
  are the divisibility system;

* the reduced map (A[p,q]) -> sum A[p,q] R_x^p S_x^q R^(m-p) S^(m-q) with
  deg A[p,q] <= d-1 has trivial kernel;

* the low-degree slice of the ideal generated by a transversal pair (P, Q)
  is zero: no nonzero polynomial of degree <= deg(P)-1 vanishes on all
  deg(P)*deg(Q) simple intersection points.  This is decided on a Macaulay
  matrix of all monomial multiples of P and Q up to the truncation degree
  D = deg P + deg Q - 1: the slice is zero iff the rows of degree > amax
  already realise the full rank.

All three refuse to certify on a surface whose genericity audit did not
pass, unless explicitly forced, in which case the result is marked as
carrying unverified hypotheses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add

from . import linalg
from .divisibility import jet_matrix, vector_to_field
from .genericity import (
    DEFAULT_SEED,
    GenericityReport,
    IntersectionReport,
    full_genericity_audit,
    pair_transversality_check,
)
from .jetbuilder import (
    XY,
    CoefficientField,
    JetSpec,
    LambdaTerms,
    SurfacePair,
    expand_lambda,
    index_tuples,
    monomials_upto,
)
from .polyring import ExactPoly, PowerCache
from .sampling import random_small_polynomial


class GenericityGateError(RuntimeError):
    """A theorem verifier was invoked on a surface without a passing audit."""


def _matrix_from_shifts(columns: list, groups: list[tuple[ExactPoly, list[tuple]]]
                        ) -> linalg.SparseMatrix:
    """The plane matrices: columns are the coefficient vectors of base * x^shift,
    in order over the (base, shifts) groups; rows are their monomials,
    graded-lex.  The coefficients of each base are read once for all shifts."""
    column_maps = []
    for base, shifts in groups:
        terms = base.coefficients().items()
        for shift in shifts:
            column_maps.append({tuple(map(add, exps, shift)): coeff for exps, coeff in terms})
    return linalg.SparseMatrix.from_columns(columns, column_maps, lambda e: (sum(e), e))


def injectivity_matrix(surf: SurfacePair, m: int, a: int,
                       enforce_cap: bool = True) -> linalg.SparseMatrix:
    """The matrix of A -> J in the canonical bases, `divisibility.jet_matrix`.

    Columns are the unknowns (j,k,p,q,h,i) in the order in which
    `vector_to_field` reads a kernel vector back; rows the realised
    monomials of the jet polynomial in (x, y, x', y'), graded-lex.  The
    degree cap a <= d-2 is the theorem's hypothesis; pass enforce_cap=False
    only to record what happens beyond it.
    """
    if enforce_cap and not JetSpec(m=m, c=0, a=a).injectivity_cap_ok(surf.d):
        raise ValueError(f"degree cap violated: a={a} > d-2={surf.d - 2}")
    return jet_matrix(surf, m, a)


@dataclass(frozen=True)
class InjectivityResult:
    columns: int
    rank: int
    injective: bool
    hypotheses_verified: bool
    kernel_witness: CoefficientField | None

    def to_json_dict(self) -> dict:
        return {
            "columns": self.columns,
            "rank": self.rank,
            "verdict": "injective" if self.injective else "kernel",
            "hypotheses_verified": self.hypotheses_verified,
            "kernel_witness": (None if self.kernel_witness is None
                               else self.kernel_witness.to_json_dict()),
        }


def _resolve_gate(surf: SurfacePair, audit: GenericityReport | None,
                  force: bool, seed: int) -> bool:
    if audit is None and not force:
        audit = full_genericity_audit(surf, seed)
    if audit is not None and audit.passed:
        return True
    if force:
        return False
    raise GenericityGateError(
        "genericity audit did not pass; rerun with force=True to record an "
        "unverified-hypotheses result")


def analyze_injectivity(surf: SurfacePair, m: int, a: int,
                        audit: GenericityReport | None = None,
                        force: bool = False,
                        seed: int = DEFAULT_SEED) -> InjectivityResult:
    """Exact rank analysis of A -> J, gated on the genericity audit."""
    verified = _resolve_gate(surf, audit, force, seed)
    matrix = injectivity_matrix(surf, m, a, enforce_cap=True)
    kernel = matrix.kernel()
    witness = vector_to_field(JetSpec(m=m, c=0, a=a), kernel[0]) if kernel else None
    return InjectivityResult(columns=len(matrix.columns),
                             rank=len(matrix.columns) - len(kernel),
                             injective=not kernel, hypotheses_verified=verified,
                             kernel_witness=witness)


def verify_injectivity_theorem(surf: SurfacePair, m: int, a: int,
                               audit: GenericityReport | None = None,
                               force: bool = False,
                               seed: int = DEFAULT_SEED) -> bool:
    """True iff the A -> J matrix has full column rank (trivial kernel)."""
    return analyze_injectivity(surf, m, a, audit, force, seed).injective


def rx_sx_matrix(surf: SurfacePair, m: int) -> linalg.SparseMatrix:
    """Matrix of (A[p,q]) -> sum A[p,q] R_x^p S_x^q R^(m-p) S^(m-q), deg A <= d-1."""
    terms = LambdaTerms(surf)
    shifts = list(monomials_upto(surf.d - 1))
    columns: list[tuple] = []
    groups: list[tuple[ExactPoly, list[tuple]]] = []
    for p in range(m + 1):
        for q in range(m + 1 - p):
            columns.extend((p, q) + shift for shift in shifts)
            groups.append((terms.term(p, 0, q, 0, m), shifts))
    return _matrix_from_shifts(columns, groups)


def verify_rx_sx_proposition(surf: SurfacePair, m: int,
                             audit: GenericityReport | None = None,
                             force: bool = False,
                             seed: int = DEFAULT_SEED) -> bool:
    """True iff the reduced R_x/S_x map has full column rank."""
    _resolve_gate(surf, audit, force, seed)
    matrix = rx_sx_matrix(surf, m)
    return matrix.rank() == len(matrix.columns)


def vanishing_lemma_check(p: ExactPoly, q: ExactPoly, amax: int,
                          transversality: IntersectionReport | None = None,
                          degree_margin: int = 0,
                          seed: int = DEFAULT_SEED) -> bool:
    """True iff the degree-<= amax slice of the ideal (p, q) is zero.

    Requires a certified transversal intersection, so that vanishing on the
    deg(p)*deg(q) simple points is ideal membership.  The slice is computed
    on the Macaulay matrix at truncation D = deg p + deg q - 1 (+ margin):
    it is zero iff the rows of degree > amax already carry the full rank.
    """
    dp, dq = p.total_degree(), q.total_degree()
    if amax > dp - 1:
        raise ValueError(f"amax={amax} exceeds deg(p)-1={dp - 1}")
    if transversality is None:
        transversality = pair_transversality_check(p, q, seed)
    if not transversality.passed:
        raise GenericityGateError("transversality precondition not certified")
    truncation = dp + dq - 1 + degree_margin
    groups = [(poly, list(monomials_upto(truncation - deg))) for poly, deg in ((p, dp), (q, dq))]
    ncols = sum(len(shifts) for _, shifts in groups)
    matrix = _matrix_from_shifts(list(range(ncols)), groups)
    high_rows = [row for e, row in zip(matrix.rows, matrix.row_entries) if sum(e) > amax]
    return matrix.rank() == linalg.rank(high_rows, ncols)


def triangular_reduction_check(surf: SurfacePair, m: int,
                               seed: int = DEFAULT_SEED, a: int = 1) -> bool:
    """Verify the triangular slice identity for every 1 <= k' <= m (m <= 3).

    With all entries A[j,k,p,q] = 0 for k <= k'-1, the beta = k' coefficient
    of the expansion must equal R^k' S^k' times the reduced sum
    sum A[j,k',p1,q1] R_x^p1 S_x^q1 R^(m-k'-p1) S^(m-k'-q1).
    """
    if m > 3:
        raise ValueError("desk-scale check: m <= 3")
    rng = random.Random(seed)
    rx, _, sx, _ = surf.partials()
    pow_r, pow_s, pow_rx, pow_sx = map(PowerCache, (surf.r, surf.s, rx, sx))
    for k_prime in range(1, m + 1):
        entries = {t: random_small_polynomial(rng, a)
                   for t in index_tuples(m) if t[1] >= k_prime}
        field = CoefficientField(m, entries)
        expansion = expand_lambda(field, surf, JetSpec(m=m, c=0, a=a))
        lhs = expansion.entries[(m - k_prime, k_prime)]
        reduced = ExactPoly.zero(XY)
        for j in range(m - k_prime + 1):
            for p1 in range(m - k_prime - j + 1):
                q1 = m - k_prime - j - p1
                a_poly = field.entries[(j, k_prime, p1, q1)]
                if a_poly.is_zero():
                    continue
                reduced = reduced + (a_poly * pow_rx[p1] * pow_sx[q1]
                                     * pow_r[m - k_prime - p1] * pow_s[m - k_prime - q1])
        rhs = pow_r[k_prime] * pow_s[k_prime] * reduced
        if lhs != rhs:
            return False
    return True
