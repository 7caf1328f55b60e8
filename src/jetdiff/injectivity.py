"""Desk-scale exact verification of the injectivity of A -> J.

The map A -> J from coefficient fields (degree cap a <= d-2) to jet
polynomials has trivial kernel on audited-generic surfaces.  Its matrix M is
`divisibility.jet_matrix`, the same builder whose rows below y^c are the
divisibility system.

The proof first builds only M's rows of y-degree <= a (the cut): the same
entries on the same columns, formed below y^(a+1).  A subset of M's rows of
full column rank forces M to full column rank, so when one elimination
modulo the first prime of `modular.PRIMES` finds as many pivots as columns
(`linalg.full_column_rank`), the map is proved injective and the full matrix
is never built.  a + 1 is the smallest cut that can work: for c <= a the
unit field A[t] = y^c has no jet term below y^c, so its column in a cut below
y^c is zero.

When the cut's proof fails (a degenerate surface, or an unlucky prime), the
full matrix is built and its rank is columns minus the dimension of the
exact kernel, which the same elimination proves when the rank mod p is full
or the kernel mod p reconstructs to vectors that an exact matvec verifies;
otherwise Bareiss elimination over Q decides it (see `linalg`).  The kernel
is taken once, which also yields the witness when the map is not injective.

The analysis refuses to certify on a surface whose genericity audit did
not pass, unless explicitly forced, in which case the result is marked as
carrying unverified hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .divisibility import jet_matrix, vector_to_field
from .genericity import DEFAULT_SEED, GenericityReport, full_genericity_audit
from .jetbuilder import CoefficientField, JetSpec, SurfacePair


class GenericityGateError(RuntimeError):
    """The injectivity analysis was invoked on a surface without a passing audit."""


def injectivity_matrix(surf: SurfacePair, m: int, a: int,
                       y_below: int | None = None) -> linalg.SparseMatrix:
    """The matrix of A -> J in the canonical bases, `divisibility.jet_matrix`.

    Columns are the unknowns (j,k,p,q,h,i) in the order of
    `divisibility.unknown_labels`; rows the realised
    monomials of the jet polynomial in (x, y, x', y'), graded-lex.  With
    y_below, passed on to `jet_matrix`, only the rows of y-degree below it
    are built, with the same entries and all the columns: `analyze_injectivity`
    tries y_below = a + 1 first, whose full column rank already proves the
    whole matrix's.  The degree cap a <= d-2 is the theorem's hypothesis and
    raises ValueError when violated; `jet_matrix` builds the same matrix
    beyond it.
    """
    if not JetSpec(m=m, c=0, a=a).injectivity_cap_ok(surf.d):
        raise ValueError(f"degree cap violated: a={a} > d-2={surf.d - 2}")
    return jet_matrix(surf, m, a, y_below)


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
    """Exact rank analysis of A -> J, gated on the genericity audit.

    Full column rank mod p of the rows of y-degree <= a proves injectivity;
    otherwise the exact kernel of the full matrix decides the rank.
    """
    verified = _resolve_gate(surf, audit, force, seed)
    cut = injectivity_matrix(surf, m, a, y_below=a + 1)
    columns = len(cut.columns)
    if linalg.full_column_rank(list(cut.row_entries), columns):
        return InjectivityResult(columns=columns, rank=columns, injective=True,
                                 hypotheses_verified=verified, kernel_witness=None)
    matrix = injectivity_matrix(surf, m, a)
    kernel = matrix.kernel()
    witness = (vector_to_field(JetSpec(m=m, c=0, a=a), kernel[0], matrix.columns)
               if kernel else None)
    return InjectivityResult(columns=len(matrix.columns),
                             rank=len(matrix.columns) - len(kernel),
                             injective=not kernel, hypotheses_verified=verified,
                             kernel_witness=witness)
