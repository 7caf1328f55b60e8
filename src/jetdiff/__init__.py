"""jetdiff: exact construction and certification of symmetric jet differentials
on complete-intersection surfaces z^d = R(x,y), t^e = S(x,y) in projective 4-space.

All arithmetic is exact (arbitrary-precision rationals); every certificate
issued by this package is a bit-exact polynomial identity.
"""

from .polyring import (
    NEG_INF,
    ExactPoly,
    ParseError,
    VarSet,
    gcd_univariate,
    monomial_quotient,
    poly_diff,
    poly_parse,
    poly_substitute,
    resultant,
    squarefree_univariate,
)
from .jetbuilder import (
    JET_VARS,
    XY,
    CoefficientField,
    JetSpec,
    LambdaExpansion,
    SurfacePair,
    build_jet,
    expand_lambda,
    index_tuples,
    monomials_upto,
    unit_field,
)
from .divisibility import (
    AssemblyError,
    SectionCertificate,
    assemble_divisibility_system,
    build_section,
    jet_matrix,
    kernel_basis,
    solution_dimension,
    unknown_labels,
    vector_to_field,
)
from .genericity import (
    CheckResult,
    GenericityReport,
    IntersectionReport,
    axis_ox_disposition_check,
    curve_smooth_check,
    full_genericity_audit,
    infinity_disposition_check,
    line_y0_disposition_check,
    no_triple_check,
    pair_transversality_check,
    shear,
)
from .injectivity import (
    GenericityGateError,
    InjectivityResult,
    analyze_injectivity,
    injectivity_matrix,
)
from .surfacecharts import (
    InfinityExponentReport,
    TransferResult,
    full_chart_transfer,
    restrict_to_surface,
    verify_derivative_transfer,
    verify_infinity_exponents,
)
from .counting import (
    ChiCrossCheck,
    CountReport,
    chi_cross_check_2_3,
    constraint_bound,
    count_report,
    cubic_value,
    dof,
    e_upper_bound,
    euler_characteristic,
    minimal_admissible_d,
    unpruned_row_bound,
)

__version__ = "0.1.0"
