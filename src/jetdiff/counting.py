"""Exact evaluation of the counting formulas, bounds and thresholds.

Everything here is plain integer/rational arithmetic on the parameters
(d, e, m, a, c): degrees of freedom of the coefficient field, the
exinscribed-rectangle bound on the number of divisibility constraints,
the cubic threshold polynomial whose first non-negative integer argument
is 752, and the Euler characteristic polynomial of the symmetric
differential bundle, evaluated exactly as printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def dof(a: int, m: int) -> int:
    """Number of free coefficients: C(a+2,2) monomials times C(m+3,3) index tuples."""
    if a < 0 or m < 0:
        raise ValueError("dof requires a >= 0 and m >= 0")
    return ((a + 1) * (a + 2) // 2) * ((m + 1) * (m + 2) * (m + 3) // 6)


def constraint_bound(d: int, e: int, m: int) -> int:
    """Rectangle bound (m+1)*d*(d + d*m + e*m) on the divisibility constraints."""
    if d < 1 or e < 1 or m < 1:
        raise ValueError("constraint_bound requires positive d, e, m")
    return (m + 1) * d * (d + d * m + e * m)


def cubic_value(d: int) -> Fraction:
    """d^3/93312 - 61 d^2/7776 - 17 d/108 - 28/27, exactly."""
    return (Fraction(d ** 3, 93312) - Fraction(61 * d ** 2, 7776)
            - Fraction(17 * d, 108) - Fraction(28, 27))


def minimal_admissible_d() -> int:
    """Least positive d with cubic_value(d) >= 0, by exact search."""
    for d in range(1, 10**6 + 1):
        if cubic_value(d) >= 0:
            return d
    raise RuntimeError("no admissible d found below 10**6")


def choose_m(d: int) -> int:
    """The near-optimal jet order floor(d/12)."""
    if d < 12:
        raise ValueError("choose_m requires d >= 12")
    return d // 12


def e_upper_bound(d: int) -> int:
    """floor(d^2/648), the largest second degree the counting argument covers."""
    if d < 1:
        raise ValueError("e_upper_bound requires d >= 1")
    return d * d // 648


def dof_lower_bound(d: int, m: int) -> Fraction:
    """(d-4m)^2/2 * m^3/6, the closed-form minorant of dof at a = d-4m."""
    return Fraction((d - 4 * m) ** 2, 2) * Fraction(m ** 3, 6)


def constraint_upper_bound(d: int, e: int) -> Fraction:
    """(d/12+1)*d*(d + d*d/12 + e*d/12) with exact rational d/12."""
    d12 = Fraction(d, 12)
    return (d12 + 1) * d * (d + d * d12 + e * d12)


@dataclass(frozen=True)
class DimensionBound:
    """Combinatorial and closed-form bounds on the solution-space dimension."""

    d: int
    e: int
    m: int
    a: int
    c: int
    combinatorial: int        # dof(a, m) - constraint_bound(d, e, m), may be negative
    printed_cubic: Fraction   # the closed-form floor in d alone

    @property
    def guaranteed(self) -> int:
        return max(0, self.combinatorial)


def dimension_lower_bound(d: int, e: int) -> DimensionBound:
    """Both dimension bounds at the canonical choices m = floor(d/12), a = d-4m, c = d."""
    m = d // 12
    a = d - 4 * m
    if m >= 1:
        combinatorial = dof(a, m) - constraint_bound(d, e, m)
    else:
        combinatorial = dof(a, 0)  # no jet order, no constraints to bound
    return DimensionBound(d=d, e=e, m=m, a=a, c=d,
                          combinatorial=combinatorial, printed_cubic=cubic_value(d))


def euler_characteristic(d: int, e: int, m: int) -> Fraction:
    """The printed Euler characteristic polynomial, evaluated exactly.

    chi = (1/288) * ( m^3 [24 d^2 e^2 - 120 (d^2 e + d e^2) + 360 d e]
                    + m^2 [-72 d^2 e^2 - 72 (d^3 e + d e^3) + 360 (d^2 e + d e^2) - 720 d e]
                    + m   [-60 d^2 e^2 - 48 (d^3 e + d e^3) + 300 (d^2 e + d e^2) - 660 d e]
                    +      36 d^2 e^2 + 24 (d^3 e + d e^3) - 180 (d^2 e + d e^2) + 420 d e )
    """
    if d < 1 or e < 1 or m < 0:
        raise ValueError("euler_characteristic requires d, e >= 1 and m >= 0")
    b3, b2, b1, b0 = chi_brackets(d, e)
    return Fraction(m ** 3 * b3 + m ** 2 * b2 + m * b1 + b0, 288)


def chi_brackets(d: int, e: int) -> tuple[int, int, int, int]:
    """The four integer brackets (m^3, m^2, m^1, m^0) of 288*chi."""
    de = d * e
    d2e2 = d * d * e * e
    s21 = d * d * e + d * e * e        # d^2 e + d e^2
    s31 = d ** 3 * e + d * e ** 3      # d^3 e + d e^3
    b3 = 24 * d2e2 - 120 * s21 + 360 * de
    b2 = -72 * d2e2 - 72 * s31 + 360 * s21 - 720 * de
    b1 = -60 * d2e2 - 48 * s31 + 300 * s21 - 660 * de
    b0 = 36 * d2e2 + 24 * s31 - 180 * s21 + 420 * de
    return b3, b2, b1, b0


#: Classical value of chi(O) for a smooth (2,3) complete intersection surface
#: (a K3 surface), used as an independent cross-check target.
CLASSICAL_CHI_2_3 = 2


@dataclass(frozen=True)
class ChiCrossCheck:
    """Outcome of evaluating the printed formula at (d,e,m) = (2,3,0)."""

    formula_value: Fraction
    classical_value: int
    agrees: bool


def chi_cross_check_2_3() -> ChiCrossCheck:
    """Compare the printed formula at (2,3,0) with the classical K3 value.

    The formula is evaluated exactly as printed and the outcome recorded;
    a disagreement is surfaced, never patched.
    """
    value = euler_characteristic(2, 3, 0)
    return ChiCrossCheck(formula_value=value,
                         classical_value=CLASSICAL_CHI_2_3,
                         agrees=value == CLASSICAL_CHI_2_3)


@dataclass(frozen=True)
class CountReport:
    """All counts and bounds for one parameter choice, computed deterministically."""

    d: int
    e: int
    m: int
    a: int
    c: int
    dof: int
    constraint_bound: int
    dof_lower: Fraction
    constraint_upper: Fraction
    cubic_value: Fraction
    chi: Fraction

    def to_json_dict(self) -> dict:
        return {
            "d": self.d, "e": self.e, "m": self.m, "a": self.a, "c": self.c,
            "dof": self.dof,
            "constraint_bound": self.constraint_bound,
            "dof_lower": str(self.dof_lower),
            "constraint_upper": str(self.constraint_upper),
            "cubic_value": str(self.cubic_value),
            "chi": str(self.chi),
            "combinatorial_dimension_bound": self.dof - self.constraint_bound,
        }


def count_report(d: int, e: int, m: int | None = None, a: int | None = None,
                 c: int | None = None) -> CountReport:
    """CountReport at the canonical parameters unless overridden."""
    if d < 1 or e < 1:
        raise ValueError("count_report requires d, e >= 1")
    if m is None:
        m = max(1, d // 12)
    if a is None:
        a = max(0, d - 4 * m)
    if c is None:
        c = d
    if m < 1:
        raise ValueError("count_report requires m >= 1")
    if c < 0:
        raise ValueError("count_report requires c >= 0")
    report = CountReport(
        d=d, e=e, m=m, a=a, c=c,
        dof=dof(a, m),
        constraint_bound=constraint_bound(d, e, m),
        dof_lower=dof_lower_bound(d, m),
        constraint_upper=constraint_upper_bound(d, e),
        cubic_value=cubic_value(d),
        chi=euler_characteristic(d, e, m),
    )
    if report.dof < 0 or report.constraint_bound < 0:
        raise AssertionError("count invariants violated")
    return report
