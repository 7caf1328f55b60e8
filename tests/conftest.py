from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetdiff.jetbuilder import XY, CoefficientField, JetSpec, expand_lambda, index_tuples
from jetdiff.polyring import ExactPoly


def random_poly(rng: random.Random, degree: int, bound: int = 6,
                allow_zero_terms: bool = True) -> ExactPoly:
    """Random bivariate polynomial of degree <= degree (sparse unless told otherwise)."""
    terms = {}
    for h in range(degree + 1):
        for i in range(degree + 1 - h):
            value = rng.randint(-bound, bound)
            if value or not allow_zero_terms:
                terms[(h, i)] = Fraction(value if value else 1)
    return ExactPoly(XY, terms)


def dof_enumerated(a: int, m: int) -> int:
    """Brute-force oracle for counting.dof: direct enumeration of ((h,i),(j,k,p,q))."""
    monomials = sum(1 for h in range(a + 1) for i in range(a + 1) if h + i <= a)
    tuples = sum(1 for j in range(m + 1) for k in range(m + 1) for p in range(m + 1)
                 if j + k + p <= m)
    return monomials * tuples


def triangular_slice_holds(surf, m: int, k_prime: int, a: int, draw) -> bool:
    """Oracle for the triangular reduction of the Lambda expansion.

    With A[j,k,p,q] = 0 for k <= k'-1 (the other entries drawn by draw()),
    the beta = k' coefficient of the expansion must equal R^k' S^k' times
    the reduced sum of A[j,k',p1,q1] R_x^p1 S_x^q1 R^(m-k'-p1) S^(m-k'-q1).
    """
    field = CoefficientField(m, {t: draw() for t in index_tuples(m) if t[1] >= k_prime})
    expansion = expand_lambda(field, surf, JetSpec(m=m, c=0, a=a))
    lhs = expansion.entries[(m - k_prime, k_prime)]
    rx, _, sx, _ = surf.partials()
    reduced = ExactPoly.zero(XY)
    for j in range(m - k_prime + 1):
        for p1 in range(m - k_prime - j + 1):
            q1 = m - k_prime - j - p1
            a_poly = field.entries[(j, k_prime, p1, q1)]
            reduced = reduced + (a_poly * rx ** p1 * sx ** q1
                                 * surf.r ** (m - k_prime - p1) * surf.s ** (m - k_prime - q1))
    return lhs == surf.r ** k_prime * surf.s ** k_prime * reduced


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20120607)
