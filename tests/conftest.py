from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetdiff.jetbuilder import XY
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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20120607)
