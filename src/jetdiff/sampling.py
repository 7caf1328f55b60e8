"""Seeded random generation of surfaces and coefficient fields.

All randomness in the package flows through explicitly seeded Random
instances so that audits, verification suites and reports are reproducible
run to run; dense polynomials carry a nonzero coefficient on every monomial
(the generic-position checks then pass with probability essentially 1).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .genericity import GenericityReport, full_genericity_audit
from .jetbuilder import XY, CoefficientField, SurfacePair, index_tuples, monomials_upto
from .polyring import ExactPoly


def random_dense_polynomial(rng: random.Random, degree: int) -> ExactPoly:
    """Dense polynomial of exact total degree with all monomials present."""
    terms = {}
    for h in range(degree + 1):
        for i in range(degree + 1 - h):
            terms[(h, i)] = Fraction(rng.randint(1, 9) * rng.choice((1, -1)))
    return ExactPoly(XY, terms)


def random_surface_pair(rng: random.Random, d: int, e: int) -> SurfacePair:
    return SurfacePair(random_dense_polynomial(rng, d), random_dense_polynomial(rng, e))


def random_generic_surface(rng: random.Random, d: int, e: int,
                           audit_seed: int) -> tuple[SurfacePair, GenericityReport]:
    """Sample surfaces until the full genericity audit passes (at most 12 tries)."""
    last_report = None
    for _ in range(12):
        surf = random_surface_pair(rng, d, e)
        report = full_genericity_audit(surf, seed=audit_seed)
        if report.passed:
            return surf, report
        last_report = report
    raise RuntimeError(
        f"no audited-generic surface with d={d}, e={e} found in 12 tries; "
        f"last failing checks: {[c.name for c in last_report.failing()]}")


def random_small_polynomial(rng: random.Random, a: int) -> ExactPoly:
    """Polynomial of degree <= a, each coefficient drawn from -5..5 (zeros allowed)."""
    terms = {}
    for (h, i) in monomials_upto(a):
        value = rng.randint(-5, 5)
        if value:
            terms[(h, i)] = Fraction(value)
    return ExactPoly(XY, terms)


def random_coefficient_field(rng: random.Random, m: int, a: int) -> CoefficientField:
    """Coefficient field with random entries of degree <= a (zeros allowed)."""
    return CoefficientField(m, {t: random_small_polynomial(rng, a) for t in index_tuples(m)})
