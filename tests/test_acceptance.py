"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every assertion is bit-exact (Fraction arithmetic end to end); the stated
runtime budgets are asserted as generous wall-clock caps.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from jetdiff.counting import (
    chi_brackets,
    chi_cross_check_2_3,
    constraint_bound,
    cubic_value,
    dof,
    euler_characteristic,
    minimal_admissible_d,
)
from jetdiff.divisibility import (
    assemble_divisibility_system,
    build_section,
    kernel_basis,
    solution_dimension,
)
from jetdiff.genericity import pair_transversality_check
from jetdiff.injectivity import analyze_injectivity
from jetdiff.jetbuilder import JetSpec, build_jet, expand_lambda
from jetdiff.polyring import monomial_quotient, poly_diff
from jetdiff.sampling import (
    random_coefficient_field,
    random_dense_polynomial,
    random_generic_surface,
    random_surface_pair,
)
from jetdiff.surfacecharts import (
    restrict_to_surface,
    verify_derivative_transfer,
    verify_infinity_exponents,
)
from conftest import dof_enumerated


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s"


def test_criterion_01_threshold_reproduction():
    with criterion(1, "threshold d=752", 1.0):
        least = minimal_admissible_d()
        assert least == 752
        assert cubic_value(751) < 0
        assert cubic_value(752) >= 0
        assert cubic_value(752) == Fraction(1312, 729)


def test_criterion_02_dof_oracle_equivalence():
    with criterion(2, "dof enumeration oracle", 1.0):
        cases = 0
        for a in range(9):
            for m in range(6):
                assert dof(a, m) == dof_enumerated(a, m)
                cases += 1
        assert cases == 54


def test_criterion_03_expansion_consistency():
    with criterion(3, "expansion reconstruction", 30.0):
        rng = random.Random(3003)
        for _ in range(20):
            m = rng.randint(1, 3)
            d = rng.randint(1, 4)
            e = rng.randint(d, 4)
            a = rng.randint(0, 2)
            surf = random_surface_pair(rng, d, e)
            field = random_coefficient_field(rng, m, a)
            spec = JetSpec(m=m, c=1, a=a)
            jet = build_jet(field, surf, spec)
            assert expand_lambda(field, surf, spec).reconstruct() == jet


def test_criterion_04_injectivity_theorem_desk_scale():
    with criterion(4, "injectivity full rank", 300.0):
        rng = random.Random(4004)
        for d in (2, 3, 4):
            a = d - 2
            for index in range(5):
                surf, audit = random_generic_surface(rng, d, d,
                                                     audit_seed=4100 + 10 * d + index)
                for m in (1, 2):
                    result = analyze_injectivity(surf, m, a, audit=audit)
                    assert result.hypotheses_verified
                    assert result.injective, (
                        f"kernel at d=e={d}, m={m}, a={a}: build failure")


def test_criterion_05_divisibility_pipeline():
    with criterion(5, "divisibility pipeline d=e=5", 120.0):
        rng = random.Random(5005)
        for index in range(3):
            surf, _audit = random_generic_surface(rng, 5, 5, audit_seed=5100 + index)
            spec = JetSpec(m=1, c=5, a=1)
            system = assemble_divisibility_system(surf, spec)
            basis = kernel_basis(system)
            for vector in basis:
                field_cert = build_section(surf, spec, vector)
                expansion = expand_lambda(field_cert.field, surf, spec)
                for poly in expansion.entries.values():
                    _, exact = monomial_quotient(poly, "y", 5)
                    assert exact
                _, exact = restrict_to_surface(field_cert.field, surf, spec)
                assert exact
                assert field_cert.checks["surface_restriction_exact"]


def test_criterion_05_nonzero_kernel_sections():
    # criterion 05's kernel is {0} on all three surfaces at m=1, c=5, a=1,
    # so its certificate loop never runs; at m=2, c=2, a=3 the kernel is not
    # trivial and real sections go through build_section
    with criterion(5, "divisibility pipeline d=e=5, nonzero kernel", 60.0):
        surf, _audit = random_generic_surface(random.Random(5005), 5, 5, audit_seed=5100)
        spec = JetSpec(m=2, c=2, a=3)
        system = assemble_divisibility_system(surf, spec)
        basis = kernel_basis(system)
        assert basis
        for vector in basis[:3]:
            assert any(vector)
            assert all(v == 0 for v in system.matvec(vector))
            field_cert = build_section(surf, spec, vector)
            expansion = expand_lambda(field_cert.field, surf, spec)
            for poly in expansion.entries.values():
                _, exact = monomial_quotient(poly, "y", spec.c)
                assert exact
            _, exact = monomial_quotient(field_cert.jet, "y", spec.c)
            assert exact and not field_cert.jet.is_zero()
            assert field_cert.checks["surface_restriction_exact"]


def test_criterion_06_transfer_identity():
    with criterion(6, "derivative transfer identity", 60.0):
        rng = random.Random(6006)
        for degree in range(1, 7):
            for _ in range(10):
                r = random_dense_polynomial(rng, degree)
                assert verify_derivative_transfer(r, degree, "inv_x")
                assert verify_derivative_transfer(r, degree, "inv_y")


def test_criterion_07_infinity_bookkeeping():
    with criterion(7, "infinity exponent grid", 1.0):
        for m in range(1, 5):
            for c in range(1, 25):
                for a in range(0, c - 4 * m + 1):
                    report = verify_infinity_exponents(JetSpec(m=m, c=c, a=a))
                    assert report.passed and report.witness is None
                a_violating = c - 4 * m + 1
                if a_violating >= 0:
                    report = verify_infinity_exponents(JetSpec(m=m, c=c, a=a_violating))
                    assert not report.passed
                    assert report.witness is not None
                    j, k, p, q, h, i = report.witness
                    residual = (a_violating - (h + i) + 2 * m
                                - (2 * j + 2 * k + p + q))
                    assert report.prefactor_exponent + residual < 0


def test_criterion_08_bezout_audit():
    with criterion(8, "Bezout d(e-1) count", 10.0):
        rng = random.Random(8008)
        surf, _ = random_generic_surface(rng, 3, 3, audit_seed=8100)
        report = pair_transversality_check(surf.r, poly_diff(surf.s, "x"))
        assert report.resultant_degree == 3 * 2 == report.degree_product
        assert report.squarefree and report.all_affine and report.passed


def test_criterion_09_dimension_bound_substitute():
    with criterion(9, "dimension vs counting bound", 120.0):
        # the full theorem instance (d = 752: ~5.6e9 unknowns) is out of desk
        # reach; its counting side is checked exactly, and the dimension
        # inequality is verified on every desk-scale solve
        assert dof(504, 62) == 127765 * 43680
        assert dof(504, 62) - constraint_bound(752, 752, 62) == 1127431200

        rng = random.Random(9009)
        for index in range(3):
            surf, _ = random_generic_surface(rng, 5, 5, audit_seed=9100 + index)
            for spec in (JetSpec(m=1, c=5, a=1), JetSpec(m=1, c=0, a=1)):
                dimension = solution_dimension(surf, spec)
                lower = dof(spec.a, spec.m) - constraint_bound(surf.d, surf.e, spec.m)
                if lower >= 0:
                    assert dimension >= lower
                if spec.c == 0:
                    assert dimension == dof(spec.a, spec.m)


def test_criterion_10_chi_formula():
    with criterion(10, "Euler characteristic formula", 1.0):
        for d in range(1, 7):
            for e in range(1, 7):
                for m in (0, 1, 2, 5):
                    assert euler_characteristic(d, e, m) == euler_characteristic(e, d, m)
        for d, e in ((2, 3), (4, 6), (5, 5)):
            values = [euler_characteristic(d, e, m) * 288 for m in range(4)]
            c0 = values[0]
            c3 = (values[3] - 3 * values[2] + 3 * values[1] - values[0]) / 6
            c2 = (values[2] - 2 * values[1] + values[0]) / 2 - 3 * c3
            c1 = values[1] - values[0] - c2 - c3
            assert (c3, c2, c1, c0) == tuple(map(Fraction, chi_brackets(d, e)))
        check = chi_cross_check_2_3()
        assert check.formula_value == 1
        assert check.classical_value == 2
        assert check.agrees is False
