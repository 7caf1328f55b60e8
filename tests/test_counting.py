from fractions import Fraction

import pytest

from jetdiff.counting import (
    ChiCrossCheck,
    chi_brackets,
    chi_cross_check_2_3,
    constraint_bound,
    constraint_upper_bound,
    count_report,
    cubic_value,
    dof,
    dof_lower_bound,
    e_upper_bound,
    euler_characteristic,
    minimal_admissible_d,
    unpruned_row_bound,
)
from conftest import dof_enumerated


class TestDof:
    def test_trivial_cases(self):
        assert dof(0, 0) == 1
        assert dof(1, 1) == 12
        assert dof(8, 1) == 180

    def test_matches_enumeration(self):
        for a in range(9):
            for m in range(6):
                assert dof(a, m) == dof_enumerated(a, m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dof(-1, 0)


class TestConstraintBound:
    def test_printed_values(self):
        assert constraint_bound(5, 5, 1) == 150
        assert constraint_bound(1, 1, 1) == 6

    def test_rectangle_dominates_trapezoid(self):
        # oracle: enumerate the monomials x^h y^i with i < d and
        # h + i <= d-1 + dm + em actually subject to constraints
        for d in range(1, 7):
            for e in range(d, 7):
                for m in range(1, 4):
                    degree_cap = d - 1 + d * m + e * m
                    trapezoid = sum(1 for i in range(d)
                                    for h in range(degree_cap - i + 1))
                    assert trapezoid <= d * (d + d * m + e * m)
                    assert (m + 1) * trapezoid <= constraint_bound(d, e, m)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            constraint_bound(0, 1, 1)

    def test_unpruned_row_bound_at_the_canonical_a_and_c(self):
        # a = d - 1, c = d turns (m+1) c (a+dm+em+1) into (m+1) d (d+dm+em)
        for d in range(1, 9):
            for e in range(d, 9):
                for m in range(1, 4):
                    assert unpruned_row_bound(d, e, m, d - 1, d) == constraint_bound(d, e, m)
        assert unpruned_row_bound(5, 5, 1, 1, 5) == 2 * 5 * (1 + 5 + 5 + 1)


class TestCubicThreshold:
    def test_first_admissible_degree(self):
        assert cubic_value(752) > 0
        assert cubic_value(751) < 0

    def test_constant_term(self):
        assert cubic_value(0) == Fraction(-28, 27)

    def test_minimal_admissible(self):
        least = minimal_admissible_d()
        assert least == 752
        assert cubic_value(least - 1) < 0 <= cubic_value(least)

    def test_monotone_beyond_root(self):
        for d in range(752, 1000):
            assert cubic_value(d + 1) > cubic_value(d)


class TestParameterChoices:
    def test_e_upper_bound(self):
        assert e_upper_bound(752) == 872

    def test_floor_sandwich(self):
        for d in range(12, 201):
            report = count_report(d, d)
            assert Fraction(d, 12) - 1 <= report.m <= Fraction(d, 12)
            assert (report.a, report.c) == (d - 4 * report.m, d)


class TestDimensionBounds:
    def test_positive_at_threshold(self):
        report = count_report(752, 752)
        combinatorial = report.to_json_dict()["combinatorial_dimension_bound"]
        assert combinatorial == report.dof - report.constraint_bound > 0
        assert report.cubic_value > 0
        assert combinatorial >= report.cubic_value

    def test_below_threshold_reported_as_is(self):
        report = count_report(100, 100)
        assert report.cubic_value < 0
        # a negative bound is reported unclipped
        combinatorial = report.to_json_dict()["combinatorial_dimension_bound"]
        assert combinatorial == report.dof - report.constraint_bound < 0

    def test_dof_minorant(self):
        for d in (96, 240, 752):
            m = d // 12
            assert dof(d - 4 * m, m) >= dof_lower_bound(d, m)

    def test_inequality_chain(self):
        # exact rational comparison of the auxiliary minorant/majorant chain
        for d in (752, 900, 1200):
            m = d // 12
            e = e_upper_bound(d)
            d12 = Fraction(d, 12)
            minorant = Fraction(1, 12) * Fraction(4, 9) * d * d * (d12 - 1) ** 3
            assert minorant <= dof(d - 4 * m, m)
            assert constraint_bound(d, e, m) <= constraint_upper_bound(d, e)
            assert constraint_upper_bound(d, e) == (d12 + 1) * d * (d + d * d12 + e * d12)


class TestEulerCharacteristic:
    def test_m_zero_is_constant_bracket(self):
        for d, e in ((2, 3), (3, 5), (4, 4)):
            _, _, _, b0 = chi_brackets(d, e)
            assert euler_characteristic(d, e, 0) == Fraction(b0, 288)

    def test_symmetry(self):
        for d in range(1, 7):
            for e in range(1, 7):
                for m in (0, 1, 3):
                    assert euler_characteristic(d, e, m) == euler_characteristic(e, d, m)

    def test_interpolation_recovers_brackets(self):
        # finite differences of the cubic in m recover the printed brackets
        for d, e in ((2, 3), (3, 4), (5, 7)):
            values = [euler_characteristic(d, e, m) * 288 for m in range(4)]
            c0 = values[0]
            c3 = (values[3] - 3 * values[2] + 3 * values[1] - values[0]) / 6
            c2 = (values[2] - 2 * values[1] + values[0]) / 2 - 3 * c3
            c1 = values[1] - values[0] - c2 - c3
            b3, b2, b1, b0 = chi_brackets(d, e)
            assert (c3, c2, c1, c0) == (b3, b2, b1, b0)

    def test_cross_check_2_3_0_recorded(self):
        check = chi_cross_check_2_3()
        assert isinstance(check, ChiCrossCheck)
        assert check.formula_value == 1
        assert check.classical_value == 2
        assert check.agrees is False


class TestCountReport:
    def test_canonical_defaults(self):
        report = count_report(752, 752)
        assert report.m == 62 and report.a == 504 and report.c == 752
        assert report.dof == dof(504, 62)
        assert report.dof >= 0 and report.constraint_bound >= 0
        body = report.to_json_dict()
        assert body["combinatorial_dimension_bound"] == report.dof - report.constraint_bound

    def test_overrides(self):
        report = count_report(5, 5, m=1, a=1, c=5)
        assert report.dof == 12 and report.constraint_bound == 150

    def test_below_twelve_the_jet_order_is_one(self):
        # floor(d/12) = 0 is no jet order: m defaults to 1 and a to max(0, d - 4)
        for d, a in ((11, 7), (5, 1), (3, 0)):
            report = count_report(d, d)
            assert (report.m, report.a, report.c) == (1, a, d)
            assert report.dof == dof(a, 1)
