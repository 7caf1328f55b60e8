import itertools
import time
from fractions import Fraction
from functools import partial
from math import gcd, prod
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from jetdiff import modular, polyring
from jetdiff.jetbuilder import JET_VARS, XY
from jetdiff.polyring import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    NEG_INF,
    ExactPoly,
    ParseError,
    PowerCache,
    VarSet,
    gcd_univariate,
    monomial_quotient,
    mul_below,
    poly_diff,
    poly_parse,
    poly_substitute,
    rational_roots,
    resultant,
    squarefree_univariate,
    truncate_below,
)
from conftest import random_poly

X = ExactPoly.variable(XY, "x")
Y = ExactPoly.variable(XY, "y")
ONE = ExactPoly.const(XY, 1)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

ODD_PRIMES = [p for p in range(3, 1000, 2) if all(p % d for d in range(3, p, 2))]


def reference_mul(p, q):
    """Product by the tuple-exponent, Fraction-coefficient double loop."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(exps, Fraction(0)) + ca * cb
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
    return ExactPoly(p.vars, out)


def fraction_sum(a, b, sign=1):
    """Term map of a + sign * b, for term maps a, b, by the Fraction-coefficient loop."""
    out = {exps: coeff for exps, coeff in a.items() if coeff}
    for exps, coeff in b.items():
        acc = out.get(exps, Fraction(0)) + sign * coeff
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


def reference_gcd(p, q, name):
    """Monic gcd by Euclid's algorithm on Fraction coefficient lists."""
    i = p.vars.index(name)

    def coeffs(poly):
        dense = [Fraction(0)] * (max((e[i] for e in poly.terms), default=-1) + 1)
        for exps, coeff in poly.terms.items():
            dense[exps[i]] = coeff
        return dense

    a, b = coeffs(p), coeffs(q)
    while b:
        r = list(a)
        while len(r) >= len(b):
            factor = r[-1] / b[-1]
            shift = len(r) - len(b)
            for k, c in enumerate(b):
                r[k + shift] -= factor * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    exps = [0] * len(p.vars)
    out = {}
    for k, c in enumerate(a):
        exps[i] = k
        out[tuple(exps)] = c / a[-1]
    return ExactPoly(p.vars, out)


def exact_divide(p, q):
    """Exact polynomial division p / q; raises ValueError if q does not divide p."""
    if p.vars != q.vars:
        raise ValueError("variable-set mismatch")
    if q.is_zero():
        raise ValueError("division by the zero polynomial")
    if p.is_zero():
        return p
    q_lead, q_coeff = q.leading_term()
    quotient = {}
    rem = p
    while not rem.is_zero():
        r_lead, r_coeff = rem.leading_term()
        exps = tuple(a - b for a, b in zip(r_lead, q_lead))
        if any(e < 0 for e in exps):
            raise ValueError("inexact polynomial division")
        coeff = r_coeff / q_coeff
        quotient[exps] = quotient.get(exps, Fraction(0)) + coeff
        # q * x^exps * coeff by its own shift, independent of ExactPoly.__mul__
        rem = rem - ExactPoly(q.vars, {tuple(map(add, e, exps)): c * coeff
                                       for e, c in q.terms.items()})
    return ExactPoly(p.vars, quotient)


def univariate_coeffs(p, name):
    """Dense coefficient list of p viewed in one variable.

    Entry k is the coefficient of name**k, an ExactPoly over the same
    VarSet with zero exponent in that variable.  The zero polynomial
    yields an empty list.
    """
    i = p.vars.index(name)
    buckets = [{} for _ in range(max((e[i] for e in p.terms), default=-1) + 1)]
    for exps, coeff in p.terms.items():
        buckets[exps[i]][exps[:i] + (0,) + exps[i + 1:]] = coeff
    return [ExactPoly(p.vars, b) for b in buckets]


def sylvester_resultant(p, q, name):
    """Resultant as the Sylvester determinant, by fraction-free Bareiss
    elimination over the polynomial ring (reference for `resultant`)."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial is undefined")
    if p.vars != q.vars:
        raise ValueError("variable-set mismatch")
    vars = p.vars
    f = univariate_coeffs(p, name)
    g = univariate_coeffs(q, name)
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    if size == 0:
        return ExactPoly.const(vars, 1)
    zero = ExactPoly.zero(vars)
    rows = []
    for i in range(m):
        row = [zero] * size
        for k, coeff in enumerate(reversed(f)):
            row[i + k] = coeff
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for k, coeff in enumerate(reversed(g)):
            row[i + k] = coeff
        rows.append(row)

    sign = 1
    prev = ExactPoly.const(vars, 1)
    for k in range(size - 1):
        pivot_row = next((i for i in range(k, size) if not rows[i][k].is_zero()), None)
        if pivot_row is None:
            return zero
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = exact_divide(pivot * rows[i][j] - rows[i][k] * rows[k][j], prev)
            rows[i][k] = zero
        prev = pivot
    det = rows[size - 1][size - 1]
    return det if sign == 1 else -det


def rationals(max_den=12):
    return st.builds(Fraction, st.integers(-30, 30), st.integers(1, max_den))


# small exponents, and some up to 64 that spread a product's exponent box
EXPONENTS = st.integers(0, 9) | st.sampled_from([15, 16, 17, 31, 32, 33, 63, 64])


def term_maps(vars, max_terms=8, exponents=EXPONENTS):
    keys = st.tuples(*[exponents] * len(vars))
    return st.dictionaries(keys, rationals(), max_size=max_terms)


def polys(vars, max_terms=8):
    return term_maps(vars, max_terms).map(lambda terms: ExactPoly(vars, terms))


def one_terms(vars):
    """One-term polynomials whose coefficient is a rational other than 0 and +-1."""
    return st.builds(ExactPoly.monomial, st.just(vars), st.tuples(*[EXPONENTS] * len(vars)),
                     rationals().filter(lambda c: abs(c) != 1 and c))


@st.composite
def dense_polys(draw, vars):
    """Every monomial of total degree <= n (n <= 3) with a nonzero coefficient."""
    degree = draw(st.integers(1, 3))
    monomials = [e for e in itertools.product(range(degree + 1), repeat=len(vars))
                 if sum(e) <= degree]
    return ExactPoly(vars, {e: draw(rationals().filter(bool)) for e in monomials})


@st.composite
def spread_polys(draw, vars):
    """Two or three terms with exponents up to 100, one with x^50 or more."""
    exponents = st.tuples(*[st.integers(0, 100)] * len(vars))
    top = (draw(st.integers(50, 100)),) + draw(exponents)[1:]
    terms = draw(st.dictionaries(exponents.filter(lambda e: e != top), rationals().filter(bool),
                                 min_size=1, max_size=2))
    terms[top] = draw(rationals().filter(bool))
    return ExactPoly(vars, terms)


def product_box(p, q, k=None):
    """The slots of the exponent box of p * q, or of its terms below y^k."""
    radices = [max(e[v] for e in p.num) + max(e[v] for e in q.num) + 1
               for v in range(len(p.vars))]
    if k is not None:
        radices[1] = min(radices[1], max(k, 1))
    return prod(radices)


# nonzero bivariate polynomials of degree at most 3 in x and 7 in y; at most
# six terms, so the y-degrees have gaps; denominators up to 97, as the
# audit's shears produce
SPARSE_BIVARIATE = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 7)),
                                   rationals(97).filter(bool), min_size=1, max_size=6).map(
    lambda terms: ExactPoly(XY, terms))


def univariate(name, max_degree=4):
    """Nonzero polynomials in one variable of XY with rational coefficients."""
    i = XY.index(name)

    def build(coeffs):
        return ExactPoly(XY, {tuple(k if j == i else 0 for j in range(2)): c
                              for k, c in enumerate(coeffs)})

    nonzero = rationals(7).filter(bool)
    return st.builds(lambda low, lead: build(low + [lead]),
                     st.lists(rationals(7), max_size=max_degree), nonzero)


class TestParsing:
    def test_basic_terms(self):
        p = poly_parse("x^2*y - 1/2", XY)
        assert p.terms == {(2, 1): Fraction(1), (0, 0): Fraction(-1, 2)}

    def test_zero(self):
        assert poly_parse("0", XY).terms == {}

    def test_binomial_square(self):
        assert poly_parse("(x+y)^2", XY) == poly_parse("x^2 + 2*x*y + y^2", XY)

    def test_print_parse_idempotent(self, rng):
        for _ in range(40):
            p = random_poly(rng, rng.randint(0, 5))
            printed = str(p)
            assert poly_parse(printed, XY) == p
            assert str(poly_parse(printed, XY)) == printed

    @PROPERTY
    @given(polys(XY) | polys(JET_VARS))
    def test_parse_print_parse_identity(self, p):
        printed = str(p)
        parsed = poly_parse(printed, p.vars)
        assert parsed == p
        assert str(parsed) == printed

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            poly_parse("x + * y", XY)
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            poly_parse("x + w", XY)

    def test_non_decimal_digits_refused(self):
        # "²" is a digit to str.isdigit() but not to int()
        for text, position in (("x^²", 2), ("²*x", 0), ("1²", 1)):
            with pytest.raises(ParseError, match="unexpected character") as err:
                poly_parse(text, XY)
            assert err.value.position == position
        assert poly_parse("٣*x", XY) == X.scale(3)

    @PROPERTY
    @given(st.text(st.sampled_from("xy0123456789+-*^/()_' ")
                   | st.characters(whitelist_categories=("Nd", "Nl", "No"))
                   | st.characters(whitelist_categories=("L", "Zs")),
                   max_size=24))
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            poly_parse(text, XY)
        except ParseError:
            pass

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            poly_parse("1/0", XY)

    def test_nesting_depth_capped(self):
        at_cap = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert poly_parse(at_cap, XY) == X
        with pytest.raises(ParseError) as err:
            poly_parse("(" + at_cap + ")", XY)
        assert err.value.position == MAX_NESTING

    def test_expansion_degree_capped(self):
        at_cap = poly_parse(f"(x+1)^{MAX_DEGREE // 2}*(x+y)^{MAX_DEGREE // 2}", XY)
        assert at_cap.total_degree() == MAX_DEGREE
        # single terms only add exponents: no expansion, no cap
        assert poly_parse("x^300*y^300*(x+1)", XY).total_degree() == 601
        over = [f"(x+1)^{MAX_DEGREE + 1}", f"(x+1)^50*(y-1)^{MAX_DEGREE - 49}",
                f"(x+y)*(x^{MAX_DEGREE}+1)", f"(x^2+y)^{MAX_DEGREE // 2 + 1}"]
        for text in over:
            with pytest.raises(ParseError, match="exceeds"):
                poly_parse(text, XY)

    def test_number_size_capped(self):
        at_cap = poly_parse(f"2^{MAX_COEFF_BITS - 1}*x", XY)
        assert at_cap.coefficient((1, 0)) == 2 ** (MAX_COEFF_BITS - 1)
        # its printed literal has MAX_COEFF_BITS bits and parses back
        assert poly_parse(str(at_cap), XY) == at_cap
        over = ["7" * 5000,                                   # int() refuses 5000 digits
                "x^" + "9" * 5000,
                "0" * 5000 + "1/" + "3" * 2000,
                f"2^{MAX_COEFF_BITS}",
                "2^10000000*x",
                f"2^{MAX_COEFF_BITS - 1} + 2^{MAX_COEFF_BITS - 1}",
                # refused on a bound before they are computed: computed, each
                # would take seconds (a power of 2 multiplies faster)
                "3^100000000*x",
                "(3^2000*x + 1)^100",
                "*".join(["3^2000"] * 500),
                # the shared denominator grows with every summand
                " + ".join(f"1/{p}^{4000 // p.bit_length()}" for p in ODD_PRIMES)]
        for text in over:
            start = time.monotonic()
            with pytest.raises(ParseError, match="bits"):
                poly_parse(text, XY)
            assert time.monotonic() - start < 1

    def test_primed_identifiers(self):
        jet = VarSet(("x", "x'"))
        p = poly_parse("3*x'^2 - x", jet)
        assert p.coefficient((0, 2)) == 3


class TestRingOps:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == poly_parse("x^2 - y^2", XY)

    def test_absorbing_zero(self):
        p = poly_parse("x^3 - y + 2", XY)
        assert p * ExactPoly.zero(XY) == ExactPoly.zero(XY)

    def test_cube_expansion(self):
        assert (X + ONE) ** 3 == poly_parse("x^3 + 3*x^2 + 3*x + 1", XY)

    def test_ring_laws(self, rng):
        for _ in range(25):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            r = random_poly(rng, 3)
            assert (p + q) + r == p + (q + r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p

    @PROPERTY
    @given(polys(XY), polys(XY))
    @example(ExactPoly.zero(XY), poly_parse("x^3 - y", XY))
    @example(ExactPoly.const(XY, Fraction(-2, 3)), poly_parse("1/2*x^7 + y", XY))
    @example(poly_parse("x^7", XY), poly_parse("x", XY))
    @example(poly_parse("x^8*y^8 + 1/3", XY), poly_parse("x^8*y^8 - 2/5", XY))
    def test_mul_matches_reference_xy(self, p, q):
        product = p * q
        expected = reference_mul(p, q)
        assert product.terms == expected.terms
        assert str(product) == str(expected)
        assert all(type(c) is Fraction for c in product.terms.values())

    @PROPERTY
    @given(polys(JET_VARS), polys(JET_VARS))
    def test_mul_matches_reference_jet_vars(self, p, q):
        product = p * q
        expected = reference_mul(p, q)
        assert product.terms == expected.terms
        assert str(product) == str(expected)

    @PROPERTY
    @given(polys(JET_VARS, max_terms=5), polys(JET_VARS, max_terms=5))
    def test_mul_cancelling_cross_terms(self, p, q):
        # (p + q)(p - q) = p^2 - q^2: every cross term cancels
        product = (p + q) * (p - q)
        assert product.terms == reference_mul(p + q, p - q).terms
        assert product == reference_mul(p, p) - reference_mul(q, q)

    @PROPERTY
    @given(st.sampled_from([XY, JET_VARS]).flatmap(
        lambda vars: st.tuples(polys(vars), one_terms(vars))))
    @example((poly_parse("x^2 - 3*y", XY), ExactPoly.const(XY, Fraction(-5, 7))))
    @example((poly_parse("x^2 - 3*y", XY), ExactPoly.zero(XY)))
    @example((ExactPoly.zero(JET_VARS), ExactPoly.monomial(JET_VARS, (1, 2, 0, 3), 4)))
    # the product's content 6 cancels its denominator 6
    @example((poly_parse("1/6*x + 1/3*y", XY), ExactPoly.monomial(XY, (2, 1), 6)))
    def test_one_term_operand_matches_reference(self, pair):
        p, m = pair
        expected = reference_mul(p, m)
        for product in (p * m, m * p):
            assert product.terms == expected.terms
            assert_canonical(product)

    @PROPERTY
    @given(st.sampled_from([XY, JET_VARS]).flatmap(
        lambda vars: st.tuples(polys(vars), polys(vars))), st.integers(0, 6))
    @example((poly_parse("x*y^2 + 1/2*y - 3", XY), ExactPoly.monomial(XY, (1, 2), Fraction(3, 4))),
             3)
    @example((poly_parse("x + y", XY), poly_parse("x - y^2", XY)), 0)
    @example((poly_parse("x*y + 1/3*y^2", XY), poly_parse("x - 2*y", XY)), 6)
    def test_mul_below_matches_truncated_product(self, pair, k):
        p, q = pair
        product = p * q
        expected = truncate_below(product, "y", k)
        for low in (mul_below(p, q, "y", k), mul_below(q, p, "y", k)):
            assert low == expected
            assert_canonical(low)
        if k == 0:
            assert expected.is_zero()
        if all(e[1] < k for e in product.num):
            assert expected == product

    @PROPERTY
    @given(st.sampled_from([XY, JET_VARS]).flatmap(
        lambda vars: st.tuples(st.just("list"), dense_polys(vars), dense_polys(vars))
        | st.tuples(st.just("dict"), spread_polys(vars), spread_polys(vars))),
        st.integers(0, 8) | st.integers(0, 201))
    def test_product_matches_reference_on_both_accumulators(self, operands, k):
        # a product sums into a list over its exponent box unless the box has
        # more than 4*|a|*|b| + 64 slots; no workload product reaches the
        # dict, so both sides are drawn here, with and without a y-cut
        side, p, q = operands
        limit = 4 * len(p.num) * len(q.num) + 64
        assert (product_box(p, q) <= limit) == (side == "list")
        assert (product_box(p, q, k) <= limit) == (side == "list")
        expected = reference_mul(p, q)
        low = ExactPoly(p.vars, {e: c for e, c in expected.terms.items() if e[1] < k})
        assert p * q == q * p == expected
        assert mul_below(p, q, "y", k) == mul_below(q, p, "y", k) == low
        assert_canonical(p * q)
        assert_canonical(mul_below(p, q, "y", k))

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (1, -1), (1, 1.0)])
    def test_shift_rejects_bad_exponents(self, exps):
        # a shift is a product with a monomial, which validates its exponents
        with pytest.raises(ValueError):
            ExactPoly.monomial(XY, exps)

    def test_varset_mismatch(self):
        other = VarSet(("x", "z"))
        with pytest.raises(ValueError):
            X + ExactPoly.variable(other, "z")


def assert_canonical(p):
    """Integer numerators, none zero, over a positive denominator coprime to their content."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert all(len(e) == len(p.vars) and all(type(x) is int and x >= 0 for x in e)
               for e in p.num)


# term maps of degree at most 3 in x and in y, so powers and substitutions stay small
SMALL = term_maps(XY, max_terms=5, exponents=st.integers(0, 3))


class TestRepresentation:
    @PROPERTY
    @given(SMALL, SMALL, rationals(), st.integers(0, 3))
    def test_every_operation_returns_canonical_form(self, a, b, value, k):
        p, q = ExactPoly(XY, a), ExactPoly(XY, b)
        results = [p, p + q, p - q, -p, p.scale(value), p * q, p ** k,
                   p * ExactPoly.monomial(XY, (k, 1), value or 1),
                   p.extend_to(JET_VARS), poly_diff(p, "x"), poly_diff(p, "y"),
                   monomial_quotient(p, "y", k)[0], poly_substitute(p, {"x": q, "y": p}),
                   *univariate_coeffs(p, "y")]
        if not p.is_zero() and not q.is_zero():
            results.append(resultant(p, q, "y"))
        for r in results:
            assert_canonical(r)
        for exps in list(a) + [(0, 0)]:
            assert p.coefficient(exps) == a.get(exps, 0)
            assert type(p.coefficient(exps)) is Fraction
        if a and any(a.values()):
            lead = max((e for e, c in a.items() if c), key=lambda e: (sum(e), e))
            assert p.leading_term() == (lead, a[lead])

    @PROPERTY
    @given(univariate("x"), univariate("x"))
    def test_gcd_returns_canonical_form(self, p, q):
        assert_canonical(gcd_univariate(p, q))

    @PROPERTY
    @given(term_maps(XY), term_maps(XY))
    def test_sum_and_difference_match_fraction_oracle(self, a, b):
        p, q = ExactPoly(XY, a), ExactPoly(XY, b)
        assert (p + q).terms == fraction_sum(a, b)
        assert (q + p).terms == fraction_sum(a, b)
        assert (p - q).terms == fraction_sum(a, b, -1)
        assert (-q).terms == fraction_sum({}, b, -1)
        assert (p * q).terms == reference_mul(p, q).terms

    @PROPERTY
    @given(term_maps(JET_VARS), rationals())
    def test_scale_matches_fraction_oracle(self, a, value):
        expected = {e: c * value for e, c in a.items() if c * value}
        assert ExactPoly(JET_VARS, a).scale(value).terms == expected

    def test_mixed_denominator_sums(self):
        p = poly_parse("1/2*x + 1/3", XY)
        q = poly_parse("1/6*x - 1/3", XY)
        assert (p.num, p.den) == ({(1, 0): 3, (0, 0): 2}, 6)
        total = p + q
        assert (total.num, total.den) == ({(1, 0): 2}, 3)
        # a content common to the numerators and the denominator is divided out
        half = poly_parse("1/6*x + 1/6", XY) + poly_parse("1/3*x + 1/3", XY)
        assert (half.num, half.den) == ({(1, 0): 1, (0, 0): 1}, 2)
        zero = p - p
        assert (zero.num, zero.den) == ({}, 1) and zero == ExactPoly.zero(XY)

    @PROPERTY
    @given(term_maps(XY))
    def test_terms_is_a_fresh_fraction_view(self, a):
        p = ExactPoly(XY, a)
        expected = {e: c for e, c in a.items() if c}
        view = p.terms
        assert view == expected
        assert all(type(c) is Fraction for c in view.values())
        num, text = dict(p.num), str(p)
        view[(99, 99)] = Fraction(1)
        view.clear()
        assert p.terms == expected and p.num == num and str(p) == text
        assert p.terms is not p.terms

    @PROPERTY
    @given(term_maps(XY), st.integers(0, 10))
    def test_monomial_quotient_matches_fraction_oracle(self, a, k):
        quotient, exact = monomial_quotient(ExactPoly(XY, a), "y", k)
        assert quotient.terms == {(h, i - k): c for (h, i), c in a.items() if c and i >= k}
        assert exact == all(i >= k for (h, i), c in a.items() if c)

    @PROPERTY
    @given(term_maps(XY), term_maps(XY), st.integers(0, 10))
    def test_truncate_below_matches_fraction_oracle(self, a, b, k):
        p, q = ExactPoly(XY, a), ExactPoly(XY, b)
        low = truncate_below(p, "y", k)
        assert low.terms == {(h, i): c for (h, i), c in a.items() if c and i < k}
        # the cut of a product is the cut of the product of the cuts
        assert truncate_below(p * q, "y", k) == truncate_below(
            low * truncate_below(q, "y", k), "y", k)
        cut = PowerCache(low, partial(mul_below, name="y", k=k))
        assert cut[0] == ONE
        assert [cut[n] for n in range(1, 5)] == [truncate_below(p ** n, "y", k)
                                                 for n in range(1, 5)]

    @PROPERTY
    @given(term_maps(XY))
    def test_extend_to_matches_fraction_oracle(self, a):
        p = ExactPoly(XY, a)
        wide = p.extend_to(JET_VARS)
        assert wide.terms == {(h, i, 0, 0): c for (h, i), c in a.items() if c}
        assert wide.extend_to(XY) == p

    def test_extend_to_missing_variable(self):
        with pytest.raises(ValueError, match="missing"):
            poly_parse("x' + 1/2", JET_VARS).extend_to(XY)

    @pytest.mark.parametrize("text", ["2/3*x + 1/6", "-x + 1/2", "-1/2*x^2*y + 3/4",
                                      "x - y - 1/3", "-7/9", "4/3*x*y - x"])
    def test_print_with_shared_denominator(self, text):
        p = poly_parse(text, XY)
        assert p.den != 1
        assert str(p) == text

    @pytest.mark.parametrize("coeff", [0.1, 1.0, "1/2", None, complex(1, 0)])
    def test_inexact_coefficients_rejected(self, coeff):
        with pytest.raises(TypeError):
            ExactPoly(XY, {(1, 0): coeff})
        with pytest.raises(TypeError):
            ExactPoly.const(XY, coeff)
        with pytest.raises(TypeError):
            X.scale(coeff)


class TestDerivative:
    def test_power_rule(self):
        assert poly_diff(poly_parse("x^3*y", XY), "x") == poly_parse("3*x^2*y", XY)

    def test_constant_in_y(self):
        assert poly_diff(poly_parse("x^3", XY), "y").is_zero()

    def test_linearity(self):
        assert poly_diff(poly_parse("x^2 + x*y + 1", XY), "x") == poly_parse("2*x + y", XY)

    def test_product_rule(self, rng):
        for _ in range(20):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            lhs = poly_diff(p * q, "y")
            rhs = poly_diff(p, "y") * q + p * poly_diff(q, "y")
            assert lhs == rhs


class TestSubstitution:
    def test_rename_and_merge(self):
        p = poly_parse("x^2 + y", XY)
        assert poly_substitute(p, {"x": Y}) == poly_parse("y^2 + y", XY)

    def test_evaluation_at_zero(self):
        assert poly_substitute(X, {"x": ExactPoly.zero(XY)}).is_zero()

    def test_linear_replacement_across_varsets(self):
        source = VarSet(("x", "u", "x'"))
        target = VarSet(("x", "x'"))
        p = poly_parse("x'*u", source)
        image = poly_substitute(p, {"u": poly_parse("2*x", target),
                                    "x": ExactPoly.variable(target, "x")})
        assert image == poly_parse("2*x'*x", target)

    def test_homomorphism(self, rng):
        for _ in range(15):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            sigma = {"x": random_poly(rng, 2), "y": random_poly(rng, 2)}
            assert (poly_substitute(p * q, sigma)
                    == poly_substitute(p, sigma) * poly_substitute(q, sigma))

    def test_unbound_variable_missing_from_target(self):
        target = VarSet(("z",))
        with pytest.raises(ValueError):
            poly_substitute(X + Y, {"x": ExactPoly.variable(target, "z")})


class TestMonomialQuotient:
    def test_termwise_shift(self):
        q, exact = monomial_quotient(poly_parse("y^3 + x*y^2", XY), "y", 2)
        assert exact and q == poly_parse("y + x", XY)

    def test_blocking_constant(self):
        q, exact = monomial_quotient(poly_parse("y + 1", XY), "y", 1)
        assert not exact and q == ONE

    def test_zero_divisible_by_everything(self):
        q, exact = monomial_quotient(ExactPoly.zero(XY), "y", 7)
        assert exact and q.is_zero()

    def test_exactness_round_trip(self, rng):
        y2 = Y * Y
        for _ in range(20):
            p = random_poly(rng, 4) * y2
            q, exact = monomial_quotient(p, "y", 2)
            assert exact and q * y2 == p


class TestResultant:
    def test_monic_linear_evaluates(self):
        assert resultant(Y - ONE, Y * Y - X, "y") == ONE - X

    def test_common_factor_gives_zero(self):
        assert resultant(Y, Y, "y").is_zero()

    def test_two_lines(self):
        assert resultant(Y - X, Y + X, "y") == X.scale(2)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            resultant(ExactPoly.zero(XY), Y, "y")

    def test_matches_sylvester_determinant(self, rng):
        checked = 0
        while checked < 20:
            p = random_poly(rng, rng.randint(1, 4))
            q = random_poly(rng, rng.randint(1, 4))
            if p.is_zero() or q.is_zero():
                continue
            assert resultant(p, q, "y") == sylvester_resultant(p, q, "y")
            assert resultant(p, q, "x") == sylvester_resultant(p, q, "x")
            checked += 1

    @PROPERTY
    @given(SPARSE_BIVARIATE, SPARSE_BIVARIATE, st.sampled_from(["x", "y"]))
    def test_matches_sylvester_property(self, p, q, name):
        assert resultant(p, q, name) == sylvester_resultant(p, q, name)
        assert resultant(q, p, name) == sylvester_resultant(q, p, name)

    def test_rational_common_factor_gives_zero(self):
        common = poly_parse("y - 1/3*x + 2/7", XY)
        p = common * poly_parse("y^2 + 5/11*x", XY)
        q = common * poly_parse("3/4*y - x^2", XY)
        assert resultant(p, q, "y").is_zero()
        assert sylvester_resultant(p, q, "y").is_zero()

    def test_degree_zero_in_eliminated_variable(self):
        c = poly_parse("2/3*x^2 - 1/5", XY)
        q = poly_parse("1/2*y^3 + x*y - 7", XY)
        # Res(c, q) = c**deg(q) and Res(q, c) = c**deg(q) when deg(c) = 0
        assert resultant(c, q, "y") == c ** 3 == sylvester_resultant(c, q, "y")
        assert resultant(q, c, "y") == c ** 3 == sylvester_resultant(q, c, "y")
        assert resultant(c, c * c, "y") == ONE

    def test_jet_vars_pair_using_x_and_y(self):
        p_text, q_text = "1/2*y^3 - x*y + 3", "y^2 - 2/9*x^3 + x"
        p, q = poly_parse(p_text, JET_VARS), poly_parse(q_text, JET_VARS)
        expected = resultant(poly_parse(p_text, XY), poly_parse(q_text, XY), "y")
        for name in ("x", "y"):
            assert resultant(p, q, name) == sylvester_resultant(p, q, name)
        assert resultant(p, q, "y") == expected.extend_to(JET_VARS)

    def test_two_other_variables_rejected(self):
        with pytest.raises(ValueError):
            resultant(poly_parse("y + x*x'", JET_VARS), poly_parse("y'^2 - 1", JET_VARS), "y'")
        # the variables are counted over both inputs together
        with pytest.raises(ValueError):
            resultant(poly_parse("y^2 + x", JET_VARS), poly_parse("y - x'", JET_VARS), "y")

    def test_multiplicativity(self, rng):
        checked = 0
        while checked < 12:
            p = random_poly(rng, 2)
            q = random_poly(rng, 2)
            r = random_poly(rng, 2)
            if p.is_zero() or q.is_zero() or r.is_zero():
                continue
            lhs = resultant(p * q, r, "y")
            rhs = resultant(p, r, "y") * resultant(q, r, "y")
            assert lhs == rhs
            checked += 1


class TestUnivariate:
    def test_squarefree_distinct_roots(self):
        assert squarefree_univariate(poly_parse("x^2 - 1", XY))

    def test_squarefree_double_root(self):
        assert not squarefree_univariate(poly_parse("x^2", XY))

    def test_squarefree_constant(self):
        assert squarefree_univariate(poly_parse("5", XY))

    def test_gcd_shared_root(self):
        assert gcd_univariate(poly_parse("x^2 - 1", XY), X - ONE) == X - ONE

    def test_gcd_coprime(self):
        assert gcd_univariate(X, X + ONE) == ONE

    def test_gcd_with_zero(self):
        assert gcd_univariate(ExactPoly.zero(XY), X * X) == X * X

    def test_gcd_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_univariate(ExactPoly.zero(XY), ExactPoly.zero(XY))

    def test_gcd_matches_shared_linear_factors(self, rng):
        # brute-force oracle: polynomials assembled from rational roots;
        # shared factors counted with min multiplicity
        from collections import Counter
        for _ in range(15):
            roots_p = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            roots_q = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            p = ONE
            for root in roots_p:
                p = p * (X - ExactPoly.const(XY, root))
            q = ONE
            for root in roots_q:
                q = q * (X - ExactPoly.const(XY, root))
            expected = ONE
            shared = Counter(roots_p) & Counter(roots_q)
            for root in sorted(shared.elements()):
                expected = expected * (X - ExactPoly.const(XY, root))
            assert gcd_univariate(p, q) == expected

    @PROPERTY
    @given(univariate("x"), univariate("x"), univariate("x"), st.sampled_from([1, 2]))
    def test_gcd_matches_reference(self, shared, f, g, power):
        p = shared ** power * f
        q = shared * g
        assert gcd_univariate(p, q) == reference_gcd(p, q, "x")
        assert gcd_univariate(q, p) == reference_gcd(q, p, "x")

    @PROPERTY
    @given(univariate("y"), univariate("y", max_degree=2), st.sampled_from([1, 2, 3]))
    def test_squarefree_matches_reference(self, f, g, power):
        p = f * g ** power
        expected = reference_gcd(p, poly_diff(p, "y"), "y").is_constant()
        assert squarefree_univariate(p) == expected

    @pytest.mark.parametrize("p_text,q_text", [
        ("-3/2*x^3 + x - 5", "-2/7*x^2 + 1/3"),  # negative, fractional leads
        ("-x^2 + 2*x - 1", "-1/2*x + 1/2"),      # gcd x - 1
        ("2*x + 1", "x^2 + 1"),                  # constant gcd
        ("0", "-3/4*x^2 + 3/4"),                 # one zero argument
        ("-5/3*x^3", "0"),
        ("-7/2", "4"),                           # two constants
        ("6", "0"),
    ])
    def test_gcd_edge_cases(self, p_text, q_text):
        p, q = poly_parse(p_text, XY), poly_parse(q_text, XY)
        assert gcd_univariate(p, q) == reference_gcd(p, q, "x")

    def test_rational_roots(self):
        p = (X - ExactPoly.const(XY, Fraction(2, 3))) * (X + ExactPoly.const(XY, 5)) * X
        assert rational_roots(p) == [Fraction(0), Fraction(2, 3), Fraction(-5)]

    @PROPERTY
    @given(st.lists(st.tuples(st.builds(Fraction, st.integers(-2**80, 2**80),
                                        st.integers(1, 2**80)),
                              st.integers(1, 3)), max_size=4))
    def test_rational_roots_are_the_linear_factors(self, factors):
        p = X * X + ONE
        for root, multiplicity in factors:
            p = p * (X - ExactPoly.const(XY, root)) ** multiplicity
        expected = sorted({root for root, _ in factors},
                          key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        assert rational_roots(p) == expected

    @pytest.mark.parametrize("text,roots", [
        # numerator 10^30 + 7 and denominator 2^70 lie far beyond divisor enumeration
        (f"(x^2 + 1)*({3**40}*x - {10**30 + 7})*({2**70}*x + 5)*(x - 1)*(7*x + 2)",
         [Fraction(1), Fraction(-2, 7), Fraction(-5, 2**70), Fraction(10**30 + 7, 3**40)]),
        # 1 = 211 mod 3, 5 and 7, so the roots are lifted from p = 11
        ("(x - 1)*(x - 211)", [Fraction(1), Fraction(211)]),
        ("x^3*(2*x - 3)*(x + 3)", [Fraction(0), Fraction(-3), Fraction(3, 2)]),
    ])
    def test_rational_roots_fixed_cases(self, text, roots):
        assert rational_roots(poly_parse(text, XY)) == roots


P, P1, P2 = modular.PRIMES[:3]


def spy_gcd_images(monkeypatch):
    """Record (prime, degree) of every modular image gcd_univariate takes;
    past 100 images, fail instead of looping on."""
    images = []
    image_mod_p = polyring._gcd_mod_p

    def spy(a, b, prime):
        assert len(images) < 100, "no proof after 100 images"
        image = image_mod_p(a, b, prime)
        images.append((prime, len(image) - 1))
        return image

    monkeypatch.setattr(polyring, "_gcd_mod_p", spy)
    return images


# (p, q, the (prime, degree) of each image): unlucky primes are skipped or
# outvoted by a later image of lower degree
UNLUCKY_PRIME = [
    pytest.param(f"{P}*x + 1", "x", [(P1, 0)], id="lead-divisible-by-p"),
    pytest.param("x", f"x - {P}", [(P, 1), (P1, 0)], id="coprime-over-q-not-mod-p"),
    pytest.param("(x - 1)*(x + 2)", "(x - 1)*(3*x - 5)", [(P, 1)], id="true-common-factor"),
    pytest.param("(x - 1)*x", f"(x - 1)*(x - {P})", [(P, 2), (P1, 1)],
                 id="unlucky-image-of-higher-degree"),
    # x + 10^12 needs two primes, and P1 between them is unlucky
    pytest.param(f"(x + {10**12})*x", f"(x + {10**12})*(x - {P1})", [(P, 1), (P1, 2), (P2, 1)],
                 id="unlucky-second-prime"),
]

# 3^1400 + 7 and 2^2100 + 1 need more CRT primes than the 64 of the literal
HUGE_FACTOR = f"{3**1400 + 7}*x + {2**2100 + 1}"


class TestModularGcd:
    @pytest.mark.parametrize("p_text,q_text,images", UNLUCKY_PRIME)
    def test_unlucky_prime_falls_back_to_exact(self, monkeypatch, p_text, q_text, images):
        p, q = poly_parse(p_text, XY), poly_parse(q_text, XY)
        expected = reference_gcd(p, q, "x")
        taken = spy_gcd_images(monkeypatch)
        assert gcd_univariate(p, q) == expected
        assert taken == images

    def test_squarefree_over_q_not_mod_p(self, monkeypatch):
        # x*(x - P) = x^2 mod P, so gcd(p, p') = x there
        p = poly_parse(f"x*(x - {P})", XY)
        taken = spy_gcd_images(monkeypatch)
        assert squarefree_univariate(p)
        assert taken == [(P, 1), (P1, 0)]

    def test_coprime_mod_p_proves_gcd_one(self, monkeypatch):
        p, q = poly_parse("3*x^4 - x + 7", XY), poly_parse("-2*x^3 + 5*x^2 + 1", XY)
        expected = reference_gcd(p, q, "x")
        taken = spy_gcd_images(monkeypatch)
        assert gcd_univariate(p, q) == expected == ONE
        assert taken == [(P, 0)]

    def test_wrong_first_candidate_is_refused_by_the_division(self, monkeypatch):
        # x + 10^12 reads x + (10^12 mod P) at P alone, which divides neither input
        shared = poly_parse(f"x + {10**12}", XY)
        p, q = shared * poly_parse("x - 1", XY), shared * poly_parse("x + 2", XY)
        taken = spy_gcd_images(monkeypatch)
        assert gcd_univariate(p, q) == shared
        assert taken == [(P, 1), (P1, 1)]

    def test_shared_factor_beyond_the_literal_primes(self, monkeypatch):
        shared = poly_parse(HUGE_FACTOR, XY)
        p = shared * poly_parse("x^2 + 1", XY)
        q = shared * poly_parse("2*x - 3", XY)
        taken = spy_gcd_images(monkeypatch)
        assert gcd_univariate(p, q) == reference_gcd(p, q, "x")
        primes = [prime for prime, _ in taken]
        assert primes[:64] == list(modular.PRIMES) and len(primes) > 64
        assert {degree for _, degree in taken} == {1}


class TestDegreeSentinel:
    def test_zero_polynomial_degree(self):
        degree = ExactPoly.zero(XY).total_degree()
        assert degree is NEG_INF
        assert degree < 0 and degree < -1 and degree != 0 and degree != -1
        assert not degree > -10 and degree <= NEG_INF and degree == NEG_INF

    def test_constant_degree_is_zero(self):
        assert ONE.total_degree() == 0


class TestExactDivide:
    def test_exact_quotient(self, rng):
        for _ in range(15):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            if p.is_zero() or q.is_zero():
                continue
            assert exact_divide(p * q, q) == p

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            exact_divide(X * X + ONE, X + ONE)


class TestResultantAbnormalSequences:
    # sparse inputs with y-degree gaps drive the non-normal remainder
    # sequence corrections; each case is cross-checked against the
    # Sylvester determinant in both argument orders
    CASES = [
        ("y^5 + x", "y^2 - x"),
        ("y^7 + x*y + 1", "y^3 + x^2"),
        ("x*y^6 + y + x^3", "y^2 + x*y + 2"),
        ("y^8 + x^2*y^2 + 1", "y^4 + x"),
        ("y^6 - x", "y - x^2"),
        ("y^9 + x", "y^3 - 2*x^2"),
    ]

    @pytest.mark.parametrize("p_text,q_text", CASES)
    def test_matches_sylvester(self, p_text, q_text):
        p, q = poly_parse(p_text, XY), poly_parse(q_text, XY)
        assert resultant(p, q, "y") == sylvester_resultant(p, q, "y")
        assert resultant(q, p, "y") == sylvester_resultant(q, p, "y")

    def test_sparse_random(self, rng):
        checked = 0
        while checked < 25:
            terms = {(rng.randint(0, 3), rng.randint(0, 9)): Fraction(rng.randint(-9, 9))
                     for _ in range(rng.randint(2, 5))}
            p = ExactPoly(XY, terms)
            terms = {(rng.randint(0, 3), rng.randint(0, 6)): Fraction(rng.randint(-9, 9))
                     for _ in range(rng.randint(2, 4))}
            q = ExactPoly(XY, terms)
            if p.is_zero() or q.is_zero():
                continue
            assert resultant(p, q, "y") == sylvester_resultant(p, q, "y")
            checked += 1
