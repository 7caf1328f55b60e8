from fractions import Fraction
from math import isqrt, prod

from hypothesis import given, settings, strategies as st

from jetdiff.modular import PRIMES, crt, rational_reconstruction

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

SMALL_PRIMES = [p for p in range(2, isqrt(1 << 30) + 1)
                if all(p % q for q in range(2, isqrt(p) + 1))]


def is_prime(n):
    """Trial division by every prime up to sqrt(2^30)."""
    return all(n % q for q in SMALL_PRIMES if q * q <= n)


def test_primes_are_the_largest_below_2_to_the_30():
    assert PRIMES[0] == 1073741789
    assert list(PRIMES) == [n for n in range((1 << 30) - 1, PRIMES[-1] - 1, -1) if is_prime(n)]


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda count: st.tuples(
    st.just(PRIMES[:count]), st.integers(0, prod(PRIMES[:count + 1]) - 1))))
def test_crt_joins_the_images(moduli_and_value):
    moduli, value = moduli_and_value
    modulus, residues = moduli[0], [value % moduli[0]]
    for prime in moduli[1:] + (PRIMES[len(moduli)],):
        residues = crt(residues, modulus, [value % prime], prime)
        modulus *= prime
    assert residues == [value]


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda count: st.tuples(
    st.just(prod(PRIMES[:count])),
    st.integers(-isqrt(prod(PRIMES[:count]) // 2), isqrt(prod(PRIMES[:count]) // 2)),
    st.integers(1, isqrt(prod(PRIMES[:count]) // 2)))))
def test_reconstruction_returns_every_fraction_within_the_bound(case):
    modulus, n, d = case
    fraction = Fraction(n, d)
    residue = fraction.numerator * pow(fraction.denominator, -1, modulus) % modulus
    bound = isqrt(modulus // 2)
    assert rational_reconstruction(residue, modulus, bound) == (fraction.numerator,
                                                                 fraction.denominator)


@PROPERTY
@given(st.integers(0, PRIMES[0] - 1))
def test_reconstruction_is_a_preimage_within_the_bound(residue):
    bound = isqrt(PRIMES[0] // 2)
    fraction = rational_reconstruction(residue, PRIMES[0], bound)
    if fraction is not None:
        n, d = fraction
        assert abs(n) <= bound and 0 < d <= bound
        assert (n - d * residue) % PRIMES[0] == 0
