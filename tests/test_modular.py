from fractions import Fraction
from itertools import islice
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from jetdiff.modular import PRIMES, crt, is_prime, primes, rational_reconstruction

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

SMALL_PRIMES = [p for p in range(2, isqrt(1 << 30) + 1)
                if all(p % q for q in range(2, isqrt(p) + 1))]


def by_trial_division(n):
    """Whether n < 2^30 is prime, by trial division by every prime up to sqrt(2^30)."""
    return n > 1 and all(n % q for q in SMALL_PRIMES if q * q <= n)


def test_primes_are_the_largest_below_2_to_the_30():
    assert PRIMES[0] == 1073741789
    assert list(PRIMES) == [n for n in range((1 << 30) - 1, PRIMES[-1] - 1, -1)
                            if by_trial_division(n)]


def test_the_stream_continues_the_literal_downwards():
    stream = list(islice(primes(), len(PRIMES) + 300))
    assert stream[:len(PRIMES)] == list(PRIMES)
    assert all(a > b for a, b in zip(stream, stream[1:]))
    assert stream[len(PRIMES):] == [n for n in range(PRIMES[-1] - 1, stream[-1] - 1, -1)
                                    if by_trial_division(n)]


@pytest.mark.parametrize("start", [0, (1 << 30) - 20000])
def test_is_prime_agrees_with_trial_division(start):
    numbers = range(start, start + 20000)
    assert [n for n in numbers if is_prime(n)] == [n for n in numbers if by_trial_division(n)]


def test_is_prime_refuses_numbers_beyond_its_proof():
    # 4759123141 = 48781 * 97561 is the least strong pseudoprime to 2, 7 and 61
    with pytest.raises(ValueError):
        is_prime(4759123141)


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
