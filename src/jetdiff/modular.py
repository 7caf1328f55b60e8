"""The modular core: primes below 2^30, Chinese remaindering, rational reconstruction.

`PRIMES` lists the largest primes below 2^30 in descending order, so every
residue is a one-digit CPython int.  Its first entry, 1073741789, is the
prime of the univariate gcd test in `polyring`; `linalg` eliminates modulo
the primes in turn.  Both read the list at call time.

`crt` joins the images of a list of integers modulo two coprime moduli.
`rational_reconstruction` is Wang's half-extended Euclid (Wang, SYMSAC 1981):
given a residue r modulo M, it returns the fraction n/d with n = d * r mod M,
|n| <= B and 0 < d <= B for B = isqrt(M // 2), or None.  Two such fractions
n/d and n'/d' would give n*d' = n'*d mod M with |n*d' - n'*d| <= 2*B^2 < M,
so at most one exists; a fraction whose reduced numerator and denominator
are both at most B is found whenever the residue is its image.
"""

from __future__ import annotations

from math import gcd


# the 64 largest primes below 2^30, in descending order (tests/test_modular.py
# checks them by trial division); their product, about 2^1920, reconstructs
# kernel entries whose numerator and denominator have up to about 950 bits,
# and a kernel beyond that is left to Bareiss elimination
PRIMES = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717,
    1073741689, 1073741671, 1073741663, 1073741651, 1073741621, 1073741567,
    1073741561, 1073741527, 1073741503, 1073741477, 1073741467, 1073741441,
    1073741419, 1073741399, 1073741387, 1073741381, 1073741371, 1073741329,
    1073741311, 1073741309, 1073741287, 1073741237, 1073741213, 1073741197,
    1073741189, 1073741173, 1073741101, 1073741077, 1073741047, 1073740963,
    1073740951, 1073740933, 1073740909, 1073740879, 1073740853, 1073740847,
    1073740819, 1073740807, 1073740793, 1073740783, 1073740781, 1073740697,
    1073740693, 1073740691, 1073740649, 1073740609, 1073740571, 1073740567,
    1073740543, 1073740541, 1073740537, 1073740529, 1073740523, 1073740517,
    1073740501, 1073740489, 1073740477, 1073740463,
)


def crt(residues: list[int], modulus: int, images: list[int], prime: int) -> list[int]:
    """The residues mod modulus * prime that reduce to residues mod modulus and
    to images mod prime; modulus and prime are coprime, residues lie in
    [0, modulus) and the results in [0, modulus * prime)."""
    inverse = pow(modulus, -1, prime)
    return [r + modulus * ((s - r) * inverse % prime) for r, s in zip(residues, images)]


def rational_reconstruction(residue: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = d * residue mod modulus, |n| <= bound and 0 < d <= bound,
    or None; bound is isqrt(modulus // 2), within which the fraction is unique."""
    if residue <= bound:
        return residue, 1
    if modulus - residue <= bound:
        return residue - modulus, 1
    r0, r1, t0, t1 = modulus, residue, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)
