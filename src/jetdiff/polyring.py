"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial over a fixed, ordered variable set is stored as integer
numerators over one shared denominator: ``num`` maps exponent tuples (one
non-negative integer per variable) to nonzero ints, and ``den`` is a
positive int coprime to the content of ``num``.  The empty map over 1 is
the zero polynomial.  Every operation returns this canonical form, so
``==`` on (num, den) is polynomial identity and every downstream
certificate in this package is a bit-exact comparison.  ``terms`` is a
read-only view that builds the Fraction coefficient of each monomial on
demand; it is never stored.

No floating point is used anywhere.  The total degree of the zero
polynomial is the dedicated sentinel ``NEG_INF``, which compares below
every integer and is never conflated with 0 or -1.

Arithmetic runs on Python ints.  A sum brings both operands over the lcm
of their denominators; a product multiplies the numerators and the
denominators.  Both then divide out the content, which costs nothing when
the denominator is 1, as it is for integer surfaces.  Multiplication packs
every exponent tuple into one int, giving each variable a bit field of
width ``(maxexp_a + maxexp_b).bit_length() + 1`` computed per call from
the two operands' largest exponents in that variable, so no field can
overflow.  The univariate gcd runs a primitive remainder sequence on the
integer numerators.  The resultant runs the subresultant remainder
sequence over Z[t] on the integer numerators and divides by the scaling
factor once at the end.

Term order is graded lexicographic with respect to the variable order fixed
by the VarSet at creation; printing lists terms in descending graded-lex
order with the sign folded into the coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping


class _NegInfinity:
    """Order sentinel below every integer; the degree of the zero polynomial."""

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, _NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __eq__(self, other):
        return isinstance(other, _NegInfinity)

    def __hash__(self):
        return hash("jetdiff.NEG_INF")

    def __repr__(self):
        return "-Infinity"

    def __add__(self, other):
        return self

    __radd__ = __add__


NEG_INF = _NegInfinity()

Exponents = tuple  # one int per variable of the owning VarSet


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VarSet:
    """An ordered set of distinct variable names, fixed at creation."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct: {names}")
        if not all(names):
            raise ValueError("empty variable name")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *args):
        raise AttributeError("VarSet is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet({', '.join(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r} in {self!r}") from None


def _grlex_key(exps: Exponents):
    return (sum(exps), exps)


class ExactPoly:
    """A sparse polynomial with exact rational coefficients over a VarSet.

    The polynomial is num / den: ``num`` maps exponent tuples to nonzero
    integer numerators and ``den`` is one positive denominator with
    gcd(den, *num.values()) == 1.  That form is canonical, so ``==``
    compares it structurally.  Instances are immutable by convention: num
    is never mutated after construction and all operations build fresh
    polynomials.
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: VarSet, terms: Mapping[Exponents, Fraction | int] | None = None):
        clean: dict[Exponents, Fraction | int] = {}
        n = len(vars)
        if terms:
            for exps, coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"coefficient {coeff!r} is not an int or a Fraction")
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 or not isinstance(e, int) for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {vars!r}")
                clean[exps] = coeff
        # over the lcm of the denominators the content is already 1
        den = lcm(*[c.denominator for c in clean.values()])
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "num", {e: c.numerator * (den // c.denominator)
                                         for e, c in clean.items()})
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("ExactPoly is immutable")

    @classmethod
    def _from_ints(cls, vars: VarSet, num: dict[Exponents, int], den: int) -> "ExactPoly":
        """num / den with the content divided out; num holds no zeros and den > 0."""
        if den != 1:
            content = gcd(den, *num.values())
            if content != 1:
                num = {e: c // content for e, c in num.items()}
                den //= content
        poly = object.__new__(cls)
        object.__setattr__(poly, "vars", vars)
        object.__setattr__(poly, "num", num)
        object.__setattr__(poly, "den", den)
        return poly

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as Fractions, in a new dict built on every read."""
        den = self.den
        if den == 1:
            return {e: Fraction(c) for e, c in self.num.items()}
        return {e: Fraction(c, den) for e, c in self.num.items()}

    def coefficients(self) -> dict[Exponents, int | Fraction]:
        """The coefficients as exact rationals in a new dict: the integer
        numerators themselves when den is 1, else the Fractions of `terms`."""
        return dict(self.num) if self.den == 1 else self.terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: VarSet) -> "ExactPoly":
        return cls._from_ints(vars, {}, 1)

    @classmethod
    def const(cls, vars: VarSet, value: Fraction | int) -> "ExactPoly":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "ExactPoly":
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return cls._from_ints(vars, {tuple(exps): 1}, 1)

    @classmethod
    def monomial(cls, vars: VarSet, exps: Exponents, coeff: Fraction | int = 1) -> "ExactPoly":
        return cls(vars, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.num)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial (0 if absent)."""
        return self.coefficient((0,) * len(self.vars))

    def total_degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.num:
            return NEG_INF
        return max(sum(e) for e in self.num)

    def coefficient(self, exps: Exponents) -> Fraction:
        return Fraction(self.num.get(tuple(exps), 0), self.den)

    def used_variables(self) -> tuple[str, ...]:
        """Names of variables appearing with positive exponent."""
        used = [False] * len(self.vars)
        for exps in self.num:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.vars.names, used) if u)

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Exponents, Fraction]]:
        """Terms sorted by graded-lex order (descending by default)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=reverse)

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """The graded-lex leading term of a nonzero polynomial."""
        if not self.num:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.num, key=_grlex_key)
        return exps, Fraction(self.num[exps], self.den)

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.sorted_terms())

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- ring operations ---------------------------------------------------

    def _check_same_vars(self, other: "ExactPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable-set mismatch: {self.vars!r} vs {other.vars!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.num == other.num

    def __neg__(self) -> "ExactPoly":
        return ExactPoly._from_ints(self.vars, {e: -c for e, c in self.num.items()}, self.den)

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        self._check_same_vars(other)
        # copy the larger operand, loop over the smaller one
        a, b = (self, other) if len(self.num) >= len(other.num) else (other, self)
        if a.den == b.den:
            den, out, b_num = a.den, dict(a.num), b.num.items()
        else:
            g = gcd(a.den, b.den)
            to_a, to_b = b.den // g, a.den // g
            den = a.den * to_a
            out = {e: c * to_a for e, c in a.num.items()}
            b_num = [(e, c * to_b) for e, c in b.num.items()]
        get = out.get
        for exps, coeff in b_num:
            acc = get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            else:
                del out[exps]
        return ExactPoly._from_ints(self.vars, out, den)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        self._check_same_vars(other)
        if not self.num or not other.num:
            return ExactPoly.zero(self.vars)
        if len(self.num) > len(other.num):
            a, b = other.num, self.num
        else:
            a, b = self.num, other.num
        # one bit field per variable, wide enough for the largest exponent
        # the product can reach in it plus a spare bit, so no field overflows
        fields = []
        shift = 0
        for top_a, top_b in zip(map(max, zip(*a)), map(max, zip(*b))):
            width = (top_a + top_b).bit_length() + 1
            fields.append((shift, (1 << width) - 1))
            shift += width
        # the packed monomial of exps is sum(exps[v] << shift_v)
        weights = [1 << s for s, _ in fields]
        packed_b = [(sum(map(mul, exps, weights)), num) for exps, num in b.items()]
        acc: dict[int, int] = {}
        get = acc.get
        for exps, num_a in a.items():
            key_a = sum(map(mul, exps, weights))
            for key_b, num_b in packed_b:
                key = key_a + key_b
                acc[key] = get(key, 0) + num_a * num_b
        return ExactPoly._from_ints(self.vars, {
            tuple([(key >> s) & mask for s, mask in fields]): num
            for key, num in acc.items() if num}, self.den * other.den)

    def scale(self, value: Fraction | int) -> "ExactPoly":
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"scale factor {value!r} is not an int or a Fraction")
        if value == 0:
            return ExactPoly.zero(self.vars)
        factor = value.numerator
        return ExactPoly._from_ints(self.vars, {e: c * factor for e, c in self.num.items()},
                                    self.den * value.denominator)

    def __pow__(self, k: int) -> "ExactPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
        result = ExactPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift(self, exps: Exponents) -> "ExactPoly":
        """Multiply by the monomial with the given exponent tuple."""
        exps = tuple(exps)
        if len(exps) != len(self.vars) or any(e < 0 or not isinstance(e, int) for e in exps):
            raise ValueError(f"bad shift exponents {exps}")
        return ExactPoly._from_ints(self.vars, {tuple(map(add, e, exps)): c
                                                for e, c in self.num.items()}, self.den)

    def map_exponents(self, vars: VarSet,
                      image: Callable[[Exponents], Exponents]) -> "ExactPoly":
        """The polynomial over vars with every monomial e of self replaced by image(e).

        image must return exponent tuples of vars and be one-to-one on the
        monomials of self (ValueError otherwise), so no two terms merge.
        """
        num = {image(e): c for e, c in self.num.items()}
        if len(num) != len(self.num):
            raise ValueError("exponent map merges two monomials")
        return ExactPoly._from_ints(vars, num, self.den)

    def extend_to(self, vars: VarSet) -> "ExactPoly":
        """Re-express over a larger VarSet containing all used variables by name."""
        if vars == self.vars:
            return self
        positions = []
        for name in self.used_variables():
            if name not in vars:
                raise ValueError(f"variable {name!r} missing from {vars!r}")
            positions.append((self.vars.index(name), vars.index(name)))
        n = len(vars)

        def image(exps: Exponents) -> Exponents:
            new = [0] * n
            for i, j in positions:
                new[j] = exps[i]
            return tuple(new)

        return self.map_exponents(vars, image)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
            return "0"
        names, num, den = self.vars.names, self.num, self.den
        pieces = []
        for exps in sorted(num, key=_grlex_key, reverse=True):
            mono = "*".join([name if e == 1 else f"{name}^{e}"
                             for name, e in zip(names, exps) if e])
            size = abs(num[exps])
            if den == 1:
                coeff = str(size)
            else:
                g = gcd(size, den)
                coeff = str(size // g) if g == den else f"{size // g}/{den // g}"
            if not mono:
                body = coeff
            elif size == den:
                body = mono
            else:
                body = f"{coeff}*{mono}"
            pieces.append(f"- {body}" if num[exps] < 0 else f"+ {body}")
        # "+ a - b" becomes "a - b" and "- a + b" becomes "-a + b"
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"ExactPoly({self})"


# -- parsing ---------------------------------------------------------------

_TOKEN_CHARS = set("+-*^/()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


MAX_NESTING = 100  # parenthesis depth; deeper input would exhaust the Python stack
# total degree of any power or product the parser expands, that is of
# operands with two or more terms each: expanding (x + y + 1)^k takes time
# growing like k^4, about 0.7 s at k = 100.  A single term raised to a power
# or multiplied only adds exponents, so printed monomials of any degree parse.
MAX_DEGREE = 100
# bit length of any integer the parser reads or builds: a literal, an
# exponent, a numerator or the shared denominator.  The largest integer in
# the benchmark's seed-1 reports has 20 bits; 4096 bits (1234 digits) also
# stays below the 4300-digit limit of int() on a string.  Products and
# powers are refused on a bound before they are computed, so 2^10000000
# costs nothing.
MAX_COEFF_BITS = 4096
_MAX_DIGITS = len(str(1 << MAX_COEFF_BITS))


class _Parser:
    """Recursive-descent parser for expr := term (('+'|'-') term)*."""

    def __init__(self, text: str, vars: VarSet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> ExactPoly:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return result

    def expr(self) -> ExactPoly:
        start = self.peek()[2]
        negate = False
        if self.peek()[0] in "+-":
            negate = self.advance()[0] == "-"
        result = self.term()
        if negate:
            result = -result
        while self.peek()[0] in "+-":
            op, _, pos = self.advance()
            rhs = self.term()
            result = result - rhs if op == "-" else result + rhs
            # the shared denominator can grow with every summand
            _check_bits(result.den.bit_length(), pos)
        _check_bits(max(map(abs, result.num.values()), default=0).bit_length(), start)
        return result

    def term(self) -> ExactPoly:
        result = self.factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            rhs = self.factor()
            if len(result.num) > 1 and len(rhs.num) > 1:
                _check_degree(result.total_degree() + rhs.total_degree(), pos)
            _check_bits(_size_bits(result) + _size_bits(rhs) + 1, pos)
            result = result * rhs
        return result

    def factor(self) -> ExactPoly:
        base = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            exponent = _literal(tok)
            if len(base.num) > 1:
                _check_degree(base.total_degree() * exponent, tok[2])
            _check_bits(exponent * _size_bits(base) + 1, tok[2])
            base = base ** exponent
        return base

    def base(self) -> ExactPoly:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "ident":
            if value not in self.vars:
                raise ParseError(f"unknown variable {value!r}", pos)
            return ExactPoly.variable(self.vars, value)
        if kind == "num":
            numerator = _literal(tok)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("num")
                denominator = _literal(den_tok)
                if denominator == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return ExactPoly.const(self.vars, Fraction(numerator, denominator))
            return ExactPoly.const(self.vars, numerator)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {value!r}", pos)


def _check_degree(degree: int, pos: int) -> None:
    """Refuse to expand a power or product of total degree above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ParseError(f"total degree {degree} exceeds {MAX_DEGREE}", pos)


def _literal(tok: tuple[str, str, int]) -> int:
    """The value of a number token; its length is checked before int() reads it."""
    digits = tok[1].lstrip("0") or "0"
    if len(digits) > _MAX_DIGITS or int(digits).bit_length() > MAX_COEFF_BITS:
        raise ParseError(f"number literal exceeds {MAX_COEFF_BITS} bits", tok[2])
    return int(digits)


def _size_bits(p: ExactPoly) -> int:
    """ceil(log2) of the larger of den and the sum of the |numerators|.

    No integer of p**k has more than k * _size_bits(p) + 1 bits, and none of
    p * q more than _size_bits(p) + _size_bits(q) + 1.
    """
    return max((sum(map(abs, p.num.values())) - 1).bit_length(), (p.den - 1).bit_length())


def _check_bits(bits: int, pos: int) -> None:
    """Refuse a polynomial whose integers may exceed MAX_COEFF_BITS."""
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"coefficients of up to {bits} bits exceed {MAX_COEFF_BITS}", pos)


def poly_parse(text: str, vars: VarSet) -> ExactPoly:
    """Parse a polynomial expression over the given variable set."""
    return _Parser(text, vars).parse()


# -- powers, derivatives and substitution -------------------------------------

class PowerCache:
    """Lazily grown list of powers of a fixed polynomial: cache[k] is base**k."""

    def __init__(self, base: ExactPoly):
        self._powers = [ExactPoly.const(base.vars, 1), base]

    def __getitem__(self, k: int) -> ExactPoly:
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] * self._powers[1])
        return self._powers[k]


def poly_diff(p: ExactPoly, name: str) -> ExactPoly:
    """Formal partial derivative with respect to one variable."""
    i = p.vars.index(name)
    out: dict[Exponents, int] = {}
    for exps, coeff in p.num.items():
        e = exps[i]
        if e == 0:
            continue
        new = list(exps)
        new[i] = e - 1
        out[tuple(new)] = coeff * e
    return ExactPoly._from_ints(p.vars, out, p.den)


def poly_substitute(p: ExactPoly, bindings: Mapping[str, ExactPoly]) -> ExactPoly:
    """Simultaneous substitution of polynomials for variables.

    All replacement polynomials must share one target VarSet; unbound
    variables are carried over by name and must exist in the target.
    """
    if not bindings:
        return p
    target = None
    for name, repl in bindings.items():
        p.vars.index(name)  # raises on unknown variable
        if target is None:
            target = repl.vars
        elif repl.vars != target:
            raise ValueError("replacement polynomials disagree on target VarSet")
    bound = {p.vars.index(name): PowerCache(repl) for name, repl in bindings.items()}
    carried: dict[int, int] = {}
    for i, name in enumerate(p.vars.names):
        if i in bound:
            continue
        if name not in target:
            raise ValueError(f"unbound variable {name!r} missing from target {target!r}")
        carried[i] = target.index(name)

    # the terms of p are substituted with their integer numerators, and the
    # sum is divided by the shared denominator once at the end
    n = len(target)
    result = ExactPoly.zero(target)
    for exps, coeff in p.num.items():
        carried_exps = [0] * n
        piece = None
        for i, e in enumerate(exps):
            if e == 0:
                continue
            if i in bound:
                factor = bound[i][e]
                piece = factor if piece is None else piece * factor
            else:
                carried_exps[carried[i]] = e
        mono = ExactPoly._from_ints(target, {tuple(carried_exps): coeff}, 1)
        result = result + (mono if piece is None else mono * piece)
    return result if p.den == 1 else result.scale(Fraction(1, p.den))


def monomial_quotient(p: ExactPoly, name: str, k: int) -> tuple[ExactPoly, bool]:
    """Divide by ``name**k`` term-wise.

    Returns ``(quotient, exact)`` where exact is True iff every term of p
    carries exponent >= k in the variable; when exact is False the quotient
    collects only the divisible terms.  Total function: the zero polynomial
    is exactly divisible by every power.
    """
    if k < 0:
        raise ValueError("power must be non-negative")
    i = p.vars.index(name)
    out: dict[Exponents, int] = {}
    exact = True
    for exps, coeff in p.num.items():
        if exps[i] < k:
            exact = False
            continue
        new = list(exps)
        new[i] -= k
        out[tuple(new)] = coeff
    return ExactPoly._from_ints(p.vars, out, p.den), exact


# -- exact division and univariate views ------------------------------------

def exact_divide(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Exact polynomial division p / q; raises ValueError if q does not divide p."""
    p._check_same_vars(q)
    if q.is_zero():
        raise ValueError("division by the zero polynomial")
    if p.is_zero():
        return p
    q_lead, q_coeff = q.leading_term()
    quotient: dict[Exponents, Fraction] = {}
    rem = p
    while not rem.is_zero():
        r_lead, r_coeff = rem.leading_term()
        exps = tuple(a - b for a, b in zip(r_lead, q_lead))
        if any(e < 0 for e in exps):
            raise ValueError("inexact polynomial division")
        coeff = r_coeff / q_coeff
        quotient[exps] = quotient.get(exps, Fraction(0)) + coeff
        rem = rem - q.shift(exps).scale(coeff)
    return ExactPoly(p.vars, quotient)


def univariate_coeffs(p: ExactPoly, name: str) -> list[ExactPoly]:
    """Dense coefficient list of p viewed in one variable.

    Entry k is the coefficient of name**k, an ExactPoly over the same
    VarSet with zero exponent in that variable.  The zero polynomial
    yields an empty list.
    """
    if p.is_zero():
        return []
    i = p.vars.index(name)
    deg = max(e[i] for e in p.num)
    buckets: list[dict[Exponents, int]] = [{} for _ in range(deg + 1)]
    for exps, coeff in p.num.items():
        new = list(exps)
        k = new[i]
        new[i] = 0
        buckets[k][tuple(new)] = coeff
    return [ExactPoly._from_ints(p.vars, b, p.den) for b in buckets]


def _from_dense(vars: VarSet, i: int | None, coeffs: list[int], den: int) -> ExactPoly:
    """sum(coeffs[k] * v**k) / den for the variable v of index i; den > 0.

    With i None, coeffs holds at most one nonzero entry, the constant.
    """
    exps = [0] * len(vars)
    num = {}
    for k, c in enumerate(coeffs):
        if c:
            if i is not None:
                exps[i] = k
            num[tuple(exps)] = c
    return ExactPoly._from_ints(vars, num, den)


def _effective_variable(*polys: ExactPoly) -> str | None:
    """The single variable used by the given polynomials, or None if constant."""
    used: set[str] = set()
    for p in polys:
        used.update(p.used_variables())
    if len(used) > 1:
        raise ValueError(f"expected univariate input, found variables {sorted(used)}")
    return next(iter(used)) if used else None


# -- resultant via the subresultant PRS over Z[t] ---------------------------
#
# A Z[t] element is a dense list of ints indexed by degree with a nonzero
# last entry; [] is zero.  A polynomial in the eliminated variable is a list
# of Z[t] elements indexed by its degree there, with a nonzero last entry.

def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _zsub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def _zneg(a: list[int]) -> list[int]:
    return [-x for x in a]


def _zpow(a: list[int], k: int) -> list[int]:
    result = [1]
    while k:
        if k & 1:
            result = _zmul(result, a)
        k >>= 1
        if k:
            a = _zmul(a, a)
    return result


def _zdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b in Z[t]; raises ValueError unless b divides a exactly."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    quotient = [0] * (len(a) - db)
    while r:
        shift = len(r) - 1 - db
        c, rem = divmod(r[-1], lead)
        if shift < 0 or rem:
            raise ValueError("inexact polynomial division")
        quotient[shift] = c
        for k, y in enumerate(b, shift):
            r[k] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return quotient


def _zprem(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder lc(g)**(deg f - deg g + 1) * f mod g."""
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return list(f)
    r = list(f)
    steps = df - dg + 1
    lc_g = g[-1]
    while r and len(r) - 1 >= dg:
        lc_r = r[-1]
        steps -= 1
        shift = len(r) - 1 - dg
        # the leading entry cancels: lc_g * lc_r - lc_r * lc_g
        r = [_zmul(c, lc_g) for c in r[:-1]]
        for k in range(dg):
            r[k + shift] = _zsub(r[k + shift], _zmul(lc_r, g[k]))
        while r and not r[-1]:
            r.pop()
    if steps > 0:
        factor = _zpow(lc_g, steps)
        r = [_zmul(c, factor) for c in r]
    return r


def _integer_resultant(f: list[list[int]], g: list[list[int]]) -> list[int]:
    """Res(f, g) in Z[t] by Brown's subresultant PRS; f, g have degree >= 0."""
    n, m = len(f) - 1, len(g) - 1
    if n == 0 and m == 0:
        return [1]
    if m == 0:
        return _zpow(g[0], n)
    if n == 0:
        return _zpow(f[0], m)

    negate = n < m and (n * m) % 2 == 1
    if n < m:
        f, g, n, m = g, f, m, n

    # last_scalar is the latest scalar subresultant; every division is exact
    # in Z[t] because each quotient is a subresultant, a determinant in the
    # input coefficients.
    d = n - m
    h = _zprem(f, g)
    if d % 2 == 0:
        h = [_zneg(c) for c in h]
    lc = g[-1]
    c = _zpow(lc, d)
    last_scalar = c
    neg_c = _zneg(c)
    last = g
    while h:
        k = len(h) - 1
        f, g = g, h
        d = len(f) - 1 - k
        b = _zneg(_zmul(lc, _zpow(neg_c, d)))
        h = [_zdiv_exact(coeff, b) for coeff in _zprem(f, g)]
        lc = g[-1]
        if d > 1:
            neg_c = _zdiv_exact(_zpow(_zneg(lc), d), _zpow(neg_c, d - 1))
        else:
            neg_c = _zneg(lc)
        last_scalar = _zneg(neg_c)
        last = g

    if len(last) - 1 > 0:
        return []
    return _zneg(last_scalar) if negate else last_scalar


def _integer_coeffs(p: ExactPoly, i: int, j: int | None) -> list[list[int]]:
    """The numerators of p as a polynomial in variable i over Z[t], where t is
    variable j (None when p uses no variable other than i)."""
    coeffs: list[list[int]] = [[] for _ in range(max(e[i] for e in p.num) + 1)]
    for exps, coeff in p.num.items():
        row = coeffs[exps[i]]
        k = 0 if j is None else exps[j]
        if len(row) <= k:
            row.extend([0] * (k + 1 - len(row)))
        row[k] = coeff
    return coeffs


def resultant(p: ExactPoly, q: ExactPoly, name: str) -> ExactPoly:
    """Resultant of p and q eliminating one variable, via the subresultant PRS.

    Convention: Res(p, q) = lc(p)**deg(q) * prod q(roots of p); it is zero
    exactly when p and q share a factor of positive degree in the eliminated
    variable.  Apart from ``name``, p and q together may use at most one
    variable t of their VarSet; ValueError otherwise.  The PRS of Collins
    and Brown runs on the integer numerators of p and q as lists in Z[t],
    every division checked exact.  The result is divided once by
    dp**deg(q) * dq**deg(p), where dp and dq are the shared denominators of
    p and q: the factor by which clearing them multiplies the resultant.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial is undefined")
    p._check_same_vars(q)
    vars = p.vars
    i = vars.index(name)
    others = (set(p.used_variables()) | set(q.used_variables())) - {name}
    if len(others) > 1:
        raise ValueError(f"resultant supports one variable besides {name!r}, "
                         f"found {sorted(others)}")
    j = vars.index(others.pop()) if others else None
    f = _integer_coeffs(p, i, j)
    g = _integer_coeffs(q, i, j)
    res = _integer_resultant(f, g)
    return _from_dense(vars, j, res, p.den ** (len(g) - 1) * q.den ** (len(f) - 1))


def sylvester_resultant(p: ExactPoly, q: ExactPoly, name: str) -> ExactPoly:
    """Resultant as the Sylvester determinant (cross-check path, small degrees)."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial is undefined")
    p._check_same_vars(q)
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

    # Fraction-free Bareiss determinant over the polynomial ring.
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


# -- univariate gcd and squarefree test --------------------------------------

def _primitive(coeffs: list[int]) -> list[int]:
    """Integer coefficient list divided by its (positive) content."""
    content = gcd(*coeffs)
    return [c // content for c in coeffs]


def _primitive_coeffs(p: ExactPoly, name: str | None) -> list[int]:
    """Primitive integer coefficient list (index = degree) of a univariate p; [] for zero."""
    if p.is_zero():
        return []
    i = None if name is None else p.vars.index(name)
    coeffs = [0] * (1 if i is None else max(e[i] for e in p.num) + 1)
    for exps, coeff in p.num.items():
        k = 0 if i is None else exps[i]
        if sum(exps) != k:
            raise ValueError("polynomial is not univariate")
        coeffs[k] = coeff
    return _primitive(coeffs)


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b (integer lists, b nonzero)."""
    r = list(a)
    db = len(b) - 1
    lc_b = b[-1]
    while r and len(r) - 1 >= db:
        # r := (lc_b / g) * r - (lc_r / g) * x^shift * b kills the leading term
        g = gcd(r[-1], lc_b)
        scale_r, scale_b = lc_b // g, r[-1] // g
        shift = len(r) - 1 - db
        r = [c * scale_r for c in r]
        for k, c in enumerate(b):
            r[k + shift] -= scale_b * c
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r) if r else r


def gcd_univariate(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Monic gcd of two effectively-univariate polynomials (not both zero).

    Runs the primitive remainder sequence over the integers; the gcd over Q
    is the last nonzero remainder made monic.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    p._check_same_vars(q)
    name = _effective_variable(p, q)
    a = _primitive_coeffs(p, name)
    b = _primitive_coeffs(q, name)
    while b:
        a, b = b, _primitive_prem(a, b)
    # a is primitive, so a / a[-1] is canonical once a[-1] is positive
    if a[-1] < 0:
        a = [-c for c in a]
    return _from_dense(p.vars, None if name is None else p.vars.index(name), a, a[-1])


def squarefree_univariate(p: ExactPoly) -> bool:
    """True iff gcd(p, p') is constant; constants count as squarefree."""
    if p.is_zero():
        raise ValueError("squarefree test of the zero polynomial is undefined")
    name = _effective_variable(p)
    if name is None:
        return True
    g = gcd_univariate(p, poly_diff(p, name))
    return g.is_constant()


def rational_roots(p: ExactPoly, divisor_limit: int = 10**12) -> tuple[list[Fraction], bool]:
    """All rational roots of an effectively-univariate polynomial.

    Returns ``(roots, complete)``.  complete is False when the leading or
    trailing integer coefficient was too large to factor within the trial
    division budget, in which case the list may miss roots.
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    name = _effective_variable(p)
    if name is None:
        return [], True
    ints = _primitive_coeffs(p, name)
    roots: list[Fraction] = []
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
        ints = ints[low:]
    if len(ints) == 1:
        return roots, True
    a0, an = abs(ints[0]), abs(ints[-1])
    complete = True
    if a0 > divisor_limit or an > divisor_limit:
        complete = False
        num_divs = [d for d in range(1, 10**4 + 1) if a0 % d == 0]
        den_divs = [d for d in range(1, 10**4 + 1) if an % d == 0]
    else:
        num_divs = _divisors(a0)
        den_divs = _divisors(an)
    seen: set[Fraction] = set()
    for nd in num_divs:
        for dd in den_divs:
            for cand in (Fraction(nd, dd), Fraction(-nd, dd)):
                if cand in seen:
                    continue
                seen.add(cand)
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return roots, complete


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
