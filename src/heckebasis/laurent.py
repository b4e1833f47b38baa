"""Exact arithmetic for Laurent polynomials in one variable u over Q,
cyclotomic polynomials, and the ring Z[zeta_e] of cyclotomic integers.

Everything here is exact: a coefficient is stored as a plain `int` when it
is integral and as a `fractions.Fraction` only when it is not, and
cyclotomic integers are integer vectors reduced modulo the e-th cyclotomic
polynomial Phi_e (a Moebius product of the u^d - 1, d | e, in plain ints)
by the one rule u^k -> zeta_e^(k mod e). No floating point anywhere.

The canonical form of a Laurent polynomial, its term map, never stores
zero coefficients and never stores an integral `Fraction`, so equality is
plain dictionary equality. Hecke and Schur coefficients are integers, so
the hot loops run on machine-size `int` arithmetic; `hash(Fraction(3)) ==
hash(3)` keeps hashing independent of the storage type, and a constant
hashes as the scalar it equals.

This module owns the term map: `hecke` and `reps` store LaurentPoly
values and never read one. A caller that sums terms hands its
(exponent, coefficient) pairs to LaurentPoly.summed, which checks each
pair as the constructor checks a term. Hecke products and the relation
check of a wider rep run on coefficients packed into ints, and this
module owns the whole codec, bit layout included: `_cleared` reads the
common denominator, the lowest and highest exponent and the l1 norms
that a caller's width bound needs, and returns no term map; `_packs` asks
MAX_PACKED_BITS, the one cap on a packed value, before anything is
packed; `_packed` evaluates a LaurentPoly, denominators cleared, at
u = 2^B, and `_unpacked` decodes a packed value's balanced base-2^B
digits. With B = None both hand the LaurentPoly back as it is, so a
caller over the cap runs its one body in the LaurentPoly ring.
It also owns check_ell, the one gate of every reduction mod a prime ell
at u = q: specialize_mod_prime and every `modarith` entry that takes ell,
verify_a_sets included, pass it, so MAX_ELL and each refusal are stated
once.
MAX_ORDER bounds every cyclotomic order e (bound_order) before Phi_e, a
coordinate vector or the table of the powers of zeta_e is built.

>>> p = LaurentPoly.parse("2*u^-3 + 1*u^1")
>>> p.valuation()
-3
>>> str(p * p)
'4*u^-6 + 4*u^-2 + 1*u^2'
>>> str(cyclotomic_polynomial(6))
'1*u^0 + -1*u^1 + 1*u^2'
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "LaurentPoly",
    "CyclotomicInt",
    "ZeroPolynomial",
    "NonIntegerCoefficients",
    "PrimeDividesQ",
    "CyclotomicCheckFailed",
    "cyclotomic_polynomial",
    "specialize_cyclotomic",
    "specialize_mod_prime",
    "euler_phi",
    "is_prime",
    "bound_order",
    "check_ell",
    "MAX_ELL",
    "MAX_ORDER",
    "MAX_TOTIENT",
]

Scalar = Union[int, Fraction]

# One term of the canonical text form, in ASCII digits: an integer or a
# fraction times a power of u. int() and Fraction() alone would also read
# 0.5, 1_000, 1e1000000000 (unbounded work) and non-ASCII digits.
_TERM = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\*u\^(-?[0-9]+)")


class ZeroPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial (e.g. valuation)."""


class NonIntegerCoefficients(ValueError):
    """Raised when an operation requires integer (or l-integral) coefficients."""


class PrimeDividesQ(ValueError):
    """Raised when reducing at a prime l that divides the specialization point q."""


class CyclotomicCheckFailed(ArithmeticError):
    """A computed cyclotomic polynomial is not monic of degree phi(e) with
    integer coefficients, or two powers of zeta_e below e coincide."""


# Largest ell accepted, checked before the primality test and any walk.
# A0 at e = ell - 1 is dominated by the table of the powers of zeta_e, of
# cost about e * phi(e): 9 ms at e = 796 and 14 ms at e = 1018 in process
# (Phi_e itself takes under 1 ms). e-value --q 3 --ell 797 --a 1 takes
# about 107 ms as a fresh process, against 95 ms at ell = 7 (medians of
# 15, one Xeon core, CPython 3.11).
MAX_ELL = 800

# Largest cyclotomic order e accepted. The package reaches e <= ell - 1 <
# MAX_ELL from compute_e and e <= 240 from coxeter's root rings; the
# factorisation of u^e - 1 is tested up to e = 2310. Phi_e takes O(e) ints,
# and the table of zeta_e powers e * phi(e): at the prime 2399 it takes
# about 150 ms and 60 MiB in process (one Xeon core, CPython 3.11).
MAX_ORDER = 3 * MAX_ELL

# Largest n euler_phi factors: trial division takes at most 10^4 steps,
# about 1 ms. phi(n) >= sqrt(n / 2), so every caller that bounds phi(n)
# by a few hundred can refuse a larger n without factoring it.
MAX_TOTIENT = 10**8


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division;
    [] for n < 2."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; fine for the sizes used here.

    >>> [k for k in range(20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    return _prime_factors(n) == [n]


def bound_order(e: int) -> None:
    """ValueError when the cyclotomic order e exceeds MAX_ORDER; runs before
    Phi_e, a coordinate vector or the powers of zeta_e are built."""
    if e > MAX_ORDER:
        raise ValueError(f"cyclotomic order e = {e} exceeds the maximum {MAX_ORDER}")


def check_ell(q: int, ell: int) -> None:
    """The one gate of a reduction mod ell at u = q, which every entry
    that takes ell passes: ell at most MAX_ELL (checked first, so no trial
    division runs on a large ell), ell prime (ValueError) and ell not
    dividing q (PrimeDividesQ)."""
    if ell > MAX_ELL:
        raise ValueError(f"ell = {ell} exceeds the maximum {MAX_ELL}")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if q % ell == 0:
        raise PrimeDividesQ(f"prime {ell} divides q = {q}")


@functools.cache
def euler_phi(n: int) -> int:
    """Euler's totient, n times (1 - 1/p) over the primes p of n; n
    above MAX_TOTIENT raises ValueError before any trial division.

    >>> [euler_phi(e) for e in (1, 2, 6, 12)]
    [1, 1, 2, 4]
    """
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    if n > MAX_TOTIENT:
        raise ValueError(f"euler_phi needs n <= {MAX_TOTIENT}, got {n}")
    for p in _prime_factors(n):
        n -= n // p
    return n


def _demoted(c: Scalar) -> Scalar:
    """c as an int when it is integral, else unchanged."""
    if type(c) is not int and c.denominator == 1:
        return c.numerator
    return c


# A term map: the canonical exponent -> coefficient dict of a LaurentPoly.
Terms = dict[int, Scalar]


def _summed(pairs: Iterable[tuple[int, Scalar]]) -> Terms:
    """The canonical term map of the sum of c u^e over the (e, c) pairs,
    which may repeat an exponent; each pair is checked as it is added: e
    must be an int and c an int or a Fraction (TypeError otherwise, so a
    bool or a float is refused). The checking body of LaurentPoly.summed
    and of the constructor."""
    terms: dict[int, Scalar] = {}  # may hold zeros and integral Fractions
    get = terms.get
    for exp, c in pairs:
        if type(exp) is not int:
            raise TypeError(f"exponent {exp!r} is not an int")
        if type(c) is not int and not isinstance(c, Fraction):
            raise TypeError(f"coefficient {c!r} is not an int or Fraction")
        terms[exp] = get(exp, 0) + c
    return {e: c if type(c) is int else _demoted(c) for e, c in terms.items() if c}


def _combined(a: Terms, b: Terms, op) -> Terms:
    """The canonical term map of a op b, for op in {add, sub}; the kernel
    of LaurentPoly.__add__ and __sub__."""
    terms = dict(a)
    for exp, coeff in b.items():
        c = op(terms.get(exp, 0), coeff)
        if c:
            terms[exp] = c if type(c) is int else _demoted(c)
        else:
            del terms[exp]
    return terms


# A packed value holds at most this many bits, 8 KiB. Work whose packed
# values would need more (a u^(10^12) next to a u^0, or a weight near
# 2^31) runs on LaurentPoly values instead.
MAX_PACKED_BITS = 1 << 16


def _packs(bits: int, digits: int) -> bool:
    """Whether a value of `digits` base-2^bits digits fits in
    MAX_PACKED_BITS; asked before anything is packed."""
    return bits * digits <= MAX_PACKED_BITS


def _packed(p: "LaurentPoly", bits: int | None, lo: int = 0, den: int = 1):
    """D p u^-lo evaluated at u = 2^bits, for D = den: an int when D p is
    integral and lo is at most its lowest exponent (Kronecker
    substitution), and p itself when bits is None, the LaurentPoly ring.
    Evaluation is a ring map, so sums and products of packed values are
    the packed values of sums and products; two polynomials whose
    coefficients differ by less than 2^bits in absolute value are equal
    iff their packed values are."""
    if bits is None:
        return p
    if den == 1:
        return sum(c << (bits * (e - lo)) for e, c in p._terms.items())
    return sum(int(c * den) << (bits * (e - lo)) for e, c in p._terms.items())


def _cleared(polys: Iterable["LaurentPoly"]) -> tuple[int, int, int, list[int]]:
    """What packing the polys needs: (D, lo, hi, norms). D is the lcm of
    the denominators of their coefficients, so each D p is integral. lo
    and hi are the lowest and highest exponent in all the polys (0 if
    every p is zero), and norms the l1 norms of the D p, in order, which
    a caller's bound on the width of its packed values reads."""
    maps = [p._terms for p in polys]
    norms = [sum(map(abs, terms.values())) for terms in maps]
    den = 1
    if type(sum(norms)) is not int:  # a stored Fraction makes it one
        for terms in maps:
            for c in terms.values():
                if type(c) is not int:
                    den = math.lcm(den, c.denominator)
        norms = [int(norm * den) for norm in norms]  # |D p|_1 = D |p|_1
    exponents = [e for terms in maps for e in terms]
    lo, hi = min(exponents, default=0), max(exponents, default=0)
    return den, lo, hi, norms


def _unpacked(n, bits: int | None, lo: int, den: int):
    """The nonzero packed value n decoded: the k-th of its balanced
    base-2^bits digits, divided by den, is the coefficient of u^(lo + k);
    n itself when bits is None. The digits are exact while each
    coefficient of the polynomial that was packed is below 2^(bits - 1)
    in absolute value."""
    if bits is None:
        return n
    half = 1 << (bits - 1)
    mask = (half << 1) - 1
    terms: Terms = {}
    e = lo
    while n:
        r = n & mask
        n >>= bits
        if r >= half:
            r -= mask + 1
            n += 1
        if r:
            terms[e] = r if den == 1 else _demoted(Fraction(r, den))
        e += 1
    return LaurentPoly._of(terms)


class LaurentPoly:
    """A Laurent polynomial in u with exact rational coefficients.

    Immutable. The term map never contains zero coefficients, and holds a
    coefficient as an int exactly when it is integral, so two equal
    polynomials always have identical term maps.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        if terms and all(type(e) is int is type(c) and c for e, c in terms.items()):
            self._terms = dict(terms)  # canonical as it is
        else:
            self._terms = _summed(terms.items()) if terms else {}

    @classmethod
    def _of(cls, terms: dict[int, Scalar]) -> "LaurentPoly":
        """Wrap a term map that is already canonical, without copying it."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPoly":
        return cls.monomial(0, c)

    @classmethod
    def summed(cls, pairs: Iterable[tuple[int, Scalar]]) -> "LaurentPoly":
        """The sum of c u^e over the (exponent, coefficient) pairs, which
        may repeat an exponent; each pair is checked as the constructor
        checks a term.

        >>> str(LaurentPoly.summed([(1, 2), (0, 1), (1, -2), (2, Fraction(4, 2))]))
        '1*u^0 + 2*u^2'
        """
        return cls._of(_summed(pairs))

    @classmethod
    def monomial(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        if type(exp) is int and type(coeff) is int:  # canonical as it is
            return cls._of({exp: coeff} if coeff else {})
        return cls({exp: coeff})

    # ----- canonical text form ------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical rendering back, bit-exactly.

        >>> LaurentPoly.parse("-3/2*u^-2 + 1*u^0") == LaurentPoly({-2: Fraction(-3, 2), 0: 1})
        True
        >>> LaurentPoly.parse("0").is_zero()
        True
        """
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[int, Scalar] = {}
        zeros: set[int] = set()  # exponents read with a zero coefficient
        for token in text.split("+"):
            token = token.strip()
            match = _TERM.fullmatch(token)
            if match is None:
                raise ValueError(
                    f"malformed term {token!r}: expected c*u^k or c/d*u^k "
                    "in ASCII digits"
                )
            numerator, denominator, exp_text = match.groups()
            exp = int(exp_text)
            if exp in terms or exp in zeros:
                raise ValueError(f"duplicate exponent {exp} in {text!r}")
            c = int(numerator)
            if denominator is not None:
                if int(denominator) == 0:
                    raise ValueError(f"zero denominator in term {token!r}")
                c = _demoted(Fraction(c, int(denominator)))
            if c:
                terms[exp] = c
            else:
                zeros.add(exp)
        return cls._of(terms)  # canonical as it is read

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*u^{k}" for k, c in sorted(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly.parse({str(self)!r})"

    # ----- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[int, Scalar]]:
        """Terms as (exponent, coefficient), ascending in the exponent; a
        coefficient is an int exactly when it is integral."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, exp: int) -> Scalar:
        return self._terms.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no valuation")
        return min(self._terms)

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(self._terms)

    def leading_coefficient_at_valuation(self) -> Scalar:
        return self._terms[self.valuation()]

    def has_integer_coefficients(self) -> bool:
        return all(type(c) is int for c in self._terms.values())

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact evaluation at u = x (x != 0 if negative exponents occur)."""
        x = Fraction(x)
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            total += coeff * x**exp
        return total

    # ----- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        """other as a LaurentPoly, or None for what the constructor refuses
        as a coefficient (a bool among them), so the operator declines."""
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return LaurentPoly.constant(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        rhs = other if type(other) is LaurentPoly else self._coerce(other)
        if rhs is None:
            return NotImplemented
        return LaurentPoly._of(_combined(self._terms, rhs._terms, operator.add))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return LaurentPoly._of(_combined(self._terms, rhs._terms, operator.sub))

    def __rsub__(self, other) -> "LaurentPoly":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        rhs = other if type(other) is LaurentPoly else self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._terms, rhs._terms
        if len(b) == 1:
            # A monomial: no two products share an exponent, none is zero.
            ((e2, c2),) = b.items()
            if c2 == 1:
                return LaurentPoly._of({e1 + e2: c1 for e1, c1 in a.items()})
            return LaurentPoly._of(
                {e1 + e2: _demoted(c1 * c2) for e1, c1 in a.items()}
            )
        acc: dict[int, Scalar] = {}  # may hold zeros and integral Fractions
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly._of(
            {e: c if type(c) is int else _demoted(c) for e, c in acc.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"only nonnegative integer powers, got {n!r}")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        rhs = other if type(other) is LaurentPoly else self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        # A constant equals its scalar, so it hashes as the scalar does.
        terms = self._terms
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash(tuple(sorted(terms.items())))


def _cyclotomic_coefficients(e: int) -> list[int]:
    """The coefficients of Phi_e in u, degrees 0..e (Phi_1 = u - 1: 0..1).

    Phi_e is the product of (u^d - 1)^mu(e/d) over d | e, where only
    d = e / prod(S), S a set of distinct primes of e, has mu(e/d) =
    (-1)^|S| nonzero. For e > 1 the signs cancel: Phi_e is the product of
    the (1 - u^d)^mu(e/d), exact in Z[[u]] and read here to degree e."""
    if e == 1:
        return [-1, 1]
    mobius = [(e, 1)]  # (d, mu(e/d)) for every squarefree e/d
    for p in _prime_factors(e):
        mobius += [(d // p, -mu) for d, mu in mobius]
    c = [1] + [0] * e
    for d, mu in mobius:
        if mu == 1:
            for i in range(e, d - 1, -1):  # multiply by 1 - u^d
                c[i] -= c[i - d]
        else:
            for i in range(d, e + 1):  # divide by 1 - u^d
                c[i] += c[i - d]
    return c


@functools.cache
def cyclotomic_polynomial(e: int) -> LaurentPoly:
    """The e-th cyclotomic polynomial Phi_e in u, monic with integer coefficients.

    Computed in plain ints as the Moebius product of the u^d - 1 over the
    divisors d of e, then checked to be monic of degree phi(e).

    >>> str(cyclotomic_polynomial(1))
    '-1*u^0 + 1*u^1'
    >>> str(cyclotomic_polynomial(4))
    '1*u^0 + 1*u^2'
    """
    if e < 1:
        raise ValueError(f"cyclotomic_polynomial needs e >= 1, got {e}")
    bound_order(e)
    phi = LaurentPoly(dict(enumerate(_cyclotomic_coefficients(e))))
    degree = euler_phi(e)
    if max(phi._terms, default=None) != degree or phi.coefficient(degree) != 1:
        raise CyclotomicCheckFailed(
            f"Phi_{e} came out as {phi}, not monic of degree {degree} "
            "with integer coefficients"
        )
    return phi


class CyclotomicInt:
    """An element of Z[zeta_e], stored as an integer vector of length phi(e)
    giving its coordinates in the basis 1, zeta, ..., zeta^(phi(e)-1),
    reduced modulo the e-th cyclotomic polynomial.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        bound_order(order)
        phi = euler_phi(order)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for order {order}")
        if any(type(c) is not int for c in coeffs):
            raise TypeError(f"coordinates {coeffs!r} are not all ints")
        self._order = order
        self._coeffs = tuple(coeffs)

    @classmethod
    def _of(cls, order: int, coeffs: tuple[int, ...]) -> "CyclotomicInt":
        """Wrap a tuple of phi(order) ints, without checking or copying it."""
        z = object.__new__(cls)
        z._order = order
        z._coeffs = coeffs
        return z

    @property
    def order(self) -> int:
        return self._order

    @property
    def coordinates(self) -> tuple[int, ...]:
        return self._coeffs

    @classmethod
    def zero(cls, order: int) -> "CyclotomicInt":
        bound_order(order)
        return cls(order, (0,) * euler_phi(order))

    @classmethod
    def one(cls, order: int) -> "CyclotomicInt":
        return cls.from_int(order, 1)

    @classmethod
    def from_int(cls, order: int, n: int) -> "CyclotomicInt":
        bound_order(order)
        coeffs = [0] * euler_phi(order)
        coeffs[0] = n
        return cls(order, tuple(coeffs))

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicInt":
        """zeta_e^power, reduced mod Phi_e.

        >>> CyclotomicInt.zeta(4, 2) == CyclotomicInt.from_int(4, -1)
        True
        """
        return _zeta_powers(order)[power % order]

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def _check_order(self, other: "CyclotomicInt") -> None:
        if self._order != other._order:
            raise ValueError(
                f"mixed cyclotomic orders {self._order} and {other._order}"
            )

    def __add__(self, other) -> "CyclotomicInt":
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check_order(other)
        return CyclotomicInt._of(
            self._order, tuple(a + b for a, b in zip(self._coeffs, other._coeffs))
        )

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt._of(self._order, tuple(-a for a in self._coeffs))

    def __sub__(self, other) -> "CyclotomicInt":
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check_order(other)
        return CyclotomicInt._of(
            self._order, tuple(a - b for a, b in zip(self._coeffs, other._coeffs))
        )

    def __mul__(self, other) -> "CyclotomicInt":
        if isinstance(other, int):
            return CyclotomicInt._of(
                self._order, tuple(a * other for a in self._coeffs)
            )
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check_order(other)
        phi = len(self._coeffs)
        prod = [0] * (2 * phi - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    if b:
                        prod[i + j] += a * b
        return _reduced(self._order, enumerate(prod))

    def __rmul__(self, other) -> "CyclotomicInt":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInt(order={self._order}, coeffs={self._coeffs})"


@functools.cache
def _zeta_powers(order: int) -> tuple[CyclotomicInt, ...]:
    """zeta_order^k for k = 0..order-1, each reduced mod Phi_order; the
    bound runs on a cache miss only, so zeta pays nothing for it."""
    bound_order(order)
    phi = euler_phi(order)
    poly = cyclotomic_polynomial(order)
    base = [-int(poly.coefficient(i)) for i in range(phi)]
    powers = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(order):
        powers.append(CyclotomicInt._of(order, tuple(cur)))
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            cur = [c + top * b for c, b in zip(cur, base)]
    return tuple(powers)


@functools.cache
def _zeta_exponents(order: int) -> dict[tuple[int, ...], int]:
    """k by the coordinates of zeta_order^k, for k = 0..order-1: the
    inverse of _zeta_powers (whose cache miss runs bound_order), so the
    exponent of a power of zeta_order is one exact lookup. Two powers
    with the same coordinates raise CyclotomicCheckFailed."""
    exponents = {}
    for k, power in enumerate(_zeta_powers(order)):
        if exponents.setdefault(power._coeffs, k) != k:
            raise CyclotomicCheckFailed(
                f"zeta_{order}^{exponents[power._coeffs]} and "
                f"zeta_{order}^{k} have the same coordinates"
            )
    return exponents


def _reduced(order: int, terms) -> CyclotomicInt:
    """The sum of c * zeta_order^k over the integer pairs (k, c) in terms.

    Phi_order divides u^order - 1, so u^k reduces to zeta^(k mod order)
    for every integer k; below phi(order) that power is a basis vector."""
    out = [0] * euler_phi(order)
    powers = _zeta_powers(order)
    for k, c in terms:
        k %= order
        if k < len(out):
            out[k] += c
        elif c:
            for i, r in enumerate(powers[k]._coeffs):
                out[i] += c * r
    return CyclotomicInt._of(order, tuple(out))


def specialize_cyclotomic(p: LaurentPoly, e: int) -> CyclotomicInt:
    """Substitute u -> zeta_e into p; p must have integer coefficients.

    Negative exponents go to zeta_e^(k mod e), which is exact since zeta_e
    is a unit of Z[zeta_e].

    >>> specialize_cyclotomic(cyclotomic_polynomial(6), 6).is_zero()
    True
    """
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    bound_order(e)
    if not p.has_integer_coefficients():
        raise NonIntegerCoefficients(
            f"cannot specialize non-integer coefficients: {p}"
        )
    return _reduced(e, p._terms.items())


def specialize_mod_prime(p: LaurentPoly, q: int, ell: int) -> int:
    """Evaluate p at u = q in the prime field F_ell, exactly.

    ell passes check_ell first: at most MAX_ELL, prime, and not dividing
    q, since negative exponents use the inverse of q mod ell. Rational
    coefficients are accepted as long as their denominators are
    invertible mod ell.

    >>> specialize_mod_prime(LaurentPoly({-1: 1, 2: 3}), 2, 7)
    2
    """
    check_ell(q, ell)
    total = 0
    for exp, c in p.items():
        if c.denominator % ell == 0:
            raise NonIntegerCoefficients(f"coefficient {c} is not {ell}-integral")
        total += pow(q, exp, ell) * c.numerator * pow(c.denominator, -1, ell)
    return total % ell
