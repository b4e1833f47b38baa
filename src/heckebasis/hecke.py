"""Generic Iwahori-Hecke algebra of a weighted Coxeter datum, in the
T-basis over Laurent polynomials in u.

The defining relations, with L the weight function:

    T_s * T_w = T_(sw)                                  if length(sw) > length(w)
    T_s * T_w = u^L(s) * T_(sw) + (u^L(s) - 1) * T_w    otherwise

The symmetrizing trace tau picks out the coefficient of T_identity; its
dual basis is T_w^ = u^-L(w) * T_(w^-1), which gives the bilinear law
tau(T_w * T_w') = u^L(w) * [w' == w^-1], checked exhaustively in tests.

An element is stored as a map from element index to a nonzero
LaurentPoly. The values are immutable, so elements share them freely:
support() and coefficient() return them as they are, and scaling, sums,
the text form and the wide products below compute on them.

A product x * y runs one kernel, _chain: it builds T_w * y along the
reduced word of each w in the support of x, sharing the steps of common
suffixes, and adds up x_w * (T_w * y)_v. The coefficients are first
packed by `laurent`'s codec, so each becomes one int (Kronecker
substitution at u = 2^B) and sums, lifts and products are single int
operations. Evaluation is an exact ring map, and B is fixed before
anything is packed by an l1 bound on the result, one T_s step at most
tripling it, so every coefficient decodes exactly. The bound is this
module's (_packing); the codec, its bit layout and its cap are
`laurent`'s. A product whose packed coefficients would exceed the cap
(a u^(10^12) next to a u^0, or a weight near 2^31) gets B = None, and
the same body runs on the stored LaurentPoly values.

Elements render as "(poly) * T[word]" summands joined by " + ", ordered
by the datum's deterministic element order, and parse back exactly.

>>> from heckebasis.coxeter import build_datum
>>> d = build_datum("g2", 2, [3, 1])
>>> ts = t_basis(d, d.generator(0))
>>> print(ts * ts)
(1*u^3) * T[e] + (-1*u^0 + 1*u^3) * T[s1]
>>> q = LaurentPoly.monomial(d.weights[0])
>>> print(ts * ts - (ts.scale(q - 1) + unit(d).scale(q)))
0
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .coxeter import CoxeterDatum, GroupElement
from .laurent import LaurentPoly, _cleared, _packed, _packs, _unpacked

__all__ = [
    "HeckeElement",
    "DatumMismatch",
    "t_basis",
    "unit",
    "zero",
    "generator_times_basis",
    "tau",
    "tau_bilinear",
]

_TERM = re.compile(r"\(([^()]*)\)\s*\*\s*T\[([^\]]*)\]")
_PLUS = re.compile(r"\s*\+\s*")
_ZERO = LaurentPoly.zero()


class DatumMismatch(ValueError):
    """Raised when elements of different datums are combined."""


def _chain(datum: CoxeterDatum, x: dict, y: dict, lift: list, zero) -> dict:
    """sum_w x_w * (T_w * y) as {index: value}, in any commutative ring
    that holds the values of x and y: lift[s] is u^L(s) there and zero is
    its zero. The chain never stores a zero value; the sum may.

    T_w * y is built right to left along the reduced word of w. Visiting
    w in the order of its reversed word keeps words with a common suffix
    adjacent, so chain[k] = T_(last k letters) * y is computed once per
    distinct suffix. One step T_s * (sum of a_v T_v) applies the defining
    relations: for a pair v < sv = w it holds u^L(s) a_w at v and
    a_v + (u^L(s) - 1) a_w at w, so each key is written once.
    """
    rank = datum.rank
    left = datum._left
    words = datum._words
    total: dict = {}
    chain = [y]
    previous = b""
    for w in sorted(x, key=lambda i: words[i][::-1]):
        letters = words[w][::-1]
        k = 0
        for a, b in zip(letters, previous):
            if a != b:
                break
            k += 1
        del chain[k + 1 :]
        for s in letters[k:]:
            support = chain[-1]
            q = lift[s]
            out = {}
            for v, a in support.items():
                sv = left[v * rank + s]
                if sv > v:  # elements are ordered by length
                    if sv not in support:  # else the step for sv writes out[sv]
                        out[sv] = a
                else:
                    b = a * q
                    out[sv] = b
                    top = support.get(sv, zero) + b - a
                    if top:
                        out[v] = top
            chain.append(out)
        previous = letters
        c = x[w]
        for v, a in chain[-1].items():
            total[v] = total.get(v, zero) + c * a
    return total


def _packing(
    datum: CoxeterDatum, x: dict, norms_x: list[int], norms_y: list[int],
    span: int,
) -> int | None:
    """B for packing the nonempty supports x and y at u = 2^B, or None
    when laurent._packs refuses the width, the test `reps` packs under
    too. norms_x and norms_y are the l1 norms of the cleared
    coefficients (laurent._cleared) of x, in the order of x, and of y,
    and span is the sum of the two spans of their exponents.

    One step T_s at most triples the l1 norm, since a_w gives u^L(s) a_w
    and (u^L(s) - 1) a_w. So no coefficient of x * y exceeds
    (sum_w |x_w|_1 3^l(w)) * (sum_v |y_v|_1) in absolute value, and B is
    one bit wider than that bound, for the sign of a balanced digit. With
    exponents offset by the lowest ones, a coefficient of x * y has at
    most span + L(w0) + 1 digits, w0 the longest element, whose weight
    is the largest; so the lift u^L(s) of every generator s fits in
    that width too. L(w0) = sum_c L_c n_c(w0) is summed over the word of
    w0, as no weight is tabulated per element.
    """
    words = datum._words
    norm_x = sum(norm * 3 ** len(words[w]) for w, norm in zip(x, norms_x))
    bits = (norm_x * sum(norms_y)).bit_length() + 1
    top = datum.weight(datum.longest_element())
    if not _packs(bits, span + top + 1):
        return None
    return bits


class HeckeElement:
    """A finite A-linear combination of T-basis elements, A = Q[u, u^-1].

    Immutable; zero coefficients are never stored. Terms are keyed by
    element index internally and become GroupElements only at the API.
    """

    __slots__ = ("_datum", "_support")

    def __init__(
        self,
        datum: CoxeterDatum,
        support: Mapping[GroupElement, LaurentPoly] | None = None,
    ):
        data: dict[int, LaurentPoly] = {}
        if support:
            for w, poly in support.items():
                if w.datum is not datum:
                    raise DatumMismatch(
                        "support element belongs to a different datum"
                    )
                if not isinstance(poly, LaurentPoly):
                    poly = LaurentPoly.constant(poly)
                if poly:
                    data[w.index] = poly
        self._datum = datum
        self._support = data

    @classmethod
    def _of(cls, datum: CoxeterDatum, data: dict) -> "HeckeElement":
        """Wrap an index-keyed support of nonzero LaurentPoly values,
        without copying it."""
        h = object.__new__(cls)
        h._datum = datum
        h._support = data
        return h

    @property
    def datum(self) -> CoxeterDatum:
        return self._datum

    def support(self) -> list[tuple[GroupElement, LaurentPoly]]:
        """Terms ordered by the datum's element order, each coefficient
        the stored one."""
        d = self._datum
        return [
            (GroupElement(d, i), poly)
            for i, poly in sorted(self._support.items())
        ]

    def coefficient(self, w: GroupElement) -> LaurentPoly:
        if w.datum is not self._datum:
            raise DatumMismatch("element belongs to a different datum")
        return self._support.get(w.index, _ZERO)

    def is_zero(self) -> bool:
        return not self._support

    def __bool__(self) -> bool:
        return bool(self._support)

    def _check(self, other: "HeckeElement") -> None:
        if self._datum is not other._datum:
            raise DatumMismatch("cannot combine elements over different datums")

    # ----- module operations ---------------------------------------------

    def __add__(self, other) -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        data = dict(self._support)
        for i, poly in other._support.items():
            poly = data.get(i, _ZERO) + poly
            if poly:
                data[i] = poly
            else:
                del data[i]
        return HeckeElement._of(self._datum, data)

    def __neg__(self) -> "HeckeElement":
        return self.scale(-1)

    def __sub__(self, other) -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "HeckeElement":
        if not isinstance(scalar, LaurentPoly):
            scalar = LaurentPoly.constant(scalar)
        data: dict[int, LaurentPoly] = {}
        if scalar:
            for i, poly in self._support.items():
                data[i] = poly * scalar
        return HeckeElement._of(self._datum, data)

    # ----- algebra multiplication ------------------------------------------

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        d = self._datum
        if not self._support or not other._support:
            return HeckeElement._of(d, {})
        # Evaluating at u = 2^B is a ring map, exact while every digit of
        # the result fits in B bits: with denominators cleared, each
        # coefficient becomes one int, and _chain adds, lifts and
        # multiplies whole coefficients. The l1 bound of _packing fixes B
        # before anything is packed, or leaves the LaurentPoly values as
        # they are (bits None); the result is decoded once.
        x, y = self._support, other._support
        den_x, lo_x, hi_x, norms_x = _cleared(x.values())
        den_y, lo_y, hi_y, norms_y = _cleared(y.values())
        bits = _packing(d, x, norms_x, norms_y, hi_x - lo_x + hi_y - lo_y)
        lift = [_packed(LaurentPoly.monomial(L), bits) for L in d.weights]
        x = {w: _packed(p, bits, lo_x, den_x) for w, p in x.items()}
        y = {v: _packed(p, bits, lo_y, den_y) for v, p in y.items()}
        total = _chain(d, x, y, lift, _packed(_ZERO, bits))
        lo, den = lo_x + lo_y, den_x * den_y
        data = {v: _unpacked(n, bits, lo, den) for v, n in total.items() if n}
        return HeckeElement._of(d, data)

    __rmul__ = __mul__  # scalars commute with every element

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self._datum is other._datum and self._support == other._support

    def __hash__(self) -> int:
        return hash((id(self._datum), tuple(sorted(self._support.items()))))

    # ----- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._support:
            return "0"
        d = self._datum
        return " + ".join(
            f"({poly}) * T[{d._render(i)}]"
            for i, poly in sorted(self._support.items())
        )

    def __repr__(self) -> str:
        return f"HeckeElement({str(self)!r})"

    @classmethod
    def parse(cls, datum: CoxeterDatum, text: str) -> "HeckeElement":
        """Parse the canonical rendering back exactly: "0", or terms
        "(poly) * T[word]" with exactly one "+" between consecutive terms
        (whitespace around it optional). A word need not be reduced."""
        text = text.strip()
        if text == "0":
            return cls(datum)
        data: dict[int, LaurentPoly] = {}
        pos = 0
        while True:
            match = _TERM.match(text, pos)
            if match is None:
                raise ValueError(
                    f"expected a term '(poly) * T[word]' at offset {pos} "
                    f"in {text!r}"
                )
            poly = LaurentPoly.parse(match.group(1))
            i = datum.parse_element(match.group(2)).index
            if i in data:
                raise ValueError(f"duplicate basis element in {text!r}")
            data[i] = poly
            pos = match.end()
            if pos == len(text):
                return cls._of(datum, {i: p for i, p in data.items() if p})
            plus = _PLUS.match(text, pos)
            if plus is None:
                raise ValueError(
                    f"expected ' + ' between terms at offset {pos} in {text!r}"
                )
            pos = plus.end()


def t_basis(datum: CoxeterDatum, w: GroupElement) -> HeckeElement:
    return HeckeElement(datum, {w: LaurentPoly.one()})


def unit(datum: CoxeterDatum) -> HeckeElement:
    return t_basis(datum, datum.identity)


def zero(datum: CoxeterDatum) -> HeckeElement:
    return HeckeElement(datum)


def generator_times_basis(
    datum: CoxeterDatum, s: int, w: GroupElement
) -> HeckeElement:
    """T_s * T_w by the defining relations."""
    return t_basis(datum, datum.generator(s)) * t_basis(datum, w)


def tau(h: HeckeElement) -> LaurentPoly:
    """The symmetrizing trace: the coefficient of T_identity."""
    return h.coefficient(h.datum.identity)


def tau_bilinear(
    datum: CoxeterDatum, w1: GroupElement, w2: GroupElement
) -> LaurentPoly:
    """tau(T_w1 * T_w2), by explicit multiplication."""
    return tau(t_basis(datum, w1) * t_basis(datum, w2))
