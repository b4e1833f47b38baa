"""Generic Iwahori-Hecke algebra of a weighted Coxeter datum, in the
T-basis over Laurent polynomials in u.

The defining relations, with L the weight function:

    T_s * T_w = T_(sw)                                  if length(sw) > length(w)
    T_s * T_w = u^L(s) * T_(sw) + (u^L(s) - 1) * T_w    otherwise

The symmetrizing trace tau picks out the coefficient of T_identity; its
dual basis is T_w^ = u^-L(w) * T_(w^-1), which gives the bilinear law
tau(T_w * T_w') = u^L(w) * [w' == w^-1], checked exhaustively in tests.

An element is stored as a map from element index to a nonempty term map
of `laurent`, never mutated once stored, so elements share them freely.
LaurentPoly objects appear only at the API: the constructor, support(),
coefficient(), scale() and parse().

All products run through one generator kernel, _generator_times, which
applies the defining relations to a term-map support; the lift by
u^L(s) is a shift of exponents. A product x * y builds T_w * y along the
reduced word of each w in the support of x, sharing the steps of common
suffixes, and accumulates c_w * (T_w * y)_v in place, one accumulator per
output index v, made canonical once at the end.

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

import operator
import re
from fractions import Fraction
from typing import Mapping

from .coxeter import CoxeterDatum, GroupElement
from .laurent import (
    LaurentPoly,
    Scalar,
    Terms,
    _accumulate,
    _canonical,
    _combined,
    _product,
    _text,
)

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


class DatumMismatch(ValueError):
    """Raised when elements of different datums are combined."""


def _generator_times(
    datum: CoxeterDatum, s: int, support: dict[int, Terms]
) -> dict[int, Terms]:
    """T_s * (sum of p_w T_w) on an index-keyed support of term maps, by
    the defining relations; the one kernel behind every product in this
    module.

    For a pair v < sv = w the result holds u^L(s) p_w at v and
    p_v + (u^L(s) - 1) p_w at w, so each output key is written once.
    """
    rank = datum.rank
    left = datum._left
    shift = datum.weights[s]
    out: dict[int, Terms] = {}
    for w, terms in support.items():
        sw = left[w * rank + s]
        if sw > w:  # elements are ordered by length
            if sw not in support:  # otherwise the step for sw writes out[sw]
                out[sw] = terms
        else:
            # inline: _product by u^L(s), _accumulate by u^L(s) - 1 are slower
            out[sw] = {e + shift: c for e, c in terms.items()}
            top = dict(support.get(sw, ()))
            for e, c in terms.items():
                top[e + shift] = top.get(e + shift, 0) + c
                top[e] = top.get(e, 0) - c
            top = _canonical(top)
            if top:
                out[w] = top
    return out


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
        data: dict[int, Terms] = {}
        if support:
            for w, poly in support.items():
                if w.datum is not datum:
                    raise DatumMismatch(
                        "support element belongs to a different datum"
                    )
                if not isinstance(poly, LaurentPoly):
                    poly = LaurentPoly.constant(poly)
                if poly:
                    data[w.index] = poly._terms
        self._datum = datum
        self._support = data

    @classmethod
    def _of(cls, datum: CoxeterDatum, data: dict[int, Terms]) -> "HeckeElement":
        """Wrap an index-keyed support of canonical, nonempty term maps,
        without copying it."""
        h = object.__new__(cls)
        h._datum = datum
        h._support = data
        return h

    @property
    def datum(self) -> CoxeterDatum:
        return self._datum

    def support(self) -> list[tuple[GroupElement, LaurentPoly]]:
        """Terms ordered by the datum's element order."""
        d = self._datum
        return [
            (GroupElement(d, i), LaurentPoly._of(terms))
            for i, terms in sorted(self._support.items())
        ]

    def coefficient(self, w: GroupElement) -> LaurentPoly:
        if w.datum is not self._datum:
            raise DatumMismatch("element belongs to a different datum")
        return LaurentPoly._of(self._support.get(w.index, {}))

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
        for i, terms in other._support.items():
            terms = _combined(data.get(i, {}), terms, operator.add)
            if terms:
                data[i] = terms
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
        factor = scalar._terms
        data: dict[int, Terms] = {}
        if factor:
            for i, terms in self._support.items():
                data[i] = _product(terms, factor)
        return HeckeElement._of(self._datum, data)

    # ----- algebra multiplication ------------------------------------------

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        d = self._datum
        words = d._words
        support = self._support
        total: dict[int, dict[int, Scalar]] = {}
        # T_w * other is built right to left along the reduced word of w.
        # Visiting w in the order of its reversed word keeps words with a
        # common suffix adjacent, so chain[k] = T_(last k letters) * other
        # is computed once per distinct suffix.
        chain = [other._support]
        previous = b""
        for w in sorted(support, key=lambda i: words[i][::-1]):
            letters = words[w][::-1]
            k = 0
            for a, b in zip(letters, previous):
                if a != b:
                    break
                k += 1
            del chain[k + 1 :]
            for s in letters[k:]:
                chain.append(_generator_times(d, s, chain[-1]))
            previous = letters
            coeff = support[w]
            for v, terms in chain[-1].items():
                acc = total.get(v)
                if acc is None:
                    acc = total[v] = {}
                _accumulate(acc, coeff, terms)
        data: dict[int, Terms] = {}
        for v, acc in total.items():
            terms = _canonical(acc)
            if terms:
                data[v] = terms
        return HeckeElement._of(d, data)

    __rmul__ = __mul__  # scalars commute with every element

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self._datum is other._datum and self._support == other._support

    def __hash__(self) -> int:
        return hash(
            (
                id(self._datum),
                tuple(
                    (i, tuple(sorted(terms.items())))
                    for i, terms in sorted(self._support.items())
                ),
            )
        )

    # ----- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._support:
            return "0"
        d = self._datum
        return " + ".join(
            f"({_text(terms)}) * T[{d._render(i)}]"
            for i, terms in sorted(self._support.items())
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
        data: dict[int, Terms] = {}
        pos = 0
        while True:
            match = _TERM.match(text, pos)
            if match is None:
                raise ValueError(
                    f"expected a term '(poly) * T[word]' at offset {pos} "
                    f"in {text!r}"
                )
            terms = LaurentPoly.parse(match.group(1))._terms
            i = datum.parse_element(match.group(2)).index
            if i in data:
                raise ValueError(f"duplicate basis element in {text!r}")
            data[i] = terms
            pos = match.end()
            if pos == len(text):
                return cls._of(datum, {i: t for i, t in data.items() if t})
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
    return HeckeElement._of(
        datum, _generator_times(datum, s, t_basis(datum, w)._support)
    )


def tau(h: HeckeElement) -> LaurentPoly:
    """The symmetrizing trace: the coefficient of T_identity."""
    return h.coefficient(h.datum.identity)


def tau_bilinear(
    datum: CoxeterDatum, w1: GroupElement, w2: GroupElement
) -> LaurentPoly:
    """tau(T_w1 * T_w2), by explicit multiplication."""
    return tau(t_basis(datum, w1) * t_basis(datum, w2))
