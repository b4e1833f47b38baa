"""Generic Iwahori-Hecke algebra of a weighted Coxeter datum, in the
T-basis over Laurent polynomials in u.

The defining relations, with L the weight function:

    T_s * T_w = T_(sw)                                  if length(sw) > length(w)
    T_s * T_w = u^L(s) * T_(sw) + (u^L(s) - 1) * T_w    otherwise

The symmetrizing trace tau picks out the coefficient of T_identity; its
dual basis is T_w^ = u^-L(w) * T_(w^-1), which gives the bilinear law
tau(T_w * T_w') = u^L(w) * [w' == w^-1], checked exhaustively in tests.

Elements render as "(poly) * T[word]" summands joined by " + ", ordered
by the datum's deterministic element order, and parse back exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .coxeter import CoxeterDatum, GroupElement
from .laurent import LaurentPoly

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


class DatumMismatch(ValueError):
    """Raised when elements of different datums are combined."""


def _bump(acc: dict[int, LaurentPoly], i: int, poly: LaurentPoly) -> None:
    """acc[i] += poly, keeping zero coefficients out of acc."""
    cur = acc.get(i)
    if cur is None:
        if poly:
            acc[i] = poly
    else:
        poly = cur + poly
        if poly:
            acc[i] = poly
        else:
            del acc[i]


def _generator_times(
    datum: CoxeterDatum, s: int, support: dict[int, LaurentPoly]
) -> dict[int, LaurentPoly]:
    """T_s * (sum of p_w T_w) on an index-keyed support, by the defining
    relations; the one kernel behind every product in this module.

    For a pair v < sv = w the result holds u^L(s) p_w at v and
    p_v + (u^L(s) - 1) p_w at w, so each output key is written once.
    """
    rank = datum.rank
    left = datum._left
    length = datum._length
    shift = LaurentPoly.monomial(datum.weights[s])
    out: dict[int, LaurentPoly] = {}
    for w, poly in support.items():
        sw = left[w * rank + s]
        if length[sw] > length[w]:
            if sw not in support:  # otherwise the step for sw writes out[sw]
                out[sw] = poly
        else:
            lifted = shift * poly
            out[sw] = lifted
            below = support.get(sw)
            top = lifted - poly if below is None else below + lifted - poly
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
    def _of(cls, datum: CoxeterDatum, data: dict[int, LaurentPoly]) -> "HeckeElement":
        """Wrap an index-keyed support without zeros, without copying it."""
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
        return [(GroupElement(d, i), poly) for i, poly in sorted(self._support.items())]

    def coefficient(self, w: GroupElement) -> LaurentPoly:
        if w.datum is not self._datum:
            raise DatumMismatch("element belongs to a different datum")
        return self._support.get(w.index, LaurentPoly.zero())

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
            _bump(data, i, poly)
        return HeckeElement._of(self._datum, data)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement._of(
            self._datum, {i: -poly for i, poly in self._support.items()}
        )

    def __sub__(self, other) -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "HeckeElement":
        if not isinstance(scalar, LaurentPoly):
            scalar = LaurentPoly.constant(scalar)
        if not scalar:
            return HeckeElement(self._datum)
        return HeckeElement._of(
            self._datum, {i: scalar * poly for i, poly in self._support.items()}
        )

    # ----- algebra multiplication ------------------------------------------

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        d = self._datum
        words = d._words
        total: dict[int, LaurentPoly] = {}
        # T_w * other is built right to left along the reduced word of w.
        # Visiting w in the order of its reversed word keeps words with a
        # common suffix adjacent, so chain[k] = T_(last k letters) * other
        # is computed once per distinct suffix.
        chain = [other._support]
        previous: tuple[int, ...] = ()
        for w in sorted(self._support, key=lambda i: words[i][::-1]):
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
            coeff = self._support[w]
            for v, poly in chain[-1].items():
                _bump(total, v, coeff * poly)
        return HeckeElement._of(d, total)

    def __rmul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
        """Parse the canonical rendering back exactly."""
        text = text.strip()
        if text == "0":
            return cls(datum)
        pattern = re.compile(r"\(([^()]*)\)\s*\*\s*T\[([^\]]*)\]")
        matches = list(pattern.finditer(text))
        if not matches:
            raise ValueError(f"no T-basis terms in {text!r}")
        leftover = pattern.sub("", text).replace("+", "").strip()
        if leftover:
            raise ValueError(f"unparsed content {leftover!r} in {text!r}")
        data: dict[GroupElement, LaurentPoly] = {}
        for match in matches:
            poly = LaurentPoly.parse(match.group(1))
            w = datum.parse_element(match.group(2))
            if w in data:
                raise ValueError(f"duplicate basis element in {text!r}")
            data[w] = poly
        return cls(datum, data)


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
