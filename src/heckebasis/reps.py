"""Matrix representations of the Hecke algebra in the T-basis, their
characters, Schur elements and a-invariants.

A representation is given by one matrix per generator over Q[u, u^-1].
It is checked against the quadratic relations
(M_s - u^L(s) I)(M_s + I) = 0 and the braid relations before any
character is trusted. A 1 x 1 rep is checked in closed form, as
Q[u, u^-1] is a domain (see check_representation). A wider rep compares
the braid words as (M_s M_t)^k and (M_t M_s)^k for k = m // 2, times
M_s and M_t respectively when m is odd.

The Schur element of an irreducible representation r of dimension d is

    c = (1/d) * sum over w of u^-L(w) * trace(T_w, r) * trace(T_(w^-1), r)

It always comes out with integer coefficients; the division by d is the
only place rational arithmetic is needed. Writing c = f * u^-a + (higher
powers of u), the pair (a, f) is the a-invariant and leading coefficient.
Since L(w) = L(w^-1), the terms of w and w^-1 are equal: the sum visits
each pair {w, w^-1} once and counts it twice, and each involution once.

All matrix arithmetic runs in one exact kernel, _times. A matrix is a
flat row-major tuple of term maps of `laurent`, and the right factor
comes as its nonzero (row, entry) pairs per column. A rep holds each
generator image once, as a flat matrix checked when it is built; each
loop that multiplies by the images derives their column view once per
call. The trace of a product comes out of the same call. LaurentPoly
objects appear only at the API: generator images in and out, rep_trace,
rep_matrix and Schur elements out.

A character is swept over the group on each call, and nothing but the
relation check is cached on a representation. The sweep walks the BFS
tree with one kernel product per element; the parent p of w = p*s is
w*s, read off the datum's right table, one shorter than w, so the
sweep keeps the matrices of one length layer only and returns just the
traces. The Schur element takes L(w) as the sum of the weights over the
word of w, as CoxeterDatum.weight defines it. rep_trace is the product
along a reduced word.

The Schur element of a 1 x 1 representation needs no character and no
walk over the group. The relation check is the only place a 1 x 1 image
is validated: each checked generator image is u^L(s) or -1, and
T_w, T_(w^-1) have the same 1 x 1 image, so u^-L(w) trace(T_w)^2 =
u^k_w, where each letter s of w adds +L(s) to k_w if its image is
u^L(s) and -L(s) if it is -1. Conjugate generators have the same image,
so k_w = sum_c k_c n_c(w) over the generator classes c, with n_c(w) the
letters of class c in w. The Schur element is then the multi-parameter
Poincare polynomial of W at u^k_c (Geck-Pfeiffer 2000, Ch. 8-9), one
term per entry of the datum's class counts: the Poincare polynomial
itself for the index rep, and its image under u -> u^-1 for the sign
rep.

Nor does a 2 x 2 rho_j of a dihedral datum I2(m), m in {3, 4, 6} (A2, B2,
G2) with weights (b, a): its Schur element has a closed form in m, a, b
and alpha = 2cos(2 pi j/m) (Geck-Pfeiffer 2000, 8.3). After the relation
check, _dihedral_schur reads alpha off three traces, of M_s, M_t and one
kernel product M_s M_t. The quadratic relations fix the eigenvalues of
each image, so a reducible 2 x 2 rep, triangular in some basis, has
tr(M_s M_t) = u^(a+b) + 1 or -u^a - u^b; a rep whose trace is
alpha u^((a+b)/2) instead is irreducible, and its traces identify it as
rho_j. Any other 2 x 2 rep is swept, as is every wider one. _rho alone
constructs rho_j, for m in {3, 4, 6} alike; _g2_reps takes rho+- from it.

>>> from heckebasis.coxeter import build_datum
>>> datum = build_datum("g2", 2, (3, 1))
>>> for rep in builtin_g2_reps(datum):
...     a, f = a_invariant(schur_element(rep))
...     print(rep.name, a, f)
ind 0 1
eps1 1 1
rho+ 3 2
rho- 3 2
eps2 7 1
eps 12 1
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .coxeter import CoxeterDatum, GroupElement, UnsupportedType
from .laurent import (
    LaurentPoly,
    Scalar,
    Terms,
    ZeroPolynomial,
    _accumulate,
    _canonical,
    _combined,
    _product,
)

__all__ = [
    "MatrixRep",
    "RepCheck",
    "NotARepresentation",
    "NonIntegralSchurElement",
    "NegativeAInvariant",
    "one_dim_reps",
    "builtin_g2_reps",
    "require_builtin_reps",
    "check_representation",
    "rep_matrix",
    "rep_trace",
    "schur_element",
    "a_invariant",
    "schur_table",
    "schur_table_json_dict",
]


class NotARepresentation(ValueError):
    """The generator matrices violate a quadratic or braid relation."""


class NonIntegralSchurElement(ArithmeticError):
    """A Schur element came out with non-integer coefficients."""


class NegativeAInvariant(ArithmeticError):
    """A Schur element has positive valuation, i.e. a < 0."""


Matrix = tuple[tuple[LaurentPoly, ...], ...]
# The kernel's forms: a flat matrix is its n*n term maps row-major, and a
# right factor its nonzero (row, entry) pairs per column.
Flat = tuple[Terms, ...]
Columns = tuple[tuple[tuple[int, Terms], ...], ...]


def _flat(rows: Sequence[Sequence], dim: int) -> Flat:
    """The term maps of a dim x dim matrix, row-major; an entry that is
    not a LaurentPoly is checked as LaurentPoly.constant checks it."""
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ValueError(f"expected a {dim}x{dim} matrix")
    return tuple(
        entry._terms
        if isinstance(entry, LaurentPoly)
        else LaurentPoly.constant(entry)._terms
        for row in rows
        for entry in row
    )


def _rows(flat: Flat, n: int) -> Matrix:
    """The rows of an n x n flat matrix, each term map wrapped as it is."""
    return tuple(
        tuple(map(LaurentPoly._of, flat[i : i + n])) for i in range(0, n * n, n)
    )


def _columns(flat: Flat, n: int) -> Columns:
    return tuple(
        tuple((k, flat[k * n + j]) for k in range(n) if flat[k * n + j])
        for j in range(n)
    )


def _identity(n: int) -> tuple[Flat, Terms]:
    """The n x n identity and its trace."""
    flat = tuple({0: 1} if i == j else {} for i in range(n) for j in range(n))
    return flat, {0: n}


def _times(a: Flat, columns: Columns) -> tuple[Flat, Terms]:
    """a times the matrix given by its nonzero entries per column, and the
    trace of that product; the one kernel behind every matrix product."""
    n = len(columns)
    out: list[Terms] = []
    for row in range(0, n * n, n):
        for column in columns:
            if len(column) == 1:
                ((k, b),) = column
                out.append(_product(a[row + k], b))
                continue
            acc: dict[int, Scalar] = {}
            for k, b in column:
                _accumulate(acc, a[row + k], b)
            out.append(_canonical(acc))
    trace: Terms = {}
    for entry in out[:: n + 1]:
        trace = _combined(trace, entry, operator.add)
    return tuple(out), trace


class MatrixRep:
    """A named matrix representation of the Hecke algebra of a datum; each
    generator image is held once, as its flat matrix."""

    def __init__(
        self,
        name: str,
        datum: CoxeterDatum,
        generator_images: Sequence[Sequence[Sequence]],
    ):
        if len(generator_images) != datum.rank:
            raise ValueError(
                f"need {datum.rank} generator images, got {len(generator_images)}"
            )
        dim = len(generator_images[0])
        if dim == 0:
            raise ValueError(
                f"{name}: a representation needs dimension at least 1, "
                "but the generator images are 0 x 0"
            )
        self.name = name
        self.datum = datum
        self.dimension = dim
        self._flats = tuple(_flat(m, dim) for m in generator_images)
        self._check: RepCheck | None = None

    @property
    def generator_images(self) -> tuple[Matrix, ...]:
        """The image of each generator, as rows of LaurentPoly."""
        return tuple(_rows(flat, self.dimension) for flat in self._flats)

    def __repr__(self) -> str:
        return f"MatrixRep({self.name!r}, dim={self.dimension})"


class RepCheck:
    """Outcome of verifying the defining relations; ok iff no violations."""

    def __init__(self, violations: list[str]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _plus_diagonal(flat: Flat, n: int, term: Terms) -> Flat:
    """flat + term * I."""
    return tuple(
        _combined(entry, term, operator.add) if i % (n + 1) == 0 else entry
        for i, entry in enumerate(flat)
    )


def _power(flat: Flat, n: int, k: int) -> Flat:
    """flat to the power k >= 1, by k - 1 kernel products."""
    columns = _columns(flat, n)
    out = flat
    for _ in range(k - 1):
        out, _ = _times(out, columns)
    return out


def check_representation(rep: MatrixRep) -> RepCheck:
    """Verify the quadratic relation for every generator and the braid
    relation for every generator pair, exactly.

    >>> from heckebasis.coxeter import build_datum
    >>> a2 = build_datum("a", 2, (1, 1))
    >>> rep = MatrixRep("mixed", a2, [[[LaurentPoly.monomial(1)]], [[-1]]])
    >>> check_representation(rep).violations
    ['braid relation of order 3 fails for generators s1, s2']
    """
    if rep._check is not None:
        return rep._check
    d = rep.datum
    n = rep.dimension
    flats = rep._flats
    violations: list[str] = []
    for s, flat in enumerate(flats):
        if n == 1:
            # Q[u, u^-1] is a domain: (x - u^L)(x + 1) = 0 iff x is u^L or -1
            holds = flat[0] in ({d.weights[s]: 1}, {0: -1})
        else:
            lhs = _plus_diagonal(flat, n, {d.weights[s]: -1})
            rhs = _plus_diagonal(flat, n, {0: 1})
            product, _ = _times(lhs, _columns(rhs, n))
            holds = not any(product)
        if not holds:
            violations.append(
                f"quadratic relation fails for generator s{s + 1} "
                f"(weight {d.weights[s]})"
            )
    columns = [_columns(flat, n) for flat in flats] if n > 1 else ()
    for s in range(d.rank):
        for t in range(s + 1, d.rank):
            m = d.coxeter_matrix[s][t]
            if n == 1:
                # xyx... - yxy... is 0 for even m and x^k y^k (x - y) for
                # m = 2k + 1, which vanishes iff x = 0, y = 0 or x = y
                x, y = flats[s][0], flats[t][0]
                holds = m % 2 == 0 or not x or not y or x == y
            else:
                # (st)^k s... against (ts)^k t..., for k = m // 2
                left = _power(_times(flats[s], columns[t])[0], n, m // 2)
                right = _power(_times(flats[t], columns[s])[0], n, m // 2)
                if m % 2:
                    left, _ = _times(left, columns[s])
                    right, _ = _times(right, columns[t])
                holds = left == right
            if not holds:
                violations.append(
                    f"braid relation of order {m} fails for generators "
                    f"s{s + 1}, s{t + 1}"
                )
    rep._check = RepCheck(violations)
    return rep._check


def _require_rep(rep: MatrixRep) -> None:
    check = check_representation(rep)
    if not check.ok:
        raise NotARepresentation(
            f"{rep.name}: " + "; ".join(check.violations)
        )


def _word_product(rep: MatrixRep, w: GroupElement) -> tuple[Flat, Terms]:
    """The image of T_w along a reduced word, and its trace."""
    _require_rep(rep)
    columns = [_columns(flat, rep.dimension) for flat in rep._flats]
    matrix, trace = _identity(rep.dimension)
    for s in rep.datum.reduced_word(w):
        matrix, trace = _times(matrix, columns[s])
    return matrix, trace


def rep_matrix(rep: MatrixRep, w: GroupElement) -> Matrix:
    """The image of T_w: the product of generator images along a reduced word."""
    matrix, _ = _word_product(rep, w)
    return _rows(matrix, rep.dimension)


def _character(rep: MatrixRep) -> list[Terms]:
    """trace(T_w, rep) for every element index, via one sweep of the
    matrix kernel along the BFS tree."""
    _require_rep(rep)
    d = rep.datum
    columns = [_columns(flat, rep.dimension) for flat in rep._flats]
    identity, trace = _identity(rep.dimension)
    traces = [trace]
    # Matrices of the previous length layer and of the current one; an
    # element whose parent is not in the previous layer starts a new one.
    previous: dict[int, Flat] = {}
    current: dict[int, Flat] = {0: identity}
    for i, word in enumerate(islice(d._words, 1, None), 1):
        s = word[-1]
        p = d._right[i * d.rank + s]  # the word less its last letter
        if p not in previous:
            previous, current = current, {}
        current[i], trace = _times(previous[p], columns[s])
        traces.append(trace)
    return traces


def rep_trace(rep: MatrixRep, w: GroupElement) -> LaurentPoly:
    """trace(T_w, rep): the product of generator images along a reduced
    word of w, which must belong to the datum of rep."""
    _, trace = _word_product(rep, w)
    return LaurentPoly._of(trace)


def _linear_schur(rep: MatrixRep) -> LaurentPoly:
    """The Schur element of a 1 x 1 rep that _require_rep has passed: the
    sum over w of u^k_w with k_w = sum_c k_c n_c(w), where k_c is +L_c if
    generator class c has the image u^L_c and -L_c if it has -1, read off
    the datum's class counts. The relation check has made each image u^L
    or -1 and conjugate images equal, so each class's step is read off its
    least generator."""
    d = rep.datum
    steps: dict[int, int] = {}  # k_c, by class in the order of numbering
    for s, (image,) in enumerate(rep._flats):
        weight = d.weights[s]
        steps.setdefault(d._classes[s], -weight if image == {0: -1} else weight)
    terms: dict[int, int] = {}
    for counts, elements in d._class_counts:
        k = sum(map(operator.mul, steps.values(), counts))
        terms[k] = terms.get(k, 0) + elements
    return LaurentPoly._of(terms)


# 2cos(2 pi j/m) over the 2 x 2 irreducibles rho_j of I2(m), for the bond
# orders whose values are integers
_DIHEDRAL_ALPHAS = {3: (-1,), 4: (0,), 6: (1, -1)}


def _dihedral_schur(rep: MatrixRep) -> LaurentPoly | None:
    """The Schur element of a checked 2 x 2 rep of a rank-2 datum I2(m),
    m in {3, 4, 6}, with weights (b, a), in closed form (Geck-Pfeiffer
    2000, 8.3); None if the rep is not recognised.

    The rep is recognised when tr M_s = u^b - 1, tr M_t = u^a - 1 and
    tr(M_s M_t) = alpha u^((a+b)/2) for an alpha = 2cos(2 pi j/m) of
    _DIHEDRAL_ALPHAS[m] (the trace is 0 at alpha = 0, and a + b must be
    even otherwise). By the quadratic relations, M_s then has the
    eigenvalues u^b and -1, and M_t has u^a and -1. A reducible rep is
    triangular in some basis, and its tr(M_s M_t) is u^(a+b) + 1 or
    -u^a - u^b, never alpha u^((a+b)/2): so a recognised rep is
    irreducible, over any extension of Q(u). A 2 x 2 trace of any word in
    M_s, M_t is a polynomial in these three traces and the determinants
    -u^b, -u^a, so the rep has the character of rho_j and is isomorphic
    to it. Its Schur element is

        (m / (4 - alpha^2)) u^-(a+b) (u^(a+b) - alpha u^((a+b)/2) + 1)
                                     (u^a + u^b + alpha u^((a+b)/2)),

    where m / (4 - alpha^2) is 1, 1, 2 for m = 3, 4, 6."""
    d = rep.datum
    m = d.coxeter_matrix[0][1]
    if m not in _DIHEDRAL_ALPHAS:
        return None
    b, a = d.weights
    s, t = rep._flats
    for flat, weight in ((s, b), (t, a)):
        if _combined(flat[0], flat[3], operator.add) != _combined(
            {weight: 1}, {0: -1}, operator.add
        ):
            return None
    _, trace = _times(s, _columns(t, 2))
    half = (a + b) // 2
    if not trace:
        alpha = 0
    elif (a + b) % 2 or trace.keys() != {half}:
        return None
    else:
        alpha = trace[half]
    if alpha not in _DIHEDRAL_ALPHAS[m]:
        return None
    scale = m // (4 - alpha * alpha)
    # the two factors as (exponent, coefficient) pairs, which may share an
    # exponent (at a = b, or a + b = 0), so they are summed, not keyed
    terms: dict[int, Scalar] = {}
    for e1, c1 in ((a + b, scale), (half, -alpha * scale), (0, scale)):
        for e2, c2 in ((a, 1), (b, 1), (half, alpha)):
            k = e1 + e2 - a - b
            terms[k] = terms.get(k, 0) + c1 * c2
    return LaurentPoly._of(_canonical(terms))


def schur_element(rep: MatrixRep) -> LaurentPoly:
    """The Schur element; raises NonIntegralSchurElement if the result is
    not in Z[u, u^-1] (which would mean the input is not irreducible or
    not a representation).

    A 1 x 1 rep is summed in closed form by _linear_schur, and a 2 x 2
    rep of a dihedral datum by _dihedral_schur when it recognises it; any
    other rep from its character, swept by the matrix kernel."""
    _require_rep(rep)
    if rep.dimension == 1:
        return _linear_schur(rep)
    d = rep.datum
    if rep.dimension == 2 and d.rank == 2:
        closed = _dihedral_schur(rep)
        if closed is not None:
            return closed
    traces = _character(rep)
    # L(w), the sum of the weights of the letters of its word
    weights = [sum(map(d.weights.__getitem__, word)) for word in d._words]
    # sum of u^-L(w) trace(T_w) trace(T_(w^-1)) over the pairs w < w^-1
    # and over the involutions, as exponent -> coefficient
    pairs: dict[int, Scalar] = {}
    involutions: dict[int, Scalar] = {}
    for i, (j, w_weight, trace) in enumerate(zip(d._inverse, weights, traces)):
        if j < i:
            continue
        acc = involutions if j == i else pairs
        # inline: the -L(w) shift folds into the loop, with no dict per w
        inverse_terms = traces[j].items()
        for e1, c1 in trace.items():
            e1 -= w_weight
            for e2, c2 in inverse_terms:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
    _accumulate(involutions, pairs, {0: 2})
    total = LaurentPoly(involutions) * Fraction(1, rep.dimension)
    if not total.has_integer_coefficients():
        raise NonIntegralSchurElement(
            f"Schur element of {rep.name} has non-integer coefficients"
        )
    return total


def a_invariant(c: LaurentPoly) -> tuple[int, int]:
    """(a, f) with c = f * u^-a + (strictly higher powers of u).

    a must be >= 0 and f is a nonzero integer.
    """
    if c.is_zero():
        raise ZeroPolynomial("the zero polynomial has no a-invariant")
    a = -c.valuation()
    if a < 0:
        raise NegativeAInvariant(f"valuation {c.valuation()} is positive")
    f = c.leading_coefficient_at_valuation()
    if f.denominator != 1:
        raise NonIntegralSchurElement(f"leading coefficient {f} not an integer")
    return a, int(f)


def one_dim_reps(datum: CoxeterDatum) -> list[MatrixRep]:
    """The index representation T_s -> u^L(s) and the sign representation
    T_s -> -1, defined for every datum."""
    index = MatrixRep(
        "index",
        datum,
        [[[LaurentPoly.monomial(datum.weights[s])]] for s in range(datum.rank)],
    )
    minus_one = [[LaurentPoly.constant(-1)]]
    sign = MatrixRep("sign", datum, [minus_one] * datum.rank)
    return [index, sign]


def require_builtin_reps(type_tag: str, weights: tuple[int, ...]) -> None:
    """Raise UnsupportedType unless builtin_g2_reps covers the validated
    type tag and weights; callers can ask before building the datum."""
    if type_tag != "g2" or weights != (3, 1):
        raise UnsupportedType(
            "built-in representation set exists only for g2 with weights (3, 1)"
        )


def _rho(datum: CoxeterDatum, alpha: int, name: str) -> MatrixRep:
    """The dihedral rule's 2 x 2 rep of a rank-2 datum with weights (b, a)
    at alpha = 2cos(2 pi j/m) (Geck-Pfeiffer 2000, 8.3), the one
    construction of rho_j for m in {3, 4, 6}: T_s -> [[-1, 0], [c, u^b]],
    T_t -> [[u^a, u^a], [0, -1]] with c u^a = u^b + u^a +
    alpha u^((a+b)/2), so a + b must be even unless alpha = 0. The relation check, not this
    function, decides whether alpha suits the bond order."""
    b, a = datum.weights
    u = LaurentPoly.monomial
    # one term at a time: at a = b all three have exponent 0
    c = u(b - a) + alpha * u((b - a) // 2) + 1
    return MatrixRep(name, datum, [[[-1, 0], [c, u(b)]], [[u(a), u(a)], [0, -1]]])


def _g2_reps(datum: CoxeterDatum) -> list[MatrixRep]:
    """The six irreducible representations of the I2(6) algebra with
    weights (b, a), a + b even, by the dihedral rule (Geck-Pfeiffer 2000,
    8.3): (T_s, T_t) -> (u^b, u^a), (u^b, -1), (-1, u^a), (-1, -1), and
    rho+ and rho- from _rho at the alphas 1 and -1 of _DIHEDRAL_ALPHAS[6]."""
    if datum.rank != 2 or datum.coxeter_matrix[0][1] != 6:
        raise UnsupportedType(f"{datum!r} is not of type I2(6)")
    b, a = datum.weights
    if (a + b) % 2:
        raise UnsupportedType(f"the G2 rule needs a + b even, got {(b, a)}")
    u = LaurentPoly.monomial
    plus, minus = _DIHEDRAL_ALPHAS[6]
    return [
        MatrixRep("ind", datum, [[[u(b)]], [[u(a)]]]),
        MatrixRep("eps1", datum, [[[u(b)]], [[-1]]]),
        _rho(datum, plus, "rho+"),
        _rho(datum, minus, "rho-"),
        MatrixRep("eps2", datum, [[[-1]], [[u(a)]]]),
        MatrixRep("eps", datum, [[[-1]], [[-1]]]),
    ]


def builtin_g2_reps(datum: CoxeterDatum) -> list[MatrixRep]:
    """The six irreducible representations of the G2 algebra with weights
    (3, 1), in a-invariant order: ind, eps1, rho+, rho-, eps2, eps. The
    images come from the dihedral rule of _g2_reps in the datum's weights;
    the require_builtin_reps gate serves weights (3, 1) only."""
    require_builtin_reps(datum.type_tag, datum.weights)
    return _g2_reps(datum)


def schur_table(
    datum: CoxeterDatum, reps: Sequence[MatrixRep]
) -> list[dict]:
    """Rows (name, dim, schur, aInvariant, fLambda) for each representation."""
    rows = []
    for rep in reps:
        c = schur_element(rep)
        a, f = a_invariant(c)
        rows.append(
            {
                "name": rep.name,
                "dim": rep.dimension,
                "schur": str(c),
                "aInvariant": a,
                "fLambda": f,
            }
        )
    return rows


def schur_table_json_dict(
    datum: CoxeterDatum, reps: Sequence[MatrixRep]
) -> dict:
    """The persistent/exchange form: datum plus the Schur table."""
    return {"datum": datum.to_json_dict(), "reps": schur_table(datum, reps)}
