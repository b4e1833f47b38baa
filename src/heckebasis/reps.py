"""Matrix representations of the Hecke algebra in the T-basis, their
characters, Schur elements and a-invariants.

A representation is given by one matrix per generator over Q[u, u^-1].
It is checked against the quadratic relations
(M_s - u^L(s) I)(M_s + I) = 0 and the braid relations before any
character is trusted. A 1 x 1 rep is checked in closed form, as
Q[u, u^-1] is a domain, and on the datum's odd bonds alone, as an even
bond always holds there (see check_representation). A wider rep compares
the braid words as (M_s M_t)^k and (M_t M_s)^k for k = m // 2, times
M_s and M_t respectively when m is odd, on ints packed by `laurent`'s
codec at u = 2^B, with B fixed from bit lengths by an l1 bound on the
longest word, so every product is an int matrix product and two words
are equal iff their ints are. A rep whose packed entries would exceed
laurent.MAX_PACKED_BITS, the cap `hecke` packs under too, gets B = None
and runs the same check on its LaurentPoly values (_relation_factors).

The Schur element of an irreducible representation r of dimension d is

    c = (1/d) * sum over w of u^-L(w) * trace(T_w, r) * trace(T_(w^-1), r)

It always comes out with integer coefficients; the division by d is the
only place rational arithmetic is needed. Writing c = f * u^-a + (higher
powers of u), the pair (a, f) is the a-invariant and leading coefficient.
Since L(w) = L(w^-1), the terms of w and w^-1 are equal: the sum visits
each pair {w, w^-1} once and counts it twice, and each involution once.

Every other matrix product is _matmul too, on LaurentPoly values. A rep
holds each generator image once, as a flat row-major tuple of
LaurentPoly values, checked when it is built, and every product reads
it as it is.

A character is swept over the group on each call, and nothing but the
relation check is cached on a representation. The sweep walks the BFS
tree with one product per element; the parent p of w = p*s is w*s, read
off the datum's right table, one shorter than w, so the sweep keeps the
matrices of one length layer only and returns just the traces. The
Schur element takes L(w) as the sum of the weights over the word of w,
as CoxeterDatum.weight defines it. rep_matrix and rep_trace are the
product along a reduced word.

The Schur element of a 1 x 1 representation needs no character and no
walk over the group. The relation check is the only place a 1 x 1 image
is validated: each checked generator image is u^L(s) or -1, and
T_w, T_(w^-1) have the same 1 x 1 image, so u^-L(w) trace(T_w)^2 =
u^k_w, where each letter s of w adds +L(s) to k_w if its image is
u^L(s) and -L(s) if it is -1. Conjugate generators have the same image,
so k_w = sum_c k_c n_c(w) over the generator classes c, with n_c(w) the
letters of class c in w. The Schur element is then the multi-parameter
Poincare polynomial of W at u^k_c (Geck-Pfeiffer 2000, Ch. 8-9), one
term per row of the datum's class counts, summed by LaurentPoly.summed:
the Poincare polynomial itself for the index rep, and its image under
u -> u^-1 for the sign rep.

Nor does a 2 x 2 rho_j of a dihedral datum I2(m), m in {3, 4, 6} (A2, B2,
G2) with weights (b, a): its Schur element has a closed form in m, a, b
and alpha = 2cos(2 pi j/m) (Geck-Pfeiffer 2000, 8.3). After the relation
check, _dihedral_schur reads alpha off three traces, of M_s, M_t and
M_s M_t, the last summed as s_ij t_ji without forming the product. The
quadratic relations fix the eigenvalues of each image, so a reducible
2 x 2 rep, triangular in some basis, has tr(M_s M_t) = u^(a+b) + 1 or
-u^a - u^b; a rep whose trace is
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
from functools import partial, reduce
from itertools import combinations, islice
from typing import Sequence

from .coxeter import CoxeterDatum, GroupElement, UnsupportedType
from .laurent import LaurentPoly, ZeroPolynomial, _cleared, _packed, _packs

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
# A rep's form of a matrix: its n*n entries, row-major.
Flat = tuple[LaurentPoly, ...]
# The sign rep's image of each generator, and the other root of every
# quadratic relation.
_MINUS_ONE = LaurentPoly.constant(-1)


def _flat(rows: Sequence[Sequence], dim: int) -> Flat:
    """The entries of a dim x dim matrix, row-major; a LaurentPoly is kept
    as it is, and any other entry is checked as LaurentPoly.constant
    checks it. A 1 x 1 matrix is read with one unpack; any shape that
    unpack refuses meets the general check and its message."""
    if dim == 1:
        try:
            ((entry,),) = rows
        except (TypeError, ValueError):
            pass
        else:
            return (
                entry if isinstance(entry, LaurentPoly) else LaurentPoly.constant(entry),
            )
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ValueError(f"expected a {dim}x{dim} matrix")
    return tuple(
        entry if isinstance(entry, LaurentPoly) else LaurentPoly.constant(entry)
        for row in rows
        for entry in row
    )


def _rows(flat: tuple, n: int) -> tuple:
    """The rows of an n x n flat matrix."""
    return tuple(flat[i : i + n] for i in range(0, n * n, n))


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


def _matmul(a: tuple, b: tuple, n: int) -> tuple:
    """a times b, flat n x n matrices over any commutative ring; each
    entry is summed from its first product, so no int 0 is added to a
    LaurentPoly, and packed ints keep sum's int fast path."""
    columns = [b[j::n] for j in range(n)]
    out = []
    for i in range(0, n * n, n):
        row = a[i : i + n]
        for column in columns:
            products = map(operator.mul, row, column)
            out.append(sum(products, next(products)))
    return tuple(out)


def _plus_scalar(flat: tuple, n: int, c) -> tuple:
    """flat + c I, over any commutative ring."""
    out = list(flat)
    for i in range(0, n * n, n + 1):
        out[i] += c
    return tuple(out)


def _relation_factors(
    datum: CoxeterDatum, flats: Sequence[Flat], n: int, bound: int
) -> list[tuple[tuple, tuple, tuple]]:
    """(M_s, M_s - u^L(s) I, M_s + I) for each generator s, as flat n x n
    matrices over one commutative ring in which two products of at most
    `bound` such factors are equal iff they are equal over Q[u, u^-1]:
    ints packed at u = 2^B when they fit in laurent.MAX_PACKED_BITS, else
    LaurentPoly values (B = None); one body builds both.

    Packed, every factor is scaled by D u^-lo: D is the lcm of the
    denominators of the entries, and lo <= 0 their lowest exponent, both
    read off laurent._cleared with the l1 norms of the cleared entries.
    So each scaled entry is an integral polynomial in u of degree at most
    span = max(entry exponents, L(s)) - lo and l1 norm at most N, the
    largest l1 norm of an entry of D M_s, plus D. Both sides of a
    relation of k <= bound factors are scaled by D^k u^-(k lo) alike. An
    entry of a product of k factors has l1 norm at most n^(k-1) N^k, so
    a coefficient of the difference of two such entries is at most
    2 n^(bound-1) N^bound < 2^(B-1) in absolute value, with B taken from
    bit lengths alone: bound len(N) + (bound - 1) len(n) + 2. Balanced
    base-2^B digits are unique, so the two entries are equal iff their
    ints are, and nothing is decoded. A packed entry of such a product
    has at most bound * span + 1 digits; the cap is asked of that width
    before any power or packed value is formed."""
    weights = datum.weights
    polys = [entry for flat in flats for entry in flat]
    den, lo, hi, norms = _cleared(polys)
    lo, hi = min(lo, 0), max(hi, *weights)
    norm = max(norms) + den
    bits = bound * norm.bit_length() + (bound - 1) * n.bit_length() + 2
    if not _packs(bits, bound * (hi - lo) + 1):
        bits = None  # the LaurentPoly ring
    images = [tuple(_packed(p, bits, lo, den) for p in flat) for flat in flats]
    tops = [_packed(LaurentPoly.monomial(L), bits, lo, den) for L in weights]
    one = _packed(LaurentPoly.one(), bits, lo, den)
    return [
        (image, _plus_scalar(image, n, -top), _plus_scalar(image, n, one))
        for image, top in zip(images, tops)
    ]


_QUADRATIC = "quadratic relation fails for generator s{} (weight {})"
_BRAID = "braid relation of order {} fails for generators s{}, s{}"


def _linear_violations(rep: MatrixRep) -> list[str]:
    """The violations of a 1 x 1 rep. Q[u, u^-1] is a domain: (x - u^L)(x + 1)
    is 0 iff x is u^L or -1, and xyx... - yxy... is 0 for even m and
    x^k y^k (x - y) for m = 2k + 1, which vanishes iff x = 0, y = 0 or
    x = y; so only the odd bonds are walked."""
    images = [x for (x,) in rep._flats]
    return [
        _QUADRATIC.format(s + 1, weight)
        for s, (x, weight) in enumerate(zip(images, rep.datum.weights))
        if not (x == _MINUS_ONE or x == LaurentPoly.monomial(weight))
    ] + [
        _BRAID.format(m, s + 1, t + 1)
        for s, t, m in rep.datum._odd_bonds
        if images[s] != images[t] and images[s] and images[t]
    ]


def check_representation(rep: MatrixRep) -> RepCheck:
    """Verify the quadratic relation for every generator and the braid
    relation for every generator pair, exactly.

    A 1 x 1 rep is checked in closed form by _linear_violations, on the
    odd bonds only. A wider one multiplies out (M_s - u^L(s) I)(M_s + I)
    and the braid words (M_s M_t)^(m // 2), times M_s for odd m, against
    (M_t M_s)^(m // 2), times M_t, in the ring of _relation_factors: ints
    packed at u = 2^B, with B fixed by an l1 bound on the longest word,
    or LaurentPoly values when a packed entry would exceed
    laurent.MAX_PACKED_BITS. One body serves both.

    >>> from heckebasis.coxeter import build_datum
    >>> a2 = build_datum("a", 2, (1, 1))
    >>> rep = MatrixRep("mixed", a2, [[[LaurentPoly.monomial(1)]], [[-1]]])
    >>> check_representation(rep).violations
    ['braid relation of order 3 fails for generators s1, s2']
    """
    if rep._check is not None:
        return rep._check
    if rep.dimension == 1:
        rep._check = RepCheck(_linear_violations(rep))
        return rep._check
    d, n = rep.datum, rep.dimension
    bound = max(2, max(map(max, d.coxeter_matrix)))  # longest word: largest bond, or 2
    factors = _relation_factors(d, rep._flats, n, bound)
    violations = [
        _QUADRATIC.format(s + 1, d.weights[s])
        for s, (_, minus, plus) in enumerate(factors)
        if any(_matmul(minus, plus, n))
    ]
    for s, t in combinations(range(d.rank), 2):
        # (st)^k s... against (ts)^k t..., for k = m // 2
        m = d.coxeter_matrix[s][t]
        x, y = factors[s][0], factors[t][0]
        left, right = xy, yx = _matmul(x, y, n), _matmul(y, x, n)
        for _ in range(m // 2 - 1):
            left, right = _matmul(left, xy, n), _matmul(right, yx, n)
        if (s, t, m) in d._odd_bonds:
            left, right = _matmul(left, x, n), _matmul(right, y, n)
        if left != right:
            violations.append(_BRAID.format(m, s + 1, t + 1))
    rep._check = RepCheck(violations)
    return rep._check


def _require_rep(rep: MatrixRep) -> None:
    check = check_representation(rep)
    if not check.ok:
        raise NotARepresentation(
            f"{rep.name}: " + "; ".join(check.violations)
        )


def _word_product(rep: MatrixRep, w: GroupElement) -> tuple[LaurentPoly, ...]:
    """The image of T_w along a reduced word, flat."""
    _require_rep(rep)
    n = rep.dimension
    images = rep._flats
    matrix = _plus_scalar((LaurentPoly.zero(),) * (n * n), n, 1)  # identity
    for s in rep.datum.reduced_word(w):
        matrix = _matmul(matrix, images[s], n)
    return matrix


def rep_matrix(rep: MatrixRep, w: GroupElement) -> Matrix:
    """The image of T_w: the product of generator images along a reduced word."""
    return _rows(_word_product(rep, w), rep.dimension)


def _character(rep: MatrixRep) -> list[LaurentPoly]:
    """trace(T_w, rep) for every element index, via one sweep of _matmul
    along the BFS tree."""
    _require_rep(rep)
    d = rep.datum
    n = rep.dimension
    images = rep._flats
    identity = _plus_scalar((LaurentPoly.zero(),) * (n * n), n, 1)
    traces = [reduce(operator.add, identity[:: n + 1])]
    # Matrices of the previous length layer and of the current one; an
    # element whose parent is not in the previous layer starts a new one.
    previous: dict[int, tuple] = {}
    current: dict[int, tuple] = {0: identity}
    for i, word in enumerate(islice(d._words, 1, None), 1):
        s = word[-1]
        p = d._right[i * d.rank + s]  # the word less its last letter
        if p not in previous:
            previous, current = current, {}
        current[i] = matrix = _matmul(previous[p], images[s], n)
        traces.append(reduce(operator.add, matrix[:: n + 1]))
    return traces


def rep_trace(rep: MatrixRep, w: GroupElement) -> LaurentPoly:
    """trace(T_w, rep): the product of generator images along a reduced
    word of w, which must belong to the datum of rep."""
    return reduce(operator.add, _word_product(rep, w)[:: rep.dimension + 1])


def _linear_schur(rep: MatrixRep) -> LaurentPoly:
    """The Schur element of a 1 x 1 rep that _require_rep has passed: the
    sum over w of u^k_w with k_w = sum_c k_c n_c(w), where k_c is +L_c if
    generator class c has the image u^L_c and -L_c if it has -1. The
    relation check has made each image u^L or -1 and conjugate images
    equal, so each class's step is read off its least generator. The
    exponents k = sum_c k_c n_c are mapped over the letter columns of the
    datum's class counts, and each (k, element count) pair goes to
    LaurentPoly.summed, which adds the pairs that share an exponent."""
    d = rep.datum
    steps: dict[int, int] = {}  # k_c, by class in the order of numbering
    for c, (image,), weight in zip(d._classes, rep._flats, d.weights):
        steps.setdefault(c, -weight if image == _MINUS_ONE else weight)
    elements, letters = d._class_counts
    exponents = reduce(
        partial(map, operator.add),
        [map(k.__mul__, column) for k, column in zip(steps.values(), letters)],
    )
    return LaurentPoly.summed(zip(exponents, elements))


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
    u = LaurentPoly.monomial
    if s[0] + s[3] != u(b) + _MINUS_ONE or t[0] + t[3] != u(a) + _MINUS_ONE:
        return None
    trace = s[0] * t[0] + s[1] * t[2] + s[2] * t[1] + s[3] * t[3]  # s_ij t_ji
    half = (a + b) // 2
    alpha = trace.coefficient(half) if (a + b) % 2 == 0 else 0
    if alpha not in _DIHEDRAL_ALPHAS[m] or trace != u(half, alpha):
        return None
    scale = m // (4 - alpha * alpha)
    # the two factors as (exponent, coefficient) pairs, whose products may
    # share an exponent (at a = b, or a + b = 0), so they are summed
    return LaurentPoly.summed(
        (e1 + e2 - a - b, c1 * c2)
        for e1, c1 in ((a + b, scale), (half, -alpha * scale), (0, scale))
        for e2, c2 in ((a, 1), (b, 1), (half, alpha))
    )


def schur_element(rep: MatrixRep) -> LaurentPoly:
    """The Schur element; raises NonIntegralSchurElement if the result is
    not in Z[u, u^-1] (which would mean the input is not irreducible or
    not a representation).

    A 1 x 1 rep is summed in closed form by _linear_schur, and a 2 x 2
    rep of a dihedral datum by _dihedral_schur when it recognises it; any
    other rep from its character, in LaurentPoly arithmetic over the
    pairs {w, w^-1}."""
    _require_rep(rep)
    if rep.dimension == 1:
        return _linear_schur(rep)
    d = rep.datum
    if rep.dimension == 2 and d.rank == 2:
        closed = _dihedral_schur(rep)
        if closed is not None:
            return closed
    traces = _character(rep)
    # u^-L(w) trace(T_w) trace(T_(w^-1)), once per pair w < w^-1, doubled,
    # and once per involution
    total = LaurentPoly.zero()
    for i, (j, word, trace) in enumerate(zip(d._inverse, d._words, traces)):
        if j < i:
            continue
        weight = sum(map(d.weights.__getitem__, word))
        term = LaurentPoly.monomial(-weight) * trace * traces[j]
        total = total + (term if j == i else 2 * term)
    total = total * Fraction(1, rep.dimension)
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
    u = LaurentPoly.monomial
    index = MatrixRep("index", datum, [[[u(weight)]] for weight in datum.weights])
    sign = MatrixRep("sign", datum, [[[_MINUS_ONE]]] * datum.rank)
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
    alpha u^((a+b)/2), so a + b must be even unless alpha = 0. The
    relation check, not this function, decides whether alpha suits the
    bond order."""
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
