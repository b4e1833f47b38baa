"""Matrix representations of the Hecke algebra in the T-basis, their
characters, Schur elements and a-invariants.

A representation is given by one matrix per generator over Q[u, u^-1].
It is checked against the quadratic relations
(M_s - u^L(s) I)(M_s + I) = 0 and the braid relations before any
character is trusted.

The Schur element of an irreducible representation r of dimension d is

    c = (1/d) * sum over w of u^-L(w) * trace(T_w, r) * trace(T_(w^-1), r)

It always comes out with integer coefficients; the division by d is the
only place rational arithmetic is needed. Writing c = f * u^-a + (higher
powers of u), the pair (a, f) is the a-invariant and leading coefficient.
Since L(w) = L(w^-1), the terms of w and w^-1 are equal: the sum visits
each pair {w, w^-1} once and counts it twice, and each involution once.

All matrix arithmetic runs in one exact kernel, _times. A matrix is a
flat row-major tuple of term maps of `laurent`, and the right factor
comes as its nonzero (row, entry) pairs per column, built once per
generator. The trace of the product comes out of the same call.
LaurentPoly objects appear only at the API: generator images in,
rep_trace, rep_matrix and Schur elements out.

A character is swept over the group on each call, and nothing but the
relation check is cached on a representation. The sweep walks the BFS
parent tree with one kernel product per element; a parent is one
shorter than its child, so the sweep keeps the matrices of one length
layer only and returns just the traces. rep_trace is the product along
a reduced word.

The Schur element of a 1 x 1 representation needs no character. The
quadratic relation over the domain Q[u, u^-1] makes each checked
generator image u^L(s) or -1, and T_w, T_(w^-1) have the same 1 x 1
image, so u^-L(w) trace(T_w)^2 = u^k_w, where each letter s of w adds
+L(s) to k_w if its image is u^L(s) and -L(s) if it is -1. The Schur
element is the sum over w of u^k_w: one int per element along the BFS
tree, counted into coefficients. For the index representation it is
the Poincare polynomial, the sum of u^L(w).

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
from collections import Counter
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


def _as_matrix(rows: Sequence[Sequence], dim: int) -> Matrix:
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ValueError(f"expected a {dim}x{dim} matrix")
    out = []
    for row in rows:
        out.append(
            tuple(
                entry
                if isinstance(entry, LaurentPoly)
                else LaurentPoly.constant(entry)
                for entry in row
            )
        )
    return tuple(out)


def _flat(matrix: Matrix) -> Flat:
    return tuple(entry._terms for row in matrix for entry in row)


def _columns(flat: Flat, n: int) -> Columns:
    return tuple(
        tuple((k, flat[k * n + j]) for k in range(n) if flat[k * n + j])
        for j in range(n)
    )


def _identity(n: int) -> tuple[Flat, Terms]:
    """The n x n identity and its trace."""
    flat = tuple({0: 1} if i == j else {} for i in range(n) for j in range(n))
    return flat, {0: n} if n else {}


def _times(a: Flat, columns: Columns) -> tuple[Flat, Terms]:
    """a times the matrix given by its nonzero entries per column, and the
    trace of that product; the one kernel behind every matrix product."""
    n = len(columns)
    if n == 1:
        (column,) = columns
        entry = _product(a[0], column[0][1]) if column else {}
        return (entry,), entry
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
    """A named matrix representation of the Hecke algebra of a datum."""

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
        self.generator_images = tuple(
            _as_matrix(m, dim) for m in generator_images
        )
        self._columns = tuple(
            _columns(_flat(m), dim) for m in self.generator_images
        )
        self._check: RepCheck | None = None

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


def check_representation(rep: MatrixRep) -> RepCheck:
    """Verify the quadratic relation for every generator and the braid
    relation for every generator pair, exactly."""
    if rep._check is not None:
        return rep._check
    d = rep.datum
    n = rep.dimension
    violations: list[str] = []
    identity, _ = _identity(n)
    for s, image in enumerate(rep.generator_images):
        flat = _flat(image)
        lhs = _plus_diagonal(flat, n, {d.weights[s]: -1})
        rhs = _plus_diagonal(flat, n, {0: 1})
        product, _ = _times(lhs, _columns(rhs, n))
        if any(product):
            violations.append(
                f"quadratic relation fails for generator s{s + 1} "
                f"(weight {d.weights[s]})"
            )
    for s in range(d.rank):
        for t in range(s + 1, d.rank):
            m = d.coxeter_matrix[s][t]
            left = identity
            right = identity
            for k in range(m):
                left, _ = _times(left, rep._columns[s if k % 2 == 0 else t])
                right, _ = _times(right, rep._columns[t if k % 2 == 0 else s])
            if left != right:
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
    matrix, trace = _identity(rep.dimension)
    for s in rep.datum.reduced_word(w):
        matrix, trace = _times(matrix, rep._columns[s])
    return matrix, trace


def rep_matrix(rep: MatrixRep, w: GroupElement) -> Matrix:
    """The image of T_w: the product of generator images along a reduced word."""
    matrix, _ = _word_product(rep, w)
    n = rep.dimension
    return tuple(
        tuple(LaurentPoly._of(matrix[i * n + j]) for j in range(n))
        for i in range(n)
    )


def _character(rep: MatrixRep) -> list[Terms]:
    """trace(T_w, rep) for every element index, via one sweep of the
    matrix kernel along the BFS parent tree."""
    _require_rep(rep)
    d = rep.datum
    columns = rep._columns
    identity, trace = _identity(rep.dimension)
    traces = [trace]
    # Matrices of the previous length layer and of the current one; an
    # element whose parent is not in the previous layer starts a new one.
    previous: dict[int, Flat] = {}
    current: dict[int, Flat] = {0: identity}
    tree = zip(range(1, d.size), islice(d._parent, 1, None), islice(d._words, 1, None))
    for i, p, word in tree:
        if p not in previous:
            previous, current = current, {}
        current[i], trace = _times(previous[p], columns[word[-1]])
        traces.append(trace)
    return traces


def rep_trace(rep: MatrixRep, w: GroupElement) -> LaurentPoly:
    """trace(T_w, rep): the product of generator images along a reduced
    word of w, which must belong to the datum of rep."""
    _, trace = _word_product(rep, w)
    return LaurentPoly._of(trace)


def _linear_schur(rep: MatrixRep) -> LaurentPoly:
    """The Schur element of a 1 x 1 rep: the sum over w of u^k_w, where
    each letter s of w adds +L(s) to k_w if its image is u^L(s) and -L(s)
    if it is -1."""
    d = rep.datum
    steps = []
    for s, ((image,),) in enumerate(rep.generator_images):
        weight = d.weights[s]
        if image._terms == {weight: 1}:
            steps.append(weight)
        elif image._terms == {0: -1}:
            steps.append(-weight)
        else:
            raise NotARepresentation(
                f"{rep.name}: the image {image} of s{s + 1} is neither "
                f"u^{weight} nor -1"
            )
    exponents = [0]
    for p, word in islice(zip(d._parent, d._words), 1, None):
        exponents.append(exponents[p] + steps[word[-1]])
    return LaurentPoly._of(dict(Counter(exponents)))


def schur_element(rep: MatrixRep) -> LaurentPoly:
    """The Schur element; raises NonIntegralSchurElement if the result is
    not in Z[u, u^-1] (which would mean the input is not irreducible or
    not a representation).

    A 1 x 1 rep is summed in closed form by _linear_schur; a wider rep
    from its character, swept by the matrix kernel."""
    _require_rep(rep)
    if rep.dimension == 1:
        return _linear_schur(rep)
    d = rep.datum
    traces = _character(rep)
    # sum of u^-L(w) trace(T_w) trace(T_(w^-1)) over the pairs w < w^-1
    # and over the involutions, as exponent -> coefficient
    pairs: dict[int, Scalar] = {}
    involutions: dict[int, Scalar] = {}
    for i, (j, w_weight, trace) in enumerate(zip(d._inverse, d._weight, traces)):
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
    sign = MatrixRep("sign", datum, [[[-1]] for _ in range(datum.rank)])
    return [index, sign]


def require_builtin_reps(type_tag: str, weights: tuple[int, ...]) -> None:
    """Raise UnsupportedType unless builtin_g2_reps covers the validated
    type tag and weights; callers can ask before building the datum."""
    if type_tag != "g2" or weights != (3, 1):
        raise UnsupportedType(
            "built-in representation set exists only for g2 with weights (3, 1)"
        )


def builtin_g2_reps(datum: CoxeterDatum) -> list[MatrixRep]:
    """The six irreducible representations of the G2 algebra with weights
    (3, 1), in a-invariant order: ind, eps1, rho+, rho-, eps2, eps.

    Only this weight choice is supported: the two-dimensional matrices
    below hard-code it.
    """
    require_builtin_reps(datum.type_tag, datum.weights)
    u = LaurentPoly.monomial(1)
    u3 = LaurentPoly.monomial(3)

    def rho(delta: int) -> list:
        return [
            [[-1, 0], [u * u + delta * u + 1, u3]],
            [[u, u], [0, -1]],
        ]

    return [
        MatrixRep("ind", datum, [[[u3]], [[u]]]),
        MatrixRep("eps1", datum, [[[u3]], [[-1]]]),
        MatrixRep("rho+", datum, rho(1)),
        MatrixRep("rho-", datum, rho(-1)),
        MatrixRep("eps2", datum, [[[-1]], [[u]]]),
        MatrixRep("eps", datum, [[[-1]], [[-1]]]),
    ]


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
