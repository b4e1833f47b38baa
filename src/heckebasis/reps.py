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

Characters are cached per representation on the first full-group sweep,
walking the BFS parent tree so each element costs one matrix product. A
parent is one shorter than its child, so the sweep keeps the matrices of
one length layer only and stores just the traces.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Sequence

from .coxeter import CoxeterDatum, GroupElement, UnsupportedType
from .laurent import LaurentPoly, ZeroPolynomial

__all__ = [
    "MatrixRep",
    "RepCheck",
    "NotARepresentation",
    "NonIntegralSchurElement",
    "NegativeAInvariant",
    "one_dim_reps",
    "builtin_g2_reps",
    "check_representation",
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


def _sum(polys: list[LaurentPoly]) -> LaurentPoly:
    """The sum of polys, without adding a zero start value."""
    return functools.reduce(operator.add, polys) if polys else LaurentPoly.zero()


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(_sum([a[i][k] * b[k][j] for k in range(n)]) for j in range(n))
        for i in range(n)
    )


def _mat_identity(n: int) -> Matrix:
    one, nil = LaurentPoly.one(), LaurentPoly.zero()
    return tuple(
        tuple(one if i == j else nil for j in range(n)) for i in range(n)
    )


def _mat_is_zero(a: Matrix) -> bool:
    return all(entry.is_zero() for row in a for entry in row)


def _mat_sub(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(a[i][j] - b[i][j] for j in range(n)) for i in range(n)
    )


def _mat_scale(a: Matrix, c: LaurentPoly) -> Matrix:
    return tuple(tuple(c * entry for entry in row) for row in a)


def _trace(a: Matrix) -> LaurentPoly:
    return _sum([a[i][i] for i in range(len(a))])


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
        self.name = name
        self.datum = datum
        self.dimension = dim
        self.generator_images = tuple(
            _as_matrix(m, dim) for m in generator_images
        )
        self._check: RepCheck | None = None
        self._character: list[LaurentPoly] | None = None

    def __repr__(self) -> str:
        return f"MatrixRep({self.name!r}, dim={self.dimension})"


class RepCheck:
    """Outcome of verifying the defining relations; ok iff no violations."""

    def __init__(self, violations: list[str]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def check_representation(rep: MatrixRep) -> RepCheck:
    """Verify the quadratic relation for every generator and the braid
    relation for every generator pair, exactly."""
    if rep._check is not None:
        return rep._check
    d = rep.datum
    violations: list[str] = []
    identity = _mat_identity(rep.dimension)
    for s, image in enumerate(rep.generator_images):
        u_l = LaurentPoly.monomial(d.weights[s])
        lhs = _mat_sub(image, _mat_scale(identity, u_l))
        rhs = _mat_sub(image, _mat_scale(identity, LaurentPoly.constant(-1)))
        if not _mat_is_zero(_mat_mul(lhs, rhs)):
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
                left = _mat_mul(left, rep.generator_images[s if k % 2 == 0 else t])
                right = _mat_mul(right, rep.generator_images[t if k % 2 == 0 else s])
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


def rep_matrix(rep: MatrixRep, w: GroupElement) -> Matrix:
    """The image of T_w: the product of generator images along a reduced word."""
    _require_rep(rep)
    d = rep.datum
    matrix = _mat_identity(rep.dimension)
    for s in d.reduced_word(w):
        matrix = _mat_mul(matrix, rep.generator_images[s])
    return matrix


def _character(rep: MatrixRep) -> list[LaurentPoly]:
    """trace(T_w, rep) for every element index, via one sweep along the
    BFS parent tree. Cached on the rep."""
    if rep._character is not None:
        return rep._character
    _require_rep(rep)
    d = rep.datum
    identity = _mat_identity(rep.dimension)
    traces = [_trace(identity)]
    # Matrices of the previous length layer and of the current one.
    previous: dict[int, Matrix] = {}
    current: dict[int, Matrix] = {0: identity}
    layer = 0
    for i in range(1, d.size):
        if d._length[i] != layer:
            layer = d._length[i]
            previous, current = current, {}
        parent, s = d._parents[i]
        matrix = _mat_mul(previous[parent], rep.generator_images[s])
        current[i] = matrix
        traces.append(_trace(matrix))
    rep._character = traces
    return traces


def rep_trace(rep: MatrixRep, w: GroupElement) -> LaurentPoly:
    """trace(T_w, rep); uses the cached character if one was built."""
    if rep._character is not None:
        return rep._character[w.index]
    _require_rep(rep)
    return _trace(rep_matrix(rep, w))


def schur_element(rep: MatrixRep) -> LaurentPoly:
    """The Schur element; raises NonIntegralSchurElement if the result is
    not in Z[u, u^-1] (which would mean the input is not irreducible or
    not a representation)."""
    _require_rep(rep)
    d = rep.datum
    traces = _character(rep)
    inverse = d._inverse
    weight = d._weight
    # sum over w of u^-L(w) trace(T_w) trace(T_(w^-1)), as exponent -> coefficient
    acc: dict[int, int | Fraction] = {}
    for i in range(d.size):
        shift = -weight[i]
        inverse_terms = traces[inverse[i]]._terms.items()
        for e1, c1 in traces[i]._terms.items():
            e1 += shift
            for e2, c2 in inverse_terms:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
    total = LaurentPoly(acc) * Fraction(1, rep.dimension)
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


def builtin_g2_reps(datum: CoxeterDatum) -> list[MatrixRep]:
    """The six irreducible representations of the G2 algebra with weights
    (3, 1), in a-invariant order: ind, eps1, rho+, rho-, eps2, eps.

    Only this weight choice is supported: the two-dimensional matrices
    below hard-code it.
    """
    if datum.type_tag != "g2" or datum.weights != (3, 1):
        raise UnsupportedType(
            "built-in representation set exists only for g2 with weights (3, 1)"
        )
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
