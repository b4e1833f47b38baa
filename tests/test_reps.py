"""Matrix representations, characters, Schur elements, a-invariants.

The six G2(3,1) representations and their invariants are pinned
exactly; structural identities (trace decomposition of tau, dual-basis
orthogonality, the group-algebra specialization at u = 1) serve as
independent oracles for the Schur machinery.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import heckebasis.laurent as laurent
import heckebasis.reps as reps
from heckebasis.coxeter import UnsupportedType, build_datum
from heckebasis.hecke import t_basis, tau
from heckebasis.laurent import LaurentPoly, ZeroPolynomial
from heckebasis.reps import (
    MatrixRep,
    NegativeAInvariant,
    NonIntegralSchurElement,
    NotARepresentation,
    _character,
    a_invariant,
    builtin_g2_reps,
    check_representation,
    one_dim_reps,
    rep_matrix,
    rep_trace,
    schur_element,
    schur_table,
    schur_table_json_dict,
)

U = LaurentPoly.monomial(1)


def _trace(matrix) -> LaurentPoly:
    """The diagonal sum of a rep_matrix result, in LaurentPoly arithmetic."""
    return sum((matrix[i][i] for i in range(len(matrix))), LaurentPoly.zero())


def _mul(a, b):
    """a times b, square matrices as rows of LaurentPoly, row by column."""
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), LaurentPoly.zero())
         for j in range(n)]
        for i in range(n)
    ]


def _by_words(datum, rep):
    """The image of T_w for every element w, multiplied out row by column
    along a reduced word: an oracle that shares no product with reps."""
    n = rep.dimension
    identity = [[LaurentPoly.constant(int(i == j)) for j in range(n)]
                for i in range(n)]
    out = []
    for w in datum.elements():
        matrix = identity
        for s in datum.reduced_word(w):
            matrix = _mul(matrix, rep.generator_images[s])
        out.append(tuple(map(tuple, matrix)))
    return out


def _typed(value):
    """value with each LaurentPoly as its (exponent, type, coefficient)
    triples, so that equal values compare equal only when their
    coefficients have the same int/Fraction types."""
    if isinstance(value, LaurentPoly):
        return sorted((k, type(c), c) for k, c in value.items())
    return [_typed(v) for v in value]


def _check_against_words(datum, rep):
    """_character, rep_trace and rep_matrix against _by_words, with the
    coefficient types; returns the traces."""
    elements = list(datum.elements())
    matrices = _by_words(datum, rep)
    traces = [_trace(m) for m in matrices]
    assert _typed([rep_matrix(rep, w) for w in elements]) == _typed(matrices)
    assert _typed([rep_trace(rep, w) for w in elements]) == _typed(traces)
    assert _typed(_character(rep)) == _typed(traces)
    return traces


@pytest.fixture(scope="module")
def g2():
    return build_datum("g2", 2, [3, 1])


@pytest.fixture(scope="module")
def g2_reps(g2):
    return builtin_g2_reps(g2)


class TestBuiltinReps:
    def test_all_six_pass_relation_check(self, g2_reps):
        for rep in g2_reps:
            assert check_representation(rep).ok, rep.name

    def test_names_and_dimensions(self, g2_reps):
        assert [(r.name, r.dimension) for r in g2_reps] == [
            ("ind", 1),
            ("eps1", 1),
            ("rho+", 2),
            ("rho-", 2),
            ("eps2", 1),
            ("eps", 1),
        ]

    def test_pinned_matrix_entries(self, g2_reps):
        by_name = {r.name: r for r in g2_reps}
        rho_plus = by_name["rho+"]
        assert rho_plus.generator_images[0][1][0] == U * U + U + 1
        assert rho_plus.generator_images[0][0][0] == LaurentPoly.constant(-1)
        assert rho_plus.generator_images[1][0][1] == U
        rho_minus = by_name["rho-"]
        assert rho_minus.generator_images[0][1][0] == U * U - U + 1
        assert by_name["ind"].generator_images[1][0][0] == U
        assert by_name["eps2"].generator_images[0][0][0] == LaurentPoly.constant(-1)

    def test_requires_g2_with_weights_3_1(self):
        other = build_datum("g2", 2, [1, 1])
        with pytest.raises(UnsupportedType):
            builtin_g2_reps(other)
        b2 = build_datum("b", 2, [3, 1])
        with pytest.raises(UnsupportedType):
            builtin_g2_reps(b2)

    def test_corrupted_rep_fails_check(self, g2):
        u3 = LaurentPoly.monomial(3)
        bad = MatrixRep(
            "bad",
            g2,
            [
                [[-1, 0], [U * U + 1, u3]],  # (2,1) entry missing the u term
                [[U, U], [0, -1]],
            ],
        )
        check = check_representation(bad)
        assert not check.ok
        assert any("braid" in v for v in check.violations)
        with pytest.raises(NotARepresentation):
            schur_element(bad)

    def test_wrong_quadratic_detected(self, g2):
        bad = MatrixRep("bad-quad", g2, [[[U]], [[U]]])  # u != u^3 on s1
        check = check_representation(bad)
        assert any("quadratic" in v for v in check.violations)

    def test_one_dim_reps_match_builtins(self, g2, g2_reps):
        index, sign = one_dim_reps(g2)
        assert check_representation(index).ok
        assert check_representation(sign).ok
        by_name = {r.name: r for r in g2_reps}
        assert schur_element(index) == schur_element(by_name["ind"])
        assert schur_element(sign) == schur_element(by_name["eps"])


def _g2_literals():
    """The G2 (3, 1) generator images as literal matrices, in the order
    ind, eps1, rho+, rho-, eps2, eps: the oracle for the dihedral rule."""
    u3 = LaurentPoly.monomial(3)

    def rho(delta):
        return [[[-1, 0], [U * U + delta * U + 1, u3]], [[U, U], [0, -1]]]

    return [
        [[[u3]], [[U]]],
        [[[u3]], [[-1]]],
        rho(1),
        rho(-1),
        [[[-1]], [[U]]],
        [[[-1]], [[-1]]],
    ]


class TestDihedralRule:
    """The six G2 reps built by the dihedral rule at any weights (b, a)
    with a + b even, beyond the (3, 1) that the gate serves."""

    @pytest.mark.parametrize(
        "weights", [(0, 0), (1, 1), (1, 3), (3, 1), (5, 1), (2, 4), (2, 0)]
    )
    def test_the_six_reps_are_complete(self, weights):
        datum = build_datum("g2", 2, list(weights))
        six = reps._g2_reps(datum)
        assert [r.name for r in six] == [
            "ind", "eps1", "rho+", "rho-", "eps2", "eps"
        ]
        for rep in six:
            assert check_representation(rep).ok, (weights, rep.name)
            assert set(vars(rep)) == {
                "name", "datum", "dimension", "_flats", "_check"
            }
        assert sum(r.dimension ** 2 for r in six) == 12
        # tau(T_1) = 1 = sum over E of d_E / c_E, cleared of denominators
        schur = [schur_element(r) for r in six]
        total = sum(
            rep.dimension * math.prod(c for j, c in enumerate(schur) if j != k)
            for k, rep in enumerate(six)
        )
        assert total == math.prod(schur)

    def test_equal_parameters_a_values(self):
        six = reps._g2_reps(build_datum("g2", 2, [1, 1]))
        a_values = [a_invariant(schur_element(r))[0] for r in six]
        assert a_values == [0, 1, 1, 1, 1, 6]

    def test_weights_3_1_match_the_literal_matrices(self, g2):
        six = builtin_g2_reps(g2)
        for rep, want in zip(six, _g2_literals(), strict=True):
            got = [[list(row) for row in m] for m in rep.generator_images]
            assert got == want, rep.name

    @pytest.mark.parametrize(
        "datum",
        [
            build_datum("g2", 2, [1, 2]),
            build_datum("custom", 2, [1, 1], coxeter_matrix=[[1, 5], [5, 1]]),
        ],
        ids=["odd-weight-sum", "i2-5"],
    )
    def test_refused_before_any_rep_is_built(self, monkeypatch, datum):
        def no_rep(*args):
            raise AssertionError("MatrixRep built")

        monkeypatch.setattr(reps, "MatrixRep", no_rep)
        with pytest.raises(UnsupportedType):
            reps._g2_reps(datum)
        with pytest.raises(UnsupportedType):
            builtin_g2_reps(datum)

    def test_linear_reps_never_build_a_polynomial_view(self, monkeypatch):
        # Each image is held once, as a flat matrix of LaurentPoly values
        # that stores a LaurentPoly passed in as that same object; a 1 x 1
        # rep is built, checked and summed without a matrix product.
        data = [
            build_datum("a", 3, [1, 1, 1]),
            build_datum("b", 3, [2, 1]),
            build_datum("g2", 2, [3, 1]),
            build_datum("custom", 3, [1, 1, 1], coxeter_matrix=H3_MATRIX),
        ]

        def linear():
            out = [rep for datum in data for rep in one_dim_reps(datum)]
            return out + [r for r in builtin_g2_reps(data[2]) if r.dimension == 1]

        want = [schur_element(rep) for rep in linear()]

        def refused(*args):
            raise AssertionError("matrix product built")

        monkeypatch.setattr(reps, "_matmul", refused)
        reps_now = linear()
        assert len(reps_now) == 12
        assert [check_representation(rep).ok for rep in reps_now] == [True] * 12
        assert [schur_element(rep) for rep in reps_now] == want
        for rep in reps_now:
            assert set(vars(rep)) == {
                "name", "datum", "dimension", "_flats", "_check"
            }
            for (entry,) in rep._flats:
                assert type(entry) is LaurentPoly
        image = LaurentPoly.monomial(1)
        rep = MatrixRep("mixed", data[0], [[[image]], [[-1]], [[image]]])
        assert rep._flats[0][0] is image and rep._flats[2][0] is image
        assert rep.generator_images[0][0][0] is image
        assert _typed(rep._flats[1][0]) == [(0, int, -1)]


H3_MATRIX = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]


def _word_violations(datum, images):
    """The relation check of check_representation, evaluated in LaurentPoly
    arithmetic: (M - u^L)(M + 1) = 0 per generator, then the two
    alternating words of length m multiplied out letter by letter per
    pair, both in check_representation's order and wording."""
    n = len(images[0])
    one = LaurentPoly.one()

    def plus(a, c):
        return [[a[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]

    identity = [[one if i == j else LaurentPoly.zero() for j in range(n)]
                for i in range(n)]
    lifted = [
        [[x if isinstance(x, LaurentPoly) else LaurentPoly.constant(x) for x in row]
         for row in m]
        for m in images
    ]
    out = []
    for s, m in enumerate(lifted):
        weight = datum.weights[s]
        product = _mul(plus(m, -LaurentPoly.monomial(weight)), plus(m, one))
        if any(not entry.is_zero() for row in product for entry in row):
            out.append(f"quadratic relation fails for generator s{s + 1} "
                       f"(weight {weight})")
    for s in range(datum.rank):
        for t in range(s + 1, datum.rank):
            order = datum.coxeter_matrix[s][t]
            left, right = identity, identity
            for k in range(order):
                left = _mul(left, lifted[s if k % 2 == 0 else t])
                right = _mul(right, lifted[t if k % 2 == 0 else s])
            if left != right:
                out.append(f"braid relation of order {order} fails for "
                           f"generators s{s + 1}, s{t + 1}")
    return out


class TestRelationCheck:
    """check_representation against _word_violations: the closed form on
    1 x 1 reps and the pair-product powers on 2 x 2 reps."""

    @pytest.mark.parametrize(
        "datum",
        [
            build_datum("g2", 2, [3, 1]),
            build_datum("b", 3, [2, 1]),
            build_datum("a", 3, [1, 1, 1]),
            build_datum("custom", 3, [2, 2, 2], coxeter_matrix=H3_MATRIX),
            build_datum("b", 3, [0, 1]),
        ],
        ids=["G2(3,1)", "B3(2,1)", "A3", "H3", "B3(0,1)"],
    )
    def test_one_dim_images(self, datum):
        def candidates(weight):
            return [
                LaurentPoly.monomial(weight),
                LaurentPoly.constant(-1),
                LaurentPoly.zero(),
                U + 1,
                U * U,
                2 * LaurentPoly.monomial(3),
                LaurentPoly({weight: Fraction(1)}),
            ]

        per_generator = [candidates(w) for w in datum.weights]
        seen = set()
        for choice in itertools.product(*per_generator):
            images = [[[x]] for x in choice]
            want = _word_violations(datum, images)
            assert check_representation(MatrixRep("r", datum, images)).violations == want
            seen.add(tuple(want))
        # passing reps, failing quadratic relations and failing braid
        # relations all occur
        assert () in seen
        assert any(v.startswith("quadratic") for w in seen for v in w)
        assert datum.rank == 2 or any(v.startswith("braid") for w in seen for v in w)

    def test_linear_reps_need_no_product_and_no_tree(self, monkeypatch):
        # The 1 x 1 check never reaches a matrix product, and no 1 x 1
        # Schur element walks the BFS tree: not the index and sign ones,
        # and not the mixed ones, whose two classes have opposite signs.
        def no_product(*args):
            raise AssertionError("matrix product reached")

        datum = build_datum("b", 3, [2, 1])
        u_b, u_a = LaurentPoly.monomial(2), LaurentPoly.monomial(1)
        linear = one_dim_reps(datum) + [
            MatrixRep("long", datum, [[[u_b]], [[-1]], [[-1]]]),
            MatrixRep("short", datum, [[[-1]], [[u_a]], [[u_a]]]),
        ]
        want = [
            _poincare(datum, 1),
            _poincare(datum, -1),
            _linear_sum(datum, (2, -1, -1)),
            _linear_sum(datum, (-2, 1, 1)),
        ]
        monkeypatch.setattr(reps, "_matmul", no_product)
        monkeypatch.setattr(datum, "_words", None)
        assert [schur_element(rep) for rep in linear] == want
        bad = MatrixRep("bad", datum, [[[U ** 3]], [[-1]], [[U]]])
        assert check_representation(bad).violations == [
            "quadratic relation fails for generator s1 (weight 2)",
            "braid relation of order 3 fails for generators s2, s3",
        ]

    @pytest.mark.parametrize(
        "datum, sample",
        [
            (build_datum("a", 2, [1, 1]), None),
            (build_datum("b", 2, [2, 1]), None),
            (build_datum("g2", 2, [3, 1]), None),
            (build_datum("custom", 2, [1, 2], coxeter_matrix=[[1, 2], [2, 1]]), None),
            (build_datum("custom", 3, [1, 1, 1], coxeter_matrix=H3_MATRIX), 150),
        ],
        ids=["A2", "B2", "G2", "A1xA1", "H3"],
    )
    def test_two_dim_images(self, datum, sample):
        # Each image satisfies the quadratic relation: a triangular matrix
        # with eigenvalues u^L and -1 is diagonalisable, as are u^L I and -I.
        # The off-diagonal entries give the irreducible reps of A2 (1, u),
        # B2 (1, u^2 + u) and G2 (u^2 + u + 1, u) among the choices.
        def candidates(weight):
            top = LaurentPoly.monomial(weight)
            out = [[[top, 0], [0, top]], [[-1, 0], [0, -1]]]
            for c in (0, 1, U, U * U + U, U * U + U + 1, -U):
                out.append([[-1, 0], [c, top]])
                out.append([[top, c], [0, -1]])
            return out

        choices = list(itertools.product(*[candidates(w) for w in datum.weights]))
        if sample is not None:
            choices = random.Random(17).sample(choices, sample)
        outcomes = []
        for images in choices:
            want = _word_violations(datum, images)
            assert not any(v.startswith("quadratic") for v in want)
            assert check_representation(MatrixRep("r", datum, images)).violations == want
            outcomes.append(bool(want))
        assert any(outcomes) and not all(outcomes)


class TestTraces:
    def test_trace_examples(self, g2, g2_reps):
        by_name = {r.name: r for r in g2_reps}
        rho_plus = by_name["rho+"]
        assert rep_trace(rho_plus, g2.identity) == LaurentPoly.constant(2)
        alpha, beta = g2.generators()
        assert rep_trace(rho_plus, alpha) == LaurentPoly.monomial(3) - 1
        assert rep_trace(by_name["ind"], beta) == U

    def test_character_is_class_function_of_trace_kind(self, g2, g2_reps):
        # trace(T_w) = trace(T_(w^-1)) for these representations: each
        # image matrix is conjugate to its own transpose-by-inverse; this
        # holds here and pins the character sweep against direct products.
        for rep in g2_reps:
            for w in g2.elements():
                direct = _trace(rep_matrix(rep, w))
                assert rep_trace(rep, w) == direct

    def test_sums_start_at_their_first_term(self, monkeypatch, g2, g2_reps):
        # an entry of a product and a trace are summed from their first
        # term, so no int 0 is coerced and added to a LaurentPoly
        rho_plus = g2_reps[2]
        check_representation(rho_plus)
        w0 = g2.longest_element()
        calls = []
        radd = LaurentPoly.__radd__

        def spy(self, other):
            calls.append(other)
            return radd(self, other)

        monkeypatch.setattr(LaurentPoly, "__radd__", spy)
        matrix = rep_matrix(rho_plus, w0)
        trace = rep_trace(rho_plus, w0)
        traces = _character(rho_plus)
        assert calls == []
        assert trace == traces[w0.index] == _trace(matrix)


def _conjugated(images, p, p_inv):
    """p_inv * m * p for each generator image m, in LaurentPoly arithmetic."""

    def lift(m):
        return [[LaurentPoly.constant(x) for x in row] for row in m]

    return [_mul(_mul(lift(p_inv), m), lift(p)) for m in images]


@pytest.fixture
def dense_rep(g2):
    """rho+ (+) eps conjugated by a unimodular integer matrix, so that the
    generator columns hold several non-monomial entries."""
    u3 = LaurentPoly.monomial(3)
    one = LaurentPoly.one()
    nil = LaurentPoly.zero()
    blocks = [
        [[-one, nil, nil], [U * U + U + 1, u3, nil], [nil, nil, -one]],
        [[U, U, nil], [nil, -one, nil], [nil, nil, -one]],
    ]
    p = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
    p_inv = [[0, -1, 1], [1, 1, -1], [-1, 0, 1]]
    return MatrixRep("dense", g2, _conjugated(blocks, p, p_inv))


@pytest.fixture
def halved(g2):
    """rho+, and rho+ conjugated by diag(2, 1), which has a Fraction entry."""
    rho = builtin_g2_reps(g2)[2]
    d, d_inv = [[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]]
    return rho, MatrixRep(
        "halved", g2, _conjugated(rho.generator_images, d_inv, d)
    )


@pytest.fixture
def dense_rhos(g2):
    """rho+ and rho- conjugated by a unimodular integer matrix, so that
    every entry of each generator image has two or more terms."""
    p, p_inv = [[1, 1], [1, 2]], [[2, -1], [-1, 1]]
    return [
        MatrixRep(f"dense {rho.name}", g2, _conjugated(rho.generator_images, p, p_inv))
        for rho in builtin_g2_reps(g2)[2:4]
    ]


class TestCharacterSweep:
    """The layer sweep, rep_trace and rep_matrix against the row-by-column
    products of _by_words, whether or not a sweep has run."""

    def test_builtin_g2_reps(self, g2):
        for rep in builtin_g2_reps(g2):
            _check_against_words(g2, rep)

    def test_dense_rep(self, g2, dense_rep):
        assert check_representation(dense_rep).ok
        images = dense_rep.generator_images
        for m in images:
            for j in range(3):
                column = [m[k][j] for k in range(3) if m[k][j]]
                assert len(column) >= 2
        assert sum(len(m[k][j]._terms) > 1 for m in images
                   for k in range(3) for j in range(3)) >= 4
        direct = _check_against_words(g2, dense_rep)
        by_name = {r.name: r for r in builtin_g2_reps(g2)}
        for w, trace in zip(g2.elements(), direct):
            assert trace == (
                rep_trace(by_name["rho+"], w) + rep_trace(by_name["eps"], w)
            )


    H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]

    def _check_linear(self, datum, rep):
        """A 1 x 1 rep: the closed-form Schur element against the sum over
        w of u^-L(w) trace(T_w) trace(T_(w^-1)), both from the traces along
        reduced words; then the swept character and the images against
        _by_words."""
        elements = list(datum.elements())
        by_word = [rep_trace(rep, w) for w in elements]
        total = LaurentPoly.zero()
        for w, trace in zip(elements, by_word):
            total = total + (
                LaurentPoly.monomial(-datum.weight(w))
                * trace
                * by_word[datum.inverse(w).index]
            )
        assert schur_element(rep) == total
        assert _check_against_words(datum, rep) == by_word

    @pytest.mark.parametrize(
        "datum",
        [
            build_datum("a", 4, [1] * 4),
            build_datum("b", 3, [2, 1]),
            build_datum("custom", 3, [2, 2, 2], coxeter_matrix=H3),
            build_datum("b", 2, [0, 1]),
        ],
        ids=["A4", "B3(2,1)", "H3", "B2(0,1)"],
    )
    def test_one_dim_reps(self, datum):
        for rep in one_dim_reps(datum):
            self._check_linear(datum, rep)

    def test_mixed_linear_characters_of_b3(self):
        # The bond s0-s1 has the even order 4, so s0 is conjugate to
        # neither s1 nor s2, and T_s0 -> u^b with the others -> -1, and
        # the reverse, are representations.
        b3 = build_datum("b", 3, [2, 1])
        u_b = LaurentPoly.monomial(b3.weights[0])
        u_a = LaurentPoly.monomial(b3.weights[1])
        images = {
            "long": [[[u_b]], [[-1]], [[-1]]],
            "short": [[[-1]], [[u_a]], [[u_a]]],
        }
        for name, generator_images in images.items():
            rep = MatrixRep(name, b3, generator_images)
            assert check_representation(rep).ok
            self._check_linear(b3, rep)


class TestFaults:
    @pytest.mark.parametrize(
        "image",
        [U + 1, LaurentPoly.zero(), 2 * LaurentPoly.monomial(3), U * U],
        ids=["u+1", "0", "2u^3", "u^2"],
    )
    @pytest.mark.parametrize("entry", ["schur_element", "_character", "rep_trace"])
    def test_non_monomial_1x1_image_is_not_a_representation(self, g2, image, entry):
        # the image of s1 is neither u^L(s1) = u^3 nor -1
        rep = MatrixRep("bad", g2, [[[image]], [[U]]])
        call = {
            "schur_element": lambda: schur_element(rep),
            "_character": lambda: _character(rep),
            "rep_trace": lambda: rep_trace(rep, g2.identity),
        }[entry]
        with pytest.raises(NotARepresentation):
            call()

    @pytest.mark.parametrize("rep_index", [0, 2], ids=["ind", "rho+"])
    def test_trace_of_an_element_of_another_datum(self, g2, rep_index):
        # The datum check holds before any sweep, after a Schur element and
        # after a character sweep alike, for an index that G2 also has and
        # for one beyond its 12 elements.
        rep = builtin_g2_reps(g2)[rep_index]
        others = [build_datum("a", 2, [1, 1]).element(3),
                  build_datum("a", 3, [1, 1, 1]).element(20)]
        for prepare in (lambda: None, lambda: schur_element(rep), lambda: _character(rep)):
            prepare()
            for w in others:
                with pytest.raises(ValueError, match="different datum"):
                    rep_trace(rep, w)
                with pytest.raises(ValueError, match="different datum"):
                    rep_matrix(rep, w)

    def test_integrality_is_checked_for_wider_reps(self, g2):
        # ind (+) eps passes every relation, but it is reducible: half the
        # sum of the two Schur elements has the coefficient 1/2 at u^1.
        u3 = LaurentPoly.monomial(3)
        rep = MatrixRep(
            "ind+eps", g2, [[[u3, 0], [0, -1]], [[U, 0], [0, -1]]]
        )
        assert check_representation(rep).ok
        with pytest.raises(NonIntegralSchurElement):
            schur_element(rep)

    @pytest.mark.parametrize(
        "datum, images, pair",
        [
            (build_datum("a", 2, [1, 1]), [[[U]], [[-1]]], (1, 2)),
            # u^0 and -1 both add 0 to every exponent, but they still differ
            (build_datum("a", 2, [0, 0]), [[[1]], [[-1]]], (1, 2)),
            (build_datum("b", 3, [2, 1]), [[[-1]], [[U]], [[-1]]], (2, 3)),
            (
                build_datum("custom", 3, [1, 1, 1], coxeter_matrix=H3_MATRIX),
                [[[U]], [[U]], [[-1]]],
                (2, 3),
            ),
        ],
        ids=["A2", "A2-zero-weights", "B3", "H3"],
    )
    def test_closed_form_refuses_images_that_differ_in_a_class(
        self, datum, images, pair
    ):
        # Conjugate generators must have the same image: the braid check
        # refuses such a rep at the odd bond where the images first differ,
        # and the closed form is refused through that check.
        s, t = pair
        violation = f"braid relation of order 3 fails for generators s{s}, s{t}"
        rep = MatrixRep("split", datum, images)
        assert check_representation(rep).violations == [violation]
        with pytest.raises(NotARepresentation) as info:
            schur_element(rep)
        assert str(info.value) == f"split: {violation}"

    def test_dimension_zero_refused(self, g2):
        with pytest.raises(ValueError, match="dimension at least 1"):
            MatrixRep("z", g2, [[], []])


class TestMatrixRepInput:
    """What the constructor refuses, with the exception and message, and
    what its generator images give back."""

    @pytest.mark.parametrize(
        "images, message",
        [
            ([[[1]]], "need 2 generator images, got 1"),
            ([[[1]], [[1]], [[1]]], "need 2 generator images, got 3"),
            ([[[1, 0], [0]], [[1, 0], [0, 1]]], "expected a 2x2 matrix"),
            ([[[1, 0]], [[1, 0]]], "expected a 1x1 matrix"),
            ([[[1], [0]], [[1], [0]]], "expected a 2x2 matrix"),
            ([[[1]], [[1, 0], [0, 1]]], "expected a 1x1 matrix"),
            ([[[1, 0], [0, 1]], [[1]]], "expected a 2x2 matrix"),
        ],
        ids=[
            "too-few", "too-many", "ragged", "wide", "tall",
            "later-larger", "later-smaller",
        ],
    )
    def test_shape_refused(self, g2, images, message):
        with pytest.raises(ValueError) as info:
            MatrixRep("r", g2, images)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "entry, message",
        [
            (1.0, "coefficient 1.0 is not an int or Fraction"),
            (True, "coefficient True is not an int or Fraction"),
            ("1", "coefficient '1' is not an int or Fraction"),
            (None, "coefficient None is not an int or Fraction"),
        ],
        ids=["float", "bool", "str", "None"],
    )
    @pytest.mark.parametrize("at", [0, 1], ids=["s1", "s2"])
    def test_entry_refused(self, g2, entry, message, at):
        images = [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
        images[at][1][0] = entry
        with pytest.raises(TypeError) as info:
            MatrixRep("r", g2, images)
        assert type(info.value) is TypeError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rank, images, error, message",
        [
            (1, [[[1, 2]]], ValueError, "expected a 1x1 matrix"),
            (1, [[[]]], ValueError, "expected a 1x1 matrix"),
            (1, [[1]], TypeError, "object of type 'int' has no len()"),
            (1, [["a"]], TypeError, "coefficient 'a' is not an int or Fraction"),
            (2, [[[1]], [[1, 2]]], ValueError, "expected a 1x1 matrix"),
            (2, [[[1]], []], ValueError, "expected a 1x1 matrix"),
            (2, [[[1]], [1]], TypeError, "object of type 'int' has no len()"),
            (2, [[[1]], 5], TypeError, "object of type 'int' has no len()"),
            (2, [[[None]], [[1, 2]]], TypeError,
             "coefficient None is not an int or Fraction"),
            (2, [[[1]], [[True]]], TypeError,
             "coefficient True is not an int or Fraction"),
        ],
        ids=[
            "wide", "empty-row", "bare-entry", "str-row", "later-wide",
            "later-empty", "later-bare", "later-int", "entry-before-shape",
            "bool",
        ],
    )
    def test_one_by_one_shape_refused(self, rank, images, error, message):
        # a 1 x 1 image is read with one unpack; whatever that unpack
        # refuses meets the general shape check and its message
        datum = build_datum("a", rank, [1] * rank)
        with pytest.raises(error) as info:
            MatrixRep("r", datum, images)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_entries_are_checked_generator_by_generator(self, g2):
        # a bad entry of s1 is found before the wrong size of s2
        with pytest.raises(TypeError, match="coefficient None"):
            MatrixRep("r", g2, [[[None]], [[1, 0], [0, 1]]])

    def test_generator_images_round_trip(self, g2):
        entries = [
            [[-1, 0], [U * U + U + 1, LaurentPoly.monomial(3)]],
            [[Fraction(1, 2), Fraction(4, 2)], [0, -1 + 0 * U]],
        ]
        rep = MatrixRep("r", g2, entries)
        got = rep.generator_images
        assert len(got) == 2
        for image, want in zip(got, entries):
            assert len(image) == 2 and all(len(row) == 2 for row in image)
            for row, want_row in zip(image, want):
                for entry, value in zip(row, want_row):
                    assert type(entry) is LaurentPoly
                    assert entry == value
        assert type(got[1][0][1].coefficient(0)) is int

    @pytest.mark.parametrize("which", ["ind", "rho+", "dense"])
    def test_rep_matrix_of_a_generator_is_its_image(self, g2, g2_reps, dense_rep, which):
        rep = dense_rep if which == "dense" else {r.name: r for r in g2_reps}[which]
        for s in range(g2.rank):
            assert rep_matrix(rep, g2.generator(s)) == rep.generator_images[s]


class TestLinearOnTheKernel:
    """The index and sign reps through the general matrix product, against
    u^L(w) and (-1)^l(w), which need no product."""

    @pytest.mark.parametrize(
        "datum",
        [
            build_datum("a", 3, [1] * 3),
            build_datum("b", 3, [2, 1]),
            build_datum("g2", 2, [3, 1]),
            build_datum("custom", 3, [1] * 3, coxeter_matrix=H3_MATRIX),
        ],
        ids=["A3", "B3(2,1)", "G2(3,1)", "H3"],
    )
    def test_traces_and_matrices(self, datum):
        index, sign = one_dim_reps(datum)
        for rep, value in (
            (index, lambda w: LaurentPoly.monomial(datum.weight(w))),
            (sign, lambda w: LaurentPoly.constant((-1) ** datum.length(w))),
        ):
            want = [value(w) for w in datum.elements()]
            assert _character(rep) == want
            assert [rep_trace(rep, w) for w in datum.elements()] == want
            assert [rep_matrix(rep, w) for w in datum.elements()] == [
                ((x,),) for x in want
            ]


class TestRationalEntries:
    """rho+ conjugated by diag(2, 1): the same representation, with a
    Fraction in a generator image and in most products."""

    def test_same_representation(self, g2, halved):
        rho, rep = halved
        assert rep.generator_images[0][1][0] == (U * U + U + 1) * Fraction(1, 2)
        assert rep.generator_images[1][0][1] == 2 * U
        assert check_representation(rep).ok

        assert _typed(_character(rep)) == _typed(_character(rho))
        assert _typed(schur_element(rep)) == _typed(schur_element(rho))

    def test_against_row_by_column_products(self, g2, halved):
        for rep in halved:
            _check_against_words(g2, rep)

    def test_products_are_canonical(self, g2, halved):
        rho, rep = halved
        d, d_inv = [[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]]
        stored = set()
        for w in g2.elements():
            m = rep_matrix(rep, w)
            assert [list(row) for row in m] == _conjugated(
                [rep_matrix(rho, w)], d_inv, d
            )[0]
            for row in m:
                for entry in row:
                    for c in entry._terms.values():
                        assert c != 0
                        assert (type(c) is int) == (c.denominator == 1), (w, c)
                        stored.add(type(c))
        assert stored == {int, Fraction}



def _checked_in(monkeypatch, datum, images, cap=None):
    """The violations of a fresh rep of the images, and the set of value
    types its matrix products ran on; cap, when given, stands in for
    laurent.MAX_PACKED_BITS during the check."""
    rings = set()
    matmul = reps._matmul

    def spy(a, b, n):
        rings.add(type(a[0]))
        return matmul(a, b, n)

    with monkeypatch.context() as patch:
        patch.setattr(reps, "_matmul", spy)
        if cap is not None:
            patch.setattr(laurent, "MAX_PACKED_BITS", cap)
        check = check_representation(MatrixRep("r", datum, images))
    return check.violations, rings


def _same_in_both_rings(monkeypatch, datum, images):
    """The violations on packed ints and on LaurentPoly values, forced by
    the cap, are the same list, and that of the word-by-word oracle."""
    packed, rings = _checked_in(monkeypatch, datum, images)
    assert rings == {int}
    polys, rings = _checked_in(monkeypatch, datum, images, cap=0)
    assert rings == {LaurentPoly}
    assert packed == polys == _word_violations(datum, images)
    return packed


def _moved(images, g, entry, exponent, delta):
    """The images with the coefficient of u^exponent in one entry of
    generator g moved by delta."""
    out = [[list(row) for row in m] for m in images]
    row, column = divmod(entry, len(out[g]))
    out[g][row][column] += LaurentPoly.monomial(exponent, delta)
    return out


_K = 2**8190


class TestPackedRelationCheck:
    """A wider rep's relations checked on ints packed at u = 2^B against
    the same check on LaurentPoly values: identical violations, in the
    same words and order."""

    @pytest.mark.parametrize(
        "weights", [(0, 0), (1, 1), (1, 3), (3, 1), (5, 1), (2, 4), (2, 0)]
    )
    def test_the_g2_reps(self, monkeypatch, weights):
        datum = build_datum("g2", 2, list(weights))
        for rep in reps._g2_reps(datum):
            if rep.dimension > 1:
                images = rep.generator_images
                assert _same_in_both_rings(monkeypatch, datum, images) == []

    def test_conjugated_reps(self, monkeypatch, g2, dense_rep):
        rho = builtin_g2_reps(g2)[2]
        d, d_inv = [[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]]
        halved = _conjugated(rho.generator_images, d_inv, d)
        assert _same_in_both_rings(monkeypatch, g2, halved) == []
        dense = dense_rep.generator_images
        assert _same_in_both_rings(monkeypatch, g2, dense) == []

    @pytest.mark.parametrize(
        "tag, weights, alpha",
        [
            ("a", (1, 1), 0), ("a", (1, 1), 1), ("a", (2, 2), -2),
            ("b", (2, 2), 1), ("b", (2, 1), -2), ("b", (1, 3), -1),
            ("g2", (3, 1), 0), ("g2", (3, 1), 2), ("g2", (2, 2), -2),
        ],
    )
    def test_rho_at_a_wrong_alpha(self, monkeypatch, tag, weights, alpha):
        datum = build_datum(tag, 2, list(weights))
        images = reps._rho(datum, alpha, "rho").generator_images
        violations = _same_in_both_rings(monkeypatch, datum, images)
        m = datum.coxeter_matrix[0][1]
        assert violations == [
            f"braid relation of order {m} fails for generators s1, s2"
        ]

    @pytest.mark.parametrize(
        "tag, weights, alpha",
        [("g2", (3, 1), 1), ("g2", (3, 1), -1), ("a", (1, 1), -1),
         ("b", (2, 1), 0)],
    )
    def test_each_coefficient_moved(self, monkeypatch, tag, weights, alpha):
        # every coefficient, the one of highest degree included, and the
        # constant term of each zero entry, moved by +1 and by -1
        datum = build_datum(tag, 2, list(weights))
        images = reps._rho(datum, alpha, "rho").generator_images
        top = max(max(e._terms) for m in images for row in m for e in row if e)
        seen, moved_top = set(), False
        for g, m in enumerate(images):
            for entry, poly in enumerate(x for row in m for x in row):
                for exponent in poly._terms or [0]:
                    moved_top |= exponent == top
                    for delta in (1, -1):
                        moved = _moved(images, g, entry, exponent, delta)
                        seen.add(tuple(
                            _same_in_both_rings(monkeypatch, datum, moved)
                        ))
        assert moved_top
        assert () not in seen
        assert any(v.startswith("quadratic") for w in seen for v in w)
        assert any(v.startswith("braid") for w in seen for v in w)

    @pytest.mark.parametrize(
        "images, ok",
        [
            # rho conjugated by diag(K, 1): D = K and N = K (2K + 1)
            ([[[-1, 0], [2 * _K, 1]], [[1, Fraction(1, _K)], [0, -1]]], True),
            # a coefficient moved by 1: N = K (2K + 2)
            ([[[-1, 0], [2 * _K + 1, 1]], [[1, Fraction(1, _K)], [0, -1]]],
             False),
            # D = 1 and an l1 norm of 2^16381 - 1: N = 2^16381 by the + D
            ([[[-1, 0], [2**16381 - 1, 1]], [[1, 1], [0, -1]]], False),
        ],
        ids=["conjugated", "moved", "norm-plus-D"],
    )
    def test_packed_width_at_the_cap(self, monkeypatch, images, ok):
        # On B2 at weights (0, 0) each N has 16382 bits, so B = 4 * 16382 +
        # 3 * 2 + 2 = 2^16 at bond 4, and span 0 gives one digit: the width
        # is exactly laurent.MAX_PACKED_BITS. At the cap the check packs,
        # one bit below it it runs on LaurentPoly values, with one outcome.
        assert laurent.MAX_PACKED_BITS == 1 << 16
        datum = build_datum("b", 2, [0, 0])
        packed, rings = _checked_in(monkeypatch, datum, images)
        assert rings == {int}
        polys, rings = _checked_in(
            monkeypatch, datum, images, cap=laurent.MAX_PACKED_BITS - 1
        )
        assert rings == {LaurentPoly}
        assert packed == polys == _word_violations(datum, images)
        assert (packed == []) == ok

    @pytest.mark.parametrize("case", ["4000-digit coefficient", "weight 2^31 - 1"])
    def test_over_the_cap_nothing_is_packed(self, monkeypatch, case):
        if case == "weight 2^31 - 1":
            datum = build_datum("g2", 2, [2**31 - 1] * 2)
            images = reps._rho(datum, 1, "rho+").generator_images
        else:
            datum = build_datum("g2", 2, [3, 1])
            k = 10**4000
            images = _conjugated(
                builtin_g2_reps(datum)[2].generator_images,
                [[1, k], [0, 1]],
                [[1, -k], [0, 1]],
            )

        def no_packing(p, bits, *args):
            if bits is not None:
                raise AssertionError("packed")
            return p

        monkeypatch.setattr(reps, "_packed", no_packing)
        images = [[list(row) for row in m] for m in images]
        violations, rings = _checked_in(monkeypatch, datum, images)
        assert rings == {LaurentPoly}
        assert violations == []
        images[1][1][1] = images[1][1][1] + 1  # M_t's -1 becomes 0
        violations, rings = _checked_in(monkeypatch, datum, images)
        assert rings == {LaurentPoly}
        assert violations == _word_violations(datum, images)
        assert violations[0].startswith("quadratic relation fails for generator s2")

def _poincare(datum, sign):
    total = LaurentPoly.zero()
    for w in datum.elements():
        total = total + LaurentPoly.monomial(sign * datum.weight(w))
    return total


def _linear_sum(datum, steps):
    """The sum over w of u^k_w, where each letter s of a reduced word of w
    adds steps[s] to k_w, in LaurentPoly arithmetic."""
    total = LaurentPoly.zero()
    for w in datum.elements():
        k = sum(steps[s] for s in datum.reduced_word(w))
        total = total + LaurentPoly.monomial(k)
    return total


class TestOneDimSchurElements:
    """index and sign against sum of u^L(w) and of u^-L(w); each Schur
    element sums the pairs {w, w^-1} once and doubles them."""

    H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]

    def _check(self, datum):
        index, sign = one_dim_reps(datum)
        assert schur_element(index) == _poincare(datum, 1)
        assert schur_element(sign) == _poincare(datum, -1)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_type_a(self, rank):
        self._check(build_datum("a", rank, [1] * rank))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_type_b_seeded_weights(self, rank):
        rng = random.Random(1000 + rank)
        for _ in range(3):
            weights = (rng.randint(0, 5), rng.randint(0, 5))
            self._check(build_datum("b", rank, weights))

    def test_custom_h3(self):
        self._check(build_datum("custom", 3, [2, 2, 2], coxeter_matrix=self.H3))


def _q_integer(i, step=1):
    """[i] at u^step: 1 + u^step + ... + u^((i - 1) step)."""
    return LaurentPoly({k * step: 1 for k in range(i)})


def _product_of(factors):
    out = LaurentPoly.one()
    for f in factors:
        out = out * f
    return out


def _inverted(p):
    """p under u -> u^-1."""
    return LaurentPoly({-k: c for k, c in p.items()})


class TestOneDimSchurByDegrees:
    """The index Schur element is the Poincare polynomial, here built from
    the degrees of W rather than from its elements; the sign one is its
    image under u -> u^-1."""

    def _check(self, datum, index_want):
        index, sign = one_dim_reps(datum)
        assert schur_element(index) == index_want
        assert schur_element(sign) == _inverted(index_want)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
    def test_type_a(self, rank):
        datum = build_datum("a", rank, [1] * rank)
        self._check(datum, _product_of(_q_integer(i) for i in range(2, rank + 2)))

    @pytest.mark.parametrize(
        "rank, weights", [(2, (2, 1)), (3, (2, 1)), (3, (1, 3)), (4, (3, 2)), (3, (0, 2))]
    )
    def test_type_b(self, rank, weights):
        b, a = weights
        datum = build_datum("b", rank, weights)
        self._check(datum, _product_of(
            _q_integer(i + 1, a) * (1 + LaurentPoly.monomial(b + i * a))
            for i in range(rank)
        ))

    @pytest.mark.parametrize("weight", [1, 2])
    def test_custom_h3(self, weight):
        datum = build_datum("custom", 3, [weight] * 3, coxeter_matrix=H3_MATRIX)
        self._check(datum, _product_of(_q_integer(d, weight) for d in (2, 6, 10)))

    def test_zero_weights(self):
        # u^0 = 1 and -1 both add 0 to every exponent: |W| at u^0 for both
        datum = build_datum("a", 2, [0, 0])
        index, sign = one_dim_reps(datum)
        assert schur_element(index) == schur_element(sign) == LaurentPoly.constant(6)

    def test_mixed_b3_rep_keeps_the_tree_sum(self):
        b3 = build_datum("b", 3, [2, 1])
        rep = MatrixRep("long", b3, [[[LaurentPoly.monomial(2)]], [[-1]], [[-1]]])
        assert str(schur_element(rep)) == (
            "2*u^-3 + 6*u^-2 + 10*u^-1 + 12*u^0 + 10*u^1 + 6*u^2 + 2*u^3"
        )


F4_MATRIX = [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]


class TestLinearSchurBySignPattern:
    """Every 1 x 1 rep of a datum, one per sign pattern on its generator
    classes: the closed form over the class counts against the sum over w
    of u^(sum of +-L(s) along a reduced word of w)."""

    @staticmethod
    def _signs(datum):
        """Each choice of +1 (image u^L(s)) or -1 (image -1) per generator
        that agrees across every bond of odd order."""
        rank, m = datum.rank, datum.coxeter_matrix
        for signs in itertools.product((1, -1), repeat=rank):
            if all(
                signs[s] == signs[t]
                for s in range(rank)
                for t in range(rank)
                if m[s][t] % 2
            ):
                yield signs

    @pytest.mark.parametrize(
        "tag, rank, weights, matrix, patterns",
        [
            ("custom", 2, (1, 2), [[1, 2], [2, 1]], 4),
            ("custom", 3, (1, 1, 2), [[1, 3, 2], [3, 1, 2], [2, 2, 1]], 4),
            ("b", 2, (1, 1), None, 4),
            ("b", 2, (2, 1), None, 4),
            ("b", 2, (1, 3), None, 4),
            ("b", 3, (2, 1), None, 4),
            ("b", 3, (0, 2), None, 4),
            ("b", 3, (3, 1), None, 4),
            ("b", 4, (3, 2), None, 4),
            ("b", 4, (1, 1), None, 4),
            ("b", 5, (1, 2), None, 4),
            ("b", 5, (2, 1), None, 4),
            ("g2", 2, (1, 1), None, 4),
            ("g2", 2, (3, 1), None, 4),
            ("g2", 2, (1, 3), None, 4),
            ("custom", 2, (2, 5), [[1, 8], [8, 1]], 4),
            ("custom", 4, (2, 2, 1, 1), F4_MATRIX, 4),
            ("custom", 3, (1, 1, 1), H3_MATRIX, 2),
            ("custom", 3, (2, 2, 2), H3_MATRIX, 2),
        ],
        ids=[
            "A1xA1", "A2xA1", "B2(1,1)", "B2(2,1)", "B2(1,3)", "B3(2,1)",
            "B3(0,2)", "B3(3,1)", "B4(3,2)", "B4(1,1)", "B5(1,2)", "B5(2,1)",
            "G2(1,1)", "G2(3,1)", "G2(1,3)", "I2(8)(2,5)", "F4(2,2,1,1)",
            "H3(1)", "H3(2)",
        ],
    )
    def test_every_sign_pattern(self, tag, rank, weights, matrix, patterns):
        datum = build_datum(tag, rank, weights, coxeter_matrix=matrix)
        sign_patterns = list(self._signs(datum))
        assert len(sign_patterns) == patterns
        for signs in sign_patterns:
            images = [
                [[LaurentPoly.monomial(L) if sign > 0 else -1]]
                for sign, L in zip(signs, datum.weights)
            ]
            rep = MatrixRep("linear", datum, images)
            assert check_representation(rep).ok
            steps = [sign * L for sign, L in zip(signs, datum.weights)]
            assert schur_element(rep) == _linear_sum(datum, steps), signs


def _swept_schur(rep):
    """(1/d) sum over w of u^-L(w) trace(T_w) trace(T_(w^-1)), from the
    character sweep: the reference for every 2 x 2 Schur element."""
    datum = rep.datum
    traces = _character(rep)
    total = LaurentPoly.zero()
    for w in datum.elements():
        total = total + (
            LaurentPoly.monomial(-datum.weight(w))
            * traces[w.index]
            * traces[datum.inverse(w).index]
        )
    return total * Fraction(1, rep.dimension)


def _dihedral_cases():
    """(type, weights, alpha): A2 at (a, a) and alpha = -1, B2 at every
    (b, a) and alpha = 0, G2 at (b, a) with a + b even and alpha = +-1,
    for weights 0-7."""
    cases = [("a", (a, a), -1) for a in range(8)]
    for b, a in itertools.product(range(8), repeat=2):
        cases.append(("b", (b, a), 0))
        if (a + b) % 2 == 0:
            cases += [("g2", (b, a), 1), ("g2", (b, a), -1)]
    return cases


A1XA1_MATRIX = [[1, 2], [2, 1]]  # m = 2: every 2 x 2 rep is reducible

# Reducible 2 x 2 reps from the images (u^b, u^a) of the index rep, by shape
_REDUCIBLE = {
    # diag(u^b, -1), diag(u^a, -1)
    "ind+eps": lambda ub, ua: [[[ub, 0], [0, -1]], [[ua, 0], [0, -1]]],
    # the same conjugated to upper triangular: the index rep extended by the
    # sign rep
    "extension": lambda ub, ua: [[[ub, -ub - 1], [0, -1]], [[ua, -ua - 1], [0, -1]]],
    # diag(u^b, -1), diag(-1, u^a): tr(M_s M_t) = -u^b - u^a
    "eps1+eps2": lambda ub, ua: [[[ub, 0], [0, -1]], [[-1, 0], [0, ua]]],
    # tr M_s = 2u^b, not u^b - 1
    "ind+ind": lambda ub, ua: [[[ub, 0], [0, ub]], [[ua, 0], [0, ua]]],
    # M_s = u^b I again; at a = 0, tr(M_s M_t) = 0 as for the rho of B2
    "ind+eps1": lambda ub, ua: [[[ub, 0], [0, ub]], [[ua, 0], [0, -1]]],
}

_UNRECOGNISED = [
    ("b", (2, 1), None, "ind+eps"),
    ("g2", (3, 1), None, "ind+eps"),
    ("b", (0, 3), None, "ind+eps"),
    ("g2", (3, 1), None, "extension"),
    ("b", (2, 1), None, "extension"),
    ("g2", (3, 1), None, "eps1+eps2"),
    ("b", (1, 1), None, "eps1+eps2"),
    ("custom", (2, 1), A1XA1_MATRIX, "eps1+eps2"),
    ("custom", (2, 1), A1XA1_MATRIX, "extension"),
    ("g2", (3, 1), None, "ind+ind"),
    ("b", (2, 0), None, "ind+eps1"),
]


class TestDihedralSchurElements:
    """The 2 x 2 Schur elements of A2, B2 and G2 against the sum over the
    character sweep; reps that are not the dihedral rho_j reach the sweep
    and give what it gives."""

    def test_closed_form_equals_the_sweep(self):
        cases = _dihedral_cases()
        assert len(cases) == 136
        for tag, weights, alpha in cases:
            rep = reps._rho(build_datum(tag, 2, list(weights)), alpha, "rho")
            assert check_representation(rep).ok, (tag, weights, alpha)
            got = schur_element(rep)
            assert got == _swept_schur(rep), (tag, weights, alpha)
            assert got.has_integer_coefficients()

    def test_g2_rho_pm_need_no_sweep(self, monkeypatch, g2):
        rhos = [r for r in builtin_g2_reps(g2) if r.dimension == 2]
        want = [_swept_schur(rep) for rep in rhos]
        assert [str(c) for c in want] == [
            "2*u^-3 + 2*u^-2 + -2*u^0 + 2*u^2 + 2*u^3",
            "2*u^-3 + -2*u^-2 + 4*u^-1 + -2*u^0 + 4*u^1 + -2*u^2 + 2*u^3",
        ]
        checked = []
        check = reps.check_representation

        def no_sweep(rep):
            raise AssertionError("character swept")

        def counted(rep):
            checked.append(rep.name)
            return check(rep)

        monkeypatch.setattr(reps, "_character", no_sweep)
        monkeypatch.setattr(reps, "check_representation", counted)
        fresh = [r for r in builtin_g2_reps(g2) if r.dimension == 2]
        assert [schur_element(rep) for rep in fresh] == want
        assert checked == ["rho+", "rho-"]

    def test_conjugated_rhos_need_no_sweep(
        self, monkeypatch, g2, halved, dense_rhos
    ):
        # The closed form reads its three traces off any entries: a
        # Fraction (halved), and sums of several terms that cancel in the
        # trace of M_s M_t (dense_rhos).
        images = [rep.generator_images for rep in dense_rhos]
        assert all(len(list(entry.items())) >= 2 for m in images
                   for image in m for row in image for entry in row)
        assert halved[1].generator_images[0][1][0].coefficient(0) == Fraction(1, 2)
        conjugates = [halved[1], *dense_rhos]
        want = [_swept_schur(rep) for rep in conjugates]

        def no_sweep(rep):
            raise AssertionError("character swept")

        monkeypatch.setattr(reps, "_character", no_sweep)
        fresh = [MatrixRep(r.name, g2, r.generator_images) for r in conjugates]
        got = [schur_element(rep) for rep in fresh]
        assert _typed(got) == _typed(want)
        rho_plus, rho_minus = map(schur_element, builtin_g2_reps(g2)[2:4])
        assert got == [rho_plus, rho_plus, rho_minus]

    @pytest.mark.parametrize(
        "tag, weights, matrix, shape",
        _UNRECOGNISED,
        ids=[f"{tag}{weights}-{shape}" for tag, weights, _, shape in _UNRECOGNISED],
    )
    def test_unrecognised_reps_are_swept(
        self, monkeypatch, tag, weights, matrix, shape
    ):
        datum = build_datum(tag, 2, list(weights), coxeter_matrix=matrix)
        b, a = datum.weights
        rep = MatrixRep("reducible", datum, _REDUCIBLE[shape](U ** b, U ** a))
        assert check_representation(rep).ok
        want = _swept_schur(rep)
        sweeps = []
        sweep = reps._character

        def counted(rep):
            sweeps.append(rep.name)
            return sweep(rep)

        monkeypatch.setattr(reps, "_character", counted)
        if want.has_integer_coefficients():
            assert schur_element(rep) == want
        else:
            with pytest.raises(NonIntegralSchurElement):
                schur_element(rep)
        assert sweeps == ["reducible"]

    def test_rho_of_another_bond_order_is_refused_first(self):
        # B2's rho (alpha = 0) on G2 has the dihedral traces of I2(4), and
        # it fails the braid relation of order 6 before any Schur element.
        rep = reps._rho(build_datum("g2", 2, [3, 1]), 0, "rho")
        assert check_representation(rep).violations == [
            "braid relation of order 6 fails for generators s1, s2"
        ]
        with pytest.raises(NotARepresentation):
            schur_element(rep)


class TestSchurElements:
    def test_index_schur_is_poincare_polynomial(self, g2, g2_reps):
        poincare = LaurentPoly.zero()
        for w in g2.elements():
            poincare = poincare + LaurentPoly.monomial(g2.weight(w))
        assert schur_element(g2_reps[0]) == poincare
        assert poincare.coefficient(0) == 1
        assert poincare.coefficient(12) == 1

    def test_pinned_a_invariants_and_leading_coefficients(self, g2, g2_reps):
        rows = schur_table(g2, g2_reps)
        assert [(r["name"], r["aInvariant"], r["fLambda"]) for r in rows] == [
            ("ind", 0, 1),
            ("eps1", 1, 1),
            ("rho+", 3, 2),
            ("rho-", 3, 2),
            ("eps2", 7, 1),
            ("eps", 12, 1),
        ]

    def test_schur_valuations(self, g2_reps):
        by_name = {r.name: r for r in g2_reps}
        assert schur_element(by_name["ind"]).valuation() == 0
        assert schur_element(by_name["eps"]).valuation() == -12
        assert schur_element(by_name["rho+"]).valuation() == -3

    def test_group_algebra_specialization(self, g2, g2_reps):
        # At u = 1 the algebra is the group algebra, where the Schur
        # element of an irreducible is |W| / dim.
        for rep in g2_reps:
            c = schur_element(rep)
            assert c.evaluate(Fraction(1)) == Fraction(g2.size, rep.dimension)

    def test_integer_coefficients(self, g2, g2_reps):
        for rep in g2_reps:
            assert schur_element(rep).has_integer_coefficients()

    def test_trace_decomposition_of_tau(self, g2, g2_reps):
        # Cleared of denominators: (prod of all c) * tau(T_w) equals
        # sum over reps of (prod of the other c's) * trace(T_w).
        schurs = [schur_element(rep) for rep in g2_reps]
        total_product = LaurentPoly.one()
        for c in schurs:
            total_product = total_product * c
        cofactors = []
        for i in range(len(schurs)):
            prod = LaurentPoly.one()
            for j, c in enumerate(schurs):
                if j != i:
                    prod = prod * c
            cofactors.append(prod)
        for w in g2.elements():
            lhs = total_product * tau(t_basis(g2, w))
            rhs = LaurentPoly.zero()
            for rep, cof in zip(g2_reps, cofactors):
                rhs = rhs + cof * rep_trace(rep, w)
            assert lhs == rhs

    def test_dual_basis_orthogonality_all_pairs(self, g2, g2_reps):
        # sum over w of u^-L(w) tr(T_w, r1) tr(T_(w^-1), r2)
        # = dim * schur for r1 = r2, zero otherwise: 36 pairs.
        sums = {}
        for r1 in g2_reps:
            for r2 in g2_reps:
                total = LaurentPoly.zero()
                for w in g2.elements():
                    inv = g2.inverse(w)
                    total = total + (
                        LaurentPoly.monomial(-g2.weight(w))
                        * rep_trace(r1, w)
                        * rep_trace(r2, inv)
                    )
                sums[r1.name, r2.name] = total
        for r1 in g2_reps:
            for r2 in g2_reps:
                if r1.name == r2.name:
                    assert sums[r1.name, r2.name] == (
                        schur_element(r1) * r1.dimension
                    )
                else:
                    assert sums[r1.name, r2.name].is_zero()


class TestAInvariant:
    def test_examples(self):
        assert a_invariant(LaurentPoly({-3: 2, 0: 1})) == (3, 2)
        assert a_invariant(LaurentPoly.one()) == (0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            a_invariant(LaurentPoly.zero())

    def test_negative_a_rejected(self):
        with pytest.raises(NegativeAInvariant):
            a_invariant(LaurentPoly.monomial(2))

    def test_non_integer_leading_rejected(self):
        with pytest.raises(NonIntegralSchurElement):
            a_invariant(LaurentPoly({-1: Fraction(1, 2)}))


class TestSignAInvariantLaw:
    def test_a_of_sign_is_weight_of_longest_element(self):
        datums = [
            build_datum("g2", 2, [3, 1]),
            build_datum("b", 2, [1, 2]),
            build_datum("b", 3, [1, 2]),
            build_datum("b", 2, [3, 2]),
            build_datum("b", 3, [3, 2]),
            build_datum("a", 2, [1, 1]),
            build_datum("a", 3, [1, 1, 1]),
        ]
        for d in datums:
            _, sign = one_dim_reps(d)
            a, f = a_invariant(schur_element(sign))
            assert a == d.weight(d.longest_element())
            assert f == 1


class TestJsonExport:
    def test_shape(self, g2, g2_reps):
        data = schur_table_json_dict(g2, g2_reps)
        assert data["datum"]["type"] == "g2"
        assert len(data["reps"]) == 6
        row = data["reps"][2]
        assert set(row) == {"name", "dim", "schur", "aInvariant", "fLambda"}
        # rendered Schur element parses back bit-exactly
        assert str(LaurentPoly.parse(row["schur"])) == row["schur"]
