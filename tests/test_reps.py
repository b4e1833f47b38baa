"""Matrix representations, characters, Schur elements, a-invariants.

The six G2(3,1) representations and their invariants are pinned
exactly; structural identities (trace decomposition of tau, dual-basis
orthogonality, the group-algebra specialization at u = 1) serve as
independent oracles for the Schur machinery.
"""

import random
from fractions import Fraction

import pytest

from heckebasis.coxeter import UnsupportedType, build_datum
from heckebasis.hecke import t_basis, tau
from heckebasis.laurent import LaurentPoly, ZeroPolynomial
from heckebasis.reps import (
    MatrixRep,
    NegativeAInvariant,
    NonIntegralSchurElement,
    NotARepresentation,
    RepCheck,
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


def _conjugated(images, p, p_inv):
    """p_inv * m * p for each generator image m, in LaurentPoly arithmetic."""

    def mul(a, b):
        n = len(a)
        return [
            [sum((a[i][k] * b[k][j] for k in range(n)), LaurentPoly.zero())
             for j in range(n)]
            for i in range(n)
        ]

    def lift(m):
        return [[LaurentPoly.constant(x) for x in row] for row in m]

    return [mul(mul(lift(p_inv), m), lift(p)) for m in images]


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


class TestCharacterSweep:
    """The kernel's layer sweep against the product along a reduced word,
    which rep_trace computes whether or not a sweep has run."""

    def _check(self, datum, rep):
        direct = [_trace(rep_matrix(rep, w)) for w in datum.elements()]
        by_word = [rep_trace(rep, w) for w in datum.elements()]
        swept = _character(rep)
        assert [LaurentPoly(c) for c in swept] == direct == by_word
        assert [rep_trace(rep, w) for w in datum.elements()] == direct
        return direct

    def test_builtin_g2_reps(self, g2):
        for rep in builtin_g2_reps(g2):
            self._check(g2, rep)

    def test_dense_rep(self, g2, dense_rep):
        assert check_representation(dense_rep).ok
        images = dense_rep.generator_images
        for m in images:
            for j in range(3):
                column = [m[k][j] for k in range(3) if m[k][j]]
                assert len(column) >= 2
        assert sum(len(m[k][j]._terms) > 1 for m in images
                   for k in range(3) for j in range(3)) >= 4
        direct = self._check(g2, dense_rep)
        by_name = {r.name: r for r in builtin_g2_reps(g2)}
        for w, trace in zip(g2.elements(), direct):
            assert trace == (
                rep_trace(by_name["rho+"], w) + rep_trace(by_name["eps"], w)
            )


    H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]

    def _check_linear(self, datum, rep):
        """A 1 x 1 rep: the closed-form Schur element against the sum over
        w of u^-L(w) trace(T_w) trace(T_(w^-1)), both from the traces along
        reduced words; then the swept character itself."""
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
        assert [rep_trace(rep, w) for w in elements] == by_word
        assert [LaurentPoly(c) for c in _character(rep)] == by_word

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
    @pytest.mark.parametrize("image", [U + 1, LaurentPoly.zero()], ids=["u+1", "0"])
    @pytest.mark.parametrize("entry", ["schur_element", "_character", "rep_trace"])
    def test_non_monomial_1x1_image_is_not_a_representation(self, g2, image, entry):
        rep = MatrixRep("bad", g2, [[[image]], [[U]]])
        call = {
            "schur_element": lambda: schur_element(rep),
            "_character": lambda: _character(rep),
            "rep_trace": lambda: rep_trace(rep, g2.identity),
        }[entry]
        with pytest.raises(NotARepresentation):
            call()

    @pytest.mark.parametrize(
        "image",
        [U + 1, 2 * LaurentPoly.monomial(3), U * U],
        ids=["u+1", "2u^3", "u^2"],
    )
    def test_closed_form_checks_each_image(self, g2, image):
        # Even with the relation check bypassed, the closed form refuses a
        # 1 x 1 image of s1 that is neither u^L(s1) = u^3 nor -1.
        rep = MatrixRep("bad", g2, [[[image]], [[U]]])
        rep._check = RepCheck([])
        with pytest.raises(NotARepresentation, match=r"of s1 is neither u\^3 nor -1"):
            schur_element(rep)

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

    def test_dimension_zero_refused(self, g2):
        with pytest.raises(ValueError, match="dimension at least 1"):
            MatrixRep("z", g2, [[], []])


class TestRationalEntries:
    """rho+ conjugated by diag(2, 1): the same representation, with a
    Fraction in a generator image and in most products."""

    @pytest.fixture
    def halved(self, g2):
        rho = builtin_g2_reps(g2)[2]
        d, d_inv = [[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]]
        return rho, MatrixRep(
            "halved", g2, _conjugated(rho.generator_images, d_inv, d)
        )

    def test_same_representation(self, g2, halved):
        rho, rep = halved
        assert rep.generator_images[0][1][0] == (U * U + U + 1) * Fraction(1, 2)
        assert rep.generator_images[1][0][1] == 2 * U
        assert check_representation(rep).ok

        def typed(terms):  # equal maps with the same coefficient types
            return sorted((k, type(c), c) for k, c in terms.items())

        assert [typed(t) for t in _character(rep)] == [
            typed(t) for t in _character(rho)
        ]
        assert typed(schur_element(rep)._terms) == typed(schur_element(rho)._terms)

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


def _poincare(datum, sign):
    total = LaurentPoly.zero()
    for w in datum.elements():
        total = total + LaurentPoly.monomial(sign * datum.weight(w))
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
