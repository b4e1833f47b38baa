"""Hecke algebra multiplication, the trace tau and its dual-basis law."""

import random
import re
from fractions import Fraction

import pytest

from heckebasis import hecke, laurent
from heckebasis.coxeter import build_datum
from heckebasis.hecke import (
    DatumMismatch,
    HeckeElement,
    generator_times_basis,
    t_basis,
    tau,
    tau_bilinear,
    unit,
    zero,
)
from heckebasis.laurent import LaurentPoly

U = LaurentPoly.monomial(1)


def g2():
    return build_datum("g2", 2, [3, 1])


def groups():
    # B2 (0, 1) has a weight-0 generator: T_s^2 = 1 and u^L(s) - 1 = 0
    return [
        g2(),
        build_datum("b", 2, [1, 1]),
        build_datum("a", 3, [1, 1, 1]),
        build_datum("b", 2, [0, 1]),
    ]


class TestBasics:
    def test_unit_is_neutral(self):
        d = g2()
        for w in d.elements():
            t = t_basis(d, w)
            assert unit(d) * t == t
            assert t * unit(d) == t

    def test_zero_coefficients_dropped(self):
        d = g2()
        h = HeckeElement(d, {d.identity: LaurentPoly.zero()})
        assert h.is_zero()
        assert h == zero(d)

    def test_scalars_on_either_side_and_negation(self):
        # *, rmul and - go through scale, whose monomial factors take the
        # shift path of LaurentPoly.__mul__ and the others the accumulator
        d = g2()
        elements = list(d.elements())
        h = HeckeElement(d, {
            elements[0]: U * U - Fraction(1, 2),
            elements[3]: LaurentPoly.monomial(-2, 3),
            elements[7]: LaurentPoly.constant(Fraction(2, 3)),
        })
        for c in (2, Fraction(3, 2), U, 2 * U - U**3, LaurentPoly.zero()):
            want = HeckeElement(d, {w: c * p for w, p in h.support()})
            assert h * c == c * h == h.scale(c) == want
            for _, p in (h * c).support():
                assert all((type(x) is int) == (x.denominator == 1)
                           for _, x in p.items())
        assert -h == h.scale(-1) == HeckeElement(
            d, {w: -p for w, p in h.support()}
        )
        assert (h + -h).is_zero() and (h - h).is_zero()
        with pytest.raises(TypeError):
            h * "x"
        with pytest.raises(TypeError):
            "x" * h

    def test_generator_times_basis_ascending(self):
        d = g2()
        alpha, beta = d.generators()
        t = generator_times_basis(d, 0, beta)
        assert t == t_basis(d, d.multiply(alpha, beta))

    def test_generator_times_basis_descending(self):
        # T_s * T_s = u^L(s) T_1 + (u^L(s) - 1) T_s
        d = g2()
        for s, weight in [(0, 3), (1, 1)]:
            g = d.generator(s)
            got = generator_times_basis(d, s, g)
            expect = HeckeElement(
                d,
                {
                    d.identity: LaurentPoly.monomial(weight),
                    g: LaurentPoly.monomial(weight) - 1,
                },
            )
            assert got == expect

    def test_quadratic_relation_all_generators(self):
        # (T_s - u^L(s)) (T_s + 1) = 0 in the algebra
        for d in groups():
            for s in range(d.rank):
                ts = t_basis(d, d.generator(s))
                lhs = ts - unit(d).scale(LaurentPoly.monomial(d.weights[s]))
                rhs = ts + unit(d)
                assert (lhs * rhs).is_zero()

    def test_length_additive_products(self):
        # T_x * T_y = T_xy whenever lengths add
        for d in groups():
            for x in d.elements():
                for y in d.elements():
                    xy = d.multiply(x, y)
                    if d.length(xy) == d.length(x) + d.length(y):
                        assert t_basis(d, x) * t_basis(d, y) == t_basis(d, xy)

    def test_support_and_coefficient_return_the_stored_polys(self, monkeypatch):
        # Each coefficient is stored as a LaurentPoly and handed out as it
        # is: two calls give the same objects, and no call builds one.
        d = g2()
        s1, s2 = d.generators()
        h = HeckeElement(d, {
            d.identity: U - 1, s1: LaurentPoly.constant(Fraction(1, 2))
        }) * (t_basis(d, s1) + t_basis(d, s2))
        absent = d.longest_element()
        assert len(h.support()) == 4 and not h.coefficient(absent)

        def built(*args):
            raise AssertionError("a LaurentPoly was built")

        with monkeypatch.context() as patch:
            patch.setattr(LaurentPoly, "__init__", built)
            patch.setattr(LaurentPoly, "_of", built)
            first, again = h.support(), h.support()
            coefficients = [h.coefficient(w) for w, _ in first]
            zeros = [h.coefficient(absent), h.coefficient(absent)]
        stored = [h._support[w.index] for w, _ in first]
        for (_, a), (_, b), c, poly in zip(first, again, coefficients, stored):
            assert a is b is c is poly
        assert zeros[0] is zeros[1] and zeros[0] == 0

    def test_datum_mismatch(self):
        d1, d2 = g2(), g2()
        with pytest.raises(DatumMismatch):
            unit(d1) + unit(d2)
        with pytest.raises(DatumMismatch):
            unit(d1) * unit(d2)
        x = d2.generator(0)
        with pytest.raises(
            DatumMismatch, match="^support element belongs to a different datum$"
        ):
            HeckeElement(d1, {x: 1})
        with pytest.raises(
            DatumMismatch, match="^element belongs to a different datum$"
        ):
            unit(d1).coefficient(x)


class TestAssociativity:
    def test_associativity_random_triples(self):
        rng = random.Random(41)
        for d in groups():
            elements = d.elements()
            for _ in range(170):
                x, y, z = (rng.choice(elements) for _ in range(3))
                tx, ty, tz = (t_basis(d, w) for w in (x, y, z))
                assert (tx * ty) * tz == tx * (ty * tz)

    def test_associativity_with_coefficients(self):
        d = g2()
        rng = random.Random(42)
        elements = d.elements()

        def random_element():
            data = {}
            for _ in range(rng.randrange(1, 4)):
                w = rng.choice(elements)
                data[w] = LaurentPoly.monomial(
                    rng.randrange(-2, 3), rng.randrange(-3, 4)
                )
            return HeckeElement(d, data)

        for _ in range(60):
            a, b, c = random_element(), random_element(), random_element()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def folded_product(d, x, y):
    """x * y term by term: T_w * T_v is T_v with generator_times_basis
    applied along the reduced word of w, right to left."""
    total = zero(d)
    for w, a in x.support():
        for v, b in y.support():
            h = t_basis(d, v)
            for s in reversed(d.reduced_word(w)):
                step = zero(d)
                for g, p in h.support():
                    step = step + generator_times_basis(d, s, g).scale(p)
                h = step
            total = total + h.scale(a * b)
    return total


class TestProductAgainstFold:
    def test_seeded_products_b3_h3(self):
        # Mixed int and Fraction coefficients on B3 (2, 1) and custom H3.
        rng = random.Random(2006)
        datums = [
            build_datum("b", 3, [2, 1]),
            build_datum(
                "custom", 3, [1, 1, 1],
                coxeter_matrix=[[1, 5, 2], [5, 1, 3], [2, 3, 1]],
            ),
        ]

        def coefficient():
            c = rng.choice([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)])
            return LaurentPoly.monomial(rng.randrange(-2, 3), c) + rng.randrange(-1, 2)

        for d in datums:
            elements = d.elements()
            for _ in range(12):
                x, y = (
                    HeckeElement(
                        d,
                        {rng.choice(elements): coefficient()
                         for _ in range(rng.randrange(1, 7))},
                    )
                    for _ in range(2)
                )
                assert x * y == folded_product(d, x, y)


def reference_times_generator(d, s, h):
    """T_s * h for h a {GroupElement: LaurentPoly} dict, by the defining
    relations, from the datum's public length, left_multiply_generator and
    weights only."""
    q = LaurentPoly.monomial(d.weights[s])
    out = {}

    def add(w, p):
        out[w] = out.get(w, LaurentPoly.zero()) + p

    for w, p in h.items():
        sw = d.left_multiply_generator(s, w)
        if d.length(sw) > d.length(w):
            add(sw, p)
        else:
            add(sw, q * p)
            add(w, (q - 1) * p)
    return {w: p for w, p in out.items() if p}


def reference_product(d, x, y):
    """x * y as a {GroupElement: LaurentPoly} dict, independent of the
    module's kernel: T_w = T_s * T_(sw) for any s with length(sw) <
    length(w), so T_w * T_v is T_v with such generators applied in turn."""
    total = {}
    for w, a in x.support():
        word = []
        while d.length(w):
            s = next(
                s for s in range(d.rank)
                if d.length(d.left_multiply_generator(s, w)) < d.length(w)
            )
            word.append(s)
            w = d.left_multiply_generator(s, w)
        for v, b in y.support():
            h = {v: a * b}
            for s in reversed(word):
                h = reference_times_generator(d, s, h)
            for g, p in h.items():
                total[g] = total.get(g, LaurentPoly.zero()) + p
    return {g: p for g, p in total.items() if p}


def assert_canonical(h):
    """Each stored coefficient is a nonzero LaurentPoly whose term map
    holds no zero and no integral Fraction."""
    for poly in h._support.values():
        assert type(poly) is LaurentPoly and poly._terms
        for c in poly._terms.values():
            assert c != 0
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_product(d, x, y):
    """x * y, checked against reference_product and for canonical form."""
    p = x * y
    assert dict(p.support()) == reference_product(d, x, y)
    assert_canonical(p)
    return p


@pytest.fixture
def rings(monkeypatch):
    """The type of the zero of the ring each product runs in: int for
    coefficients packed at u = 2^B, LaurentPoly beyond the width limit."""
    used = []
    chain = hecke._chain

    def spy(datum, x, y, lift, zero):
        used.append(type(zero))
        return chain(datum, x, y, lift, zero)

    monkeypatch.setattr(hecke, "_chain", spy)
    return used


def seeded_operands():
    """Eight pairs (d, x, y) per datum, with mixed int and Fraction
    coefficients, on G2 (3, 1), B3 (2, 1), A4, custom H3 and B2 (0, 1),
    whose weight-0 generator has T_s^2 = 1."""
    rng = random.Random(2026)
    datums = [
        g2(),
        build_datum("b", 3, [2, 1]),
        build_datum("a", 4, [1] * 4),
        build_datum(
            "custom", 3, [1, 1, 1],
            coxeter_matrix=[[1, 5, 2], [5, 1, 3], [2, 3, 1]],
        ),
        build_datum("b", 2, [0, 1]),
    ]

    def coefficient():
        c = rng.choice([-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
        return LaurentPoly.monomial(rng.randrange(-2, 3), c) + rng.choice(
            [0, 1, Fraction(3, 2)]
        )

    for d in datums:
        elements = d.elements()
        for _ in range(8):
            x, y = (
                HeckeElement(
                    d,
                    {rng.choice(elements): coefficient()
                     for _ in range(rng.randrange(1, 6))},
                )
                for _ in range(2)
            )
            yield d, x, y


class TestProductAgainstReference:
    def test_seeded_products(self, rings):
        for d, x, y in seeded_operands():
            assert_product(d, x, y)
        assert rings == [int] * 40

    def test_seeded_products_alike_in_both_rings(self, rings, monkeypatch):
        # the one body of the product, packed and on LaurentPoly values
        # (a cap of 0 packs nothing), gives the same text for each pair
        packed = [str(x * y) for _, x, y in seeded_operands()]
        assert rings == [int] * 40
        monkeypatch.setattr(laurent, "MAX_PACKED_BITS", 0)
        polys = [str(assert_product(d, x, y)) for d, x, y in seeded_operands()]
        assert rings == [int] * 40 + [LaurentPoly] * 40
        assert polys == packed

    def test_packed_coefficients_beyond_machine_words(self, rings):
        rng = random.Random(2028)
        d = build_datum("b", 3, [2, 1])
        elements = d.elements()
        big = 2**70 - 1

        def element(scalars):
            return HeckeElement(d, {
                rng.choice(elements): LaurentPoly.monomial(
                    rng.randrange(-2, 3), rng.choice(scalars)
                ) + rng.choice(scalars)
                for _ in range(5)
            })

        for _ in range(4):
            p = assert_product(d, element([big, -big, 3]), element([-1, big]))
            assert max(
                abs(c) for _, poly in p.support() for _, c in poly.items()
            ) > 2**64
        # digits at the l1 bound itself, next to digits of either sign
        edge = HeckeElement(d, {
            d.identity: LaurentPoly({0: big, 1: -big, 2: big}),
            d.longest_element(): LaurentPoly({-1: -big, 0: -big}),
        })
        assert unit(d) * edge == edge
        assert edge * unit(d) == edge
        assert rings == [int] * 6

    def test_empty_operands(self, rings):
        d = build_datum("b", 3, [2, 1])
        x = HeckeElement(d, {d.generator(1): U - 1})
        for a, b in ((zero(d), x), (x, zero(d)), (zero(d), zero(d))):
            p = a * b
            assert p._support == {} and p.is_zero()
            assert reference_product(d, a, b) == {}
        assert rings == []

    def test_wide_products_run_on_laurent_polys(self, rings):
        # The width of a packed coefficient picks the ring: exponents are
        # offset by the lowest one, so a lone u^(10^12) packs, but
        # 1 + u^(10^12) would need 10^12 digits, and any product on G2
        # with weights (2^31 - 1, 1) over 6 * 10^9, since L(w0) = 3 * 2^31.
        d = g2()
        s1, s2 = d.generators()
        far = LaurentPoly.monomial(10**12)
        y = HeckeElement(d, {s1: 1, s2: U - 2, d.identity: Fraction(1, 3)})
        assert_product(d, HeckeElement(d, {s1: far}), y)
        assert_product(d, HeckeElement(d, {s1: far + 1}), y)
        assert_product(d, y, HeckeElement(d, {d.multiply(s2, s1): far - U}))
        heavy = build_datum("g2", 2, [2**31 - 1, 1])
        a, b = heavy.generators()
        z = HeckeElement(heavy, {a: 2, b: -1, heavy.identity: Fraction(1, 2)})
        assert_product(
            heavy, HeckeElement(heavy, {a: 1, heavy.multiply(b, a): U}), z
        )
        assert_product(heavy, HeckeElement(heavy, {b: 3}), z)
        assert rings == [int] + [LaurentPoly] * 4

    def test_integral_fraction_products_store_ints(self):
        # (1/2) T_s * 2 T_s = T_s^2, whose coefficients are integers
        d = g2()
        ts = d.generator(0)
        x = HeckeElement(d, {ts: Fraction(1, 2)})
        y = HeckeElement(d, {ts: 2})
        p = x * y
        assert p == t_basis(d, ts) * t_basis(d, ts)
        assert {i: poly._terms for i, poly in p._support.items()} == {
            0: {3: 1}, ts.index: {0: -1, 3: 1}
        }
        for _, poly in p.support():
            assert all(type(c) is int for _, c in poly.items())
        assert_canonical(p)
        # x / 6 times 6 y is x * y; x (2/3) times y (3/4) halves it
        rng = random.Random(2029)
        d = build_datum("a", 4, [1] * 4)
        elements = d.elements()

        def element():
            return HeckeElement(d, {
                rng.choice(elements): LaurentPoly.monomial(
                    rng.randrange(-2, 3), rng.choice([-3, -1, 1, 2])
                )
                for _ in range(6)
            })

        for _ in range(4):
            x, y = element(), element()
            p = assert_product(d, x.scale(Fraction(1, 6)), y.scale(6))
            assert p == x * y
            for _, poly in p.support():
                assert all(type(c) is int for _, c in poly.items())
            half = assert_product(
                d, x.scale(Fraction(2, 3)), y.scale(Fraction(3, 4))
            )
            assert half == p.scale(Fraction(1, 2))

    def test_quadratic_relation_leaves_empty_support(self):
        for d in groups():
            for s in range(d.rank):
                ts = t_basis(d, d.generator(s))
                q = LaurentPoly.monomial(d.weights[s])
                p = (ts - unit(d).scale(q)) * (ts + unit(d))
                assert p.support() == [] and p._support == {}

    def test_equal_elements_hash_equal(self):
        rng = random.Random(2027)
        d = build_datum("b", 3, [2, 1])
        elements = d.elements()
        for _ in range(20):
            x, y = (
                HeckeElement(
                    d,
                    {rng.choice(elements): LaurentPoly.monomial(
                        rng.randrange(-2, 3), rng.choice([-1, 2, Fraction(1, 3)]))
                     for _ in range(3)},
                )
                for _ in range(2)
            )
            p = x * y
            rebuilt = HeckeElement(d, dict(p.support()))
            assert rebuilt == p and hash(rebuilt) == hash(p)
            parsed = HeckeElement.parse(d, str(p))
            assert parsed == p and hash(parsed) == hash(p)


class TestTau:
    def test_tau_of_basis(self):
        d = g2()
        assert tau(unit(d)) == LaurentPoly.one()
        for w in d.elements():
            if w != d.identity:
                assert tau(t_basis(d, w)).is_zero()

    def test_dual_basis_law_exhaustive(self):
        # tau(T_w * T_w') = u^L(w) iff w' = w^-1, else 0;
        # exhaustive over G2(3,1), B2(1,1), A3(1,1,1) and B3(1,1).
        datums = groups() + [build_datum("b", 3, [1, 1])]
        for d in datums:
            for w1 in d.elements():
                inv = d.inverse(w1)
                expect = LaurentPoly.monomial(d.weight(w1))
                for w2 in d.elements():
                    value = tau_bilinear(d, w1, w2)
                    if w2 == inv:
                        assert value == expect
                    else:
                        assert value.is_zero()

    def test_tau_symmetric(self):
        d = g2()
        rng = random.Random(43)
        elements = d.elements()
        for _ in range(80):
            x, y = rng.choice(elements), rng.choice(elements)
            assert tau_bilinear(d, x, y) == tau_bilinear(d, y, x)


class TestText:
    def test_render_deterministic_order(self):
        d = g2()
        a, b = d.generators()
        h = t_basis(d, b) + t_basis(d, a) + unit(d)
        assert str(h) == "(1*u^0) * T[e] + (1*u^0) * T[s1] + (1*u^0) * T[s2]"

    def test_render_parse_round_trip(self):
        d = g2()
        rng = random.Random(44)
        elements = d.elements()
        for _ in range(100):
            data = {}
            for _ in range(rng.randrange(4)):
                data[rng.choice(elements)] = LaurentPoly.monomial(
                    rng.randrange(-3, 4), rng.randrange(-5, 6)
                )
            h = HeckeElement(d, data)
            assert HeckeElement.parse(d, str(h)) == h

    def test_parse_rejects_garbage(self):
        d = g2()
        with pytest.raises(ValueError):
            HeckeElement.parse(d, "T[s1]")
        with pytest.raises(ValueError):
            HeckeElement.parse(d, "(1*u^0) * T[s1] + junk")

    @pytest.mark.parametrize(
        "text",
        [
            "(1*u^0) * T[e] (2*u^1) * T[s1]",  # no separator
            "(1*u^0) * T[e] +++ (2*u^1) * T[s1]",
            "(1*u^0) * T[e] + + (2*u^1) * T[s1]",
            "+ (1*u^0) * T[e]",  # leading +
            "(1*u^0) * T[e] +",  # trailing +
            "(1*u^0) * T[e] + ",
            "",
        ],
    )
    def test_parse_requires_one_plus_between_terms(self, text):
        with pytest.raises(ValueError):
            HeckeElement.parse(g2(), text)

    @pytest.mark.parametrize(
        "word, token",
        [
            ("s1s2", "s1s2"),
            ("s", "s"),
            ("s+1", "s+1"),
            ("s 1", "s 1"),
            ("s\uff11", "s\uff11"),  # a full-width digit
            ("s0", "s0"),
            ("s01", "s01"),
            ("s1.", ""),
            ("e.s1", "e"),
            ("s1.t2", "t2"),
            ("s3", "s3"),
            pytest.param("s" + "9" * 5000, "s" + "9" * 5000, id="s9x5000"),
        ],
    )
    def test_parse_names_a_bad_generator_token(self, word, token):
        text = f"(1*u^0) * T[e] + (1*u^1) * T[{word}]"
        with pytest.raises(ValueError, match=re.escape(repr(token))) as info:
            HeckeElement.parse(g2(), text)
        assert str(info.value).endswith("expected s1 to s2")

    def test_parse_accepts_optional_whitespace_and_unreduced_words(self):
        d = g2()
        canonical = "(1*u^0) * T[e] + (2*u^1) * T[s1]"
        for text in (
            canonical,
            "(1*u^0)*T[e]+(2*u^1)*T[s1]",
            "  (1*u^0) *  T[e]   +\t(2*u^1) * T[s1]  ",
            "(1*u^0) * T[s1.s1] + (2*u^1) * T[s1.s2.s2]",
        ):
            assert str(HeckeElement.parse(d, text)) == canonical
        with pytest.raises(ValueError, match="duplicate"):
            HeckeElement.parse(d, "(1*u^0) * T[e] + (1*u^0) * T[s2.s2]")
