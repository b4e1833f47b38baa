"""Exact-arithmetic core: Laurent polynomials, cyclotomic integers,
specializations. Random sweeps are seeded, so every run checks the
same inputs.
"""

import math
import operator
import random
import re
import time
from fractions import Fraction

import pytest

import heckebasis.coxeter as coxeter
import heckebasis.laurent as laurent
from heckebasis.cli import main
from heckebasis.laurent import (
    CyclotomicCheckFailed,
    CyclotomicInt,
    LaurentPoly,
    NonIntegerCoefficients,
    PrimeDividesQ,
    ZeroPolynomial,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    specialize_cyclotomic,
    specialize_mod_prime,
)


def random_poly(rng, max_terms=4, exp_range=6, denom=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = rng.randrange(-exp_range, exp_range + 1)
        terms[exp] = Fraction(rng.randrange(-9, 10), rng.randrange(1, denom + 1))
    return LaurentPoly(terms)


def random_mixed_terms(rng, max_terms=5, exp_range=6):
    """A term map mixing ints, integral Fractions and proper Fractions."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = rng.randrange(-exp_range, exp_range + 1)
        kind = rng.randrange(3)
        if kind == 0:
            terms[exp] = rng.randrange(-9, 10)
        elif kind == 1:
            d = rng.randrange(1, 5)
            terms[exp] = Fraction(rng.randrange(-9, 10) * d, d)
        else:
            terms[exp] = Fraction(rng.randrange(-9, 10), rng.randrange(2, 6))
    return terms


def assert_canonical(p):
    for exp, c in p.items():
        assert c != 0
        assert (type(c) is int) == (Fraction(c).denominator == 1), (exp, c)


class TestMixedStorage:
    """Integral coefficients are stored as int, the others as Fraction,
    with no visible difference from an all-Fraction polynomial."""

    def test_integral_fraction_stored_as_int(self):
        p = LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 2), 2: 3})
        assert [(k, type(c)) for k, c in p.items()] == [
            (0, int), (1, Fraction), (2, int),
        ]
        assert p.coefficient(0) == 2 and type(p.coefficient(0)) is int
        half = LaurentPoly({0: Fraction(1, 2)})
        assert type(dict((half + half).items())[0]) is int
        assert type(dict((half * 4).items())[0]) is int
        assert type(dict(((half - 1) * (half - 1) * 4).items())[0]) is int

    def test_ring_laws_on_mixed_polynomials(self):
        rng = random.Random(3141)
        for _ in range(600):
            p, q, r = (LaurentPoly(random_mixed_terms(rng)) for _ in range(3))
            for value in (p + q, p - q, p * q, -p, p * q * r, (p + q) * r):
                assert_canonical(value)
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + q == q + p
            assert p * q == q * p
            assert p - q == p + (-q)
            assert p - p == LaurentPoly.zero()

    def test_text_equality_and_hash_match_fraction_twin(self):
        rng = random.Random(2718)
        for _ in range(400):
            terms = random_mixed_terms(rng)
            p = LaurentPoly(terms)
            twin = LaurentPoly({k: Fraction(c) for k, c in terms.items()})
            as_fractions = sorted(
                (k, Fraction(c)) for k, c in terms.items() if c
            )
            assert p == twin
            if all(k == 0 for k, _ in as_fractions):  # a constant or zero
                want = hash(dict(as_fractions).get(0, 0))
            else:
                want = hash(tuple(as_fractions))
            assert hash(p) == hash(twin) == want
            assert str(p) == str(twin)
            expected = " + ".join(f"{c}*u^{k}" for k, c in as_fractions)
            assert str(p) == (expected or "0")
            assert LaurentPoly.parse(str(p)) == p
            assert_canonical(LaurentPoly.parse(str(p)))


    @pytest.mark.parametrize("c", [3, Fraction(-2, 3), 0], ids=repr)
    def test_a_constant_hashes_as_its_scalar(self, c):
        # A constant equals its scalar, so sets and dicts find either by
        # the other; equality itself is unchanged.
        p = LaurentPoly.constant(c)
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c}
        assert {p: "a"}[c] == "a" and {c: "b"}[p] == "b"
        assert str(p) == ("0" if c == 0 else f"{c}*u^0")


class TestLaurentPoly:
    def test_canonical_form_drops_zeros(self):
        p = LaurentPoly({3: 0, 1: 2, -2: Fraction(0)})
        assert dict(p.items()) == {1: Fraction(2)}
        assert LaurentPoly({0: 1}) - 1 == LaurentPoly.zero()

    def test_an_all_int_map_is_copied_and_any_other_checked(self):
        terms = {-1: 3, 2: -5}
        p = LaurentPoly(terms)
        terms[2], terms[7] = 0, 1
        assert list(p.items()) == [(-1, 3), (2, -5)]
        # a zero, a Fraction or a bool, also after an int entry, is checked
        assert list(LaurentPoly({0: 1, 1: 0}).items()) == [(0, 1)]
        (term,) = LaurentPoly({1: Fraction(4, 2)}).items()
        assert type(term[1]) is int
        with pytest.raises(TypeError, match="coefficient True is not"):
            LaurentPoly({0: 1, 1: True})
        with pytest.raises(TypeError, match="exponent True is not"):
            LaurentPoly({0: 1, True: 1})

    def test_summed_against_the_constructor_on_summed_maps(self):
        # seeded pairs that repeat exponents, with sums that cancel to
        # zero and Fractions that sum to integers, against LaurentPoly of
        # the map summed here
        rng = random.Random(36)
        scalars = [-2, -1, 1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
        for _ in range(400):
            pairs = [
                (rng.randrange(-3, 4), rng.choice(scalars))
                for _ in range(rng.randrange(10))
            ]
            for exp, c in rng.sample(pairs, len(pairs) // 2):
                pairs.append((exp, -c))  # cancels that pair's share
            rng.shuffle(pairs)
            want: dict = {}
            for exp, c in pairs:
                want[exp] = want.get(exp, 0) + c
            got = LaurentPoly.summed(iter(pairs))
            assert got == LaurentPoly(want)
            assert_canonical(got)
            assert str(got) == str(LaurentPoly(want))
        assert LaurentPoly.summed([(2, 3), (2, -3)]).is_zero()
        assert LaurentPoly.summed([]) == LaurentPoly.zero()
        half = Fraction(1, 2)
        (term,) = LaurentPoly.summed([(1, half), (0, 0), (1, half)]).items()
        assert term == (1, 1) and type(term[1]) is int

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1"], ids=repr)
    def test_summed_refuses_what_the_constructor_refuses(self, bad):
        # each pair is checked as it is added, also after a good one
        for pairs, message in (
            ([(5, 1), (bad, 1)], f"exponent {bad!r} is not an int"),
            ([(5, 1), (1, bad)], f"coefficient {bad!r} is not an int or Fraction"),
            ([(bad, bad)], f"exponent {bad!r} is not an int"),
        ):
            for build in (LaurentPoly.summed, lambda p: LaurentPoly(dict(p))):
                with pytest.raises(TypeError) as info:
                    build(pairs)
                assert str(info.value) == message

    @pytest.mark.parametrize("c", [0.1, 2.0, "1", True], ids=repr)
    def test_non_exact_coefficients_rejected(self, c):
        with pytest.raises(TypeError):
            LaurentPoly({0: c})

    @pytest.mark.parametrize(
        "exp", [2.7, True, "3", Fraction(5, 2)], ids=repr
    )
    def test_non_int_exponents_rejected(self, exp):
        with pytest.raises(TypeError, match="exponent"):
            LaurentPoly({exp: 1})

    @pytest.mark.parametrize("exp", [-3, 0, 5])
    @pytest.mark.parametrize("zero", [0, Fraction(0)], ids=repr)
    def test_monomial_of_a_zero_coefficient_is_zero(self, exp, zero):
        p = LaurentPoly.monomial(exp, zero)
        assert p.is_zero() and not p and p == LaurentPoly.zero()
        assert str(p) == "0" and hash(p) == hash(0)
        assert LaurentPoly.constant(zero).is_zero()

    def test_monomial_and_constant_store_canonical_coefficients(self):
        assert list(LaurentPoly.monomial(-2).items()) == [(-2, 1)]
        (term,) = LaurentPoly.monomial(4, Fraction(6, 3)).items()
        assert term == (4, 2) and type(term[1]) is int
        (term,) = LaurentPoly.constant(Fraction(-1, 2)).items()
        assert term == (0, Fraction(-1, 2))

    @pytest.mark.parametrize(
        "exp, coeff, message",
        [
            (True, 1, "exponent True is not an int"),
            (False, 0, "exponent False is not an int"),
            (2.0, 1, "exponent 2.0 is not an int"),
            ("2", 1, "exponent '2' is not an int"),
            (2, True, "coefficient True is not an int or Fraction"),
            (2, False, "coefficient False is not an int or Fraction"),
            (2, 1.0, "coefficient 1.0 is not an int or Fraction"),
            (2, "1", "coefficient '1' is not an int or Fraction"),
        ],
        ids=repr,
    )
    def test_monomial_refuses_what_the_constructor_refuses(
        self, exp, coeff, message
    ):
        for build in (LaurentPoly.monomial, lambda e, c: LaurentPoly({e: c})):
            with pytest.raises(TypeError) as info:
                build(exp, coeff)
            assert str(info.value) == message
        if type(exp) is int:
            with pytest.raises(TypeError) as info:
                LaurentPoly.constant(coeff)
            assert str(info.value) == message

    def test_bool_is_not_a_scalar_operand(self):
        # the constructor refuses bool coefficients, so the operators
        # decline a bool: comparison falls back to identity, and
        # arithmetic raises Python's own unsupported-operand TypeError
        one = LaurentPoly.one()
        assert (one == True) is False  # noqa: E712
        assert (True == one) is False  # noqa: E712
        assert (one != True) is True  # noqa: E712
        assert one not in [True]
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(one, True)
            with pytest.raises(TypeError, match="unsupported operand"):
                op(True, one)
        assert one == 1 and 1 + one == LaurentPoly.constant(2)

    def test_zero_behaviour(self):
        z = LaurentPoly.zero()
        assert z.is_zero()
        assert not z
        with pytest.raises(ZeroPolynomial):
            z.valuation()
        with pytest.raises(ZeroPolynomial):
            z.leading_coefficient_at_valuation()

    def test_valuation_and_leading(self):
        p = LaurentPoly({-3: Fraction(5, 2), 0: 1, 4: -1})
        assert p.valuation() == -3
        assert p.degree() == 4
        assert p.leading_coefficient_at_valuation() == Fraction(5, 2)

    def test_mul_adds_valuations(self):
        rng = random.Random(7)
        for _ in range(200):
            p, q = random_poly(rng), random_poly(rng)
            if p.is_zero() or q.is_zero():
                assert (p * q).is_zero()
            else:
                assert (p * q).valuation() == p.valuation() + q.valuation()

    def test_ring_axioms_on_random_triples(self):
        # Associativity, commutativity and distributivity, exactly,
        # on at least 1000 random triples.
        rng = random.Random(2024)
        for _ in range(1000):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + q == q + p
            assert p * q == q * p
            assert p * LaurentPoly.one() == p
            assert p + LaurentPoly.zero() == p
            assert p - p == LaurentPoly.zero()

    def test_pow(self):
        u = LaurentPoly.monomial(1)
        assert (u + 1) ** 0 == LaurentPoly.one()
        assert (u + 1) ** 2 == u * u + 2 * u + 1
        assert LaurentPoly.monomial(-1) ** 3 == LaurentPoly.monomial(-3)

    def test_render_parse_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            p = random_poly(rng, max_terms=6, exp_range=9, denom=7)
            assert LaurentPoly.parse(str(p)) == p

    def test_render_format(self):
        p = LaurentPoly({1: 1, -2: Fraction(-3, 2)})
        assert str(p) == "-3/2*u^-2 + 1*u^1"
        assert str(LaurentPoly.zero()) == "0"
        assert LaurentPoly.parse("0") == LaurentPoly.zero()

    def test_parse_rejects_garbage(self):
        for bad in ["u^2", "1*u^", "1*u^2 + 1*u^2", "3*v^1", "", "-1/+2*u^0"]:
            with pytest.raises(ValueError):
                LaurentPoly.parse(bad)

    @pytest.mark.parametrize(
        "token",
        [
            "1/0*u^1",  # a zero denominator, not a ZeroDivisionError
            "0.5*u^0",
            "1_000*u^0",
            "1*u^1_0",
            "1*u^\uff11",  # a full-width digit
            "\u0661*u^0",  # an Arabic-Indic digit
            "1e1000000000*u^0",  # would start unbounded work
            "1*u^ 2",
            "1 *u^2",
            "1/-2*u^0",
            "1/2/3*u^0",
            "1*u^2.0",
        ],
    )
    def test_parse_reads_only_the_canonical_term_form(self, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            LaurentPoly.parse(f"1*u^7 + {token}")

    def test_parse_reads_integers_and_fractions(self):
        p = LaurentPoly.parse("6/4*u^-1 + 4/2*u^0 + -7*u^12 + 00*u^3")
        assert p._terms == {-1: Fraction(3, 2), 0: 2, 12: -7}
        assert type(p.coefficient(0)) is int

    def test_parse_finds_a_duplicate_of_a_dropped_zero_term(self):
        # a zero coefficient is dropped as it is read, but its exponent
        # still counts as read
        for text in ("0*u^2 + 1*u^2", "1*u^2 + 0/3*u^2", "0*u^2 + 0*u^2"):
            with pytest.raises(ValueError) as info:
                LaurentPoly.parse(text)
            assert str(info.value) == f"duplicate exponent 2 in {text!r}"
        assert LaurentPoly.parse("0*u^1 + 0/5*u^2").is_zero()

    def test_evaluate_exact(self):
        p = LaurentPoly({-2: 1, 1: Fraction(1, 3)})
        assert p.evaluate(Fraction(3)) == Fraction(1, 9) + 1


class TestCyclotomic:
    def test_check_on_phi_survives_optimisation(self, monkeypatch, capsys):
        # A non-monic result must raise an explicit ArithmeticError, which
        # python -O cannot strip the way it strips an assert, and which the
        # command line reports as a mathematical failure (exit 3).
        def non_monic(e):
            return [1, 2]

        caches = (
            cyclotomic_polynomial,
            laurent._zeta_powers,
        )
        for cached in caches:
            cached.cache_clear()
        monkeypatch.setattr(laurent, "_cyclotomic_coefficients", non_monic)
        try:
            with pytest.raises(CyclotomicCheckFailed) as info:
                cyclotomic_polynomial(5)
            assert isinstance(info.value, ArithmeticError)
            argv = ["e-value", "--q", "2", "--ell", "5", "--a", "1"]
            assert main(argv) == 3
            assert "Phi_" in capsys.readouterr().err
        finally:
            monkeypatch.undo()
            for cached in caches:
                cached.cache_clear()
        assert cyclotomic_polynomial(5) == LaurentPoly({k: 1 for k in range(5)})

    def test_small_cyclotomic_polynomials(self):
        u = LaurentPoly.monomial(1)
        assert cyclotomic_polynomial(1) == u - 1
        assert cyclotomic_polynomial(2) == u + 1
        assert cyclotomic_polynomial(3) == u * u + u + 1
        assert cyclotomic_polynomial(4) == u * u + 1
        assert cyclotomic_polynomial(6) == u * u - u + 1
        assert cyclotomic_polynomial(12) == u**4 - u**2 + 1

    # Every e up to 60, and e with many primes (210, 2310), two primes
    # (798 = 2*3*7*19, 1018 = 2*509) or a prime power (1096 = 8*137).
    ORACLE_E = [*range(1, 61), 210, 798, 1018, 1096, 2310]

    def test_product_over_divisors_is_u_e_minus_1(self):
        for e in self.ORACLE_E:
            prod = LaurentPoly.one()
            for d in range(1, e + 1):
                if e % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            assert prod == LaurentPoly({e: 1, 0: -1})

    def test_degree_is_euler_phi(self):
        for e in self.ORACLE_E:
            assert cyclotomic_polynomial(e).degree() == euler_phi(e)

    @pytest.mark.parametrize("n", [laurent.MAX_TOTIENT + 1, 10**12 + 39, 2**61 - 1])
    def test_euler_phi_is_bounded_before_factoring(self, monkeypatch, n):
        def no_factoring(n):
            raise AssertionError("trial division reached")

        monkeypatch.setattr(laurent, "_prime_factors", no_factoring)
        with pytest.raises(ValueError, match=f"n <= {laurent.MAX_TOTIENT}, got {n}$"):
            euler_phi(n)
        monkeypatch.undo()
        # the bound itself is factored; coxeter's root-ring guard reads it
        assert euler_phi(laurent.MAX_TOTIENT) == 4 * 10**7
        assert coxeter.MAX_TOTIENT is laurent.MAX_TOTIENT

    def test_zeta_is_root_of_its_cyclotomic_polynomial(self):
        # For every e <= 24 and random integer p: (p_poly * Phi_e)(zeta_e) = 0.
        rng = random.Random(5)
        for e in range(1, 25):
            assert specialize_cyclotomic(cyclotomic_polynomial(e), e).is_zero()
            for _ in range(5):
                p = random_poly(rng, denom=1)
                prod = p * cyclotomic_polynomial(e)
                assert specialize_cyclotomic(prod, e).is_zero()

    def test_cyclotomic_int_ring_axioms(self):
        rng = random.Random(31)
        for e in (3, 4, 5, 6, 8, 12):
            phi = euler_phi(e)
            rand = lambda: CyclotomicInt(
                e, tuple(rng.randrange(-5, 6) for _ in range(phi))
            )
            for _ in range(100):
                x, y, z = rand(), rand(), rand()
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert x * y == y * x
                assert x - x == CyclotomicInt.zero(e)

    def test_zeta_powers_cycle(self):
        for e in (1, 2, 3, 6, 8, 12):
            z = CyclotomicInt.zeta(e)
            acc = CyclotomicInt.one(e)
            for k in range(2 * e):
                assert acc == CyclotomicInt.zeta(e, k)
                acc = acc * z
            assert CyclotomicInt.zeta(e, e) == CyclotomicInt.one(e)

    def test_zeta_exponents_invert_the_powers(self, monkeypatch):
        for e in (1, 2, 3, 6, 12, 97, 120):
            assert laurent._zeta_exponents(e) == {
                z.coordinates: k for k, z in enumerate(laurent._zeta_powers(e))
            }
        # two equal powers below e: no exponent can be read off
        real = laurent._zeta_powers

        def repeated(order):
            powers = real(order)
            return powers[:3] + powers[2:3] + powers[4:]

        laurent._zeta_exponents.cache_clear()
        monkeypatch.setattr(laurent, "_zeta_powers", repeated)
        try:
            with pytest.raises(
                CyclotomicCheckFailed,
                match=r"zeta_7\^2 and zeta_7\^3 have the same coordinates",
            ):
                laurent._zeta_exponents(7)
        finally:
            monkeypatch.undo()
            laurent._zeta_exponents.cache_clear()

    @pytest.mark.parametrize(
        "coeffs", [(0.5, 1.9), (1.0, 0), (Fraction(1), 0)], ids=repr
    )
    def test_non_int_coordinates_rejected(self, coeffs):
        with pytest.raises(TypeError):
            CyclotomicInt(4, coeffs)
        assert CyclotomicInt(4, (0, 1)) == CyclotomicInt.zeta(4)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicInt.one(3) + CyclotomicInt.one(4)

    ENTRIES = {
        "cyclotomic_polynomial": cyclotomic_polynomial,
        "specialize_cyclotomic": lambda e: specialize_cyclotomic(LaurentPoly.one(), e),
        "zeta": lambda e: CyclotomicInt.zeta(e, 3),
        "zero": CyclotomicInt.zero,
        # phi(MAX_ORDER) coordinates: a refusal above the bound is the bound's
        "CyclotomicInt": lambda e, n=euler_phi(laurent.MAX_ORDER): CyclotomicInt(e, (0,) * n),
        "from_int": lambda e: CyclotomicInt.from_int(e, 2),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("e", [laurent.MAX_ORDER + 1, 10**9])
    def test_order_is_bounded_before_any_list(self, monkeypatch, entry, e):
        def no_work(*args):
            raise AssertionError("work on the order reached")

        call = self.ENTRIES[entry]
        for name in ("_cyclotomic_coefficients", "euler_phi"):
            monkeypatch.setattr(laurent, name, no_work)
        with pytest.raises(ValueError, match=f"order e = {e} exceeds"):
            call(e)
        monkeypatch.undo()
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"order e = {e} exceeds"):
                call(e)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01
        # the bound itself is admitted
        call(laurent.MAX_ORDER)
        laurent._zeta_powers.cache_clear()

    def test_specialize_cyclotomic_requires_integer_coefficients(self):
        p = LaurentPoly({0: Fraction(1, 2)})
        with pytest.raises(NonIntegerCoefficients):
            specialize_cyclotomic(p, 5)

    @pytest.mark.parametrize("e", [3, 5, 8, 12, 30, 97])
    def test_reduction_is_a_sum_of_zeta_power_rows(self, e):
        # Both routes into Z[zeta_e] equal the sum of c * zeta^(k mod e)
        # over their terms, read row by row from the table of powers.
        rows = laurent._zeta_powers(e)
        phi = euler_phi(e)

        def assert_stored_ints(z):
            assert len(z.coordinates) == phi
            assert all(type(c) is int for c in z.coordinates), z

        for row in rows:
            assert_stored_ints(row)

        def row_sum(pairs):
            by_power = [0] * e
            for k, c in pairs:
                by_power[k % e] += c
            out = [0] * phi
            for c, row in zip(by_power, rows):
                for i, r in enumerate(row.coordinates):
                    out[i] += c * r
            return out

        rng = random.Random(e)
        for _ in range(60):
            p = random_poly(rng, max_terms=8, exp_range=3 * e, denom=1)
            z = specialize_cyclotomic(p, e)
            assert_stored_ints(z)
            assert list(z.coordinates) == row_sum(p.items())
            x = [rng.randrange(-9, 10) for _ in range(phi)]
            y = [rng.randrange(-9, 10) for _ in range(phi)]
            pairs = [(i + j, a * b) for i, a in enumerate(x) for j, b in enumerate(y)]
            zx, zy = CyclotomicInt(e, x), CyclotomicInt(e, y)
            z = zx * zy
            assert_stored_ints(z)
            assert list(z.coordinates) == row_sum(pairs)
            for z in (zx + zy, zx - zy, -zx, zx * 3, 3 * zx):
                assert_stored_ints(z)

    def test_specialize_negative_exponents(self):
        # u^-1 -> zeta^(e-1)
        p = LaurentPoly.monomial(-1)
        for e in (3, 4, 6):
            assert specialize_cyclotomic(p, e) == CyclotomicInt.zeta(e, e - 1)


class TestModPrime:
    def test_examples(self):
        assert specialize_mod_prime(LaurentPoly.zero(), 3, 5) == 0
        p = LaurentPoly({0: 1, 1: 1, 2: 1})  # 1 + q + q^2 at q=2 mod 7
        assert specialize_mod_prime(p, 2, 7) == 0

    def test_prime_divides_q(self):
        with pytest.raises(PrimeDividesQ, match="^prime 5 divides q = 10$"):
            specialize_mod_prime(LaurentPoly.one(), 10, 5)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError, match="^9 is not prime$"):
            specialize_mod_prime(LaurentPoly.one(), 2, 9)

    def test_is_prime_against_trial_division(self):
        def oracle(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(-3, 20001):
            assert is_prime(n) == oracle(n), n
        assert is_prime(797) and not is_prime(799) and is_prime(809)

    def test_denominator_not_invertible(self):
        p = LaurentPoly({0: Fraction(1, 5)})
        with pytest.raises(NonIntegerCoefficients):
            specialize_mod_prime(p, 2, 5)

    def test_compatibility_with_exact_evaluation(self):
        # Reduction mod ell commutes with exact rational evaluation at u = q
        # whenever the rational value is ell-integral.
        rng = random.Random(17)
        primes = [p for p in range(2, 30) if is_prime(p)]
        for _ in range(400):
            p = random_poly(rng)
            ell = rng.choice(primes)
            q = rng.randrange(1, 40)
            if q % ell == 0:
                continue
            try:
                got = specialize_mod_prime(p, q, ell)
            except NonIntegerCoefficients:
                continue
            value = p.evaluate(Fraction(q))
            if value.denominator % ell == 0:
                continue
            expect = (
                value.numerator % ell * pow(value.denominator, -1, ell)
            ) % ell
            assert got == expect
