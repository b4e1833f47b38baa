import hashlib
import json
import math
import time
from itertools import combinations

import pytest

from heckebasis import laurent, modarith
from heckebasis.cli import main
from heckebasis.laurent import (
    LaurentPoly,
    PrimeDividesQ,
    is_prime,
    specialize_mod_prime,
)
from heckebasis.modarith import (
    MAX_ELL,
    MAX_SWEEP_BOX,
    GenericityReport,
    HypothesisViolated,
    ResidueSet,
    compute_e,
    compute_e_prime,
    multiplicative_order,
    set_a,
    set_a0,
    sweep_a_sets,
    verify_a_sets,
)


def test_residue_set_canonicalization():
    assert ResidueSet.from_residues(6, [1, 3, 5]) == ResidueSet(2, (1,))
    assert ResidueSet.from_residues(6, [0, 1, 2, 3, 4, 5]) == ResidueSet(
        1, (0,)
    )
    assert ResidueSet.from_residues(4, []) == ResidueSet(1, ())
    assert ResidueSet.from_residues(12, [2, 6, 10]) == ResidueSet(4, (2,))
    assert ResidueSet.from_residues(4, [1, 2]) == ResidueSet(4, (1, 2))
    assert ResidueSet.from_residues(4, [-3, 6]) == ResidueSet(4, (1, 2))
    with pytest.raises(ValueError):
        ResidueSet.from_residues(0, [0])
    # every subset of Z/m for m <= 8, against the least d | m with S + d = S
    for m in range(1, 9):
        for size in range(1, m + 1):
            for subset in combinations(range(m), size):
                s = set(subset)
                d = min(
                    d for d in range(1, m + 1)
                    if m % d == 0 and {(r + d) % m for r in s} == s
                )
                want = ResidueSet(d, tuple(sorted({r % d for r in s})))
                assert ResidueSet.from_residues(m, subset) == want, subset


def test_residue_set_membership():
    s = ResidueSet.from_residues(4, [2])
    assert s.contains(2) and s.contains(6) and s.contains(-2)
    assert not s.contains(0) and not s.contains(3)


def test_every_residue_set_built_is_canonical():
    # A = A0, set_a0's cross-check and the sweep compare sets with ==,
    # which is equality as subsets of Z only between canonical forms
    def canonical(s):
        return s == ResidueSet.from_residues(s.modulus, s.residues)

    roots = {}
    checked = 0
    for ell in range(2, 51):
        if not is_prime(ell):
            continue
        for q in range(2, 51):
            if q % ell == 0:
                continue
            e = compute_e(q, ell)
            for a in (1, 2, 3):
                for b in range(-2, 6):
                    assert canonical(set_a(q, a, b, ell)), (q, a, b, ell)
                    if (e, a, b) not in roots:
                        roots[e, a, b] = set_a0(e, a, b)
                        assert canonical(roots[e, a, b]), (e, a, b)
                    try:
                        report = verify_a_sets(q, a, b, ell)
                    except HypothesisViolated:
                        continue
                    assert canonical(report.set_q) and canonical(report.set_root)
                    assert report.set_root == roots[e, a, b]
                    checked += 1
    assert checked == 13264


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(2, 5) == 4
    with pytest.raises(PrimeDividesQ):
        multiplicative_order(7, 7)
    with pytest.raises(ValueError):
        multiplicative_order(2, 6)


def test_compute_e_pinned_values():
    assert compute_e(2, 7) == 3  # 1 + 2 + 4 = 7
    assert compute_e(8, 7) == 7  # q = 1 mod 7
    assert compute_e(4, 5) == 2  # 1 + 4 = 5
    assert compute_e(1, 3) == 3
    with pytest.raises(PrimeDividesQ):
        compute_e(14, 7)
    with pytest.raises(ValueError):
        compute_e(2, 9)


def test_compute_e_equals_order_or_ell():
    for ell in (2, 3, 5, 7, 11, 13, 17, 19):
        for q in range(1, 40):
            if q % ell == 0:
                continue
            e = compute_e(q, ell)
            if q % ell == 1:
                assert e == ell
            else:
                assert e == multiplicative_order(q, ell)
                assert pow(q, e, ell) == 1


def test_compute_e_prime_pinned_and_relation():
    assert compute_e_prime(2, 2, 7) == 3  # powers of 4 mod 7: 1+4+2 = 7
    assert compute_e_prime(2, 1, 7) == compute_e(2, 7)
    assert compute_e_prime(3, 2, 5) == 2  # 9 = 4, 1+4 = 5
    with pytest.raises(ValueError):
        compute_e_prime(2, 0, 7)
    # e' = e for a = 1; e' = e/2 exactly when a = 2 and e even
    for ell in (3, 5, 7, 11, 13, 17):
        for q in range(2, 30):
            if q % ell in (0, 1):
                continue
            e = compute_e(q, ell)
            assert compute_e_prime(q, 1, ell) == e
            if pow(q, 2, ell) != 1:
                want = e // 2 if e % 2 == 0 else e
                assert compute_e_prime(q, 2, ell) == want


def test_compute_e_prime_of_a_cube_is_e_over_gcd():
    # a = 3, q of order 6 mod 7: e' = e / gcd(a, e) = 6 / 3 = 2, the order
    # of q^3; modarith._step checks this rule for every step a
    assert multiplicative_order(3, 7) == 6
    assert compute_e_prime(3, 3, 7) == 2


def test_compute_e_prime_is_e_over_gcd_for_every_step():
    checked = 0
    for ell in filter(is_prime, range(2, 60)):
        for q in range(2, 2 * ell):
            if q % ell in (0, 1):
                continue
            e = compute_e(q, ell)
            for a in range(1, 7):
                if pow(q, a, ell) != 1:
                    assert compute_e_prime(q, a, ell) == e // math.gcd(a, e)
                    checked += 1
    assert checked > 4000


def test_wrong_order_of_a_cube_fails_the_e_prime_check(monkeypatch, capsys):
    # q = 2, ell = 13: e = 12 and 8 = 2^3 has order 4. The patched walk
    # halves that order with a consistent e, so only e' = e / gcd(3, e)
    # catches it; b = 1 leaves A and A0 both empty, hence equal.
    argv = ["e-value", "--q", "2", "--ell", "13", "--a", "3", "--b", "1"]
    assert main(argv) == 0
    real = modarith._walk

    def halved_for_the_cube(x, ell):
        e, order, positions = real(x, ell)
        if (x, ell) == (8, 13):
            order //= 2
            return order, order, {p: j for p, j in positions.items() if j < order}
        return e, order, positions

    monkeypatch.setattr(modarith, "_walk", halved_for_the_cube)
    capsys.readouterr()
    assert main(argv) == 3
    assert "e'(2, 3, 13) = 2, but e = 12 predicts 4" in capsys.readouterr().err


def test_set_a_pinned_values():
    assert set_a(2, 1, 0, 5) == ResidueSet(4, (2,))
    assert set_a(3, 2, 1, 13).is_empty()
    # q = 1 mod ell with b = 0: 1 = -1 impossible for ell > 2
    assert set_a(6, 1, 0, 5).is_empty()
    with pytest.raises(PrimeDividesQ):
        set_a(10, 1, 0, 5)


def test_set_a_brute_force_agreement():
    for ell in (3, 5, 7, 11, 13):
        for q in range(2, 20):
            if q % ell == 0:
                continue
            for a in (1, 2, 3):
                for b in (0, 1, 2):
                    s = set_a(q, a, b, ell)
                    for j in range(0, 3 * ell):
                        in_set = pow(q, a * j, ell) == (-pow(q, b, ell)) % ell
                        assert s.contains(j) == in_set, (q, a, b, ell, j)


def test_set_a_is_the_canonical_form_of_its_residues():
    # over the 30 x 30 box, with q = 1 mod ell (order 1) included: the set
    # built directly equals the general period search on the same hits
    kinds = set()
    for ell in range(2, 31):
        if not is_prime(ell):
            continue
        for q in range(2, 31):
            if q % ell == 0:
                continue
            for a in (1, 2, 3):
                x = pow(q, a, ell)
                order = next(k for k in range(1, ell) if pow(x, k, ell) == 1)
                _, walked, positions = modarith._walk(x, ell)
                assert walked == order
                powers = [pow(x, j, ell) for j in range(order)]
                for b in range(ell):
                    target = -pow(q, b, ell) % ell
                    hits = [j for j, v in enumerate(powers) if v == target]
                    got = modarith._set_a(q, b, ell, order, positions)
                    assert got == ResidueSet.from_residues(order, hits)
                    kinds.add((order == 1, bool(hits)))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_sweep_json_bytes_are_pinned(capsys):
    # SHA-256 of the output as the general period search produced it
    argv = ["sweep-genericity", "--ell-max", "50", "--q-max", "50"]
    assert main(argv + ["--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == (
        "f105f40c119bd8f9fb424951b06dceb56fc359bbd7c86c2fe3ff894cd02e8dc5"
    )


def test_set_a0_pinned_values():
    assert set_a0(5, 1, 0).is_empty()
    assert set_a0(2, 1, 1) == ResidueSet(2, (0,))
    assert set_a0(6, 2, 1) == ResidueSet(3, (2,))
    assert set_a0(4, 1, 0) == ResidueSet(4, (2,))
    with pytest.raises(ValueError):
        set_a0(1, 1, 0)


def test_set_a0_odd_e_always_empty():
    for e in range(3, 20, 2):
        for a in range(0, e):
            for b in range(0, e):
                assert set_a0(e, a, b).is_empty()


def test_set_a0_cyclotomic_vs_congruence_sweep():
    # the assert inside set_a0 compares the cyclotomic route against the
    # congruence route; drive it over the full box
    for e in range(2, 31):
        for a in range(0, e + 1):
            for b in range(0, e + 1):
                s = set_a0(e, a, b)
                if e % 2 == 0:
                    c = (b + e // 2) % e
                    for j in range(2 * e):
                        assert s.contains(j) == ((a * j - c) % e == 0)
                else:
                    assert s.is_empty()


def test_verify_reports():
    r = verify_a_sets(2, 1, 0, 5)
    assert isinstance(r, GenericityReport)
    assert r.e == 4 and r.e_prime == 4 and r.equal
    assert r.set_q == ResidueSet(4, (2,)) == r.set_root
    d = r.to_json_dict()
    assert d == {
        "e": 4,
        "ePrime": 4,
        "A": {"modulus": 4, "residues": [2]},
        "A0": {"modulus": 4, "residues": [2]},
        "equal": True,
    }
    r13 = verify_a_sets(3, 2, 1, 13)
    assert r13.equal and r13.set_q.is_empty() and r13.e == 3
    r5 = verify_a_sets(4, 1, 0, 5)
    assert r5.equal and r5.e == 2 and r5.set_q == ResidueSet(2, (1,))


def test_verify_hypothesis_violations_name_the_condition():
    with pytest.raises(HypothesisViolated, match="not prime"):
        verify_a_sets(2, 1, 0, 6)
    with pytest.raises(HypothesisViolated, match="divides"):
        verify_a_sets(10, 1, 0, 5)
    with pytest.raises(HypothesisViolated, match="is 1 mod"):
        verify_a_sets(6, 1, 0, 5)
    with pytest.raises(HypothesisViolated, match="q\\^a"):
        verify_a_sets(4, 2, 0, 5)  # 4^2 = 16 = 1 mod 5
    with pytest.raises(HypothesisViolated, match="not positive"):
        verify_a_sets(2, 0, 0, 5)
    # ell = 2 forces q odd hence q = 1 mod 2
    with pytest.raises(HypothesisViolated):
        verify_a_sets(3, 1, 0, 2)


def test_sweep_counts_and_passes():
    out = sweep_a_sets(13, 13)
    assert out["allEqual"] and out["failures"] == []
    # recount independently
    expected = 0
    for ell in range(2, 14):
        if not is_prime(ell):
            continue
        for q in range(2, 14):
            if q % ell in (0, 1):
                continue
            for a in (1, 2):
                if pow(q, a, ell) == 1:
                    continue
                expected += 4  # b in {0, 1, 2, 3}
    assert out["checked"] == expected


def test_sweep_box_is_bounded_before_it_starts():
    assert MAX_SWEEP_BOX == 100
    # the bound itself is allowed on either side (these sweeps are cheap)
    assert sweep_a_sets(MAX_SWEEP_BOX, 2)["checked"] > 0
    assert sweep_a_sets(2, MAX_SWEEP_BOX)["checked"] == 0  # ell = 2 only
    assert sweep_a_sets(2, 2)["checked"] == 0
    for ell_max, q_max in [(1, 50), (50, 1), (0, 0), (-5, 3)]:
        with pytest.raises(ValueError, match=f"{ell_max} x {q_max} is empty"):
            sweep_a_sets(ell_max, q_max)
    for ell_max, q_max in [(101, 2), (2, 101), (3000, 3000), (10**18, 10**18)]:
        with pytest.raises(ValueError, match=f"{ell_max} x {q_max} exceeds"):
            sweep_a_sets(ell_max, q_max)


def test_residue_set_and_report_are_immutable_values():
    s = ResidueSet.from_residues(6, [1, 3, 5])
    assert s == ResidueSet(modulus=2, residues=(1,))
    assert hash(s) == hash(ResidueSet(2, (1,)))
    assert len({s, ResidueSet(2, (1,)), ResidueSet(4, (1,))}) == 2
    with pytest.raises(AttributeError):
        s.modulus = 3
    report = verify_a_sets(2, 1, 0, 5)
    assert report.e == 4 and report.set_q == ResidueSet(4, (2,))
    assert hash(report) == hash(verify_a_sets(2, 1, 0, 5))
    with pytest.raises(AttributeError):
        report.equal = False


def _admissible(ell_max, q_max):
    """Every (q, a, b, ell) of the box that the sweep checks, in order."""
    for ell in range(2, ell_max + 1):
        if not is_prime(ell):
            continue
        for q in range(2, q_max + 1):
            if q % ell in (0, 1):
                continue
            for a in (1, 2):
                if pow(q, a, ell) == 1:
                    continue
                for b in (0, 1, 2, 3):
                    yield q, a, b, ell


def _sweep_oracle(ell_max, q_max):
    """The sweep as one verify_a_sets call per tuple, nothing shared."""
    checked = 0
    failures = []
    for q, a, b, ell in _admissible(ell_max, q_max):
        report = verify_a_sets(q, a, b, ell)
        checked += 1
        if not report.equal:
            failures.append(
                {
                    "q": q,
                    "a": a,
                    "b": b,
                    "ell": ell,
                    "report": report.to_json_dict(),
                }
            )
    return {"checked": checked, "allEqual": not failures, "failures": failures}


@pytest.mark.parametrize(
    "box", [(13, 13), (30, 29), (50, 50), (100, 2), (2, 100)]
)
def test_sweep_equals_per_tuple_oracle(box):
    assert sweep_a_sets(*box) == _sweep_oracle(*box)


def test_sweep_runs_each_step_once_per_input(monkeypatch):
    calls = {"compute_e": [], "_step": [], "set_a0": []}
    for name in calls:
        real = getattr(modarith, name)

        def counted(*args, real=real, name=name):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(modarith, name, counted)
    sweep_a_sets(30, 29)
    tuples = list(_admissible(30, 29))
    assert calls["compute_e"] == list(dict.fromkeys(
        (q, ell) for q, _, _, ell in tuples
    ))
    assert [args[:3] for args in calls["_step"]] == list(dict.fromkeys(
        (q, a, ell) for q, a, _, ell in tuples
    ))
    assert sorted(calls["set_a0"]) == sorted({
        (compute_e(q, ell), a, b) for q, a, b, ell in tuples
    })


@pytest.mark.parametrize("bad", [(4, 1, 0), (4, 1, 1), (6, 2, 2), (12, 1, 3)])
def test_sweep_reports_a_wrong_a0_as_the_oracle_does(bad, monkeypatch, capsys):
    real = modarith.set_a0

    def wrong_for_one(e, a, b):
        if (e, a, b) == bad:
            return ResidueSet(1, (0,))  # all of Z, never a set A
        return real(e, a, b)

    monkeypatch.setattr(modarith, "set_a0", wrong_for_one)
    want = _sweep_oracle(13, 13)
    assert want["failures"]
    assert all(
        (f["report"]["e"], f["a"], f["b"]) == bad for f in want["failures"]
    )
    out = sweep_a_sets(13, 13)
    assert out == want and out["allEqual"] is False
    assert main(["sweep-genericity", "--ell-max", "13", "--q-max", "13"]) == 3
    assert "all equal: NO" in capsys.readouterr().out
    argv = ["sweep-genericity", "--ell-max", "13", "--q-max", "13"]
    assert main(argv + ["--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["failures"] == want["failures"]


def test_ell_is_bounded_before_the_primality_test(monkeypatch):
    assert MAX_ELL == 800
    assert modarith.MAX_ELL is laurent.MAX_ELL  # one bound, re-exported
    assert compute_e(2, 797) == 796  # the largest prime below the bound
    assert specialize_mod_prime(LaurentPoly.monomial(796), 2, 797) == 1

    def no_primality_test(n):
        raise AssertionError("primality test reached")

    with monkeypatch.context() as patch:
        # where the gate looks it up, and where verify_a_sets does
        patch.setattr(laurent, "is_prime", no_primality_test)
        patch.setattr(modarith, "is_prime", no_primality_test)
        for ell in (809, 100000000000031, 10**18, 2**61 - 1):
            for call in (
                lambda: compute_e(2, ell),
                lambda: multiplicative_order(2, ell),
                lambda: compute_e_prime(2, 1, ell),
                lambda: set_a(2, 1, 0, ell),
                lambda: verify_a_sets(2, 1, 0, ell),
                lambda: specialize_mod_prime(LaurentPoly.one(), 2, ell),
            ):
                with pytest.raises(ValueError, match="exceeds the maximum 800"):
                    call()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the maximum 800"):
        specialize_mod_prime(LaurentPoly.one(), 2, 2**61 - 1)
    assert time.perf_counter() - start < 0.01

