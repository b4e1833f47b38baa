"""Modular-arithmetic invariants of a prime power q relative to a prime
ell not dividing q: the bound e (least i >= 2 with 1 + q + ... + q^{i-1}
divisible by ell), its twisted variant e' for a power step a, and the
solution sets

    A  = { j : q^{a j} = -q^b  in Z/ell }
    A0 = { j : zeta_e^{a j} = -zeta_e^b  in Z[zeta_e] }

which are periodic subsets of Z, stored as residue classes. Under the
standing hypotheses (ell prime, ell does not divide q, q and q^a both
not 1 mod ell) the two sets coincide. verify_a_sets checks that on one
tuple (q, a, b, ell); sweep_a_sets runs the same helpers over a box, each
once at the level it depends on. Since ell does not divide q, e, e', the
powers of q^a and A depend on q only through q mod ell, so the steps run
per (ell, q mod ell), at the least q of the class: e, one walk of the
powers of q^a per a for its order, e' and the position of each power,
and A per b. Every later q of the class takes that q's tuple count and
failures. A0 runs once per distinct (e, a, b) in the call, reading the
exponent of -zeta_e^b off one lookup in Z[zeta_e].
Every entry that takes ell passes laurent.check_ell (MAX_ELL is
re-exported here); verify_a_sets re-raises its refusal as
HypothesisViolated. Every ResidueSet built here is canonical, so two sets
are equal as subsets of Z exactly when they compare equal with ==.

>>> compute_e(2, 7)
3
>>> set_a(2, 1, 0, 5)
ResidueSet(modulus=4, residues=(2,))
>>> verify_a_sets(2, 1, 0, 5).equal
True
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .laurent import (
    MAX_ELL,
    CyclotomicInt,
    _zeta_exponents,
    check_ell,
    is_prime,
)

__all__ = [
    "ResidueSet",
    "HypothesisViolated",
    "CrossCheckFailed",
    "compute_e",
    "compute_e_prime",
    "multiplicative_order",
    "set_a",
    "set_a0",
    "verify_a_sets",
    "GenericityReport",
    "sweep_a_sets",
    "MAX_SWEEP_BOX",
    "MAX_ELL",
]

# Largest ell_max and q_max a sweep accepts. The 100 x 100 box checks
# 16,596 tuples in about 26-31 ms (in process, best of 25, one Xeon core,
# CPython 3.11): 1.5-1.9 us a tuple, against 1.4-1.5 us at 25 x 25. The
# walks are shared by the q of one class mod ell, so a box with q_max
# far past ell_max costs less a tuple: 23 x 100 checks 4,404 in 1.6-2.4 ms.
MAX_SWEEP_BOX = 100


class HypothesisViolated(ValueError):
    """A standing hypothesis of the A = A0 comparison fails; the message
    names the violated precondition."""


class CrossCheckFailed(ArithmeticError):
    """Two independent computations of the same invariant disagree."""


class ResidueSet(NamedTuple):
    """The set { j in Z : j mod modulus in residues }, in canonical form:
    the modulus is the minimal period, residues are sorted and reduced.
    The empty set is (1, ()); all of Z is (1, (0,)).

    >>> ResidueSet.from_residues(6, [1, 3, 5])
    ResidueSet(modulus=2, residues=(1,))
    >>> ResidueSet.from_residues(4, []).is_empty()
    True
    """

    modulus: int
    residues: tuple[int, ...]

    @classmethod
    def from_residues(cls, modulus: int, residues) -> "ResidueSet":
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        cls_set = {r % modulus for r in residues}
        if not cls_set:
            return cls(1, ())
        # A period d maps the least residue to another residue, so only
        # those differences (and the modulus itself) are candidates.
        first = min(cls_set)
        for d in sorted({r - first for r in cls_set} - {0}) + [modulus]:
            if modulus % d:
                continue
            if {(r + d) % modulus for r in cls_set} == cls_set:
                return cls(d, tuple(sorted({r % d for r in cls_set})))
        raise CrossCheckFailed("unreachable: modulus is always a period")

    def is_empty(self) -> bool:
        return not self.residues

    def contains(self, j: int) -> bool:
        return j % self.modulus in self.residues

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "residues": list(self.residues)}


def _walk(x: int, ell: int) -> tuple[int, int, dict[int, int]]:
    """One walk of the powers of x mod the prime ell: e by its definition,
    the order of x and the position j below the order of each power x^j
    (a power met twice there raises CrossCheckFailed)."""
    x %= ell
    positions = {1: 0}
    power, total, i, e, order = x, 1, 1, 0, 0
    while not (e and order):
        # power = x^i, total = 1 + x + ... + x^(i-1)
        total = (total + power) % ell
        if not (e or total):
            e = i + 1
        if not order:  # the order and positions are recorded until x^i = 1
            if power == 1:
                order = i
            elif power in positions:
                raise CrossCheckFailed(
                    f"the powers of {x} mod {ell} take the value {power} "
                    "twice below the order"
                )
            else:
                positions[power] = i
        power = power * x % ell
        i += 1
    return e, order, positions


def _checked_e(x: int, ell: int, e: int, order: int) -> int:
    """e of x by its definition, checked against the order of x (ell
    when x is 1 mod ell)."""
    expected = ell if x % ell == 1 else order
    if e != expected:
        raise CrossCheckFailed(
            f"e({x}, {ell}) = {e} by its definition but {expected} by the "
            "multiplicative order"
        )
    return e


def multiplicative_order(x: int, ell: int) -> int:
    """Order of x in (Z/ell)^*; x must be a unit mod the prime ell."""
    check_ell(x, ell)
    return _walk(x, ell)[1]


def compute_e(q: int, ell: int) -> int:
    """Least i >= 2 with 1 + q + ... + q^{i-1} divisible by ell.

    Equals the multiplicative order of q mod ell when q is not 1 mod ell,
    and equals ell itself when q is 1 mod ell.

    >>> compute_e(2, 7), compute_e(8, 7), compute_e(4, 5)
    (3, 7, 2)
    """
    check_ell(q, ell)
    e, order, _ = _walk(q, ell)
    return _checked_e(q, ell, e, order)


def _step(q: int, a: int, ell: int, e: int) -> tuple[int, int, dict]:
    """e', order and positions from one walk of the powers of q^a; e' is
    checked against the order and, as compute_e_prime documents, e."""
    x = pow(q, a, ell)
    e_prime, order, positions = _walk(x, ell)
    _checked_e(x, ell, e_prime, order)
    if x != 1:
        expected = e // math.gcd(a, e)
        if e_prime != expected:
            raise CrossCheckFailed(
                f"e'({q}, {a}, {ell}) = {e_prime}, but e = {e} predicts "
                f"{expected}"
            )
    return e_prime, order, positions


def compute_e_prime(q: int, a: int, ell: int) -> int:
    """Least j >= 2 with 1 + q^a + q^{2a} + ... + q^{a(j-1)} divisible by
    ell. When q^a is not 1 mod ell, q is not 1 mod ell either, so e is
    the order of q and e' = e / gcd(a, e), the order of q^a (checked).

    >>> compute_e(2, 13), compute_e_prime(2, 3, 13)
    (12, 4)
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return _step(q, a, ell, compute_e(q, ell))[0]


def _set_a(q: int, b: int, ell: int, order: int, positions: dict) -> ResidueSet:
    """A for one b, read from the walk of the powers of q^a, in canonical
    form: one class j below the order has the order as its minimal
    period, so A is (order, (j,)), which is (1, (0,)) at order 1, or
    (1, ()) when -q^b is no power of q^a."""
    j = positions.get(-pow(q, b, ell) % ell)
    return ResidueSet(1, ()) if j is None else ResidueSet(order, (j,))


def set_a(q: int, a: int, b: int, ell: int) -> ResidueSet:
    """All j with q^{aj} = -q^b in Z/ell: a single residue class modulo
    the multiplicative order of q^a, or empty.

    >>> set_a(2, 1, 0, 5)
    ResidueSet(modulus=4, residues=(2,))
    >>> set_a(3, 2, 1, 13).is_empty()
    True
    """
    check_ell(q, ell)
    _, order, positions = _walk(pow(q, a, ell), ell)
    return _set_a(q, b, ell, order, positions)


def set_a0(e: int, a: int, b: int) -> ResidueSet:
    """All j with zeta_e^{aj} = -zeta_e^b, decided exactly in Z[zeta_e].

    -zeta_e^b is computed in Z[zeta_e] and its exponent k below e is read
    off its coordinates (laurent._zeta_exponents); A0 is the j with
    a j = k (mod e). It is empty when -zeta_e^b is no power of zeta_e,
    which is the case exactly when e is odd (-1 is then not a power of
    zeta_e); for even e, k = b + e/2. That congruence form is kept as an
    internal cross-check: the two lists of j below e must agree.

    >>> set_a0(5, 1, 0).is_empty()
    True
    >>> set_a0(2, 1, 1)
    ResidueSet(modulus=2, residues=(0,))
    >>> set_a0(6, 2, 1)
    ResidueSet(modulus=3, residues=(2,))
    """
    if e < 2:
        raise ValueError(f"need e >= 2, got {e}")
    target = (-CyclotomicInt.zeta(e, b % e)).coordinates
    k = _zeta_exponents(e).get(target)
    hits = [] if k is None else [j for j in range(e) if (a * j - k) % e == 0]

    if e % 2:
        congruence_hits = []
    else:
        c = (b + e // 2) % e
        congruence_hits = [j for j in range(e) if (a * j - c) % e == 0]
    if hits != congruence_hits:
        raise CrossCheckFailed(
            f"A0 for e = {e}, a = {a}, b = {b} is "
            f"{ResidueSet.from_residues(e, hits)} in Z[zeta_e] but "
            f"{congruence_hits} by the congruence"
        )
    return ResidueSet.from_residues(e, hits)


class GenericityReport(NamedTuple):
    e: int
    e_prime: int
    set_q: ResidueSet  # A, from powers of q mod ell
    set_root: ResidueSet  # A0, from e-th roots of unity
    equal: bool

    def to_json_dict(self) -> dict:
        return {
            "e": self.e,
            "ePrime": self.e_prime,
            "A": self.set_q.to_json_dict(),
            "A0": self.set_root.to_json_dict(),
            "equal": self.equal,
        }


def verify_a_sets(q: int, a: int, b: int, ell: int) -> GenericityReport:
    """Compute A (mod-ell) and A0 (cyclotomic) and compare them as
    subsets of Z. Requires ell to pass laurent.check_ell, q not 1 mod
    ell (so e is the order of q) and q^a not 1 mod ell; violations raise
    HypothesisViolated naming the failed condition, with check_ell's
    refusal re-raised in its own words."""
    try:
        check_ell(q, ell)
    except ValueError as exc:
        raise HypothesisViolated(str(exc)) from None
    if q % ell == 1:
        raise HypothesisViolated(f"q = {q} is 1 mod ell = {ell}")
    if a < 1:
        raise HypothesisViolated(f"a = {a} is not positive")
    if pow(q, a, ell) == 1:
        raise HypothesisViolated(f"q^a = {q}^{a} is 1 mod ell = {ell}")
    e = compute_e(q, ell)
    e_prime, order, positions = _step(q, a, ell, e)
    from_q = _set_a(q, b, ell, order, positions)
    from_root = set_a0(e, a, b)
    return GenericityReport(e, e_prime, from_q, from_root, from_q == from_root)


def _class_outcome(q: int, ell: int, roots: dict) -> tuple[int, list]:
    """The sweep at one q, which stands for its class mod ell: the number
    of (a, b) checked and, in tuple order, (a, b, report) for each where
    A != A0. A0 is read from, or added to, roots by (e, a, b)."""
    e = compute_e(q, ell)
    count = 0
    failing = []
    for a in (1, 2):
        if pow(q, a, ell) == 1:
            continue
        e_prime, order, positions = _step(q, a, ell, e)
        for b in (0, 1, 2, 3):
            from_q = _set_a(q, b, ell, order, positions)
            from_root = roots.get((e, a, b))
            if from_root is None:
                from_root = roots[e, a, b] = set_a0(e, a, b)
            count += 1
            if from_q != from_root:
                failing.append(
                    (a, b, GenericityReport(e, e_prime, from_q, from_root, False))
                )
    return count, failing


def sweep_a_sets(ell_max: int, q_max: int) -> dict:
    """What verify_a_sets reports on every admissible (q, a, b, ell) in
    the box, a in {1, 2} and b in {0, 1, 2, 3}, aggregated: counts and
    any failures, in tuple order. Each step runs once per input it
    depends on, per class of q mod ell (see the module docstring); a
    failure repeated over a class is reported at each q, each with a
    report of its own.

    The box is checked before the sweep starts: ValueError unless
    2 <= ell_max, q_max <= MAX_SWEEP_BOX."""
    if ell_max < 2 or q_max < 2:
        raise ValueError(
            f"sweep box {ell_max} x {q_max} is empty: need ell_max >= 2 "
            "and q_max >= 2"
        )
    if max(ell_max, q_max) > MAX_SWEEP_BOX:
        raise ValueError(
            f"sweep box {ell_max} x {q_max} exceeds the maximum "
            f"{MAX_SWEEP_BOX} x {MAX_SWEEP_BOX}"
        )
    checked = 0
    failures = []
    roots = {}  # A0 by (e, a, b)
    for ell in range(2, ell_max + 1):
        if not is_prime(ell):
            continue
        classes = {}  # (tuple count, failing (a, b, report)) by q mod ell
        for q in range(2, q_max + 1):
            r = q % ell
            if r == 0 or r == 1:
                continue
            outcome = classes.get(r)
            if outcome is None:
                outcome = classes[r] = _class_outcome(q, ell, roots)
            count, failing = outcome
            checked += count
            for a, b, report in failing:
                failures.append(
                    dict(q=q, a=a, b=b, ell=ell, report=report.to_json_dict())
                )
    return {
        "checked": checked,
        "allEqual": not failures,
        "failures": failures,
    }
