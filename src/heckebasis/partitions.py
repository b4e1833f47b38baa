"""Partitions, bipartitions, the n-invariant, dominance, e-regularity,
2-cores and 2-quotients, and the size-preserving embedding of
bipartitions of m into partitions of n = 2m + s (s in {0, 1}).

Partitions are plain tuples of weakly decreasing positive integers;
bipartitions are pairs of partitions. Text forms: "3,2,1" for a
partition (the empty partition renders as ""), "3,1|2" for a
bipartition.

The 2-core / 2-quotient combinatorics run on first-column beta-numbers
laid out on a two-runner abacus. Convention, fixed once and for all:
the quotient pair is read as (runner-1 partition, runner-0 partition)
with an even bead count for s = 0 and an odd bead count for s = 1.
This is exactly the choice under which the index label ((m), ()) embeds
to the one-row partition (n) and the sign label ((), (1^m)) embeds to
the one-column partition (1^n); both anchors are enforced by tests.

>>> two_core((3, 2))
(1,)
>>> two_quotient((2, 2))
((1,), (1,))
>>> embed_bipartition(((1,), (1,)), 0)
(2, 2)
>>> n_invariant((2, 2))
2
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "Partition",
    "Bipartition",
    "SizeMismatch",
    "SizeTooLarge",
    "EmbeddingCheckFailed",
    "MAX_PARTITION_SIZE",
    "MAX_BIPARTITIONS",
    "check_partition",
    "parse_partition",
    "render_partition",
    "parse_bipartition",
    "render_bipartition",
    "n_invariant",
    "dominates",
    "is_e_regular",
    "list_partitions",
    "list_bipartitions",
    "two_core",
    "two_quotient",
    "embed_bipartition",
    "extract_bipartition",
    "a_invariant_unitary",
]

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]

MAX_PARTITION_SIZE = 60
# list_bipartitions counts its output first and refuses to build more.
MAX_BIPARTITIONS = 10**6


class SizeMismatch(ValueError):
    """Two partitions that should have equal size do not."""


class SizeTooLarge(ValueError):
    """Requested enumeration or embedding beyond the configured size cap."""


class EmbeddingCheckFailed(ArithmeticError):
    """An embedded bipartition came out with the wrong size."""


def check_partition(parts: Sequence[int]) -> Partition:
    """Validate and normalize to a tuple of weakly decreasing positive ints.
    A part that is not an int (2.5, True, "2") is refused, not converted."""
    out = tuple(parts)
    for i, p in enumerate(out):
        if type(p) is not int:
            raise ValueError(f"parts must be integers, got {p!r}")
        if p < 1:
            raise ValueError(f"parts must be positive, got {p}")
        if i and out[i - 1] < p:
            raise ValueError(f"parts must weakly decrease, got {out}")
    return out


def parse_partition(text: str) -> Partition:
    """Inverse of render_partition; "" is the empty partition.

    >>> parse_partition("3,2,1")
    (3, 2, 1)
    >>> parse_partition("")
    ()
    """
    text = text.strip()
    if not text:
        return ()
    return check_partition([int(tok) for tok in text.split(",")])


def render_partition(p: Partition) -> str:
    return ",".join(str(part) for part in p)


def parse_bipartition(text: str) -> Bipartition:
    """Inverse of render_bipartition.

    >>> parse_bipartition("3,1|2")
    ((3, 1), (2,))
    """
    first, sep, second = text.partition("|")
    if not sep:
        raise ValueError(f"bipartition text needs a '|': {text!r}")
    return parse_partition(first), parse_partition(second)


def render_bipartition(b: Bipartition) -> str:
    return f"{render_partition(b[0])}|{render_partition(b[1])}"


def n_invariant(p: Partition) -> int:
    """sum of (i - 1) * p_i over the parts, rows numbered from 1.

    >>> n_invariant((1, 1, 1, 1))
    6
    """
    return sum(i * part for i, part in enumerate(p))


def dominates(p: Partition, q: Partition) -> bool:
    """True iff p is dominated by q: every partial sum of p is at most the
    corresponding partial sum of q. Both must have the same size."""
    if sum(p) != sum(q):
        raise SizeMismatch(f"|{p}| = {sum(p)} but |{q}| = {sum(q)}")
    total_p = total_q = 0
    for i in range(max(len(p), len(q))):
        total_p += p[i] if i < len(p) else 0
        total_q += q[i] if i < len(q) else 0
        if total_p > total_q:
            return False
    return True


def is_e_regular(p: Partition, e: int) -> bool:
    """True iff no part value repeats e or more times.

    >>> is_e_regular((2, 2, 1), 2), is_e_regular((2, 2, 1), 3)
    (False, True)
    """
    if e < 2:
        raise ValueError(f"need e >= 2, got {e}")
    run = 0
    prev = None
    for part in p:
        run = run + 1 if part == prev else 1
        if run >= e:
            return False
        prev = part
    return True


def list_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order: (n) first,
    (1^n) last."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > MAX_PARTITION_SIZE:
        raise SizeTooLarge(f"n = {n} exceeds cap {MAX_PARTITION_SIZE}")
    out: list[Partition] = []

    def grow(prefix: list[int], remaining: int, limit: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(limit, remaining), 0, -1):
            prefix.append(part)
            grow(prefix, remaining - part, part)
            prefix.pop()

    grow([], n, n if n else 1)
    return out


def list_bipartitions(m: int) -> list[Bipartition]:
    """All bipartitions of m: first-component size descending from m to 0,
    then reverse lexicographic within each component."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if m > MAX_PARTITION_SIZE:
        raise SizeTooLarge(f"m = {m} exceeds cap {MAX_PARTITION_SIZE}")
    # p(k) for k <= m, by the generating function prod 1/(1 - x^part)
    p = [1] + [0] * m
    for part in range(1, m + 1):
        for k in range(part, m + 1):
            p[k] += p[k - part]
    count = sum(p[k] * p[m - k] for k in range(m + 1))
    if count > MAX_BIPARTITIONS:
        raise SizeTooLarge(
            f"m = {m} has {count} bipartitions, above the cap "
            f"{MAX_BIPARTITIONS}"
        )
    out: list[Bipartition] = []
    for k in range(m, -1, -1):
        seconds = list_partitions(m - k)
        for first in list_partitions(k):
            for second in seconds:
                out.append((first, second))
    return out


# ----- beta-numbers and the two-runner abacus --------------------------------


def _beta_set(p: Partition, beads: int) -> list[int]:
    """First-column beta-numbers with the given number of beads
    (beads >= len(p)); strictly decreasing."""
    if beads < len(p):
        raise ValueError(f"need at least {len(p)} beads for {p}")
    return [
        (p[i] if i < len(p) else 0) + beads - 1 - i for i in range(beads)
    ]


def _partition_from_beta(betas: Iterable[int]) -> Partition:
    """Inverse of _beta_set; accepts any set of distinct nonnegative ints."""
    ordered = sorted(betas, reverse=True)
    beads = len(ordered)
    parts = [b - (beads - 1 - i) for i, b in enumerate(ordered)]
    return tuple(part for part in parts if part > 0)


def _runner_split(p: Partition, beads: int) -> tuple[list[int], list[int]]:
    """Rows of the beads on runner 0 and runner 1 of the 2-runner abacus."""
    rows0, rows1 = [], []
    for b in _beta_set(p, beads):
        if b % 2 == 0:
            rows0.append(b // 2)
        else:
            rows1.append(b // 2)
    return rows0, rows1


def _default_beads(p: Partition, parity: int) -> int:
    beads = max(len(p), 1)
    if beads % 2 != parity % 2:
        beads += 1
    return beads


def two_core(p: Partition) -> Partition:
    """The 2-core: push all beads up their runners and read the partition
    back off. Always a staircase (k, k-1, ..., 1)."""
    rows0, rows1 = _runner_split(p, _default_beads(p, 0))
    core_betas = [2 * i for i in range(len(rows0))] + [
        2 * i + 1 for i in range(len(rows1))
    ]
    return _partition_from_beta(core_betas)


def two_quotient(p: Partition) -> Bipartition:
    """The 2-quotient, as (runner-1 partition, runner-0 partition) with an
    even bead count. |p| = |two_core(p)| + 2 * |both quotient components|."""
    rows0, rows1 = _runner_split(p, _default_beads(p, 0))
    return _partition_from_beta(rows1), _partition_from_beta(rows0)


def _embed_with_parity(b: Bipartition, s: int) -> Partition:
    first, second = b
    # Enough beads that both runner beta-sets fit; parity matches s.
    half = max(len(first), len(second)) + 1
    beads = 2 * half + (1 if s else 0)
    beads1 = (beads + 1) // 2  # runner 1 carries the first component
    beads0 = beads // 2  # runner 0 carries the second component
    rows1 = _beta_set(first, beads1)
    rows0 = _beta_set(second, beads0)
    betas = [2 * r + 1 for r in rows1] + [2 * r for r in rows0]
    return _partition_from_beta(betas)


def embed_bipartition(b: Bipartition, s: int) -> Partition:
    """The unique partition of 2m + s (m the total size of b) with 2-core
    () for s = 0, (1) for s = 1, whose two-runner quotient read with a
    bead count of parity s is b. For s = 0 this is the 2-quotient;
    for s = 1 the odd bead count swaps the runners relative to
    two_quotient, which always uses an even count."""
    if type(s) is not int or s not in (0, 1):
        raise ValueError(f"s must be 0 or 1, got {s!r}")
    first = check_partition(b[0])
    second = check_partition(b[1])
    m = sum(first) + sum(second)
    if 2 * m + s > MAX_PARTITION_SIZE:
        raise SizeTooLarge(
            f"embedded size {2 * m + s} exceeds cap {MAX_PARTITION_SIZE}"
        )
    result = _embed_with_parity((first, second), s)
    if sum(result) != 2 * m + s:
        raise EmbeddingCheckFailed(
            f"embedding {render_bipartition(b)} with s = {s} gave a "
            f"partition of {sum(result)}, not {2 * m + s}"
        )
    return result


def extract_bipartition(p: Partition, s: int) -> Bipartition:
    """Inverse of embed_bipartition. Requires the 2-core of p to match s
    (empty for s = 0, (1) for s = 1) and |p| = 2m + s."""
    if type(s) is not int or s not in (0, 1):
        raise ValueError(f"s must be 0 or 1, got {s!r}")
    p = check_partition(p)
    core = two_core(p)
    expected_core: Partition = () if s == 0 else (1,)
    if core != expected_core:
        raise ValueError(
            f"partition {p} has 2-core {core}, expected {expected_core} "
            f"for s = {s}"
        )
    rows0, rows1 = _runner_split(p, _default_beads(p, s))
    return _partition_from_beta(rows1), _partition_from_beta(rows0)


def a_invariant_unitary(b: Bipartition, s: int) -> int:
    """n_invariant of the embedded partition: the a-invariant attached to
    a bipartition of m under the weight choice (2s+1, 2, ..., 2)."""
    return n_invariant(embed_bipartition(b, s))
