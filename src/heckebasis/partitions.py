"""Partitions, bipartitions, the n-invariant, dominance, e-regularity,
2-cores and 2-quotients, and the size-preserving embedding of
bipartitions of m into partitions of n = 2m + s (s in {0, 1}).

Partitions are plain tuples of weakly decreasing positive integers;
bipartitions are pairs of partitions. Text forms: "3,2,1" for a
partition (the empty partition renders as ""), "3,1|2" for a
bipartition.

The 2-core is read off the odd parts in closed form: D, the sum of
(-1)^i over the odd parts p_i (rows numbered from 0), does not change as
dominoes come off, and the core is the staircase (k, ..., 1) with
k = 2D - 1 if D > 0 and k = -2D otherwise (see two_core). The 2-quotient
and the embedding run on first-column beta-numbers laid out on a
two-runner abacus. Convention, fixed once and for all:
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

from operator import add, ge, sub
from typing import Sequence

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
    # one pass of builtins accepts; the loop below names the first fault
    if {*map(type, out)} <= {int} and all(map(ge, out, out[1:])):
        if not out or out[-1] > 0:
            return out
    for i, p in enumerate(out):
        if type(p) is not int:
            raise ValueError(f"parts must be integers, got {p!r}")
        if p < 1:
            raise ValueError(f"parts must be positive, got {p}")
        if i and out[i - 1] < p:
            raise ValueError(f"parts must weakly decrease, got {out}")
    return out


def parse_partition(text: str) -> Partition:
    """Inverse of render_partition; "" is the empty partition. A part is
    exactly ASCII digits: int() alone would also read " +2", "1_0" and
    non-ASCII digits.

    >>> parse_partition("3,2,1")
    (3, 2, 1)
    >>> parse_partition("")
    ()
    """
    if not text:
        return ()
    tokens = text.split(",")
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"parts must be ASCII digits, got {tok!r}")
    return check_partition([int(tok) for tok in tokens])


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
    (1^n) last. Each step rewrites the tail of the previous partition in
    place (Zoghbi and Stojmenovic's ZS1): the last part above 1 drops by
    one, and what it frees, with the trailing 1s, refills at that value."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > MAX_PARTITION_SIZE:
        raise SizeTooLarge(f"n = {n} exceeds cap {MAX_PARTITION_SIZE}")
    if n == 0:
        return [()]
    x = [1] * n
    x[0] = n
    last = big = 0  # index of the last part, and of the last part above 1
    out: list[Partition] = [(n,)]
    while x[0] != 1:
        if x[big] == 2:
            x[big] = 1
            last += 1
            big -= 1
        else:
            r = x[big] - 1
            free = last - big + 1
            x[big] = r
            while free >= r:
                big += 1
                x[big] = r
                free -= r
            if free == 0:
                last = big
            else:
                last = big + 1
                if free > 1:
                    big += 1
                    x[big] = free
        out.append(tuple(x[: last + 1]))
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
    by_size = [list_partitions(k) for k in range(m + 1)]
    return [
        (first, second)
        for k in range(m, -1, -1)
        for first in by_size[k]
        for second in by_size[m - k]
    ]


# ----- beta-numbers and the two-runner abacus --------------------------------


def _beta_set(p: Partition, beads: int) -> list[int]:
    """First-column beta-numbers with the given number of beads
    (beads >= len(p)); strictly decreasing."""
    if beads < len(p):
        raise ValueError(f"need at least {len(p)} beads for {p}")
    return [
        *map(add, p, range(beads - 1, -1, -1)),
        *range(beads - len(p) - 1, -1, -1),
    ]


def _partition_from_beta(betas: Sequence[int]) -> Partition:
    """Inverse of _beta_set; betas must be strictly decreasing and
    nonnegative, as the rows of one runner are."""
    parts = [*map(sub, betas, range(len(betas) - 1, -1, -1))]
    # parts weakly decrease and are nonnegative: the zeros are a suffix
    return tuple(parts[: len(parts) - parts.count(0)])


def _runner_split(p: Partition, beads: int) -> tuple[list[int], list[int]]:
    """Rows of the beads on runner 0 and runner 1 of the 2-runner abacus,
    each strictly decreasing."""
    runners: tuple[list[int], list[int]] = ([], [])
    for b in _beta_set(p, beads):
        runners[b & 1].append(b >> 1)
    return runners


def _default_beads(p: Partition, parity: int) -> int:
    beads = max(len(p), 1)
    if beads % 2 != parity % 2:
        beads += 1
    return beads


def two_core(p: Partition) -> Partition:
    """The 2-core, read off the odd parts. Row i (numbered from 0) of
    length p_i holds one more box of content parity i than of the other
    parity if p_i is odd, and as many if p_i is even. So D, the sum of
    (-1)^i over the odd parts, counts even-content boxes minus odd ones;
    a domino covers one box of each, so D is that of the core. On the
    staircase (k, k-1, ..., 1), D is (k + 1) / 2 for odd k and -k / 2 for
    even k: the core is the staircase with k = 2D - 1 if D > 0 and
    k = -2D otherwise."""
    odd = [part & 1 for part in p]
    d = sum(odd[::2]) - sum(odd[1::2])
    k = 2 * d - 1 if d > 0 else -2 * d
    return tuple(range(k, 0, -1))


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
    return _partition_from_beta(sorted(betas, reverse=True))


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
