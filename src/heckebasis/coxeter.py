"""Finite Coxeter groups with integer weight functions.

A datum bundles a Coxeter matrix, a weight function L on the generators
(constant on conjugate generators, i.e. L(s) = L(t) whenever m(s,t) is
odd), and the fully enumerated group: every element gets a ShortLex
normal word, and its right and left multiplication by generators and
inverse are tabulated as flat arrays indexed by element index
(row-major in the generator for the multiplication tables). Each fact
is held once: the length of an element and its last letter are read
off its word, its BFS parent (the word less its last letter) is right
multiplication by that letter, and since elements are ordered by
length and s*w differs from w in length by one, l(s*w) > l(w) exactly
when s*w comes after w.

Two more facts are kept per group, not per element. The generator
classes are the components of the graph whose edges are the odd bonds:
generators in one class are conjugate, so L is constant on each. The
class counts give, for each tuple (n_1, ..., n_k), how many elements
have n_c letters of class c in a reduced word; braid moves keep the
letters of each class, so the count does not depend on the word. They
are held as columns, one tuple of element counts and one tuple of
letter counts per class, so a sum over them maps over whole columns.
An element's weight L(w) is the sum of L over its word, and a
polynomial in u^L(w), such as the Poincare polynomial, is a sum over
the class counts (see reps).

Every table depends on the Coxeter matrix only. The tables are
enumerated once per matrix per process and shared read-only by every
datum on that matrix, through a least-recently-used cache that holds at
most DEFAULT_GROUP_CAP elements together, as many as one build at the
default cap. A datum adds only its weights, one per generator, and
does no work per element. The table builds are the only mutation, and
the cache is locked; afterwards a datum is read-only and safe to share
between threads.

Elements of every type are told apart the same way: each generator acts
as a permutation of the root system of the geometric representation,
which is faithful for every Coxeter group. Each root lies in one
irreducible component and is computed exactly over that component's
ring Z[zeta_2M], M the lcm of its bond orders above 3 (bonds 2 and 3
contribute the integers 0 and 1, so type A works over Z, type B over
Z[zeta_8] and H3, H4 over Z[zeta_10]). An element w is keyed by
where w^-1 sends the simple roots. The type tag only fixes the Coxeter
matrix; those of types a, b and g2 are built and validated once per
(tag, rank), and only a matrix the caller passes is validated on each
call. Rank and weights are checked on every call. Before any root or
element is computed, group_order reads |W| off the Coxeter matrix, from
the classification of the finite irreducible types, and an infinite
group or one above the cap is refused; so is a matrix with a component
whose root ring Z[zeta_2M] has degree phi(2M) above MAX_ROOT_DEGREE,
since the cap bounds the elements but not the ring arithmetic of each
root.

The enumeration is a breadth-first search one length at a time. Since
l(w*s) = l(w) +- 1 in every Coxeter group, each right product w*s lies
one level above or one level below w. A product found one level up,
v*s = w, also fills the descent w*s = v, so each element computes only
its ascents, and looks their keys up among the next level's alone. No
key outlives the level after its own, so a build's peak memory is its
tables plus the keys of two levels.

Element order is deterministic: by length, then lexicographically by
ShortLex normal word. Words render as "s1.s2.s1" (generators are
1-based in text), the identity renders as "e".
"""

from __future__ import annotations

import functools
import math
import threading
from array import array
from collections import Counter, OrderedDict
from operator import itemgetter, methodcaller
from typing import NamedTuple, Sequence

from . import DEFAULT_GROUP_CAP
from .laurent import MAX_TOTIENT, CyclotomicInt, euler_phi

__all__ = [
    "CoxeterDatum",
    "GroupElement",
    "InvalidWeights",
    "UnsupportedType",
    "GroupTooLarge",
    "build_datum",
    "validate_datum",
    "group_order",
    "datum_from_json_dict",
    "DEFAULT_GROUP_CAP",
]


@functools.cache
def _letters(rank: int) -> dict[str, int]:
    """The generator tokens s1, ..., s<rank>, to the generator index."""
    return {f"s{s + 1}": s for s in range(rank)}


# The largest generator weight; a weight this large already gives
# exponents far beyond any computation this package can run.
MAX_WEIGHT = 2**31 - 1

# Largest degree phi(2M) of the ring Z[zeta_2M] that roots are computed
# in. A root is a vector of phi(2M) ints per generator and a reflection
# multiplies such vectors, so the root system of I2(m) costs about
# m * phi(2M)^2: 0.03 s at phi = 48 (m = 90), 0.10 s at 64 (m = 120),
# 0.37 s at 96 (m = 119), 0.42 s at 128 (m = 240) and 8.2 s at 400
# (m = 500), in process on one Xeon core, CPython 3.11.
MAX_ROOT_DEGREE = 64


class InvalidWeights(ValueError):
    """Weight list malformed or not constant on odd-bonded generator pairs."""


class UnsupportedType(ValueError):
    """Unknown type tag, or a request this type cannot satisfy."""


class GroupTooLarge(ValueError):
    """Enumeration exceeded the configured group order cap."""


class GroupOrderMismatch(ArithmeticError):
    """The enumerated group disagrees with the order group_order reads off
    its Coxeter matrix, or its right multiplication table has a gap."""


class GroupElement(NamedTuple):
    """An element of a fixed CoxeterDatum; equality means same datum object
    and same ShortLex normal form. As a tuple it equals (datum, index)."""

    datum: "CoxeterDatum"
    index: int

    def __repr__(self) -> str:
        return f"<{self.datum.render_element(self)}>"


@functools.cache
def _root_rings(
    matrix: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each irreducible component, as its sorted generators, with 2M, M the
    lcm of its bond orders above 3 (or 1): the roots of that component lie
    in Z[zeta_2M]."""
    rings = []
    for nodes in _components(matrix, lambda m: m > 2):
        bonds = (matrix[s][t] for s in nodes for t in nodes if matrix[s][t] > 3)
        rings.append((tuple(nodes), 2 * math.lcm(*bonds)))
    return tuple(rings)


def _root_permutations(
    matrix: tuple[tuple[int, ...], ...], bound: int
) -> tuple[tuple[int, ...], ...]:
    """The generators as permutations of the root system of the geometric
    representation. Each root lies in one irreducible component and is
    held as (component, coordinates on its generators), computed exactly
    over that component's ring (see _root_rings); a generator of another
    component fixes it. The bond m enters as 2cos(pi/m), which is the
    integer 0 or 1 for m = 2 or 3. Roots are numbered in discovery order
    from the simple roots, so root s is alpha_s, and perms[s][i] is the
    number of s(root i). A finite group has at most 2|W| - 2 roots, so a
    system above 2*bound + 2 roots raises GroupTooLarge before any element
    is enumerated."""
    rank = len(matrix)
    zeta = CyclotomicInt.zeta
    rings = _root_rings(matrix)
    component = [0] * rank  # the component of each generator
    place = [0] * rank  # its place among the generators of its component
    roots = [None] * rank
    two_cos = {}
    for c, (nodes, order) in enumerate(rings):
        one, zero = CyclotomicInt.one(order), CyclotomicInt.zero(order)
        for p, s in enumerate(nodes):
            component[s], place[s] = c, p
            roots[s] = (c, tuple(one if t == s else zero for t in nodes))
            for t in nodes:
                if t == s:
                    continue
                m = matrix[s][t]
                if m <= 3:
                    two_cos[s, t] = CyclotomicInt.from_int(order, m - 2)
                else:
                    k = order // (2 * m)
                    two_cos[s, t] = zeta(order, k) + zeta(order, -k)

    def reflect(s: int, vec: tuple) -> tuple:
        p = place[s]
        new_s = -vec[p]
        for q, t in enumerate(rings[component[s]][0]):
            if q != p and vec[q]:
                new_s = new_s + two_cos[s, t] * vec[q]
        return vec[:p] + (new_s,) + vec[p + 1 :]

    root_cap = 2 * bound + 2
    seen = {r: i for i, r in enumerate(roots)}
    perms: list[list[int]] = [[] for _ in range(rank)]
    for i, (c, vec) in enumerate(roots):  # grows while it is walked
        for s in range(rank):
            if component[s] != c:
                perms[s].append(i)
                continue
            image = (c, reflect(s, vec))
            j = seen.get(image)
            if j is None:
                j = seen[image] = len(roots)
                roots.append(image)
                if len(roots) > root_cap:
                    raise GroupTooLarge(
                        f"root system exceeds {root_cap} roots; "
                        "the group is infinite or above the cap"
                    )
            perms[s].append(j)
    return tuple(tuple(p) for p in perms)


class _Tables(NamedTuple):
    """The weight-free tables of an enumerated group. Indexed by element
    index: the ShortLex normal word (one byte per letter), right and left
    multiplication by generators (row-major in the generator) and
    inverse. The BFS parent of element i > 0, its word less the last
    letter s, is right[i * rank + s]. These are all that outlive the
    build: the keys of the elements are dropped a level at a time, so
    the build's peak memory is about these tables. Per group: the class
    of each generator, and the class counts as the columns (elements,
    letters) of _class_counts."""

    words: list[bytes]
    right: array
    left: array
    inverse: array
    classes: tuple[int, ...]
    class_counts: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _components(matrix: tuple[tuple[int, ...], ...], joined) -> list[list[int]]:
    """The connected components of the graph on the generators with an
    edge s - t wherever joined(m(s, t)), each sorted, in the order of
    their least generator."""
    rank = len(matrix)
    seen = [False] * rank
    components = []
    for start in range(rank):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for s in component:  # grows while it is walked: a breadth-first search
            for t in range(rank):
                if not seen[t] and joined(matrix[s][t]):
                    seen[t] = True
                    component.append(t)
        components.append(sorted(component))
    return components


def _generator_classes(matrix: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The class of each generator: the components of the graph whose
    edges are the odd bonds, numbered in the order of their least
    generator."""
    classes = [0] * len(matrix)
    for c, component in enumerate(_components(matrix, lambda m: m % 2)):
        for s in component:
            classes[s] = c
    return tuple(classes)


def _class_counts(
    words: list[bytes], classes: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """How many words have n_c letters of class c, for each (n_1, ..., n_k)
    in ascending order, as the columns (elements, letters): elements[i]
    words have letters[c][i] letters of class c. The letters of class c
    are what is left of a word once every other letter is deleted (with
    one class, the word itself), so the count runs in builtins, one
    column per class, with no list per element."""
    columns = []
    for c in range(max(classes) + 1):
        others = bytes(s for s, d in enumerate(classes) if d != c)
        kept = map(methodcaller("translate", None, others), words) if others else words
        columns.append(map(len, kept))
    counts, elements = zip(*sorted(Counter(zip(*columns)).items()))
    return elements, tuple(zip(*counts))


def _enumerate(matrix: tuple[tuple[int, ...], ...], bound: int) -> _Tables:
    """Enumerate the group of a validated Coxeter matrix, uncached; a group
    with more than bound elements raises GroupTooLarge. The tables grow
    with the elements found, one length at a time: the descents of an
    element are filled from the level below, its ascents are looked up in
    the level above, and only the keys of those two levels are held."""
    rank = len(matrix)
    perms = _root_permutations(matrix, bound)
    # An element w is keyed by the root numbers of w^-1(root i) for the
    # first max(rank, 2) roots; the simple roots alone determine w, and
    # at rank 1 the key also carries -alpha_1 (root 1) because
    # itemgetter of a single index returns a bare item, not a tuple.
    # Then key(w s)[i] = perms[s][key(w)[i]].
    identity = tuple(range(max(rank, 2)))
    letters = [bytes((s,)) for s in range(rank)]
    unfilled = array("i", [-1]) * rank
    # BFS in ShortLex order: processing elements in discovery order and
    # generators ascending yields normal words sorted by (length, word).
    # A row is unfilled (-1) when its element is found, and v s = w
    # fills right[v, s] = w and right[w, s] = v, so an entry of w still
    # unfilled when w is reached is an ascent.
    words = [b""]
    right = array("i", unfilled)
    level = {identity: 0}
    while level:
        above = {}
        for key, i in level.items():
            act = itemgetter(*key)
            row = i * rank
            for s, filled in enumerate(right[row : row + rank]):
                if filled >= 0:  # a descent, filled from below
                    continue
                image = act(perms[s])
                j = above.get(image)
                if j is None:
                    j = len(words)
                    if j >= bound:
                        raise GroupTooLarge(f"group order exceeds {bound}")
                    above[image] = j
                    words.append(words[i] + letters[s])
                    right.extend(unfilled)
                right[row + s] = j
                right[j * rank + s] = i
        level = above
    # Left action: t*(p*s) = (t*p)*s, with p = (p*s)*s the BFS parent.
    # Inverse: (p*s)^-1 = s*p^-1; p^-1 is shorter than p*s, so it comes
    # earlier in the element order and its left row is already filled.
    left = array("i", right[:rank])
    inverse = array("i", [0])
    for i in range(1, len(words)):
        s = words[i][-1]
        p = right[i * rank + s]
        row = p * rank
        left.extend([right[x * rank + s] for x in left[row : row + rank]])
        inverse.append(left[inverse[p] * rank + s])
    classes = _generator_classes(matrix)
    return _Tables(
        words, right, left, inverse, classes, _class_counts(words, classes)
    )


class _GroupCache:
    """Enumerated groups by Coxeter matrix, least recently used first,
    holding at most bound elements together; a group larger than bound is
    enumerated but not kept. A lock makes it safe to share between
    threads."""

    def __init__(self, bound: int):
        self.bound = bound
        self._groups: OrderedDict[tuple, _Tables] = OrderedDict()
        self._elements = 0
        self._lock = threading.Lock()

    def tables(self, matrix: tuple[tuple[int, ...], ...]) -> _Tables:
        """The tables of a validated Coxeter matrix of finite type,
        enumerated on the first request; the enumerated size is held
        against group_order."""
        order = group_order(matrix)
        with self._lock:
            tables = self._groups.get(matrix)
            if tables is not None:
                self._groups.move_to_end(matrix)
                return tables
            try:
                tables = _enumerate(matrix, order)
            except GroupTooLarge as exc:
                raise GroupOrderMismatch(
                    f"enumeration exceeds the group order {order} read off "
                    f"the Coxeter matrix {matrix}"
                ) from exc
            if len(tables.words) != order:
                raise GroupOrderMismatch(
                    f"enumerated {len(tables.words)} elements, but the group "
                    f"order read off the Coxeter matrix {matrix} is {order}"
                )
            unfilled = tables.right.count(-1)
            if unfilled:
                raise GroupOrderMismatch(
                    f"{unfilled} of the {len(tables.right)} right products "
                    f"of the Coxeter matrix {matrix} are unfilled"
                )
            if order <= self.bound:
                while self._elements + order > self.bound:
                    _, evicted = self._groups.popitem(last=False)
                    self._elements -= len(evicted.words)
                self._groups[matrix] = tables
                self._elements += order
            return tables


# One maximal build at the default cap already holds this many elements.
_GROUPS = _GroupCache(DEFAULT_GROUP_CAP)


class CoxeterDatum:
    """A finite Coxeter group with weights, fully enumerated.

    Do not call directly; use build_datum().
    """

    def __init__(
        self,
        type_tag: str,
        rank: int,
        coxeter_matrix: tuple[tuple[int, ...], ...],
        weights: tuple[int, ...],
        tables: _Tables,
    ):
        self.type_tag = type_tag
        self.rank = rank
        self.coxeter_matrix = coxeter_matrix
        self.weights = weights
        (
            self._words, self._right, self._left, self._inverse,
            self._classes, self._class_counts,
        ) = tables
        self.size = len(self._words)

    # ----- elements -------------------------------------------------------

    def element(self, index: int) -> GroupElement:
        if not 0 <= index < self.size:
            raise IndexError(f"element index {index} out of range")
        return GroupElement(self, index)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def generator(self, s: int) -> GroupElement:
        if not 0 <= s < self.rank:
            raise IndexError(f"generator index {s} out of range")
        return GroupElement(self, self._right[s])

    def generators(self) -> list[GroupElement]:
        return [self.generator(s) for s in range(self.rank)]

    def elements(self) -> list[GroupElement]:
        """All elements, by length then lexicographic ShortLex normal word."""
        return [GroupElement(self, i) for i in range(self.size)]

    def longest_element(self) -> GroupElement:
        return GroupElement(self, self.size - 1)

    # ----- word structure ---------------------------------------------------

    def _own(self, x: GroupElement) -> int:
        if x.datum is not self:
            raise ValueError("element belongs to a different datum")
        return x.index

    def reduced_word(self, x: GroupElement) -> tuple[int, ...]:
        return tuple(self._words[self._own(x)])

    def length(self, x: GroupElement) -> int:
        return len(self._words[self._own(x)])

    def weight(self, x: GroupElement) -> int:
        """L(x), the sum of the weights of the letters of its word."""
        return sum(map(self.weights.__getitem__, self._words[self._own(x)]))

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        i = self._own(x)
        for s in self._words[self._own(y)]:
            i = self._right[i * self.rank + s]
        return GroupElement(self, i)

    def inverse(self, x: GroupElement) -> GroupElement:
        return GroupElement(self, self._inverse[self._own(x)])

    def left_multiply_generator(self, s: int, x: GroupElement) -> GroupElement:
        """s * x through the tabulated left action."""
        return GroupElement(self, self._left[self._own(x) * self.rank + s])

    # ----- text and JSON -----------------------------------------------------

    def render_element(self, x: GroupElement) -> str:
        return self._render(self._own(x))

    def _render(self, i: int) -> str:
        word = self._words[i]
        if not word:
            return "e"
        return ".".join(f"s{s + 1}" for s in word)

    def parse_element(self, text: str) -> GroupElement:
        """Accepts any word "s1.s2..." (not necessarily reduced) or "e";
        a letter is exactly one of s1 to s<rank>, in ASCII digits."""
        text = text.strip()
        if text in ("", "e"):
            return self.identity
        letters = _letters(self.rank)
        i = 0
        for token in text.split("."):
            s = letters.get(token)
            if s is None:
                raise ValueError(
                    f"bad generator token {token!r}: expected s1 to s{self.rank}"
                )
            i = self._right[i * self.rank + s]
        return GroupElement(self, i)

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_tag,
            "rank": self.rank,
            "weights": list(self.weights),
            "coxeterMatrix": [list(row) for row in self.coxeter_matrix],
        }

    def __repr__(self) -> str:
        return (
            f"CoxeterDatum(type={self.type_tag!r}, rank={self.rank}, "
            f"weights={self.weights}, size={self.size})"
        )


def _validate_matrix(matrix: Sequence[Sequence[int]], rank: int) -> tuple:
    if len(matrix) != rank or any(len(row) != rank for row in matrix):
        raise ValueError(f"Coxeter matrix must be {rank}x{rank}")
    for s in range(rank):
        if type(matrix[s][s]) is not int or matrix[s][s] != 1:
            raise ValueError("Coxeter matrix diagonal must be 1")
        for t in range(rank):
            if s != t:
                m = matrix[s][t]
                if type(m) is not int or m < 2:
                    raise ValueError(
                        f"off-diagonal bond orders must be integers >= 2, "
                        f"got m({s},{t}) = {m!r}"
                    )
                if matrix[t][s] != m:
                    raise ValueError("Coxeter matrix must be symmetric")
    return tuple(tuple(row) for row in matrix)


@functools.cache
def _standard_matrix(tag: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The validated Coxeter matrix of type a, b or g2 at a rank the type
    allows, built once per (tag, rank); group_order and _root_rings cache
    by this same tuple."""
    if tag == "g2":
        matrix = [[1, 6], [6, 1]]
    else:
        matrix = [
            [1 if s == t else (3 if abs(s - t) == 1 else 2) for t in range(rank)]
            for s in range(rank)
        ]
        if tag == "b":
            matrix[0][1] = matrix[1][0] = 4
    return _validate_matrix(matrix, rank)


# |W| of the exceptional irreducible types E6, E7 and E8, by rank.
_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}


def _component_order(matrix: tuple, nodes: list[int]) -> int:
    """The order of the irreducible Coxeter group on the connected Coxeter
    graph of nodes (edges where the bond is at least 3), recognised as
    A_n, B_n, D_n, E6-E8, F4, H3, H4 or I2(m); GroupTooLarge otherwise,
    since every other connected Coxeter graph gives an infinite group."""
    n = len(nodes)
    if n == 1:
        return 2
    adjacent = {s: [t for t in nodes if t != s and matrix[s][t] > 2] for s in nodes}
    if n == 2:
        s, t = nodes
        return 2 * matrix[s][t]  # I2(m)
    edges = [(s, t) for s in nodes for t in adjacent[s] if s < t]
    heavy = [(s, t) for s, t in edges if matrix[s][t] > 3]
    ends = {s for s in nodes if len(adjacent[s]) == 1}
    branches = [s for s in nodes if len(adjacent[s]) > 2]
    if len(edges) == n - 1 and not branches:  # a path
        if not heavy:
            return math.factorial(n + 1)  # A_n
        if len(heavy) == 1:
            ((s, t),) = heavy
            m, at_end = matrix[s][t], s in ends or t in ends
            if m == 4 and at_end:
                return 2**n * math.factorial(n)  # B_n
            if m == 4 and n == 4:
                return 1152  # F4
            if m == 5 and at_end and n in (3, 4):
                return 120 if n == 3 else 14400  # H3, H4
    elif len(edges) == n - 1 and not heavy and len(branches) == 1:
        (centre,) = branches
        arms = []
        for first in adjacent[centre]:
            previous, current, arm = centre, first, 1
            while len(adjacent[current]) == 2:
                previous, current = current, next(
                    t for t in adjacent[current] if t != previous
                )
                arm += 1
            arms.append(arm)
        arms.sort()
        if arms[:2] == [1, 1] and len(arms) == 3:
            return 2 ** (n - 1) * math.factorial(n)  # D_n
        if arms[:2] == [1, 2] and len(arms) == 3 and n in _E_ORDERS:
            return _E_ORDERS[n]  # E6, E7, E8
    raise GroupTooLarge(
        f"the Coxeter graph on generators {[s + 1 for s in nodes]} is not of "
        "finite type; the group is infinite"
    )


@functools.cache
def group_order(matrix: tuple[tuple[int, ...], ...]) -> int:
    """|W| for a validated Coxeter matrix, without enumerating anything: the
    product of the orders of its irreducible components. A component that
    is not of finite type raises GroupTooLarge.

    >>> group_order(((1, 6), (6, 1)))
    12
    >>> group_order(((1, 4, 2), (4, 1, 3), (2, 3, 1)))
    48
    """
    order = 1
    for component in _components(matrix, lambda m: m > 2):
        order *= _component_order(matrix, component)
    return order


def _validate_weights(
    weights: Sequence[int], matrix: tuple, rank: int
) -> tuple[int, ...]:
    if len(weights) != rank:
        raise InvalidWeights(f"need {rank} weights, got {len(weights)}")
    out = []
    for w in weights:
        if type(w) is not int or w < 0:
            raise InvalidWeights(f"weights must be nonnegative integers, got {w!r}")
        if w > MAX_WEIGHT:
            raise InvalidWeights(f"weight {w} exceeds the maximum {MAX_WEIGHT}")
        out.append(w)
    for s in range(rank):
        for t in range(s + 1, rank):
            if matrix[s][t] % 2 == 1 and out[s] != out[t]:
                raise InvalidWeights(
                    f"generators {s + 1} and {t + 1} are joined by an odd bond "
                    f"(m = {matrix[s][t]}) so their weights must agree; "
                    f"got {out[s]} and {out[t]}"
                )
    return tuple(out)


def validate_datum(
    type_tag: str,
    rank: int,
    weights: Sequence[int],
    coxeter_matrix: Sequence[Sequence[int]] | None = None,
    cap: int = DEFAULT_GROUP_CAP,
) -> tuple[str, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The lower-case type tag, Coxeter matrix and weights build_datum
    enumerates, checked as build_datum checks them but without enumerating
    anything. A rank-r group has order at least 2^r (the product of its r
    degrees, each >= 2), so a rank whose 2^rank exceeds cap is refused
    before the rank x rank matrix is built, and an infinite group is
    refused by group_order. An irreducible component whose root ring has
    degree above MAX_ROOT_DEGREE raises UnsupportedType. The order itself
    is held against cap by build_datum only, so a finite group of any rank
    below that bound validates."""
    tag = type_tag.lower()
    if type(rank) is not int:
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if abs(cap) >> rank == 0:  # 2^rank exceeds cap
        raise GroupTooLarge(
            f"a group of rank {rank} has order at least 2^{rank}, "
            f"which exceeds cap {cap}"
        )
    if rank > 255:
        raise UnsupportedType(
            f"rank {rank} exceeds 255: generators are stored as one byte"
        )
    try:
        weights = list(weights)
    except TypeError:
        raise InvalidWeights(
            f"weights must be a sequence of integers, got {weights!r}"
        ) from None
    if tag == "a":
        matrix = _standard_matrix(tag, rank)
    elif tag == "b":
        if rank < 2:
            raise UnsupportedType("type b needs rank >= 2")
        if len(weights) == 2 and rank > 2:
            weights = [weights[0]] + [weights[1]] * (rank - 1)
        matrix = _standard_matrix(tag, rank)
    elif tag == "g2":
        if rank != 2:
            raise UnsupportedType("type g2 has rank 2")
        matrix = _standard_matrix(tag, rank)
    elif tag == "custom":
        if coxeter_matrix is None:
            raise UnsupportedType("custom data require an explicit Coxeter matrix")
        matrix = _validate_matrix(coxeter_matrix, rank)
    else:
        raise UnsupportedType(f"unknown type tag {type_tag!r}")
    if coxeter_matrix is not None and tag != "custom":
        if _validate_matrix(coxeter_matrix, rank) != matrix:
            raise ValueError(
                f"explicit Coxeter matrix contradicts type {type_tag!r}"
            )
    weights_t = _validate_weights(weights, matrix, rank)
    group_order(matrix)  # refuses a matrix that is not of finite type
    for _, ring in _root_rings(matrix):
        # phi(n) >= sqrt(n / 2) > MAX_ROOT_DEGREE for n > MAX_TOTIENT, so
        # such a ring is refused without the trial division of euler_phi
        degree = euler_phi(ring) if ring <= MAX_TOTIENT else f"phi({ring})"
        if ring > MAX_TOTIENT or degree > MAX_ROOT_DEGREE:
            raise UnsupportedType(
                f"the roots lie in Z[zeta_{ring}] of degree {degree}, above "
                f"the maximum {MAX_ROOT_DEGREE}"
            )
    return tag, matrix, weights_t


def build_datum(
    type_tag: str,
    rank: int,
    weights: Sequence[int],
    coxeter_matrix: Sequence[Sequence[int]] | None = None,
    cap: int = DEFAULT_GROUP_CAP,
) -> CoxeterDatum:
    """Validate and fully enumerate a weighted Coxeter group.

    type_tag: "a" (symmetric group on rank+1 letters), "b" (hyperoctahedral,
    generator 1 carries the 4-bond), "g2" (dihedral of order 12), or
    "custom" (coxeter_matrix required). For type "b" a weight pair (b, a)
    is accepted and expanded to (b, a, ..., a). A group whose order, read
    off the Coxeter matrix by group_order, exceeds cap raises GroupTooLarge
    before anything is enumerated.
    """
    tag, matrix, weights_t = validate_datum(
        type_tag, rank, weights, coxeter_matrix, cap
    )
    order = group_order(matrix)
    if order > cap:
        raise GroupTooLarge(
            f"group order {order} exceeds cap {cap} for type {tag!r} rank {rank}"
        )
    return CoxeterDatum(tag, rank, matrix, weights_t, _GROUPS.tables(matrix))


def datum_from_json_dict(data: dict, cap: int = DEFAULT_GROUP_CAP) -> CoxeterDatum:
    """The datum of a to_json_dict object. Rank, weights and bond orders
    must be JSON integers: 2.5, "2" or true are rejected, not converted."""
    return build_datum(
        data["type"],
        data["rank"],
        data["weights"],
        coxeter_matrix=data.get("coxeterMatrix"),
        cap=cap,
    )
