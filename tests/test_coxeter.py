"""Coxeter datum construction, element enumeration, multiplication."""

import itertools
import math
import random
import re
import sys
import threading
import time
import tracemalloc
from array import array
from operator import itemgetter

import pytest

from heckebasis import coxeter
from heckebasis.basicsets import basic_set_catalog
from heckebasis.laurent import LaurentPoly
from heckebasis.reps import one_dim_reps, schur_element
from heckebasis.coxeter import (
    GroupOrderMismatch,
    GroupTooLarge,
    InvalidWeights,
    UnsupportedType,
    _enumerate,
    build_datum,
    datum_from_json_dict,
    group_order,
    validate_datum,
)


H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]


def small_groups():
    return [
        build_datum("g2", 2, [3, 1]),
        build_datum("b", 2, [1, 1]),
        build_datum("a", 3, [1, 1, 1]),
        build_datum("b", 3, [1, 2]),
        build_datum("custom", 2, [1, 1], coxeter_matrix=[[1, 5], [5, 1]]),
    ]


class TestConstruction:
    def test_orders(self):
        assert build_datum("g2", 2, [3, 1]).size == 12
        assert build_datum("b", 2, [1, 1]).size == 8
        assert build_datum("b", 3, [2, 1]).size == 48
        assert build_datum("a", 2, [1, 1]).size == 6
        assert build_datum("a", 3, [1, 1, 1]).size == 24
        assert build_datum("a", 4, [1] * 4).size == 120
        assert build_datum("a", 5, [1] * 5).size == 720
        assert build_datum("b", 4, [1, 1]).size == 384
        assert build_datum("custom", 3, [1] * 3, coxeter_matrix=H3).size == 120

    def test_type_a_odd_bond_weight_validation(self):
        with pytest.raises(InvalidWeights):
            build_datum("a", 2, [1, 2])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidWeights):
            build_datum("g2", 2, [-1, 1])

    def test_wrong_weight_count(self):
        with pytest.raises(InvalidWeights):
            build_datum("g2", 2, [1, 1, 1])

    def test_b_weight_pair_expansion(self):
        d = build_datum("b", 4, [3, 2])
        assert d.weights == (3, 2, 2, 2)
        full = build_datum("b", 4, [3, 2, 2, 2])
        assert full.weights == d.weights

    def test_unknown_type(self):
        with pytest.raises(UnsupportedType):
            build_datum("h3", 3, [1, 1, 1])

    def test_custom_needs_matrix(self):
        with pytest.raises(UnsupportedType):
            build_datum("custom", 2, [1, 1])

    def test_custom_matrix_validation(self):
        with pytest.raises(ValueError):
            build_datum("custom", 2, [1, 1], coxeter_matrix=[[1, 5], [4, 1]])
        with pytest.raises(ValueError):
            build_datum("custom", 2, [1, 1], coxeter_matrix=[[2, 3], [3, 1]])
        with pytest.raises(ValueError):
            build_datum("custom", 2, [1, 1], coxeter_matrix=[[1, 1], [1, 1]])
        with pytest.raises(ValueError) as info:
            build_datum("custom", 2, (1, 1), coxeter_matrix=[[1, 3]])
        assert info.type is ValueError
        assert str(info.value) == "Coxeter matrix must be 2x2"

    def test_explicit_matrix_must_match_the_type(self):
        assert build_datum(
            "a", 2, (1, 1), coxeter_matrix=[[1, 3], [3, 1]]
        ).size == 6
        with pytest.raises(ValueError) as info:
            build_datum("a", 2, (1, 1), coxeter_matrix=[[1, 4], [4, 1]])
        assert info.type is ValueError
        assert str(info.value) == "explicit Coxeter matrix contradicts type 'a'"

    def test_type_b_needs_rank_two(self):
        with pytest.raises(UnsupportedType) as info:
            build_datum("b", 1, (1,))
        assert str(info.value) == "type b needs rank >= 2"

    def test_custom_odd_bond_weights(self):
        with pytest.raises(InvalidWeights):
            build_datum("custom", 2, [1, 2], coxeter_matrix=[[1, 3], [3, 1]])

    def test_group_cap(self):
        with pytest.raises(GroupTooLarge):
            build_datum("b", 3, [1, 1], cap=47)
        assert build_datum("b", 3, [1, 1], cap=48).size == 48

    def test_rank_is_bounded_by_the_cap_before_the_matrix(self):
        # |W| >= 2^rank, so rank 20 exceeds the default cap 10^6 < 2^20
        tag, matrix, weights = validate_datum("a", 19, [1] * 19)
        assert (tag, len(matrix), weights) == ("a", 19, (1,) * 19)
        with pytest.raises(GroupTooLarge, match="at least 2\\^20"):
            validate_datum("a", 20, [1] * 20)
        # no rank x rank matrix is built, so this is immediate
        with pytest.raises(GroupTooLarge, match="exceeds cap 1000000"):
            build_datum("a", 10**12, [1])
        with pytest.raises(GroupTooLarge):
            build_datum("a", 2, [1, 1], cap=3)
        assert build_datum("a", 2, [1, 1], cap=6).size == 6

    @pytest.mark.parametrize(
        "tag, rank, weights",
        [("a", 4, [1] * 4), ("b", 3, [2, 1]), ("g2", 2, [3, 1])],
    )
    def test_a_standard_matrix_is_one_object_per_tag_and_rank(
        self, tag, rank, weights
    ):
        _, first, _ = validate_datum(tag, rank, weights)
        _, again, _ = validate_datum(tag.upper(), rank, weights)
        assert again is first
        assert build_datum(tag, rank, weights).coxeter_matrix is first
        # an explicit matrix that agrees with the tag gives the same object
        explicit = [list(row) for row in first]
        assert validate_datum(tag, rank, weights, explicit)[1] is first
        assert first == tuple(map(tuple, explicit))

    def test_refusals_hold_after_a_standard_matrix_is_cached(self):
        # rank and weights are checked on every call, and every refusal
        # keeps its type and message once the matrix of its (tag, rank)
        # has been built
        assert validate_datum("a", 3, [1, 1, 1])[2] == (1, 1, 1)
        with pytest.raises(InvalidWeights) as info:
            validate_datum("a", 3, [1, True, 1])
        assert str(info.value) == "weights must be nonnegative integers, got True"
        with pytest.raises(InvalidWeights, match="need 3 weights, got 2"):
            validate_datum("a", 3, [1, 1])
        assert validate_datum("b", 2, [2, 1])[2] == (2, 1)
        with pytest.raises(InvalidWeights, match="generators 2 and 3"):
            validate_datum("b", 3, [2, 1, 3])
        with pytest.raises(UnsupportedType) as info:
            validate_datum("b", 1, [1])
        assert str(info.value) == "type b needs rank >= 2"
        assert validate_datum("g2", 2, [3, 1])[2] == (3, 1)
        with pytest.raises(UnsupportedType) as info:
            validate_datum("g2", 3, [1, 1, 1])
        assert str(info.value) == "type g2 has rank 2"
        for tag, rank, matrix in (
            ("a", 3, [[1, 3, 2], [3, 1, 4], [2, 4, 1]]),
            ("b", 2, [[1, 3], [3, 1]]),
            ("g2", 2, [[1, 4], [4, 1]]),
        ):
            with pytest.raises(ValueError) as info:
                validate_datum(tag, rank, [1] * rank, matrix)
            assert info.type is ValueError
            assert str(info.value) == (
                f"explicit Coxeter matrix contradicts type {tag!r}"
            )
        with pytest.raises(ValueError, match="must be 3x3"):
            validate_datum("a", 3, [1] * 3, [[1, 3], [3, 1]])

    def test_validate_datum_checks_as_build_datum_does(self):
        assert validate_datum("B", 3, [2, 1]) == (
            "b", build_datum("b", 3, [2, 1]).coxeter_matrix, (2, 1, 1)
        )
        with pytest.raises(InvalidWeights, match="need 3 weights, got 1"):
            validate_datum("a", 3, [1])
        with pytest.raises(UnsupportedType):
            validate_datum("x", 2, [1, 1])

    def test_infinite_custom_group_hits_cap(self):
        # Affine A1~ (bond order would be infinity; a large even stand-in
        # still gives a big dihedral group caught by a small cap).
        with pytest.raises(GroupTooLarge):
            build_datum(
                "custom",
                3,
                [1, 1, 1],
                coxeter_matrix=[[1, 3, 3], [3, 1, 3], [3, 3, 1]],
                cap=100,
            )

    def test_custom_matches_builtin_b2(self):
        native = build_datum("b", 2, [2, 1])
        custom = build_datum("custom", 2, [2, 1], coxeter_matrix=[[1, 4], [4, 1]])
        assert custom.size == native.size == 8
        native_words = [native.render_element(x) for x in native.elements()]
        custom_words = [custom.render_element(x) for x in custom.elements()]
        assert native_words == custom_words

    def test_noncrystallographic_custom(self):
        d = build_datum("custom", 2, [1, 1], coxeter_matrix=[[1, 5], [5, 1]])
        assert d.size == 10
        assert d.length(d.longest_element()) == 5

    def test_twisted_f4_weights_accepted(self):
        f4 = [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
        d = build_datum("custom", 4, [2, 2, 1, 1], coxeter_matrix=f4)
        assert d.size == 1152
        assert d.length(d.longest_element()) == 24
        assert d.weight(d.longest_element()) == 36


def path_matrix(bonds):
    """The Coxeter matrix of a path whose consecutive bonds are given."""
    rank = len(bonds) + 1
    m = [[1 if s == t else 2 for t in range(rank)] for s in range(rank)]
    for s, bond in enumerate(bonds):
        m[s][s + 1] = m[s + 1][s] = bond
    return m


def branched_matrix(arms):
    """The simply laced Coxeter matrix of three paths of the given lengths
    joined at one centre node (D_n for arms 1, 1, n - 3; E_n for 1, 2, n - 4)."""
    rank = 1 + sum(arms)
    m = [[1 if s == t else 2 for t in range(rank)] for s in range(rank)]
    node = 1
    for arm in arms:
        previous = 0
        for _ in range(arm):
            m[previous][node] = m[node][previous] = 3
            previous, node = node, node + 1
    return m


class TestGroupOrder:
    # Every datum the tests and the bench build, plus D4, D5, E6 and a
    # reducible one: (type, rank, weights, matrix).
    BUILT = [
        ("a", 1, [1], None),
        ("a", 2, [1, 1], None),
        ("a", 3, [1] * 3, None),
        ("a", 4, [1] * 4, None),
        ("a", 5, [1] * 5, None),
        ("a", 6, [1] * 6, None),
        ("a", 7, [1] * 7, None),
        ("b", 2, [1, 1], None),
        ("b", 3, [2, 1], None),
        ("b", 4, [3, 2], None),
        ("b", 5, [1, 1], None),
        ("g2", 2, [3, 1], None),
        ("custom", 1, [2], [[1]]),
        ("custom", 2, [1, 2], [[1, 2], [2, 1]]),
        ("custom", 2, [2, 1], [[1, 4], [4, 1]]),
        ("custom", 2, [1, 1], [[1, 5], [5, 1]]),
        ("custom", 3, [1] * 3, H3),
        ("custom", 4, [1] * 4, path_matrix([5, 3, 3])),
        ("custom", 4, [2, 2, 1, 1], path_matrix([3, 4, 3])),
        ("custom", 4, [1] * 4, branched_matrix([1, 1, 1])),
        ("custom", 5, [1] * 5, branched_matrix([1, 1, 2])),
        ("custom", 6, [1] * 6, branched_matrix([1, 2, 2])),
        ("custom", 5, [1, 1, 1, 1, 1], [
            [1, 3, 2, 2, 2],
            [3, 1, 2, 2, 2],
            [2, 2, 1, 5, 2],
            [2, 2, 5, 1, 3],
            [2, 2, 2, 3, 1],
        ]),
    ]

    @pytest.mark.parametrize("tag, rank, weights, matrix", BUILT)
    def test_predicted_order_equals_enumerated_size(self, tag, rank, weights, matrix):
        d = build_datum(tag, rank, weights, coxeter_matrix=matrix)
        assert group_order(d.coxeter_matrix) == d.size

    def test_connected_rank_at_most_three(self):
        # Every connected Coxeter matrix of rank <= 3 with bonds in 2..6:
        # those that enumerate under the cap have the predicted order, and
        # all others (the cap is |H3|, the largest finite order of rank
        # <= 3) are refused as infinite.
        cap = 120
        matrices = [((1,),)] + [((1, m), (m, 1)) for m in range(3, 7)]
        for a, b, c in itertools.product(range(2, 7), repeat=3):
            if sum(m > 2 for m in (a, b, c)) >= 2:  # connected
                matrices.append(((1, a, b), (a, 1, c), (b, c, 1)))
        finite = 0
        for matrix in matrices:
            try:
                size = len(_enumerate(matrix, cap).words)
            except GroupTooLarge:
                with pytest.raises(GroupTooLarge, match="not of finite type"):
                    group_order(matrix)
            else:
                assert group_order(matrix) == size
                finite += 1
        # A1, I2(3..6), then A3 (3 matrices), B3 (6) and H3 (6)
        assert finite == 5 + 3 + 6 + 6

    def test_exceptional_orders_are_products_of_degrees(self):
        degrees = {
            (1, 2, 2): (2, 5, 6, 8, 9, 12),
            (1, 2, 3): (2, 6, 8, 10, 12, 14, 18),
            (1, 2, 4): (2, 8, 12, 14, 18, 20, 24, 30),
        }
        for arms, ds in degrees.items():
            matrix = tuple(map(tuple, branched_matrix(list(arms))))
            assert group_order(matrix) == math.prod(ds)
        assert group_order(tuple(map(tuple, path_matrix([3, 4, 3])))) == 1152
        assert group_order(tuple(map(tuple, path_matrix([5, 3, 3])))) == 14400

    @pytest.mark.parametrize(
        "bonds", [[3, 4, 4], [4, 3, 4], [3, 5, 3], [5, 3, 3, 3], [4, 3, 3, 4], [6, 3]]
    )
    def test_infinite_paths_refused(self, bonds):
        matrix = tuple(map(tuple, path_matrix(bonds)))
        with pytest.raises(GroupTooLarge, match="infinite"):
            group_order(matrix)

    @pytest.mark.parametrize("arms", [[2, 2, 2], [1, 3, 3], [1, 2, 5]])
    def test_infinite_branched_graphs_refused(self, arms):
        matrix = tuple(map(tuple, branched_matrix(arms)))
        with pytest.raises(GroupTooLarge, match="infinite"):
            group_order(matrix)

    def test_large_and_infinite_groups_raise_before_enumerating(self):
        start = time.perf_counter()
        with pytest.raises(GroupTooLarge, match="exceeds cap 1000000"):
            build_datum("b", 19, [1] * 19)
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        with pytest.raises(GroupTooLarge, match="infinite"):
            build_datum(
                "custom", 3, [1, 1, 1],
                coxeter_matrix=[[1, 3, 3], [3, 1, 3], [3, 3, 1]], cap=10**5,
            )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "bonds, degree",
        [([1000], "800"), ([1000, 2], "800"),
         ([10**18], "phi(2000000000000000000)")],
        ids=["I2(1000)", "I2(1000)xA1", "I2(10^18)"],
    )
    def test_root_ring_is_bounded_before_any_root(self, bonds, degree):
        matrix = path_matrix(bonds)
        rank = len(matrix)
        start = time.perf_counter()
        for check in (validate_datum, build_datum):
            with pytest.raises(
                UnsupportedType, match=f"degree {re.escape(degree)}, above"
            ):
                check("custom", rank, [1] * rank, coxeter_matrix=matrix)
        assert time.perf_counter() - start < 0.01
        # I2(120) has the largest root ring allowed: Z[zeta_240], of degree 64
        assert build_datum("custom", 2, [1, 1], path_matrix([120])).size == 240

    def test_root_ring_is_bounded_per_component(self):
        # the lcm of the bonds, 385, would give Z[zeta_770] of degree 240;
        # each factor's roots lie in its own ring, of degree 4, 6 and 10
        matrix = path_matrix([5, 2, 7, 2, 11])
        datum = build_datum("custom", 6, [1] * 6, coxeter_matrix=matrix)
        assert datum.size == group_order(datum.coxeter_matrix) == 10 * 14 * 22


def full_bfs(matrix, bound, perms):
    """The tables of _enumerate by one breadth-first search over all of W
    that keeps the key of every element, and a dict from key to index,
    until the end: computes every right product, descents included, and
    fills left one entry at a time. An oracle for the level-wise search."""
    rank = len(matrix)
    identity = tuple(range(max(rank, 2)))
    words, values, index = [b""], [identity], {identity: 0}
    right = array("i")
    pos = 0
    while pos < len(words):
        act = itemgetter(*values[pos])
        for s in range(rank):
            image = act(perms[s])
            j = index.get(image)
            if j is None:
                j = len(words)
                if j >= bound:
                    raise GroupTooLarge(f"group order exceeds {bound}")
                index[image] = j
                words.append(words[pos] + bytes((s,)))
                values.append(image)
            right.append(j)
        pos += 1
    left = array("i", right[:rank])
    inverse = array("i", [0])
    for i in range(1, len(words)):
        s = words[i][-1]
        p = right[i * rank + s]
        for t in range(rank):
            left.append(right[left[p * rank + t] * rank + s])
        inverse.append(left[inverse[p] * rank + s])
    classes = coxeter._generator_classes(matrix)
    return coxeter._Tables(
        words, right, left, inverse, classes, coxeter._class_counts(words, classes)
    )


def fixed_root_permutations(monkeypatch, matrix):
    """Compute the root permutations of matrix once, and serve them to every
    later _enumerate, so that neither their time nor their memory counts."""
    order = group_order(matrix)
    perms = coxeter._root_permutations(matrix, order)
    monkeypatch.setattr(coxeter, "_root_permutations", lambda m, bound: perms)
    return order, perms


class TestLevelwiseEnumeration:
    """_enumerate goes one length at a time and keeps only the keys of two
    levels; its tables are those of a BFS that keeps every key."""

    @pytest.mark.parametrize(
        "matrix",
        [
            validate_datum(tag, rank, weights, matrix)[1]
            for tag, rank, weights, matrix in TestGroupOrder.BUILT
        ]
        # I2(119), whose root ring validate_datum refuses, and
        # I2(5) x I2(7) x I2(11) x I2(13)
        + [
            tuple(map(tuple, path_matrix(bonds)))
            for bonds in ([119], [5, 2, 7, 2, 11, 2, 13])
        ],
        ids=lambda m: "x".join(map(str, m[0])),
    )
    def test_tables_equal_a_full_dict_bfs(self, monkeypatch, matrix):
        order, perms = fixed_root_permutations(monkeypatch, matrix)
        assert _enumerate(matrix, order) == full_bfs(matrix, order, perms)
        # one element short of the order, both refuse the last element
        with pytest.raises(GroupTooLarge) as oracle:
            full_bfs(matrix, order - 1, perms)
        with pytest.raises(GroupTooLarge) as levelwise:
            _enumerate(matrix, order - 1)
        assert str(levelwise.value) == str(oracle.value)

    @pytest.mark.parametrize(
        "tag, rank, matrix",
        [("a", 6, None), ("custom", 6, branched_matrix([1, 2, 2]))],
        ids=["A6", "E6"],
    )
    def test_a_build_peaks_at_its_tables(self, monkeypatch, tag, rank, matrix):
        # A BFS that keeps every key until the end peaks at 1.8 (A6) and
        # 2.5 (E6) times the tables it returns; with the keys of two
        # levels alive, the peak is the tables themselves.
        matrix = validate_datum(tag, rank, [1] * rank, matrix)[1]
        order, _ = fixed_root_permutations(monkeypatch, matrix)
        tracemalloc.start()
        try:
            tables = _enumerate(matrix, order)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tables.words) == order
        assert peak <= 1.25 * size, (peak, size)

    def test_an_unfilled_right_product_fails_the_build(self, monkeypatch):
        cache = coxeter._GroupCache(coxeter.DEFAULT_GROUP_CAP)
        monkeypatch.setattr(coxeter, "_GROUPS", cache)
        real = coxeter._enumerate

        def gapped(matrix, bound):
            tables = real(matrix, bound)
            tables.right[-1] = -1
            return tables

        monkeypatch.setattr(coxeter, "_enumerate", gapped)
        with pytest.raises(GroupOrderMismatch, match="1 of the 144 right products"):
            build_datum("b", 3, [2, 1])
        assert not cache._groups


class TestWeightsNotASequence:
    @pytest.mark.parametrize("weights", [5, None])
    def test_build_datum(self, weights):
        with pytest.raises(InvalidWeights, match=f"got {weights}"):
            build_datum("b", 3, weights)
        with pytest.raises(InvalidWeights, match=f"got {weights}"):
            validate_datum("b", 3, weights)

    def test_basic_set_catalog(self):
        with pytest.raises(InvalidWeights, match="got 5"):
            basic_set_catalog("g2", {"weights": 5}, 6)


class TestElements:
    @pytest.mark.parametrize(
        "lookup, index, message",
        [("element", 12, "element index 12 out of range"),
         ("element", -1, "element index -1 out of range"),
         ("generator", 2, "generator index 2 out of range"),
         ("generator", -1, "generator index -1 out of range")],
    )
    def test_index_out_of_range(self, lookup, index, message):
        d = build_datum("g2", 2, [3, 1])
        with pytest.raises(IndexError) as info:
            getattr(d, lookup)(index)
        assert info.type is IndexError and str(info.value) == message

    def test_enumeration_order(self):
        d = build_datum("g2", 2, [3, 1])
        words = [d.reduced_word(x) for x in d.elements()]
        keyed = sorted(words, key=lambda w: (len(w), w))
        assert words == keyed
        assert words[0] == ()
        assert words[1] == (0,)
        assert words[2] == (1,)
        assert len(set(words)) == 12

    def test_longest_element_unique_maximum(self):
        for d in small_groups():
            w0 = d.longest_element()
            lengths = [d.length(x) for x in d.elements()]
            assert lengths.count(max(lengths)) == 1
            assert d.length(w0) == max(lengths)
            # w0 is an involution in all these groups
            assert d.multiply(w0, w0) == d.identity

    def test_longest_element_length_equals_positive_root_count(self):
        cases = [
            (build_datum("g2", 2, [3, 1]), 6),
            (build_datum("b", 2, [1, 1]), 4),
            (build_datum("a", 3, [1, 1, 1]), 6),
            (build_datum("b", 3, [1, 1]), 9),
        ]
        for d, roots in cases:
            assert d.length(d.longest_element()) == roots

    def test_group_axioms_exhaustive_small(self):
        for d in small_groups():
            elements = d.elements()
            for x in elements:
                assert d.multiply(x, d.identity) == x
                assert d.multiply(d.identity, x) == x
                assert d.multiply(x, d.inverse(x)) == d.identity
                assert d.multiply(d.inverse(x), x) == d.identity

    def test_associativity_random(self):
        rng = random.Random(3)
        for d in small_groups():
            elements = d.elements()
            for _ in range(100):
                x, y, z = (rng.choice(elements) for _ in range(3))
                assert d.multiply(d.multiply(x, y), z) == d.multiply(
                    x, d.multiply(y, z)
                )

    def test_length_weight_subadditive_equality_together(self):
        # length(xy) <= length(x) + length(y), same for weight, and the
        # two inequalities are equalities simultaneously.
        for d in small_groups():
            elements = d.elements()
            for x in elements:
                for y in elements:
                    xy = d.multiply(x, y)
                    dl = d.length(x) + d.length(y) - d.length(xy)
                    dw = d.weight(x) + d.weight(y) - d.weight(xy)
                    assert dl >= 0 and dw >= 0
                    assert (dl == 0) == (dw == 0)

    def test_weight_of_longest_element(self):
        g2 = build_datum("g2", 2, [3, 1])
        assert g2.weight(g2.longest_element()) == 12
        # B_m with weights (b, a, ..., a): m*b + m*(m-1)*a over w0
        for m, b, a in [(2, 1, 2), (3, 3, 2), (4, 1, 1)]:
            d = build_datum("b", m, [b, a])
            assert d.weight(d.longest_element()) == m * b + m * (m - 1) * a

    def test_left_multiplication_table(self):
        for d in small_groups():
            for x in d.elements():
                for s in range(d.rank):
                    assert d.left_multiply_generator(s, x) == d.multiply(
                        d.generator(s), x
                    )

    def test_generator_order_two(self):
        for d in small_groups():
            for s in range(d.rank):
                g = d.generator(s)
                assert d.length(g) == 1
                assert d.multiply(g, g) == d.identity

    def test_bond_orders_realized(self):
        for d in small_groups():
            for s in range(d.rank):
                for t in range(d.rank):
                    if s == t:
                        continue
                    st = d.multiply(d.generator(s), d.generator(t))
                    power = d.identity
                    order = None
                    for k in range(1, 2 * d.size + 1):
                        power = d.multiply(power, st)
                        if power == d.identity:
                            order = k
                            break
                    assert order == d.coxeter_matrix[s][t]


class TestTables:
    """The tables filled at construction agree with their definitions by
    walking reduced words, on every element."""

    @staticmethod
    def datums():
        return [
            build_datum("g2", 2, [3, 1]),
            build_datum("b", 3, [2, 1]),
            build_datum("a", 4, [1, 1, 1, 1]),
            build_datum("custom", 3, [1, 1, 1], coxeter_matrix=H3),
            # rank 1 and reducible groups
            build_datum("a", 1, [1]),
            build_datum("custom", 1, [2], coxeter_matrix=[[1]]),
            build_datum("custom", 2, [1, 2], coxeter_matrix=[[1, 2], [2, 1]]),
            build_datum(
                "custom", 3, [1, 1, 2],
                coxeter_matrix=[[1, 3, 2], [3, 1, 2], [2, 2, 1]],
            ),
        ]

    def test_tables_match_word_walks(self):
        datums = self.datums()
        assert [d.size for d in datums] == [12, 48, 120, 120, 2, 2, 4, 12]
        for d in datums:
            for x in d.elements():
                word = d.reduced_word(x)
                for s in range(d.rank):
                    assert d.left_multiply_generator(s, x) == d.multiply(
                        d.generator(s), x
                    )
                assert d.multiply(x, d.inverse(x)) == d.identity
                assert d.length(x) == len(word)
                assert d.weight(x) == sum(d.weights[s] for s in word)

    def test_bfs_parent_is_right_at_the_last_letter(self):
        # The BFS parent of an element, its word less the last letter, is
        # right multiplication by that letter; no table holds it apart.
        for d in self.datums() + [
            build_datum("a", 7, [1] * 7),
            build_datum("custom", 4, [1] * 4, coxeter_matrix=path_matrix([5, 3, 3])),
        ]:
            index = {word: i for i, word in enumerate(d._words)}
            for i in range(1, d.size):
                word = d._words[i]
                assert d._right[i * d.rank + word[-1]] == index[word[:-1]], (d, i)

    def test_element_order_carries_the_length(self):
        # hecke's descent test and reps' layer sweep read l(sw) > l(w) as
        # sw coming after w in the element order
        for d in self.datums():
            for x in d.elements():
                for s in range(d.rank):
                    sx = d.left_multiply_generator(s, x)
                    assert (d.length(sx) > d.length(x)) == (sx.index > x.index)

    def test_poincare_polynomial_from_the_class_counts(self):
        # The index Schur element is P(u), read off the class counts: it
        # counts every element once, P(1) = |W|, and w -> w w0 maps
        # L(w) to L(w0) - L(w), so u^L(w0) P(u^-1) = P(u).
        for d in self.datums():
            index, _ = one_dim_reps(d)
            p = schur_element(index)
            assert p.evaluate(1) == d.size
            top = d.weight(d.longest_element())
            mirrored = LaurentPoly({top - k: c for k, c in p.items()})
            assert mirrored == p, d

    def test_tables_hold_each_fact_once(self):
        assert coxeter._Tables._fields == (
            "words", "right", "left", "inverse",
            # per group, not per element: the generator classes fix which
            # weights must agree and which images a 1 x 1 rep may choose
            "classes",
            # per group: the number of elements with n_c letters of each
            # class c, which every weight and every linear Schur element
            # reads, so no datum tabulates a weight per element
            "class_counts",
        )

    def test_weight_beyond_table_range_rejected(self):
        with pytest.raises(InvalidWeights):
            build_datum("g2", 2, [2**31, 1])


class TestSharedTables:
    """The weight-free tables are enumerated once per Coxeter matrix and
    shared by every datum built on it; only the weights are per datum."""

    def test_datums_on_one_matrix_share_tables_not_weights(self):
        d1 = build_datum("b", 3, [2, 1])
        d2 = build_datum("b", 3, [1, 3])
        for name in (
            "_words", "_right", "_left", "_inverse",
            "_classes", "_class_counts",
        ):
            assert getattr(d1, name) is getattr(d2, name), name
        assert [d1.weight(x) for x in d1.elements()] != [
            d2.weight(x) for x in d2.elements()
        ]
        assert d1.weight(d1.generator(0)) == 2 and d2.weight(d2.generator(0)) == 1
        assert d1.weight(d1.longest_element()) == 3 * 2 + 6 * 1
        assert d2.weight(d2.longest_element()) == 3 * 1 + 6 * 3

    def test_a_datum_on_a_cached_matrix_does_no_work_per_element(
        self, monkeypatch
    ):
        # A7 has 40,320 elements, so a weight table alone would take about
        # 320 KiB; a second datum on the cached matrix, with other
        # weights, allocates only what does not grow with the group.
        monkeypatch.setattr(
            coxeter, "_GROUPS", coxeter._GroupCache(coxeter.DEFAULT_GROUP_CAP)
        )
        first = build_datum("a", 7, [1] * 7)
        tracemalloc.start()
        try:
            second = build_datum("a", 7, [2] * 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert second.size == 40320 and second._words is first._words
        assert peak < 16 * 1024, peak
        assert second.weight(second.longest_element()) == 2 * 28

    def test_tables_equal_a_fresh_enumeration(self):
        for d in TestTables.datums():
            fresh = _enumerate(d.coxeter_matrix, d.size)
            assert coxeter._GROUPS.tables(d.coxeter_matrix) == fresh
            assert d._words == fresh.words
            assert all(type(word) is bytes for word in fresh.words)
            arrays = (fresh.right, fresh.left, fresh.inverse)
            assert [t.typecode for t in arrays] == ["i", "i", "i"]

    def test_eviction_keeps_the_cached_total_within_the_bound(self, monkeypatch):
        cache = coxeter._GroupCache(200)
        monkeypatch.setattr(coxeter, "_GROUPS", cache)
        g2 = build_datum("g2", 2, [3, 1])
        datums = [
            g2,
            build_datum("b", 3, [2, 1]),
            build_datum("a", 4, [1] * 4),
            build_datum("custom", 3, [1] * 3, coxeter_matrix=H3),
            build_datum("a", 5, [1] * 5),
        ]
        # 12 + 48 + 120 fit; H3 evicts the oldest three, and A5 (720
        # elements) is above the bound and is not kept at all
        assert list(cache._groups) == [datums[3].coxeter_matrix]
        assert cache._elements == 120
        again = build_datum("g2", 2, [3, 1])  # evicted, so enumerated again
        assert again._words is not g2._words
        assert cache.tables(g2.coxeter_matrix) == _enumerate(g2.coxeter_matrix, 12)
        assert again._words == g2._words
        assert sum(len(t.words) for t in cache._groups.values()) == cache._elements <= 200

    @pytest.mark.parametrize("error", [1, -1])
    def test_wrong_group_order_fails_the_size_check(self, monkeypatch, error):
        cache = coxeter._GroupCache(coxeter.DEFAULT_GROUP_CAP)
        monkeypatch.setattr(coxeter, "_GROUPS", cache)
        real = coxeter.group_order
        monkeypatch.setattr(coxeter, "group_order", lambda m: real(m) + error)
        with pytest.raises(GroupOrderMismatch, match="group order"):
            build_datum("b", 3, [2, 1])
        assert not cache._groups

    def test_threads_sharing_the_cache_keep_its_total(self, monkeypatch):
        # Eight threads churn a cache that holds two of the three groups at
        # a time; a lost update would leave its element total wrong.
        cache = coxeter._GroupCache(60)
        monkeypatch.setattr(coxeter, "_GROUPS", cache)
        specs = [("g2", 2, (3, 1)), ("b", 3, (2, 1)), ("a", 3, (1, 1, 1))]
        fresh = {}
        for spec in specs:
            d = build_datum(*spec)
            fresh[spec] = _enumerate(d.coxeter_matrix, d.size).words
        failures = []

        def work(k):
            for i in range(60):
                spec = specs[(i + k) % 3]
                if build_datum(*spec)._words != fresh[spec]:
                    failures.append(spec)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        total = sum(len(t.words) for t in cache._groups.values())
        assert total == cache._elements <= 60

    def test_reduced_word_is_a_tuple(self):
        d = build_datum("g2", 2, [3, 1])
        word = d.reduced_word(d.longest_element())
        assert type(word) is tuple and word == (0, 1, 0, 1, 0, 1)

    def test_rank_above_a_byte_refused(self):
        huge = 2**300
        tag, matrix, _ = validate_datum("a", 255, [1] * 255, cap=huge)
        assert (tag, len(matrix)) == ("a", 255)
        with pytest.raises(UnsupportedType, match="exceeds 255"):
            build_datum("a", 256, [1] * 256, cap=huge)


class TestTextAndJson:
    def test_render_parse_round_trip(self):
        for d in small_groups():
            for x in d.elements():
                assert d.parse_element(d.render_element(x)) == x

    def test_parse_unreduced_word(self):
        d = build_datum("b", 2, [1, 1])
        assert d.parse_element("s1.s1") == d.identity
        assert d.parse_element("s1.s2.s2") == d.generator(0)

    def test_parse_rejects_bad_tokens(self):
        d = build_datum("g2", 2, [3, 1])
        with pytest.raises(ValueError):
            d.parse_element("t1")
        with pytest.raises(ValueError):
            d.parse_element("s3")

    def test_json_round_trip(self):
        for d in small_groups():
            data = d.to_json_dict()
            rebuilt = datum_from_json_dict(data)
            assert rebuilt.size == d.size
            assert rebuilt.weights == d.weights
            assert rebuilt.coxeter_matrix == d.coxeter_matrix
            assert [rebuilt.render_element(x) for x in rebuilt.elements()] == [
                d.render_element(x) for x in d.elements()
            ]

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "g2", "rank": 2.5, "weights": [3, 1]},
            {"type": "a", "rank": True, "weights": [1]},
            {"type": "g2", "rank": "2", "weights": [3, 1]},
            {"type": "g2", "rank": 2, "weights": [3, True]},
            {"type": "g2", "rank": 2, "weights": [3.0, 1]},
            {"type": "custom", "rank": 2, "weights": [1, 1],
             "coxeterMatrix": [[True, 6], [6, 1]]},
            {"type": "custom", "rank": 2, "weights": [1, 1],
             "coxeterMatrix": [[1, 6.0], [6.0, 1]]},
        ],
        ids=["rank-float", "rank-true", "rank-string", "weight-true",
             "weight-float", "diagonal-true", "bond-float"],
    )
    def test_json_dict_takes_json_integers_only(self, data):
        with pytest.raises(ValueError):
            datum_from_json_dict(data)

    def test_elements_of_different_datums_do_not_mix(self):
        d1 = build_datum("g2", 2, [3, 1])
        d2 = build_datum("g2", 2, [3, 1])
        x = d1.generator(0)
        with pytest.raises(ValueError):
            d2.multiply(x, x)
        assert d1.generator(0) != d2.generator(0)
        # an element is the tuple (datum, index), and hashes as one
        assert x == (d1, x.index) and hash(x) == hash((d1, x.index))
