import random
import re

import pytest

from heckebasis.partitions import (
    MAX_BIPARTITIONS,
    MAX_PARTITION_SIZE,
    SizeMismatch,
    SizeTooLarge,
    a_invariant_unitary,
    check_partition,
    dominates,
    embed_bipartition,
    extract_bipartition,
    is_e_regular,
    list_bipartitions,
    list_partitions,
    n_invariant,
    parse_bipartition,
    parse_partition,
    render_bipartition,
    render_partition,
    two_core,
    two_quotient,
)


def test_check_partition_validates():
    assert check_partition([3, 2, 2, 1]) == (3, 2, 2, 1)
    assert check_partition([]) == ()
    with pytest.raises(ValueError):
        check_partition([2, 3])
    with pytest.raises(ValueError):
        check_partition([2, 0])
    with pytest.raises(ValueError):
        check_partition([-1])


@pytest.mark.parametrize(
    "parts, bad",
    [([2.5, 1], "2.5"), ([True], "True"), ([2, 1.0], "1.0"), (["2"], "'2'")],
)
def test_check_partition_refuses_non_integer_parts(parts, bad):
    # refused and named, not truncated: [2.5, 1] once read as (2, 1)
    with pytest.raises(ValueError, match=f"must be integers, got {re.escape(bad)}$"):
        check_partition(parts)


def test_embedding_refuses_non_integer_input():
    # ((2.9,), ()) once embedded as (4,), the image of ((2,), ())
    with pytest.raises(ValueError, match="got 2.9"):
        embed_bipartition(((2.9,), ()), 0)
    for call in (
        lambda: embed_bipartition(((1,), ()), True),
        lambda: extract_bipartition((2,), 0.0),
    ):
        with pytest.raises(ValueError, match="s must be 0 or 1"):
            call()


def test_parse_render_round_trip():
    rng = random.Random(20260818)
    for _ in range(200):
        n = rng.randrange(0, 13)
        p = rng.choice(list_partitions(n))
        assert parse_partition(render_partition(p)) == p
        q = rng.choice(list_partitions(rng.randrange(0, 9)))
        b = (p, q)
        assert parse_bipartition(render_bipartition(b)) == b
    assert render_partition(()) == ""
    assert parse_partition("") == ()
    assert render_bipartition(((3, 1), (2,))) == "3,1|2"
    assert parse_bipartition("|") == ((), ())
    with pytest.raises(ValueError):
        parse_bipartition("3,1")
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_n_invariant_values():
    assert n_invariant(()) == 0
    assert n_invariant((5,)) == 0
    assert n_invariant((2, 2)) == 2
    assert n_invariant((2, 1, 1)) == 3
    # one-column partition: 0 + 1 + ... + (n-1)
    for n in range(1, 9):
        assert n_invariant((1,) * n) == n * (n - 1) // 2


def test_dominance_basics():
    assert dominates((1, 1, 1, 1), (4,))
    assert dominates((2, 2), (3, 1))
    assert not dominates((3, 1), (2, 2))
    assert dominates((3, 1), (3, 1))
    # (3,1,1) vs (2,2,1): partial sums 3,4,5 vs 2,4,5 -- incomparable pair
    assert not dominates((3, 1, 1), (2, 2, 1))
    assert dominates((2, 2, 1), (3, 1, 1))
    with pytest.raises(SizeMismatch):
        dominates((2,), (1, 1, 1))


def test_dominance_is_partial_order():
    for n in range(0, 9):
        ps = list_partitions(n)
        for p in ps:
            assert dominates(p, p)
        for p in ps:
            for q in ps:
                if dominates(p, q) and dominates(q, p):
                    assert p == q
                for r in ps:
                    if dominates(p, q) and dominates(q, r):
                        assert dominates(p, r)


def test_n_invariant_antitone_for_dominance():
    # if p is dominated by q (strictly), then n(p) > n(q)
    for n in range(0, 11):
        ps = list_partitions(n)
        for p in ps:
            for q in ps:
                if p != q and dominates(p, q):
                    assert n_invariant(p) > n_invariant(q), (p, q)


def test_e_regular():
    assert is_e_regular((2, 2, 1), 3)
    assert not is_e_regular((2, 2, 1), 2)
    assert not is_e_regular((1, 1, 1), 3)
    assert is_e_regular((), 2)
    with pytest.raises(ValueError):
        is_e_regular((1,), 1)
    # 2-regular partitions are the ones with distinct parts
    for n in range(0, 13):
        for p in list_partitions(n):
            assert is_e_regular(p, 2) == (len(set(p)) == len(p))


def test_e_regular_counts_match_odd_part_counts():
    # classical bijection: e=2 regular partitions of n <-> partitions
    # of n into odd parts
    for n in range(0, 16):
        regular = sum(1 for p in list_partitions(n) if is_e_regular(p, 2))
        odd = sum(
            1 for p in list_partitions(n) if all(part % 2 for part in p)
        )
        assert regular == odd


def test_list_partitions_counts_and_order():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, c in enumerate(counts):
        assert len(list_partitions(n)) == c
    assert list_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list_partitions(0) == [()]
    with pytest.raises(SizeTooLarge):
        list_partitions(MAX_PARTITION_SIZE + 1)


def test_list_bipartitions_counts_and_order():
    assert list_bipartitions(2) == [
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    ]
    # total count = sum over k of p(k) * p(m - k)
    for m in range(0, 9):
        ps = [len(list_partitions(k)) for k in range(m + 1)]
        assert len(list_bipartitions(m)) == sum(
            ps[k] * ps[m - k] for k in range(m + 1)
        )
    # no duplicates
    bs = list_bipartitions(6)
    assert len(set(bs)) == len(bs)
    # m = 32 has 1,046,705 bipartitions and m = 60 has 962,759,294; both
    # are refused from the count alone, before any is built
    assert MAX_BIPARTITIONS == 10**6
    for m, count in ((32, 1046705), (MAX_PARTITION_SIZE, 962759294)):
        with pytest.raises(SizeTooLarge, match=f"has {count} bipartitions"):
            list_bipartitions(m)


def test_two_core_examples():
    assert two_core(()) == ()
    assert two_core((2, 2)) == ()
    assert two_core((3, 2)) == (1,)
    assert two_core((3, 1)) == ()
    # staircases are exactly the partitions fixed by the core map
    for k in range(1, 7):
        stair = tuple(range(k, 0, -1))
        assert two_core(stair) == stair
    assert two_core((2, 1)) == (2, 1)


def test_two_core_is_idempotent_and_a_staircase():
    for n in range(0, 13):
        for p in list_partitions(n):
            c = two_core(p)
            assert two_core(c) == c
            k = len(c)
            assert c == tuple(range(k, 0, -1))


def test_abacus_size_law():
    for n in range(0, 15):
        for p in list_partitions(n):
            c = two_core(p)
            q1, q0 = two_quotient(p)
            assert sum(p) == sum(c) + 2 * (sum(q1) + sum(q0))


def test_two_quotient_examples():
    assert two_quotient((2, 2)) == ((1,), (1,))
    assert two_quotient(()) == ((), ())
    assert two_quotient((1,)) == ((), ())
    assert two_quotient((2,)) == ((1,), ())


def test_core_quotient_classify_partitions():
    # (core, quotient) is injective on partitions of each n
    for n in range(0, 13):
        seen = {}
        for p in list_partitions(n):
            key = (two_core(p), two_quotient(p))
            assert key not in seen, (p, seen[key])
            seen[key] = p


def test_embedding_anchors():
    for m in range(0, 8):
        for s in (0, 1):
            n = 2 * m + s
            row = ((m,) if m else (), ())
            col = ((), (1,) * m)
            assert embed_bipartition(row, s) == ((n,) if n else ())
            assert embed_bipartition(col, s) == (1,) * n


def test_embedding_pinned_small_cases():
    assert embed_bipartition(((1,), ()), 0) == (2,)
    assert embed_bipartition(((), (1,)), 0) == (1, 1)
    assert embed_bipartition(((1,), ()), 1) == (3,)
    assert embed_bipartition(((), (1,)), 1) == (1, 1, 1)
    assert embed_bipartition(((1,), (1,)), 0) == (2, 2)
    assert embed_bipartition(((), (2,)), 0) == (3, 1)
    assert embed_bipartition(((), (1, 1)), 0) == (1, 1, 1, 1)
    assert embed_bipartition(((2,), ()), 0) == (4,)


def test_embedding_round_trip_and_bijectivity():
    for s in (0, 1):
        for m in range(0, 6):
            images = set()
            for b in list_bipartitions(m):
                lam = embed_bipartition(b, s)
                assert sum(lam) == 2 * m + s
                assert extract_bipartition(lam, s) == b
                images.add(lam)
            want_core = () if s == 0 else (1,)
            target = {
                p
                for p in list_partitions(2 * m + s)
                if two_core(p) == want_core
            }
            assert images == target


def test_embedding_image_has_expected_core():
    for s in (0, 1):
        for b in list_bipartitions(4):
            lam = embed_bipartition(b, s)
            assert two_core(lam) == (() if s == 0 else (1,))


def test_extract_rejects_wrong_core():
    with pytest.raises(ValueError):
        extract_bipartition((2, 1), 0)  # core (2,1)
    with pytest.raises(ValueError):
        extract_bipartition((2,), 1)  # core () but s = 1
    with pytest.raises(ValueError):
        extract_bipartition((1,), 0)
    with pytest.raises(ValueError):
        embed_bipartition(((1,), ()), 2)


def test_embed_size_cap():
    big = ((MAX_PARTITION_SIZE,), ())
    with pytest.raises(SizeTooLarge):
        embed_bipartition(big, 0)


def test_quotient_for_even_embeddings_recovers_bipartition():
    # for s = 0 the plain 2-quotient inverts the embedding directly
    for b in list_bipartitions(5):
        assert two_quotient(embed_bipartition(b, 0)) == b


def test_a_invariant_unitary_examples():
    # sign label: embeds to a single column of length n = 2m + s
    for m in range(0, 6):
        for s in (0, 1):
            n = 2 * m + s
            assert a_invariant_unitary(((), (1,) * m), s) == n * (n - 1) // 2
    # index label: single row, a-invariant 0
    for m in range(0, 6):
        for s in (0, 1):
            assert a_invariant_unitary(((m,) if m else (), ()), s) == 0
    assert a_invariant_unitary(((1,), (1,)), 0) == n_invariant((2, 2))


def test_a_invariant_matches_longest_element_weight():
    # the sign-label a-invariant equals the total weight of the longest
    # element for the signed-permutation datum with weights (2s+1, 2,...,2)
    from heckebasis.coxeter import build_datum

    for m in range(1, 5):
        for s in (0, 1):
            if m == 1:
                datum = build_datum(
                    "custom", 1, (2 * s + 1,), coxeter_matrix=[[1]]
                )
            else:
                datum = build_datum("b", m, (2 * s + 1,) + (2,) * (m - 1))
            w0 = datum.longest_element()
            n = 2 * m + s
            assert datum.weight(w0) == n * (n - 1) // 2
            assert a_invariant_unitary(((), (1,) * m), s) == datum.weight(w0)
