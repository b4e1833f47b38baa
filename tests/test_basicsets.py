import json
import random
import re

import pytest

from conftest import (
    G2_EXPECTED_BASIC_SETS,
    g2_pinned_table,
    make_factorization_instance,
)
from heckebasis import basicsets, laurent
from heckebasis.basicsets import (
    BasicSetsDiffer,
    BetaNotUnique,
    DecompositionCheckFailed,
    DecompRow,
    LabeledDecompMatrix,
    NoCanonicalSet,
    NotCatalogued,
    ProductMismatch,
    basic_set_catalog,
    beta_factorization,
    canonical_basic_set,
    g2_decomposition_table,
    verify_conjecture_shape,
    verify_unitriangular,
)
from heckebasis.partitions import (
    dominates,
    is_e_regular,
    list_bipartitions,
    list_partitions,
    n_invariant,
    render_partition,
)


def _matrix(a_values, entries, classes=None, ds=None):
    rows = [
        DecompRow(
            f"r{i+1}",
            a,
            None if classes is None else classes[i],
            None if ds is None else ds[i],
        )
        for i, a in enumerate(a_values)
    ]
    cols = [f"c{j+1}" for j in range(len(entries[0]))]
    return LabeledDecompMatrix(rows, cols, entries)


# ----- matrix validation ------------------------------------------------------


def test_matrix_validation():
    _matrix([0, 1], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        _matrix([0, 1], [[1, 0], [0, 0]])  # zero column
    with pytest.raises(ValueError):
        _matrix([0, 1], [[1, -1], [0, 1]])  # negative entry
    with pytest.raises(ValueError):
        _matrix([0, 1], [[1, 0, 0], [0, 1]])  # ragged
    with pytest.raises(ValueError):
        _matrix([0], [[1], [1]])  # row count mismatch
    with pytest.raises(ValueError):
        LabeledDecompMatrix(
            [DecompRow("x", 0), DecompRow("x", 1)], ["c1"], [[1], [0]]
        )
    with pytest.raises(ValueError):
        LabeledDecompMatrix(
            [DecompRow("x", 0)], ["c1", "c1"], [[1, 1]]
        )


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1, 0], [0, True]], "entry row 1 must be a list of integers"),
        ([[1, 0], [0, 1.0]], "entry row 1 must be a list of integers"),
        ([[1, 0], ["1", 1]], "entry row 1 must be a list of integers"),
        ([[1, 0], [-1, 1]], "negative entry in row 1"),
        ([[1, 0], [0, 1, 0]], "entry row 1 has 3 entries, expected 2"),
        ([[1, 0, 0], [0, 1, 0]], "column 'c3' is identically zero"),
        # the first faulty row, and the first zero column, is the one named
        ([[1, -1], [0, 1, 0]], "negative entry in row 0"),
        ([[1, 1], [0, -1], [1]], "negative entry in row 1"),
        ([[1, 0, 0], [0, 0, 0]], "column 'c2' is identically zero"),
    ],
    ids=repr,
)
def test_matrix_refusals_name_the_first_fault(entries, message):
    with pytest.raises(ValueError) as exc:
        _matrix(range(len(entries)), entries)
    assert str(exc.value) == message


def test_matrix_keeps_its_columns_and_empty_edges():
    m = _matrix([0, 1, 2], [[1, 0], [2, 1], [0, 3]])
    assert m.columns == ((1, 2, 0), (0, 1, 3))
    with pytest.raises(ValueError, match="^column 'c1' is identically zero$"):
        LabeledDecompMatrix([], ["c1", "c2"], [])
    for rows in ([], [DecompRow("r1", 0), DecompRow("r2", 1)]):
        empty = LabeledDecompMatrix(rows, [], [[] for _ in rows])
        assert empty.columns == ()
        assert canonical_basic_set(empty).iota == ()
        assert beta_factorization(empty, empty, []).beta == ()


def test_matrix_json_round_trip_is_bit_exact():
    m = g2_decomposition_table(3)
    d = m.to_json_dict()
    again = LabeledDecompMatrix.from_json_dict(d)
    assert again == m
    assert json.dumps(d, sort_keys=True) == json.dumps(
        again.to_json_dict(), sort_keys=True
    )
    # optional fields survive the trip
    m2 = _matrix([0, 1], [[1, 0], [0, 1]], classes=["u", "v"], ds=[0, 3])
    assert LabeledDecompMatrix.from_json_dict(m2.to_json_dict()) == m2
    assert "class" not in m.to_json_dict()["rows"][0]


# ----- canonical basic sets ---------------------------------------------------


def test_identity_matrix_gives_identity_assignment():
    m = _matrix([0, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    bs = canonical_basic_set(m)
    assert bs.as_dict() == {"c1": "r1", "c2": "r2", "c3": "r3"}
    assert bs.image() == {"r1", "r2", "r3"}


def test_tie_detected():
    m = _matrix([0, 0], [[1], [1]])
    with pytest.raises(NoCanonicalSet) as exc:
        canonical_basic_set(m)
    assert exc.value.reason == "tie"
    assert exc.value.column == "c1"


def test_multiplicity_not_one_detected():
    m = _matrix([0, 1], [[2], [1]])
    with pytest.raises(NoCanonicalSet) as exc:
        canonical_basic_set(m)
    assert exc.value.reason == "multiplicityNotOne"


def test_injectivity_failure_detected():
    m = _matrix([0, 1], [[1, 1], [1, 1]])
    with pytest.raises(NoCanonicalSet) as exc:
        canonical_basic_set(m)
    assert exc.value.reason == "secondConditionViolated"
    assert "share image row" in str(exc.value)


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            [[2, 1, 0], [0, 1, 0], [1, 0, 1]],
            "column 'c1': multiplicityNotOne (row 'r1' has entry 2)",
        ),
        (
            [[0, 2, 1], [1, 0, 1], [0, 1, 0]],
            "column 'c2': multiplicityNotOne (row 'r1' has entry 2)",
        ),
        (
            [[1, 2, 0], [1, 0, 0], [0, 1, 1]],
            "column 'c1': tie (rows ['r1', 'r2'] all have a = 0)",
        ),
    ],
)
def test_canonical_set_names_the_first_failing_column(entries, message):
    # in each matrix two columns fail; the first in column order is named
    with pytest.raises(NoCanonicalSet) as exc:
        canonical_basic_set(_matrix([0, 0, 1], entries))
    assert str(exc.value) == message


def test_g2_tables_pinned_entries():
    e3 = g2_decomposition_table(3)
    assert e3.entries[e3.row_labels().index("rho-")] == (1, 0, 0, 1)
    e12 = g2_decomposition_table(12)
    assert e12.entries[e12.row_labels().index("rho+")] == (1, 0, 1, 0, 0)
    e7 = g2_decomposition_table(7)
    assert e7.n_cols == 6
    assert all(
        e7.entries[i][j] == (1 if i == j else 0)
        for i in range(6)
        for j in range(6)
    )
    assert g2_decomposition_table(2).n_cols == 3
    assert g2_decomposition_table(6).n_cols == 3
    assert [r.a_invariant for r in e3.rows] == [0, 1, 3, 3, 7, 12]
    with pytest.raises(ValueError):
        g2_decomposition_table(1)
    # the derived tables equal the pinned oracle
    for e in list(range(2, 41)) + [100]:
        assert g2_decomposition_table(e) == g2_pinned_table(e), e


def test_g2_generic_shortcut_matches_specialisation(monkeypatch):
    # above the span of the G2 polynomials the table is taken from the
    # unspecialised characters; the span is the only input to that choice,
    # so a span of 10**6 forces the specialisation, which agrees with it
    *generic, span = basicsets._g2_generic()
    wide = [e for e in range(2, 101) if laurent.euler_phi(e) > span]
    assert wide and min(wide) <= 40
    monkeypatch.setattr(basicsets, "_g2_generic", lambda: (*generic, 10**6))
    for e in wide[:8] + [100]:
        assert g2_decomposition_table(e) == g2_pinned_table(e), e


def test_ambiguous_split_raises():
    # (1, 1) = (1, 0) + (0, 1) = (1, 1) + (0, 0): two ways to split
    linear = [(1, 0), (0, 1), (1, 1), (0, 0)]
    with pytest.raises(DecompositionCheckFailed, match="2 ways"):
        basicsets._constituents((1, 1), linear, "r")
    assert basicsets._constituents((1, 0), linear, "r") == ((1, 0), (0, 0))
    assert basicsets._constituents((5, 5), linear, "r") == ((5, 5),)


def test_g2_basic_sets_match_pinned_catalog():
    for e, expected in G2_EXPECTED_BASIC_SETS.items():
        bs = canonical_basic_set(g2_decomposition_table(e))
        assert bs.image() == expected, e
    for e in (5, 7, 13, 100):
        bs = canonical_basic_set(g2_decomposition_table(e))
        assert bs.image() == {"ind", "eps1", "rho+", "rho-", "eps2", "eps"}


def test_basic_set_rows_form_unitriangular_submatrix():
    # sorting the image rows by a-invariant and the columns by their
    # assigned row yields a lower-unitriangular square matrix
    for e in (2, 3, 6, 12, 7):
        m = g2_decomposition_table(e)
        bs = canonical_basic_set(m)
        assert len(bs.image()) == m.n_cols
        pairs = sorted(
            bs.iota, key=lambda cr: m.rows[m.row_labels().index(cr[1])].a_invariant
        )
        order = {row: k for k, (_, row) in enumerate(pairs)}
        for k, (col, _) in enumerate(pairs):
            for row, pos in order.items():
                d = m.entry(row, col)
                if pos == k:
                    assert d == 1
                elif pos < k:
                    assert d == 0


# ----- factorization ----------------------------------------------------------


def test_factorization_trivial_identity_prime():
    full = g2_decomposition_table(6)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    report = beta_factorization(full, full, eye)
    assert dict(report.beta) == {"c1": "c1", "c2": "c2", "c3": "c3"}
    assert report.full_set.image() == report.root_set.image()
    d = report.to_json_dict()
    assert d["setsEqual"] is True


def test_factorization_rejects_column_count_mismatch():
    # the two matrices must carry the same number of columns, so the
    # 6-column identity table cannot factor the 3-column table
    full = g2_decomposition_table(6)
    root = g2_decomposition_table(7)  # identity, same rows, 6 columns
    prime = [[0] * 3 for _ in range(6)]
    with pytest.raises(ValueError):
        beta_factorization(full, root, prime)


def test_factorization_product_mismatch():
    full = g2_decomposition_table(6)
    bad = [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
    with pytest.raises(ProductMismatch):
        beta_factorization(full, full, bad)


@pytest.mark.parametrize(
    "entries, named",
    [
        ([[1, 0], [0, 2], [2, 1]], "('r2', 'c2'): product gives 1, matrix has 2"),
        ([[1, 3], [0, 1], [1, 2]], "('r1', 'c2'): product gives 0, matrix has 3"),
        ([[1, 0], [0, 1], [2, 2]], "('r3', 'c1'): product gives 1, matrix has 2"),
    ],
)
def test_factorization_names_the_first_mismatch_in_row_order(entries, named):
    rows = [DecompRow("r1", 0), DecompRow("r2", 1), DecompRow("r3", 5)]
    root = LabeledDecompMatrix(rows, ["c1", "c2"], [[1, 0], [0, 1], [1, 1]])
    full = LabeledDecompMatrix(rows, ["c1", "c2"], entries)
    with pytest.raises(ProductMismatch) as exc:
        beta_factorization(full, root, [[1, 0], [0, 1]])
    assert str(exc.value) == f"entry {named}"


def test_factorization_precondition_errors():
    full = g2_decomposition_table(6)
    other_rows = [DecompRow(f"x{i}", i) for i in range(6)]
    other = LabeledDecompMatrix(other_rows, full.cols, full.entries)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        beta_factorization(full, other, eye)
    shifted = LabeledDecompMatrix(
        [DecompRow(r.label, r.a_invariant + 1) for r in full.rows],
        full.cols,
        full.entries,
    )
    with pytest.raises(ValueError):
        beta_factorization(full, shifted, eye)
    with pytest.raises(ValueError):
        beta_factorization(full, full, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        beta_factorization(
            full, full, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
        )


def test_factorization_column_swap_stays_consistent():
    # a permuted second factor permutes the column correspondence but
    # cannot break the agreement of the two basic sets
    rows = [DecompRow("r1", 0), DecompRow("r2", 1), DecompRow("r3", 5)]
    root = LabeledDecompMatrix(
        rows, ["c1", "c2"], [[1, 0], [0, 1], [1, 1]]
    )
    prime = [[0, 1], [1, 0]]  # swap
    full = LabeledDecompMatrix(
        rows, ["c1", "c2"], [[0, 1], [1, 0], [1, 1]]
    )
    report = beta_factorization(full, root, prime)
    assert dict(report.beta) == {"c1": "c2", "c2": "c1"}
    assert report.full_set.image() == report.root_set.image() == {"r1", "r2"}


def test_factorization_failure_signals_are_distinct_types():
    # BetaNotUnique and BasicSetsDiffer guard hypotheses that exact
    # arithmetic makes unreachable once both canonical sets exist and
    # the product check has passed; they stay distinct, catchable types
    assert issubclass(BetaNotUnique, Exception)
    assert issubclass(BasicSetsDiffer, Exception)
    assert not issubclass(BetaNotUnique, BasicSetsDiffer)
    assert not issubclass(BasicSetsDiffer, BetaNotUnique)
    assert not issubclass(ProductMismatch, NoCanonicalSet)


def test_factorization_random_instances_never_differ():
    rng = random.Random(97)
    for _ in range(200):
        full, root, prime = make_factorization_instance(rng)
        report = beta_factorization(full, root, prime)
        assert report.full_set.image() == report.root_set.image()
        # the generator aligns columns, so beta is the identity
        assert all(mu == nu for mu, nu in report.beta)


# ----- catalogs ---------------------------------------------------------------


def test_catalog_g2():
    assert basic_set_catalog("g2", {}, 2) == {"ind", "rho+", "rho-"}
    assert basic_set_catalog("g2", {"weights": (3, 1)}, 6) == {
        "ind",
        "eps1",
        "rho+",
    }
    assert basic_set_catalog("g2", {}, 5) == {
        "ind",
        "eps1",
        "rho+",
        "rho-",
        "eps2",
        "eps",
    }
    with pytest.raises(NotCatalogued):
        basic_set_catalog("g2", {"weights": (1, 1)}, 2)
    with pytest.raises(ValueError):
        basic_set_catalog("g2", {}, 1)


def test_catalog_type_a_is_e_regular_partitions():
    assert basic_set_catalog("a", {"n": 4}, 2) == {"4", "3,1"}
    for n in range(0, 10):
        for e in (2, 3, 4, 5):
            got = basic_set_catalog("a", {"n": n}, e)
            want = {
                render_partition(p)
                for p in list_partitions(n)
                if is_e_regular(p, e)
            }
            assert got == want


def test_catalog_type_b_applicable_and_not():
    got = basic_set_catalog("b", {"m": 2, "s": 0}, 3)
    assert len(got) == 5  # all bipartitions of 2 are 3-regular
    for e in (3, 4, 5, 7, 8, 9, 12):
        for m in range(0, 7):
            got = basic_set_catalog("b", {"m": m, "s": 1}, e)
            want = sum(
                1
                for b in list_bipartitions(m)
                if is_e_regular(b[0], e) and is_e_regular(b[1], e)
            )
            assert len(got) == want
    with pytest.raises(NotCatalogued) as exc2:
        basic_set_catalog("b", {"m": 2, "s": 0}, 2)
    assert "GeJa" in str(exc2.value)
    with pytest.raises(NotCatalogued) as exc6:
        basic_set_catalog("b", {"m": 2, "s": 0}, 6)
    assert "FLOTW" in str(exc6.value)
    with pytest.raises(NotCatalogued):
        basic_set_catalog("b", {"m": 3, "s": 1}, 10)
    with pytest.raises(ValueError):
        basic_set_catalog("b", {"m": 2, "s": 2}, 3)
    with pytest.raises(ValueError):
        basic_set_catalog("q8", {}, 3)


@pytest.mark.parametrize(
    "tag, params, e, bad",
    [
        ("a", {"n": 4.9}, 3, "n must be an integer, got 4.9"),
        ("a", {"n": True}, 3, "n must be an integer, got True"),
        ("b", {"m": 2.0, "s": 0}, 3, "m must be an integer, got 2.0"),
        ("b", {"m": 2, "s": 0.7}, 3, "s must be an integer, got 0.7"),
        ("b", {"m": 2, "s": False}, 3, "s must be an integer, got False"),
        ("a", {"n": 4}, 3.5, "e must be an integer, got 3.5"),
        ("g2", {}, 6.0, "e must be an integer, got 6.0"),
    ],
    ids=["n=4.9", "n=True", "m=2.0", "s=0.7", "s=False", "e=3.5", "g2-e=6.0"],
)
def test_catalog_refuses_non_integer_input(tag, params, e, bad):
    # refused and named, not truncated: n = 4.9 once gave the labels for 4
    with pytest.raises(ValueError, match=re.escape(bad)):
        basic_set_catalog(tag, params, e)


@pytest.mark.parametrize(
    "tag, params, message",
    [
        ("a", {}, "type a needs params['n']"),
        ("b", {"s": 0}, "type b needs params['m']"),
        ("b", {"m": 2}, "type b needs params['s']"),
    ],
    ids=["a-n", "b-m", "b-s"],
)
def test_catalog_names_a_missing_parameter(tag, params, message):
    # a ValueError like every other refusal, not a bare KeyError
    with pytest.raises(ValueError) as info:
        basic_set_catalog(tag, params, 3)
    assert type(info.value) is ValueError and str(info.value) == message


def test_g2_table_refuses_non_integer_e():
    for e in (6.0, True):
        with pytest.raises(ValueError, match="e must be an integer"):
            g2_decomposition_table(e)


# ----- unitriangular verification ---------------------------------------------


def _partition_matrix(n, entries):
    labels = [render_partition(p) for p in list_partitions(n)]
    rows = [
        DecompRow(lab, n_invariant(p))
        for lab, p in zip(labels, list_partitions(n))
    ]
    return LabeledDecompMatrix(rows, labels, entries)


def test_unitriangular_identity_passes():
    n = 5
    k = len(list_partitions(n))
    eye = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    report = verify_unitriangular(_partition_matrix(n, eye))
    assert report.ok and report.dominance_ok and report.n_ok
    assert report.violations == ()


def test_unitriangular_row_to_column_violation():
    # entry at row (n), column (1^n): (n) is not dominated by (1^n)
    n = 4
    ps = list_partitions(n)
    k = len(ps)
    entries = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    entries[0][k - 1] = 1  # row (4), column (1,1,1,1)
    report = verify_unitriangular(_partition_matrix(n, entries))
    assert not report.ok
    kinds = {(v.phrasing, v.row_label, v.col_label) for v in report.violations}
    assert ("dominance", "4", "1,1,1,1") in kinds
    assert ("nInvariant", "4", "1,1,1,1") in kinds


def test_unitriangular_dominance_strictly_stronger():
    # row (4,1,1,1), column (3,3,1): incomparable in dominance but the
    # n-invariants are 6 > 5, so only the dominance phrasing trips
    n = 7
    ps = list_partitions(n)
    labels = [render_partition(p) for p in ps]
    i = labels.index("4,1,1,1")
    j = labels.index("3,3,1")
    assert n_invariant(ps[i]) == 6 and n_invariant(ps[j]) == 5
    k = len(ps)
    entries = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
    entries[i][j] = 2
    report = verify_unitriangular(_partition_matrix(n, entries))
    assert report.n_ok and not report.dominance_ok and not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.phrasing == "dominance" and v.entry == 2


def test_unitriangular_diagonal_violation():
    n = 3
    k = len(list_partitions(n))
    entries = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    entries[1][1] = 0
    # column must stay nonzero somewhere
    entries[2][1] = 1
    report = verify_unitriangular(_partition_matrix(n, entries))
    assert not report.ok
    assert any(v.phrasing == "diagonal" for v in report.violations)


def test_unitriangular_random_dominance_matrices_pass_n_phrasing():
    rng = random.Random(1234)
    for _ in range(100):
        n = rng.randrange(2, 8)
        ps = list_partitions(n)
        k = len(ps)
        entries = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if i == j:
                    entries[i][j] = 1
                elif (
                    ps[i] != ps[j]
                    and dominates(ps[i], ps[j])
                    and rng.random() < 0.3
                ):
                    entries[i][j] = rng.randrange(1, 4)
        report = verify_unitriangular(_partition_matrix(n, entries))
        assert report.dominance_ok and report.n_ok


def test_unitriangular_preconditions():
    m = _matrix([0, 1], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        verify_unitriangular(m)  # labels not partitions of one size
    rows = [DecompRow("2", 0), DecompRow("1,1", 1)]
    bad_cols = LabeledDecompMatrix(rows, ["1,1", "2"], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        verify_unitriangular(bad_cols)  # column order differs from rows
    rows = [DecompRow("2", 0), DecompRow("1,1,1", 1)]
    sizes = LabeledDecompMatrix(rows, ["2", "1,1,1"], [[1, 0], [0, 1]])
    with pytest.raises(ValueError) as info:
        verify_unitriangular(sizes)
    assert info.type is ValueError
    assert str(info.value) == "labels are partitions of different sizes: {2, 3}"


# ----- conjecture shape verification -------------------------------------------


def test_shape_block_diagonal_identity_passes():
    m = _matrix(
        [0, 1, 2],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        classes=["u", "u", "v"],
        ds=[0, 0, 3],
    )
    report = verify_conjecture_shape(m)
    assert report.ok
    assert [b["class"] for b in report.blocks] == ["u", "v"]
    assert report.blocks[0]["cols"] == ["c1", "c2"]


def test_shape_lower_entries_allowed():
    m = _matrix(
        [0, 1, 2],
        [[1, 0, 0], [0, 1, 0], [2, 5, 1]],
        classes=["u", "u", "v"],
        ds=[0, 0, 3],
    )
    assert verify_conjecture_shape(m).ok


def test_shape_entry_above_diagonal_fails_with_coordinates():
    m = _matrix(
        [0, 1, 2],
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        classes=["u", "u", "v"],
        ds=[0, 0, 3],
    )
    report = verify_conjecture_shape(m)
    assert not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    assert (v.row_label, v.col_label) == ("r1", "c3")
    assert v.reason == "aboveDiagonal"


def test_shape_equal_d_cross_entries_fail():
    m = _matrix(
        [0, 1],
        [[1, 0], [1, 1]],
        classes=["u", "v"],
        ds=[2, 2],
    )
    report = verify_conjecture_shape(m)
    assert not report.ok
    assert report.violations[0].reason == "aboveDiagonal"


def test_shape_diagonal_block_must_be_identity():
    m = _matrix(
        [0, 1],
        [[1, 1], [0, 1]],
        classes=["u", "u"],
        ds=[0, 0],
    )
    report = verify_conjecture_shape(m)
    assert not report.ok
    assert report.violations[0].reason == "diagonalNotIdentity"


def test_shape_preconditions():
    m = _matrix([0, 1], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        verify_conjecture_shape(m)  # no class labels
    inconsistent = _matrix(
        [0, 1],
        [[1, 0], [0, 1]],
        classes=["u", "u"],
        ds=[0, 1],
    )
    with pytest.raises(ValueError):
        verify_conjecture_shape(inconsistent)
    rect = _matrix([0, 1], [[1], [1]], classes=["u", "v"], ds=[0, 1])
    with pytest.raises(ValueError):
        verify_conjecture_shape(rect)


def test_shape_gu_style_from_unitriangular_data():
    # class = the partition itself, d = its n-invariant: any matrix that
    # passes the n-phrasing of unitriangularity passes the shape check
    # once rows and columns are sorted by n-invariant
    rng = random.Random(777)
    for _ in range(30):
        n = rng.randrange(2, 7)
        ps = sorted(list_partitions(n), key=n_invariant)
        labels = [render_partition(p) for p in ps]
        k = len(ps)
        entries = [[0] * k for _ in range(k)]
        for i in range(k):
            entries[i][i] = 1
            for j in range(k):
                if n_invariant(ps[j]) < n_invariant(ps[i]) and rng.random() < 0.3:
                    entries[i][j] = rng.randrange(1, 3)
        rows = [
            DecompRow(lab, n_invariant(p), class_label=lab, d_invariant=n_invariant(p))
            for lab, p in zip(labels, ps)
        ]
        m = LabeledDecompMatrix(rows, labels, entries)
        assert verify_conjecture_shape(m).ok
