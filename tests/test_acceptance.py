"""End-to-end acceptance suite.

Each test is one headline guarantee of the package. Every comparison is
exact -- integers, Fractions, Laurent polynomials over Q -- so there are
no numeric tolerances anywhere; "matches" always means equality. Each
test prints a single PASS/FAIL line (visible under ``pytest -s``) with
its runtime and enforces a hard time bound.
"""

import random
import time
from contextlib import contextmanager

from conftest import G2_EXPECTED_BASIC_SETS, make_factorization_instance

from heckebasis.basicsets import (
    DecompRow,
    LabeledDecompMatrix,
    basic_set_catalog,
    beta_factorization,
    canonical_basic_set,
    g2_decomposition_table,
    verify_conjecture_shape,
    verify_unitriangular,
)
from heckebasis.coxeter import build_datum
from heckebasis.hecke import t_basis, tau_bilinear
from heckebasis.laurent import LaurentPoly
from heckebasis.modarith import sweep_a_sets
from heckebasis.partitions import (
    a_invariant_unitary,
    dominates,
    embed_bipartition,
    extract_bipartition,
    is_e_regular,
    list_bipartitions,
    list_partitions,
    n_invariant,
    render_bipartition,
    render_partition,
    two_core,
)
from heckebasis.reps import (
    a_invariant,
    builtin_g2_reps,
    rep_trace,
    schur_element,
)

G2_LABELS = ("ind", "eps1", "rho+", "rho-", "eps2", "eps")


@contextmanager
def criterion(name: str, bound: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= bound:
        print(f"FAIL  {name} ({elapsed:.2f}s; bound {bound:g}s)")
        raise AssertionError(
            f"{name}: runtime {elapsed:.2f}s exceeds bound {bound:g}s"
        )
    print(f"PASS  {name} ({elapsed:.2f}s; bound {bound:g}s)")


def test_01_g2_a_invariants_from_schur_elements():
    with criterion("1. G2 a-invariants (0,1,3,3,7,12)", 5.0):
        datum = build_datum("g2", 2, (3, 1))
        reps = builtin_g2_reps(datum)
        assert tuple(r.name for r in reps) == G2_LABELS
        pairs = [a_invariant(schur_element(r)) for r in reps]
        assert [a for a, _ in pairs] == [0, 1, 3, 3, 7, 12]
        assert [f for _, f in pairs] == [1, 1, 2, 2, 1, 1]


def test_02_g2_canonical_basic_sets():
    with criterion("2. G2 canonical basic sets for e=2,3,6,12 and e>4", 1.0):
        for e, expected in G2_EXPECTED_BASIC_SETS.items():
            got = canonical_basic_set(g2_decomposition_table(e))
            assert set(got.image()) == expected, f"e={e}"
        for e in (5, 7, 13):
            got = canonical_basic_set(g2_decomposition_table(e))
            assert set(got.image()) == set(G2_LABELS), f"e={e}"


def test_03_trace_identity_and_dual_basis_orthogonality():
    with criterion("3. trace identity + 36-pair orthogonality", 10.0):
        datum = build_datum("g2", 2, (3, 1))
        reps = builtin_g2_reps(datum)
        schurs = [schur_element(r) for r in reps]

        # tau(T_w) * prod_all(c) == sum_lam cofactor_lam * trace(T_w, lam),
        # the trace expansion with all denominators cleared.
        total = LaurentPoly.one()
        for c in schurs:
            total = total * c
        cofactors = []
        for i in range(len(schurs)):
            cof = LaurentPoly.one()
            for j, c in enumerate(schurs):
                if j != i:
                    cof = cof * c
            cofactors.append(cof)
        for w in datum.elements():
            rhs = LaurentPoly.zero()
            for rep, cof in zip(reps, cofactors):
                rhs = rhs + cof * rep_trace(rep, w)
            lhs = total if w.index == 0 else LaurentPoly.zero()
            assert lhs == rhs, datum.render_element(w)

        # sum_w u^-L(w) chi_lam(T_w) chi_mu(T_{w^-1}) is dim*c on the
        # diagonal and zero off it.
        for i, r1 in enumerate(reps):
            for j, r2 in enumerate(reps):
                total_ij = LaurentPoly.zero()
                for w in datum.elements():
                    term = rep_trace(r1, w) * rep_trace(r2, datum.inverse(w))
                    total_ij = total_ij + LaurentPoly.monomial(
                        -datum.weight(w)
                    ) * term
                want = (
                    schurs[i] * r1.dimension
                    if i == j
                    else LaurentPoly.zero()
                )
                assert total_ij == want, (r1.name, r2.name)


def test_04_hecke_algebra_axioms():
    with criterion("4. Hecke axioms + bilinear trace law (G2, B2)", 30.0):
        datums = [build_datum("g2", 2, (3, 1)), build_datum("b", 2, (3, 2))]
        rng = random.Random(40817)

        for datum in datums:
            one = t_basis(datum, datum.identity)
            # quadratic relation for every generator
            for s in range(datum.rank):
                ts = t_basis(datum, datum.generator(s))
                u_s = LaurentPoly.monomial(datum.weights[s])
                assert ts * ts == ts.scale(u_s - 1) + one.scale(u_s)
            # braid relation for every bond
            for s in range(datum.rank):
                for t in range(s + 1, datum.rank):
                    m = datum.coxeter_matrix[s][t]
                    left = right = one
                    for k in range(m):
                        gen_l = s if k % 2 == 0 else t
                        gen_r = t if k % 2 == 0 else s
                        left = left * t_basis(datum, datum.generator(gen_l))
                        right = right * t_basis(datum, datum.generator(gen_r))
                    assert left == right

        # associativity on 500 random triples of two-term elements
        for k in range(500):
            datum = datums[k % 2]
            def element():
                x = datum.element(rng.randrange(datum.size))
                y = datum.element(rng.randrange(datum.size))
                coeff = LaurentPoly.monomial(rng.randrange(-2, 3)) * (
                    rng.randrange(1, 4)
                )
                return t_basis(datum, x) + t_basis(datum, y).scale(coeff)
            h1, h2, h3 = element(), element(), element()
            assert (h1 * h2) * h3 == h1 * (h2 * h3)

        # bilinear trace law, exhaustively
        for datum in datums:
            for w1 in datum.elements():
                inv = datum.inverse(w1)
                for w2 in datum.elements():
                    want = (
                        LaurentPoly.monomial(datum.weight(w1))
                        if w2.index == inv.index
                        else LaurentPoly.zero()
                    )
                    assert tau_bilinear(datum, w1, w2) == want


def test_05_dominance_monotonicity_exhaustive():
    with criterion("5. dominance vs n-invariant, exhaustive n <= 10", 10.0):
        for n in range(1, 11):
            ps = list_partitions(n)
            for p in ps:
                for q in ps:
                    if dominates(p, q):
                        np_, nq = n_invariant(p), n_invariant(q)
                        assert nq <= np_, (p, q)
                        assert (nq == np_) == (p == q), (p, q)


def test_06_embedding_bijectivity_and_anchors():
    with criterion("6. bipartition embedding: bijection + anchors", 10.0):
        for s in (0, 1):
            core = () if s == 0 else (1,)
            for m in range(0, 6):
                n = 2 * m + s
                bips = list_bipartitions(m)
                images = [embed_bipartition(b, s) for b in bips]
                assert len(set(images)) == len(images)
                targets = {
                    p for p in list_partitions(n) if two_core(p) == core
                }
                assert set(images) == targets, (m, s)
                for b, lam in zip(bips, images):
                    assert extract_bipartition(lam, s) == b

        for s in (0, 1):
            for m in range(1, 6):
                n = 2 * m + s
                index = ((m,), ())
                sign = ((), (1,) * m)
                assert embed_bipartition(index, s) == (n,)
                assert a_invariant_unitary(index, s) == 0
                assert embed_bipartition(sign, s) == (1,) * n
                assert a_invariant_unitary(sign, s) == n * (n - 1) // 2
                weights = (2 * s + 1,) + (2,) * (m - 1)
                if m == 1:
                    datum = build_datum(
                        "custom", 1, weights, coxeter_matrix=[[1]]
                    )
                else:
                    datum = build_datum("b", m, weights)
                w0 = datum.longest_element()
                assert datum.weight(w0) == a_invariant_unitary(sign, s)


def test_07_genericity_sweep():
    with criterion("7. residue-set sweep ell,q <= 50, a in {1,2}", 30.0):
        report = sweep_a_sets(50, 50)
        assert report["checked"] > 0
        assert report["failures"] == []
        assert report["allEqual"] is True


def test_08_factorization_property_suite():
    with criterion("8. 200 factorization triples, zero counterexamples", 30.0):
        rng = random.Random(20260818)
        counterexamples = 0
        for _ in range(200):
            full, root, prime = make_factorization_instance(rng)
            report = beta_factorization(full, root, prime)
            if report.full_set.image() != report.root_set.image():
                counterexamples += 1
            if any(mu != nu for mu, nu in report.beta):
                counterexamples += 1  # the generator aligns columns
        assert counterexamples == 0


def test_09_catalog_counts_match_brute_force():
    with criterion("9. catalog counts vs brute-force regularity", 10.0):
        for n in range(0, 13):
            parts = list_partitions(n)
            for e in (2, 3, 4, 5):
                got = basic_set_catalog("a", {"n": n}, e)
                want = {
                    render_partition(p) for p in parts if is_e_regular(p, e)
                }
                assert got == want, (n, e)
        for m in range(0, 7):
            bips = list_bipartitions(m)
            for e in (3, 4, 5, 7, 8, 9, 12):
                want = {
                    render_bipartition(b)
                    for b in bips
                    if is_e_regular(b[0], e) and is_e_regular(b[1], e)
                }
                for s in (0, 1):
                    got = basic_set_catalog("b", {"m": m, "s": s}, e)
                    assert got == want, (m, s, e)


def _partition_matrix(n, entries):
    ps = list_partitions(n)
    labels = [render_partition(p) for p in ps]
    rows = [
        DecompRow(lab, n_invariant(p)) for lab, p in zip(labels, ps)
    ]
    return LabeledDecompMatrix(rows, labels, entries)


def _shape_instance(rng, n):
    """Rows grouped by n-invariant, identity diagonal blocks, random
    entries strictly below; returns (matrix, block ranges by class)."""
    parts = sorted(list_partitions(n), key=n_invariant)
    rows = []
    for p in parts:
        for t in range(rng.randrange(1, 3)):
            rows.append(
                DecompRow(
                    f"{render_partition(p)}#{t}",
                    n_invariant(p),
                    class_label=render_partition(p),
                    d_invariant=n_invariant(p),
                )
            )
    size = len(rows)
    cols = [f"c{j + 1}" for j in range(size)]
    start_of = {}
    cursor = 0
    for row in rows:
        if row.class_label not in start_of:
            start_of[row.class_label] = cursor
        cursor += 1
    entries = [[0] * size for _ in range(size)]
    seen = {}
    for i, row in enumerate(rows):
        pos = seen.get(row.class_label, 0)
        seen[row.class_label] = pos + 1
        entries[i][start_of[row.class_label] + pos] = 1
        for j in range(size):
            d_col = rows[j].d_invariant  # cols mirror the row layout
            if (
                rows[j].class_label != row.class_label
                and row.d_invariant > d_col
                and rng.random() < 0.25
            ):
                entries[i][j] = rng.randrange(1, 3)
    return rows, cols, entries


def test_10_triangularity_checkers_randomized():
    with criterion("10. triangularity checkers, 100 instances each", 10.0):
        rng = random.Random(5150)

        for k in range(100):
            n = rng.randrange(2, 8)
            ps = list_partitions(n)
            size = len(ps)
            entries = [[0] * size for _ in range(size)]
            for i in range(size):
                entries[i][i] = 1
                for j in range(size):
                    if (
                        i != j
                        and dominates(ps[i], ps[j])
                        and rng.random() < 0.3
                    ):
                        entries[i][j] = rng.randrange(1, 4)
            if k % 2 == 0:
                report = verify_unitriangular(_partition_matrix(n, entries))
                assert report.ok and not report.violations
            else:
                while True:
                    i = rng.randrange(size)
                    j = rng.randrange(size)
                    if i != j and not dominates(ps[i], ps[j]):
                        break
                entries[i][j] = rng.randrange(1, 4)
                report = verify_unitriangular(_partition_matrix(n, entries))
                assert not report.dominance_ok
                coords = {
                    (v.row_label, v.col_label) for v in report.violations
                }
                assert (
                    render_partition(ps[i]),
                    render_partition(ps[j]),
                ) in coords

        for k in range(100):
            n = rng.randrange(3, 7)
            rows, cols, entries = _shape_instance(rng, n)
            if k % 2 == 0:
                report = verify_conjecture_shape(
                    LabeledDecompMatrix(rows, cols, entries)
                )
                assert report.ok and not report.violations
                block_ds = [b["d"] for b in report.blocks]
                assert block_ds == sorted(block_ds)
            else:
                # seed one entry above the block diagonal: first row
                # (minimal d) against the last column (maximal d)
                entries[0][-1] = 1
                report = verify_conjecture_shape(
                    LabeledDecompMatrix(rows, cols, entries)
                )
                assert not report.ok
                hits = {
                    (v.row_label, v.col_label, v.reason)
                    for v in report.violations
                }
                assert (rows[0].label, cols[-1], "aboveDiagonal") in hits
