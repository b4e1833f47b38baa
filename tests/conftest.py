"""Shared helpers for the test suite (no fixtures; plain builders), and
the pinned G2 oracle tables."""

import random

from heckebasis.basicsets import DecompRow, LabeledDecompMatrix


def make_factorization_instance(rng: random.Random):
    """Random (full, root, prime) triple satisfying every hypothesis of
    the factorization check.

    Construction: pick pivot rows p_1..p_C with column k of the root
    matrix having a 1 at p_k and other nonzero entries only on rows of
    strictly larger a-invariant; make prime unitriangular with
    prime[k][j] != 0 off the diagonal only when a(p_k) > a(p_j); set
    full = root * prime. Then both matrices admit canonical basic sets
    with assignment column k -> p_k, and the induced column
    correspondence is the identity."""
    n_rows = rng.randrange(3, 9)
    n_cols = rng.randrange(1, n_rows + 1)
    a_vals = [rng.randrange(0, 11) for _ in range(n_rows)]
    rows = [DecompRow(f"r{i+1}", a_vals[i]) for i in range(n_rows)]
    pivots = rng.sample(range(n_rows), n_cols)

    root_entries = [[0] * n_cols for _ in range(n_rows)]
    for k, p in enumerate(pivots):
        root_entries[p][k] = 1
        for i in range(n_rows):
            if i != p and a_vals[i] > a_vals[p] and rng.random() < 0.4:
                root_entries[i][k] = rng.randrange(1, 4)

    prime = [[0] * n_cols for _ in range(n_cols)]
    for k in range(n_cols):
        prime[k][k] = 1
        for j in range(n_cols):
            if (
                j != k
                and a_vals[pivots[k]] > a_vals[pivots[j]]
                and rng.random() < 0.4
            ):
                prime[k][j] = rng.randrange(1, 4)

    full_entries = [
        [
            sum(root_entries[i][k] * prime[k][j] for k in range(n_cols))
            for j in range(n_cols)
        ]
        for i in range(n_rows)
    ]
    cols = [f"c{j+1}" for j in range(n_cols)]
    full = LabeledDecompMatrix(rows, cols, full_entries)
    root = LabeledDecompMatrix(rows, cols, root_entries)
    return full, root, prime


# ----- the G2 (3, 1) decomposition tables, pinned as an oracle ---------------
# The library derives these from the built-in representations; the tests
# compare that derivation with the literals below.

G2_ROWS = (
    ("ind", 0),
    ("eps1", 1),
    ("rho+", 3),
    ("rho-", 3),
    ("eps2", 7),
    ("eps", 12),
)

# entry rows listed in the fixed order ind, eps1, rho+, rho-, eps2, eps
G2_TABLES = {
    2: (
        (1, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 0),
        (1, 0, 0),
    ),
    3: (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ),
    6: (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, 0, 0),
        (0, 1, 0),
    ),
    12: (
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 1, 0, 0),
    ),
}

G2_EXPECTED_BASIC_SETS = {
    2: frozenset({"ind", "rho+", "rho-"}),
    3: frozenset({"ind", "eps1", "rho+", "rho-"}),
    6: frozenset({"ind", "eps1", "rho+"}),
    12: frozenset({"ind", "eps1", "rho+", "rho-", "eps2"}),
}


def g2_pinned_table(e: int) -> LabeledDecompMatrix:
    """The pinned table at e; the 6 x 6 identity for e outside
    {2, 3, 6, 12}."""
    entries = G2_TABLES.get(
        e, [[int(i == j) for j in range(6)] for i in range(6)]
    )
    rows = [DecompRow(label, a) for label, a in G2_ROWS]
    cols = [f"c{j + 1}" for j in range(len(entries[0]))]
    return LabeledDecompMatrix(rows, cols, entries)
