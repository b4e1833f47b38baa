"""The benchmark's four workloads.

Each workload turns a seed into a fixed job list. A job has a timed
``run`` that calls into heckebasis and an untimed ``check`` that compares
the output with an answer from ``oracles``; ``check`` raises Mismatch on
a wrong answer. A job whose correct outcome is an exception or a nonzero
exit code checks for exactly that outcome.

The seed chooses the contents of the jobs (weights, coefficients,
planted matrices, parameters) and their order. The mix of job kinds and
sizes is fixed per workload, so runs with different seeds do the same
amount of work and their timings can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import oracles as ref
from heckebasis import cli
from heckebasis.basicsets import (
    LabeledDecompMatrix,
    NoCanonicalSet,
    basic_set_catalog,
    beta_factorization,
    canonical_basic_set,
    verify_conjecture_shape,
    verify_unitriangular,
)
from heckebasis.coxeter import build_datum
from heckebasis.hecke import HeckeElement, tau
from heckebasis.laurent import LaurentPoly
from heckebasis.modarith import sweep_a_sets
from heckebasis.partitions import (
    embed_bipartition,
    extract_bipartition,
    list_bipartitions,
    list_partitions,
    two_core,
)
from heckebasis.reps import (
    a_invariant,
    builtin_g2_reps,
    check_representation,
    one_dim_reps,
    schur_element,
)

H3_MATRIX = ((1, 5, 2), (5, 1, 3), (2, 3, 1))
H4_MATRIX = ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))

CHILD_TIMEOUT_S = 60


class Mismatch(Exception):
    """An output the oracle rejects, or an outcome other than the expected one."""


def _no_error(exc) -> None:
    if exc is not None:
        raise Mismatch(f"unexpected {type(exc).__name__}: {exc}")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _poly_dict(p: LaurentPoly) -> dict:
    return dict(p.items())


class Workload:
    """A seeded job list plus the state its jobs share."""

    def __init__(self, name: str, jobs: list, tmp: Path):
        self.name = name
        self.jobs = jobs
        self.tmp = tmp
        self.products: dict = {}  # hecke_products: product job -> result
        self.first_stdout: dict = {}  # cli_mix: argument tuple -> stdout

    def begin_pass(self) -> None:
        self.products.clear()


# ----- child processes --------------------------------------------------------


def child_env(src: Path, cache_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    if cache_dir is not None:
        env["HECKE_CACHE_DIR"] = str(cache_dir)
    return env


def spawn(argv: list, env: dict, out_path: Path, err_path: Path):
    """Run argv to completion with stdout and stderr going to files.
    Returns (exit code, peak RSS in KiB, wall seconds from spawn to exit).
    A child still running after CHILD_TIMEOUT_S is killed."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, elapsed


# ----- schur_scaling ----------------------------------------------------------


class SchurJob:
    """build_datum, then check, Schur element and a-invariant of the index
    and sign representations (all six built-in reps for G2 (3, 1))."""

    kind = "schur"

    def __init__(self, tag, rank, weights, matrix=None):
        self.tag, self.rank, self.weights, self.matrix = tag, rank, weights, matrix

    def key(self):
        return (self.kind, self.tag, self.rank, self.weights)

    def run(self, tr, wl):
        with tr.span("coxeter.build"):
            datum = build_datum(
                self.tag, self.rank, self.weights, coxeter_matrix=self.matrix
            )
        tr.add("coxeter.build_elements", datum.size)
        reps = builtin_g2_reps(datum) if self.tag == "g2" else one_dim_reps(datum)
        rows = []
        for rep in reps:
            with tr.span("reps.check"):
                ok = check_representation(rep).ok
            with tr.span("reps.schur"):
                c = schur_element(rep)
            tr.add("reps.schur_elements", datum.size)
            with tr.span("reps.ainv"):
                af = a_invariant(c)
            rows.append((rep.name, ok, c, af))
        return rows

    def poincare(self) -> dict:
        if self.tag == "a":
            return ref.poincare_a(self.rank)
        if self.tag == "b":
            return ref.poincare_b(self.rank, *self.weights)
        if self.tag == "g2":
            return ref.poincare_g2_31()
        degrees = ref.H3_DEGREES if self.rank == 3 else ref.H4_DEGREES
        return ref.poincare_degrees(degrees)

    def check(self, out, exc, wl):
        _no_error(exc)
        index = self.poincare()
        longest = max(index)  # L(w0), the degree of the Poincare polynomial
        wanted = {
            "index": (index, (0, 1)),
            "sign": (ref.poly_invert(index), (longest, 1)),
        }
        names = ["index", "sign"]
        if self.tag == "g2":
            names = list(ref.G2_PINNED_AF)
            wanted = {name: (None, af) for name, af in ref.G2_PINNED_AF.items()}
            wanted["ind"] = (index, (0, 1))
            wanted["eps"] = (ref.poly_invert(index), (longest, 1))
        _expect([row[0] for row in out] == names, f"reps {[r[0] for r in out]}")
        for name, ok, c, af in out:
            poly, pair = wanted[name]
            _expect(ok, f"{name}: check_representation failed")
            if poly is not None:
                _expect(_poly_dict(c) == poly, f"{name}: Schur element {c}")
            _expect(af == pair, f"{name}: (a, f) = {af}, expected {pair}")


def make_schur_scaling(seed: int, tmp: Path, tr) -> Workload:
    rng = random.Random(seed)
    # Sorted by cost: 36 jobs below G2, 30 G2 jobs holding the median,
    # 18 H3/B4 jobs, 14 A5 jobs holding the 90th percentile, then one
    # each of A6, B5, H4 and A7.
    specs = (
        [("a", 3)] * 12 + [("b", 3)] * 12 + [("a", 4)] * 12 + [("g2", 2)] * 30
        + [("h", 3)] * 10 + [("b", 4)] * 8 + [("a", 5)] * 14
        + [("a", 6), ("b", 5), ("h", 4), ("a", 7)]
    )
    jobs = []
    for tag, rank in specs:
        if tag == "a":
            jobs.append(SchurJob("a", rank, (1,) * rank))
        elif tag == "b":
            # weights up to 2 on B5, where larger ones cost up to twice as much
            top = 2 if rank == 5 else 4
            jobs.append(SchurJob("b", rank, (rng.randint(1, top), rng.randint(1, top))))
        elif tag == "g2":
            jobs.append(SchurJob("g2", 2, (3, 1)))
        else:
            matrix = H3_MATRIX if rank == 3 else H4_MATRIX
            jobs.append(SchurJob("custom", rank, (1,) * rank, matrix))
    rng.shuffle(jobs)
    return Workload("schur_scaling", jobs, tmp)


# ----- hecke_products ---------------------------------------------------------

# Term counts of the product operands per datum. Sorted by cost, the 25
# text jobs come first, then 40 equal G2 products holding the median, 17
# small B3/A4/H3 products, 17 A4 16-term and B3 24-term products holding
# the 90th percentile, and four products of 20-48 terms.
PRODUCT_SIZES = {
    "g2": [12] * 40,
    "b3": [8] * 6 + [12] * 2 + [24],
    "a4": [8] * 4 + [16] * 16 + [24, 48],
    "h3": [8] * 5 + [20, 32],
}
TEXT_JOBS = 25


class _HeckeDatum:
    """A datum built in set-up, with the inverse and weight of every
    element tabulated for the trace oracle."""

    def __init__(self, datum):
        self.datum = datum
        self.inverse = [datum.inverse(w).index for w in datum.elements()]
        self.weight = [datum.weight(w) for w in datum.elements()]


def _random_terms(rng, size: int, count: int) -> dict:
    """{element index: coefficient dict} with 1-3 terms per coefficient.

    Elements are numbered by length, so drawing the k-th element from
    the k-th of count equal slices fixes the length profile, and with it
    the cost of the product, whatever the seed."""
    count = min(count, size)
    out = {}
    for k in range(count):
        i = rng.randrange(k * size // count, (k + 1) * size // count)
        exps = rng.sample(range(-3, 4), 1 + k % 3)
        out[i] = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps}
    return out


def _hecke_element(hd: _HeckeDatum, terms: dict) -> HeckeElement:
    d = hd.datum
    return HeckeElement(d, {d.element(i): LaurentPoly(c) for i, c in terms.items()})


class ProductJob:
    kind = "product"

    def __init__(self, label, hd, x_terms, y_terms):
        self.label, self.hd = label, hd
        self.x_terms, self.y_terms = x_terms, y_terms
        self.x = _hecke_element(hd, x_terms)
        self.y = _hecke_element(hd, y_terms)

    def key(self):
        return (self.kind, self.label, sorted(self.x_terms.items()), sorted(self.y_terms.items()))

    def run(self, tr, wl):
        with tr.span("hecke.mul"):
            p = self.x * self.y
        wl.products[self] = p
        return p

    def check(self, out, exc, wl):
        _no_error(exc)
        # bilinear law: tau(x y) = sum_w x_w y_(w^-1) u^L(w)
        want: dict = {}
        for i, cx in self.x_terms.items():
            cy = self.y_terms.get(self.hd.inverse[i])
            if cy:
                term = ref.poly_mul(ref.poly_mul(cx, cy), {self.hd.weight[i]: 1})
                want = ref.poly_add(want, term)
        _expect(_poly_dict(tau(out)) == want, f"{self.label}: tau(x y) = {tau(out)}")


class TextJob:
    """str, parse and support of a product computed earlier in the pass."""

    kind = "text"

    def __init__(self, source: ProductJob):
        self.source = source

    def key(self):
        return (self.kind,) + self.source.key()

    def run(self, tr, wl):
        p = wl.products[self.source]
        with tr.span("hecke.text"):
            back = HeckeElement.parse(p.datum, str(p))
            terms, original = back.support(), p.support()
        return p, back, terms, original

    def check(self, out, exc, wl):
        _no_error(exc)
        p, back, terms, original = out
        _expect(back == p, f"{self.source.label}: parse(str(p)) != p")
        _expect(
            [(w.index, c) for w, c in terms] == [(w.index, c) for w, c in original],
            f"{self.source.label}: support differs after the round trip",
        )


def make_hecke_products(seed: int, tmp: Path, tr) -> Workload:
    rng = random.Random(seed)
    specs = {
        "g2": ("g2", 2, (3, 1), None),
        "b3": ("b", 3, (2, 1), None),
        "a4": ("a", 4, (1,) * 4, None),
        "h3": ("custom", 3, (1,) * 3, H3_MATRIX),
    }
    products = []
    for label, (tag, rank, weights, matrix) in specs.items():
        with tr.span("coxeter.build"):
            datum = build_datum(tag, rank, weights, coxeter_matrix=matrix)
        tr.add("coxeter.build_elements", datum.size)
        hd = _HeckeDatum(datum)
        for n in PRODUCT_SIZES[label]:
            x = _random_terms(rng, datum.size, n)
            y = _random_terms(rng, datum.size, n)
            products.append(ProductJob(label, hd, x, y))
    rng.shuffle(products)
    with_text = set(rng.sample(range(len(products)), TEXT_JOBS))
    jobs = []
    for i, job in enumerate(products):
        jobs.append(job)
        if i in with_text:
            jobs.append(TextJob(job))
    return Workload("hecke_products", jobs, tmp)


# ----- combinatorics ----------------------------------------------------------


def planted_matrix(rng, labels, a_values, n_cols, density=0.3):
    """A matrix whose canonical basic set is known: column k has a 1 on a
    distinct pivot row and other nonzero entries only on rows of strictly
    larger a-invariant. Returns (JSON dict, pivot row per column)."""
    n = len(labels)
    pivots = rng.sample(range(n), n_cols)
    entries = [[0] * n_cols for _ in range(n)]
    for k, p in enumerate(pivots):
        entries[p][k] = 1
        for i in range(n):
            if a_values[i] > a_values[p] and rng.random() < density:
                entries[i][k] = rng.randint(1, 3)
    data = {
        "rows": [{"label": lab, "a": a} for lab, a in zip(labels, a_values)],
        "cols": [f"c{k + 1}" for k in range(n_cols)],
        "entries": entries,
    }
    return data, pivots


def random_labels(rng, n: int, a_max: int = 30):
    labels = [f"r{i}" for i in rng.sample(range(10 * n), n)]
    return labels, [rng.randint(0, a_max) for _ in range(n)]


def tie_matrix(rng, n_rows: int, n_cols: int):
    """A planted matrix plus one extra row sharing the pivot's a-invariant
    in one column: that column has a tie. Returns (JSON dict, column)."""
    labels, a_values = random_labels(rng, n_rows)
    data, pivots = planted_matrix(rng, labels, a_values, n_cols)
    k = rng.randrange(n_cols)
    data["rows"].append({"label": "tie", "a": a_values[pivots[k]]})
    data["entries"].append([1 if j == k else 0 for j in range(n_cols)])
    return data, data["cols"][k]


class CanonicalJob:
    kind = "canonical"

    def __init__(self, data, iota=None, tie_column=None):
        self.data, self.iota, self.tie_column = data, iota, tie_column

    def key(self):
        return (self.kind, json.dumps(self.data, sort_keys=True))

    def run(self, tr, wl):
        tr.add("basicsets.entries", len(self.data["rows"]) * len(self.data["cols"]))
        with tr.span("basicsets.canonical"):
            return canonical_basic_set(LabeledDecompMatrix.from_json_dict(self.data))

    def check(self, out, exc, wl):
        if self.tie_column is not None:
            _expect(
                isinstance(exc, NoCanonicalSet)
                and exc.reason == "tie"
                and exc.column == self.tie_column,
                f"expected a tie in {self.tie_column!r}, got {exc!r}",
            )
            return
        _no_error(exc)
        _expect(out.as_dict() == self.iota, "assignment differs from the planted one")


def _canonical_partition_job(rng, n: int) -> CanonicalJob:
    parts = ref.partitions(n)
    labels = [ref.render_partition(p) for p in parts]
    a_values = [ref.n_invariant(p) for p in parts]
    data, pivots = planted_matrix(rng, labels, a_values, len(parts) // 4)
    return CanonicalJob(data, {c: labels[p] for c, p in zip(data["cols"], pivots)})


def _canonical_random_job(rng, n_rows: int) -> CanonicalJob:
    labels, a_values = random_labels(rng, n_rows)
    data, pivots = planted_matrix(rng, labels, a_values, n_rows // 5)
    return CanonicalJob(data, {c: labels[p] for c, p in zip(data["cols"], pivots)})


def triangular_matrix(rng, n: int, violate: bool):
    """Square matrix over the partitions of n with 1 on the diagonal and
    other entries only where the row is dominated by the column; with
    violate, one entry where it is not. Returns (JSON dict, expected
    violations as (row, col, phrasing))."""
    parts = ref.partitions(n)
    labels = [ref.render_partition(p) for p in parts]
    size = len(parts)
    entries = [[0] * size for _ in range(size)]
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            if i == j:
                entries[i][j] = 1
            elif ref.dominated(lam, mu) and rng.random() < 0.3:
                entries[i][j] = rng.randint(1, 3)
    expected = set()
    if violate:
        bad = [
            (i, j)
            for i in range(size)
            for j in range(size)
            if i != j and not ref.dominated(parts[i], parts[j])
        ]
        i, j = rng.choice(bad)
        entries[i][j] = rng.randint(1, 3)
        expected.add((labels[i], labels[j], "dominance"))
        if not ref.n_invariant(parts[j]) < ref.n_invariant(parts[i]):
            expected.add((labels[i], labels[j], "nInvariant"))
    data = {
        "rows": [{"label": lab, "a": 0} for lab in labels],
        "cols": labels,
        "entries": entries,
    }
    return data, expected


class TriangularJob:
    kind = "triangular"

    def __init__(self, data, expected):
        self.data, self.expected = data, expected

    def key(self):
        return (self.kind, json.dumps(self.data, sort_keys=True))

    def run(self, tr, wl):
        tr.add("basicsets.entries", len(self.data["rows"]) ** 2)
        with tr.span("basicsets.verify"):
            return verify_unitriangular(LabeledDecompMatrix.from_json_dict(self.data))

    def check(self, out, exc, wl):
        _no_error(exc)
        got = {(v.row_label, v.col_label, v.phrasing) for v in out.violations}
        _expect(got == self.expected, f"violations {sorted(got)}")
        _expect(out.ok == (not self.expected), "report ok flag")
        _expect(out.dominance_ok == (not self.expected), "dominance flag")


def shape_matrix(rng, violate: bool):
    """Block-triangular matrix: rows grouped into classes with distinct
    d-invariants (rows shuffled), identity diagonal blocks, entries off
    the blocks only where the row's d exceeds the column block's d. With
    violate, one entry above the diagonal. Returns (JSON dict, expected
    blocks, expected violations as (row, col, reason))."""
    n_classes = rng.randint(4, 7)
    d_values = rng.sample(range(20), n_classes)
    classes = [f"k{i}" for i in range(n_classes)]
    sizes = [rng.randint(2, 8) for _ in classes]
    rows = [(c, d, f"{c}.{t}") for c, d, s in zip(classes, d_values, sizes) for t in range(s)]
    rng.shuffle(rows)
    members = {c: [lab for cc, _, lab in rows if cc == c] for c in classes}
    order = sorted(classes, key=lambda c: d_values[classes.index(c)])
    cols, col_block, col_pos = [], [], []
    blocks = []
    for c in order:
        start = len(cols)
        for pos in range(len(members[c])):
            cols.append(f"col{len(cols) + 1}")
            col_block.append(c)
            col_pos.append(pos)
        blocks.append(
            {"class": c, "d": d_values[classes.index(c)], "rows": members[c], "cols": cols[start:]}
        )
    d_of = dict(zip(classes, d_values))
    entries = []
    for c, d, lab in rows:
        pos = members[c].index(lab)
        row = []
        for j in range(len(cols)):
            if col_block[j] == c:
                row.append(1 if col_pos[j] == pos else 0)
            elif d > d_of[col_block[j]] and rng.random() < 0.3:
                row.append(rng.randint(1, 2))
            else:
                row.append(0)
        entries.append(row)
    expected = set()
    if violate:
        i = rng.choice([k for k, r in enumerate(rows) if r[0] == order[0]])
        j = rng.choice([k for k in range(len(cols)) if col_block[k] != order[0]])
        entries[i][j] = 1
        expected.add((rows[i][2], cols[j], "aboveDiagonal"))
    data = {
        "rows": [{"label": lab, "a": 0, "class": c, "d": d} for c, d, lab in rows],
        "cols": cols,
        "entries": entries,
    }
    return data, blocks, expected


class ShapeJob:
    kind = "shape"

    def __init__(self, data, blocks, expected):
        self.data, self.blocks, self.expected = data, blocks, expected

    def key(self):
        return (self.kind, json.dumps(self.data, sort_keys=True))

    def run(self, tr, wl):
        tr.add("basicsets.entries", len(self.data["rows"]) ** 2)
        with tr.span("basicsets.verify"):
            return verify_conjecture_shape(LabeledDecompMatrix.from_json_dict(self.data))

    def check(self, out, exc, wl):
        _no_error(exc)
        got = {(v.row_label, v.col_label, v.reason) for v in out.violations}
        _expect(got == self.expected, f"violations {sorted(got)}")
        _expect(out.ok == (not self.expected), "report ok flag")
        _expect([dict(b) for b in out.blocks] == self.blocks, "block structure")


def factor_instance(rng, n_rows: int):
    """full = root * prime with root planted and prime a permutation plus
    extra entries that keep every hypothesis. Returns (full, root, prime,
    expected beta)."""
    n_cols = n_rows // 3
    labels, a_values = random_labels(rng, n_rows)
    root, pivots = planted_matrix(rng, labels, a_values, n_cols)
    sigma = list(range(n_cols))
    rng.shuffle(sigma)
    prime = [[0] * n_cols for _ in range(n_cols)]
    for j in range(n_cols):
        nu = sigma[j]
        prime[nu][j] = 1
        pivot_a = a_values[pivots[nu]]
        for k in range(n_cols):
            if (
                k != nu
                and root["entries"][pivots[nu]][k] == 0
                and a_values[pivots[k]] > pivot_a
                and rng.random() < 0.3
            ):
                prime[k][j] = rng.randint(1, 2)
    full = {
        "rows": root["rows"],
        "cols": [f"f{j + 1}" for j in range(n_cols)],
        "entries": ref.mat_mul(root["entries"], prime),
    }
    beta = {full["cols"][j]: root["cols"][sigma[j]] for j in range(n_cols)}
    return full, root, prime, beta


class FactorJob:
    kind = "factor"

    def __init__(self, full, root, prime, beta):
        self.full, self.root, self.prime, self.beta = full, root, prime, beta

    def key(self):
        return (self.kind, json.dumps([self.full, self.root, self.prime], sort_keys=True))

    def run(self, tr, wl):
        rows, cols = len(self.full["rows"]), len(self.full["cols"])
        tr.add("basicsets.entries", 2 * rows * cols + cols * cols)
        with tr.span("basicsets.factor"):
            return beta_factorization(
                LabeledDecompMatrix.from_json_dict(self.full),
                LabeledDecompMatrix.from_json_dict(self.root),
                self.prime,
            )

    def check(self, out, exc, wl):
        _no_error(exc)
        _expect(dict(out.beta) == self.beta, "beta differs from the planted one")
        _expect(out.full_set.image() == out.root_set.image(), "basic sets differ")


class CatalogJob:
    kind = "catalog"

    def __init__(self, tag, params, e):
        self.tag, self.params, self.e = tag, params, e

    def key(self):
        return (self.kind, self.tag, sorted(self.params.items()), self.e)

    def run(self, tr, wl):
        with tr.span("basicsets.catalog"):
            return basic_set_catalog(self.tag, self.params, self.e)

    def check(self, out, exc, wl):
        _no_error(exc)
        if self.tag == "a":
            want = ref.partition_count(self.params["n"], self.e)
        else:
            want = ref.bipartition_count(self.params["m"], self.e)
        _expect(len(out) == want, f"{len(out)} labels, generating function gives {want}")


class RoundTripJob:
    """embed/extract over all bipartitions of m, and the 2-cores of all
    partitions of 2m + s: the images must be exactly the partitions with
    the 2-core that s prescribes."""

    kind = "roundtrip"

    def __init__(self, m, s):
        self.m, self.s = m, s

    def key(self):
        return (self.kind, self.m, self.s)

    def run(self, tr, wl):
        m, s = self.m, self.s
        with tr.span("partitions.enum"):
            bips = list_bipartitions(m)
            parts = list_partitions(2 * m + s)
        tr.add("partitions.enumerated", len(bips) + len(parts))
        with tr.span("partitions.abacus"):
            images = [embed_bipartition(b, s) for b in bips]
            back = [extract_bipartition(p, s) for p in images]
            cores = [two_core(p) for p in parts]
        return bips, parts, images, back, cores

    def check(self, out, exc, wl):
        _no_error(exc)
        bips, parts, images, back, cores = out
        core = () if self.s == 0 else (1,)
        _expect(len(bips) == ref.bipartition_count(self.m), "bipartition count")
        _expect(len(parts) == ref.partition_count(2 * self.m + self.s), "partition count")
        _expect(back == bips, "extract(embed(b)) != b")
        with_core = {p for p, c in zip(parts, cores) if c == core}
        _expect(len(set(images)) == len(bips), "embedding is not injective")
        _expect(set(images) == with_core, "images are not the partitions with the 2-core")


class SweepJob:
    kind = "sweep"

    def __init__(self, ell_max, q_max):
        self.ell_max, self.q_max = ell_max, q_max

    def key(self):
        return (self.kind, self.ell_max, self.q_max)

    def run(self, tr, wl):
        with tr.span("modarith.sweep"):
            out = sweep_a_sets(self.ell_max, self.q_max)
        tr.add("modarith.tuples_checked", out["checked"])
        return out

    def check(self, out, exc, wl):
        _no_error(exc)
        want = ref.sweep_count(self.ell_max, self.q_max)
        _expect(out["allEqual"] and not out["failures"], "sweep reports A != A0")
        _expect(out["checked"] == want, f"checked {out['checked']}, expected {want}")


CATALOG_B_E = (3, 4, 5, 7, 8)  # e with a closed form for type b


def make_combinatorics(seed: int, tmp: Path, tr) -> Workload:
    rng = random.Random(seed)
    jobs = []
    # 32 planted matrices over the partitions of 13, of nearly equal cost,
    # hold the median
    for n in [10, 11, 12, 14, 15, 16] * 2 + [13] * 32:
        jobs.append(_canonical_partition_job(rng, n))
    for n_rows in [50, 100, 150, 200, 80, 120, 170] * 2:
        jobs.append(_canonical_random_job(rng, n_rows))
    for n_rows in [40, 80, 120] * 2:
        data, column = tie_matrix(rng, n_rows, n_rows // 5)
        jobs.append(CanonicalJob(data, tie_column=column))
    for n in [8, 9, 10] * 2:
        jobs.append(TriangularJob(*triangular_matrix(rng, n, violate=False)))
        jobs.append(TriangularJob(*triangular_matrix(rng, n, violate=True)))
    for violate in [False] * 8 + [True] * 4:
        jobs.append(ShapeJob(*shape_matrix(rng, violate)))
    for n_rows in [30, 45, 60] * 4:
        jobs.append(FactorJob(*factor_instance(rng, n_rows)))
    for n in [12, 14, 16, 18, 20, 22, 24]:
        jobs.append(CatalogJob("a", {"n": n}, rng.randint(2, 6)))
    for m in [5, 6, 7, 8, 9, 10, 11]:
        jobs.append(CatalogJob("b", {"m": m, "s": rng.randint(0, 1)}, rng.choice(CATALOG_B_E)))
    for m in [6, 7, 8, 9, 12]:
        jobs.extend([RoundTripJob(m, 0), RoundTripJob(m, 1)])
    # 12 sweeps of nearly equal cost (the primes up to 23 against 25-27
    # values of q) and the two m = 12 round trips, which cost about the
    # same, hold the 90th percentile; two 48-50 boxes sit above them.
    for lo, hi, count in [(25, 27, 12), (48, 50, 2)]:
        for _ in range(count):
            jobs.append(SweepJob(rng.randint(lo, hi), rng.randint(lo, hi)))
    rng.shuffle(jobs)
    return Workload("combinatorics", jobs, tmp)


# ----- cli_mix ----------------------------------------------------------------

PAPER_E_VALUE_A = "e  = 4\ne' = 4\nA  = j in {2} (mod 4)\nA0 = j in {2} (mod 4)\nequal: yes\n"
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


class CliJob:
    """One `python -m heckebasis.cli` child with a fresh cache directory.

    cache is None, "miss" (empty directory) or "hit" (directory warmed by
    set-up). oracle(stdout) raises Mismatch; besides it, stdout must be
    byte-identical to the first run of the same arguments."""

    kind = "cli"

    def __init__(self, args, code=0, oracle=None, cache=None):
        self.args, self.code, self.oracle, self.cache = tuple(args), code, oracle, cache

    def key(self):
        return (self.kind, self.args, self.code, self.cache)

    def prepare(self, wl):
        self.dir = Path(tempfile.mkdtemp(dir=wl.tmp))
        self.cache_dir = self.dir / "cache"
        if self.cache == "hit":
            shutil.copytree(wl.warm_cache, self.cache_dir)
        else:
            self.cache_dir.mkdir()

    def run(self, tr, wl):
        argv = [sys.executable, "-m", "heckebasis.cli", *self.args, "--cache-dir", str(self.cache_dir)]
        out_path, err_path = self.dir / "out", self.dir / "err"
        code, rss_kib, _ = spawn(argv, child_env(wl.src, self.cache_dir), out_path, err_path)
        wl.child_rss_kib = max(wl.child_rss_kib, rss_kib)
        return code, out_path.read_bytes()

    def check(self, out, exc, wl):
        try:
            _no_error(exc)
            code, stdout = out
            _expect(code == self.code, f"{' '.join(self.args)}: exit {code}, expected {self.code}")
            if self.oracle is not None:
                self.oracle(stdout.decode("utf-8"))
            first = wl.first_stdout.setdefault(self.args, stdout)
            _expect(stdout == first, f"{' '.join(self.args)}: stdout differs from the first run")
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


def _json_oracle(test):
    def oracle(text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise Mismatch(f"stdout is not JSON: {exc}") from None
        test(data)

    return oracle


def _equals(want: str):
    def oracle(text):
        _expect(text == want, f"stdout {text!r}, expected {want!r}")

    return oracle


def _check_schur_json(data):
    got = [(r["name"], (r["aInvariant"], r["fLambda"])) for r in data["reps"]]
    _expect(got == list(ref.G2_PINNED_AF.items()), f"schur table {got}")
    index = {int(tok.split("^")[1]): int(tok.split("*")[0]) for tok in data["reps"][0]["schur"].split(" + ")}
    _expect(index == ref.poincare_g2_31(), "index Schur element")


def _check_schur_table(text):
    rows = [line.split() for line in text.splitlines()[2:]]
    got = [(r[0], (int(r[2]), int(r[3]))) for r in rows]
    _expect(got == list(ref.G2_PINNED_AF.items()), f"schur table {got}")


def _check_count_line(count: int):
    def oracle(text):
        _expect(text.splitlines()[0].startswith(f"{count} labels"), f"count line {text.splitlines()[:1]}")

    return oracle


def _seeded_partition_with_core(rng, size: int, s: int):
    core = () if s == 0 else (1,)
    return rng.choice([p for p in ref.partitions(size) if ref.two_core(p) == core])


def _random_bipartition(rng, m: int) -> str:
    k = rng.randint(0, m)
    first = rng.choice(ref.partitions(k))
    second = rng.choice(ref.partitions(m - k))
    return f"{ref.render_partition(first)}|{ref.render_partition(second)}"


def _e_value_args(rng):
    ell = rng.choice(SMALL_PRIMES)
    q = rng.choice([q for q in range(2, 60) if q % ell])
    return q, ell


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return str(path)


def make_cli_mix(seed: int, tmp: Path, tr, src: Path) -> Workload:
    rng = random.Random(seed)
    fixtures = tmp / "fixtures"
    fixtures.mkdir()
    labels, a_values = random_labels(rng, 12)
    planted, pivots = planted_matrix(rng, labels, a_values, 5)
    planted_iota = {c: labels[p] for c, p in zip(planted["cols"], pivots)}
    tie, _ = tie_matrix(rng, 12, 4)
    tri_pass, _ = triangular_matrix(rng, 6, violate=False)
    tri_fail, _ = triangular_matrix(rng, 6, violate=True)
    shape_pass, _, _ = shape_matrix(rng, violate=False)
    shape_fail, _, _ = shape_matrix(rng, violate=True)
    full, root, prime, beta = factor_instance(rng, 15)
    path = {
        name: _write_json(fixtures / f"{name}.json", data)
        for name, data in [
            ("planted", planted), ("tie", tie), ("tri_pass", tri_pass),
            ("tri_fail", tri_fail), ("shape_pass", shape_pass),
            ("shape_fail", shape_fail), ("full", full), ("root", root),
            ("prime", prime),
        ]
    }

    templates = []

    def add(args, code=0, oracle=None, cache=None):
        templates.append(CliJob(args, code, oracle, cache))

    for fmt in ("table", "json", "table", "json"):
        q, ell = _e_value_args(rng)
        e = ref.e_value(q, ell)
        oracle = _equals(f"e = {e}\n") if fmt == "table" else _equals(json.dumps({"e": e}, indent=2) + "\n")
        add(["e-value", "--q", str(q), "--ell", str(ell), "--format", fmt], oracle=oracle)
    add(["e-value", "--q", "2", "--ell", "7"], oracle=_equals("e = 3\n"))
    add(["e-value", "--q", "2", "--ell", "5", "--a", "1", "--b", "0"], oracle=_equals(PAPER_E_VALUE_A))
    while True:
        q, ell = _e_value_args(rng)
        if q % ell != 1 and pow(q, 2, ell) != 1:
            break
    e = ref.e_value(q, ell)
    add(
        ["e-value", "--q", str(q), "--ell", str(ell), "--a", "2", "--b", str(rng.randint(0, 3)), "--format", "json"],
        oracle=_json_oracle(lambda d, e=e: _expect(d["e"] == e and d["equal"] is True, f"report {d}")),
    )
    for cache in ("miss", "hit"):
        add(["schur", "--format", "json"], oracle=_json_oracle(_check_schur_json), cache=cache)
        add(["schur", "--format", "table"], oracle=_check_schur_table, cache=cache)
    add(
        ["basic-set", "--type", "g2", "--e", "6", "--format", "json"],
        oracle=_json_oracle(lambda d: _expect(d["labels"] == ref.G2_BASIC_SET_E6, f"labels {d}")),
    )
    n, e = rng.randint(6, 10), rng.randint(2, 5)
    count = ref.partition_count(n, e)
    add(
        ["basic-set", "--type", "a", "--n", str(n), "--e", str(e), "--format", "json"],
        oracle=_json_oracle(lambda d, c=count: _expect(d["count"] == c == len(d["labels"]), f"count {d['count']}")),
    )
    m, e = rng.randint(3, 6), rng.choice(CATALOG_B_E)
    add(
        ["basic-set", "--type", "b", "--m", str(m), "--s", str(rng.randint(0, 1)), "--e", str(e)],
        oracle=_check_count_line(ref.bipartition_count(m, e)),
    )
    add(
        ["basic-set", "--input", path["planted"], "--format", "json"],
        oracle=_json_oracle(lambda d: _expect(d["iota"] == planted_iota, "planted assignment")),
    )
    add(["basic-set", "--input", path["planted"]])
    for fmt in ("json", "table"):
        m, s = rng.randint(2, 6), rng.randint(0, 1)
        size = 2 * m + s
        add(
            ["embed", "--bipartition", _random_bipartition(rng, m), "--s", str(s), "--format", fmt],
            oracle=_json_oracle(
                lambda d, size=size: _expect(sum(map(int, d["partition"].split(","))) == size, "size")
            ) if fmt == "json" else None,
        )
        m, s = rng.randint(2, 6), rng.randint(0, 1)
        lam = ref.render_partition(_seeded_partition_with_core(rng, 2 * m + s, s))
        add(["extract", "--partition", lam, "--s", str(s), "--format", fmt])
        add(["afun", "--bipartition", _random_bipartition(rng, rng.randint(2, 6)), "--s", str(rng.randint(0, 1)), "--format", fmt])
    add(
        ["factor", "--full", path["full"], "--root", path["root"], "--dprime", path["prime"], "--format", "json"],
        oracle=_json_oracle(lambda d: _expect(d["beta"] == beta and d["setsEqual"], "planted beta")),
    )
    add(
        ["verify-triangular", "--input", path["tri_pass"], "--format", "json"],
        oracle=_json_oracle(lambda d: _expect(d["ok"] is True, "report")),
    )
    add(["verify-conjecture-shape", "--input", path["shape_pass"]])
    # small boxes: the few schur cache misses stay the only heavy children
    ell_max, q_max = rng.randint(8, 12), rng.randint(8, 12)
    add(
        ["sweep-genericity", "--ell-max", str(ell_max), "--q-max", str(q_max), "--format", "json"],
        oracle=_json_oracle(
            lambda d, c=ref.sweep_count(ell_max, q_max): _expect(d["allEqual"] and d["checked"] == c, "sweep")
        ),
    )
    ell_max, q_max = rng.randint(8, 12), rng.randint(8, 12)
    add(
        ["sweep-genericity", "--ell-max", str(ell_max), "--q-max", str(q_max)],
        oracle=_equals(f"checked {ref.sweep_count(ell_max, q_max)} parameter tuples\nall equal: yes\n"),
    )
    # outcomes that must be exit 2 (precondition), 3 (math failure), 4 (not catalogued)
    add(["e-value", "--q", "7", "--ell", "7"], code=2, oracle=_equals(""))
    add(["e-value", "--q", "x", "--ell", "5"], code=2, oracle=_equals(""))
    add(["extract", "--partition", "2,1", "--s", "0"], code=2, oracle=_equals(""))
    add(["basic-set", "--type", "a", "--e", "2"], code=2, oracle=_equals(""))
    add(["verify-triangular", "--input", path["tri_fail"], "--format", "json"], code=3,
        oracle=_json_oracle(lambda d: _expect(d["ok"] is False, "report")))
    add(["basic-set", "--input", path["tie"]], code=3, oracle=_equals(""))
    add(["verify-conjecture-shape", "--input", path["shape_fail"], "--format", "json"], code=3,
        oracle=_json_oracle(lambda d: _expect(d["ok"] is False, "report")))
    add(["basic-set", "--type", "b", "--m", "3", "--s", "0", "--e", "2"], code=4, oracle=_equals(""))
    add(["basic-set", "--type", "g2", "--weights", "1,1", "--e", "6"], code=4, oracle=_equals(""))

    jobs = [CliJob(t.args, t.code, t.oracle, t.cache) for t in templates for _ in range(3)]
    rng.shuffle(jobs)
    wl = Workload("cli_mix", jobs, tmp)
    wl.src = src
    wl.child_rss_kib = 0
    wl.warm_cache = tmp / "warm-cache"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["schur", "--format", "json", "--cache-dir", str(wl.warm_cache)])
    return wl


def make_workload(name: str, seed: int, tmp: Path, tr, src: Path) -> Workload:
    if name == "cli_mix":
        return make_cli_mix(seed, tmp, tr, src)
    return {
        "schur_scaling": make_schur_scaling,
        "hecke_products": make_hecke_products,
        "combinatorics": make_combinatorics,
    }[name](seed, tmp, tr)
