"""Canonical basic sets from labeled decomposition matrices.

A labeled decomposition matrix carries nonnegative integer entries, row
labels with attached a-invariants (plus optional class labels and
d-invariants), and column labels. The canonical basic set of such a
matrix, when it exists, is the injective map iota sending each column mu
to the unique row of minimal a-invariant among the rows with a nonzero
entry in column mu; that entry must be 1, and every other nonzero entry
of the column must sit on a row of strictly larger a-invariant.

Also here: the decomposition tables of the two-parameter dihedral
algebra of order 12 with weights (3, 1), derived from its built-in
representations, the factorization check D = D_e * D' together with the
induced column correspondence beta, closed-form catalogs of basic-set
labels for the families where a closed form is known, and two
report-style verifiers (unitriangular shape over partition labels;
block-triangular shape by class and d-invariant).

At import the module needs partitions alone: the G2 section loads
coxeter, laurent and reps when it is first called.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress
from operator import add, mul
from typing import Mapping, Sequence

from .partitions import (
    dominates,
    is_e_regular,
    list_bipartitions,
    list_partitions,
    n_invariant,
    parse_partition,
    render_bipartition,
    render_partition,
)

__all__ = [
    "DecompRow",
    "LabeledDecompMatrix",
    "BasicSet",
    "NoCanonicalSet",
    "ProductMismatch",
    "BetaNotUnique",
    "BasicSetsDiffer",
    "ImplicationFailed",
    "NotCatalogued",
    "DecompositionCheckFailed",
    "canonical_basic_set",
    "g2_decomposition_table",
    "beta_factorization",
    "FactorizationReport",
    "basic_set_catalog",
    "verify_unitriangular",
    "TriangularReport",
    "verify_conjecture_shape",
    "ShapeReport",
    "ShapeViolation",
    "TriangularViolation",
]


class NoCanonicalSet(ArithmeticError):
    """The matrix admits no canonical basic set.

    reason is one of "tie" (the minimal a-invariant in the column is
    achieved by more than one nonzero row), "multiplicityNotOne" (the
    unique minimizing row carries an entry other than 1), or
    "secondConditionViolated" (two columns share an image row)."""

    def __init__(self, column: str, reason: str, detail: str = ""):
        self.column = column
        self.reason = reason
        msg = f"column {column!r}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ProductMismatch(ArithmeticError):
    """Full matrix does not equal the claimed product."""


class BetaNotUnique(ArithmeticError):
    """The column correspondence is not well defined for some column."""


class BasicSetsDiffer(ArithmeticError):
    """The two basic sets do not agree under the column correspondence."""


class ImplicationFailed(ArithmeticError):
    """A dominance pass did not force an n-invariant pass."""


class NotCatalogued(Exception):
    """No closed-form catalog is implemented for these parameters.

    An explicit signal, not a failure."""


@dataclass(frozen=True)
class DecompRow:
    label: str
    a_invariant: int
    class_label: str | None = None
    d_invariant: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"label": self.label, "a": self.a_invariant}
        if self.class_label is not None:
            out["class"] = self.class_label
        if self.d_invariant is not None:
            out["d"] = self.d_invariant
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DecompRow":
        try:
            label, a, d, class_label = (
                data["label"], data["a"], data.get("d"), data.get("class")
            )
        except TypeError as exc:  # e.g. a row that is no object
            raise ValueError(f"malformed row {data!r}: {exc}") from None
        except KeyError as exc:
            raise ValueError(
                f"malformed row {data!r}: missing key {exc}"
            ) from None
        # JSON integers and strings only: 0.7, "1" or true is rejected as an
        # integer, and null, 1 or true as a label, not converted.
        if type(a) is not int or not (d is None or type(d) is int):
            raise ValueError(f"malformed row {data!r}: a and d must be integers")
        if not isinstance(label, str) or not (
            class_label is None or isinstance(class_label, str)
        ):
            raise ValueError(
                f"malformed row {data!r}: label and class must be strings"
            )
        return cls(label, a, class_label, d)


def _integer(name: str, value) -> int:
    """value if it is an int; ValueError otherwise, so 4.9 or True is
    refused rather than read as 4 or 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _param(tag: str, params: Mapping, key: str) -> int:
    """params[key] as an int; ValueError naming the key when it is missing."""
    if key not in params:
        raise ValueError(f"type {tag} needs params[{key!r}]")
    return _integer(key, params[key])


def _integer_row(row, where: str) -> tuple[int, ...]:
    """row as a tuple of ints; ValueError unless every entry is a JSON
    integer, so 1.0, "1" or true is rejected rather than read as 1."""
    if not isinstance(row, (list, tuple)) or not {*map(type, row)} <= {int}:
        raise ValueError(f"{where} must be a list of integers")
    return tuple(row)


class LabeledDecompMatrix:
    """Immutable nonnegative integer matrix with labeled rows and columns.

    Every column must contain at least one nonzero entry; rows must have
    distinct labels, as must columns. The entries are kept both as rows
    (entries) and, transposed once at construction, as columns (columns),
    which the per-column scans read."""

    def __init__(
        self,
        rows: Sequence[DecompRow],
        cols: Sequence[str],
        entries: Sequence[Sequence[int]],
    ):
        self.rows = tuple(rows)
        self.cols = tuple(str(c) for c in cols)
        if len(set(r.label for r in self.rows)) != len(self.rows):
            raise ValueError("duplicate row labels")
        if len(set(self.cols)) != len(self.cols):
            raise ValueError("duplicate column labels")
        if len(entries) != len(self.rows):
            raise ValueError(
                f"{len(self.rows)} rows but {len(entries)} entry rows"
            )
        grid = []
        for r, row in enumerate(entries):
            if len(row) != len(self.cols):
                raise ValueError(
                    f"entry row {r} has {len(row)} entries, "
                    f"expected {len(self.cols)}"
                )
            vals = _integer_row(row, f"entry row {r}")
            if vals and min(vals) < 0:
                raise ValueError(f"negative entry in row {r}")
            grid.append(vals)
        self.entries = tuple(grid)
        self.columns = tuple(zip(*grid)) if grid else ((),) * len(self.cols)
        for col, column in zip(self.cols, self.columns):
            if not any(column):
                raise ValueError(f"column {col!r} is identically zero")
        self._row_index = {r.label: i for i, r in enumerate(self.rows)}
        self._col_index = {c: j for j, c in enumerate(self.cols)}

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def entry(self, row_label: str, col_label: str) -> int:
        return self.entries[self._row_index[row_label]][
            self._col_index[col_label]
        ]

    def row_labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rows)

    def a_invariants(self) -> tuple[int, ...]:
        return tuple(r.a_invariant for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "cols": list(self.cols),
            "entries": [list(row) for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LabeledDecompMatrix":
        if not isinstance(data, Mapping):
            raise ValueError(
                "a decomposition matrix must be a JSON object with keys "
                f"rows, cols and entries, got {type(data).__name__}"
            )
        for key in ("rows", "cols", "entries"):
            if not isinstance(data.get(key), list):
                raise ValueError(f"{key!r} must be a list")
        for r, row in enumerate(data["entries"]):
            if not isinstance(row, list):
                raise ValueError(f"entry row {r} must be a list")
        for j, col in enumerate(data["cols"]):
            if not isinstance(col, str):
                raise ValueError(f"column {j} label must be a string, got {col!r}")
        return cls(
            rows=[DecompRow.from_json_dict(r) for r in data["rows"]],
            cols=data["cols"],
            entries=data["entries"],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDecompMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"LabeledDecompMatrix({self.n_rows} rows x {self.n_cols} cols)"
        )


@dataclass(frozen=True)
class BasicSet:
    """Injective column -> row assignment; image() is the basic set."""

    iota: tuple[tuple[str, str], ...]  # (column label, row label) pairs

    def as_dict(self) -> dict[str, str]:
        return dict(self.iota)

    def image(self) -> frozenset[str]:
        return frozenset(row for _, row in self.iota)

    def to_json_dict(self) -> dict:
        return {
            "iota": {col: row for col, row in self.iota},
            "image": sorted(self.image()),
        }


def canonical_basic_set(matrix: LabeledDecompMatrix) -> BasicSet:
    """Extract the canonical basic set, or raise NoCanonicalSet.

    Per column mu: among rows with a nonzero entry, the minimal
    a-invariant must be achieved exactly once, by an entry equal to 1;
    the map collecting these rows must be injective, and all other
    nonzero entries must sit strictly above the minimum."""
    a_values = matrix.a_invariants()
    labels = matrix.row_labels()
    assignments: list[tuple[str, str]] = []
    for col, column in zip(matrix.cols, matrix.columns):
        support = [*compress(range(len(column)), column)]
        a_support = [*map(a_values.__getitem__, support)]
        min_a = min(a_support)
        if a_support.count(min_a) > 1:
            winners = [labels[i] for i in support if a_values[i] == min_a]
            raise NoCanonicalSet(
                col, "tie", f"rows {winners} all have a = {min_a}"
            )
        i = support[a_support.index(min_a)]
        label, entry = labels[i], column[i]
        if entry != 1:
            raise NoCanonicalSet(
                col,
                "multiplicityNotOne",
                f"row {label!r} has entry {entry}",
            )
        assignments.append((col, label))
    seen: dict[str, str] = {}
    for col, label in assignments:
        if label in seen:
            raise NoCanonicalSet(
                col,
                "secondConditionViolated",
                f"columns {seen[label]!r} and {col!r} share image row "
                f"{label!r}",
            )
        seen[label] = col
    return BasicSet(iota=tuple(assignments))


# ----- the order-12 dihedral algebra, weights (3, 1) --------------------------


class DecompositionCheckFailed(ArithmeticError):
    """A derived split is ambiguous or contradicts a nonzero Schur element."""


def _constituents(char: tuple, linear: Sequence[tuple], name: str) -> tuple:
    """(x, y) for the one pair of distinct linear characters with
    x + y = char, or (char,) if none. A pair sums to 2 at the identity,
    so only a 2-dimensional character can split."""
    pairs = [p for p in combinations(linear, 2) if tuple(map(add, *p)) == char]
    if len(pairs) > 1:
        raise DecompositionCheckFailed(f"{name} splits in {len(pairs)} ways")
    return pairs[0] if pairs else (char,)


@functools.cache
def _g2_generic() -> tuple:
    """builtin_g2_reps of the weights-(3,1) algebra, their Schur elements
    and characters, and the exponent span of all those polynomials."""
    from .coxeter import build_datum
    from .laurent import LaurentPoly
    from .reps import _character, builtin_g2_reps, schur_element

    datum = build_datum("g2", 2, (3, 1))
    reps = builtin_g2_reps(datum)
    schurs = [schur_element(rep) for rep in reps]
    # one sweep of the matrix kernel per rep, once per process
    chars = [tuple(map(LaurentPoly._of, _character(rep))) for rep in reps]
    polys = [p for c in [schurs, *chars] for p in c if p]
    span = max(p.degree() for p in polys) - min(p.valuation() for p in polys)
    return reps, schurs, chars, span


def g2_decomposition_table(e: int) -> LabeledDecompMatrix:
    """Decomposition matrix of the weights-(3,1) dihedral algebra of order
    12 at a primitive e-th root of unity, derived from builtin_g2_reps:
    a-values from the Schur elements, characters specialised to zeta_e, a
    module split by _constituents, and equal characters sharing a column
    (c1..ck, numbered by the first row holding them).

    >>> sorted(canonical_basic_set(g2_decomposition_table(6)).image())
    ['eps1', 'ind', 'rho+']
    """
    from .laurent import euler_phi, specialize_cyclotomic
    from .reps import a_invariant

    if _integer("e", e) < 2:
        raise ValueError(f"need e >= 2, got {e}")
    reps, schurs, chars, span = _g2_generic()
    rows = [DecompRow(r.name, a_invariant(s)[0]) for r, s in zip(reps, schurs)]
    # Phi_e, of degree phi(e) >= sqrt(e/2), divides no nonzero Z-combination of
    # these polynomials past their span: there the generic ones give the table.
    if e <= 2 * span * span and euler_phi(e) <= span:
        schurs = [specialize_cyclotomic(s, e) for s in schurs]
        chars = [tuple(specialize_cyclotomic(p, e) for p in c) for c in chars]
    linear = list(dict.fromkeys(c for r, c in zip(reps, chars) if r.dimension == 1))
    columns: dict[tuple, int] = {}
    counts = []
    for rep, schur, char in zip(reps, schurs, chars):
        parts = _constituents(char, linear, rep.name)
        if len(parts) > 1 and schur:
            raise DecompositionCheckFailed(
                f"{rep.name} splits at e = {e} although its Schur element "
                "is nonzero there"
            )
        counts.append(Counter(columns.setdefault(p, len(columns)) for p in parts))
    cols = [f"c{j + 1}" for j in range(len(columns))]
    entries = [[n[j] for j in range(len(columns))] for n in counts]
    return LabeledDecompMatrix(rows, cols, entries)


# ----- factorization through the root-of-unity matrix ------------------------


@dataclass(frozen=True)
class FactorizationReport:
    beta: tuple[tuple[str, str], ...]  # full column -> root column
    full_set: BasicSet
    root_set: BasicSet

    def to_json_dict(self) -> dict:
        return {
            "beta": {c: v for c, v in self.beta},
            "fullBasicSet": self.full_set.to_json_dict(),
            "rootBasicSet": self.root_set.to_json_dict(),
            "setsEqual": self.full_set.image() == self.root_set.image(),
        }


def beta_factorization(
    full: LabeledDecompMatrix,
    root: LabeledDecompMatrix,
    prime: Sequence[Sequence[int]],
) -> FactorizationReport:
    """Check full = root * prime and that the basic sets agree.

    root is the root-of-unity matrix, prime the second factor (supplied,
    never solved for). beta sends each column mu of full to the unique
    column nu of root with root[iota(mu), nu] != 0 and prime[nu, mu] != 0;
    the assignment iota of full must equal the assignment of root
    composed with beta. Raises ProductMismatch, BetaNotUnique, or
    BasicSetsDiffer accordingly; ValueError on malformed inputs."""
    if full.row_labels() != root.row_labels():
        raise ValueError("row labels differ between the two matrices")
    if full.a_invariants() != root.a_invariants():
        raise ValueError("row a-invariants differ between the two matrices")
    if full.n_cols != root.n_cols:
        raise ValueError(
            f"column counts differ: {full.n_cols} vs {root.n_cols}"
        )
    try:
        prime_grid = [
            _integer_row(row, f"second factor row {k}")
            for k, row in enumerate(prime)
        ]
    except TypeError:
        raise ValueError(
            f"second factor must be a list of rows, got {type(prime).__name__}"
        ) from None
    if len(prime_grid) != root.n_cols or any(
        len(row) != full.n_cols for row in prime_grid
    ):
        raise ValueError(
            f"second factor must be {root.n_cols} x {full.n_cols}"
        )
    if any(min(row) < 0 for row in prime_grid if row):
        raise ValueError("second factor has a negative entry")
    prime_cols = tuple(zip(*prime_grid))

    for i, (root_row, full_row) in enumerate(zip(root.entries, full.entries)):
        product = tuple(sum(map(mul, root_row, column)) for column in prime_cols)
        if product != full_row:
            j, got, want = next(
                (j, got, want)
                for j, (got, want) in enumerate(zip(product, full_row))
                if got != want
            )
            raise ProductMismatch(
                f"entry ({full.rows[i].label!r}, {full.cols[j]!r}): "
                f"product gives {got}, matrix has {want}"
            )

    full_set = canonical_basic_set(full)
    root_set = canonical_basic_set(root)
    iota = full_set.as_dict()
    iota_root = root_set.as_dict()

    beta: list[tuple[str, str]] = []
    for j, mu in enumerate(full.cols):
        # entries are nonnegative: a product is nonzero iff both factors are
        root_row = root.entries[full._row_index[iota[mu]]]
        hits = [*compress(root.cols, map(mul, root_row, prime_cols[j]))]
        if len(hits) != 1:
            raise BetaNotUnique(
                f"column {mu!r}: candidate root columns {hits}"
            )
        beta.append((mu, hits[0]))

    for mu, nu in beta:
        if iota_root[nu] != iota[mu]:
            raise BasicSetsDiffer(
                f"column {mu!r}: assignment {iota[mu]!r} but the "
                f"root-of-unity assignment of {nu!r} is {iota_root[nu]!r}"
            )
    if full_set.image() != root_set.image():
        raise BasicSetsDiffer(
            f"images differ: {sorted(full_set.image())} vs "
            f"{sorted(root_set.image())}"
        )
    return FactorizationReport(
        beta=tuple(beta), full_set=full_set, root_set=root_set
    )


# ----- closed-form catalogs ---------------------------------------------------


def basic_set_catalog(
    type_tag: str, params: Mapping, e: int
) -> frozenset[str]:
    """Closed-form basic-set labels for the catalogued families.

    e is the order of u under the specialisation u -> q, as compute_e(q,
    ell) gives it, for every type; it is not the order of -q mod ell
    that work on unitary groups also uses, even for type "b" with
    unitary weights.

    "g2" with weights (3, 1): the canonical basic set of
    g2_decomposition_table(e), a proper subset of the six labels exactly
    for e in {2, 3, 6, 12}; malformed weights (not two nonnegative
    integers) raise coxeter.InvalidWeights, other well-formed weights
    NotCatalogued. "a" with params {"n": n}: the e-regular
    partitions of n. "b" with params {"m": m, "s": s} (unitary weights
    (2s+1, 2, ..., 2)): the bipartitions of m with both components
    e-regular, available when e is odd > 2 or divisible by 4; e = 2 and
    e twice an odd number raise NotCatalogued (closed forms live in the
    literature: [GeJa Thm 3.4] and [FLOTW] respectively). A missing or
    non-integer parameter raises ValueError naming it."""
    if _integer("e", e) < 2:
        raise ValueError(f"need e >= 2, got {e}")
    tag = type_tag.lower()
    if tag == "g2":
        from .coxeter import validate_datum

        _, _, weights = validate_datum("g2", 2, params.get("weights", (3, 1)))
        if weights != (3, 1):
            raise NotCatalogued(
                f"no catalogued basic sets for dihedral weights {weights}; "
                "only (3, 1) is tabulated"
            )
        return canonical_basic_set(g2_decomposition_table(e)).image()
    if tag == "a":
        n = _param(tag, params, "n")
        return frozenset(
            render_partition(p)
            for p in list_partitions(n)
            if is_e_regular(p, e)
        )
    if tag == "b":
        m = _param(tag, params, "m")
        s = _param(tag, params, "s")
        if s not in (0, 1):
            raise ValueError(f"s must be 0 or 1, got {s}")
        if e == 2:
            raise NotCatalogued(
                "e = 2 has no closed form here; see [GeJa Thm 3.4]"
            )
        if e % 4 == 2:
            raise NotCatalogued(
                f"e = {e} is twice an odd number and has no closed form "
                "here; see [FLOTW]"
            )
        # remaining cases: e odd > 2, or e divisible by 4
        return frozenset(
            render_bipartition(b)
            for b in list_bipartitions(m)
            if is_e_regular(b[0], e) and is_e_regular(b[1], e)
        )
    raise ValueError(f"unknown type {type_tag!r}")


# ----- report-style verifiers -------------------------------------------------


@dataclass(frozen=True)
class TriangularViolation:
    row_label: str
    col_label: str
    entry: int
    phrasing: str  # "diagonal" | "dominance" | "nInvariant"
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "row": self.row_label,
            "col": self.col_label,
            "entry": self.entry,
            "phrasing": self.phrasing,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TriangularReport:
    dominance_ok: bool
    n_ok: bool
    violations: tuple[TriangularViolation, ...]

    @property
    def ok(self) -> bool:
        return self.dominance_ok and self.n_ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "dominanceOk": self.dominance_ok,
            "nInvariantOk": self.n_ok,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def verify_unitriangular(matrix: LabeledDecompMatrix) -> TriangularReport:
    """Check the unitriangular shape of a square matrix over partition
    labels, in both phrasings: entry(lam, mu) is 0 unless lam is dominated
    by mu (with 1 on the diagonal), and is 0 unless n(mu) < n(lam) or
    lam = mu. A pass of the dominance phrasing forces a pass of the
    n-invariant phrasing; that implication is checked and raises
    ImplicationFailed."""
    labels = matrix.row_labels()
    if labels != matrix.cols:
        raise ValueError("rows and columns must carry the same label list")
    parts = [parse_partition(lab) for lab in labels]
    sizes = {sum(p) for p in parts}
    if len(sizes) > 1:
        raise ValueError(f"labels are partitions of different sizes: {sizes}")

    violations: list[TriangularViolation] = []
    dominance_ok = n_ok = True
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            d = matrix.entries[i][j]
            if i == j:
                if d != 1:
                    dominance_ok = n_ok = False
                    violations.append(
                        TriangularViolation(
                            labels[i], labels[j], d, "diagonal",
                            f"diagonal entry is {d}, not 1",
                        )
                    )
                continue
            if d == 0:
                continue
            if not dominates(lam, mu):
                dominance_ok = False
                violations.append(
                    TriangularViolation(
                        labels[i], labels[j], d, "dominance",
                        f"{labels[i]} is not dominated by {labels[j]}",
                    )
                )
            if not n_invariant(mu) < n_invariant(lam):
                n_ok = False
                violations.append(
                    TriangularViolation(
                        labels[i], labels[j], d, "nInvariant",
                        f"n({labels[j]}) = {n_invariant(mu)} is not below "
                        f"n({labels[i]}) = {n_invariant(lam)}",
                    )
                )
    # dominance monotonicity: a strict dominance pass forces an n pass
    if dominance_ok and not n_ok:
        raise ImplicationFailed(
            "the dominance phrasing passes but the n-invariant phrasing "
            "fails"
        )
    return TriangularReport(
        dominance_ok=dominance_ok,
        n_ok=n_ok,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class ShapeViolation:
    row_label: str
    col_label: str
    entry: int
    reason: str  # "aboveDiagonal" | "diagonalNotIdentity" | "structure"
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "row": self.row_label,
            "col": self.col_label,
            "entry": self.entry,
            "reason": self.reason,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ShapeReport:
    ok: bool
    blocks: tuple[dict, ...]  # {"class","d","rows","cols"} in block order
    violations: tuple[ShapeViolation, ...]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "blocks": [dict(b) for b in self.blocks],
            "violations": [v.to_json_dict() for v in self.violations],
        }


def verify_conjecture_shape(matrix: LabeledDecompMatrix) -> ShapeReport:
    """Check block-triangular shape by class label and d-invariant.

    Rows are grouped by class label (each class must carry one
    d-invariant); blocks are ordered by increasing d-invariant, breaking
    ties by first appearance, and consume columns sequentially. The
    diagonal blocks must be identity matrices, and an off-block entry is
    allowed only when the row's d-invariant strictly exceeds the
    column's."""
    for row in matrix.rows:
        if row.class_label is None or row.d_invariant is None:
            raise ValueError(
                f"row {row.label!r} is missing a class label or d-invariant"
            )
    if matrix.n_rows != matrix.n_cols:
        raise ValueError(
            f"matrix must be square, got {matrix.n_rows} x {matrix.n_cols}"
        )

    order: list[str] = []
    members: dict[str, list[int]] = {}
    d_of: dict[str, int] = {}
    violations: list[ShapeViolation] = []
    for i, row in enumerate(matrix.rows):
        c = row.class_label
        if c not in members:
            order.append(c)
            members[c] = []
            d_of[c] = row.d_invariant
        elif d_of[c] != row.d_invariant:
            raise ValueError(
                f"class {c!r} carries d-invariants {d_of[c]} and "
                f"{row.d_invariant}"
            )
        members[c].append(i)
    blocks = sorted(order, key=lambda c: (d_of[c], order.index(c)))

    col_block: dict[int, str] = {}
    col_pos: dict[int, int] = {}  # position of the column within its block
    cursor = 0
    block_info: list[dict] = []
    for c in blocks:
        size = len(members[c])
        cols = list(range(cursor, cursor + size))
        for pos, j in enumerate(cols):
            col_block[j] = c
            col_pos[j] = pos
        block_info.append(
            {
                "class": c,
                "d": d_of[c],
                "rows": [matrix.rows[i].label for i in members[c]],
                "cols": [matrix.cols[j] for j in cols],
            }
        )
        cursor += size

    for i, row in enumerate(matrix.rows):
        c = row.class_label
        pos_in_block = members[c].index(i)
        for j in range(matrix.n_cols):
            d = matrix.entries[i][j]
            if col_block[j] == c:
                want = 1 if col_pos[j] == pos_in_block else 0
                if d != want:
                    violations.append(
                        ShapeViolation(
                            row.label, matrix.cols[j], d,
                            "diagonalNotIdentity",
                            f"block {c!r} entry is {d}, expected {want}",
                        )
                    )
            elif d != 0 and not d_of[c] > d_of[col_block[j]]:
                violations.append(
                    ShapeViolation(
                        row.label, matrix.cols[j], d, "aboveDiagonal",
                        f"row class {c!r} (d = {d_of[c]}) hits column "
                        f"block {col_block[j]!r} "
                        f"(d = {d_of[col_block[j]]})",
                    )
                )

    return ShapeReport(
        ok=not violations,
        blocks=tuple(block_info),
        violations=tuple(violations),
    )
