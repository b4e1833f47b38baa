"""Command-line front end.

Subcommands: e-value, schur, basic-set, embed, extract, afun, factor,
verify-triangular, verify-conjecture-shape, sweep-genericity. Every
command accepts --format json|table (table is the default and carries
no parsing contract; json output is canonical and byte-stable) and
--cache-dir. The Schur table is cached under --cache-dir /
$HECKE_CACHE_DIR keyed by a content hash of the inputs (the type tag in
lower case), the effective group order cap and the name and source of
every module of the package; an entry is served only when it holds the
canonical JSON of a Schur table's shape, and is otherwise recomputed and
replaced. --cap, the group order cap of the datum it builds, is a schur
option only. A schur request without built-in representations is
refused before the group is enumerated. Integer options and weights are
read by `integer` (ASCII digits, optional leading "-") and partition
parts by partitions.parse_partition (ASCII digits), never by int() alone.

Each subcommand imports the modules it calls when it runs, so a process
pays at start-up only for what its subcommand needs: e-value loads no
Coxeter or representation code, the matrix subcommands and the type a
and b catalogs load basicsets and partitions alone, and schur served
from the cache loads no mathematics at all.

Exit codes: 0 success; 2 precondition violation (bad arguments, files,
hypotheses); 3 mathematical failure (no canonical set, a failed product
or verification report); 4 not catalogued (an explicit signal, not an
error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

__all__ = ["main", "canonical_json"]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MATH_FAILURE = 3
EXIT_NOT_CATALOGUED = 4


def canonical_json(data) -> str:
    """Deterministic rendering: sorted keys, two-space indent, newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _default_cache_dir() -> Path:
    env = os.environ.get("HECKE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "heckebasis"


def _emit(args, data: dict, table_lines) -> None:
    if args.format == "json":
        sys.stdout.write(canonical_json(data))
    else:
        for line in table_lines:
            print(line)


def integer(text: str) -> int:
    """An integer in ASCII digits with an optional leading "-": int() alone
    would also read spaces, "+", "1_0" and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _parse_weights(text: str) -> tuple[int, ...]:
    return tuple(integer(tok) for tok in text.split(","))


def _parse_unitary(text: str) -> int:
    """s from a weight string of the form unitary:s=0 / unitary:s=1."""
    head, _, tail = text.partition(":")
    key, _, value = tail.partition("=")
    if (
        head.strip() != "unitary"
        or key.strip() != "s"
        or not (value.isascii() and value.isdigit())
    ):
        raise ValueError(
            f"cannot parse unitary weights {text!r}: type b takes unitary:s=0|1"
        )
    return int(value)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_matrix(path: str):
    from .basicsets import LabeledDecompMatrix

    return LabeledDecompMatrix.from_json_dict(_load_json(path))


def _residue_text(rs) -> str:
    if rs.is_empty():
        return "empty"
    inner = ", ".join(str(r) for r in rs.residues)
    return f"j in {{{inner}}} (mod {rs.modulus})"


# ----- subcommands ------------------------------------------------------------


def cmd_e_value(args) -> int:
    from .modarith import compute_e, verify_a_sets

    if args.a is None:
        e = compute_e(args.q, args.ell)
        _emit(args, {"e": e}, [f"e = {e}"])
        return EXIT_OK
    report = verify_a_sets(args.q, args.a, args.b, args.ell)
    lines = [
        f"e  = {report.e}",
        f"e' = {report.e_prime}",
        f"A  = {_residue_text(report.set_q)}",
        f"A0 = {_residue_text(report.set_root)}",
        f"equal: {'yes' if report.equal else 'NO'}",
    ]
    _emit(args, report.to_json_dict(), lines)
    return EXIT_OK if report.equal else EXIT_MATH_FAILURE


def _schur_payload(args, weights: tuple[int, ...], cap: int) -> dict:
    from .coxeter import build_datum, validate_datum
    from .reps import builtin_g2_reps, require_builtin_reps, schur_table_json_dict

    # Refuse what has no representations before enumerating the group.
    tag, _, valid_weights = validate_datum(args.type, args.rank, weights, cap=cap)
    require_builtin_reps(tag, valid_weights)
    datum = build_datum(args.type, args.rank, weights, cap=cap)
    reps = builtin_g2_reps(datum)
    return schur_table_json_dict(datum, reps)


def _source_digest() -> str:
    """SHA-256 over the name, length and bytes of every *.py of the
    package, in name order: a change to any module a schur cache miss
    might run gives a new key, with no list of those modules to keep."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.name}\0{len(source)}\0".encode("utf-8"))
        digest.update(source)
    return digest.hexdigest()


# The keys of a row of a Schur table, with the JSON type of each value.
_SCHUR_ROW = {"name": str, "dim": int, "schur": str, "aInvariant": int, "fLambda": int}


def _schur_shaped(data) -> bool:
    """Whether data has the shape of a Schur table: a datum object and a
    list of rows, each with exactly the keys of _SCHUR_ROW."""
    return (
        isinstance(data, dict)
        and data.keys() == {"datum", "reps"}
        and isinstance(data["datum"], dict)
        and isinstance(data["reps"], list)
        and all(
            isinstance(row, dict)
            and row.keys() == _SCHUR_ROW.keys()
            and all(isinstance(row[k], t) for k, t in _SCHUR_ROW.items())
            for row in data["reps"]
        )
    )


def cmd_schur(args) -> int:
    import hashlib
    import tempfile

    from . import DEFAULT_GROUP_CAP, __version__

    weights = _parse_weights(args.weights)
    cap = DEFAULT_GROUP_CAP if args.cap is None else args.cap
    key_source = canonical_json(
        {
            "kind": "schur",
            "version": __version__,
            "source": _source_digest(),
            "type": args.type.lower(),
            "rank": args.rank,
            "weights": list(weights),
            "cap": cap,
        }
    )
    key = hashlib.sha256(key_source.encode("utf-8")).hexdigest()
    cache_dir = Path(args.cache_dir)
    cache_path = cache_dir / f"schur-{key}.json"
    data = None
    if cache_path.is_file():
        # Serve an entry only if it holds canonical JSON of the table's
        # shape; a truncated or corrupted one is recomputed and replaced.
        try:
            text = cache_path.read_text(encoding="utf-8")
            data = json.loads(text)
            if canonical_json(data) != text or not _schur_shaped(data):
                data = None
        except (ValueError, RecursionError):
            data = None
    if data is None:
        data = _schur_payload(args, weights, cap)
        text = canonical_json(data)
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, cache_path)
    if args.format == "json":
        sys.stdout.write(text)
        return EXIT_OK
    header = f"{'name':<8} {'dim':>3} {'a':>3} {'f':>3}  schur"
    lines = [header, "-" * len(header)]
    for rep in data["reps"]:
        lines.append(
            f"{rep['name']:<8} {rep['dim']:>3} {rep['aInvariant']:>3} "
            f"{rep['fLambda']:>3}  {rep['schur']}"
        )
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_basic_set(args) -> int:
    if args.input:
        from .basicsets import canonical_basic_set

        data = canonical_basic_set(_load_matrix(args.input)).to_json_dict()
        lines = [f"{col} -> {row}" for col, row in data["iota"].items()]
        lines.append("image: {" + ", ".join(data["image"]) + "}")
        _emit(args, data, lines)
        return EXIT_OK
    if args.type is None or args.e is None:
        raise ValueError("need either --input or --type together with --e")
    params: dict = {}
    tag = args.type.lower()
    if tag == "g2":
        if args.weights:
            params["weights"] = _parse_weights(args.weights)
    elif tag == "a":
        if args.n is None:
            raise ValueError("--type a needs --n")
        params["n"] = args.n
    elif tag == "b":
        if args.m is None:
            raise ValueError("--type b needs --m")
        params["m"] = args.m
        s = args.s
        if args.weights:
            s = _parse_unitary(args.weights)
            if args.s is not None and args.s != s:
                raise ValueError(
                    f"--weights {args.weights} contradicts --s {args.s}"
                )
        if s is None:
            raise ValueError(
                "--type b needs --weights unitary:s=0|1 or --s"
            )
        params["s"] = s
    else:
        raise ValueError(f"unknown type {args.type!r}")
    # imported after the argument checks: a usage error loads no catalog
    from .basicsets import NotCatalogued, basic_set_catalog

    try:
        labels = sorted(basic_set_catalog(tag, params, args.e))
    except NotCatalogued as exc:
        print(f"not catalogued: {exc}", file=sys.stderr)
        return EXIT_NOT_CATALOGUED
    data = {"e": args.e, "labels": labels, "count": len(labels)}
    lines = [f"{len(labels)} labels for e = {args.e}:"] + [
        f"  {lab}" for lab in labels
    ]
    _emit(args, data, lines)
    return EXIT_OK


def cmd_embed(args) -> int:
    from .partitions import (
        embed_bipartition,
        parse_bipartition,
        render_partition,
    )

    b = parse_bipartition(args.bipartition)
    lam = embed_bipartition(b, args.s)
    text = render_partition(lam)
    _emit(args, {"partition": text}, [text if text else "(empty)"])
    return EXIT_OK


def cmd_extract(args) -> int:
    from .partitions import (
        extract_bipartition,
        parse_partition,
        render_bipartition,
    )

    lam = parse_partition(args.partition)
    b = extract_bipartition(lam, args.s)
    text = render_bipartition(b)
    _emit(args, {"bipartition": text}, [text])
    return EXIT_OK


def cmd_afun(args) -> int:
    from .partitions import a_invariant_unitary, parse_bipartition

    b = parse_bipartition(args.bipartition)
    value = a_invariant_unitary(b, args.s)
    _emit(args, {"aInvariant": value}, [f"a = {value}"])
    return EXIT_OK


def cmd_factor(args) -> int:
    from .basicsets import beta_factorization

    full = _load_matrix(args.full)
    root = _load_matrix(args.root)
    prime_data = _load_json(args.dprime)
    if isinstance(prime_data, dict):
        if "entries" not in prime_data:
            raise ValueError("the second factor object has no 'entries' list")
        prime_data = prime_data["entries"]
    report = beta_factorization(full, root, prime_data)
    data = report.to_json_dict()
    lines = [f"{mu} -> {nu}" for mu, nu in report.beta]
    lines.append(
        "basic sets equal: "
        + ("yes" if data["setsEqual"] else "NO")
    )
    _emit(args, data, lines)
    return EXIT_OK


def cmd_verify_triangular(args) -> int:
    from .basicsets import verify_unitriangular

    report = verify_unitriangular(_load_matrix(args.input))
    data = report.to_json_dict()
    lines = [
        f"dominance phrasing: {'pass' if report.dominance_ok else 'FAIL'}",
        f"n-invariant phrasing: {'pass' if report.n_ok else 'FAIL'}",
    ]
    for v in report.violations:
        lines.append(
            f"  violation [{v.phrasing}] at ({v.row_label}, {v.col_label}): "
            f"{v.detail}"
        )
    _emit(args, data, lines)
    return EXIT_OK if report.ok else EXIT_MATH_FAILURE


def cmd_verify_conjecture_shape(args) -> int:
    from .basicsets import verify_conjecture_shape

    report = verify_conjecture_shape(_load_matrix(args.input))
    data = report.to_json_dict()
    lines = [f"shape: {'pass' if report.ok else 'FAIL'}"]
    for block in report.blocks:
        lines.append(
            f"  block {block['class']} (d = {block['d']}): "
            f"rows {block['rows']} cols {block['cols']}"
        )
    for v in report.violations:
        lines.append(
            f"  violation [{v.reason}] at ({v.row_label}, {v.col_label}): "
            f"{v.detail}"
        )
    _emit(args, data, lines)
    return EXIT_OK if report.ok else EXIT_MATH_FAILURE


def cmd_sweep_genericity(args) -> int:
    from .modarith import sweep_a_sets

    out = sweep_a_sets(args.ell_max, args.q_max)
    lines = [
        f"checked {out['checked']} parameter tuples",
        f"all equal: {'yes' if out['allEqual'] else 'NO'}",
    ]
    for failure in out["failures"]:
        lines.append(f"  failure: {failure}")
    _emit(args, out, lines)
    return EXIT_OK if out["allEqual"] else EXIT_MATH_FAILURE


# ----- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "table"),
        default="table",
        help="output format (table is human-oriented; json is canonical)",
    )
    common.add_argument(
        "--cache-dir",
        default=str(_default_cache_dir()),
        help="cache directory (default $HECKE_CACHE_DIR or ~/.cache/heckebasis)",
    )

    parser = argparse.ArgumentParser(
        prog="heckebasis",
        description="Exact Schur elements, a-invariants, and canonical "
        "basic sets for Iwahori-Hecke algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "e-value",
        parents=[common],
        help="the bound e, and with --a also e', A, and A0",
    )
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--ell", type=integer, required=True)
    p.add_argument("--a", type=integer, default=None)
    p.add_argument("--b", type=integer, default=0)
    p.set_defaults(func=cmd_e_value)

    p = sub.add_parser(
        "schur",
        parents=[common],
        help="Schur elements and a-invariants of the built-in representations",
    )
    p.add_argument("--type", default="g2")
    p.add_argument("--rank", type=integer, default=2)
    p.add_argument("--weights", default="3,1")
    p.add_argument(
        "--cap",
        type=integer,
        default=None,
        help="group order cap for datum construction",
    )
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser(
        "basic-set",
        parents=[common],
        help="canonical basic set of an ingested matrix, or a catalogued set",
    )
    p.add_argument("--input", default=None, help="decomposition matrix JSON")
    p.add_argument("--type", default=None)
    p.add_argument("--e", type=integer, default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--n", type=integer, default=None)
    p.add_argument("--m", type=integer, default=None)
    p.add_argument("--s", type=integer, default=None)
    p.set_defaults(func=cmd_basic_set)

    p = sub.add_parser(
        "embed", parents=[common], help="bipartition -> partition of 2m+s"
    )
    p.add_argument("--bipartition", required=True)
    p.add_argument("--s", type=integer, required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser(
        "extract", parents=[common], help="partition -> bipartition"
    )
    p.add_argument("--partition", required=True)
    p.add_argument("--s", type=integer, required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "afun",
        parents=[common],
        help="a-invariant of a bipartition label (unitary weights)",
    )
    p.add_argument("--bipartition", required=True)
    p.add_argument("--s", type=integer, required=True)
    p.set_defaults(func=cmd_afun)

    p = sub.add_parser(
        "factor",
        parents=[common],
        help="check full = root * prime and compare basic sets",
    )
    p.add_argument("--full", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--dprime", required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser(
        "verify-triangular",
        parents=[common],
        help="unitriangularity report over partition labels",
    )
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_verify_triangular)

    p = sub.add_parser(
        "verify-conjecture-shape",
        parents=[common],
        help="block-triangular shape report by class and d-invariant",
    )
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_verify_conjecture_shape)

    p = sub.add_parser(
        "sweep-genericity",
        parents=[common],
        help="exhaustive A = A0 and e'/e sweep over a parameter box",
    )
    p.add_argument("--ell-max", type=integer, default=50)
    p.add_argument("--q-max", type=integer, default=50)
    p.set_defaults(func=cmd_sweep_genericity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
