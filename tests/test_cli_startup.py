"""The command line run in fresh interpreters.

Each subcommand imports only the modules it calls, and main maps
exceptions to exit codes without loading the modules that define them.
The other tests import the whole package first, so they cannot see what
a single command-line call loads; these tests start a new child process
per call and report its sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckebasis.basicsets import g2_decomposition_table
from heckebasis.cli import _sealed, build_parser, canonical_json

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs main(argv[2:]) and writes the sorted names in sys.modules to argv[1].
CHILD = """\
import json, sys
from heckebasis.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(sorted(sys.modules), handle)
sys.exit(code)
"""

MODARITH = {"heckebasis", "heckebasis.cli", "heckebasis.modarith",
            "heckebasis.laurent"}
PARTITIONS = {"heckebasis", "heckebasis.cli", "heckebasis.partitions"}
BASICSETS = PARTITIONS | {"heckebasis.basicsets"}
# what the G2 (3, 1) tables load when they are first computed
G2_STACK = {"heckebasis.coxeter", "heckebasis.laurent", "heckebasis.reps"}


def child(tmp_path, *argv, code=CHILD):
    """(exit code, stdout, stderr, modules loaded) of one fresh process."""
    modules_file = tmp_path / "modules.json"
    modules_file.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(modules_file), *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    modules = set(json.loads(modules_file.read_text(encoding="utf-8")))
    return proc.returncode, proc.stdout, proc.stderr, modules


def package_modules(modules):
    return {m for m in modules if m.split(".")[0] == "heckebasis"}


@pytest.mark.parametrize(
    "argv, package",
    [
        (["e-value", "--q", "2", "--ell", "7"], MODARITH),
        (["e-value", "--q", "2", "--ell", "5", "--a", "1", "--format", "json"],
         MODARITH),
        (["sweep-genericity", "--ell-max", "11", "--q-max", "11"], MODARITH),
        (["embed", "--bipartition", "2,1|1", "--s", "1"], PARTITIONS),
        (["extract", "--partition", "5,2,2", "--s", "1"], PARTITIONS),
        (["afun", "--bipartition", "2,1|1", "--s", "1"], PARTITIONS),
    ],
)
def test_subcommand_loads_only_what_it_calls(tmp_path, argv, package):
    code, out, err, modules = child(tmp_path, *argv)
    assert code == 0 and out and err == ""
    assert package_modules(modules) == package
    assert "dataclasses" not in modules and "hashlib" not in modules


def test_schur_from_a_warm_cache_loads_no_mathematics(tmp_path):
    # a table-format hit parses the cached payload, and loads no more
    for fmt in ("json", "table"):
        argv = ("schur", "--format", fmt, "--cache-dir", str(tmp_path / fmt))
        code, first, _, modules = child(tmp_path, *argv)
        assert code == 0
        assert {"heckebasis.coxeter", "heckebasis.reps"} <= modules  # a miss
        assert "dataclasses" not in modules and "inspect" not in modules
        code, again, err, modules = child(tmp_path, *argv)
        assert code == 0 and again == first and err == ""
        assert package_modules(modules) == {"heckebasis", "heckebasis.cli"}


def test_package_import_defers_laurent(tmp_path):
    # records sys.modules after the import, then fails unless the
    # re-exported name resolves on access
    code = (
        "import json, sys, heckebasis\n"
        "with open(sys.argv[1], 'w') as handle:\n"
        "    json.dump(sorted(sys.modules), handle)\n"
        "sys.exit(heckebasis.LaurentPoly.__module__ != 'heckebasis.laurent')\n"
    )
    status, _, err, modules = child(tmp_path, code=code)
    assert status == 0, err
    assert package_modules(modules) == {"heckebasis"}


def test_package_star_import_resolves_every_name():
    import heckebasis

    namespace: dict = {}
    exec("from heckebasis import *", namespace)
    for name in heckebasis.__all__:
        assert namespace[name] is getattr(heckebasis, name)
    with pytest.raises(AttributeError):
        getattr(heckebasis, "no_such_name")


def _inputs(tmp_path):
    """Paths of valid input files for the matrix subcommands, by name."""
    full = tmp_path / "full.json"
    full.write_text(canonical_json(g2_decomposition_table(6).to_json_dict()))
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    triangular = tmp_path / "triangular.json"
    triangular.write_text(json.dumps({
        "rows": [{"label": "2", "a": 0}, {"label": "1,1", "a": 1}],
        "cols": ["2", "1,1"],
        "entries": [[1, 0], [1, 1]],
    }))
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({
        "rows": [{"label": "r1", "a": 0, "class": "u", "d": 0},
                 {"label": "r2", "a": 1, "class": "u", "d": 0},
                 {"label": "r3", "a": 2, "class": "v", "d": 3}],
        "cols": ["c1", "c2", "c3"],
        "entries": [[1, 0, 0], [0, 1, 0], [2, 1, 1]],
    }))
    return {"full": str(full), "identity": str(identity),
            "triangular": str(triangular), "shape": str(shape)}


# {name} in an argument stands for the path of that file from _inputs.
@pytest.mark.parametrize(
    "argv, package",
    [
        (["basic-set", "--input", "{full}"], BASICSETS),
        (["basic-set", "--type", "a", "--n", "4", "--e", "2"], BASICSETS),
        (["basic-set", "--type", "b", "--m", "2", "--s", "1", "--e", "3"],
         BASICSETS),
        (["factor", "--full", "{full}", "--root", "{full}",
          "--dprime", "{identity}"], BASICSETS),
        (["verify-triangular", "--input", "{triangular}"], BASICSETS),
        (["verify-conjecture-shape", "--input", "{shape}"], BASICSETS),
        (["basic-set", "--type", "g2", "--e", "6"], BASICSETS | G2_STACK),
    ],
)
def test_matrix_subcommand_loads_only_what_it_calls(tmp_path, argv, package):
    # basicsets builds its reports as dataclasses, so only hashlib is
    # checked among the standard library
    files = _inputs(tmp_path)
    code, out, err, modules = child(tmp_path, *(a.format(**files) for a in argv))
    assert code == 0 and out and err == ""
    assert package_modules(modules) == package
    assert "hashlib" not in modules


def test_refused_g2_weights_load_no_representations(tmp_path):
    argv = ["basic-set", "--type", "g2", "--e", "6", "--weights", "1,1"]
    code, out, err, modules = child(tmp_path, *argv)
    assert (code, out) == (4, "") and err.startswith("not catalogued: ")
    # the weights are refused before any representation is built
    assert package_modules(modules) == BASICSETS | {
        "heckebasis.coxeter", "heckebasis.laurent"
    }


def _every_subcommand(tmp_path):
    """One successful argument list per subcommand, input files written."""
    files = _inputs(tmp_path)
    full = files["full"]
    return [
        ["e-value", "--q", "2", "--ell", "5", "--a", "1"],
        ["schur", "--cache-dir", str(tmp_path / "cache")],
        ["basic-set", "--type", "g2", "--e", "6"],
        ["basic-set", "--type", "b", "--weights", "unitary:s=1", "--m", "2",
         "--e", "3"],
        ["basic-set", "--input", full],
        ["embed", "--bipartition", "2,1|1", "--s", "1"],
        ["extract", "--partition", "5,2,2", "--s", "1"],
        ["afun", "--bipartition", "2,1|1", "--s", "1"],
        ["factor", "--full", full, "--root", full,
         "--dprime", files["identity"]],
        ["verify-triangular", "--input", files["triangular"]],
        ["verify-conjecture-shape", "--input", files["shape"]],
        ["sweep-genericity", "--ell-max", "11", "--q-max", "11"],
    ]


def test_no_subcommand_loads_hecke(tmp_path):
    # Hecke multiplication is library-only: no subcommand, even one that
    # builds datums and representations, imports heckebasis.hecke.
    argvs = _every_subcommand(tmp_path)
    assert {argv[0] for argv in argvs} == set(
        build_parser()._subparsers._group_actions[0].choices
    )
    for argv in argvs:
        code, out, err, modules = child(tmp_path, *argv)
        assert code == 0 and out and err == "", (argv, err)
        assert "heckebasis.hecke" not in modules, argv


def _tie(tmp_path):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({
        "rows": [{"label": "x", "a": 0}, {"label": "y", "a": 0}],
        "cols": ["c1"],
        "entries": [[1], [1]],
    }))
    return ["basic-set", "--input", str(path)]


def _product_mismatch(tmp_path):
    full = tmp_path / "full.json"
    full.write_text(canonical_json(g2_decomposition_table(6).to_json_dict()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 1, 1]]))
    return ["factor", "--full", full, "--root", full,
            "--dprime", str(bad)]


@pytest.mark.parametrize(
    "make_argv, status, message",
    [
        (lambda tmp: ["e-value", "--q", "7", "--ell", "7"], 2,
         "error: prime 7 divides q = 7\n"),
        (_tie, 3, "failure: column 'c1': tie (rows ['x', 'y'] all have a = 0)\n"),
        (_product_mismatch, 3,
         "failure: entry ('rho+', 'c2'): product gives 1, matrix has 0\n"),
        (lambda tmp: ["basic-set", "--type", "b", "--m", "3", "--s", "0",
                      "--e", "2"], 4,
         "not catalogued: e = 2 has no closed form here; see [GeJa Thm 3.4]\n"),
    ],
    ids=["precondition", "tie", "product", "not-catalogued"],
)
def test_exit_codes_from_a_fresh_process(tmp_path, make_argv, status, message):
    code, out, err, _ = child(tmp_path, *make_argv(tmp_path))
    assert (code, out, err) == (status, "", message)


def test_a_table_that_stdout_cannot_encode_leaves_stdout_empty(tmp_path):
    # A lone surrogate is a legal JSON escape that UTF-8 cannot encode. A
    # table was once printed line by line, so "c1 -> a", or the header and
    # the first row of a schur table served from the cache, reached stdout
    # before the exit 2; each is now one write, which encodes everything
    # before it writes a byte. JSON escapes the label and exits 0.
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({
        "rows": [{"label": "a", "a": 0}, {"label": "\ud800", "a": 1}],
        "cols": ["c1", "c2"],
        "entries": [[1, 0], [0, 1]],
    }))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "heckebasis.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8"),
            capture_output=True,
            timeout=60,
        )

    basic_set = ("basic-set", "--input", str(matrix))
    # a schur cache entry sealed for its own key, its second rep so named
    cache = tmp_path / "cache"
    schur = ("schur", "--cache-dir", str(cache), "--format")
    miss = run(*schur, "json")
    assert miss.returncode == 0
    (entry,) = cache.glob("schur-*.json")
    served = json.loads(miss.stdout)
    served["reps"][1]["name"] = "\ud800"
    payload = json.dumps(served).encode("ascii")
    entry.write_bytes(_sealed(entry.stem.removeprefix("schur-"), payload))
    for argv in (basic_set, (*schur, "table")):
        table = run(*argv)
        assert (table.returncode, table.stdout) == (2, b"")
        assert table.stderr.startswith(
            b"error: 'utf-8' codec can't encode character '\\ud800'"
        )
    as_json = run(*basic_set, "--format", "json")
    assert as_json.returncode == 0
    assert json.loads(as_json.stdout)["iota"] == {"c1": "a", "c2": "\ud800"}
    assert run(*schur, "json").stdout == payload
