"""Seeded fuzzing of the command line, in process.

A fixed seed draws about 500 argument lists over all ten subcommands:
well-formed calls, malformed text, malformed and truncated JSON files,
missing paths and numbers out of range (negative, zero, non-prime, above
a bound, beyond a machine word). Every call must end in exit 0, 2, 3 or
4, either returned by main or raised by argparse as SystemExit, and
never in an uncaught exception.

Valid work is kept small so the whole file runs in a few seconds: sweep
boxes up to 20, partitions of at most 25. The ell pool holds primes up
to 101, the largest prime below modarith.MAX_ELL, the next one above it
and 100000000000031, which are refused before the primality test.
Out-of-range values are refused before any work starts, so those pools
reach as far as 10^18.
"""

import copy
import json
import random

import pytest

from conftest import g2_pinned_table, make_factorization_instance
from heckebasis.cli import main

SEED = 20061
CASES = 500

COMMANDS = (
    "e-value",
    "schur",
    "basic-set",
    "embed",
    "extract",
    "afun",
    "factor",
    "verify-triangular",
    "verify-conjecture-shape",
    "sweep-genericity",
)

OUT_OF_RANGE = ["-1", "-7", "0", str(10**18), str(-(10**18)), str(2**63)]
MALFORMED = ["", "x", "1.5", "1e3", "0x10", "2,1", "--", "nan", "٣", " 3", "+3",
             "1_0"]
SMALL = ["1", "2", "3", "4", "5", "6", "7", "8", "12", "13"]
PRIMES = ["2", "3", "5", "7", "11", "13", "97", "101", "797", "809",
          "100000000000031"]


def _numbers(rng, valid):
    pool = rng.choice([valid] * 6 + [OUT_OF_RANGE, MALFORMED])
    return rng.choice(pool)


def _file(rng, files, role):
    """A well-formed input half of the time, else any of them."""
    return rng.choice(files["good " + role if rng.random() < 0.5 else role])


def _json_files(root):
    """Paths of well-formed and malformed JSON inputs, by role."""
    rng = random.Random(SEED)
    full, root_m, prime = make_factorization_instance(rng)
    good = g2_pinned_table(6).to_json_dict()
    shape = {
        "rows": [
            {"label": "r1", "a": 0, "class": "u", "d": 0},
            {"label": "r2", "a": 1, "class": "u", "d": 0},
            {"label": "r3", "a": 2, "class": "v", "d": 3},
        ],
        "cols": ["c1", "c2", "c3"],
        "entries": [[1, 0, 0], [0, 1, 0], [2, 1, 1]],
    }
    bad_shape = copy.deepcopy(shape)
    bad_shape["entries"][0][2] = 1
    labels = ["3", "2,1", "1,1,1"]
    triangular = {
        "rows": [{"label": lab, "a": a} for lab, a in zip(labels, (0, 1, 3))],
        "cols": labels,
        "entries": [[1, 0, 0], [1, 1, 0], [0, 1, 1]],
    }
    variants = [
        good, full.to_json_dict(), root_m.to_json_dict(), shape, bad_shape,
        triangular,
    ]
    broken = []
    for key in ("rows", "cols", "entries"):
        d = copy.deepcopy(good)
        del d[key]
        broken.append(d)
        d = copy.deepcopy(good)
        d[key] = 7
        broken.append(d)
    for bad_a in ("1", 1.5, True, None, -(10**30)):
        d = copy.deepcopy(good)
        d["rows"][0]["a"] = bad_a
        broken.append(d)
    for bad_entry in (1.5, "1", None, -1, 10**30, [1]):
        d = copy.deepcopy(good)
        d["entries"][1][0] = bad_entry
        broken.append(d)
    d = copy.deepcopy(good)
    d["entries"][2] = d["entries"][2][:-1]
    broken.append(d)
    d = copy.deepcopy(good)
    d["cols"][1] = d["cols"][0]
    broken.append(d)
    d = copy.deepcopy(good)
    d["rows"][1] = d["rows"][0]
    broken.append(d)
    d = copy.deepcopy(good)
    d["rows"], d["entries"] = [1, 2], [[1], [2]]
    broken.append(d)
    broken += [{"rows": [], "cols": [], "entries": []}, [], 5, None, "text"]
    texts = [
        "",
        "{",
        '{"rows": [',
        "[1, 2",
        "NaN",
        "1" * 5000,
        "[" * 100000 + "]" * 100000,
        '{"a": ' * 50000 + "1" + "}" * 50000,
    ]
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    primes = [
        prime,
        {"entries": prime},
        eye,
        [[1, 0], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 1, 1]],
        [[1, 0, 0], [0, 1.5, 0], [0, 0, 1]],
        {"entries": 3},
        {"rows": []},
        5,
    ]
    paths = {"matrix": [], "prime": [], "good matrix": [], "good prime": []}
    n = 0

    def write(role, payload, raw=False, good=False):
        nonlocal n
        n += 1
        path = root / f"in{n}.json"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload if raw else json.dumps(payload))
        paths[role].append(str(path))
        if good:
            paths["good " + role].append(str(path))

    for data in variants:
        write("matrix", data, good=True)
    for data in broken:
        write("matrix", data)
    for data in primes[:3]:
        write("prime", data, good=True)
    for data in primes[3:]:
        write("prime", data)
    for text in texts:
        write("matrix", text, raw=True)
        write("prime", text, raw=True)
    write("matrix", b"\xff\xfe{\x00")
    for role in ("matrix", "prime"):
        paths[role] += [str(root / "missing.json"), str(root)]
    return paths


def _argv(rng, command, files, cache):
    """One argument list for command; options may be left out, doubled
    or malformed."""
    opts = []

    def add(flag, value, p=0.9):
        if rng.random() < p:
            opts.extend([flag, value])

    if command == "e-value":
        add("--q", _numbers(rng, SMALL + ["1000", str(10**18)]))
        add("--ell", _numbers(rng, PRIMES + ["1000", "1001"]))
        add("--a", _numbers(rng, SMALL), p=0.5)
        add("--b", _numbers(rng, ["0"] + SMALL), p=0.3)
    elif command == "schur":
        add("--type", rng.choice(["g2", "G2", "a", "b", "custom", "h", "x", ""]),
            p=0.7)
        add("--rank", _numbers(rng, ["2", "3", "8", "9", "12", "40"]), p=0.7)
        rank = rng.choice([1, 2, 3, 8, 9, 12, 40])
        add("--weights", rng.choice([
            "3,1", "1,1", "3", "3,1,1", "-3,1", "3,x", "", "3,1.5", "3, 1",
            "٣,١",
            f"{2**31},1", ",".join(["1"] * rank), ",".join(["2"] * rank),
        ]), p=0.7)
        add("--cap", _numbers(rng, ["5", "11", "12", "100", "1000000"]), p=0.4)
    elif command == "basic-set":
        if rng.random() < 0.3:
            add("--input", _file(rng, files, "matrix"), p=1)
        else:
            add("--type", rng.choice(["g2", "a", "b", "B", "x"]))
            add("--e", _numbers(rng, SMALL + ["100", str(10**18)]))
            add("--weights", rng.choice(
                ["3,1", "1,1", "3", "unitary:s=0", "unitary:s=1",
                 "unitary:s=2", "unitary:t=0", "unitary:s=x", "x", "٣,١",
                 "unitary:s=١", "unitary:s= 1"]), p=0.5)
            add("--n", _numbers(rng, SMALL + ["25", "61"]), p=0.5)
            add("--m", _numbers(rng, SMALL + ["61"]), p=0.5)
            add("--s", _numbers(rng, ["0", "1", "2"]), p=0.5)
    elif command in ("embed", "afun"):
        add("--bipartition", rng.choice([
            "2,1|1", "|", "2,1|", "|3", "3,3|2,2,1", "1,2|1", "x", "",
            "2,1|1|1", "-1|1", "1.5|1", "61|", "1000000|1", "2 1|1",
            "٢,١|1_0", " +2 , 1|",
        ]))
        add("--s", _numbers(rng, ["0", "1", "2", "3"]))
    elif command == "extract":
        add("--partition", rng.choice([
            "5,2,2", "2,1", "", "3", "4,4,1,1", "1,2", "x", "-1", "0",
            "1.5", "1000000", "61", "3,3,3,3,3,3,3,3", "5,2,2 ", "٥,٢,٢",
        ]))
        add("--s", _numbers(rng, ["0", "1", "2", "3"]))
    elif command == "factor":
        if rng.random() < 0.3:
            # full = root * prime, the triple of make_factorization_instance
            full, root = files["good matrix"][1:3]
            prime = files["good prime"][0]
        else:
            full, root = _file(rng, files, "matrix"), _file(rng, files, "matrix")
            prime = _file(rng, files, "prime")
        add("--full", full)
        add("--root", root)
        add("--dprime", prime)
    elif command in ("verify-triangular", "verify-conjecture-shape"):
        add("--input", _file(rng, files, "matrix"))
    else:
        add("--ell-max", _numbers(rng, SMALL + ["20", "101", "3000"]))
        add("--q-max", _numbers(rng, SMALL + ["20", "101", "3000"]))
    if rng.random() < 0.5:
        opts += ["--format", rng.choice(["json", "table", "json", "yaml"])]
    if rng.random() < 0.05:
        opts.append(rng.choice(["--bogus", "--help", "extra"]))
    return [command, *opts, "--cache-dir", cache]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 for --help
        return exc.code


def test_seeded_cli_inputs_end_in_a_documented_exit(
    tmp_path, capsys, monkeypatch
):
    cache = str(tmp_path / "cache")
    monkeypatch.setenv("HECKE_CACHE_DIR", cache)
    files = _json_files(tmp_path)
    rng = random.Random(SEED)
    seen = set()
    bad = []
    for _ in range(CASES):
        command = rng.choice(COMMANDS)
        seen.add(command)
        argv = _argv(rng, command, files, cache)
        code = _exit_code(argv)
        capsys.readouterr()
        if code not in (0, 2, 3, 4):
            bad.append((argv, code))
    assert seen == set(COMMANDS)
    assert bad == []


@pytest.mark.parametrize(
    "text",
    ["[" * 100000 + "]" * 100000, '{"a": ' * 50000 + "1" + "}" * 50000],
    ids=["array", "object"],
)
def test_deeply_nested_json_is_a_precondition_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main(["verify-triangular", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "nested too deeply" in captured.err
