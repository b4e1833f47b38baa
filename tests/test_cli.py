import functools
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import pytest

from heckebasis import basicsets, cli, coxeter, modarith, partitions, reps
from heckebasis.basicsets import DecompRow, g2_decomposition_table
from heckebasis.cli import canonical_json, main
from heckebasis.laurent import LaurentPoly
from heckebasis.partitions import (
    list_bipartitions,
    list_partitions,
    n_invariant,
    render_bipartition,
    render_partition,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_e_value_table_and_json(capsys):
    code, out, _ = run(capsys, "e-value", "--q", "2", "--ell", "7")
    assert code == 0 and out == "e = 3\n"
    code, out, _ = run(
        capsys, "e-value", "--q", "2", "--ell", "7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"e": 3}
    code, out, _ = run(capsys, "e-value", "--q", "8", "--ell", "7")
    assert code == 0 and out == "e = 7\n"


def test_e_value_with_a_emits_full_report(capsys):
    code, out, _ = run(
        capsys,
        "e-value", "--q", "2", "--ell", "5", "--a", "1", "--b", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "e": 4,
        "ePrime": 4,
        "A": {"modulus": 4, "residues": [2]},
        "A0": {"modulus": 4, "residues": [2]},
        "equal": True,
    }


def test_e_value_precondition_failures(capsys):
    code, _, err = run(capsys, "e-value", "--q", "7", "--ell", "7")
    assert code == 2 and "divides" in err
    code, _, err = run(capsys, "e-value", "--q", "2", "--ell", "6")
    assert code == 2
    code, _, err = run(
        capsys, "e-value", "--q", "6", "--ell", "5", "--a", "1"
    )
    assert code == 2 and "1 mod" in err
    # --cap belongs to schur only; argparse rejects it elsewhere
    with pytest.raises(SystemExit) as exc:
        main(["e-value", "--q", "2", "--ell", "7", "--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q, ell, message",
    [
        ("2", "9", "error: 9 is not prime\n"),
        ("14", "7", "error: prime 7 divides q = 14\n"),
    ],
    ids=["not-prime", "divides-q"],
)
def test_e_value_refuses_ell_in_the_gate_s_words(capsys, q, ell, message):
    # with --a or without, ell is refused by laurent.check_ell alone
    for extra in ([], ["--a", "1"]):
        code, out, err = run(capsys, "e-value", "--q", q, "--ell", ell, *extra)
        assert (code, out, err) == (2, "", message), extra


def test_e_value_bounds_ell_before_any_work(capsys):
    # trial division alone takes about a second at this ell
    for extra in ([], ["--a", "1"]):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "e-value", "--q", "2", "--ell", "100000000000031", *extra
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "ell = 100000000000031 exceeds the maximum 800" in err
    code, out, _ = run(capsys, "e-value", "--q", "2", "--ell", "797")
    assert code == 0 and out == "e = 796\n"


@pytest.mark.parametrize(
    "argv, token",
    [
        (["embed", "--bipartition", "\u0662,\u0661|1_0", "--s", "0"], "'\u0662'"),
        (["afun", "--bipartition", " +2 , 1|", "--s", "1"], "' +2 '"),
        (["extract", "--partition", "5,2,2 ", "--s", "1"], "'2 '"),
        (["basic-set", "--type", "g2", "--weights", "\u0663,\u0661", "--e", "6"],
         "'\u0663'"),
        (["basic-set", "--type", "b", "--m", "2", "--weights",
          "unitary:s=\u0661", "--e", "3"], "'unitary:s=\u0661'"),
        (["schur", "--weights", "3, 1"], "' 1'"),
    ],
    ids=["embed", "afun", "extract", "g2-weights", "unitary-s", "schur-weights"],
)
def test_text_integers_are_ascii_digits_only(capsys, tmp_path, argv, token):
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and token in err, err


@pytest.mark.parametrize("value", ["\u0663", " 3", "+3", "1_0", "3.0", ""])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["e-value", "--ell", "7", "--q"], "--q"),
        (["afun", "--bipartition", "2|", "--s"], "--s"),
        (["sweep-genericity", "--ell-max"], "--ell-max"),
    ],
    ids=["e-value", "afun", "sweep"],
)
def test_integer_options_are_ascii_digits_only(capsys, argv, option, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid integer value: {value!r}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--type", "g2", "--e", "6"],
         "expected an integer in ASCII digits, got ''"),
        (["--type", "b", "--s", "1", "--m", "2", "--e", "3"],
         "cannot parse unitary weights '': type b takes unitary:s=0|1"),
    ],
    ids=["g2", "b"],
)
def test_basic_set_refuses_empty_weights(capsys, argv, message):
    # an empty --weights is parsed, not read as an absent option
    code, out, err = run(capsys, "basic-set", "--weights", "", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_integer_options_take_a_leading_minus(capsys):
    argv = ["e-value", "--q", "-5", "--ell", "7", "--a", "1", "--b", "-1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("e  = 3\n")  # -5 is 2 mod 7


def _seal(entry: Path, payload: bytes) -> bytes:
    """What the schur cache writes to the file entry for payload: a line
    with the SHA-256 of the key (the hash in the file name), a newline
    and the payload, then the payload."""
    key = entry.stem.removeprefix("schur-")
    digest = hashlib.sha256(key.encode() + b"\n" + payload).hexdigest()
    return digest.encode() + b"\n" + payload


def test_schur_json_is_cached_and_byte_identical(capsys, tmp_path):
    argv = ("schur", "--format", "json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *argv)
    assert code1 == 0
    cache_files = list(tmp_path.glob("schur-*.json"))
    assert len(cache_files) == 1
    code2, out2, _ = run(capsys, *argv)
    assert code2 == 0 and out2 == out1
    assert cache_files[0].read_bytes() == _seal(cache_files[0], out1.encode())
    data = json.loads(out1)
    assert [r["aInvariant"] for r in data["reps"]] == [0, 1, 3, 3, 7, 12]
    assert [r["fLambda"] for r in data["reps"]] == [1, 1, 2, 2, 1, 1]
    assert data["reps"][0]["schur"].startswith("1*u^0 + 1*u^1")


def test_schur_recovers_from_corrupted_cache_entry(capsys, tmp_path):
    argv = ("schur", "--format", "json", "--cache-dir", str(tmp_path))
    code, first, _ = run(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.glob("schur-*.json")
    sealed = entry.read_bytes()
    damages = (
        sealed[: len(sealed) // 2],
        b"\xff\xfe{",
        sealed[:-1],  # the payload is still valid JSON, but without the newline
        b"[" * 100000 + b"]" * 100000,  # nested past the parser's recursion limit
    )
    for damage in damages:
        entry.write_bytes(damage)
        code, again, err = run(capsys, *argv)
        assert code == 0, err
        assert again == first
        assert entry.read_bytes() == sealed


def _schur_misshapes(table: dict) -> dict:
    """Canonical JSON that is not a Schur table, by what is wrong with it."""
    out = {"empty": {}, "no-reps": {"datum": table["datum"]}}
    for key in table["reps"][0]:
        short = json.loads(json.dumps(table))
        del short["reps"][2][key]
        out[f"no-{key}"] = short
    listed = json.loads(json.dumps(table))
    listed["reps"][0]["name"] = ["ind"]
    out["name-not-a-string"] = listed
    out["datum-empty"] = {"datum": {}, "reps": table["reps"]}
    for key in table["datum"]:
        short = json.loads(json.dumps(table))
        del short["datum"][key]
        out[f"datum-no-{key}"] = short
    listed = json.loads(json.dumps(table))
    listed["datum"]["coxeterMatrix"][1] = ["6", 1]
    out["datum-matrix-row-not-ints"] = listed
    return {name: canonical_json(data) for name, data in out.items()}


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_schur_serves_only_entries_of_the_table_shape(capsys, tmp_path, fmt):
    # Another payload, under the entry's digest line or bare, and the entry
    # cut short are recomputed and replaced, in both formats. A planted {}
    # once printed {} (json) and exited 2 (table); "dim": true and a
    # fLambda of 3 for 2 were once served.
    argv = ("schur", "--format", fmt, "--cache-dir", str(tmp_path))
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.glob("schur-*.json")
    sealed = entry.read_bytes()
    digest, _, payload = sealed.partition(b"\n")
    misshapes = _schur_misshapes(json.loads(payload))
    assert len(misshapes) == 14
    boolean = json.loads(payload)
    boolean["reps"][0]["dim"] = True
    misshapes["dim-true"] = canonical_json(boolean)
    assert b'"fLambda": 2' in payload
    misshapes["fLambda-flipped"] = payload.replace(
        b'"fLambda": 2', b'"fLambda": 3', 1
    ).decode()
    plantings = {"truncated": sealed[: len(sealed) // 2], "bare": payload}
    for name, text in misshapes.items():
        plantings[name] = digest + b"\n" + text.encode()
        plantings[f"{name}-bare"] = text.encode()
    for name, planted in plantings.items():
        entry.write_bytes(planted)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, fresh, ""), name
        assert entry.read_bytes() == sealed, name


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_schur_entry_copied_from_another_key_is_not_served(capsys, tmp_path, fmt):
    # --cap 999999 is another key with the same table: a copy of the
    # default cap's entry under its file name is recomputed, and comes
    # back with that key's digest line
    argv = ("schur", "--format", fmt, "--cache-dir")
    code, fresh, _ = run(capsys, *argv, str(tmp_path / "a"))
    assert code == 0
    (entry,) = (tmp_path / "a").glob("schur-*.json")
    other_argv = (*argv, str(tmp_path / "b"), "--cap", "999999")
    assert run(capsys, *other_argv) == (0, fresh, "")
    (other,) = (tmp_path / "b").glob("schur-*.json")
    assert other.name != entry.name
    copy = entry.with_name(other.name)
    shutil.copyfile(entry, copy)
    other_argv = (*argv, str(tmp_path / "a"), "--cap", "999999")
    assert run(capsys, *other_argv) == (0, fresh, "")
    assert copy.read_bytes() == other.read_bytes() != entry.read_bytes()


def test_schur_key_takes_the_type_tag_in_lower_case(capsys, tmp_path):
    outs = set()
    for tag in ("G2", "g2"):
        code, out, _ = run(
            capsys, "schur", "--type", tag, "--format", "json",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert len(list(tmp_path.glob("schur-*.json"))) == 1


def test_schur_key_covers_every_module(tmp_path, monkeypatch):
    # the digest of a copy of the package, before and after one module of
    # it changes; partitions.py is not run by a schur cache miss
    copy = tmp_path / "heckebasis"
    shutil.copytree(
        Path(cli.__file__).parent, copy,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    real = cli._source_digest()
    monkeypatch.setattr(cli, "__file__", str(copy / "cli.py"))
    assert cli._source_digest() == real
    modules = sorted(path.name for path in copy.glob("*.py"))
    assert "partitions.py" in modules
    digests = {real}
    for name in modules:
        path = copy / name
        source = path.read_bytes()
        path.write_bytes(source + b"\n")
        digests.add(cli._source_digest())
        path.write_bytes(source)
    assert len(digests) == len(modules) + 1
    assert cli._source_digest() == real
    # a renamed module changes the key too
    (copy / "partitions.py").rename(copy / "partitions2.py")
    assert cli._source_digest() != real


def test_schur_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE_CACHE_DIR", str(tmp_path / "envcache"))
    code, out, _ = run(capsys, "schur", "--format", "json")
    assert code == 0
    assert list((tmp_path / "envcache").glob("schur-*.json"))


def _no_home(monkeypatch):
    # Path.home() fails as with HOME unset and no passwd entry
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.delenv("HECKE_CACHE_DIR", raising=False)
    monkeypatch.setattr(os.path, "expanduser", lambda path: path)


def test_commands_other_than_schur_need_no_home(capsys, monkeypatch):
    _no_home(monkeypatch)
    assert run(capsys, "e-value", "--q", "2", "--ell", "7") == (0, "e = 3\n", "")


def test_schur_without_a_home_names_the_ways_to_give_a_cache(
    capsys, tmp_path, monkeypatch
):
    _no_home(monkeypatch)
    code, out, err = run(capsys, "schur", "--format", "json")
    assert (code, out) == (2, "")
    assert err == (
        "error: no home directory for the schur cache: "
        "give --cache-dir or set HECKE_CACHE_DIR\n"
    )
    code, fresh, _ = run(
        capsys, "schur", "--format", "json", "--cache-dir", str(tmp_path / "flag")
    )
    assert code == 0 and list((tmp_path / "flag").glob("schur-*.json"))
    monkeypatch.setenv("HECKE_CACHE_DIR", str(tmp_path / "env"))
    assert run(capsys, "schur", "--format", "json") == (0, fresh, "")
    assert list((tmp_path / "env").glob("schur-*.json"))


def test_schur_table_mode(capsys, tmp_path):
    code, out, _ = run(capsys, "schur", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["name", "dim", "a", "f", "schur"]
    assert lines[2].startswith("ind")


def test_schur_rejects_unsupported_type(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "schur", "--type", "b", "--rank", "2", "--weights", "1,1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    # --cap reaches build_datum on a cache miss (G2 has order 12)
    code, out, err = run(
        capsys, "schur", "--cap", "5", "--cache-dir", str(tmp_path)
    )
    assert code == 2 and out == "" and "exceeds cap 5" in err


def test_schur_refuses_unsupported_type_before_enumerating(capsys, tmp_path):
    # A8 has 362,880 elements; the refusal comes before the first of them.
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "schur", "--type", "a", "--rank", "8", "--weights", ",".join("1" * 8),
        "--cache-dir", str(tmp_path),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert (
        "built-in representation set exists only for g2 with weights (3, 1)"
        in err
    )
    # weights are still checked first, with the same message
    code, out, err = run(
        capsys,
        "schur", "--type", "a", "--rank", "8", "--weights", "1,1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2 and out == "" and "need 8 weights, got 2" in err
    assert not list(tmp_path.glob("schur-*.json"))


def test_schur_cache_key_holds_the_effective_cap(capsys, tmp_path):
    code, first, _ = run(capsys, "schur", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, err = run(
        capsys, "schur", "--cap", "5", "--cache-dir", str(tmp_path)
    )
    assert code == 2 and out == "" and "exceeds cap 5" in err
    # the default cap spelled out is the same key as no --cap at all
    code, again, _ = run(
        capsys, "schur", "--cap", "1000000", "--cache-dir", str(tmp_path)
    )
    assert code == 0 and again == first
    assert len(list(tmp_path.glob("schur-*.json"))) == 1


def test_schur_entry_of_other_source_is_not_served(
    capsys, tmp_path, monkeypatch
):
    argv = ("schur", "--format", "json", "--cache-dir", str(tmp_path))
    code, real, _ = run(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.glob("schur-*.json")
    forged = json.loads(real)
    forged["reps"][0]["fLambda"] = 99
    forged_text = canonical_json(forged)
    # Write the forged table under another source digest; served under
    # that digest, it shows up.
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    (other,) = set(tmp_path.glob("schur-*.json")) - {entry}
    other.write_bytes(_seal(other, forged_text.encode()))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == forged_text
    monkeypatch.undo()
    # under its own key the real table is served, also from the forged
    # entry copied under its file name
    sealed = entry.read_bytes()
    for planted in (sealed, other.read_bytes()):
        entry.write_bytes(planted)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == real
        assert entry.read_bytes() == sealed == _seal(entry, real.encode())



@pytest.mark.parametrize(
    "payload, message",
    [
        ("[" * 100000 + "]" * 100000 + "\n", "JSON nested too deeply"),
        ("[]\n", "not a Schur table"),
        ('{"reps": [{"name": "ind"}]}\n', "not a Schur table"),
        ('{"reps": [{"name": null}]}\n', "not a Schur table"),
        ('{"reps": [\n', "Expecting value: line 2 column 1 (char 11)"),
    ],
    ids=["nested", "list", "row-without-keys", "name-null", "not-json"],
)
def test_schur_table_refuses_a_sealed_entry_that_is_no_table(
    capsys, tmp_path, payload, message
):
    # An entry sealed for its own key is served as it is, so --format json
    # prints it; --format table once ended in a traceback on some of them
    # (RecursionError, TypeError) and now exits 2 naming the cache file.
    argv = ("schur", "--cache-dir", str(tmp_path), "--format")
    assert run(capsys, *argv, "json")[0] == 0
    (entry,) = tmp_path.glob("schur-*.json")
    sealed = cli._sealed(entry.stem.removeprefix("schur-"), payload.encode())
    entry.write_bytes(sealed)
    assert run(capsys, *argv, "json") == (0, payload, "")
    assert run(capsys, *argv, "table") == (
        2, "", f"error: {entry}: {message}\n"
    )
    assert entry.read_bytes() == sealed


def test_schur_names_a_sealed_entry_that_is_not_utf8(capsys, tmp_path):
    # An entry sealed for its own key around the byte 0xff once ended in a
    # bare codec error in both formats; now both exit 2 naming the file.
    argv = ("schur", "--cache-dir", str(tmp_path), "--format")
    assert run(capsys, *argv, "json")[0] == 0
    (entry,) = tmp_path.glob("schur-*.json")
    sealed = cli._sealed(entry.stem.removeprefix("schur-"), b'{"reps": [\xff')
    entry.write_bytes(sealed)
    message = "'utf-8' codec can't decode byte 0xff in position 10"
    for form in ("json", "table"):
        code, out, err = run(capsys, *argv, form)
        assert (code, out) == (2, "")
        assert err == f"error: {entry}: {message}: invalid start byte\n"
    assert entry.read_bytes() == sealed


def test_basic_set_catalog_queries(capsys):
    code, out, _ = run(
        capsys, "basic-set", "--type", "g2", "--e", "12", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "count": 5,
        "e": 12,
        "labels": ["eps1", "eps2", "ind", "rho+", "rho-"],
    }
    # far beyond the span of the G2 polynomials: no specialisation, no split
    code, out, _ = run(
        capsys, "basic-set", "--type", "g2", "--e", "1000000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["labels"] == [
        "eps", "eps1", "eps2", "ind", "rho+", "rho-"
    ]
    code, out, _ = run(
        capsys, "basic-set", "--type", "a", "--n", "4", "--e", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["labels"] == ["3,1", "4"]
    code, out, _ = run(
        capsys,
        "basic-set", "--type", "b", "--weights", "unitary:s=1",
        "--m", "2", "--e", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_basic_set_not_catalogued_exit_4(capsys):
    code, _, err = run(
        capsys,
        "basic-set", "--type", "b", "--weights", "unitary:s=0",
        "--m", "3", "--e", "6",
    )
    assert code == 4
    assert "FLOTW" in err
    code, _, err = run(
        capsys, "basic-set", "--type", "b", "--s", "0", "--m", "3", "--e", "2"
    )
    assert code == 4
    assert "GeJa" in err


@pytest.mark.parametrize(
    "weights, message",
    [
        (["--weights", "1,2", "--s", "0"], "cannot parse unitary weights '1,2'"),
        (["--weights", "unitaryXYZ:s=1"], "cannot parse unitary weights"),
        (["--weights", "unitary:s=x"], "type b takes unitary:s=0|1"),
        (["--weights", "unitary:s=1", "--s", "0"], "contradicts --s 0"),
    ],
    ids=["plain", "bad-prefix", "bad-value", "conflict"],
)
def test_basic_set_type_b_rejects_bad_weights(capsys, weights, message):
    code, out, err = run(
        capsys, "basic-set", "--type", "b", "--m", "2", "--e", "3", *weights
    )
    assert code == 2 and out == ""
    assert message in err


def test_basic_set_type_b_takes_weights_or_s_alone(capsys):
    base = ("basic-set", "--type", "b", "--m", "2", "--e", "3")
    for s in ("0", "1"):
        by_s = run(capsys, *base, "--s", s)
        assert by_s[0] == 0
        assert run(capsys, *base, "--weights", f"unitary:s={s}") == by_s
        assert run(capsys, *base, "--weights", f"unitary:s={s}", "--s", s) == by_s


def test_basic_set_precondition_errors(capsys):
    code, _, _ = run(capsys, "basic-set", "--type", "a", "--e", "2")
    assert code == 2  # missing --n
    code, _, _ = run(capsys, "basic-set")
    assert code == 2  # neither --input nor --type/--e
    code, _, _ = run(capsys, "basic-set", "--type", "b", "--m", "2", "--e", "4")
    assert code == 2  # missing s
    code, out, err = run(
        capsys, "basic-set", "--type", "b", "--s", "0", "--m", "60", "--e", "3"
    )
    assert code == 2 and out == ""  # refused from the count, not enumerated
    assert "962759294 bipartitions" in err
    # malformed G2 weights are a precondition failure, not "not catalogued"
    for weights, cause in [
        ("3", "need 2 weights, got 1"),
        ("3,1,1", "need 2 weights, got 3"),
        ("-3,1", "nonnegative integers, got -3"),
    ]:
        code, out, err = run(
            capsys, "basic-set", "--type", "g2", f"--weights={weights}",
            "--e", "6",
        )
        assert code == 2 and out == "" and cause in err, (weights, err)
    code, out, err = run(
        capsys, "basic-set", "--type", "g2", "--weights", "1,1", "--e", "6"
    )
    assert code == 4 and out == "" and "(1, 1)" in err  # well-formed


def test_basic_set_from_input_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(canonical_json(g2_decomposition_table(6).to_json_dict()))
    code, out, _ = run(
        capsys, "basic-set", "--input", str(path), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["iota"] == {"c1": "ind", "c2": "eps1", "c3": "rho+"}
    assert data["image"] == ["eps1", "ind", "rho+"]


def test_basic_set_input_failure_exit_3(capsys, tmp_path):
    path = tmp_path / "tie.json"
    path.write_text(
        json.dumps(
            {
                "rows": [{"label": "x", "a": 0}, {"label": "y", "a": 0}],
                "cols": ["c1"],
                "entries": [[1], [1]],
            }
        )
    )
    code, _, err = run(capsys, "basic-set", "--input", str(path))
    assert code == 3 and "tie" in err


def test_basic_set_malformed_input_shapes_exit_2(capsys, tmp_path):
    row = {"label": "x", "a": 0}
    cases = [
        ([1, 2], "JSON object"),
        ({"rows": 5, "cols": ["c1"], "entries": [[1]]}, "'rows' must be a list"),
        ({"rows": [7], "cols": ["c1"], "entries": [[1]]}, "malformed row"),
        ({"rows": [row], "cols": ["c1"], "entries": [3]}, "entry row 0"),
        ({"rows": [row], "cols": ["c1"], "entries": [[None]]}, "entry row 0"),
        ({"rows": [{"label": "x", "a": [0]}], "cols": ["c1"], "entries": [[1]]},
         "malformed row"),
        ({"rows": [row, {"label": "y", "a": 1}], "cols": ["c1"],
          "entries": [[1.5], [0.9]]}, "entry row 0 must be a list"),
    ]
    # a non-integer a- or d-invariant is rejected, not truncated or parsed
    for bad in ({"a": 0.7}, {"a": "1"}, {"a": True}, {"a": 0, "d": 1.9}):
        cases.append(
            ({"rows": [{"label": "x", **bad}], "cols": ["c1"],
              "entries": [[1]]}, "a and d must be integers")
        )
    path = tmp_path / "bad.json"
    for data, cause in cases:
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "basic-set", "--input", str(path))
        assert code == 2, data
        assert out == "" and cause in err, (data, err)


@pytest.mark.parametrize("entry", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_matrix_entries_are_json_integers_only(capsys, tmp_path, entry):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(
        {"rows": [{"label": "x", "a": 0}], "cols": ["c1"], "entries": [[entry]]}
    ))
    code, out, err = run(capsys, "basic-set", "--input", str(matrix))
    assert code == 2 and out == "" and "entry row 0" in err
    full = tmp_path / "full.json"
    full.write_text(canonical_json(g2_decomposition_table(6).to_json_dict()))
    prime = tmp_path / "dp.json"
    prime.write_text(json.dumps([[entry, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, out, err = run(
        capsys,
        "factor", "--full", str(full), "--root", str(full), "--dprime", str(prime),
    )
    assert code == 2 and out == "" and "second factor row 0" in err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"rows": [{"label": None, "a": 0}], "cols": ["c1"], "entries": [[1]]},
         "malformed row {'label': None, 'a': 0}: label and class must be strings"),
        ({"rows": [{"label": "x", "a": 0, "class": 2}], "cols": ["c1"],
          "entries": [[1]]},
         "malformed row {'label': 'x', 'a': 0, 'class': 2}: label and class "
         "must be strings"),
        # 1 and "1" were once both read as "1" and refused as duplicates
        ({"rows": [{"label": "1", "a": 0}, {"label": 1, "a": 1}],
          "cols": ["c1"], "entries": [[1], [0]]},
         "malformed row {'label': 1, 'a': 1}: label and class must be strings"),
        ({"rows": [{"label": "x", "a": 0}], "cols": ["c1", True],
          "entries": [[1, 1]]},
         "column 1 label must be a string, got True"),
    ],
    ids=["null-label", "int-class", "int-label", "bool-column"],
)
def test_matrix_labels_are_json_strings_only(capsys, tmp_path, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    good = tmp_path / "good.json"
    good.write_text(canonical_json(g2_decomposition_table(6).to_json_dict()))
    prime = tmp_path / "dp.json"
    prime.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    for argv in (
        ["basic-set", "--input", str(bad)],
        ["factor", "--full", str(bad), "--root", str(good), "--dprime", str(prime)],
        ["factor", "--full", str(good), "--root", str(bad), "--dprime", str(prime)],
        ["verify-triangular", "--input", str(bad)],
        ["verify-conjecture-shape", "--input", str(bad)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_embed_extract_afun_round_trip(capsys):
    code, out, _ = run(
        capsys, "embed", "--bipartition", "2,1|1", "--s", "1",
        "--format", "json",
    )
    assert code == 0
    lam = json.loads(out)["partition"]
    assert lam == "5,2,2"
    code, out, _ = run(
        capsys, "extract", "--partition", lam, "--s", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["bipartition"] == "2,1|1"
    code, out, _ = run(
        capsys, "afun", "--bipartition", "3|", "--s", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["aInvariant"] == 0
    code, out, _ = run(capsys, "afun", "--bipartition", "|1,1,1", "--s", "1")
    assert code == 0
    n = 7
    assert out == f"a = {n * (n - 1) // 2}\n"


def test_embed_cli_matches_library_exhaustively(capsys):
    from heckebasis.partitions import embed_bipartition

    for b in list_bipartitions(3):
        for s in (0, 1):
            code, out, _ = run(
                capsys,
                "embed", "--bipartition", render_bipartition(b),
                "--s", str(s), "--format", "json",
            )
            assert code == 0
            assert json.loads(out)["partition"] == render_partition(
                embed_bipartition(b, s)
            )


def test_embed_bad_core_exit_2(capsys):
    code, _, err = run(capsys, "extract", "--partition", "2,1", "--s", "0")
    assert code == 2 and "2-core" in err


def test_factor_command(capsys, tmp_path):
    m = g2_decomposition_table(6)
    full = tmp_path / "full.json"
    full.write_text(canonical_json(m.to_json_dict()))
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    dp = tmp_path / "dp.json"
    dp.write_text(json.dumps(eye))
    code, out, _ = run(
        capsys,
        "factor", "--full", str(full), "--root", str(full),
        "--dprime", str(dp), "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["setsEqual"] is True
    assert data["beta"] == {"c1": "c1", "c2": "c2", "c3": "c3"}
    # wrapped entries form also accepted
    dp.write_text(json.dumps({"entries": eye}))
    code, _, _ = run(
        capsys,
        "factor", "--full", str(full), "--root", str(full),
        "--dprime", str(dp),
    )
    assert code == 0
    # mismatched product
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 1, 1]]))
    code, _, err = run(
        capsys,
        "factor", "--full", str(full), "--root", str(full),
        "--dprime", str(bad),
    )
    assert code == 3 and "product gives" in err


def test_factor_malformed_second_factor_exit_2(capsys, tmp_path):
    full = tmp_path / "full.json"
    full.write_text(canonical_json(g2_decomposition_table(6).to_json_dict()))
    dp = tmp_path / "dp.json"
    cases = [
        (5, "list of rows"),
        ({"entries": 3}, "list of rows"),
        # a string is refused as such, not read as rows of characters
        ("abc", "second factor must be a list of rows, got str"),
        ({"entries": "abc"}, "second factor must be a list of rows, got str"),
        (None, "second factor must be a list of rows, got NoneType"),
        ([[1, 0, 0], [0, 1.5, 0], [0, 0, 1]], "second factor row 1"),
    ]
    for data, cause in cases:
        dp.write_text(json.dumps(data))
        code, out, err = run(
            capsys,
            "factor", "--full", str(full), "--root", str(full),
            "--dprime", str(dp),
        )
        assert code == 2, data
        assert out == "" and cause in err, (data, err)


JSON_READERS = [
    "basic-set --input", "verify-triangular --input",
    "verify-conjecture-shape --input", "factor --full", "factor --root",
    "factor --dprime",
]


def _reader_argv(tmp_path, reader, bad):
    """argv that reads bad through the reader option, with good files for
    the other options of factor."""
    good = tmp_path / "good.json"
    good.write_text(canonical_json(g2_decomposition_table(6).to_json_dict()))
    prime = tmp_path / "dp.json"
    prime.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    command, option = reader.split()
    files = {"--full": good, "--root": good, "--dprime": prime}
    files = {**files, option: bad} if command == "factor" else {option: bad}
    argv = [command]
    for flag, path in files.items():
        argv += [flag, str(path)]
    return argv


@pytest.mark.parametrize("reader", JSON_READERS)
def test_json_that_does_not_parse_is_named_by_its_file(capsys, tmp_path, reader):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [')
    assert run(capsys, *_reader_argv(tmp_path, reader, bad)) == (
        2, "", f"error: {bad}: Expecting value: line 1 column 11 (char 10)\n"
    )


@pytest.mark.parametrize("reader", JSON_READERS)
def test_json_file_that_is_not_utf8_is_named_by_its_file(capsys, tmp_path, reader):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b'{"rows": [\xff')
    assert run(capsys, *_reader_argv(tmp_path, reader, bad)) == (
        2,
        "",
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte\n",
    )


def test_json_file_is_read_with_universal_newlines(capsys, tmp_path):
    # a parse error is placed as in the file read in text mode, where
    # "\r\n" and "\r" are one character each
    bad = tmp_path / "crlf.json"
    bad.write_bytes(b'{"rows":\r\n\r[')
    assert run(capsys, "basic-set", "--input", str(bad)) == (
        2, "", f"error: {bad}: Expecting value: line 3 column 2 (char 11)\n"
    )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="integers of any length parse before Python 3.11",
)
def test_json_integer_past_the_digit_limit_is_named_by_its_file(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"rows": [], "cols": [], "entries": [[' + "1" * 5000 + "]]}")
    code, out, err = run(capsys, "basic-set", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: Exceeds the limit")


def _json_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("row, key", [({"a": 0}, "label"), ({"label": "x"}, "a")])
def test_a_row_without_a_key_names_the_row_and_key(capsys, tmp_path, row, key):
    path = _json_file(
        tmp_path, "m.json", {"rows": [row], "cols": ["c1"], "entries": [[1]]}
    )
    message = f"error: malformed row {row!r}: missing key {key!r}\n"
    for argv in (
        ["basic-set", "--input", path],
        ["factor", "--full", path, "--root", path, "--dprime", path],
        ["verify-triangular", "--input", path],
        ["verify-conjecture-shape", "--input", path],
    ):
        assert run(capsys, *argv) == (2, "", message), argv


@pytest.mark.parametrize("row", [7, [1, 2], "abc", None], ids=repr)
def test_a_row_that_is_no_object_is_named_alike_in_code(capsys, tmp_path, row):
    message = f"malformed row {row!r}: a row must be a JSON object"
    with pytest.raises(ValueError) as exc:
        DecompRow.from_json_dict(row)
    assert str(exc.value) == message
    path = _json_file(
        tmp_path, "m.json", {"rows": [row], "cols": ["c1"], "entries": [[1]]}
    )
    for argv in (
        ["basic-set", "--input", path],
        ["factor", "--full", path, "--root", path, "--dprime", path],
        ["verify-triangular", "--input", path],
        ["verify-conjecture-shape", "--input", path],
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def _factor_without_entries(tmp_path):
    one = {"rows": [{"label": "x", "a": 0}], "cols": ["c1"], "entries": [[1]]}
    full = _json_file(tmp_path, "full.json", one)
    prime = _json_file(tmp_path, "dp.json", {"rows": [[1]]})
    return ["factor", "--full", full, "--root", full, "--dprime", prime]


def _triangular_of_two_sizes(tmp_path):
    path = _json_file(tmp_path, "m.json", {
        "rows": [{"label": "2", "a": 0}, {"label": "1,1,1", "a": 1}],
        "cols": ["2", "1,1,1"],
        "entries": [[1, 0], [0, 1]],
    })
    return ["verify-triangular", "--input", path]


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (_factor_without_entries,
         "the second factor object has no 'entries' list"),
        (_triangular_of_two_sizes,
         "labels are partitions of different sizes: {2, 3}"),
        (lambda tmp: ["basic-set", "--type", "b", "--m", "-1", "--s", "0",
                      "--e", "3"], "need m >= 0, got -1"),
        (lambda tmp: ["basic-set", "--type", "b", "--m", "61", "--s", "0",
                      "--e", "3"], "m = 61 exceeds cap 60"),
        (lambda tmp: ["schur", "--type", "b", "--rank", "1", "--weights", "1",
                      "--cache-dir", str(tmp)], "type b needs rank >= 2"),
    ],
    ids=["no-entries", "two-sizes", "m-negative", "m-above-cap", "b-rank-1"],
)
def test_precondition_message_names_the_cause(
    capsys, tmp_path, make_argv, message
):
    assert run(capsys, *make_argv(tmp_path)) == (2, "", f"error: {message}\n")


def _triangular_file(tmp_path, name, mutate=None):
    ps = list_partitions(4)
    labels = [render_partition(p) for p in ps]
    k = len(ps)
    entries = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    if mutate:
        mutate(entries)
    data = {
        "rows": [
            {"label": lab, "a": n_invariant(p)}
            for lab, p in zip(labels, ps)
        ],
        "cols": labels,
        "entries": entries,
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_verify_triangular_pass_and_fail(capsys, tmp_path):
    good = _triangular_file(tmp_path, "good.json")
    code, out, _ = run(
        capsys, "verify-triangular", "--input", str(good), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    def seed(entries):
        entries[0][-1] = 1  # row (4), column (1,1,1,1)

    bad = _triangular_file(tmp_path, "bad.json", seed)
    code, out, _ = run(
        capsys, "verify-triangular", "--input", str(bad), "--format", "json"
    )
    assert code == 3
    data = json.loads(out)
    assert data["ok"] is False
    coords = {(v["row"], v["col"]) for v in data["violations"]}
    assert ("4", "1,1,1,1") in coords


def _wrong_sets(monkeypatch, *assignments):
    """canonical_basic_set patched to return the given assignments, one
    per call: beta_factorization asks for the full set, then the root's."""
    sets = iter([basicsets.BasicSet(tuple(a.items())) for a in assignments])
    monkeypatch.setattr(basicsets, "canonical_basic_set", lambda m: next(sets))


def _factor_files(tmp_path, full_entries, prime):
    """The G2 table at e = 6 as the root, the full matrix with the given
    entries and the same rows and columns, and the second factor."""
    root = g2_decomposition_table(6).to_json_dict()
    paths = [tmp_path / name for name in ("root.json", "full.json", "dp.json")]
    paths[0].write_text(canonical_json(root))
    paths[1].write_text(canonical_json({**root, "entries": full_entries}))
    paths[2].write_text(json.dumps(prime))
    root_path, full_path, prime_path = map(str, paths)
    return [
        "factor", "--full", full_path, "--root", root_path, "--dprime", prime_path
    ]


# The three factorisation cross-checks guard a theorem, so no valid input
# reaches them: each case patches canonical_basic_set to a wrong answer.
_G2_E6 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 0], [0, 1, 0]]
_EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_CANONICAL = {"c1": "ind", "c2": "eps1", "c3": "rho+"}


@pytest.mark.parametrize(
    "case",
    [
        "e", "embed", "dominance", "g2split", "group_order",
        "beta_unique", "root_assignment", "images",
    ],
)
def test_internal_checks_survive_optimisation(
    case, capsys, tmp_path, monkeypatch
):
    # Each cross-check raises an explicit ArithmeticError, which python -O
    # cannot strip the way it strips an assert, and which the command line
    # reports as a mathematical failure (exit 3) with nothing on stdout.
    if case == "e":
        monkeypatch.setattr(modarith, "_walk", lambda x, ell: (3, 0, {}))
        argv = ["e-value", "--q", "2", "--ell", "7"]
        cause = "multiplicative order"
    elif case == "embed":
        monkeypatch.setattr(
            partitions, "_embed_with_parity", lambda b, s: (1,)
        )
        argv = ["embed", "--bipartition", "2,1|1", "--s", "1"]
        cause = "not 9"
    elif case == "g2split":
        # u^1000 leaves every a-invariant alone but makes the Schur element
        # of rho-, which splits at e = 6, nonzero at zeta_6; a fresh cache
        # of the e-independent data sees the patch and is dropped after it
        schur_element = reps.schur_element
        monkeypatch.setattr(
            reps,
            "schur_element",
            lambda rep: schur_element(rep) + LaurentPoly.monomial(1000),
        )
        monkeypatch.setattr(
            basicsets,
            "_g2_generic",
            functools.cache(basicsets._g2_generic.__wrapped__),
        )
        argv = ["basic-set", "--type", "g2", "--e", "6"]
        cause = "rho- splits at e = 6"
    elif case == "group_order":
        # an empty group cache, so G2 is enumerated against the wrong order
        monkeypatch.setattr(coxeter, "_GROUPS", coxeter._GroupCache(100))
        real = coxeter.group_order
        monkeypatch.setattr(coxeter, "group_order", lambda m: real(m) + 1)
        argv = ["schur", "--cache-dir", str(tmp_path)]
        cause = "enumerated 12 elements"
    elif case == "beta_unique":
        # row eps1 of column c1 meets the identity factor in no column
        wrong = {"c1": "eps1", "c2": "ind", "c3": "rho+"}
        _wrong_sets(monkeypatch, wrong, wrong)
        argv = _factor_files(tmp_path, _G2_E6, _EYE3)
        cause = "column 'c1': candidate root columns []"
    elif case == "root_assignment":
        _wrong_sets(
            monkeypatch, _CANONICAL, {"c1": "rho-", "c2": "eps1", "c3": "rho+"}
        )
        argv = _factor_files(tmp_path, _G2_E6, _EYE3)
        cause = "root-of-unity assignment of 'c1' is 'rho-'"
    elif case == "images":
        # full = root * prime, where beta sends both c1 and c2 to c1: a
        # full assignment that agrees with the root's through beta but is
        # not injective covers fewer rows
        prime = [[1, 1, 0], [0, 0, 0], [0, 0, 1]]
        full = [[1, 1, 0], [0, 0, 0], [0, 0, 1], [1, 1, 0], [1, 1, 0], [0, 0, 0]]
        _wrong_sets(
            monkeypatch, {"c1": "ind", "c2": "ind", "c3": "rho+"}, _CANONICAL
        )
        argv = _factor_files(tmp_path, full, prime)
        cause = "images differ"
    else:
        monkeypatch.setattr(basicsets, "dominates", lambda lam, mu: True)

        def above_diagonal(entries):
            entries[0][1] = 1  # row (4), column (3,1): n(3,1) > n(4)

        path = _triangular_file(tmp_path, "m.json", above_diagonal)
        argv = ["verify-triangular", "--input", str(path)]
        cause = "n-invariant"
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and cause in err, err


def test_verify_conjecture_shape_pass_and_fail(capsys, tmp_path):
    good = {
        "rows": [
            {"label": "r1", "a": 0, "class": "u", "d": 0},
            {"label": "r2", "a": 1, "class": "u", "d": 0},
            {"label": "r3", "a": 2, "class": "v", "d": 3},
        ],
        "cols": ["c1", "c2", "c3"],
        "entries": [[1, 0, 0], [0, 1, 0], [2, 1, 1]],
    }
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(good))
    code, out, _ = run(
        capsys,
        "verify-conjecture-shape", "--input", str(path), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    good["entries"][0][2] = 1
    path.write_text(json.dumps(good))
    code, out, _ = run(
        capsys,
        "verify-conjecture-shape", "--input", str(path), "--format", "json",
    )
    assert code == 3
    data = json.loads(out)
    assert data["violations"][0]["row"] == "r1"
    assert data["violations"][0]["col"] == "c3"


def test_sweep_genericity(capsys):
    code, out, _ = run(
        capsys,
        "sweep-genericity", "--ell-max", "11", "--q-max", "11",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["allEqual"] is True and data["checked"] > 0
    # empty or oversized boxes are refused before the sweep starts
    for ell_max, q_max, cause in [
        ("-5", "3", "sweep box -5 x 3 is empty"),
        ("0", "0", "sweep box 0 x 0 is empty"),
        ("3000", "3000", "sweep box 3000 x 3000 exceeds the maximum 100 x 100"),
    ]:
        code, out, err = run(
            capsys,
            "sweep-genericity", f"--ell-max={ell_max}", "--q-max", q_max,
        )
        assert code == 2 and out == "" and cause in err, err


def test_json_outputs_end_with_newline_and_sort_keys(capsys):
    code, out, _ = run(
        capsys, "e-value", "--q", "2", "--ell", "5", "--a", "2", "--b", "1",
        "--format", "json",
    )
    assert code == 0
    assert out.endswith("\n")
    assert out == canonical_json(json.loads(out))


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
