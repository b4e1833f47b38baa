"""Self-tests of the benchmark: seeded determinism, oracles that reject
planted wrong answers, and the metric sets of both kinds of run.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jobs  # noqa: E402
import oracles as ref  # noqa: E402
import run  # noqa: E402
from heckebasis.basicsets import BasicSet, NoCanonicalSet  # noqa: E402
from heckebasis.laurent import LaurentPoly  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tmp():
    run.TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.TMP_ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        run.TMP_ROOT.rmdir()


def _make(name, seed, tmp):
    sub = Path(tempfile.mkdtemp(dir=tmp))
    wl = jobs.make_workload(name, seed, sub, Tracer(), run.SRC)
    return wl, sub


def _keys(wl, sub):
    # cli_mix arguments hold fixture paths under the run's own directory
    return [repr(job.key()).replace(str(sub), "<tmp>") for job in wl.jobs]


def _outputs(wl, picked):
    tr = Tracer()
    wl.begin_pass()
    digests = []
    for job in picked:
        if hasattr(job, "prepare"):
            job.prepare(wl)
        try:
            out, exc = job.run(tr, wl), None
        except NoCanonicalSet as error:  # planted ties
            out, exc = None, error
        job.check(out, exc, wl)
        digests.append(repr(exc) if exc else repr(out[1]) if job.kind == "cli" else str(out))
    return digests


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_job_list(name, tmp):
    wl1, sub1 = _make(name, 7, tmp)
    wl2, sub2 = _make(name, 7, tmp)
    wl3, sub3 = _make(name, 8, tmp)
    assert len(wl1.jobs) >= 100
    assert _keys(wl1, sub1) == _keys(wl2, sub2)
    assert _keys(wl1, sub1) != _keys(wl3, sub3)
    assert sorted(j.kind for j in wl1.jobs) == sorted(j.kind for j in wl3.jobs)


def _cheap(name, wl):
    if name == "schur_scaling":
        return [j for j in wl.jobs if j.rank <= 4][:12]
    if name == "hecke_products":
        products = [j for j in wl.jobs if j.kind == "product" and j.label == "g2"][:6]
        return products + [jobs.TextJob(p) for p in products]
    if name == "cli_mix":
        return wl.jobs[:4]
    return wl.jobs


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_outputs(name, tmp):
    wl1, _ = _make(name, 5, tmp)
    wl2, _ = _make(name, 5, tmp)
    assert _outputs(wl1, _cheap(name, wl1)) == _outputs(wl2, _cheap(name, wl2))


def _rejects(job, out, wl, exc=None):
    with pytest.raises(jobs.Mismatch):
        job.check(out, exc, wl)


def test_schur_oracle_rejects_a_changed_coefficient(tmp):
    job = jobs.SchurJob("b", 3, (2, 1))
    out = job.run(Tracer(), None)
    job.check(out, None, None)
    name, ok, c, af = out[0]
    _rejects(job, [(name, ok, c + LaurentPoly.monomial(2), af)] + out[1:], None)
    _rejects(job, out[:1] + [(out[1][0], True, out[1][2], (out[1][3][0] + 1, 1))], None)
    _rejects(job, None, None, exc=ValueError("boom"))
    g2 = jobs.SchurJob("g2", 2, (3, 1))
    out = g2.run(Tracer(), None)
    g2.check(out, None, None)
    rho = out[2]
    _rejects(g2, out[:2] + [(rho[0], rho[1], rho[2], (3, 1))] + out[3:], None)


def test_hecke_oracles_reject_wrong_products(tmp):
    wl, _ = _make("hecke_products", 1, tmp)
    job = next(j for j in wl.jobs if j.kind == "product" and j.label == "b3")
    p = job.run(Tracer(), wl)
    job.check(p, None, wl)
    unit = p.datum.identity
    wrong = p + type(p)(p.datum, {unit: LaurentPoly.monomial(5)})
    _rejects(job, wrong, wl)
    text = jobs.TextJob(job)
    out = text.run(Tracer(), wl)
    text.check(out, None, wl)
    _rejects(text, (out[0], wrong, out[2], out[3]), wl)
    _rejects(text, (out[0], out[1], out[2][1:], out[3]), wl)


def test_combinatorics_oracles_reject_wrong_answers(tmp):
    wl, _ = _make("combinatorics", 2, tmp)
    seen = set()
    for job in wl.jobs:
        tag = (job.kind, getattr(job, "tie_column", None) is not None,
               bool(getattr(job, "expected", None)))
        if tag in seen:
            continue
        seen.add(tag)
        try:
            out, exc = job.run(Tracer(), wl), None
        except NoCanonicalSet as error:
            out, exc = None, error
        job.check(out, exc, wl)
        if job.kind == "canonical" and exc is not None:
            _rejects(job, None, wl, NoCanonicalSet("elsewhere", "tie"))
            _rejects(job, BasicSet(iota=()), wl)
        elif job.kind == "canonical":
            iota = list(out.iota)
            iota[0], iota[1] = (iota[0][0], iota[1][1]), (iota[1][0], iota[0][1])
            _rejects(job, BasicSet(iota=tuple(iota)), wl)
        elif job.kind in ("triangular", "shape") and out.violations:
            _rejects(job, replace(out, violations=out.violations[1:]), wl)
        elif job.kind == "triangular":
            _rejects(job, replace(out, dominance_ok=False), wl)
        elif job.kind == "shape":
            _rejects(job, replace(out, ok=False), wl)
        elif job.kind == "factor":
            beta = list(out.beta)
            beta[0], beta[1] = (beta[0][0], beta[1][1]), (beta[1][0], beta[0][1])
            _rejects(job, replace(out, beta=tuple(beta)), wl)
        elif job.kind == "catalog":
            _rejects(job, set(out) - {min(out)}, wl)
        elif job.kind == "roundtrip":
            bips, parts, images, back, cores = out
            _rejects(job, (bips, parts, images, back[::-1], cores), wl)
        elif job.kind == "sweep":
            _rejects(job, {**out, "checked": out["checked"] + 1}, wl)
    kinds = {kind for kind, _, _ in seen}
    assert kinds == {"canonical", "triangular", "shape", "factor", "catalog",
                     "roundtrip", "sweep"}


def test_cli_oracles_reject_a_changed_byte(tmp):
    wl, _ = _make("cli_mix", 3, tmp)
    picked = {}
    for job in wl.jobs:
        picked.setdefault((job.oracle is None, job.code), job)
    for job in picked.values():
        job.prepare(wl)
        code, stdout = job.run(Tracer(), wl)
        job.prepare(wl)
        job.check((code, stdout), None, wl)
        changed = bytearray(stdout or b"x")
        changed[0] ^= 1
        job.prepare(wl)
        _rejects(job, (code, bytes(changed)), wl)
        job.prepare(wl)
        _rejects(job, (code + 1, stdout), wl)


def test_reference_counts_match_small_cases():
    assert ref.partition_count(10) == 42
    assert ref.bipartition_count(3) == 10
    assert ref.sweep_count(10, 10) == 104
    assert ref.e_value(2, 7) == 3 and ref.e_value(8, 7) == 7
    assert ref.poly_mul({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}


def test_reference_kernel_is_unchanged():
    # every scaled time depends on this kernel: editing it moves them all
    out = run.reference_kernel()
    assert (len(out), sum(out.values()), sum(k * v for k, v in out.items())) == (69, -8, 507)


def test_sampler_scales_wall_time_by_the_gauge(monkeypatch):
    readings = iter([2.0, 2.0, 4.0] + [4.0] * 100)
    monkeypatch.setattr(run, "gauge", lambda: next(readings) * run.REFERENCE_S)
    sampler = run.SpeedSampler()  # reads 2.0
    out, exc, wall, at_reference = sampler.time(lambda: "done", in_process=False)
    assert (out, exc) == ("done", None)
    assert at_reference == pytest.approx(wall / 2)  # before 2.0, after 2.0
    out, exc, wall, at_reference = sampler.time(lambda: 1 / 0, in_process=False)
    assert out is None and isinstance(exc, ZeroDivisionError)
    assert at_reference == pytest.approx(wall / 3)  # before 2.0, after 4.0
    out, exc, wall, at_reference = sampler.time(lambda: time.sleep(0.3))
    assert len(sampler.samples) >= 3  # readings taken during the job
    assert at_reference == pytest.approx(wall / 4)


def _spec_metrics(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_run_reports_every_end_to_end_metric(tmp):
    result, metrics = run.end_to_end("combinatorics", 1, 0.1, tmp)
    assert not result.failures and result.attempted >= 100
    assert {k: unit for k, (_, unit) in metrics.items()} == _spec_metrics("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_per_layer_metric(tmp):
    result, metrics = run.traced("combinatorics", 1, tmp)
    assert not result.failures
    assert {k: unit for k, (_, unit) in metrics.items()} == _spec_metrics("per_layer")
    assert metrics["basicsets.entries"][0] > 0
    assert metrics["modarith.tuples_checked"][0] > 0
    assert metrics["hecke.mul_calls"][0] == 0


def test_missing_package_exits_without_a_result(tmp, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp / "src")
    code = run.main(["--workload", "cli_mix", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
