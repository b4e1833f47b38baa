"""heckebasis benchmark.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: schur_scaling, hecke_products, combinatorics, cli_mix (see
bench/README.md); --workload all runs the four one after another. Each
is a closed loop with one client: the next job starts when the previous
one has finished. The loop runs whole passes over the seeded job list,
at least one, and starts another pass only if it would end within
--seconds.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced
and one traced pass and reports the per-layer metrics. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. The package is imported from src/ next to this directory; the
benchmark exits with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

WORKLOADS = ("schur_scaling", "hecke_products", "combinatorics", "cli_mix")
SETUP_PROBES = 15
INTERP_PROBES = 9
SCHUR_PROBES = 9

# jobs and spans import heckebasis, so the functions below import them
# only after main() has put src/ on sys.path.


def _now_ns() -> int:
    """Monotonic clock shared by all processes on the machine."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def commit_id() -> str:
    """The checked-out commit read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = git / ref_name
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----- machine speed ----------------------------------------------------------

# What reference_kernel takes on a quiet machine (2-vCPU Intel Xeon VM,
# Python 3.11.7). Scaled times read as seconds at that speed.
REFERENCE_S = 150e-6
SAMPLE_EVERY_S = 0.05  # between readings during an in-process job


def reference_kernel() -> dict:
    """Fixed pure-Python work that never calls heckebasis: the product of
    two sparse integer polynomials held in dicts. It must not change, so
    that times scaled by it compare across commits."""
    a = {i: (i * 7) % 11 - 5 for i in range(-20, 20)}
    b = {i: (i * 5) % 13 - 6 for i in range(-15, 15)}
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def gauge() -> float:
    """Seconds reference_kernel takes now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Times a job and samples the machine's speed around and during it.

    The machine is shared and its speed drifts by tens of percent within
    minutes; reference_kernel drifts with it. While an in-process job
    runs, a timer signal runs gauge() every SAMPLE_EVERY_S, and the time
    spent in it is taken off the job's time. While a child process runs,
    the gauge is not sampled: it would compete with the child for the
    core the benchmark is pinned to."""

    def __init__(self):
        self.before = gauge()
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(gauge())
        self.spent += time.perf_counter() - t0

    def time(self, fn, in_process: bool = True):
        """Run fn(); return (its result or None, its exception or None,
        wall seconds, seconds at the reference speed)."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        out = exc = None
        t0 = time.perf_counter()
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            out = fn()
        except Exception as error:  # the outcome is judged by job.check
            exc = error
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0 - self.spent
            signal.signal(signal.SIGALRM, previous)
        after = gauge()
        speeds = [self.before, *self.samples, after]
        self.before = after
        return out, exc, elapsed, elapsed * REFERENCE_S * len(speeds) / sum(speeds)


# ----- the timed loop ---------------------------------------------------------


class LoopResult:
    def __init__(self):
        self.latencies: list[float] = []  # seconds at the reference speed
        self.raw: list[float] = []  # wall seconds
        self.attempted = 0
        self.failures: list[str] = []
        self.wall = 0.0
        self.passes = 0
        self.setup_wall_s = None


def run_pass(wl, tr, result: LoopResult) -> float:
    """One pass over the job list; returns its summed scaled job time."""
    wl.begin_pass()
    total = 0.0
    sampler = SpeedSampler()
    for job in wl.jobs:
        prepare = getattr(job, "prepare", None)
        if prepare is not None:
            prepare(wl)
        tr.counting = tr.enabled
        out, exc, elapsed, at_reference = sampler.time(
            lambda: job.run(tr, wl), in_process=job.kind != "cli")
        tr.counting = False
        result.raw.append(elapsed)
        result.latencies.append(at_reference)
        total += at_reference
        result.attempted += 1
        try:
            job.check(out, exc, wl)
        except Exception as error:  # a failed job is counted, the loop goes on
            result.failures.append(f"{job.kind}: {type(error).__name__}: {error}")
    return total


def timed_loop(wl, tr, seconds: float) -> LoopResult:
    """Whole passes, at least one; another only if it would end in time."""
    result = LoopResult()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_pass(wl, tr, result)
        result.passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    result.wall = time.perf_counter() - start
    return result


# ----- child processes --------------------------------------------------------


def _spawn_in(tmp: Path, argv: list, env: dict):
    import jobs

    work = Path(tempfile.mkdtemp(dir=tmp))
    try:
        code, _, elapsed = jobs.spawn(argv, env, work / "out", work / "err")
        out = (work / "out").read_text()
        err = (work / "err").read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited {code}: {err.strip()}")
    return out, elapsed


def measure_setup(workload: str, seed: int, tmp: Path) -> tuple[float, float]:
    """Median over SETUP_PROBES child processes of the time from spawn
    until the workload's first job is ready: (at the reference speed, wall)."""
    import jobs

    samples = []
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    sampler = SpeedSampler()
    for _ in range(SETUP_PROBES):
        start = _now_ns()
        out, exc, wall, at_reference = sampler.time(
            lambda: _spawn_in(tmp, argv, jobs.child_env(SRC)), in_process=False)
        if exc is not None:
            raise exc
        ready = (int(out[0].split()[-1]) - start) / 1e9
        samples.append((ready * at_reference / wall, ready))
    return statistics.median(s for s, _ in samples), statistics.median(r for _, r in samples)


def setup_probe(workload: str, seed: int, tmp: Path) -> None:
    import jobs
    from spans import Tracer

    jobs.make_workload(workload, seed, tmp, Tracer(), SRC)
    print(_now_ns(), flush=True)


# ----- end-to-end run ---------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path):
    import jobs
    from spans import Tracer

    tr = Tracer()
    wl = jobs.make_workload(workload, seed, tmp, tr, SRC)
    setup_s, setup_wall_s = measure_setup(workload, seed, tmp)
    result = timed_loop(wl, tr, seconds)
    result.setup_wall_s = setup_wall_s
    if workload == "cli_mix":
        rss_kib = wl.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = [t * 1e3 for t in result.latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "jobs_per_s": (result.attempted / sum(result.latencies), "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }
    return result, metrics


# ----- traced run -------------------------------------------------------------


def _counted_methods():
    from heckebasis.coxeter import CoxeterDatum
    from heckebasis.hecke import HeckeElement
    from heckebasis.laurent import CyclotomicInt, LaurentPoly

    targets = [
        (LaurentPoly, "__mul__", "laurent.mul_calls"),
        (LaurentPoly, "__rmul__", "laurent.mul_calls"),
        (LaurentPoly, "__add__", "laurent.add_calls"),
        (LaurentPoly, "__radd__", "laurent.add_calls"),
        (HeckeElement, "__mul__", "hecke.mul_calls"),
    ]
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
        targets.append((CyclotomicInt, name, "laurent.cyclo_ops"))
    for name in ("length", "inverse", "weight", "reduced_word", "left_multiply_generator"):
        targets.append((CoxeterDatum, name, "coxeter.lookup_calls"))
    return targets


def _per_call_us(fn, batches: int = 7, per_batch: int = 300) -> float:
    """Median over batches of the time per call, at the reference speed."""

    def batch():
        for _ in range(per_batch):
            fn()

    sampler = SpeedSampler()
    samples = []
    for _ in range(batches):
        at_reference = sampler.time(batch)[3]
        samples.append(at_reference / per_batch * 1e6)
    return statistics.median(samples)


def laurent_micro(seed: int) -> tuple[float, float]:
    """Microseconds per product of two seeded 8-term polynomials, with
    integer and with rational coefficients."""
    from heckebasis.laurent import LaurentPoly

    rng = random.Random(seed)

    def poly(coeff):
        return LaurentPoly({k: coeff() for k in rng.sample(range(-12, 13), 8)})

    def int_coeff():
        return rng.choice([-1, 1]) * rng.randint(1, 9)

    def frac_coeff():
        return Fraction(int_coeff(), rng.randint(2, 7))

    a, b = poly(int_coeff), poly(int_coeff)
    c, d = poly(frac_coeff), poly(frac_coeff)
    return _per_call_us(lambda: a * b), _per_call_us(lambda: c * d)


def cli_micro(seed: int, tmp: Path) -> dict:
    """Start-up, import, in-process main and schur miss/hit times."""
    import jobs
    from heckebasis import cli
    from spans import Tracer

    env = jobs.child_env(SRC)
    exe = sys.executable
    sampler = SpeedSampler()

    def median_ms(argv, count=INTERP_PROBES, prepare=None):
        """Median child time from spawn to exit, at the reference speed."""
        samples = []
        for _ in range(count):
            run_env = env
            if prepare is not None:
                cache = prepare()
                argv_i = argv + ["--cache-dir", str(cache)]
                run_env = jobs.child_env(SRC, cache)
            else:
                argv_i = argv
            out, exc, wall, at_reference = sampler.time(
                lambda: _spawn_in(tmp, argv_i, run_env), in_process=False)
            if exc is not None:
                raise exc
            samples.append(out[1] * at_reference / wall * 1e3)
        return statistics.median(samples)

    interp = median_ms([exe, "-c", "pass"])
    imported = median_ms([exe, "-c", "import heckebasis.cli"])

    wl = jobs.make_cli_mix(seed, Path(tempfile.mkdtemp(dir=tmp)), Tracer(), SRC)

    def empty_cache():
        return Path(tempfile.mkdtemp(dir=tmp))

    def warm_cache():
        cache = Path(tempfile.mkdtemp(dir=tmp)) / "cache"
        shutil.copytree(wl.warm_cache, cache)
        return cache

    schur = [exe, "-m", "heckebasis.cli", "schur", "--format", "json"]
    miss = median_ms(schur, count=SCHUR_PROBES, prepare=empty_cache)
    hit = median_ms(schur, count=SCHUR_PROBES, prepare=warm_cache)

    main_ms = []
    for job in wl.jobs:
        job.prepare(wl)
        argv = list(job.args) + ["--cache-dir", str(job.cache_dir)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            at_reference = sampler.time(lambda: _main_quietly(cli, argv))[3]
        main_ms.append(at_reference * 1e3)
        shutil.rmtree(job.dir, ignore_errors=True)
    return {
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (imported - interp, "ms"),
        "cli.main_ms": (statistics.median(main_ms), "ms"),
        "cli.schur_miss_ms": (miss, "ms"),
        "cli.schur_hit_ms": (hit, "ms"),
    }


def _main_quietly(cli, argv) -> None:
    try:
        cli.main(argv)
    except SystemExit:  # argparse rejects the arguments
        pass


def traced(workload: str, seed: int, tmp: Path):
    import jobs
    from spans import Tracer, counted

    tr = Tracer()
    tr.enabled = True  # set-up spans count: datums built up front
    wl = jobs.make_workload(workload, seed, tmp, tr, SRC)
    tr.enabled = False
    result = LoopResult()
    t0 = time.perf_counter()
    untraced = run_pass(wl, tr, result)
    with counted(tr, _counted_methods()):
        tr.enabled = True
        traced_jobs = run_pass(wl, tr, result)
        tr.enabled = False
    result.wall = time.perf_counter() - t0
    result.passes = 2

    self_times = tr.self_times()
    counts = tr.counts
    # span times are wall seconds; bring them to the reference speed with
    # the traced pass's own ratio of scaled to wall job time
    speed = traced_jobs / sum(result.raw[len(wl.jobs):])

    def busy(name):
        return float(self_times[name]) * speed

    mul_int, mul_frac = laurent_micro(seed)

    def ratio_us(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    metrics = {
        "laurent.mul_calls": (counts["laurent.mul_calls"], "count"),
        "laurent.add_calls": (counts["laurent.add_calls"], "count"),
        "laurent.mul_int_us": (mul_int, "us"),
        "laurent.mul_frac_us": (mul_frac, "us"),
        "laurent.cyclo_ops": (counts["laurent.cyclo_ops"], "count"),
        "coxeter.build_s": (busy("coxeter.build"), "s"),
        "coxeter.build_elements": (counts["coxeter.build_elements"], "count"),
        "coxeter.build_us_per_element": (
            ratio_us(busy("coxeter.build"), counts["coxeter.build_elements"]), "us"),
        "coxeter.lookup_calls": (counts["coxeter.lookup_calls"], "count"),
        "hecke.mul_s": (busy("hecke.mul"), "s"),
        "hecke.mul_calls": (counts["hecke.mul_calls"], "count"),
        "hecke.terms_out": (
            sum(len(p.support()) for p in wl.products.values()), "count"),
        "hecke.text_s": (busy("hecke.text"), "s"),
        "reps.check_s": (busy("reps.check"), "s"),
        "reps.schur_s": (busy("reps.schur"), "s"),
        "reps.ainv_s": (busy("reps.ainv"), "s"),
        "reps.schur_elements": (counts["reps.schur_elements"], "count"),
        "reps.schur_us_per_element": (
            ratio_us(busy("reps.schur"), counts["reps.schur_elements"]), "us"),
        "basicsets.canonical_s": (busy("basicsets.canonical"), "s"),
        "basicsets.factor_s": (busy("basicsets.factor"), "s"),
        "basicsets.verify_s": (busy("basicsets.verify"), "s"),
        "basicsets.catalog_s": (busy("basicsets.catalog"), "s"),
        "basicsets.entries": (counts["basicsets.entries"], "count"),
        "partitions.enum_s": (busy("partitions.enum"), "s"),
        "partitions.enumerated": (counts["partitions.enumerated"], "count"),
        "partitions.abacus_s": (busy("partitions.abacus"), "s"),
        "modarith.sweep_s": (busy("modarith.sweep"), "s"),
        "modarith.tuples_checked": (counts["modarith.tuples_checked"], "count"),
    }
    metrics.update(cli_micro(seed, tmp))
    metrics["trace.overhead_frac"] = (traced_jobs / untraced - 1, "ratio")
    return result, metrics


# ----- entry point ------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def report(args, result: LoopResult, metrics: dict) -> None:
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "passes": result.passes,
        "loop_wall_s": result.wall,
        "setup_wall_s": result.setup_wall_s,
        "raw_job_p50_ms": statistics.median(result.raw) * 1e3,
        "raw_job_s": sum(result.raw),
        "scaled_job_s": sum(result.latencies),
        "error_rate": len(result.failures) / result.attempted,
    }
    print("# " + json.dumps(meta, sort_keys=True))
    for failure in result.failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<32} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if not (SRC / "heckebasis" / "__init__.py").is_file():
        print(f"error: no heckebasis package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import heckebasis

    if Path(heckebasis.__file__).resolve().parent != SRC / "heckebasis":
        print(f"error: imported heckebasis from {heckebasis.__file__}", file=sys.stderr)
        return 2
    # One core for the benchmark and its children, so that the gauge runs
    # on the core the jobs run on.
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, tmp)
            return 0
        if args.trace:
            result, metrics = traced(args.workload, args.seed, tmp)
        else:
            result, metrics = end_to_end(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    report(args, result, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
