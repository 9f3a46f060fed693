"""Benchmark of projdunkl: three seeded, closed-loop workloads in one process.

Run from the root of a checkout:

    python3 bench/run.py --workload transform_grid --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it measures the per-layer metrics instead (see tracer.py).
Every request's output is checked outside the timed region. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, import_projdunkl

# One client runs one request at a time. A multi-threaded BLAS on the few
# cores of a small machine made the same seed's latency vary by ~16% from run
# to run (against ~5% single-threaded), and its sums depend on the thread
# count, so the output digests would too. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (imports numpy)

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100
# ... but a run never stretches past this multiple of --seconds to get them
MAX_STRETCH = 3.0
# which requests of a --trace 1 run are traced does not depend on the seed
TRACE_PICK_SEED = 20130422
DIGEST_REQUESTS = 32
SUITE_REPEATS = 3
# exact and pass/fail outputs carry no rounding error; they report the
# resolution of a double instead of 0
ERROR_FLOOR = 2.0 ** -52

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_err_scaled", "ratio"),
    ("small_kappa_err_scaled", "ratio"),
]
ERRORS = ("max_err_scaled", "small_kappa_err_scaled")


@dataclass
class LoopResult:
    requests: list = field(default_factory=list)  # (request, output or None)
    latencies: list = field(default_factory=list)  # seconds; inf once found failed
    busy: float = 0.0
    failed: int = 0
    errors: dict = field(default_factory=dict)  # error name -> worst scaled error
    cache_hits: int = 0
    cache_misses: int = 0
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy if self.busy else 0.0

    def digest_outputs(self) -> list:
        return [out if out is not None else "<raised>"
                for _case, out in self.requests[:DIGEST_REQUESTS]]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _cache_counts(pd):
    info = getattr(getattr(pd.intertwine, "_chi_block", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(pd, workload, cases, seconds: float, min_requests: int,
                tracer=None) -> tuple[LoopResult, LoopResult]:
    """One client: send the next request only when the previous one is back.

    Returns the untraced and the traced requests. With a tracer, a fixed
    pseudo-random half of the requests is traced, so both halves meet the
    same cache states; tracing the second half of a run would give it the
    caches the first half filled.

    Only the request itself is timed. Outputs are kept and checked later by
    `score`, after the loop: a check may call the package (the exact_poly
    check computes chi images), and doing so between requests would fill the
    caches the next requests read. Peak memory is read right after request
    `min_requests`, so it depends on the work done, not on how many requests
    fit in the time.
    """
    plain, traced = LoopResult(), LoopResult()
    pick = random.Random(TRACE_PICK_SEED)
    busy, served, peak_rss_mb = 0.0, 0, None
    while busy < seconds or (served < min_requests and busy < MAX_STRETCH * seconds):
        res = traced if tracer is not None and pick.random() < 0.5 else plain
        case = next(cases)
        if res is traced:
            before = _cache_counts(pd)
            tracer.active = True
        t0 = perf_counter()
        try:
            out = workload.run(pd, case)
        except Exception as exc:  # a raising request is a failure, not a lost sample
            out = None
            print(f"request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = perf_counter() - t0
        if res is traced:
            tracer.active = False
            after = _cache_counts(pd)
            if before is not None and after is not None:
                res.cache_hits += after[0] - before[0]
                res.cache_misses += after[1] - before[1]
        res.busy += dt
        res.requests.append((case, out))
        res.latencies.append(dt)
        busy += dt
        served += 1
        if served == min_requests:
            peak_rss_mb = _peak_rss_mb()
    # cut by MAX_STRETCH before min_requests: read it now
    plain.peak_rss_mb = peak_rss_mb if peak_rss_mb is not None else _peak_rss_mb()
    return plain, traced


def score(res: LoopResult, check) -> None:
    """Check every output of a loop; a raising or wrong request is a failure.

    A failure counts as infinitely slow in the latency percentiles.
    """
    for i, (case, out) in enumerate(res.requests):
        ok, errs = False, {}
        if out is not None:
            try:
                ok, errs = check(case, out)
            except Exception as exc:  # malformed output is a wrong result
                print(f"check raised: {type(exc).__name__}: {exc}", file=sys.stderr)
        for key, err in errs.items():
            res.errors[key] = max(res.errors.get(key, 0.0), err)
        if not ok:
            res.failed += 1
            res.latencies[i] = math.inf
            print(f"wrong or failed request: {case!r}", file=sys.stderr)


def make_check(pd, name: str):
    if name == "transform_grid":
        return lambda case, out: reference.check_transform(case.function, case.kappa,
                                                           case.grid, out)
    if name == "exact_poly":
        return lambda case, out: (reference.check_poly(pd, case, out), {})
    return lambda seed, out: (reference.check_verify(seed, out, pd.SUITE_NAMES), {})


def measure_setup(workload: str) -> list[float]:
    """Cold set-up times, each in a fresh interpreter, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=150, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def once_per_run_checks(pd, name: str, seed: int) -> tuple[bool, dict]:
    """Checks made once per run: a faulted suite goes red; for the transform,
    the frozen bump values and the fixed accuracy probe."""
    suites = list(pd.SUITE_NAMES)
    ok = reference.check_fault_goes_red(pd, suites[seed % len(suites)], seed)
    errs = {}
    if name == "transform_grid":
        ok = reference.check_bump_goldens(pd) and ok
        probe_ok, errs = reference.probe_transform_accuracy(pd)
        ok = ok and probe_ok
    return ok, errs


def suite_walls(pd, seed: int) -> tuple[dict, int]:
    """Median wall time of each suite alone, and the checks that failed."""
    walls, failed = {}, 0
    for name in pd.SUITE_NAMES:
        times = []
        for _ in range(SUITE_REPEATS):
            t0 = perf_counter()
            report = pd.run_suites([name], pd.SuiteConfig(seed=seed))
            times.append(perf_counter() - t0)
            failed += sum(not r.ok for r in report.records)
        walls[name] = statistics.median(times)
    return walls, failed


def environment(pd) -> str:
    import mpmath
    import numpy
    import scipy

    blas = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS") if k in os.environ}
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} mpmath={mpmath.__version__} "
            f"nproc={os.cpu_count()} blas_threads={blas or 'default'} "
            f"projdunkl={pd.__version__}")


def _finite_or_none(value):
    # p90 is inf once more than a tenth of the requests failed; JSON has no inf
    return value if value is None or math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    workload = WORKLOADS[args.workload]

    pd = import_projdunkl(root)
    workload.warm_up(pd)
    setup = measure_setup(args.workload) if args.trace == 0 else []
    check = make_check(pd, args.workload)
    cases = workload.cases(args.seed)
    print(f"env {environment(pd)}")

    if args.trace == 0:
        main_loop, _ = closed_loop(pd, workload, cases, args.seconds, MIN_REQUESTS)
        loops = [main_loop]
    else:
        from tracer import PER_LAYER, SUITES, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            untraced, traced = closed_loop(pd, workload, cases, args.seconds, 0, tracer)
        finally:
            tracer.uninstall()
        loops = [untraced, traced]
        main_loop = untraced
    for loop in loops:
        score(loop, check)

    run_ok, probe_errs = once_per_run_checks(pd, args.workload, args.seed)
    attempted = sum(r.attempted for r in loops)
    failed = sum(r.failed for r in loops)
    p90 = percentile(main_loop.latencies, 90)
    beyond = sum(t > p90 for t in main_loop.latencies)
    outputs = [o for r in loops for o in r.digest_outputs()][:DIGEST_REQUESTS]
    digest = hashlib.sha256(b"\0".join(o.encode() for o in outputs)).hexdigest()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} fail_frac={failed / attempted!r} "
          f"samples_beyond_p90={beyond} once_per_run_checks={'ok' if run_ok else 'FAILED'}")
    print(f"digest workload={args.workload} seed={args.seed} "
          f"requests={len(outputs)} sha256={digest}")
    for key, err in sorted(main_loop.errors.items()):
        print(f"seeded {key} = {err!r} (fails a request above {reference.GATES[key]})")

    if args.trace == 0:
        lat = main_loop.latencies
        values = {
            "ops_per_s": main_loop.ops_per_s,
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p90_ms": percentile(lat, 90) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": main_loop.peak_rss_mb,
        }
        if main_loop.attempted < MIN_REQUESTS:
            print(f"warning: only {main_loop.attempted} requests; peak_rss_mb and p90 "
                  f"are not comparable with other runs", file=sys.stderr)
        for key in ERRORS:
            values[key] = max(ERROR_FLOOR, probe_errs.get(key, 0.0))
        units = dict(END_TO_END)
        print(f"setup_s samples={setup!r}")
    else:
        hits_misses = (None if _cache_counts(pd) is None
                       else (traced.cache_hits, traced.cache_misses))
        values = tracer.layer_metrics(traced.attempted, hits_misses)
        hook_errors = tracer.merged()[1]["trace.hook_errors"]
        if hook_errors:
            print(f"warning: {hook_errors} traced calls could not be counted", file=sys.stderr)
        walls, failed_checks = suite_walls(pd, args.seed)
        for name in SUITES:
            values[f"suites.{name}.wall_s"] = walls.get(name)
        values["suites.failed_checks"] = failed_checks
        values["trace.request_s"] = traced.busy / max(traced.attempted, 1)
        values["trace.overhead_frac"] = (untraced.ops_per_s / traced.ops_per_s - 1.0
                                         if traced.ops_per_s else None)
        units = dict(PER_LAYER)

    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    result = {
        "correct": bool(run_ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite_or_none(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
