"""Tests of the benchmark itself: inputs, references, failure counting, tracing.

Run from the root of the repository: python3 -m pytest -q bench/tests
"""
import itertools
import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import projdunkl as pd  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    cases = workloads.WORKLOADS[name].cases
    first = list(itertools.islice(cases(7), 40))
    assert first == list(itertools.islice(cases(7), 40))
    assert first != list(itertools.islice(cases(8), 40))


def test_transform_cases_cover_every_function_and_kernel_band():
    cases = list(itertools.islice(workloads.transform_cases(3), 64))
    assert {c.function for c in cases} == set(workloads.TRANSFORM_FUNCTIONS)
    assert min(c.kappa for c in cases) < 0.2 < max(c.kappa for c in cases)
    assert all(not (c.kappa * 1024).is_integer() for c in cases)
    # gaussian support 8 times lam_max reaches far past |z| = 64
    assert max(8.0 * c.lam_max for c in cases if c.function == "gaussian") > 64


def test_poly_cases_parse_and_mix_pooled_and_fresh_kappas():
    cases = list(itertools.islice(workloads.poly_cases(5), 60))
    kappas = [k for c in cases for k in c.kappas]
    pooled = sum(k in workloads.KAPPA_POOL for k in kappas) / len(kappas)
    assert 0.6 < pooled < 0.8
    for c in cases[:6]:
        p = pd.MPoly.from_text(c.poly, nvars=workloads.POLY_DIM)
        assert p.degree() <= workloads.POLY_MAX_DEGREE
        assert not pd.RationalVector.parse(c.xi).is_zero()


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 10.0, 47.25])
def test_references_reduce_to_classical_transforms_at_kappa_zero(lam):
    sinc = 2.0 if lam == 0 else 2.0 * math.sin(lam) / lam
    assert reference.indicator_transform(0.0, lam) == pytest.approx(sinc, abs=1e-15)
    assert reference.gaussian_transform(0.0, lam) == pytest.approx(
        math.sqrt(2 * math.pi) * math.exp(-lam * lam / 2), abs=1e-15)


def test_l1_norms_match_their_definitions():
    assert reference.l1_norm("ind13") == pytest.approx(1.5, rel=1e-15)
    assert reference.l1_norm("bump") == pytest.approx(1.2069003224378763, rel=1e-15)


def test_transform_check_rejects_a_perturbed_value():
    case = workloads.TransformCase("indicator", 0.37, 30.0, 6)
    text = workloads.run_transform(pd, case)
    ok, errs = reference.check_transform(case.function, case.kappa, case.grid, text)
    assert ok and errs["err_scaled"] < 1e-12
    lines = text.splitlines()
    lam, re_, im_, abs_ = lines[3].split(",")
    lines[3] = ",".join([lam, repr(float(re_) + 1e-3), im_, abs_])
    ok, errs = reference.check_transform(case.function, case.kappa, case.grid,
                                         "\n".join(lines))
    assert not ok and errs["err_scaled"] > 1e-4


def test_each_kind_of_transform_error_has_its_own_gate():
    # the lambda = 0 defect of ind13 must not stand in for closed-form errors
    for function, kappa, key in (("indicator", 0.37, "err_scaled"),
                                 ("gaussian", 0.05, "small_kappa_err_scaled"),
                                 ("ind13", 0.37, "lambda0_err_scaled")):
        case = workloads.TransformCase(function, kappa, 30.0, 4)
        ok, errs = reference.check_transform(function, kappa, case.grid,
                                             workloads.run_transform(pd, case))
        assert ok and list(errs) == [key]


def test_poly_check_holds_and_catches_a_wrong_image():
    case = next(workloads.poly_cases(2))
    out = workloads.run_poly(pd, case)
    assert reference.check_poly(pd, case, out)
    chi_text, t_text = out.splitlines()
    assert not reference.check_poly(pd, case, chi_text + "\n" + t_text + " + 1\n")


class _FlakyWorkload:
    """Every fifth request raises, the one after it returns a wrong result."""

    @staticmethod
    def run(_pd, i):
        time.sleep(0.002)
        if i % 5 == 0:
            raise RuntimeError("boom")
        return "wrong" if i % 5 == 1 else "right"


def test_raising_and_wrong_requests_count_as_failures():
    res, _ = run.closed_loop(None, _FlakyWorkload, itertools.count(), 0.05, 20)
    assert res.failed == 0 and not any(math.isinf(t) for t in res.latencies)
    run.score(res, lambda i, out: (out == "right", {}))
    expected = sum(i % 5 in (0, 1) for i in range(res.attempted))
    assert res.attempted >= 20
    assert res.failed == expected
    assert sum(math.isinf(t) for t in res.latencies) == expected
    assert res.ops_per_s == pytest.approx((res.attempted - expected) / res.busy)
    assert run.percentile(res.latencies, 50) < math.inf


class _CountingWorkload:
    served = 0

    @classmethod
    def run(cls, _pd, _i):
        cls.served += 1
        return "right"


def test_peak_rss_is_read_after_a_fixed_request_count(monkeypatch):
    monkeypatch.setattr(run, "_peak_rss_mb", lambda: float(_CountingWorkload.served))
    res, _ = run.closed_loop(None, _CountingWorkload, itertools.count(), 0.01, 7)
    assert res.attempted > 7
    assert res.peak_rss_mb == 7.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 90) == 3.0


def test_tracer_counts_spans_and_errors_and_restores_functions():
    original = pd.transform.bold_M_on_imaginary
    t = tracer.Tracer()
    t.install()
    try:
        assert pd.transform.bold_M_on_imaginary is not original
        t.active = True
        pd.TransformRequest("bump", 0.37, (0.0, 20.0, 3)).run()
        with pytest.raises(ValueError):
            pd.TransformRequest("no-such-function", 0.37, (0.0, 1.0, 2)).run()
        t.active = False
    finally:
        t.uninstall()
    assert pd.transform.bold_M_on_imaginary is original
    m = t.layer_metrics(2, None)
    assert m["kummer.vector.calls"] == 1.5  # three points over two requests
    assert m["transform.points"] == 1.5
    assert m["functions.errors"] == 1 and m["transform.errors"] == 1
    assert m["kummer.errors"] == 0
    assert m["intertwine.block_cache.hit_ratio"] is None
    assert 0 < m["kummer.vector.self_s"] < 1


def test_tracer_keeps_one_stack_per_thread():
    t = tracer.Tracer()
    t.install()
    try:
        t.active = True
        report = pd.run_suites(["geometry", "laplacian", "kummer"],
                               pd.SuiteConfig(seed=3, workers=3))
        t.active = False
    finally:
        t.uninstall()
    assert report.ok
    m = t.layer_metrics(1, None)
    assert m["kummer.scalar.calls"] > 0 and m["suites.errors"] == 0
    assert m["rootgeom.self_s"] > 0


def test_missing_traced_function_gives_missing_metric(monkeypatch):
    for module in (pd, pd.kummer, pd.transform):
        monkeypatch.delattr(module, "bold_M_on_imaginary")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    m = t.layer_metrics(1, (3, 1))
    for name in ("kummer.vector.calls", "kummer.vector.self_s",
                 "kummer.vector.points", "kummer.vector.ns_per_point"):
        assert m[name] is None
    assert m["kummer.scalar.calls"] == 0
    assert m["intertwine.block_cache.hit_ratio"] == 0.75


def test_failing_count_hook_does_not_break_the_traced_call(monkeypatch):
    def broken(*_args):
        raise KeyError("y")

    monkeypatch.setitem(tracer.HOOKS, "kummer.bold_M_on_imaginary", broken)
    t = tracer.Tracer()
    t.install()
    try:
        t.active = True
        values = pd.bold_M_on_imaginary(0.37, [1.0, 2.0])
        t.active = False
    finally:
        t.uninstall()
    assert len(values) == 2
    assert t.merged()[1]["trace.hook_errors"] == 1


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
