"""Verification suites and the command-line front end."""
import json

import pytest

from projdunkl.cli import main
from projdunkl.suites import (
    SUITE_NAMES,
    SuiteConfig,
    run_suites,
)


def test_all_suites_pass_clean():
    report = run_suites()
    assert report.ok
    counts = report.suite_counts()
    assert set(counts) == set(SUITE_NAMES)
    for suite, (passed, failed) in counts.items():
        assert failed == 0, f"{suite} failed clean run"
        assert passed >= 2


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_designated_fault_flips_its_suite(name):
    cfg = SuiteConfig(faults=frozenset([name]))
    report = run_suites([name], config=cfg)
    assert not report.ok
    # a failing record must carry a concrete witness
    bad = [r for r in report.records if not r.ok]
    assert bad and all(r.witness for r in bad)
    assert all(r.suite == name for r in report.records)


def test_fault_does_not_leak_into_other_suites():
    cfg = SuiteConfig(faults=frozenset(["kummer"]))
    report = run_suites(["geometry", "transform"], config=cfg)
    assert report.ok


def test_report_is_deterministic():
    a = run_suites(config=SuiteConfig(seed=777)).to_jsonl()
    b = run_suites(config=SuiteConfig(seed=777)).to_jsonl()
    assert a == b
    c = run_suites(config=SuiteConfig(seed=778)).to_jsonl()
    # a different seed still passes but the report need not be byte-identical
    assert json.loads(c.strip().split("\n")[-1])["summary"]["ok"]


def test_jsonl_structure():
    report = run_suites(["geometry"], config=SuiteConfig())
    lines = report.to_jsonl().strip().split("\n")
    for line in lines[:-1]:
        row = json.loads(line)
        assert set(row) == {"suite", "check", "ok", "witness"}
        assert row["ok"] is True
    summary = json.loads(lines[-1])["summary"]
    assert summary["seed"] == 12345
    assert summary["ok"] is True
    assert summary["suites"]["geometry"]["failed"] == 0


def test_console_lines_format():
    report = run_suites(["geometry", "kummer"], config=SuiteConfig())
    lines = report.console_lines()
    assert lines[-1] == "overall: PASS"
    assert any(line.startswith("geometry: PASS (") for line in lines)
    bad = run_suites(["geometry"], config=SuiteConfig(faults=frozenset(["geometry"])))
    lines = bad.console_lines()
    assert lines[-1] == "overall: FAIL"
    assert lines[0].startswith("geometry: FAIL (")
    assert "first:" in lines[0]


def test_suite_config_helpers():
    cfg = SuiteConfig(faults=frozenset(["kummer"]))
    assert cfg.fault("kummer") and not cfg.fault("geometry")
    assert cfg.seed == 12345


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["nonesuch"])


def test_single_worker_matches_parallel():
    a = run_suites(["geometry", "inverse"], config=SuiteConfig(workers=1)).to_jsonl()
    b = run_suites(["geometry", "inverse"], config=SuiteConfig(workers=4)).to_jsonl()
    assert a == b


# ---- CLI ----

def test_cli_eval_operator(capsys):
    assert main(["eval", "T", "--poly", "x1^2", "--kappa", "1/2"]) == 0
    assert capsys.readouterr().out == "5/2*x1\n"
    assert main(["eval", "T", "--poly", "x1^2*x2", "--kappa", "1/2,3/2",
                 "--xi", "(0, 1)"]) == 0
    out = capsys.readouterr().out
    assert out.strip()  # exact polynomial on stdout


def test_cli_eval_forward_map(capsys):
    assert main(["eval", "chi", "--poly", "x1^2", "--kappa", "1"]) == 0
    assert capsys.readouterr().out == "1/3*x1^2 (scale: 1/Γ(2))\n"


def test_cli_eval_kernel(capsys):
    assert main(["eval", "M", "--kappa", "0", "--z", "1"]) == 0
    assert capsys.readouterr().out == "2.718281828459045\n"
    assert main(["eval", "M", "--kappa", "1/2", "--z", "1j", "--bold"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(0.8460567867241529")
    # the continued-fraction regime must print a plain complex, not a numpy
    # scalar repr
    for z in ("30j", "100j"):
        assert main(["eval", "M", "--kappa", "1/2", "--z", z, "--bold"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(") and out.rstrip().endswith("j)")
    # past Re z = 1419.6, where e^(z/2) alone overflows, a finite kernel prints
    assert main(["eval", "M", "--kappa", "170", "--z", "1500", "--bold"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(3.207811318384742e+111, rel=1e-13)


def test_cli_eval_fractional_integral(capsys):
    assert main(["eval", "EK", "--poly", "x1", "--gamma", "0", "--delta", "1"]) == 0
    assert capsys.readouterr().out == "[1/2]*x1\n"
    assert main(["eval", "EK", "--poly", "x1", "--gamma", "0", "--delta", "1",
                 "--inverse"]) == 0
    assert capsys.readouterr().out == "[2]*x1\n"


def test_cli_transform_stdout_and_file(tmp_path, capsys):
    assert main(["transform", "--function", "bump", "--kappa", "1/2",
                 "--grid", "0:2:3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,re,im,abs"
    assert len(lines) == 4
    dest = tmp_path / "table.csv"
    assert main(["transform", "--function", "bump", "--kappa", "1/2",
                 "--grid", "0:2:3", "--out", str(dest)]) == 0
    assert dest.read_text().strip().split("\n") == lines


def test_cli_verify_pass_and_report(tmp_path, capsys):
    dest = tmp_path / "report.jsonl"
    assert main(["verify", "--suite", "geometry", "--out", str(dest)]) == 0
    captured = capsys.readouterr()
    assert "geometry: PASS" in captured.out
    assert "overall: PASS" in captured.out
    rows = dest.read_text().strip().split("\n")
    assert json.loads(rows[-1])["summary"]["ok"] is True


def test_cli_verify_injected_fault_fails(capsys):
    assert main(["verify", "--suite", "kummer", "--inject-fault", "kummer"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_cli_bad_inputs_return_error(capsys):
    assert main(["transform", "--function", "nosuch", "--kappa", "0",
                 "--grid", "0:1:2"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown catalog function")
    assert main(["transform", "--function", "bump", "--kappa", "0",
                 "--grid", "0:1"]) == 1
    assert "start:stop:count" in capsys.readouterr().err
    assert main(["eval", "T", "--poly", "x1^^2", "--kappa", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # next to the negative real axis the kernel refuses instead of guessing
    assert main(["eval", "M", "--kappa", "1/2", "--z=-10"]) == 1
    assert "outside the kernel domain" in capsys.readouterr().err
    # M_170(1500) = Gamma(171) bold M_170(1500) ~ e^963 overflows a double
    assert main(["eval", "M", "--kappa", "170", "--z", "1500"]) == 1
    assert "overflows a double" in capsys.readouterr().err
