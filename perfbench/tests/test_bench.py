"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import refspeed
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PRINTED_METRICS = {
    "measure-wide": ("docs_per_s", "latency_p50_ms"),
    "measure-small": ("docs_per_s", "latency_p50_ms", "latency_p99_ms"),
    "check-suites": ("trials_per_s", "latency_p50_ms"),
}


def _reduced(monkeypatch):
    """One setup probe, one cold run and one traced call per workload."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for name, build in list(run.WORKLOADS.items()):
        monkeypatch.setitem(
            run.WORKLOADS, name,
            lambda seed, workdir, build=build: dataclasses.replace(
                build(seed, workdir), cold_runs=1, trace_ops=1))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reduced_run_prints_every_metric(workload, trace, monkeypatch, capsys):
    _reduced(monkeypatch)
    # measure-small needs 1000 calls for its 99th percentile
    seconds = "3" if workload == "measure-small" and not trace else "0.2"
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", seconds,
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    if not trace:
        for name in PRINTED_METRICS[workload]:
            assert any(line.startswith(f"{name} = ") for line in lines), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("error_rate = 0 ratio") for line in lines)
    assert not any(line.startswith("note: MISSING") for line in lines)


def _perturb(fmt, out):
    lines = out.splitlines()
    if fmt == "json-lines":
        summary = json.loads(lines[-1])
        summary["ku"] += 1e-6
        lines[-1] = json.dumps(summary)
    elif fmt == "table":
        k = next(i for i, line in enumerate(lines) if line.startswith("KU = "))
        lines[k] = f"KU = {float(lines[k][5:]) + 1e-6:.7f}"
    else:
        label, lo, hi, term = lines[1].split(",")
        lines[1] = f"{label},{lo},{float(hi) + 1e-6!r},{term}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json-lines", "table", "csv"])
def test_check_counts_a_perturbed_value_as_failed(fmt, tmp_path):
    pkg = run.load_program()
    wl = run.measure_small(5, tmp_path)
    i = next(i for i, op in enumerate(wl.ops) if op.fmt == fmt)
    rc, out, _ = run.call(pkg.cli, wl.ops[i].argv)
    checker = run.Checker(wl.ops)
    checker.tally(Counter({(i, rc, out): 1}))
    assert (checker.attempted, checker.failed) == (1, 0)
    checker.tally(Counter({(i, rc, _perturb(fmt, out)): 1}))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_check_counts_a_failed_suite(tmp_path):
    pkg = run.load_program()
    wl = run.check_suites(5, tmp_path)
    rc, out, _ = run.call(pkg.cli, wl.ops[1].argv)
    checker = run.Checker(wl.ops)
    checker.tally(Counter({(1, rc, out): 1,
                           (1, rc, out.replace("PASS oracle", "FAIL oracle")): 1}))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "measure-small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_timings_scale_with_the_reference_speed(monkeypatch):
    samples = iter([2 * refspeed.REFERENCE_S, 8 * refspeed.REFERENCE_S])
    monkeypatch.setattr(refspeed, "sample", lambda: next(samples))
    result, measured, normalised = refspeed.timed(lambda: sum(range(1000)))
    assert result == 499500
    assert normalised == pytest.approx(measured / 4)
