"""Tests of the benchmark harness itself.

Run from the root of a checkout::

    python -m pytest perfbench -q

They trace small CLI commands in child processes, exactly as run.py does,
and check the counts the tracer reports as counts.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SLIT_LADDER = ["brennan", "--domain", "slitplane", "--s", "4.1"]


@pytest.fixture()
def work_dir():
    path = run.STATE / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def trace(work_dir, mode: str, *commands: list[str]) -> list:
    report = work_dir / f"{mode}.json"
    argv = [sys.executable, str(run.HERE / "tracer.py"), mode, str(report)]
    for i, cmd in enumerate(commands):
        argv += ["--", *cmd, "--out", str(work_dir / f"out{i}")]
    subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), check=True, timeout=120)
    return json.loads(report.read_text())["spans"]


def metrics(spans: list, peak_spans: list | None = None) -> dict:
    return tracer.layer_metrics(spans, peak_spans or [], 1.0, 1.0)


def test_disc_nodes_counts_a_16x16_spec(work_dir):
    m = metrics(trace(work_dir, "spans", SLIT_LADDER + ["--levels", "1"]))
    assert m["quadrature.disc_nodes.calls"] == 1
    assert m["quadrature.disc_nodes.nodes"] == 256
    assert m["quadrature.integrate_disc.levels"] == 1
    assert m["quadrature.integrate_disc.nodes"] == 256


@pytest.mark.parametrize("levels", [2, 4])
def test_ladder_counts_every_level(work_dir, levels):
    m = metrics(trace(work_dir, "spans", SLIT_LADDER + ["--levels", str(levels)]))
    nodes = sum(256 * 4**j for j in range(levels))
    assert m["quadrature.integrate_disc.calls"] == 1
    assert m["quadrature.integrate_disc.levels"] == levels
    assert m["quadrature.integrate_disc.nodes"] == nodes
    assert m["quadrature.disc_nodes.nodes"] == nodes
    assert m["maps.derivative.nodes"] == nodes
    assert m["util.pairwise_sum.elements"] == nodes
    assert m["quadrature.final_level_share"] == 256 * 4 ** (levels - 1) / nodes


def test_disc_eigenvalue_takes_nine_iterations_at_1024(work_dir):
    m = metrics(trace(work_dir, "spans",
                      ["constant", "--r", "2", "--nr", "1024", "--ntheta", "1024"]))
    assert m["exponents.disc_eigenvalue.calls"] == 1
    assert m["exponents.disc_eigenvalue.iterations"] == 9
    assert m["poisson.solve_disc_values.calls"] == 9
    assert m["poisson.solve_disc_values.nodes"] == 9 * 1024**2
    assert m["poisson.fft.calls"] == 18


def test_counts_repeat_exactly_across_runs(work_dir):
    commands = (SLIT_LADDER + ["--levels", "3"],
                ["solve", "--domain", "strip", "--f", "const:-4", "--nr", "64",
                 "--ntheta", "64"])
    runs = [trace(work_dir, "spans", *commands) for _ in range(2)]
    first, second = (metrics(spans) for spans in runs)
    peaks = trace(work_dir, "peaks", *commands)
    counted = [s["name"] for s in tracer.metric_specs() if s["unit"] in ("count", "B")]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert tracer.span_stats(peaks).keys() == tracer.span_stats(runs[0]).keys()
    assert first["poisson.DiscSolution.to_csv.rows"] == 64 * 64
    assert first["cli.output_bytes"] == sum(
        (work_dir / f"out{i}").stat().st_size for i in range(2))
    with_peaks = metrics(runs[0], peaks)
    assert with_peaks["quadrature.integrate_disc.peak_alloc_mb"] > 0.0
    assert with_peaks["poisson.DiscSolution.to_csv.peak_alloc_mb"] > 0.0


def test_self_time_excludes_what_child_spans_cover():
    spans = [[0, None, "cli.main", 0.0, 10.0, 10.0, {"output_bytes": 5}],
             [1, 0, "util.pairwise_sum", 2.0, 5.0, 3.5, {"elements": 8}],
             [2, 1, "util.pairwise_sum", 3.0, 4.0, 1.0, {"elements": 2}]]
    m = tracer.layer_metrics(spans, [], 20.0, 15.0)
    assert m["cli.main.self_s"] == 6.5
    assert (m["util.pairwise_sum.calls"], m["util.pairwise_sum.elements"]) == (2, 10)
    assert m["util.pairwise_sum.self_s"] == 3.0
    assert tracer.span_stats(spans)["util.pairwise_sum"]["total_s"] == 3.0
    assert (m["trace.coverage"], m["trace.overhead_s"], m["cli.output_bytes"]) == (0.5, 5.0, 5)


def test_wrappers_leave_the_weight_free_assembly_spy_at_zero(work_dir):
    trace(work_dir, "spans", ["verify"])
    report = json.loads((work_dir / "out0").read_text())
    check = next(c for c in report["checks"] if c["name"] == "poisson.weight_free_assembly")
    assert check["passed"] and check["detail"]["weight_queries"] == 0
    assert workloads._check_verify((work_dir / "out0").read_bytes()) is None


def test_oracles_reject_wrong_results():
    diverged = {"verdict": "Divergent", "levels_used": 8}
    assert workloads._check_divergent(json.dumps(diverged).encode()) is None
    early = dict(diverged, levels_used=7)
    assert workloads._check_divergent(json.dumps(early).encode())
    far = {"verdict": "Converged", "value": 1.6, "error_estimate": 1e-6}
    assert workloads._check_within_estimate(1.5)(json.dumps(far).encode())
    u = 1.0 - math.tan(0.5) ** 2
    table = f"# rhs=const:-4\nx,y,u\n0,0,1\n0.5,0,{u!r}\n".encode()
    check = workloads._check_table(2, workloads._strip_exact, 1e-5)
    assert check(table) is None
    assert check(table.replace(b"0,0,1", b"0,0,0.9"))
    assert workloads._check_table(3, workloads._strip_exact, 1e-5)(table)


def test_judge_fails_outputs_that_change_between_repeats(work_dir):
    cmd = next(c for c in workloads.commands("ladder", 1) if c.key == "exterior.json")
    right = json.dumps({"verdict": "Converged", "value": math.pi / 2, "error_estimate": 0.0})
    out = work_dir / cmd.key
    judge = run.Judge(work_dir / "state.json", "ladder", 1)
    for data, code in ((right, 0), (right, 0), (right + " ", 0), (right, 1)):
        out.write_text(data)
        judge.judge(cmd, code, out, out)
    assert judge.attempted == 4 and len(judge.failures) == 2
    judge.save()
    later = run.Judge(work_dir / "state.json", "ladder", 1)
    out.write_text(right + " ")
    later.judge(cmd, 0, out, out)
    assert len(later.failures) == 1
    out.write_text(json.dumps({"verdict": "Divergent", "value": 0.0, "error_estimate": 0.0}))
    assert run.Judge(work_dir / "other.json", "ladder", 1)._oracle(cmd, out)


def test_spread_reports_the_tail_with_ten_samples_beyond():
    s = run.spread([float(x) for x in range(1, 21)])
    assert (s["n"], s["median"], s["tail_pct"], s["tail"]) == (20, 10.5, 50, 10.0)
    assert run.spread([1.0] * 10)["tail"] is None


def test_benchmark_json_names_the_harness_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["per_layer"] == tracer.metric_specs()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
