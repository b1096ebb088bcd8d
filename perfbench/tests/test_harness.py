"""Harness tests: each workload once at a tiny size through the same code
the benchmark runs, plus the correctness gate on perturbed outputs.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The full workloads at a few layers, with answers pinned the same way.
TINY = {
    "solve-moving-240": dataclasses.replace(
        WORKLOADS["solve-moving-240"],
        args=("solve", "--preset", "example1-moving", "--layers", "8"),
        energy_error=18.40388262617439, vertices=88),
    "refstudy-moving-240": dataclasses.replace(
        WORKLOADS["refstudy-moving-240"],
        args=("convergence", "--preset", "example1-moving", "--layers", "4,8",
              "--reference-layers", "16", "--serial"),
        errors=(17.727609150858743, 15.226078557591983),
        orders=(None, 0.21945355226747174)),
    "ladder-static-120": dataclasses.replace(
        WORKLOADS["ladder-static-120"],
        args=("convergence", "--preset", "example1-static", "--layers", "4,8", "--serial"),
        errors=(19.69700036462412, 19.155306730040476),
        orders=(None, 0.04696908486425725)),
}


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_prints_every_metric(name, trace, capsys):
    report = run.run_workload(TINY[name], seconds=0, trace=trace, seed=7, min_setup=2)
    assert report["attempted"] == (2 if trace else 1)
    assert report["failed"] == 0, report["samples"]
    assert report["environment"]["nproc"] >= 1
    assert report["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"

    run.print_report(report)
    print(run.result_line([report], trace))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines[:-1]), m["name"]
    for m in SPEC["end_to_end"]:
        assert report["end_to_end"][m["name"]]["value"] > 0


def test_traced_layers_follow_the_workload():
    solve = run.run_workload(TINY["solve-moving-240"], 0, 1, seed=1, min_setup=1)
    study = run.run_workload(TINY["refstudy-moving-240"], 0, 1, seed=1, min_setup=1)
    assert solve["per_layer"]["metrics.locate_s"]["value"] == 0
    assert solve["per_layer"]["svg.render_s"]["value"] > 0
    assert solve["per_layer"]["fem.geometry_calls"]["value"] == 13
    assert solve["per_layer"]["mesh.vertices"]["value"] == 88
    assert study["per_layer"]["metrics.locate_s"]["value"] > 0
    assert study["per_layer"]["problem.exact_eval_s"]["value"] == 0
    assert study["per_layer"]["svg.render_s"]["value"] == 0
    ids = {s["id"] for s in solve["spans"]}
    assert all(s["parent"] is None or s["parent"] in ids for s in solve["spans"])
    assert all(s["end"] >= s["start"] for s in solve["spans"])


@pytest.mark.parametrize("name, change", [
    ("solve-moving-240", {"energy_error": 18.40388262617439 * (1 + 1e-5)}),
    ("refstudy-moving-240", {"errors": (17.727609150858743, 15.226078557591983 * (1 - 1e-5))}),
    ("ladder-static-120", {"orders": (None, 0.04696908486425725 * (1 + 1e-5))}),
])
def test_gate_rejects_perturbed_pinned_value(name, change):
    perturbed = dataclasses.replace(TINY[name], **change)
    report = run.run_workload(perturbed, seconds=0, trace=0, seed=3, min_setup=1)
    assert report["attempted"] == 1
    assert report["failed"] == 1
    [sample] = [s for s in report["samples"] if s["kind"] == "plain"]
    assert any("drifted from pinned" in p for p in sample["problems"])


@pytest.fixture(scope="module")
def solve_out(tmp_path_factory):
    """Outputs of the tiny solve, written once by the program itself."""
    out = tmp_path_factory.mktemp("solve")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from stcontrol import cli

    assert cli.main([*TINY["solve-moving-240"].argv(str(out))]) == 0
    return out


def _copy(src, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst


def test_gate_accepts_program_output(solve_out):
    assert check(TINY["solve-moving-240"], str(solve_out)) == []


def test_gate_rejects_large_residual(solve_out, tmp_path):
    out = _copy(solve_out, tmp_path)
    path = out / "metrics.jsonl"
    lines = path.read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    for rec in recs:
        if rec["record"] == "solve":
            rec["residual"] = 2e-8
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert any("residual" in p for p in check(TINY["solve-moving-240"], str(out)))


def test_gate_rejects_short_or_non_finite_solution(solve_out, tmp_path):
    out = _copy(solve_out, tmp_path)
    path = out / "solution.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in check(TINY["solve-moving-240"], str(out)))
    lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    assert any("non-finite" in p for p in check(TINY["solve-moving-240"], str(out)))


def test_gate_rejects_missing_or_unclosed_svg(solve_out, tmp_path):
    out = _copy(solve_out, tmp_path)
    os.remove(out / "adjoint.svg")
    text = (out / "state.svg").read_text()
    (out / "state.svg").write_text(text[: len(text) // 2])
    problems = check(TINY["solve-moving-240"], str(out))
    assert any("adjoint.svg missing" in p for p in problems)
    assert any("state.svg is not a closed" in p for p in problems)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-static-120",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
