"""Benchmark workloads and the correctness gate each run must pass.

The inputs are the bundled manufactured presets, so nothing is random.  The
pinned answers were produced by the program at the commit that introduced
this benchmark; a run fails when any of them drifts by more than a relative
1e-6.  A solver that is different but correct stays within that.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os

RTOL = 1e-6
RESIDUAL_LIMIT = 1e-8
SVG_FILES = ("state.svg", "adjoint.svg", "control.svg")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One ``stcontrol`` command line and the answers it must give.

    A ``solve`` pins ``energy_error`` and the vertex count; a
    ``convergence`` study pins every error and order of report.csv."""

    name: str
    why: str
    preset: str
    args: tuple
    energy_error: float | None = None
    vertices: int | None = None
    errors: tuple = ()
    orders: tuple = ()

    def argv(self, outdir):
        return [*self.args, "--out", outdir]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="solve-moving-240",
            why="full single solve users run: SVG renders, 2Nx2N LU, load "
                "assembly and CSV writer dominate; no point location",
            preset="example1-moving",
            args=("solve", "--preset", "example1-moving", "--layers", "240"),
            energy_error=1.0857510443266836,
            vertices=58257,
        ),
        Workload(
            name="refstudy-moving-240",
            why="reference-error study 15,30,60 vs 240: point location and the "
                "240-layer reference LU dominate; no SVG, CSV or energy_error",
            preset="example1-moving",
            args=("convergence", "--preset", "example1-moving",
                  "--layers", "15,30,60", "--reference-layers", "240", "--serial"),
            errors=(15.549325721840555, 9.1037723308756018, 4.2605589562345143),
            orders=(None, 0.84048690078121291, 1.0749965846024891),
        ),
        Workload(
            name="ladder-static-120",
            why="exact-pair ladder 15..120 on small systems: problem-data "
                "evaluation is large, LU small; catches costs on small meshes",
            preset="example1-static",
            args=("convergence", "--preset", "example1-static",
                  "--layers", "15,30,60,120", "--serial"),
            errors=(15.948146131899383, 9.8314974654011706,
                    4.8523932500381637, 2.3901267961232913),
            orders=(None, 0.69790565013380768, 1.018714699792661,
                    1.0216093196510558),
        ),
    ]
}


def _drift(what, got, want):
    if want is None:
        return [] if got is None else [f"{what}: expected none, got {got!r}"]
    if got is None or not abs(got - want) <= RTOL * abs(want):
        return [f"{what}: {got!r} drifted from pinned {want!r}"]
    return []


def _svg_problem(path):
    if not os.path.isfile(path):
        return f"{os.path.basename(path)} missing"
    with open(path, "rb") as f:
        head = f.read(64)
        f.seek(max(0, os.path.getsize(path) - 64))
        tail = f.read().rstrip()
    if not head.startswith(b"<svg") or not tail.endswith(b"</svg>"):
        return f"{os.path.basename(path)} is not a closed <svg> document"
    return None


def _check_solve(w: Workload, outdir):
    records = {}
    with open(os.path.join(outdir, "metrics.jsonl")) as f:
        for line in f:
            rec = json.loads(line)
            records[rec["record"]] = rec
    problems = []
    residual = records.get("solve", {}).get("residual")
    if not (isinstance(residual, float) and residual <= RESIDUAL_LIMIT):
        problems.append(f"residual {residual!r} is above {RESIDUAL_LIMIT:g}")
    problems += _drift("energy_error", records.get("energy_error", {}).get("value"),
                       w.energy_error)

    rows = 0
    with open(os.path.join(outdir, "solution.csv"), newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for row in reader:
            rows += 1
            if not all(math.isfinite(float(v)) for v in row):
                problems.append(f"solution.csv row {rows} has a non-finite value")
                break
    if rows < w.vertices:
        problems.append(f"solution.csv has {rows} rows, expected {w.vertices}")
    problems += [p for p in (_svg_problem(os.path.join(outdir, n)) for n in SVG_FILES) if p]
    return problems


def _check_study(w: Workload, outdir):
    with open(os.path.join(outdir, "report.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != len(w.errors):
        return [f"report.csv has {len(rows)} levels, expected {len(w.errors)}"]
    problems = []
    for k, (row, error, order) in enumerate(zip(rows, w.errors, w.orders)):
        problems += _drift(f"level {k} error", float(row["error"]), error)
        got_order = float(row["order"]) if row["order"] else None
        problems += _drift(f"level {k} order", got_order, order)
    return problems


def check(w: Workload, outdir) -> list[str]:
    """Problems with the outputs of one run of ``w``; empty when it passes."""
    try:
        return _check_solve(w, outdir) if w.args[0] == "solve" else _check_study(w, outdir)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
