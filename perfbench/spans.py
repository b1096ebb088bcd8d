"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the stcontrol functions that the pipeline looks
up at call time (module attributes and class methods) with wrappers that
record one span per call: name, start, end, parent span and run id, plus a
few sizes read from the arguments or the result.  Nothing inside stcontrol
is edited.  ``layer_metrics`` turns the spans of one ``cli.main`` call into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time


def _points(x):
    return int(getattr(x, "size", 1))


def _factor_sizes(args, kwargs, fact):
    sizes = {"matrix_nnz": int(fact.matrix.nnz)}
    # SuperLU's nnz counts L and U together without copying them out.
    factor_nnz = getattr(getattr(fact, "lu", None), "nnz", None)
    if factor_nnz is not None:
        sizes["factor_nnz"] = int(factor_nnz)
    return sizes


def _file_bytes(index):
    def sizes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}
    return sizes


# (module, attribute path, sizes(args, kwargs, result) -> dict or None).
# The span name is "<module>.<attribute path>".
TRACED = [
    ("mesh", "build_mesh", lambda a, k, m: {"vertices": int(m.num_vertices)}),
    ("mesh", "validate_mesh", None),
    ("fem", "triangle_geometry", None),
    ("fem", "assemble_state_matrix", None),
    ("fem", "assemble_spatial_stiffness", None),
    ("fem", "assemble_mass", None),
    ("fem", "assemble_load", None),
    ("fem", "assemble_time_weighted_load", None),
    ("problem", "PiecewiseField.evaluate", lambda a, k, r: {"points": _points(a[2])}),
    ("solver", "build_block_system", lambda a, k, r: {"dofs": 2 * int(a[0].num_vertices)}),
    ("linalg", "factorize", _factor_sizes),
    ("linalg", "solve", lambda a, k, r: {"residual": float(r.residual)}),
    ("metrics", "PointLocator.__init__", None),
    ("metrics", "PointLocator.locate", lambda a, k, r: {"points": _points(a[1])}),
    ("metrics", "reference_error", None),
    ("metrics", "energy_error", None),
    ("metrics", "star_norm", None),
    ("metrics", "triple_norm", None),
    ("svg", "render_field", _file_bytes(2)),
    ("cli", "_write_solution_csv", _file_bytes(0)),
    ("cli", "_write_jsonl", _file_bytes(0)),
]

DESIRED_STATE = "problem.desired_state"
ASSEMBLE = ["fem.assemble_state_matrix", "fem.assemble_spatial_stiffness",
            "fem.assemble_mass", "fem.assemble_load",
            "fem.assemble_time_weighted_load"]


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans of one run, kept in memory as dicts in start order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self._open: list[dict] = []

    def wrap(self, name, fn, sizes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "run": self.run_id,
                "id": len(self.spans),
                "parent": self._open[-1]["id"] if self._open else None,
                "name": name,
                "rss_start_kb": _maxrss_kb(),
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_end_kb"] = _maxrss_kb()
                self._open.pop()
            if sizes is not None:
                span.update(sizes(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every traced attribute that exists; a renamed one is skipped
        and its metrics are reported as absent."""
        for module, path, sizes in TRACED:
            owner = importlib.import_module(f"stcontrol.{module}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            name = f"{module}.{path}"
            wrapped = self.wrap(name, original, sizes)
            if classes:
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)
            self.installed.add(name)

        # The desired state u_d is a callable built per solve; trace the
        # callable that desired_state_function hands to the assembler.
        problem = importlib.import_module("stcontrol.problem")
        factory = getattr(problem, "desired_state_function", None)
        if factory is not None:
            def traced_factory(*args, **kwargs):
                return self.wrap(DESIRED_STATE, factory(*args, **kwargs),
                                 lambda a, k, r: {"points": _points(a[0])})

            _rebind(factory, traced_factory)
            self.installed.add(DESIRED_STATE)


def _rebind(original, replacement):
    """Point every stcontrol module attribute bound to ``original`` (the
    defining module and any ``from .x import y`` copies) at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "stcontrol" or name.startswith("stcontrol.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# metric -> (unit, how, span names).  how is "total" (summed duration),
# "self" (duration minus direct children), "calls", "rss" (summed rise of
# ru_maxrss), "fill" (factor over matrix nonzeros), or "sum:<key>" /
# "max:<key>" over a size recorded on the span.
LAYER_METRICS = {
    "mesh.build_s": ("s", "total", ["mesh.build_mesh"]),
    "mesh.validate_s": ("s", "total", ["mesh.validate_mesh"]),
    "mesh.vertices": ("count", "sum:vertices", ["mesh.build_mesh"]),
    "fem.assemble_self_s": ("s", "self", ASSEMBLE),
    "fem.geometry_calls": ("count", "calls", ["fem.triangle_geometry"]),
    "fem.geometry_s": ("s", "total", ["fem.triangle_geometry"]),
    "problem.desired_state_s": ("s", "total", [DESIRED_STATE]),
    "problem.desired_state_points": ("count", "sum:points", [DESIRED_STATE]),
    "problem.exact_eval_s": ("s", "total", ["problem.PiecewiseField.evaluate"]),
    "problem.exact_eval_points": ("count", "sum:points", ["problem.PiecewiseField.evaluate"]),
    "solver.build_block_self_s": ("s", "self", ["solver.build_block_system"]),
    "solver.dofs": ("count", "sum:dofs", ["solver.build_block_system"]),
    "linalg.factorize_s": ("s", "total", ["linalg.factorize"]),
    "linalg.solve_s": ("s", "total", ["linalg.solve"]),
    "linalg.factorize_calls": ("count", "calls", ["linalg.factorize"]),
    "linalg.matrix_nnz": ("count", "sum:matrix_nnz", ["linalg.factorize"]),
    "linalg.factor_nnz": ("count", "sum:factor_nnz", ["linalg.factorize"]),
    "linalg.fill_ratio": ("ratio", "fill", ["linalg.factorize"]),
    "linalg.residual_max": ("ratio", "max:residual", ["linalg.solve"]),
    "linalg.factorize_rss_delta_mb": ("MB", "rss", ["linalg.factorize"]),
    "metrics.locator_build_s": ("s", "total", ["metrics.PointLocator.__init__"]),
    "metrics.locate_s": ("s", "total", ["metrics.PointLocator.locate"]),
    "metrics.locate_points": ("count", "sum:points", ["metrics.PointLocator.locate"]),
    "metrics.reference_error_self_s": ("s", "self", ["metrics.reference_error"]),
    "metrics.energy_error_self_s": ("s", "self", ["metrics.energy_error"]),
    "metrics.star_norm_s": ("s", "total", ["metrics.star_norm"]),
    "metrics.triple_norm_s": ("s", "total", ["metrics.triple_norm"]),
    "svg.render_s": ("s", "total", ["svg.render_field"]),
    "svg.bytes": ("bytes", "sum:bytes", ["svg.render_field"]),
    "cli.csv_s": ("s", "total", ["cli._write_solution_csv"]),
    "cli.csv_bytes": ("bytes", "sum:bytes", ["cli._write_solution_csv"]),
    "cli.jsonl_s": ("s", "total", ["cli._write_jsonl"]),
}


def layer_metrics(spans, installed) -> dict:
    """Per-layer metrics of one traced run; a metric whose spans were not
    installed is left out."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    out = {}
    for metric, (unit, how, names) in LAYER_METRICS.items():
        if not installed.intersection(names):
            continue
        mine = [s for s in spans if s["name"] in names]
        if how == "total":
            value = sum(s["end"] - s["start"] for s in mine)
        elif how == "self":
            value = sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in mine)
        elif how == "calls":
            value = len(mine)
        elif how == "rss":
            value = sum(s["rss_end_kb"] - s["rss_start_kb"] for s in mine) / 1024.0
        elif how == "fill":
            matrix = sum(s["matrix_nnz"] for s in mine)
            factor = sum(s.get("factor_nnz", 0) for s in mine)
            value = factor / matrix if matrix else 0.0
        else:
            op, key = how.split(":")
            values = [s[key] for s in mine if key in s]
            value = (max(values, default=0.0) if op == "max" else sum(values))
        out[metric] = {"value": value, "unit": unit}
    return out
