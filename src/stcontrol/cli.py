"""Command-line harness.

Subcommands: mesh (build + validate + write), solve (one coupled solve with
CSV/SVG/JSON-lines outputs) and convergence (refinement study against the
exact pair or a fine reference solution).  Exit codes: 0 ok,
1 usage/config, 2 geometry or meshing, 3 solver, 4 I/O.

``solve`` writes solution.csv and the three SVGs in two forked children
(``_fork.run``) while it computes the norms and the energy error, and
reaps both before it prints or writes metrics.jsonl, so stdout, the files
and the exit codes are those of the serial order.  The writers format and
write files only: they call no BLAS routine and take no lock another
thread may hold.  ``convergence`` runs its last levels, one per spare CPU,
in forked children too, unless ``--serial``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from . import _fork, fem, metrics, solver, svg
from . import mesh as meshmod
from .errors import (
    ConfigError,
    GeometryError,
    MeshingError,
    PointLocationError,
    SingularMatrixError,
    SolverError,
)


class UsageError(ValueError):
    """A bad command line; main reports it as any other ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag(read):
    """An argparse type from a config reader; its ValueError is a usage error."""
    def convert(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _add_problem_flags(p):
    p.add_argument("--preset", choices=sorted(cfgmod.PRESETS),
                   help="bundled problem instance")
    p.add_argument("--config", help="config file (key = value with [section]s)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stcontrol",
                     description="space-time interface-fitted optimal control solver")
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="build, validate and write a mesh")
    _add_problem_flags(pm)
    pm.add_argument("--layers", type=_flag(cfgmod.one_layer_count), help="number of time strips")
    pm.add_argument("--out", help="output mesh file (default mesh.stmesh)")
    pm.set_defaults(func=cmd_mesh)

    ps = sub.add_parser("solve", help="solve the coupled optimality system")
    _add_problem_flags(ps)
    ps.add_argument("--layers", type=_flag(cfgmod.one_layer_count))
    ps.add_argument("--adjoint-space", choices=["U", "W"])
    ps.add_argument("--quad-subdiv", type=_flag(cfgmod.quad_subdiv_level))
    ps.add_argument("--out", help="output directory (default out)")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("convergence", help="run a refinement study")
    _add_problem_flags(pc)
    pc.add_argument("--layers", type=_flag(cfgmod.layer_counts),
                    help="comma-separated layer counts, e.g. 15,30,60")
    pc.add_argument("--adjoint-space", choices=["U", "W"])
    pc.add_argument("--quad-subdiv", type=_flag(cfgmod.quad_subdiv_level))
    pc.add_argument("--reference-layers", type=_flag(cfgmod.reference_layer_count),
                    help="measure against a reference solve at this resolution")
    pc.add_argument("--plot", action="store_true", help="also write a log-log SVG")
    pc.add_argument("--out", help="output directory (default out)")
    pc.add_argument("--serial", action="store_true",
                    help="run levels sequentially in-process")
    pc.set_defaults(func=cmd_convergence)
    return parser


def _resolve(args, layers) -> cfgmod.RunConfig:
    """The run's settings: the config file, read once, under the flags,
    which argparse has checked.  ``layers`` are the command's default."""
    parsed = cfgmod.load_config(args.config) if args.config else None
    rc = cfgmod.run_config(parsed, args.preset, layers)
    for name in ("layers", "adjoint_space", "quad_subdiv", "reference_layers"):
        if getattr(args, name, None) is not None:
            setattr(rc, name, getattr(args, name))
    return rc


def _checked_mesh(spec, layers: int, rho_max: float):
    m = meshmod.build_mesh(spec, layers)
    report = meshmod.validate_mesh(m, spec, rho_max)
    if not report.ok:
        raise MeshingError(
            f"mesh failed validation at layers={layers}: {report.as_dict()}")
    return m, report


def cmd_mesh(args) -> int:
    rc = _resolve(args, [30])
    m = meshmod.build_mesh(rc.spec, rc.layers[0])
    report = meshmod.validate_mesh(m, rc.spec, rc.rho_max)
    out = args.out or "mesh.stmesh"
    meshmod.write_mesh(m, out)
    print(json.dumps(report.as_dict(), sort_keys=True))
    if not report.ok:
        raise MeshingError("mesh failed validation")
    print(f"wrote {out}")
    return 0


_CSV_CHUNK = 8192  # vertices per block of rows in _write_solution_csv


def _write_solution_csv(path, m, sol, z_f):
    """One row per vertex, floats as ``%.17g``; lines end in CRLF, as
    ``csv.writer``'s do, and ``%.17g`` never needs CSV quoting.  Each
    distinct x and t is formatted once and gathered to its vertices.  Rows
    are formatted and written _CSV_CHUNK at a time, so beyond those shared
    strings only one block's rows are alive at once."""
    xs = svg.format_distinct(m.vertices[:, 0], ".17g")
    ts = svg.format_distinct(m.vertices[:, 1], ".17g")
    fields = [np.asarray(col, dtype=float) for col in (sol.u, sol.p, z_f)]
    with open(path, "w", newline="") as f:
        f.write("vertex_id,x,t,u,p,z_f\r\n")
        for start in range(0, m.num_vertices, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, m.num_vertices)
            rows = zip(range(start, stop), xs[start:stop].tolist(), ts[start:stop].tolist(),
                       *(col[start:stop].tolist() for col in fields))
            f.write("".join(["%d,%s,%s,%.17g,%.17g,%.17g\r\n" % row for row in rows]))


def _write_jsonl(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_solve(args) -> int:
    rc = _resolve(args, [30])
    m, report = _checked_mesh(rc.spec, rc.layers[0], rc.rho_max)
    sol = solver.solve_optimality(m, rc.spec, rc.adjoint_space, rc.quad_subdiv)
    z_f = solver.recover_control_riesz(sol, rc.spec)
    # only a solved run creates --out; a failing metric still leaves the
    # writers' files complete
    outdir = args.out or "out"
    os.makedirs(outdir, exist_ok=True)

    def write_csv():
        _write_solution_csv(os.path.join(outdir, "solution.csv"), m, sol, z_f)

    def write_svgs():
        svg.render_fields(m, [
            (sol.u, os.path.join(outdir, "state.svg"), "state u_h"),
            (sol.p, os.path.join(outdir, "adjoint.svg"), "adjoint p_h"),
            (z_f, os.path.join(outdir, "control.svg"), "control riesz z_f"),
        ])

    def measure():
        # not the solve's: held through CG, one geometry raised the
        # parent's peak RSS by 2% at 240 layers
        geometry = fem.triangle_geometry(m)
        norms = {"record": "norms",
                 "triple_u": metrics.triple_norm(m, rc.spec, sol.u, geometry=geometry),
                 "star_u": metrics.star_norm(m, rc.spec, sol.u, geometry=geometry),
                 "triple_p": metrics.triple_norm(m, rc.spec, sol.p, geometry=geometry)}
        if rc.spec.exact_state is None or rc.spec.exact_adjoint is None:
            return norms, None
        return norms, metrics.energy_error(m, rc.spec, sol.u, sol.p, rc.quad_subdiv,
                                           rc.spacetime_gradient, geometry=geometry)

    # neither the files nor the metrics read the other's results; a writer's
    # error wins over a metric's, as when the files were written first
    *_, (norms, err) = _fork.run([("solution.csv writer", write_csv),
                                  ("SVG writer", write_svgs), (None, measure)])

    records = [
        {"record": "mesh", **report.as_dict()},
        {"record": "solve", "dofs": 2 * m.num_vertices, "layers": rc.layers[0],
         "adjoint_space": rc.adjoint_space, "residual": sol.residual,
         "cg_iterations": sol.iterations, "factor_nnz": sol.factor_nnz},
        norms,
    ]
    if err is not None:
        records.append({"record": "energy_error", "value": err})
        print(f"energy_error = {err:.6g}")
    _write_jsonl(os.path.join(outdir, "metrics.jsonl"), records)
    print(f"residual = {sol.residual:.3e}")
    print(f"wrote {outdir}/solution.csv")
    return 0


def _run_level(rc, layers, reference) -> tuple:
    """One convergence level: (dofs, h, error), measured against the exact
    pair of ``rc.spec``, or against ``reference`` unless it is None."""
    m, _ = _checked_mesh(rc.spec, layers, rc.rho_max)
    geometry = fem.triangle_geometry(m)
    sol = solver.solve_optimality(m, rc.spec, rc.adjoint_space, rc.quad_subdiv,
                                  geometry=geometry)
    if reference is None:
        err = metrics.energy_error(m, rc.spec, sol.u, sol.p, rc.quad_subdiv,
                                   rc.spacetime_gradient, geometry=geometry)
    else:
        err = metrics.reference_error(m, sol.u, sol.p, reference, rc.quad_subdiv,
                                      geometry=geometry)
    return 2 * m.num_vertices, m.h, err


def cmd_convergence(args) -> int:
    rc = _resolve(args, [15, 30, 60])
    levels = rc.layers

    has_exact = rc.spec.exact_state is not None and rc.spec.exact_adjoint is not None
    reference_layers = rc.reference_layers
    if reference_layers is None and not has_exact:
        reference_layers = 240
    reference = None
    if reference_layers is not None:
        if reference_layers <= max(levels):
            raise UsageError(f"reference_layers = {reference_layers} (--reference-layers, "
                             f"[metrics] reference_layers, or 240 without an exact pair) "
                             f"must exceed every study level, up to {max(levels)}")
        ref_mesh, _ = _checked_mesh(rc.spec, reference_layers, rc.rho_max)
        ref_sol = solver.solve_optimality(ref_mesh, rc.spec, rc.adjoint_space,
                                          rc.quad_subdiv)
        reference = metrics.reference_data(ref_mesh, ref_sol.u, ref_sol.p)
    outdir = args.out or "out"
    os.makedirs(outdir, exist_ok=True)

    # The last levels (a study's largest) may run in children, one per spare
    # CPU, and the failure reported is that of the first failing level in
    # the list, as with --serial.
    forked = 0 if args.serial else min(len(levels), _fork.cpu_count()) - 1
    results = _fork.run([(f"level {layers}" if i >= len(levels) - forked else None,
                          functools.partial(_run_level, rc, layers, reference))
                         for i, layers in enumerate(levels)])

    dofs = [r[0] for r in results]
    hs = [r[1] for r in results]
    errors = [r[2] for r in results]
    report = metrics.ConvergenceReport.from_results(dofs, hs, errors)
    report.write_csv(os.path.join(outdir, "report.csv"))
    metric_name = "reference_error" if reference_layers is not None else "energy_error"
    records = [
        {"record": "level", "layers": lv, "dofs": d, "h": h,
         "metric": metric_name, "error": e, "order": o}
        for lv, d, h, e, o in zip(levels, dofs, hs, errors, report.order)
    ]
    _write_jsonl(os.path.join(outdir, "metrics.jsonl"), records)
    if args.plot:
        svg.render_loglog(hs, errors, os.path.join(outdir, "convergence.svg"),
                          f"{rc.spec.name}: {metric_name} vs h")

    print(f"{'dofs':>8} {'h':>12} {'error':>12} {'order':>8}")
    for d, h, e, o in zip(dofs, hs, errors, report.order):
        order = "  --" if o is None else f"{o:8.3f}"
        print(f"{d:8d} {h:12.5e} {e:12.5e} {order}")
    if report.order[-1] is not None:
        print(f"final EOC = {report.order[-1]:.3f}")
    print(f"wrote {outdir}/report.csv")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"stcontrol: config error: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, MeshingError, PointLocationError) as exc:
        print(f"stcontrol: geometry error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, SingularMatrixError) as exc:
        print(f"stcontrol: solver error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"stcontrol: usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"stcontrol: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
