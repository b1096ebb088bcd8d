"""Acceptance battery.

One test per acceptance criterion; each prints a single
``ACCEPTANCE nn <name>: PASS|FAIL (...)`` line with the measured numbers
before asserting, so a ``pytest -v`` run doubles as the sign-off report.

Criteria 1 and 2 check the published errors of the two presets (4.732
static, 4.947 moving) within a factor 2.5, and the final EOC of the
``15,30,60,120`` ladder.  The published value is an asymptotic one, so it is
compared at the coarsest ladder level that resolves the exact state: the
first level whose largest x-gap between neighbouring vertices on one time
line is below the shortest half-period of the state, pi / (20 pi) = 0.05.
The level follows from the mesh and the problem data alone, never from the
measured error.  Coarser levels have fewer than two nodes per period of
``sin(20 pi (x - s))``, and there no P1 function comes within the factor:
at 15 layers the best P1 fit of dx u alone, a lower bound for the error of
every discrete solution, is 14.91 static and 13.80 moving, above
2.5 x anchor = 11.83 and 12.37 (``oracles.p1_best_gradient_approximation``,
checked in ``tests/test_metrics.py``).  The 15-layer error is still
printed, for information.
"""

import math
import time

import numpy as np
import pytest

import oracles
from stcontrol import cli, fem, mesh, metrics, problem, solver

STATIC = "example1-static"
MOVING = "example1-moving"


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _max_time_line_gap(m):
    """Largest x-distance between neighbouring vertices on one time line."""
    order = np.lexsort((m.vertices[:, 0], m.vertices[:, 1]))
    x, t = m.vertices[order, 0], m.vertices[order, 1]
    same_line = t[1:] == t[:-1]
    return float(np.max(np.diff(x)[same_line]))


def _convergence_table_criterion(num, preset, spec, anchor, tmp_path):
    ladder = (15, 30, 60, 120)
    half_period = math.pi / problem._K1
    gaps = [_max_time_line_gap(mesh.build_mesh(spec, n)) for n in ladder]
    level = next((i for i, gap in enumerate(gaps) if gap < half_period), None)
    assert level is not None, f"no ladder level resolves the state: x-gaps {gaps}"

    out = tmp_path / "study"
    t0 = time.perf_counter()
    rc = cli.main(["convergence", "--preset", preset,
                   "--layers", ",".join(map(str, ladder)), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rep = oracles.read_csv(out / "report.csv")

    final_eoc = rep.order[-1]
    eoc_ok = 0.85 <= final_eoc <= 1.25
    ratio = rep.error[level] / anchor
    anchor_ok = (1.0 / 2.5) <= ratio <= 2.5
    time_ok = elapsed <= 180.0
    ok = eoc_ok and anchor_ok and time_ok
    detail = (f"final EOC {final_eoc:.3f} in [0.85,1.25]: {eoc_ok}; "
              f"{ladder[level]}-layer error (x-gap {gaps[level]:.4f} < "
              f"half-period {half_period:.2f}) {rep.error[level]:.4f} = "
              f"{ratio:.3f} x {anchor} within factor 2.5: {anchor_ok}; "
              f"runtime {elapsed:.1f}s <= 180s: {time_ok}; "
              f"info: {ladder[0]}-layer error (x-gap {gaps[0]:.4f}) "
              f"{rep.error[0]:.4f} = {rep.error[0] / anchor:.3f} x {anchor}")
    line = _report(num, f"convergence-{preset.split('-')[-1]}", ok, detail)
    assert ok, line


def test_criterion_01_convergence_static(static_spec, tmp_path):
    _convergence_table_criterion(1, STATIC, static_spec, 4.732, tmp_path)


def test_criterion_02_convergence_moving(moving_spec, tmp_path):
    _convergence_table_criterion(2, MOVING, moving_spec, 4.947, tmp_path)


def test_criterion_03_reference_solution_decay(tmp_path):
    details = []
    ok = True
    for preset in (STATIC, MOVING):
        out = tmp_path / preset
        rc = cli.main(["convergence", "--preset", preset, "--layers", "15,30,60",
                       "--reference-layers", "240", "--out", str(out)])
        assert rc == 0
        rep = oracles.read_csv(out / "report.csv")
        decaying = rep.error[0] > rep.error[1] > rep.error[2]
        agg = math.log(rep.error[0] / rep.error[2]) / math.log(rep.h[0] / rep.h[2])
        ok = ok and decaying and 0.8 <= agg <= 1.3
        details.append(f"{preset}: errors {rep.error[0]:.3f}/{rep.error[1]:.3f}/"
                       f"{rep.error[2]:.3f}, EOC {agg:.3f}")
    line = _report(3, "reference-error-decay", ok, "; ".join(details))
    assert ok, line


def test_criterion_04_desired_state_oracle(static_spec, moving_spec):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for spec in (static_spec, moving_spec):
        x, t = oracles.sample_away_from_interface(spec, rng, 1000, margin=1e-3)
        got = np.asarray(problem.derive_desired_state(spec)(x, t))
        want = oracles.fd_desired_state(spec, x, t)
        defect = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        worst = max(worst, float(defect.max()))
    ok = bool(worst <= 1e-6)
    line = _report(4, "desired-state-oracle", ok,
                   f"1000 points per preset, max rel defect {worst:.2e} <= 1e-6")
    assert ok, line


def test_criterion_05_coercivity(static_spec, moving_spec):
    worst = oracles.coercivity_defect(np.random.default_rng(42), 50,
                                      (static_spec, moving_spec))
    ok = bool(worst <= 1e-10)
    line = _report(5, "state-form-coercivity", ok,
                   f"50 vectors per preset at n=8, worst (|||u|||^2 - u^T A u)"
                   f"/|||u|||^2 = {worst:.2e} <= 1e-10")
    assert ok, line


def test_criterion_06_riesz_identity(static_spec, static_mesh30, static_solution30,
                                     moving_spec, moving_mesh30, moving_solution30):
    rng = np.random.default_rng(7)
    worst = 0.0
    evaluations = 0
    for spec, m, sol in ((static_spec, static_mesh30, static_solution30),
                         (moving_spec, moving_mesh30, moving_solution30)):
        ui = oracles.lagrange_interpolate(m, spec, spec.exact_state)
        free = np.flatnonzero(~fem.constrained(m, "W"))
        rand = np.zeros(m.num_vertices)
        rand[free] = rng.uniform(-1.0, 1.0, free.size)
        for w in (sol.u, sol.p, ui, rand):
            metrics.star_norm(m, spec, w)  # raises if the identity breaks
            r = fem.assemble_time_weighted_load(m, w, fem.constrained(m, "W"))
            z = solver.solve_riesz(m, spec, r)
            lhs = float(r @ z)
            rhs = float(metrics.triple_norm(m, spec, z) ** 2)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            evaluations += 1
    ok = bool(worst <= 1e-10)
    line = _report(6, "riesz-identity", ok,
                   f"{evaluations} star-norm evaluations, worst rel identity "
                   f"defect {worst:.2e} <= 1e-10")
    assert ok, line


def test_criterion_07_control_recovery(static_spec, moving_spec):
    defects = []
    for spec, layers in ((static_spec, 30), (moving_spec, 30), (static_spec, 10)):
        m = mesh.build_mesh(spec, layers)
        sol = solver.solve_optimality(m, spec)
        z_f = solver.recover_control_riesz(sol, spec)
        dofs = fem.constrained(m, "U")
        lhs = (fem.assemble_state_matrix(m, spec, dofs) @ sol.u)[~dofs]
        rhs = (fem.assemble_spatial_stiffness(m, spec, dofs) @ z_f)[~dofs]
        defects.append(float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)))
    worst = float(np.max(defects))
    ok = bool(worst <= 1e-8)
    line = _report(7, "control-recovery", ok,
                   f"both presets at n=30 and static at n=10, worst "
                   f"|A u - K z_f|/|K z_f| = {worst:.2e} <= 1e-8")
    assert ok, line


def test_criterion_08_zero_data():
    spec = oracles.zero_data_spec()
    m = mesh.build_mesh(spec, 8)
    sol = solver.solve_optimality(m, spec)
    all_zero = bool(np.all(sol.u == 0.0) and np.all(sol.p == 0.0))
    ok = all_zero and sol.residual == 0.0
    line = _report(8, "zero-data", ok,
                   f"u, p exactly zero: {all_zero}; residual = {sol.residual!r}")
    assert ok, line


def test_criterion_09_interpolation_order(static_spec, moving_spec):
    details = []
    ok = True
    for spec in (static_spec, moving_spec):
        errors, hs = [], []
        for layers in (30, 60, 120):
            m = mesh.build_mesh(spec, layers)
            ui = oracles.lagrange_interpolate(m, spec, spec.exact_state)
            pi = oracles.lagrange_interpolate(m, spec, spec.exact_adjoint)
            errors.append(metrics.energy_error(m, spec, ui, pi))
            hs.append(m.h)
        orders = metrics.compute_eoc(hs, errors)[1:]
        ok = ok and all(o >= 0.8 for o in orders)
        details.append(f"{spec.name}: EOC " + "/".join(f"{o:.3f}" for o in orders))
    line = _report(9, "interpolation-order", ok, "; ".join(details) + " >= 0.8")
    assert ok, line


def test_criterion_10_mesh_validity(static_spec, moving_spec):
    layer_counts = (8, 15, 23, 30, 60, 97, 120, 153, 211, 240)
    worst_fit = 0.0
    straddle = conformity = 0
    all_ok = True
    for spec in (static_spec, moving_spec):
        for layers in layer_counts:
            rep = mesh.validate_mesh(mesh.build_mesh(spec, layers), spec)
            all_ok = all_ok and rep.ok
            straddle += rep.straddle_count
            conformity += rep.conformity_violations
            worst_fit = max(worst_fit, rep.max_fit_residual)
    ok = all_ok and straddle == 0 and conformity == 0 and worst_fit <= 1e-10
    line = _report(10, "mesh-validity", ok,
                   f"{2 * len(layer_counts)} meshes up to n=240: straddle "
                   f"{straddle}, conformity {conformity}, max fit residual "
                   f"{worst_fit:.2e} <= 1e-10")
    assert ok, line
