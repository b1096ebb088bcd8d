"""Coupled optimality system: block structure, constraint handling and
control recovery."""

import dataclasses

import numpy as np
import pytest

import oracles
from stcontrol import fem, linalg, mesh, metrics, problem, solver
from stcontrol.errors import SolverError


def zero_desired_spec():
    def zeros(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    return problem.ProblemSpec(
        x_min=0.0, x_max=1.0, t_final=1.0, kappa1=1.5, kappa2=1.0, eta=1e-3,
        velocity=problem.velocity_zero(), offset_a=0.3, offset_b=0.7,
        desired_state=zeros, name="zero-desired",
    )


def test_block_layout(static_spec, static_mesh30):
    sys = solver.build_block_system(static_mesh30, static_spec)
    n = static_mesh30.num_vertices
    assert sys.combined.shape == (2 * n, 2 * n)
    a = sys.state_matrix
    top_left = sys.combined[:n, :n]
    assert abs(top_left - a).max() == 0.0
    top_right = sys.combined[:n, n:]
    assert abs(top_right - sys.stiffness.multiply(1.0 / static_spec.eta)).max() == 0.0
    bottom_left = sys.combined[n:, :n]
    assert abs(bottom_left - sys.mass).max() == 0.0
    # adjoint block is exactly the negated transpose of the state block
    bottom_right = sys.combined[n:, n:]
    assert abs(bottom_right + a.T).max() == 0.0
    assert np.all(sys.rhs[:n] == 0.0)
    b_d = fem.assemble_load(
        static_mesh30, problem.desired_state_function(static_spec),
        dofs=sys.state_dofs,
    )
    assert np.array_equal(sys.rhs[n:], b_d)


def test_solution_satisfies_block_rows(static_spec, static_mesh30, static_solution30):
    sys = solver.build_block_system(static_mesh30, static_spec)
    sol = static_solution30
    r1 = sys.state_matrix @ sol.u + (sys.stiffness @ sol.p) / static_spec.eta
    r2 = sys.mass @ sol.u - sys.state_matrix.T @ sol.p - sys.rhs[static_mesh30.num_vertices:]
    scale = float(np.linalg.norm(sys.rhs))
    assert float(np.linalg.norm(r1)) <= 1e-8 * scale
    assert float(np.linalg.norm(r2)) <= 1e-8 * scale


def test_constrained_dofs_are_exact_zeros(static_mesh30, static_solution30):
    dofs = fem.state_dofmap(static_mesh30)
    assert np.all(static_solution30.u[dofs.constrained] == 0.0)
    assert np.all(static_solution30.p[dofs.constrained] == 0.0)


def test_residual_reported_and_small(static_solution30, moving_solution30):
    for sol in (static_solution30, moving_solution30):
        assert 0.0 <= sol.residual <= 1e-8


def test_zero_desired_state_gives_zero_solution():
    spec = zero_desired_spec()
    m = mesh.build_mesh(spec, 8)
    sol = solver.solve_optimality(m, spec)
    assert np.all(sol.u == 0.0)
    assert np.all(sol.p == 0.0)
    assert sol.residual == 0.0
    z_f = solver.recover_control_riesz(sol, spec)
    assert np.all(z_f == 0.0)


def test_control_recovery_consistency(static_spec, static_mesh30, static_solution30,
                                      moving_spec, moving_mesh30, moving_solution30):
    cases = [
        (static_spec, static_mesh30, static_solution30),
        (moving_spec, moving_mesh30, moving_solution30),
    ]
    for spec, m, sol in cases:
        z_f = solver.recover_control_riesz(sol, spec)
        dofs = fem.state_dofmap(m)
        a = fem.assemble_state_matrix(m, spec, dofs)
        k = fem.assemble_spatial_stiffness(m, spec, dofs)
        free = dofs.free
        lhs = (a @ sol.u)[free]
        rhs = (k @ z_f)[free]
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_adjoint_space_variant(static_spec, static_mesh30, static_solution30):
    sol_w = solver.solve_optimality(static_mesh30, static_spec, adjoint_space="W")
    assert sol_w.residual <= 1e-8
    e_u = metrics.energy_error(static_mesh30, static_spec,
                               static_solution30.u, static_solution30.p)
    e_w = metrics.energy_error(static_mesh30, static_spec, sol_w.u, sol_w.p)
    assert e_w == pytest.approx(e_u, rel=1e-3)
    # W leaves the initial line unconstrained for the adjoint
    sys = solver.build_block_system(static_mesh30, static_spec, adjoint_space="W")
    assert sys.adjoint_dofs.space == "W"
    assert sys.adjoint_dofs.constrained.sum() < sys.state_dofs.constrained.sum()


def test_prebuilt_system_is_used(static_spec, static_mesh30, static_solution30):
    sys = solver.build_block_system(static_mesh30, static_spec)
    sol = solver.solve_optimality(static_mesh30, static_spec, system=sys)
    assert np.array_equal(sol.u, static_solution30.u)
    assert np.array_equal(sol.p, static_solution30.p)


def test_eta_scales_recovered_control(static_spec, static_mesh30):
    # same desired state, smaller regularization: control grows, misfit shrinks
    ud = problem.desired_state_function(static_spec)
    loose = dataclasses.replace(static_spec, desired_state=ud, eta=1e-3,
                                exact_state=None, exact_adjoint=None)
    tight = dataclasses.replace(static_spec, desired_state=ud, eta=1e-7,
                                exact_state=None, exact_adjoint=None)
    m = static_mesh30
    iu_d = fem.assemble_load(m, ud)        # only for a weighted misfit proxy
    mass = fem.assemble_mass(m)

    def misfit(sol):
        r = np.asarray(mass @ sol.u) - iu_d
        return float(np.linalg.norm(r))

    sol_loose = solver.solve_optimality(m, loose)
    sol_tight = solver.solve_optimality(m, tight)
    assert misfit(sol_tight) < misfit(sol_loose)
    z_loose = solver.recover_control_riesz(sol_loose, loose)
    z_tight = solver.recover_control_riesz(sol_tight, tight)
    assert np.linalg.norm(z_tight) > np.linalg.norm(z_loose)


@pytest.mark.parametrize("adjoint_space", ["U", "W"])
@pytest.mark.parametrize("preset", ["static", "moving"])
def test_matches_coupled_lu_oracle(request, preset, adjoint_space):
    spec = request.getfixturevalue(f"{preset}_spec")
    m = request.getfixturevalue(f"{preset}_mesh30")
    sys = solver.build_block_system(m, spec, adjoint_space)
    sol = solver.solve_optimality(m, spec, system=sys)
    want_u, want_p = oracles.coupled_lu_solve(sys)
    assert np.linalg.norm(sol.u - want_u) <= 1e-9 * np.linalg.norm(want_u)
    assert np.linalg.norm(sol.p - want_p) <= 1e-9 * np.linalg.norm(want_p)
    assert np.all(sol.u[sys.state_dofs.constrained] == 0.0)
    assert np.all(sol.p[sys.adjoint_dofs.constrained] == 0.0)
    assert 0 < sol.iterations < solver.CG_MAX_ITERATIONS


@pytest.mark.parametrize("eta", [1e-9, 1e-3, 1.0, 1e2])
def test_eta_sweep_converges(static_spec, static_mesh30, eta):
    spec = dataclasses.replace(
        static_spec, desired_state=problem.desired_state_function(static_spec),
        eta=eta, exact_state=None, exact_adjoint=None,
    )
    sol = solver.solve_optimality(static_mesh30, spec)
    assert 0.0 < sol.residual <= 1e-8
    assert 0 < sol.iterations < solver.CG_MAX_ITERATIONS


def test_only_spd_n_by_n_factorizations(static_spec, static_mesh30, monkeypatch):
    seen = []
    original = linalg.factorize

    def recording(matrix, spd=False):
        seen.append((matrix.shape, spd))
        return original(matrix, spd=spd)

    monkeypatch.setattr(linalg, "factorize", recording)
    for adjoint_space in ("U", "W"):
        solver.solve_optimality(static_mesh30, static_spec, adjoint_space)
    n = static_mesh30.num_vertices
    assert seen
    assert all(item == ((n, n), True) for item in seen)


def test_iteration_cap_raises_solver_error(static_spec, monkeypatch):
    monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
    m = mesh.build_mesh(static_spec, 8)
    with pytest.raises(SolverError, match="in 1 iterations"):
        solver.solve_optimality(m, static_spec)
