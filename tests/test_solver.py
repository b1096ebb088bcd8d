"""Coupled optimality system: block structure, constraint handling and
control recovery."""

import dataclasses

import numpy as np
import pytest

import oracles
from stcontrol import checks, cli, fem, linalg, mesh, metrics, problem, solver
from stcontrol.errors import SolverError


def test_block_layout(static_spec, static_mesh30):
    sys = solver.build_block_system(static_mesh30, static_spec)
    n = static_mesh30.num_vertices
    combined = oracles.coupled_matrix(sys)
    assert combined.shape == (2 * n, 2 * n)
    a = oracles.scipy_csr(sys.state_matrix)
    top_left = combined[:n, :n]
    assert abs(top_left - a).max() == 0.0
    top_right = combined[:n, n:]
    stiffness = oracles.scipy_csr(sys.stiffness)
    assert abs(top_right - stiffness.multiply(1.0 / static_spec.eta)).max() == 0.0
    bottom_left = combined[n:, :n]
    assert abs(bottom_left - oracles.scipy_csr(sys.mass)).max() == 0.0
    # adjoint block is exactly the negated transpose of the state block
    bottom_right = combined[n:, n:]
    assert abs(bottom_right + a.T).max() == 0.0
    b_d = fem.assemble_load(
        static_mesh30, problem.desired_state_function(static_spec),
        dofs=sys.state_dofs,
    )
    assert np.array_equal(sys.b_d, b_d)


def test_solution_satisfies_block_rows(static_spec, static_mesh30, static_solution30):
    sys = solver.build_block_system(static_mesh30, static_spec)
    sol = static_solution30
    r1 = sys.state_matrix @ sol.u + (sys.stiffness @ sol.p) / static_spec.eta
    r2 = sys.mass @ sol.u - sys.state_matrix.T @ sol.p - sys.b_d
    scale = float(np.linalg.norm(sys.b_d))
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
    spec = checks.zero_data_spec()
    m = mesh.build_mesh(spec, 8)
    sol = solver.solve_optimality(m, spec)
    assert np.all(sol.u == 0.0)
    assert np.all(sol.p == 0.0)
    assert sol.residual == 0.0
    z_f = solver.recover_control_riesz(sol, spec)
    assert np.all(z_f == 0.0)


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
    sol = solver.solve_optimality(m, spec, adjoint_space)
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


@pytest.fixture
def factorized(monkeypatch):
    """Every matrix passed to linalg.factorize while the test runs."""
    seen = []
    original = linalg.factorize

    def recording(matrix):
        seen.append(matrix)
        return original(matrix)

    monkeypatch.setattr(linalg, "factorize", recording)
    return seen


def test_only_spd_n_by_n_factorizations(static_spec, static_mesh30, factorized):
    for adjoint_space in ("U", "W"):
        solver.solve_optimality(static_mesh30, static_spec, adjoint_space)
    n = static_mesh30.num_vertices
    assert factorized
    factorized = [oracles.scipy_csr(m) for m in factorized]
    assert all(m.shape == (n, n) and abs(m - m.T).max() == 0.0 for m in factorized)


@pytest.mark.parametrize("preset", ["static", "moving"])
def test_no_factor_couples_two_time_lines(request, preset, factorized):
    spec = request.getfixturevalue(f"{preset}_spec")
    m = request.getfixturevalue(f"{preset}_mesh30")
    t = m.vertices[:, 1]
    for adjoint_space in ("U", "W"):
        sol = solver.solve_optimality(m, spec, adjoint_space)
        # a tridiagonal block per time line has fewer than 3 N entries and
        # factors without fill
        assert sol.factor_nnz <= 10 * m.num_vertices
    assert factorized
    for matrix in factorized:
        entries = oracles.scipy_csr(matrix).tocoo()
        assert np.all(t[entries.row] == t[entries.col])


@pytest.mark.parametrize("eta", [1e-6, 1e-4])
@pytest.mark.parametrize("preset", ["static", "moving"])
def test_cg_iterations_stay_bounded_as_h_shrinks(request, preset, eta):
    # The line blocks keep the couplings along each time line; Jacobi(M),
    # which drops them, needs 42 iterations at 60 layers and eta = 1e-4.
    spec = request.getfixturevalue(f"{preset}_spec")
    spec = dataclasses.replace(
        spec, desired_state=problem.desired_state_function(spec), eta=eta,
        exact_state=None, exact_adjoint=None,
    )
    for layers in (15, 30, 60):
        m = mesh.build_mesh(spec, layers)
        for adjoint_space in ("U", "W"):
            sol = solver.solve_optimality(m, spec, adjoint_space)
            assert 0 < sol.iterations <= 30
            assert sol.residual <= 1e-8
            assert np.all(sol.u[fem.state_dofmap(m).constrained] == 0.0)
            assert np.all(sol.p[fem.adjoint_dofmap(m, adjoint_space).constrained] == 0.0)


def test_iteration_cap_raises_solver_error(static_spec, monkeypatch):
    monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
    m = mesh.build_mesh(static_spec, 8)
    with pytest.raises(SolverError, match="in 1 iterations"):
        solver.solve_optimality(m, static_spec)


def test_renumbered_mesh_is_refused(static_spec):
    # the factors are tridiagonal only in build_mesh's numbering, with each
    # time line's vertices consecutive in x order; a valid mesh numbered
    # any other way must fail loudly instead of returning a wrong answer
    m = mesh.build_mesh(static_spec, 15)
    perm = np.random.default_rng(15).permutation(m.num_vertices)
    vertices = np.empty_like(m.vertices)
    vertices[perm] = m.vertices
    tags = np.empty_like(m.boundary_tags)
    tags[perm] = m.boundary_tags
    renumbered = dataclasses.replace(
        m, vertices=vertices, triangles=perm[m.triangles],
        interface_edges=perm[m.interface_edges], boundary_tags=tags,
    )
    assert mesh.validate_mesh(renumbered, static_spec).ok
    with pytest.raises(ValueError, match="tridiagonal"):
        solver.solve_optimality(renumbered, static_spec)
    # the star norm's Riesz solve assembles K_W, which is refused alike
    with pytest.raises(ValueError, match="tridiagonal"):
        metrics.star_norm(renumbered, static_spec, renumbered.vertices[:, 0].copy())


def test_solve_sorts_one_sparsity_pattern(tmp_path, monkeypatch):
    # A and M share build_block_system's pattern; K and the star norm's K_W
    # are assembled as tridiagonal matrices and sort none
    calls = []
    pattern = fem.sparsity_pattern

    def counted(m):
        calls.append(m.num_vertices)
        return pattern(m)

    monkeypatch.setattr(fem, "sparsity_pattern", counted)
    rc = cli.main(["solve", "--preset", "example1-moving", "--layers", "8",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    assert len(calls) == 1
