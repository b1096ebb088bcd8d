"""Memory and work guards of the solve path.

tracemalloc counts the bytes numpy and Python allocate, so its peak is the
same on every run, where the process RSS is not."""

import gc
import tracemalloc
import types

import numpy as np
import pytest

from stcontrol import cli, fem, mesh, metrics, problem, solver, svg

MB = 1e6


@pytest.fixture(scope="module")
def moving_mesh120():
    spec = problem.example1_moving()
    return spec, mesh.build_mesh(spec, 120)


def traced_peak(fn, *args):
    """Peak bytes allocated by fn(*args) above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_build_block_system_peak(moving_mesh120):
    # one pattern and one geometry, no (M, 3, 3) blocks or COO triplets:
    # 11.0 MB at 120 layers, against 19.3 MB with them
    spec, m = moving_mesh120
    assert traced_peak(solver.build_block_system, m, spec) <= 13 * MB


def test_solve_optimality_peak(moving_mesh120):
    # assembling K, the last matrix, sets the peak: 10.3 MB at 120 layers
    # (10.6 MB, set by M, with K on the shared pattern; 10.8 MB, set by the
    # u_d load, with scipy CSR matrices and LAPACK factors); the padded rows
    # of A, its transpose and M share one column array and each product
    # gathers its vector once, so the factors and CG stay below it (9.4 MB)
    spec, m = moving_mesh120
    assert traced_peak(solver.solve_optimality, m, spec) <= 11 * MB


def test_assemble_load_peak(moving_mesh120):
    # u_d in closed form: one sine and a few gathers per point, on
    # contiguous corner rows with the corner array dropped once copied:
    # 4.7 MB at 120 layers, against 8.1 MB for the strong form's partials
    # and the (M, 3) load accumulation
    spec, m = moving_mesh120
    u_d = problem.desired_state_function(spec)
    assert traced_peak(fem.assemble_load, m, u_d, fem.state_dofmap(m)) <= 6.5 * MB


def test_star_norm_peak(moving_mesh120):
    # assembling K_W sets the peak: 4.6 MB at 120 layers as the two bands
    # of a linalg.Tridiagonal, against 5.4 MB as padded rows of width 3
    # with their column and mirror arrays, and 8.9 MB on a sparsity pattern
    # of its own, whose sort of all corner-pair keys set it
    spec, m = moving_mesh120
    w = np.sin(np.pi * m.vertices[:, 0]) * m.vertices[:, 1]
    assert traced_peak(metrics.star_norm, m, spec, w) <= 5.0 * MB


def test_render_field_peak(moving_mesh120, tmp_path):
    # the polygons are formatted and written in blocks: 7.3 MB at 120
    # layers, against 14.1 MB with every line and the whole document held
    _, m = moving_mesh120
    values = np.sin(m.vertices[:, 0])
    assert traced_peak(svg.render_field, m, values, tmp_path / "u.svg") <= 9 * MB


def test_render_fields_peak(moving_mesh120, tmp_path):
    # u, p and z_f in one pass, sharing each block's points strings and one
    # string per distinct screen coordinate: 3.5 MB at 120 layers, against
    # 6.8 MB for three render_field calls that each held a string per vertex
    spec, m = moving_mesh120
    sol = solver.solve_optimality(m, spec)
    z_f = solver.recover_control_riesz(sol, spec)
    fields = [(values, tmp_path / f"{name}.svg", name)
              for name, values in (("u", sol.u), ("p", sol.p), ("z_f", z_f))]
    assert traced_peak(svg.render_fields, m, fields) <= 4.5 * MB


def test_solution_csv_peak(moving_mesh120, tmp_path):
    # the rows are formatted and written in blocks: 5.8 MB at 120 layers,
    # against 11.1 MB with every row and the whole file held
    _, m = moving_mesh120
    x = m.vertices[:, 0]
    sol = types.SimpleNamespace(u=np.sin(x), p=-1e-6 * np.cos(x))
    assert traced_peak(cli._write_solution_csv, tmp_path / "s.csv", m, sol, x) <= 8 * MB


def test_build_mesh_makes_no_per_triangle_objects():
    # the triangles come from whole-array index arithmetic, so no Python
    # object is kept per triangle and the garbage collector never runs:
    # 41 collections at 120 layers when each triangle was a tuple of numpy
    # scalars appended to a list
    spec = problem.example1_moving()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        mesh.build_mesh(spec, 120)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


def test_solve_computes_the_geometry_once_per_stage(tmp_path, monkeypatch):
    # build_block_system, triple_norm twice, star_norm and energy_error
    calls = []
    geometry = fem.triangle_geometry

    def counted(m):
        calls.append(m.num_triangles)
        return geometry(m)

    monkeypatch.setattr(fem, "triangle_geometry", counted)
    rc = cli.main(["solve", "--preset", "example1-moving", "--layers", "8",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    assert len(calls) == 5
