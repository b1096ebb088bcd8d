"""Time classes: the load and the energy error compute the t-only factors of
u_d and of the exact pair once per distinct quadrature time and gather them
to the points.  They must give the same bits as the per-point evaluation of
the same closed form, ``oracles.closed_form_*_reference``, on any valid
mesh, stay within a few ulps of the strong form ``oracles.*_reference``
that the closed form replaced, and explicit desired states must load as
before."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from stcontrol import cli, config, fem, mesh, metrics, problem, solver

PI = math.pi

ZERO_MOVING = """\
[problem]
x_min = 0.0
x_max = 1.0
t_final = 1.0
kappa1 = 0.5
kappa2 = 1.0
eta = 1e-6
offset_a = 0.4
offset_b = 0.6
velocity = sine
desired = zero

[discretization]
layers = 6
"""


def tabulated_spec():
    """The moving preset transported by a cubic spline of its sine speed."""
    ts = np.linspace(0.0, 1.0, 41)
    velocity = problem.velocity_tabulated(ts, 0.1 * PI * np.sin(2.0 * PI * ts))
    return dataclasses.replace(problem.example1_moving(), velocity=velocity,
                               name="tabulated")


# Largest moves from the strong-form oracles, which sum u + dt p + v dx p +
# kappa dxx p term by term: over these tests b_d moves by at most 3.3e-16 of
# max |b_d| and the energy error by 1.9e-16 of itself (4.4e-16 of max |b_d|
# at 240 layers); the bounds leave room for a few ulps.
STRONG_FORM_LOAD_RTOL = 2e-15
STRONG_FORM_ENERGY_RTOL = 1e-14


def assert_matches_oracle(m, spec, subdiv):
    dofs = fem.constrained(m, "U")
    got = fem.assemble_load(m, problem.desired_state_function(spec), dofs, subdiv)
    want = oracles.assemble_load_reference(
        m, oracles.closed_form_desired_state_reference(spec), dofs, subdiv)
    assert np.array_equal(got, want)
    strong = oracles.assemble_load_reference(
        m, oracles.derive_desired_state_reference(spec), dofs, subdiv)
    assert np.max(np.abs(got - strong)) <= STRONG_FORM_LOAD_RTOL * np.max(np.abs(strong))
    rng = np.random.default_rng(5)
    u, p = rng.standard_normal((2, m.num_vertices))
    for spacetime in (False, True):
        got = metrics.energy_error(m, spec, u, p, subdiv, spacetime_gradient=spacetime)
        want = oracles.energy_error_reference(
            m, spec, u, p, subdiv, spacetime_gradient=spacetime,
            partials=oracles.closed_form_partials_reference)
        assert got == want, spacetime
        strong = oracles.energy_error_reference(m, spec, u, p, subdiv,
                                                spacetime_gradient=spacetime)
        assert abs(got - strong) <= STRONG_FORM_ENERGY_RTOL * strong, spacetime


@pytest.mark.parametrize("subdiv", [0, 1, 2])
@pytest.mark.parametrize("layers", [15, 60])
@pytest.mark.parametrize("make", [problem.example1_static, problem.example1_moving])
def test_load_and_energy_error_match_the_per_point_oracle(make, layers, subdiv):
    spec = make()
    assert_matches_oracle(mesh.build_mesh(spec, layers), spec, subdiv)


@pytest.mark.parametrize("subdiv", [0, 1, 2])
def test_tabulated_velocity_matches_the_per_point_oracle(subdiv):
    spec = tabulated_spec()
    assert_matches_oracle(mesh.build_mesh(spec, 15), spec, subdiv)


def test_rotated_corners_are_refused(moving_spec):
    # rotating triangle i's corners by i % 3 places leaves a valid mesh, but
    # not build_mesh's strip layout, which gives the time classes
    m = mesh.build_mesh(moving_spec, 6)
    shift = (np.arange(3) + np.arange(m.num_triangles)[:, None]) % 3
    rotated = dataclasses.replace(
        m, triangles=np.take_along_axis(m.triangles, shift, axis=1))
    assert mesh.validate_mesh(rotated, moving_spec).ok
    with pytest.raises(ValueError, match="strip order"):
        fem.assemble_load(rotated, problem.desired_state_function(moving_spec))


@pytest.mark.parametrize("layers", [2, 15, 60])
@pytest.mark.parametrize("make", [problem.example1_static, problem.example1_moving])
def test_quadrature_time_classes_match_the_reference(make, layers, tmp_path):
    # the classes fem.quadrature forms from mesh.strips are those of a
    # np.unique over every triangle's corner lines, also on a mesh read back
    m = mesh.build_mesh(make(), layers)
    mesh.write_mesh(m, tmp_path / "m.stmesh")
    for each in (m, oracles.read_mesh_reference(tmp_path / "m.stmesh")):
        corners, index = oracles.time_classes_reference(each)
        assert corners.shape == (3, 2 * layers)
        seen = []
        points = fem.quadrature(each, lambda x, t, t_index: seen.append((t, t_index)),
                                0, fem.triangle_geometry(each)[0])
        for lam, _, _ in points:
            t, t_index = seen.pop()
            assert np.array_equal(t, fem.barycentric_point(corners, lam))
            assert np.array_equal(t_index, index)


def test_times_outside_the_horizon_raise_on_the_gathered_path(moving_spec):
    x, t_index = np.full(3, 0.5), np.array([0, 1, 0])
    for t in ([0.5, 1.5], [-0.5, 0.5]):
        with pytest.raises(ValueError, match="outside"):
            problem.exact_partials(moving_spec, x, t, ("dx",), t_index=t_index)
        with pytest.raises(ValueError, match="outside"):
            problem.desired_state_function(moving_spec)(x, t, t_index=t_index)
    m = mesh.build_mesh(moving_spec, 4)
    late = dataclasses.replace(m, vertices=m.vertices + [0.0, 0.5])
    with pytest.raises(ValueError, match="outside"):
        fem.assemble_load(late, problem.desired_state_function(moving_spec))
    with pytest.raises(ValueError, match="outside"):
        metrics.energy_error(late, moving_spec, np.zeros(m.num_vertices),
                             np.zeros(m.num_vertices))


def test_zero_desired_config_solves_and_loads_as_before(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOVING)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    spec = config.run_config(config.load_config(cfg), None, [30]).spec
    m = mesh.build_mesh(spec, 6)
    want = oracles.assemble_load_reference(m, spec.desired_state, fem.constrained(m, "U"))
    assert np.array_equal(solver.build_block_system(m, spec).b_d, want)


def test_explicit_lambda_desired_state_loads_as_before(moving_spec):
    spec = dataclasses.replace(
        moving_spec, desired_state=lambda x, t: np.sin(3.0 * x) * np.cos(2.0 * t) + x * t)
    m = mesh.build_mesh(spec, 8)
    for subdiv in (0, 1, 2):
        want = oracles.assemble_load_reference(m, spec.desired_state,
                                               fem.constrained(m, "U"), subdiv)
        got = solver.build_block_system(m, spec, quad_subdiv=subdiv).b_d
        assert np.array_equal(got, want), subdiv
    assert solver.solve_optimality(m, spec).residual <= 1e-8
