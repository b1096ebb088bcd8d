"""Norms, error measures, point location and convergence reporting."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from stcontrol import fem, mesh, metrics, solver
from stcontrol.errors import PointLocationError


def test_triple_norm_of_linear_in_x(static_spec, moving_spec):
    # |||x|||^2 = 0.2 kappa1 + 0.8 kappa2: a preset's band is 0.2 wide
    for spec, layers in ((static_spec, 30), (moving_spec, 30), (static_spec, 10)):
        m = mesh.build_mesh(spec, layers)
        got = metrics.triple_norm(m, spec, m.vertices[:, 0].copy()) ** 2
        assert abs(got - (spec.kappa1 * 0.2 + spec.kappa2 * 0.8)) <= 1e-12, (spec.name, layers)


def test_triple_norm_constant_vanishes(static_spec, static_mesh30):
    w = np.ones(static_mesh30.num_vertices)
    assert metrics.triple_norm(static_mesh30, static_spec, w) <= 1e-10


def test_triple_norm_homogeneous(static_spec, static_mesh30):
    rng = np.random.default_rng(5)
    w = rng.standard_normal(static_mesh30.num_vertices)
    one = metrics.triple_norm(static_mesh30, static_spec, w)
    three = metrics.triple_norm(static_mesh30, static_spec, 3.0 * w)
    assert three == pytest.approx(3.0 * one, rel=1e-12)


def test_triple_norm_matches_loop_oracle(static_spec):
    m = mesh.build_mesh(static_spec, 4)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(m.num_vertices)
    want = oracles.triple_sq_by_element(m, static_spec, w)
    assert metrics.triple_norm(m, static_spec, w) ** 2 == pytest.approx(want, rel=1e-13)


def test_star_norm_matches_dense_oracle_chain(static_spec):
    m = mesh.build_mesh(static_spec, 4)
    v = m.vertices
    w = np.sin(1.7 * v[:, 0] + 0.6 * v[:, 1])

    con = np.flatnonzero(fem.constrained(m, "W"))
    k = oracles.stiffness_by_element(m, static_spec)
    k[con, :] = 0.0
    k[:, con] = 0.0
    k[con, con] = 1.0
    r = oracles.time_weighted_load_by_element(m, w)
    r[con] = 0.0
    z = oracles.dense_lu_solve(k, r)
    want = math.sqrt(
        oracles.triple_sq_by_element(m, static_spec, w)
        + oracles.triple_sq_by_element(m, static_spec, z)
    )
    assert metrics.star_norm(m, static_spec, w) == pytest.approx(want, rel=1e-9)


def test_star_norm_dominates_triple_norm(static_spec, static_mesh30,
                                         static_solution30):
    u = static_solution30.u
    tri = metrics.triple_norm(static_mesh30, static_spec, u)
    star = metrics.star_norm(static_mesh30, static_spec, u)
    assert star > tri > 0.0
    # and for a random w on the free state dofs of 8 layers
    m = mesh.build_mesh(static_spec, 8)
    free = np.flatnonzero(~fem.constrained(m, "U"))
    w = np.zeros(m.num_vertices)
    w[free] = np.random.default_rng(3).uniform(-1.0, 1.0, free.size)
    assert metrics.triple_norm(m, static_spec, w) <= metrics.star_norm(m, static_spec, w)


def test_energy_error_requires_exact_pair(static_spec, static_mesh30,
                                          static_solution30):
    blind = dataclasses.replace(static_spec, exact_state=None, exact_adjoint=None)
    with pytest.raises(ValueError):
        metrics.energy_error(static_mesh30, blind,
                             static_solution30.u, static_solution30.p)


def test_energy_error_regression_pins(static_spec, static_mesh30, static_solution30,
                                      moving_spec, moving_mesh30, moving_solution30):
    e_static = metrics.energy_error(static_mesh30, static_spec,
                                    static_solution30.u, static_solution30.p)
    e_moving = metrics.energy_error(moving_mesh30, moving_spec,
                                    moving_solution30.u, moving_solution30.p)
    assert e_static == pytest.approx(9.83149746540117, rel=1e-6)
    assert e_moving == pytest.approx(9.145054594954168, rel=1e-6)


def test_energy_error_of_interpolant_pin(static_spec, static_mesh30):
    ui = oracles.lagrange_interpolate(static_mesh30, static_spec, static_spec.exact_state)
    pi = oracles.lagrange_interpolate(static_mesh30, static_spec, static_spec.exact_adjoint)
    e = metrics.energy_error(static_mesh30, static_spec, ui, pi)
    assert e == pytest.approx(8.93987848030806, rel=1e-6)


def test_p1_best_gradient_bound_puts_published_errors_out_of_reach_at_15_layers(
        static_spec, static_mesh30, moving_spec, moving_mesh30):
    # energy_error >= ||dx(u - u_h)|| >= the best P1 fit of dx u, for every
    # discrete u_h; acceptance 01/02 anchor 4.732 / 4.947 within a factor 2.5
    for spec, mesh30, anchor in ((static_spec, static_mesh30, 4.732),
                                 (moving_spec, moving_mesh30, 4.947)):
        mesh15 = mesh.build_mesh(spec, 15)
        bound15 = oracles.p1_best_gradient_approximation(mesh15, spec)
        bound30 = oracles.p1_best_gradient_approximation(mesh30, spec)
        assert bound15 > 2.5 * anchor
        assert bound30 < 2.5 * anchor

        sol = solver.solve_optimality(mesh15, spec)
        e_galerkin = metrics.energy_error(mesh15, spec, sol.u, sol.p)
        ui = oracles.lagrange_interpolate(mesh15, spec, spec.exact_state)
        pi = oracles.lagrange_interpolate(mesh15, spec, spec.exact_adjoint)
        e_interp = metrics.energy_error(mesh15, spec, ui, pi)
        assert bound15 <= e_interp
        assert bound15 <= e_galerkin <= 1.25 * bound15


def test_energy_error_insensitive_to_quadrature(static_spec, static_mesh30,
                                                static_solution30):
    base = metrics.energy_error(static_mesh30, static_spec,
                                static_solution30.u, static_solution30.p)
    fine = metrics.energy_error(static_mesh30, static_spec,
                                static_solution30.u, static_solution30.p, subdiv=2)
    assert abs(fine - base) <= 5e-3 * base


def test_solution_insensitive_to_load_quadrature(static_spec, static_mesh30,
                                                 static_solution30, moving_spec,
                                                 moving_mesh30, moving_solution30):
    cases = [
        (static_spec, static_mesh30, static_solution30),
        (moving_spec, moving_mesh30, moving_solution30),
    ]
    for spec, m, sol in cases:
        refined = solver.solve_optimality(m, spec, quad_subdiv=2)
        base = metrics.energy_error(m, spec, sol.u, sol.p)
        again = metrics.energy_error(m, spec, refined.u, refined.p)
        assert abs(again - base) <= 5e-3 * base


def test_spacetime_gradient_variant_is_larger(static_spec, static_mesh30,
                                              static_solution30):
    u, p = static_solution30.u, static_solution30.p
    plain = metrics.energy_error(static_mesh30, static_spec, u, p)
    full = metrics.energy_error(static_mesh30, static_spec, u, p,
                                spacetime_gradient=True)
    assert full > plain


def test_reference_error_against_self_is_zero(static_spec, static_mesh30,
                                              static_solution30):
    u, p = static_solution30.u, static_solution30.p
    e = metrics.reference_error(static_mesh30, u, p,
                                metrics.reference_data(static_mesh30, u, p))
    assert e == 0.0


def test_reference_error_tracks_energy_error(static_spec, static_mesh30,
                                             static_solution30):
    ref_mesh = mesh.build_mesh(static_spec, 120)
    ref = solver.solve_optimality(ref_mesh, static_spec)
    e_r = metrics.reference_error(static_mesh30, static_solution30.u,
                                  static_solution30.p,
                                  metrics.reference_data(ref_mesh, ref.u, ref.p))
    e = metrics.energy_error(static_mesh30, static_spec,
                             static_solution30.u, static_solution30.p)
    assert abs(e_r - e) <= 0.05 * e


def test_point_locator_centroids(moving_mesh30):
    m = moving_mesh30
    cx = np.mean(m.vertices[m.triangles, 0], axis=1)
    ct = np.mean(m.vertices[m.triangles, 1], axis=1)
    loc = metrics.PointLocator(m)
    assert np.array_equal(loc.locate(cx, ct), np.arange(m.num_triangles))


def test_point_locator_vertex_ties_take_lowest_incident(static_mesh30):
    m = static_mesh30
    loc = metrics.PointLocator(m)
    for vid in (0, 17, 101):
        incident = np.flatnonzero(np.any(m.triangles == vid, axis=1))
        got = loc.locate(m.vertices[vid, 0], m.vertices[vid, 1])
        assert got[0] == incident.min()


def test_point_locator_outside_raises(static_mesh30):
    loc = metrics.PointLocator(static_mesh30)
    with pytest.raises(PointLocationError) as err:
        loc.locate(1.5, 0.5)
    assert err.value.point[0] == 1.5
    with pytest.raises(PointLocationError):
        loc.locate(0.5, -0.25)


@pytest.mark.parametrize("preset", ["static_spec", "moving_spec"])
def test_point_locator_matches_brute_force_oracle(request, preset):
    spec = request.getfixturevalue(preset)
    coarse, fine = mesh.build_mesh(spec, 15), mesh.build_mesh(spec, 60)
    x, t, _, _, _ = fem.triangle_geometry(coarse)
    lam = fem.subdivided_rule(fem.rule_degree5(), 1).points.T
    tri = fine.triangles
    edges = np.unique(np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                              tri[:, [2, 0]]]), axis=1), axis=0)
    mid = 0.5 * (fine.vertices[edges[:, 0]] + fine.vertices[edges[:, 1]])
    # quadrature points, then vertices and edge midpoints, where triangles tie
    px = np.concatenate([(x @ lam).ravel(), fine.vertices[:, 0], mid[:, 0]])
    pt = np.concatenate([(t @ lam).ravel(), fine.vertices[:, 1], mid[:, 1]])
    want = oracles.locate_brute_force(fine, px, pt)
    assert np.all(want >= 0)
    assert np.array_equal(metrics.PointLocator(fine).locate(px, pt), want)


@pytest.mark.parametrize("preset", ["static_spec", "moving_spec"])
def test_point_locator_bracket_matches_unbracketed_search(request, monkeypatch, preset):
    spec = request.getfixturevalue(preset)
    loc = metrics.PointLocator(mesh.build_mesh(spec, 240))
    lam = fem.subdivided_rule(fem.rule_degree5(), 1).points.T
    for layers in (15, 30, 60):
        x, t, _, _, _ = fem.triangle_geometry(mesh.build_mesh(spec, layers))
        px, pt = (x @ lam).ravel(), (t @ lam).ravel()
        got = loc.locate(px, pt)
        with monkeypatch.context() as patch:
            patch.setattr(loc, "_search",
                          lambda *args: oracles.search_unbracketed(loc, *args))
            want = loc.locate(px, pt)
        assert np.array_equal(got, want), layers


def test_point_locator_names_first_outside_point_in_input_order(static_mesh30):
    loc = metrics.PointLocator(static_mesh30)
    with pytest.raises(PointLocationError) as err:
        loc.locate([0.5, 2.0, 0.3, -1.0], [0.5, 0.5, 0.5, 0.2])
    assert err.value.point == (2.0, 0.5)
    assert str(err.value).endswith("(2.0, 0.5)")


def test_point_locator_empty_batch(static_mesh30):
    got = metrics.PointLocator(static_mesh30).locate([], [])
    assert got.dtype == np.int64 and got.shape == (0,)


@pytest.mark.parametrize("point", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                   (0.5, -math.inf), (-math.inf, math.inf)])
def test_point_locator_names_first_non_finite_point(static_mesh30, point):
    loc = metrics.PointLocator(static_mesh30)
    with pytest.raises(PointLocationError) as err:
        loc.locate([0.5, 2.0, point[0], math.nan], [0.5, 0.5, point[1], 0.5])
    assert err.value.point == pytest.approx(point, nan_ok=True)
    assert "not finite" in str(err.value)


@pytest.mark.parametrize("point", [(1e308, 0.5), (0.5, 1e308), (-1e308, 0.5),
                                   (0.5, -1e308)])
def test_point_locator_refuses_a_huge_finite_point(static_mesh30, point):
    # no overflow warning on the way, which filterwarnings = error would raise
    loc = metrics.PointLocator(static_mesh30)
    with pytest.raises(PointLocationError) as err:
        loc.locate([0.5, point[0]], [0.5, point[1]])
    assert err.value.point == point
    assert "outside the mesh" in str(err.value)


def test_point_locator_refuses_a_mesh_out_of_strip_order(moving_spec, moving_mesh30):
    m = moving_mesh30
    k = int(np.argmax(m.vertices[m.triangles[:, 0], 1] > 0.5)) + 3
    swapped = m.triangles.copy()
    swapped[[k, k + 1]] = swapped[[k + 1, k]]
    # each triangle's corners rotated by its index mod 3, still counterclockwise
    shift = (np.arange(3) + np.arange(m.num_triangles)[:, None]) % 3
    rotated = np.take_along_axis(m.triangles, shift, axis=1)
    zero = np.zeros(m.num_vertices)
    for tri in (swapped, m.triangles[::-1], rotated):
        bad = dataclasses.replace(m, triangles=tri)
        for refuse in (metrics.PointLocator, mesh.strips,
                       lambda b: fem.assemble_load(b, lambda x, t, t_index: 1.0),
                       lambda b: metrics.energy_error(b, moving_spec, zero, zero)):
            with pytest.raises(ValueError, match="strip order"):
                refuse(bad)


def test_point_locator_accepts_a_mesh_read_back(tmp_path, moving_mesh30):
    m = moving_mesh30
    mesh.write_mesh(m, tmp_path / "m.stmesh")
    back = oracles.read_mesh_reference(tmp_path / "m.stmesh")
    cx = np.mean(m.vertices[m.triangles, 0], axis=1)
    ct = np.mean(m.vertices[m.triangles, 1], axis=1)
    px, pt = np.concatenate([cx, m.vertices[:, 0]]), np.concatenate([ct, m.vertices[:, 1]])
    assert np.array_equal(metrics.PointLocator(back).locate(px, pt),
                          metrics.PointLocator(m).locate(px, pt))


def _ulps(values, n):
    """``values`` moved n units in the last place, up for n > 0."""
    for _ in range(abs(n)):
        values = np.nextafter(values, math.copysign(math.inf, n))
    return values


def test_point_locator_tolerance_band_matches_brute_force_oracle(moving_spec,
                                                                 moving_mesh30):
    m, spec = moving_mesh30, moving_spec
    rng = np.random.default_rng(5)
    times = np.unique(m.vertices[:, 1])
    # on every time line, at random x and at the line's vertices, within 8 ulps
    line_x = np.concatenate([rng.uniform(spec.x_min, spec.x_max, 2 * len(times)),
                             m.vertices[::7, 0]])
    line_t = np.concatenate([np.repeat(times, 2), m.vertices[::7, 1]])
    px = [np.tile(line_x, 5)]
    pt = [np.concatenate([_ulps(line_t, n) for n in (-8, -1, 0, 1, 8)])]
    # just below 0 and above t_final, and within 1e-15 of x_min and x_max
    edge_t = rng.uniform(0.0, spec.t_final, 40)
    for x0, t0 in ((rng.uniform(spec.x_min, spec.x_max, 40), 0.0),
                   (rng.uniform(spec.x_min, spec.x_max, 40), spec.t_final)):
        px += [x0, x0]
        pt += [np.full(40, t0 - 1e-16), np.full(40, t0 + 1e-16)]
    for x0 in (spec.x_min, spec.x_max):
        px += [np.full(40, x0 - 1e-15), np.full(40, x0 + 1e-15)]
        pt += [edge_t, edge_t]
    # past x_max by more than the last triangle below a time line allows, but
    # not the first one above it: only the strip above holds these
    px.append(np.full(len(times) - 2, spec.x_max + 4.75e-14))
    pt.append(times[1:-1] - 1.5e-14)
    # and one point beyond the tolerance, in the last strip, amid the others
    out, far = len(edge_t), (spec.x_max + 1e-9, spec.t_final - 1e-3)
    px = np.insert(np.concatenate(px), out, far[0])
    pt = np.insert(np.concatenate(pt), out, far[1])
    want = oracles.locate_brute_force(m, px, pt)
    inside = want >= 0
    assert np.flatnonzero(~inside).tolist() == [out]
    loc = metrics.PointLocator(m)
    assert np.array_equal(loc.locate(px[inside], pt[inside]), want[inside])
    with pytest.raises(PointLocationError) as err:
        loc.locate(px, pt)
    assert err.value.point == far


def test_compute_eoc_known_rates():
    hs = [1.0, 0.5, 0.25]
    first = metrics.compute_eoc(hs, [1.0, 0.5, 0.25])
    assert first[0] is None
    assert first[1] == pytest.approx(1.0, rel=1e-14)
    assert first[2] == pytest.approx(1.0, rel=1e-14)
    second = metrics.compute_eoc(hs, [1.0, 0.25, 0.0625])
    assert second[1:] == pytest.approx([2.0, 2.0], rel=1e-14)
    with pytest.raises(ValueError):
        metrics.compute_eoc([1.0, 0.5], [1.0])


def test_compute_eoc_next_to_a_zero_error_is_none():
    hs = [1.0, 0.5, 0.25, 0.125]
    assert metrics.compute_eoc(hs, [0.0, 0.0, 0.0, 0.0]) == [None] * 4
    orders = metrics.compute_eoc(hs, [1.0, 0.0, 0.5, 0.25])
    assert orders[:3] == [None, None, None]
    assert orders[3] == pytest.approx(1.0, rel=1e-14)
    # two equal h leave the order undefined as well
    assert metrics.compute_eoc([0.1, 0.1], [1.0, 2.0]) == [None, None]
    orders = metrics.compute_eoc([0.2, 0.1, 0.1, 0.05], [4.0, 1.0, 2.0, 0.5])
    assert orders[2] is None
    assert orders[1] == pytest.approx(2.0, rel=1e-14)
    assert orders[3] == pytest.approx(2.0, rel=1e-14)


def test_convergence_report_roundtrip(tmp_path):
    rep = metrics.ConvergenceReport.from_results(
        [512, 1922, 7442], [0.2, 0.1, 0.05], [1.5, 0.7, 0.33]
    )
    path = tmp_path / "report.csv"
    rep.write_csv(path)
    back = oracles.read_csv(path)
    assert back.dofs == rep.dofs
    assert back.h == rep.h
    assert back.error == rep.error
    assert back.order[0] is None
    assert back.order[1:] == pytest.approx(rep.order[1:], rel=0)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        oracles.read_csv(bad)
