"""Problem definitions: interface transport, classification, manufactured
fields and the derived desired state."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import oracles
from stcontrol import fem, mesh, metrics, problem
from stcontrol.errors import GeometryError

PI = math.pi


def closed_form_s(t):
    return 0.05 * (1.0 - np.cos(2.0 * PI * np.asarray(t, dtype=float)))


def test_displacement_zero_velocity(static_spec):
    ts = np.linspace(0.0, 1.0, 11)
    assert np.all(problem.displacement(static_spec, ts) == 0.0)


def test_displacement_moving_closed_form(moving_spec):
    ts = np.linspace(0.0, 1.0, 101)
    got = problem.displacement(moving_spec, ts)
    assert np.allclose(got, closed_form_s(ts), rtol=0.0, atol=1e-14)
    assert problem.displacement(moving_spec, 0.5) == pytest.approx(0.1, abs=1e-14)


def test_displacement_scalar_passthrough(moving_spec):
    out = problem.displacement(moving_spec, 0.25)
    assert isinstance(out, float)


def test_displacement_rejects_times_outside_horizon(moving_spec):
    with pytest.raises(ValueError):
        problem.displacement(moving_spec, -0.1)
    with pytest.raises(ValueError):
        problem.displacement(moving_spec, 1.1)
    # roundoff slack just past the endpoints is clipped, not rejected
    end = problem.displacement(moving_spec, 1.0 + 1e-13)
    assert end == pytest.approx(problem.displacement(moving_spec, 1.0), abs=1e-14)


def test_tabulated_velocity_matches_simpson_oracle():
    ts = np.linspace(0.0, 1.0, 321)
    vel = problem.velocity_tabulated(ts, 0.1 * PI * np.sin(2.0 * PI * ts))

    def prim(t):
        return vel.antiderivative(t) - vel.antiderivative(0.0)

    for t in (0.2, 0.5, 0.77, 1.0):
        want = oracles.simpson_integral(vel.fn, 0.0, t, panels=4000)
        assert prim(t) == pytest.approx(want, abs=1e-10)
    # and the spline itself tracks the underlying sine transport
    assert np.allclose(prim(ts), closed_form_s(ts), atol=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 321, 10_000])
@pytest.mark.parametrize("spacing", ["even", "random"])
def test_tabulated_velocity_matches_scipy_cubic_spline(n, spacing):
    # scipy's not-a-knot CubicSpline (the line for 2 samples, the parabola
    # for 3) as an independent oracle, inside and past the samples
    rng = np.random.default_rng(n)
    times = (np.r_[0.0, np.sort(rng.uniform(0.0, 1.0, n - 2)), 1.0] if spacing == "random"
             else np.linspace(0.0, 1.0, n))
    values = rng.standard_normal(n)
    vel = problem.velocity_tabulated(times, values)
    spline = CubicSpline(times, values)
    ts = np.r_[np.linspace(-0.05, 1.05, 1001), times]
    for got, want in ((vel.fn(ts), spline(ts)),
                      (vel.antiderivative(ts), spline.antiderivative()(ts))):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_velocity_needs_an_antiderivative():
    with pytest.raises(TypeError):
        problem.Velocity(fn=lambda t: np.ones_like(np.asarray(t, dtype=float)))


def test_classify_static(static_spec):
    assert oracles.classify_point(static_spec, 0.5, 0.3) == 1
    assert oracles.classify_point(static_spec, 0.2, 0.3) == 2
    assert oracles.classify_point(static_spec, 0.8, 0.9) == 2
    assert oracles.classify_point(static_spec, 0.4, 0.7) == oracles.ON_INTERFACE
    assert oracles.classify_point(static_spec, 0.6, 0.0) == oracles.ON_INTERFACE


def test_classify_moving(moving_spec):
    # at t = 0.5 the band sits at (0.5, 0.7)
    assert oracles.classify_point(moving_spec, 0.6, 0.5) == 1
    assert oracles.classify_point(moving_spec, 0.45, 0.5) == 2
    assert oracles.classify_point(moving_spec, 0.5, 0.5) == oracles.ON_INTERFACE
    xs = np.array([0.45, 0.6, 0.5])
    got = oracles.classify_point(moving_spec, xs, np.full(3, 0.5))
    assert got.tolist() == [2, 1, oracles.ON_INTERFACE]


def test_initial_and_terminal_conditions(static_spec, moving_spec):
    xs = np.linspace(0.0, 1.0, 101)
    for spec in (static_spec, moving_spec):
        u0 = spec.exact_state.evaluate(spec, xs, np.zeros_like(xs))
        pT = spec.exact_adjoint.evaluate(spec, xs, np.ones_like(xs))
        assert np.max(np.abs(u0)) < 1e-14
        assert np.max(np.abs(pT)) < 1e-14


def test_interface_continuity(static_spec, moving_spec):
    ts = np.linspace(0.0, 1.0, 201)
    outer = np.ones(ts.shape, dtype=bool)
    for spec in (static_spec, moving_spec):
        s = problem.displacement(spec, ts)
        for field in (spec.exact_state, spec.exact_adjoint):
            for curve in (spec.offset_a + s, spec.offset_b + s):
                # curve points take branch 1; the oracle evaluates the
                # region-2 formula there
                assert np.all(oracles.classify_point(spec, curve, ts) == oracles.ON_INTERFACE)
                v1 = field.evaluate(spec, curve, ts)
                v2 = oracles.closed_form_partial_reference(field, "value", curve, ts, s,
                                                           outer, None)
                assert np.max(np.abs(v1 - v2)) < 1e-12


def test_state_value_on_interface(static_spec):
    # both phases hit sin(pi/6) + sin(23pi/6) = 1/2 - 1/2 on the curves
    x, ts, s = np.array([0.4]), np.array([0.5]), np.zeros(1)
    want = (math.sin(PI / 6.0) + math.sin(23.0 * PI / 6.0)) * math.sin(PI * 0.25)
    state = static_spec.exact_state
    assert state.evaluate(static_spec, x, ts)[0] == pytest.approx(want, abs=1e-12)
    for outer in (False, True):
        branch = oracles.closed_form_partial_reference(state, "value", x, ts, s,
                                                       np.array([outer]), None)
        assert branch[0] == pytest.approx(want, abs=1e-12)


def test_desired_state_matches_fd_oracle(static_spec, moving_spec):
    rng = np.random.default_rng(1234)
    for spec in (static_spec, moving_spec):
        x, t = oracles.sample_away_from_interface(spec, rng, 300, 1e-3)
        got = problem.derive_desired_state(spec)(x, t)
        want = oracles.fd_desired_state(spec, x, t)
        # atol floor covers points landing on the zero set of u_d
        assert np.allclose(got, want, rtol=1e-6, atol=1e-12)


def test_desired_state_needs_exact_fields():
    spec = problem.ProblemSpec(
        x_min=0.0, x_max=1.0, t_final=1.0, kappa1=1.0, kappa2=1.0, eta=1.0,
        velocity=problem.velocity_zero(), offset_a=0.3, offset_b=0.7,
    )
    with pytest.raises(ValueError):
        problem.derive_desired_state(spec)


def test_desired_state_function_prefers_explicit(static_spec):
    seen = []

    def ud(x, t):
        seen.append(t)
        return np.zeros_like(np.asarray(x, dtype=float))

    spec = dataclasses.replace(static_spec, desired_state=ud)
    # the explicit u_d is called on each point's own time, with or without
    # time classes
    x, t, t_index = np.array([0.1, 0.5, 0.9]), np.array([0.25, 0.75]), np.array([1, 0, 1])
    got = problem.desired_state_function(spec)(x, t, t_index=t_index)
    assert np.array_equal(got, np.zeros(3))
    assert np.array_equal(seen.pop(), [0.75, 0.25, 0.75])
    problem.desired_state_function(spec)(x, 0.5)
    assert seen.pop() == 0.5
    derived = problem.desired_state_function(static_spec)(x, t, t_index=t_index)
    assert np.all(derived != 0.0)


SPEC_ARGS = dict(
    x_min=0.0, x_max=1.0, t_final=1.0, kappa1=1.0, kappa2=1.0, eta=1.0,
    velocity=problem.velocity_zero(), offset_a=0.3, offset_b=0.7,
)


def test_spec_validation_errors():
    base = SPEC_ARGS
    for bad in (
        dict(base, x_min=2.0),
        dict(base, t_final=0.0),
        dict(base, kappa1=0.0),
        dict(base, kappa2=-1.0),
        dict(base, eta=0.0),
        dict(base, offset_a=0.7, offset_b=0.3),
        dict(base, offset_a=-0.1),      # curve leaves the domain
        dict(base, offset_b=1.0),
    ):
        with pytest.raises(GeometryError):
            problem.ProblemSpec(**bad)
    # a moving band that would exit the domain is caught over the horizon
    with pytest.raises(GeometryError):
        problem.ProblemSpec(**dict(base, velocity=problem.velocity_sine(), offset_b=0.95))


@pytest.mark.parametrize("name", ["x_min", "x_max", "t_final", "kappa1", "kappa2", "eta",
                                  "offset_a", "offset_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_parameters(name, value):
    with pytest.raises(GeometryError, match=f"{name} must be finite"):
        problem.ProblemSpec(**dict(SPEC_ARGS, **{name: value}))


@pytest.mark.parametrize("params", [
    dict(frequency=0.0), dict(frequency=math.nan), dict(frequency=math.inf),
    dict(amplitude=math.inf), dict(amplitude=math.nan),
])
def test_velocity_sine_rejects_bad_parameters(params):
    with pytest.raises(ValueError, match="sine"):
        problem.velocity_sine(**params)


def test_velocity_sine_antiderivative_consistency():
    vel = problem.velocity_sine()
    ts = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (vel.antiderivative(ts + h) - vel.antiderivative(ts - h)) / (2.0 * h)
    assert np.allclose(fd, vel.fn(ts), atol=1e-8)


def test_kappa_of_region(static_spec):
    regions = np.array([1, 2, oracles.ON_INTERFACE])
    got = static_spec.kappa_of_region(regions)
    assert got.tolist() == [0.5, 1.0, 0.5]


def test_piecewise_field_missing_derivative(static_spec):
    # the family provides value, dx, dt and dxx and no other partial
    field = static_spec.exact_state
    with pytest.raises(ValueError, match="dtt"):
        field.evaluate(static_spec, np.array([0.5]), np.array([0.5]), "dtt")


def test_exact_pair_matches_closed_form_oracle(static_spec, moving_spec):
    rng = np.random.default_rng(77)
    tol = 1e-14 * (static_spec.x_max - static_spec.x_min)
    for spec, moving in ((static_spec, False), (moving_spec, True)):
        t = np.concatenate([rng.uniform(0.0, 1.0, 600), [0.0, 1.0] * 6])
        s = oracles.example1_displacement(t, moving)
        curves = np.concatenate([0.4 + s[600:], 0.6 + s[600:]])
        offsets = np.repeat([-0.5 * tol, 0.0, 0.5 * tol], 4)
        x = np.concatenate([
            rng.uniform(0.4, 0.6, 200) + s[:200],      # region 1
            rng.uniform(0.0, 0.4 + s[200:400]),        # region 2, left
            rng.uniform(0.6 + s[400:600], 1.0),        # region 2, right
            curves + np.tile(offsets, 2),              # within tol of a curve
        ])
        t = np.concatenate([t, t[600:]])
        want = oracles.example1_pair(x, t, moving, spec.eta)
        assert want["region"][600:].tolist() == [1] * 24
        for field in ("state", "adjoint"):
            for deriv in ("value", "dx", "dt", "dxx"):
                got = getattr(spec, f"exact_{field}").evaluate(spec, x, t, deriv)
                ref = want[field, deriv]
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (spec.name, field, deriv)
        # u_d = u + p_t + v p_x + kappa p_xx with each point's own region
        v = 0.1 * PI * np.sin(2.0 * PI * t) if moving else np.zeros_like(t)
        kappa = np.where(want["region"] == 1, spec.kappa1, spec.kappa2)
        ref = (want["state", "value"] + want["adjoint", "dt"] + v * want["adjoint", "dx"]
               + kappa * want["adjoint", "dxx"])
        got = problem.derive_desired_state(spec)(x, t)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), spec.name


def counting_velocity(sizes=None):
    """The moving preset's velocity, counting calls of fn and antiderivative
    and, given a dict ``sizes``, recording each call's number of times in
    sizes["fn"] or sizes["antiderivative"]."""
    calls = {"fn": 0, "antiderivative": 0}
    sine = problem.velocity_sine()

    def counted(name, f):
        def wrapper(t):
            calls[name] += 1
            if sizes is not None:
                sizes[name].append(np.size(t))
            return f(t)
        return wrapper

    vel = problem.Velocity(fn=counted("fn", sine.fn),
                           antiderivative=counted("antiderivative", sine.antiderivative))
    return vel, calls


def test_one_batch_computes_the_interface_geometry_once():
    vel, calls = counting_velocity()
    spec = problem._example1(vel, "counting")
    x, t = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 23))
    u_d = problem.desired_state_function(spec)
    calls.update(fn=0, antiderivative=0)
    u_d(x, t)
    # one displacement s(t) = F(t) - F(0) and one v(t) per batch
    assert calls["antiderivative"] <= 2 and calls["fn"] <= 1, calls
    for field in (spec.exact_state, spec.exact_adjoint):
        for deriv in ("value", "dx", "dt", "dxx"):
            calls.update(fn=0, antiderivative=0)
            field.evaluate(spec, x, t, deriv)
            assert calls["antiderivative"] <= 2, (deriv, calls)
            assert calls["fn"] <= (1 if deriv == "dt" else 0), (deriv, calls)


def test_exact_partials_match_each_field(moving_spec):
    x, t = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 23))
    derivs = ("dx", "dt", "value", "dxx")
    rows = problem.exact_partials(moving_spec, x, t, derivs)
    assert rows.shape == (8,) + x.shape
    want = [f.evaluate(moving_spec, x, t, d) for d in derivs
            for f in (moving_spec.exact_state, moving_spec.exact_adjoint)]
    for got, ref in zip(rows, want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("spacetime", [False, True])
def test_energy_error_computes_the_interface_geometry_once_per_point(spacetime):
    vel, calls = counting_velocity()
    spec = problem._example1(vel, "counting")
    m = mesh.build_mesh(spec, 4)
    u = np.linspace(0.0, 1.0, m.num_vertices)
    calls.update(fn=0, antiderivative=0)
    metrics.energy_error(m, spec, u, -u, spacetime_gradient=spacetime)
    points = len(fem.subdivided_rule(fem.rule_degree5(), 1).points)
    # one s(t) = F(t) - F(0) per quadrature point for both fields and all
    # partials; v(t) only for the time derivatives
    assert calls == {"antiderivative": 2 * points, "fn": points if spacetime else 0}


def test_load_and_energy_error_evaluate_the_velocity_per_time_class():
    sizes = {"fn": [], "antiderivative": []}
    vel, calls = counting_velocity(sizes)
    spec = problem._example1(vel, "counting")
    layers = 8
    m = mesh.build_mesh(spec, layers)
    points = len(fem.subdivided_rule(fem.rule_degree5(), 1).points)
    assert m.num_triangles > 2 * layers
    u = np.linspace(0.0, 1.0, m.num_vertices)
    for run in (lambda: fem.assemble_load(m, problem.desired_state_function(spec)),
                lambda: metrics.energy_error(m, spec, u, -u, spacetime_gradient=True)):
        calls.update(fn=0, antiderivative=0)
        sizes["fn"].clear()
        sizes["antiderivative"].clear()
        run()
        # per quadrature point, s(t) = F(t) - F(0) and v(t) on the strip
        # mesh's 2 x layers distinct times, not on its triangles
        assert calls == {"antiderivative": 2 * points, "fn": points}
        assert sorted(sizes["antiderivative"]) == [1] * points + [2 * layers] * points
        assert sizes["fn"] == [2 * layers] * points


@pytest.mark.parametrize("make", [problem.example1_static, problem.example1_moving])
def test_kernel_regions_match_the_region_rule(make):
    # the state's dx, A k_r cos g, takes the branch of the region the kernel
    # chose; near the curves the two branches differ by about 2x, since
    # k_1 = 2 k_2 and A > 0 for t > 0
    spec = make()
    rule = fem.subdivided_rule(fem.rule_degree5(), 1)
    xs, ts = [], []
    for layers in (15, 60):
        x, t, *_ = fem.triangle_geometry(mesh.build_mesh(spec, layers))
        xs.append((x @ rule.points.T).ravel())
        ts.append((t @ rule.points.T).ravel())
    # every float within 2 tol of both curves, tol = 1e-14 (x_max - x_min)
    tol = 1e-14 * (spec.x_max - spec.x_min)
    t = np.linspace(0.01, 1.0, 37)
    s = problem.displacement(spec, t)
    for curve in (spec.offset_a + s, spec.offset_b + s):
        near = curve[:, None] + np.linspace(-2.0 * tol, 2.0 * tol, 401)
        xs.append(near.ravel())
        ts.append(np.repeat(t, near.shape[1]))
    x, t = np.concatenate(xs), np.concatenate(ts)
    da, db, s = problem.curve_offsets(spec, x, t)
    regions = oracles.regions(spec, da, db)
    on_curves = slice(-2 * 37 * 401, None)
    assert {0, 1, 2} <= set(regions[on_curves].tolist())
    outer = regions == 2
    dx = spec.exact_state.evaluate(spec, x, t, "dx")
    want = oracles.closed_form_partial_reference(spec.exact_state, "dx", x, t, s, outer, None)
    assert np.array_equal(dx, want)
    other = oracles.closed_form_partial_reference(spec.exact_state, "dx", x, t, s, ~outer, None)
    assert np.all(dx[on_curves] != other[on_curves])
