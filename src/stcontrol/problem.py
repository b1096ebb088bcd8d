"""Model problem definitions.

The state equation lives on the space-time cylinder Q = (x_min, x_max) x
(0, t_final).  A diffusion coefficient kappa takes the value kappa1 between
two interface curves x = offset_a + s(t) and x = offset_b + s(t) and kappa2
outside them, where s(t) is the time integral of a transport velocity v(t).
The control problem drives the state toward a desired field u_d under an
energy regularization weighted by eta.  ``curve_offsets`` is the one home of
the exact-curve geometry; ``PiecewiseField`` is the manufactured pair of the
presets.  Every partial of a field, and u_d, is one closed form

    alpha(t, r) sin g + beta(t, r) cos g + gamma(t),  g = k_r (x - s(t)) - phase_r,

with r the region of the point's true subdomain; for u_d the cos g terms
cancel, since (dt + v dx) g = 0.  One kernel builds the small tables alpha,
beta and gamma over a batch's distinct times and the two regions, and
evaluates them on the whole batch, for one field (``PiecewiseField.evaluate``),
both (``exact_partials``) or u_d (``derive_desired_state``).  A batch may
give its times as the distinct values t plus each point's index into them
(``t_index``), as the quadrature loops of fem and metrics do: then s(t),
v(t), the curves and the tables are computed once per distinct time, and
each point needs its region test, x - s(t), g, sin g and cos g as its rows
need them, and its table gathers.

Everything here is plain data plus vectorized numpy callables; meshing and
assembly consume these definitions but never reach back into them.  numpy
is the only package imported: a tabulated velocity is a not-a-knot cubic
spline built here, and every velocity carries its exact antiderivative, so
s(t) is never integrated numerically.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError

__all__ = [
    "Velocity",
    "velocity_zero",
    "velocity_sine",
    "velocity_tabulated",
    "PiecewiseField",
    "exact_partials",
    "ProblemSpec",
    "displacement",
    "curve_offsets",
    "example1_static",
    "example1_moving",
    "derive_desired_state",
    "desired_state_function",
]


@dataclasses.dataclass(frozen=True)
class Velocity:
    """Interface transport speed v(t) and an exact primitive of it.

    ``displacement`` is ``antiderivative(t) - antiderivative(0)``.  Both
    callables must accept numpy arrays.
    """

    fn: Callable
    antiderivative: Callable
    name: str = "custom"


def velocity_zero() -> Velocity:
    return Velocity(
        fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        antiderivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        name="zero",
    )


def velocity_sine(amplitude: float = 0.1 * math.pi, frequency: float = 1.0) -> Velocity:
    """v(t) = amplitude * sin(2*pi*frequency*t), with exact primitive;
    ValueError unless the amplitude is finite and the frequency finite and
    nonzero (the primitive divides by it)."""
    if not (math.isfinite(frequency) and frequency != 0.0):
        raise ValueError(f"sine frequency must be finite and nonzero, got {frequency!r}")
    if not math.isfinite(amplitude):
        raise ValueError(f"sine amplitude must be finite, got {amplitude!r}")
    w = 2.0 * math.pi * frequency
    return Velocity(
        fn=lambda t: amplitude * np.sin(w * np.asarray(t, dtype=float)),
        antiderivative=lambda t: -(amplitude / w) * np.cos(w * np.asarray(t, dtype=float)),
        name="sine",
    )


def velocity_tabulated(times, values) -> Velocity:
    """Not-a-knot cubic spline of sampled speeds (the line for 2 samples, the
    parabola for 3) and its piecewise-quartic antiderivative; the end pieces
    extend past the samples.  ValueError unless the samples are at least 2,
    finite and equally many, at strictly increasing times."""
    x, y = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if (x.ndim != 1 or x.shape != y.shape or len(x) < 2
            or not (np.isfinite(x).all() and np.isfinite(y).all() and (np.diff(x) > 0.0).all())):
        raise ValueError("need at least 2 finite samples of times and values, "
                         "equally many, at strictly increasing times")
    n, h = len(x), np.diff(x)
    d = np.diff(y) / h
    # knot slopes m: C2 at the inner knots, and at each end a continuous third
    # derivative across the second knot (not-a-knot), or the line or parabola;
    # row k of the tridiagonal system is (lower[k - 1], diag[k], upper[k])
    lower, diag, upper, b = np.zeros(n - 1), np.ones(n), np.zeros(n - 1), np.empty(n)
    lower[:-1], diag[1:-1], upper[1:] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    b[1:-1] = 3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])
    if n == 2:
        b[:] = d[0]
    elif n == 3:
        upper[0], lower[-1], b[[0, 2]] = 1.0, 1.0, 2.0 * d
    else:
        w = h[0] + h[1]
        diag[0], upper[0], b[0] = h[1], w, ((h[0] + 2.0 * w) * h[1] * d[0]
                                             + h[0] ** 2 * d[1]) / w
        w = h[-2] + h[-1]
        lower[-1], diag[-1], b[-1] = w, h[-2], (h[-1] ** 2 * d[-2]
                                                + (2.0 * w + h[-1]) * h[-2] * d[-1]) / w
    m = _solve_tridiagonal(lower, diag, upper, b)
    # the coefficients of each piece i in powers of t - x[i], highest first;
    # the quartic's constant is the integral over the pieces before it
    c = (m[:-1] + m[1:] - 2.0 * d) / h
    cubic = np.array([c / h, (d - m[:-1]) / h - c, m[:-1], y[:-1]])
    quartic = np.vstack([cubic / [[4.0], [3.0], [2.0], [1.0]], np.zeros(n - 1)])
    quartic[4, 1:] = np.cumsum(_horner(quartic, slice(None), h))[:-1]

    def piecewise(coef):
        def at(t):
            t = np.asarray(t, dtype=float)
            i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
            return _horner(coef, i, t - x[i])
        return at

    return Velocity(fn=piecewise(cubic), antiderivative=piecewise(quartic), name="tabulated")


def _solve_tridiagonal(lower, diag, upper, b) -> np.ndarray:
    """The solution of the tridiagonal system with rows (lower[k - 1],
    diag[k], upper[k]) and right-hand side b, by elimination without
    pivoting in O(n): the spline's inner rows are diagonally dominant, and
    its end rows leave the pivots positive."""
    lo, di, up, y = lower.tolist(), diag.tolist(), upper.tolist(), b.tolist()
    for k in range(1, len(di)):
        f = lo[k - 1] / di[k - 1]
        di[k] -= f * up[k - 1]
        y[k] -= f * y[k - 1]
    y[-1] /= di[-1]
    for k in range(len(di) - 2, -1, -1):
        y[k] = (y[k] - up[k] * y[k + 1]) / di[k]
    return np.array(y)


def _horner(coef, i, dt):
    """The polynomials coef[:, i], highest power first, at dt."""
    out = coef[0, i]
    for row in coef[1:]:
        out = out * dt + row[i]
    return out


# Manufactured pair shared by the two bundled presets.  The curves move with
# both sines, so sin(k_i (x - s) - phase_i) = 1/2 on both curves for both
# branches at all times, and each field is continuous across the interface.
# Other (k_i, phase_i) would break that continuity, so they are constants.

_PHASE1 = 47.0 * math.pi / 6.0
_PHASE2 = 23.0 * math.pi / 6.0
_K1 = 20.0 * math.pi
_K2 = 10.0 * math.pi
_KS = 10.0 * math.pi
# k_r and phase_r of the kernel's region r: 0 on region 1 and the interface,
# 1 on region 2
_K = np.array([_K1, _K2])
_PHASE = np.array([_PHASE1, _PHASE2])


@dataclasses.dataclass(frozen=True)
class PiecewiseField:
    """One field of the manufactured family,

        amplitude * envelope(t) * [sin(k_i (x - s) - phase_i) + sin(10 pi s + 23 pi/6)]

    on region i = 1, 2 with (k_1, phase_1) = (20 pi, 47 pi/6) and (k_2,
    phase_2) = (10 pi, 23 pi/6); interface points take region 1.  The
    envelope is sin(pi t / 2), or sin(pi (1 - t) / 2) with ``fade``.
    Amplitude 0 gives the zero field."""

    amplitude: float
    fade: bool = False

    def evaluate(self, spec: "ProblemSpec", x, t, deriv: str = "value"):
        """The partial ``deriv`` ("value", "dx", "dt" or "dxx") at (x, t)."""
        return _evaluate(spec, x, t, None, deriv == "dt",
                         lambda t, s, v: [self._form(deriv, t, s, v)])[0]

    def _envelope(self, t, slope=False):
        """amplitude * envelope, or with ``slope`` its time derivative, on
        the times t."""
        half_pi = 0.5 * math.pi
        arg = half_pi * (1.0 - t if self.fade else t)
        if not slope:
            return self.amplitude * np.sin(arg)
        return self.amplitude * ((-half_pi if self.fade else half_pi) * np.cos(arg))

    def _form(self, deriv, t, s, v):
        """The tables (alpha, beta, gamma) of the partial ``deriv`` on the
        times t with displacement s and speed v (see ``_evaluate``).  With
        A = amplitude * envelope, the partials of A [sin g + sin gs] are

            value  A sin g + A sin gs
            dx     A k cos g
            dxx    -A k^2 sin g
            dt     A' sin g - A v k cos g + A' sin gs + A 10 pi v cos gs,

        since dt g = -k v and dt gs = 10 pi v."""
        a = self._envelope(t)
        if deriv == "value":
            return _by_region(a), None, a * np.sin(_KS * s + _PHASE2)
        if deriv == "dx":
            return None, _by_region(a, _K), None
        if deriv == "dxx":
            return _by_region(a, -(_K * _K)), None, None
        if deriv == "dt":
            da = self._envelope(t, slope=True)
            gs = _KS * s + _PHASE2
            return (_by_region(da), _by_region(-(a * v), _K),
                    da * np.sin(gs) + a * (_KS * v) * np.cos(gs))
        raise ValueError(f"no partial {deriv!r}; expected value, dx, dt or dxx")


def exact_partials(spec: "ProblemSpec", x, t, derivs, *, t_index=None):
    """The partials ``derivs`` of the exact state and adjoint at (x, t) as
    rows (state derivs[0], adjoint derivs[0], state derivs[1], ...), from one
    s(t), one region and one g per point, and at most one sine and one
    cosine per point for all rows.  With ``t_index``,
    point i is (x[i], t[t_index[i]]) and the rows have the shape of x and
    t_index broadcast."""
    fields = (spec.exact_state, spec.exact_adjoint)
    return _evaluate(spec, x, t, t_index, "dt" in derivs,
                     lambda t, s, v: [f._form(d, t, s, v) for d in derivs for f in fields])


def _by_region(per_time, per_region=None):
    """The (times, 2) table per_time[i] * per_region[r], or per_time[i]."""
    if per_region is None:
        return per_time[:, None].repeat(2, axis=1)
    return np.multiply.outer(per_time, per_region)


def _evaluate(spec, x, t, t_index, with_v, forms):
    """Rows of closed forms at the points (x, t) or, with ``t_index``,
    (x[i], t[t_index[i]]), in the shape of the points broadcast.

    ``forms(t, s, v)`` gets the times, s(t) and (``with_v``) v(t), and
    returns one (alpha, beta, gamma) per row.  A row is

        alpha[time, r] sin g + beta[time, r] cos g + gamma[time],
        g = k_r (x - s(time)) - phase_r,

    leaving out each term whose table is None (alpha and beta are never
    both None), with r = 0 on region 1 and the interface and r = 1 on
    region 2.  Each point needs its region, its g, sin g if some row has an
    alpha and cos g if some row has a beta; the tables are small and are
    gathered to the points."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    if t_index is None:
        t_index = np.arange(t.size).reshape(t.shape)
    x, t_index = np.broadcast_arrays(x, np.asarray(t_index))
    shape = x.shape
    x, t, t_index = x.ravel(), t.ravel(), t_index.ravel()
    s = displacement(spec, t)
    s_at = s.take(t_index)
    # region 2: more than the interface tolerance left of curve a or right
    # of curve b (db <= da); points between the curves or within the
    # tolerance of either take region 1
    da, db = _offsets_at(spec, x, s_at)
    tol = _interface_tol(spec)
    outside = (da < -tol) | (db > tol)
    g = x - s_at
    del s_at, da, db
    v = np.asarray(spec.velocity.fn(t), dtype=float) if with_v else None
    rows = forms(t, s, v)
    # the flat index of each point's (time, region) in a (times, 2) table
    cell = t_index * 2
    cell += outside
    g *= np.tile(_K, len(t)).take(cell)
    g -= np.tile(_PHASE, len(t)).take(cell)
    sin_g = np.sin(g) if any(alpha is not None for alpha, _, _ in rows) else None
    cos_g = np.cos(g) if any(beta is not None for _, beta, _ in rows) else None
    del g
    out = np.empty((len(rows), len(x)))
    for row, (alpha, beta, gamma) in zip(out, rows):
        table, factor = (beta, cos_g) if alpha is None else (alpha, sin_g)
        table.take(cell, out=row)
        row *= factor
        if alpha is not None and beta is not None:
            term = beta.take(cell)
            term *= cos_g
            row += term
        if gamma is not None:
            row += gamma.take(t_index)
    return out.reshape((len(rows),) + shape)


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """Full description of one control problem instance.

    ``desired_state`` is either a vectorized callable (x, t) -> value or
    None, in which case it is derived from the exact state/adjoint pair.
    Exact fields are optional; metrics that need them raise otherwise.
    """

    x_min: float
    x_max: float
    t_final: float
    kappa1: float
    kappa2: float
    eta: float
    velocity: Velocity
    offset_a: float
    offset_b: float
    desired_state: Optional[Callable] = None
    exact_state: Optional[PiecewiseField] = None
    exact_adjoint: Optional[PiecewiseField] = None
    name: str = "custom"

    def __post_init__(self):
        for name in ("x_min", "x_max", "t_final", "kappa1", "kappa2", "eta",
                     "offset_a", "offset_b"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.x_min < self.x_max):
            raise GeometryError("domain requires x_min < x_max")
        if not math.isfinite(self.x_max - self.x_min):
            raise GeometryError("domain width x_max - x_min must be finite")
        if self.t_final <= 0.0:
            raise GeometryError("t_final must be positive")
        if self.kappa1 <= 0.0 or self.kappa2 <= 0.0:
            raise GeometryError("diffusion coefficients must be positive")
        if self.eta <= 0.0:
            raise GeometryError("regularization weight eta must be positive")
        if not (self.offset_a < self.offset_b):
            raise GeometryError("interface offsets require offset_a < offset_b")
        # Strict interiority of both curves over the whole time horizon,
        # sampled densely; the mesher re-checks exactly on its time lines.
        ts = np.linspace(0.0, self.t_final, 2001)
        s = displacement(self, ts)
        lo = self.offset_a + s
        hi = self.offset_b + s
        if not (np.all(lo > self.x_min) and np.all(hi < self.x_max)):
            raise GeometryError("interface must stay strictly inside the domain for all t")

    def kappa_of_region(self, region):
        """kappa on region labels (interface points take the region-1 value)."""
        return np.where(np.asarray(region) != 2, self.kappa1, self.kappa2)


def displacement(spec: ProblemSpec, t):
    """Interface displacement s(t); raises for t outside [0, t_final]."""
    tt = np.asarray(t, dtype=float)
    slack = 1e-12 * max(spec.t_final, 1.0)
    if np.any(tt < -slack) or np.any(tt > spec.t_final + slack):
        raise ValueError(f"time {t!r} outside [0, {spec.t_final}]")
    tt = np.clip(tt, 0.0, spec.t_final)
    prim = spec.velocity.antiderivative
    base = float(np.asarray(prim(0.0)))
    out = np.asarray(prim(tt), dtype=float) - base
    return float(out) if np.ndim(t) == 0 else out


def curve_offsets(spec: ProblemSpec, x, t):
    """Signed offsets x - (offset_a + s(t)) and x - (offset_b + s(t)) of the
    points (x, t) from the two exact interface curves, and s(t)."""
    s = displacement(spec, t)
    return (*_offsets_at(spec, np.asarray(x, dtype=float), s), s)


def _offsets_at(spec: ProblemSpec, x, s):
    """x - (offset_a + s) and x - (offset_b + s): the offsets of the points
    x from the two curves when each point's displacement is s."""
    return x - (spec.offset_a + s), x - (spec.offset_b + s)


def _interface_tol(spec: ProblemSpec) -> float:
    """Distance from a curve within which a point is on the interface."""
    return 1e-14 * (spec.x_max - spec.x_min)


def _example1(velocity: Velocity, name: str) -> ProblemSpec:
    eta = 1e-6
    return ProblemSpec(
        x_min=0.0,
        x_max=1.0,
        t_final=1.0,
        kappa1=0.5,
        kappa2=1.0,
        eta=eta,
        velocity=velocity,
        offset_a=0.4,
        offset_b=0.6,
        exact_state=PiecewiseField(amplitude=1.0),
        exact_adjoint=PiecewiseField(amplitude=-eta, fade=True),
        name=name,
    )


def example1_static() -> ProblemSpec:
    """Oscillatory manufactured pair, interface at rest."""
    return _example1(velocity_zero(), "example1-static")


def example1_moving() -> ProblemSpec:
    """Same pair transported by v(t) = 0.1 pi sin(2 pi t)."""
    return _example1(velocity_sine(), "example1-moving")


def derive_desired_state(spec: ProblemSpec) -> Callable:
    """u_d from the exact pair through the strong adjoint equation

        u_d = u + dt p + v(t) dx p + kappa_i dxx p,

    with the wave and kappa of each point's true subdomain, as a callable
    (x, t, *, t_index=None) with the points of ``exact_partials``.  Each g =
    k (x - s(t)) - phase is constant along the curves' motion, (dt + v dx) g
    = 0, so the cos g terms of dt p and v dx p cancel and, with A = amplitude
    * envelope,

        u_d = [A_u + A_p' - kappa_i k_i^2 A_p] sin g
              + (A_u + A_p') sin gs + A_p 10 pi v cos gs:

    one sine per point."""
    u, p = spec.exact_state, spec.exact_adjoint
    if u is None or p is None:
        raise ValueError("deriving u_d requires exact state and adjoint fields")
    kappa_k2 = np.array([spec.kappa1, spec.kappa2]) * (_K * _K)

    def rows(t, s, v):
        a_u, a_p, da_p = u._envelope(t), p._envelope(t), p._envelope(t, slope=True)
        gs = _KS * s + _PHASE2
        gamma = (a_u + da_p) * np.sin(gs) + a_p * (_KS * v) * np.cos(gs)
        return [(_by_region(a_u + da_p) - _by_region(a_p, kappa_k2), None, gamma)]

    def u_d(x, t, *, t_index=None):
        return _evaluate(spec, x, t, t_index, True, rows)[0]

    return u_d


def desired_state_function(spec: ProblemSpec) -> Callable:
    """The u_d the solver consumes, as a callable (x, t, *, t_index=None)
    with the points of ``exact_partials``: derived from the exact pair, or
    the explicit ``spec.desired_state`` called on (x, t[t_index])."""
    if spec.desired_state is None:
        return derive_desired_state(spec)
    explicit = spec.desired_state

    def u_d(x, t, *, t_index=None):
        return explicit(x, t if t_index is None else t[t_index])

    return u_d
