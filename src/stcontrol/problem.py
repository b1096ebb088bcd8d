"""Model problem definitions.

The state equation lives on the space-time cylinder Q = (x_min, x_max) x
(0, t_final).  A diffusion coefficient kappa takes the value kappa1 between
two interface curves x = offset_a + s(t) and x = offset_b + s(t) and kappa2
outside them, where s(t) is the time integral of a transport velocity v(t).
The control problem drives the state toward a desired field u_d under an
energy regularization weighted by eta.  ``curve_offsets`` is the one home of
the exact-curve geometry; ``PiecewiseField`` is the manufactured pair of the
presets.  One kernel evaluates its partials on a whole batch of points, for
one field (``PiecewiseField.evaluate``) or both (``exact_partials``), with
each point's wave and kappa chosen by the region of its true subdomain.
A batch may give its times as the distinct values t plus each point's index
into them (``t_index``), as the quadrature loops of fem and metrics do: then
the t-only factors (s(t), v(t), the curves, the envelopes and the sines and
cosines of 10 pi s + 23 pi/6) are computed once per distinct time and
gathered to the points, and only the factors in x - s(t) are per point.

Everything here is plain data plus vectorized numpy callables; meshing and
assembly consume these definitions but never reach back into them.  Only
numpy is imported up front: scipy.interpolate loads when a tabulated
velocity is built, and scipy.integrate when a velocity without an
antiderivative is integrated, so the presets never pay for either.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple, Optional

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

ON_INTERFACE = 0


@dataclasses.dataclass(frozen=True)
class Velocity:
    """Interface transport speed v(t).

    ``antiderivative`` is an exact primitive of ``fn`` when one is known;
    displacement falls back to adaptive quadrature (abs tol 1e-12) otherwise.
    Both callables must accept numpy arrays.
    """

    fn: Callable
    antiderivative: Optional[Callable] = None
    name: str = "custom"


def velocity_zero() -> Velocity:
    return Velocity(
        fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        antiderivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        name="zero",
    )


def velocity_sine(amplitude: float = 0.1 * math.pi, frequency: float = 1.0) -> Velocity:
    """v(t) = amplitude * sin(2*pi*frequency*t), with exact primitive."""
    w = 2.0 * math.pi * frequency
    return Velocity(
        fn=lambda t: amplitude * np.sin(w * np.asarray(t, dtype=float)),
        antiderivative=lambda t: -(amplitude / w) * np.cos(w * np.asarray(t, dtype=float)),
        name="sine",
    )


def velocity_tabulated(times, values) -> Velocity:
    """Cubic-spline interpolant of sampled speeds; displacement integrates
    the spline exactly via its polynomial antiderivative."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(np.asarray(times, dtype=float), np.asarray(values, dtype=float))
    return Velocity(fn=spline, antiderivative=spline.antiderivative(), name="tabulated")


def _displacement_fn(velocity: Velocity) -> Callable:
    """s(t) = integral of v from 0 to t as a vectorized callable."""
    if velocity.antiderivative is not None:
        prim = velocity.antiderivative
        base = float(np.asarray(prim(0.0)))

        def s_exact(t):
            return np.asarray(prim(np.asarray(t, dtype=float)), dtype=float) - base

        return s_exact

    from scipy import integrate

    s_quad = np.vectorize(
        lambda ti: integrate.quad(velocity.fn, 0.0, ti, epsabs=1e-12, limit=200)[0],
        otypes=[float],
    )
    return lambda t: s_quad(np.asarray(t, dtype=float))


# Manufactured pair shared by the two bundled presets.  The curves move with
# the waves, so sin(k_i (x - s) - phase_i) = 1/2 on both curves for both
# branches at all times, and each field is continuous across the interface.

_PHASE1 = 47.0 * math.pi / 6.0
_PHASE2 = 23.0 * math.pi / 6.0
_K1 = 20.0 * math.pi
_K2 = 10.0 * math.pi
_KS = 10.0 * math.pi


@dataclasses.dataclass(frozen=True)
class PiecewiseField:
    """One field of the manufactured family,

        amplitude * envelope(t) * [sin(k_i (x - s) - phase_i) + sin(10 pi s + 23 pi/6)]

    on region i = 1, 2 with (k_i, phase_i) = waves[i - 1]; interface points
    take region 1.  The envelope is sin(pi t / 2), or sin(pi (1 - t) / 2)
    with ``fade``.  Amplitude 0 gives the zero field."""

    amplitude: float
    fade: bool = False
    waves: tuple = ((_K1, _PHASE1), (_K2, _PHASE2))

    def evaluate(self, spec: "ProblemSpec", x, t, deriv: str = "value"):
        """The partial ``deriv`` ("value", "dx", "dt" or "dxx") at (x, t)."""
        shape, pts = _points(spec, x, t, with_v=deriv == "dt")
        return self._partials(pts, {deriv}, {})[deriv].reshape(shape)

    def _partials(self, pts: "_Batch", derivs, trig):
        """The partials ``derivs`` at the flat points of ``pts``; each point
        takes the wave (k, phase) of its region.  The t-only factors are
        computed on the batch's times and gathered to the points.  Each sine
        and cosine is computed only when a partial uses it, and at most once
        per ``trig`` memo: fields evaluated on the same points share g, sin g
        and cos g when their ``waves`` are the same, and the factors of
        gs = 10 pi s + 23 pi/6 always."""

        def shared(key, make):
            if key not in trig:
                trig[key] = make()
            return trig[key]

        at = pts.at
        waves = self.waves
        # k and phase per point: waves[0] on region 1 and the interface, else waves[1]
        k, phase = shared(waves, lambda: np.where(pts.region != 2, *np.reshape(waves, (2, 2, 1))))
        g = shared(("g", waves), lambda: k * (pts.x - shared("s", lambda: at(pts.s))) - phase)
        gs = shared("gs", lambda: _KS * pts.s + _PHASE2)
        sin_g = (shared(("sin g", waves), lambda: np.sin(g))
                 if {"value", "dt", "dxx"} & derivs else None)
        cos_g = (shared(("cos g", waves), lambda: np.cos(g))
                 if {"dx", "dt"} & derivs else None)
        w = (shared(("w", waves), lambda: sin_g + shared("sin gs", lambda: at(np.sin(gs))))
             if {"value", "dt"} & derivs else None)
        half_pi = 0.5 * math.pi
        tau = 1.0 - pts.t if self.fade else pts.t
        env = at(np.sin(half_pi * tau))
        amp = self.amplitude
        out = {}
        for deriv in derivs:
            if deriv == "value":
                out[deriv] = amp * w * env
            elif deriv == "dx":
                out[deriv] = amp * (k * cos_g) * env
            elif deriv == "dxx":
                out[deriv] = amp * (-(k * k) * sin_g) * env
            elif deriv == "dt":
                denv = at((-half_pi if self.fade else half_pi) * np.cos(half_pi * tau))
                v = shared("v", lambda: at(pts.v))
                w_dt = -k * v * cos_g + shared("KS v cos gs", lambda: at(_KS * pts.v * np.cos(gs)))
                out[deriv] = amp * (w_dt * env + w * denv)
            else:
                raise ValueError(f"no partial {deriv!r}; expected value, dx, dt or dxx")
        return out


def exact_partials(spec: "ProblemSpec", x, t, derivs, *, t_index=None):
    """The partials ``derivs`` of the exact state and adjoint at (x, t) as
    rows (state derivs[0], adjoint derivs[0], state derivs[1], ...), from one
    s(t), one region per point and one set of shared sines and cosines.
    With ``t_index``, point i is (x[i], t[t_index[i]]) and the rows have the
    shape of x and t_index broadcast."""
    need = set(derivs)
    shape, pts = _points(spec, x, t, "dt" in need, t_index)
    trig = {}
    u = spec.exact_state._partials(pts, need, trig)
    p = spec.exact_adjoint._partials(pts, need, trig)
    rows = [f[d] for d in derivs for f in (u, p)]
    return np.reshape(rows, (len(rows),) + shape)


class _Batch(NamedTuple):
    """Flat points of one batch: x and the region per point; the times t,
    s(t) and v(t) (None when no partial needs it) per time; and ``index``,
    the time of each point, or None when each point has its own."""

    x: np.ndarray
    region: np.ndarray
    t: np.ndarray
    s: np.ndarray
    v: Optional[np.ndarray]
    index: Optional[np.ndarray]

    def at(self, values):
        """Per-time ``values`` at each point."""
        return _take(values, self.index)


def _take(values, index):
    """values[index], or ``values`` itself when index is None."""
    return values if index is None else values[index]


def _points(spec, x, t, with_v, t_index=None):
    """The shape of the batch (x, t) or, with ``t_index``, (x, t[t_index])
    broadcast, and its ``_Batch`` with s(t), the regions and (``with_v``)
    v(t) each computed once."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    if t_index is None:
        x, t = np.broadcast_arrays(x, t)
        t = t.ravel()
    else:
        x, t_index = np.broadcast_arrays(x, np.asarray(t_index))
        t_index = t_index.ravel()
    shape = x.shape
    x = x.ravel()
    da, db, s = curve_offsets(spec, x, t, t_index=t_index)
    v = np.asarray(spec.velocity.fn(t), dtype=float) if with_v else None
    return shape, _Batch(x, _regions(spec, da, db), t, s, v, t_index)


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
        if not (self.x_min < self.x_max):
            raise GeometryError("domain requires x_min < x_max")
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
        s = _displacement_fn(self.velocity)(ts)
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
    out = _displacement_fn(spec.velocity)(tt)
    return float(out) if np.ndim(t) == 0 else out


def curve_offsets(spec: ProblemSpec, x, t, *, t_index=None):
    """Signed offsets x - (offset_a + s(t)) and x - (offset_b + s(t)) of the
    points (x, t) from the two exact interface curves, and s(t).  With
    ``t_index``, point i is (x[i], t[t_index[i]]): s(t) and both curves are
    computed once per time in t, and s is returned per time."""
    s = displacement(spec, t)
    x = np.asarray(x, dtype=float)
    return (x - _take(spec.offset_a + s, t_index),
            x - _take(spec.offset_b + s, t_index), s)


def _regions(spec: ProblemSpec, da, db):
    tol = 1e-14 * (spec.x_max - spec.x_min)
    region = np.where((da > 0.0) & (db < 0.0), 1, 2)
    return np.where((np.abs(da) <= tol) | (np.abs(db) <= tol), ON_INTERFACE, region)


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
    """u_d from the exact pair through the strong adjoint equation:

        u_d = u + dt p + v(t) dx p + kappa_i dxx p,

    with the wave and kappa of each point's true subdomain, as a callable
    (x, t, *, t_index=None) with the points of ``exact_partials``."""
    if spec.exact_state is None or spec.exact_adjoint is None:
        raise ValueError("deriving u_d requires exact state and adjoint fields")

    def u_d(x, t, *, t_index=None):
        shape, pts = _points(spec, x, t, True, t_index)
        trig = {}
        u = spec.exact_state._partials(pts, {"value"}, trig)["value"]
        p = spec.exact_adjoint._partials(pts, {"dt", "dx", "dxx"}, trig)
        kappa = spec.kappa_of_region(pts.region)
        # trig["v"] is v(t) at the points, gathered once for dt p
        return (u + p["dt"] + trig["v"] * p["dx"] + kappa * p["dxx"]).reshape(shape)

    return u_d


def desired_state_function(spec: ProblemSpec) -> Callable:
    """The u_d the solver consumes, as a callable (x, t, *, t_index=None)
    with the points of ``exact_partials``: derived from the exact pair, or
    the explicit ``spec.desired_state`` called on (x, t[t_index])."""
    if spec.desired_state is None:
        return derive_desired_state(spec)
    explicit = spec.desired_state

    def u_d(x, t, *, t_index=None):
        return explicit(x, _take(t, t_index))

    return u_d
