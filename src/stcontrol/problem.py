"""Model problem definitions.

The state equation lives on the space-time cylinder Q = (x_min, x_max) x
(0, t_final).  A diffusion coefficient kappa takes the value kappa1 between
two interface curves x = offset_a + s(t) and x = offset_b + s(t) and kappa2
outside them, where s(t) is the time integral of a transport velocity v(t).
The control problem drives the state toward a desired field u_d under an
energy regularization weighted by eta.  ``curve_offsets`` is the one home of
the exact-curve geometry; ``PiecewiseField`` is the manufactured pair of the
presets, whose partials one kernel evaluates per batch of points, for one
field (``PiecewiseField.evaluate``) or both (``exact_partials``).

Everything here is plain data plus vectorized numpy callables; meshing and
assembly consume these definitions but never reach back into them.  Only
numpy is imported up front: scipy.interpolate loads when a tabulated
velocity is built, and scipy.integrate when a velocity without an
antiderivative is integrated, so the presets never pay for either.
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
    "classify_point",
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
        return _evaluate(spec, x, t, lambda *pts: [self._branch(*pts, {deriv}, {})[deriv]],
                         with_v=deriv == "dt")[0]

    def _branch(self, branch, x, t, s, v, derivs, trig):
        """The partials ``derivs`` on points of one branch.  Each sine and
        cosine is computed only when a partial uses it, and at most once per
        ``trig`` memo: fields evaluated on the same points share g, sin g and
        cos g when their wave (k, phase) is the same, and gs, sin gs and
        cos gs always."""
        k, phase = self.waves[branch]

        def shared(key, make):
            if key not in trig:
                trig[key] = make()
            return trig[key]

        g = shared(("g", k, phase), lambda: k * (x - s) - phase)
        gs = shared("gs", lambda: _KS * s + _PHASE2)
        sin_g = (shared(("sin g", k, phase), lambda: np.sin(g))
                 if {"value", "dt", "dxx"} & derivs else None)
        cos_g = (shared(("cos g", k, phase), lambda: np.cos(g))
                 if {"dx", "dt"} & derivs else None)
        w = (shared(("w", k, phase), lambda: sin_g + shared("sin gs", lambda: np.sin(gs)))
             if {"value", "dt"} & derivs else None)
        half_pi = 0.5 * math.pi
        tau = 1.0 - t if self.fade else t
        env = np.sin(half_pi * tau)
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
                denv = (-half_pi if self.fade else half_pi) * np.cos(half_pi * tau)
                cos_gs = shared("cos gs", lambda: np.cos(gs))
                w_dt = -k * v * cos_g + _KS * v * cos_gs
                out[deriv] = amp * (w_dt * env + w * denv)
            else:
                raise ValueError(f"no partial {deriv!r}; expected value, dx, dt or dxx")
        return out


def exact_partials(spec: "ProblemSpec", x, t, derivs):
    """The partials ``derivs`` of the exact state and adjoint at (x, t) as
    rows (state derivs[0], adjoint derivs[0], state derivs[1], ...), from one
    s(t), one region split and one set of shared sines and cosines."""
    need = set(derivs)

    def combine(branch, x, t, s, v):
        trig = {}
        u = spec.exact_state._branch(branch, x, t, s, v, need, trig)
        p = spec.exact_adjoint._branch(branch, x, t, s, v, need, trig)
        return [f[d] for d in derivs for f in (u, p)]

    return _evaluate(spec, x, t, combine, with_v="dt" in need)


def _evaluate(spec, x, t, combine, with_v=False):
    """The rows combine(branch, x, t, s, v) on the points of branch 0
    (region 1 and the interface) and branch 1 (region 2), gathered into one
    (rows, *shape) array; s, the region and (``with_v``) v are computed
    once per call."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    shape = x.shape
    x, t = x.ravel(), t.ravel()
    da, db, s = curve_offsets(spec, x, t)
    in1 = _regions(spec, da, db) != 2
    v = np.asarray(spec.velocity.fn(t), dtype=float) if with_v else None
    out = None
    for branch, pts in enumerate((np.flatnonzero(in1), np.flatnonzero(~in1))):
        rows = combine(branch, x[pts], t[pts], s[pts], None if v is None else v[pts])
        if out is None:
            out = np.empty((len(rows), x.size))
        out[:, pts] = rows
    return out.reshape((len(out),) + shape)


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


def curve_offsets(spec: ProblemSpec, x, t):
    """Signed offsets x - (offset_a + s(t)) and x - (offset_b + s(t)) of the
    points (x, t) from the two exact interface curves, and s(t)."""
    s = displacement(spec, t)
    x = np.asarray(x, dtype=float)
    return x - (spec.offset_a + s), x - (spec.offset_b + s), s


def _regions(spec: ProblemSpec, da, db):
    tol = 1e-14 * (spec.x_max - spec.x_min)
    region = np.where((da > 0.0) & (db < 0.0), 1, 2)
    return np.where((np.abs(da) <= tol) | (np.abs(db) <= tol), ON_INTERFACE, region)


def classify_point(spec: ProblemSpec, x, t):
    """Region of (x, t) relative to the exact interface: 1 between the
    curves, 2 outside, ON_INTERFACE (0) within 1e-14*width of either curve."""
    da, db, _ = curve_offsets(spec, x, t)
    region = _regions(spec, da, db)
    return region if region.shape else int(region)


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

    evaluated with the true-subdomain branch and kappa at each point."""
    if spec.exact_state is None or spec.exact_adjoint is None:
        raise ValueError("deriving u_d requires exact state and adjoint fields")

    def combine(branch, x, t, s, v):
        trig = {}
        u = spec.exact_state._branch(branch, x, t, s, v, {"value"}, trig)["value"]
        p = spec.exact_adjoint._branch(branch, x, t, s, v, {"dt", "dx", "dxx"}, trig)
        kap = spec.kappa1 if branch == 0 else spec.kappa2
        return [u + p["dt"] + v * p["dx"] + kap * p["dxx"]]

    return lambda x, t: _evaluate(spec, x, t, combine, with_v=True)[0]


def desired_state_function(spec: ProblemSpec) -> Callable:
    """The u_d the solver consumes: explicit closure if given, else derived."""
    if spec.desired_state is not None:
        return spec.desired_state
    return derive_desired_state(spec)
