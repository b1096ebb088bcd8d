"""Error metrics and convergence reporting.

The mesh-dependent seminorm |||w||| is the kappa-weighted L2 norm of the
spatial gradient over the fitted subdomains; the star seminorm adds the
seminorm of the discrete Riesz representative of dt w.  The energy error
curly-E integrates the unweighted spatial-gradient mismatch of state and
adjoint against the exact pair, whose closed form (``problem.exact_partials``)
costs one cosine per quadrature point for both fields' dx; its points are
those of ``fem.quadrature``, the loop of the load.  The reference variant,
with the same loop, replaces the exact pair by a discrete solution
on a finer mesh, read through a point locator that uses the strip layout
of ``mesh.strips``: a point's time picks its strip, and one vectorized
binary search over the strip's right edges picks its triangle (ties:
lowest element index)."""

from __future__ import annotations

import csv
import dataclasses
import math
from typing import Optional

import numpy as np

from . import fem, solver
from .errors import PointLocationError, SolverError
from .mesh import SpaceTimeMesh, strips
from .problem import ProblemSpec, exact_partials

__all__ = [
    "triple_norm",
    "star_norm",
    "energy_error",
    "reference_error",
    "PointLocator",
    "compute_eoc",
    "ConvergenceReport",
]

RIESZ_IDENTITY_RTOL = 1e-10
LOCATE_TOL = 1e-12  # barycentric slack of PointLocator's containment test


def _triple_sq(mesh: SpaceTimeMesh, spec: ProblemSpec, w: np.ndarray,
               geometry) -> float:
    _, _, area, dldx, _ = geometry
    dxw = np.einsum("mj,mj->m", w[mesh.triangles], dldx)
    kap = spec.kappa_of_region(mesh.regions)
    return float(np.sum(kap * area * dxw * dxw))


def triple_norm(mesh: SpaceTimeMesh, spec: ProblemSpec, w: np.ndarray) -> float:
    """|||w||| = (sum_i kappa_i || dx w ||^2_{Q_i})^(1/2) for nodal w."""
    return math.sqrt(_triple_sq(mesh, spec, w, fem.triangle_geometry(mesh)))


def star_norm(mesh: SpaceTimeMesh, spec: ProblemSpec, w: np.ndarray) -> float:
    """|||w|||_* = (|||w|||^2 + |||z_h(dt w)|||^2)^(1/2), where z_h solves
    the discrete Riesz problem in W for the time-derivative functional.

    Verifies the discrete Riesz identity rhs.z = |||z|||^2 on every call."""
    geometry = fem.triangle_geometry(mesh)
    dofs_w = fem.adjoint_dofmap(mesh, "W")
    r = fem.assemble_time_weighted_load(mesh, w, dofs_w, geometry=geometry)
    z = solver.solve_riesz(mesh, spec, r, geometry=geometry)
    lhs = float(r @ z)
    rhs = _triple_sq(mesh, spec, z, geometry)
    if abs(lhs - rhs) > RIESZ_IDENTITY_RTOL * max(abs(lhs), abs(rhs)):
        raise SolverError(
            f"discrete Riesz identity violated: rhs.z={lhs!r} vs |||z|||^2={rhs!r}"
        )
    return math.sqrt(_triple_sq(mesh, spec, w, geometry) + rhs)


def _error_integral(mesh: SpaceTimeMesh, discrete, reference, subdiv: int,
                    geometry) -> float:
    """(sum_i ||r_i - d_i||^2)^(1/2) by ``fem.quadrature``, for
    element-constant d_i and r_i = reference(x, t, t_index=...)[i], the
    field of that loop; ``geometry`` is ``fem.triangle_geometry(mesh)``."""
    x, _, area, _, _ = geometry
    acc = np.zeros(mesh.num_triangles)
    for _, w, rows in fem.quadrature(mesh, reference, subdiv, x):
        errors = [r - d for r, d in zip(rows, discrete)]
        point = errors[0] * errors[0]
        for e in errors[1:]:
            point += e * e
        point *= w
        acc += point
    return math.sqrt(float(np.sum(acc * area)))


def energy_error(mesh: SpaceTimeMesh, spec: ProblemSpec, u: np.ndarray,
                 p: np.ndarray, subdiv: int = 1,
                 spacetime_gradient: bool = False) -> float:
    """curly-E: unweighted L2 mismatch of the (spatial) gradients of state
    and adjoint against the exact pair, by composite degree-5 quadrature
    with true-subdomain branch selection; one ``exact_partials`` call per
    quadrature point gives every exact partial of both fields, with its
    t-only factors computed once per time class."""
    if spec.exact_state is None or spec.exact_adjoint is None:
        raise ValueError("energy_error requires exact state and adjoint fields")
    geometry = fem.triangle_geometry(mesh)
    dxu, dtu = fem.element_gradients(mesh, u, geometry=geometry)
    dxp, dtp = fem.element_gradients(mesh, p, geometry=geometry)
    derivs = ("dx", "dt") if spacetime_gradient else ("dx",)
    return _error_integral(mesh, [dxu, dxp, dtu, dtp],
                           lambda x, t, t_index: exact_partials(spec, x, t, derivs,
                                                                t_index=t_index),
                           subdiv,
                           geometry)


class PointLocator:
    """Point location in a mesh whose triangles are in ``build_mesh``'s
    strip order, read from ``mesh.strips``, which raises ValueError for
    another mesh.  ``locate`` picks a point's strip by its t and the first
    triangle there whose right edge it is not right of (barycentrics from
    ``geometry``, tolerance LOCATE_TOL), by one binary search for the whole
    batch, and tests that triangle.  Ties on a shared edge or vertex go to
    the lowest id, so a point in the band of a time line tries the strip
    below first.  Only within about LOCATE_TOL * h of a vertex can the
    search return another triangle that holds the point within the
    tolerance, or miss a point outside the mesh by about that much.
    ``geometry`` is ``fem.triangle_geometry(mesh)`` when not given."""

    def __init__(self, mesh: SpaceTimeMesh, *, geometry=None):
        x, t, _, dldx, dldt = fem.triangle_geometry(mesh) if geometry is None else geometry
        # corner 0 and the gradients of lam1, lam2: contiguous, for the gathers
        self.corner = tuple(np.ascontiguousarray(c) for c in (
            x[:, 0], t[:, 0], dldx[:, 1], dldt[:, 1], dldx[:, 2], dldt[:, 2]))
        self.times, _, top1, self.first = strips(mesh)
        # the corner opposite the right edge: 2 with corner 1 on the top line
        self.opposite = np.where(top1, 2, 0)
        self.steps = int(np.max(np.diff(self.first)) - 1).bit_length()
        # an apex holds points up to 2 LOCATE_TOL strip heights past its line
        self.band = 2.0 * LOCATE_TOL * np.max(np.diff(self.times))
        # a point more than one mesh extent outside the bounding box is
        # outside the mesh; clamping it there keeps its barycentrics finite
        # (per column: a min over axis 0 of the (N, 2) array is 15x slower)
        low, high = (np.array([f(c) for c in mesh.vertices.T]) for f in (np.min, np.max))
        self.box = (2.0 * low - high, 2.0 * high - low)

    def _lam(self, k, x, t):
        """Barycentrics (lam0, lam1, lam2) of each point in triangle k."""
        x0, t0, lam1_dx, lam1_dt, lam2_dx, lam2_dt = (c[k] for c in self.corner)
        dx, dt = x - x0, t - t0
        lam1 = lam1_dx * dx + lam1_dt * dt
        lam2 = lam2_dx * dx + lam2_dt * dt
        return 1.0 - lam1 - lam2, lam1, lam2

    def _search(self, x, t, strip):
        """First triangle of each point's strip that it is not right of (else
        the strip's last), and whether that triangle holds it."""
        lo, hi = self.first[strip], self.first[strip + 1] - 1
        for _ in range(self.steps):
            mid = (lo + hi) // 2
            lam0, _, lam2 = self._lam(mid, x, t)
            left = np.where(self.opposite[mid] == 0, lam0, lam2) >= -LOCATE_TOL
            hi, lo = np.where(left, mid, hi), np.where(left, lo, np.minimum(mid + 1, hi))
        return lo, np.all(np.stack(self._lam(lo, x, t)) >= -LOCATE_TOL, axis=0)

    def locate(self, x, t) -> np.ndarray:
        """Element index containing each point.  PointLocationError names the
        first non-finite point, or else the first point outside the mesh, in
        input order."""
        x, t = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, t))
        _name_first(~(np.isfinite(x) & np.isfinite(t)), x, t, "point is not finite")
        cx, ct = (np.clip(v, lo, hi) for v, lo, hi in zip((x, t), *self.box))
        # in the band of a time line, try the strip below it, then the one above
        line = np.searchsorted(self.times, ct + self.band, side="right") - 1
        strip = np.clip(line, 0, len(self.times) - 2)
        near = (strip > 0) & (ct - self.times[strip] <= self.band)
        out, inside = self._search(cx, ct, strip - near)
        again = np.flatnonzero(near & ~inside)
        if len(again):
            out[again], inside[again] = self._search(cx[again], ct[again], strip[again])
        _name_first(~inside, x, t, "point outside the mesh")
        return out


def _name_first(bad, x, t, message):
    """PointLocationError naming the first point that ``bad`` flags, if any."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PointLocationError(message, point=(float(x[i]), float(t[i])))


def reference_error(coarse_mesh: SpaceTimeMesh, u: np.ndarray, p: np.ndarray,
                    ref_mesh: SpaceTimeMesh, u_ref: np.ndarray,
                    p_ref: np.ndarray, subdiv: int = 1) -> float:
    """curly-E_r: same integrand as energy_error with the exact gradients
    replaced by those of a reference solution on a finer mesh."""
    geometry = fem.triangle_geometry(coarse_mesh)
    dxu, _ = fem.element_gradients(coarse_mesh, u, geometry=geometry)
    dxp, _ = fem.element_gradients(coarse_mesh, p, geometry=geometry)
    ref_geometry = fem.triangle_geometry(ref_mesh)
    rxu, _ = fem.element_gradients(ref_mesh, u_ref, geometry=ref_geometry)
    rxp, _ = fem.element_gradients(ref_mesh, p_ref, geometry=ref_geometry)
    ref = np.stack([rxu, rxp], axis=1)
    locator = PointLocator(ref_mesh, geometry=ref_geometry)
    return _error_integral(coarse_mesh, [dxu, dxp],
                           lambda x, t, t_index: ref[locator.locate(x, t[t_index])].T,
                           subdiv,
                           geometry)


def compute_eoc(hs, errors):
    """Observed orders log(e_{k-1}/e_k) / log(h_{k-1}/h_k); first entry is
    None, non-monotone sequences yield negative orders verbatim, and an
    order next to a zero error or between two equal h is undefined and
    None."""
    hs = [float(v) for v in hs]
    errors = [float(v) for v in errors]
    if len(hs) != len(errors):
        raise ValueError("hs and errors must have equal length")
    orders: list[Optional[float]] = [None]
    for k in range(1, len(hs)):
        e0, e1 = errors[k - 1], errors[k]
        log_h = math.log(hs[k - 1] / hs[k])
        orders.append(None if e0 == 0.0 or e1 == 0.0 or log_h == 0.0 else
                      math.log(e0 / e1) / log_h)
    return orders


@dataclasses.dataclass
class ConvergenceReport:
    """Rows of (dofs, h, error, order); serializes to the four-column CSV."""

    dofs: list
    h: list
    error: list
    order: list

    @classmethod
    def from_results(cls, dofs, hs, errors) -> "ConvergenceReport":
        return cls(
            dofs=[int(d) for d in dofs],
            h=[float(v) for v in hs],
            error=[float(v) for v in errors],
            order=compute_eoc(hs, errors),
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["dofs", "h", "error", "order"])
            for d, h, e, o in zip(self.dofs, self.h, self.error, self.order):
                writer.writerow(
                    [d, f"{h:.17g}", f"{e:.17g}", "" if o is None else f"{o:.17g}"]
                )
