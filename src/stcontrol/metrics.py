"""Error metrics and convergence reporting.

The mesh-dependent seminorm |||w||| is the kappa-weighted L2 norm of the
spatial gradient over the fitted subdomains; the star seminorm adds the
seminorm of the discrete Riesz representative of dt w.  The energy error
curly-E integrates the unweighted spatial-gradient mismatch of state and
adjoint against the exact pair; the reference variant, with the same
quadrature loop, replaces it by a discrete solution on a finer mesh, read
through a uniform-grid point locator with CSR buckets that handles each
batch of points in one vectorized pass (ties: lowest element index).
"""

from __future__ import annotations

import csv
import dataclasses
import math
from typing import Optional

import numpy as np

from . import fem, solver
from .errors import PointLocationError, SolverError
from .mesh import SpaceTimeMesh
from .problem import ProblemSpec

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


def _triple_sq(mesh: SpaceTimeMesh, spec: ProblemSpec, w: np.ndarray) -> float:
    _, _, area, dldx, _ = fem.triangle_geometry(mesh)
    dxw = np.einsum("mj,mj->m", w[mesh.triangles], dldx)
    kap = spec.kappa_of_region(mesh.regions)
    return float(np.sum(kap * area * dxw * dxw))


def triple_norm(mesh: SpaceTimeMesh, spec: ProblemSpec, w: np.ndarray) -> float:
    """|||w||| = (sum_i kappa_i || dx w ||^2_{Q_i})^(1/2) for nodal w."""
    return math.sqrt(_triple_sq(mesh, spec, w))


def star_norm(mesh: SpaceTimeMesh, spec: ProblemSpec, w: np.ndarray) -> float:
    """|||w|||_* = (|||w|||^2 + |||z_h(dt w)|||^2)^(1/2), where z_h solves
    the discrete Riesz problem in W for the time-derivative functional.

    Verifies the discrete Riesz identity rhs.z = |||z|||^2 on every call."""
    dofs_w = fem.adjoint_dofmap(mesh, "W")
    r = fem.assemble_time_weighted_load(mesh, w, dofs_w)
    z = solver.solve_riesz(mesh, spec, r)
    lhs = float(r @ z)
    rhs = _triple_sq(mesh, spec, z)
    if abs(lhs - rhs) > RIESZ_IDENTITY_RTOL * max(abs(lhs), abs(rhs)):
        raise SolverError(
            f"discrete Riesz identity violated: rhs.z={lhs!r} vs |||z|||^2={rhs!r}"
        )
    return math.sqrt(_triple_sq(mesh, spec, w) + rhs)


def _error_integral(mesh: SpaceTimeMesh, discrete, reference, subdiv: int) -> float:
    """(sum_i ||r_i - d_i||^2)^(1/2) by composite degree-5 quadrature, for
    element-constant d_i and r_i = reference(x, t)[i]."""
    x, t, area, _, _ = fem.triangle_geometry(mesh)
    rule = fem.subdivided_rule(fem.rule_degree5(), subdiv)
    acc = np.zeros(mesh.num_triangles)
    for lam, w in zip(rule.points, rule.weights):
        point = 0.0
        for r, d in zip(reference(x @ lam, t @ lam), discrete):
            e = r - d
            point = point + e * e
        acc += w * point
    return math.sqrt(float(np.sum(acc * area)))


def energy_error(mesh: SpaceTimeMesh, spec: ProblemSpec, u: np.ndarray,
                 p: np.ndarray, subdiv: int = 1,
                 spacetime_gradient: bool = False) -> float:
    """curly-E: unweighted L2 mismatch of the (spatial) gradients of state
    and adjoint against the exact pair, by composite degree-5 quadrature
    with true-subdomain branch selection."""
    if spec.exact_state is None or spec.exact_adjoint is None:
        raise ValueError("energy_error requires exact state and adjoint fields")
    dxu, dtu = fem.element_gradients(mesh, u)
    dxp, dtp = fem.element_gradients(mesh, p)
    fields = [(f, d) for d in (("dx", "dt") if spacetime_gradient else ("dx",))
              for f in (spec.exact_state, spec.exact_adjoint)]
    return _error_integral(mesh, [dxu, dxp, dtu, dtp],
                           lambda x, t: [f.evaluate(spec, x, t, d) for f, d in fields], subdiv)


def _expand(counts):
    """Row and in-row offset of each entry of CSR rows of lengths ``counts``."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)


class PointLocator:
    """Uniform-grid bucket accelerator over a triangulation with a
    barycentric containment test (boundary tolerance LOCATE_TOL) on the
    gradients of ``fem.triangle_geometry``.  Bucket b holds the triangle ids
    ``candidates[starts[b]:starts[b + 1]]``, ascending.  ``locate`` tests all
    (point, candidate) pairs of a batch in one vectorized pass, gives ties
    to the lowest id and names the first point, in input order, that no
    triangle holds."""

    def __init__(self, mesh: SpaceTimeMesh):
        self.lo = mesh.vertices.min(axis=0)
        span = mesh.vertices.max(axis=0) - self.lo
        self.shape = np.maximum(1, (span / max(mesh.h, 1e-12)).astype(np.int64))
        self.cell = span / self.shape
        self.stride = np.array([self.shape[1], 1])
        self.x, self.t, _, self.dldx, self.dldt = fem.triangle_geometry(mesh)
        lo = self._cells(self.x.min(axis=1), self.t.min(axis=1))
        hi = self._cells(self.x.max(axis=1), self.t.max(axis=1))
        # one (triangle, bucket) pair per cell of each bounding box, made in
        # triangle order, so a stable sort keeps each bucket's ids ascending
        nj = hi[:, 1] - lo[:, 1] + 1
        tri, k = _expand((hi[:, 0] - lo[:, 0] + 1) * nj)
        bucket = (lo[tri] + np.stack([k // nj[tri], k % nj[tri]], axis=1)) @ self.stride
        order = np.argsort(bucket, kind="stable")
        self.candidates = tri[order]
        self.starts = np.searchsorted(bucket[order], np.arange(np.prod(self.shape) + 1))

    def _cells(self, x, t):
        """Grid cell (i, j) of each point, clipped to the grid."""
        ij = (np.stack([x, t], axis=1) - self.lo) / self.cell
        return np.clip(ij.astype(np.int64), 0, self.shape - 1)

    def locate(self, x, t) -> np.ndarray:
        """Element index containing each point; PointLocationError for a
        point outside the mesh."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        bid = self._cells(x, t) @ self.stride
        first = self.starts[bid]
        count = self.starts[bid + 1] - first
        pt, k = _expand(count)
        cand = self.candidates[first[pt] + k]
        dx = x[pt] - self.x[cand, 0]
        dt = t[pt] - self.t[cand, 0]
        lam1 = self.dldx[cand, 1] * dx + self.dldt[cand, 1] * dt
        lam2 = self.dldx[cand, 2] * dx + self.dldt[cand, 2] * dt
        lam0 = 1.0 - lam1 - lam2
        ok = (lam1 >= -LOCATE_TOL) & (lam2 >= -LOCATE_TOL) & (lam0 >= -LOCATE_TOL)
        none = len(self.dldx)
        out = np.full(len(x), none, dtype=np.int64)
        hit = count > 0
        out[hit] = np.minimum.reduceat(np.where(ok, cand, none), (np.cumsum(count) - count)[hit])
        bad = np.flatnonzero(out == none)
        if len(bad):
            raise PointLocationError("point outside the mesh",
                                     point=(float(x[bad[0]]), float(t[bad[0]])))
        return out


def reference_error(coarse_mesh: SpaceTimeMesh, u: np.ndarray, p: np.ndarray,
                    ref_mesh: SpaceTimeMesh, u_ref: np.ndarray,
                    p_ref: np.ndarray, subdiv: int = 1) -> float:
    """curly-E_r: same integrand as energy_error with the exact gradients
    replaced by those of a reference solution on a finer mesh."""
    dxu, _ = fem.element_gradients(coarse_mesh, u)
    dxp, _ = fem.element_gradients(coarse_mesh, p)
    rxu, _ = fem.element_gradients(ref_mesh, u_ref)
    rxp, _ = fem.element_gradients(ref_mesh, p_ref)
    ref = np.stack([rxu, rxp], axis=1)
    locator = PointLocator(ref_mesh)
    return _error_integral(coarse_mesh, [dxu, dxp],
                           lambda x, t: ref[locator.locate(x, t)].T, subdiv)


def compute_eoc(hs, errors):
    """Observed orders log(e_{k-1}/e_k) / log(h_{k-1}/h_k); first entry is
    None, non-monotone sequences yield negative orders verbatim, and an
    order next to a zero error is undefined and None."""
    hs = [float(v) for v in hs]
    errors = [float(v) for v in errors]
    if len(hs) != len(errors):
        raise ValueError("hs and errors must have equal length")
    orders: list[Optional[float]] = [None]
    for k in range(1, len(hs)):
        e0, e1 = errors[k - 1], errors[k]
        orders.append(None if e0 == 0.0 or e1 == 0.0 else
                      math.log(e0 / e1) / math.log(hs[k - 1] / hs[k]))
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

    @classmethod
    def read_csv(cls, path) -> "ConvergenceReport":
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            if header != ["dofs", "h", "error", "order"]:
                raise ValueError(f"unexpected report header {header!r}")
            dofs, hs, errors, orders = [], [], [], []
            for row in reader:
                dofs.append(int(row[0]))
                hs.append(float(row[1]))
                errors.append(float(row[2]))
                orders.append(None if row[3] == "" else float(row[3]))
        return cls(dofs=dofs, h=hs, error=errors, order=orders)
