"""P1 finite element kernels on the space-time triangulation.

Trial/test functions are continuous piecewise linears in (x, t).  The state
form is

    a_h(u, phi) = (dt u, phi) + (v(t) dx u, phi) + (kappa_h dx u, dx phi),

with the first two terms integrated by the degree-2 rule (velocity sampled
at quadrature points) and the diffusion term exact.  Loads and anything
containing problem data use the degree-5 rule on a uniform sub-triangle
refinement (quad_subdiv levels, 4**k sub-triangles).

Constraint convention: for every assembled matrix, constrained rows and
columns are zeroed and the row-constrained diagonal entries set to one;
constrained load entries are zeroed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .mesh import SpaceTimeMesh, TAG_T0, TAG_XMAX, TAG_XMIN
from .problem import PiecewiseField, ProblemSpec

__all__ = [
    "QuadratureRule",
    "rule_degree2",
    "rule_degree5",
    "subdivided_rule",
    "DofMap",
    "state_dofmap",
    "adjoint_dofmap",
    "triangle_geometry",
    "assemble_state_matrix",
    "assemble_spatial_stiffness",
    "assemble_mass",
    "assemble_load",
    "assemble_time_weighted_load",
    "lagrange_interpolate",
    "element_gradients",
]


@dataclasses.dataclass(frozen=True)
class QuadratureRule:
    """Points in barycentric coordinates, weights summing to one; the
    integral over a triangle is area * sum(w_q f(q))."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        if self.points.shape != (len(self.weights), 3):
            raise ValueError("points must be (n, 3) barycentric coordinates")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-14:
            raise ValueError("weights must sum to one")


def rule_degree2() -> QuadratureRule:
    """Three edge midpoints, weight 1/3 each; exact through degree 2."""
    pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    return QuadratureRule(points=pts, weights=np.full(3, 1.0 / 3.0), degree=2)


def rule_degree5() -> QuadratureRule:
    """Seven-point rule exact through degree 5 (centroid + two orbits)."""
    sqrt15 = math.sqrt(15.0)
    b1 = (6.0 - sqrt15) / 21.0
    b2 = (6.0 + sqrt15) / 21.0
    w1 = (155.0 - sqrt15) / 1200.0
    w2 = (155.0 + sqrt15) / 1200.0
    third = 1.0 / 3.0
    pts = [[third, third, third]]
    wts = [0.225]
    for b, w in ((b1, w1), (b2, w2)):
        a = 1.0 - 2.0 * b
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [w, w, w]
    return QuadratureRule(points=np.array(pts), weights=np.array(wts), degree=5)


def subdivided_rule(rule: QuadratureRule, levels: int) -> QuadratureRule:
    """Composite rule over 4**levels uniform sub-triangles."""
    if levels < 0:
        raise ValueError("subdivision level must be >= 0")
    corners = [np.eye(3)]
    for _ in range(levels):
        refined = []
        for P in corners:
            a, b, c = P
            ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
            refined += [
                np.array([a, ab, ca]),
                np.array([ab, b, bc]),
                np.array([ca, bc, c]),
                np.array([ab, bc, ca]),
            ]
        corners = refined
    pts = np.vstack([rule.points @ P for P in corners])
    wts = np.tile(rule.weights / len(corners), len(corners))
    return QuadratureRule(points=pts, weights=wts, degree=rule.degree)


@dataclasses.dataclass(frozen=True)
class DofMap:
    """One dof per vertex; a boolean mask marks constrained (eliminated)
    dofs.  The W space constrains the lateral boundaries, the U space
    additionally the initial time line."""

    constrained: np.ndarray
    space: str

    @property
    def free(self) -> np.ndarray:
        return np.flatnonzero(~self.constrained)

    @property
    def constrained_indices(self) -> np.ndarray:
        return np.flatnonzero(self.constrained)


def state_dofmap(mesh: SpaceTimeMesh) -> DofMap:
    mask = (mesh.boundary_tags & (TAG_XMIN | TAG_XMAX | TAG_T0)) != 0
    return DofMap(constrained=mask, space="U")


def adjoint_dofmap(mesh: SpaceTimeMesh, space: str) -> DofMap:
    if space == "U":
        return state_dofmap(mesh)
    if space == "W":
        mask = (mesh.boundary_tags & (TAG_XMIN | TAG_XMAX)) != 0
        return DofMap(constrained=mask, space="W")
    raise ValueError(f"adjoint space must be 'U' or 'W', got {space!r}")


def triangle_geometry(mesh: SpaceTimeMesh):
    """Per-element corner coordinates, areas and constant P1 gradients.

    Returns (x, t, area, dldx, dldt) with shapes (M,3), (M,3), (M,),
    (M,3), (M,3)."""
    p = mesh.vertices[mesh.triangles]
    x = p[..., 0]
    t = p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (t[:, 2] - t[:, 0]) - (x[:, 2] - x[:, 0]) * (
        t[:, 1] - t[:, 0]
    )
    if np.any(det <= 0.0):
        bad = int(np.argmax(det <= 0.0))
        raise ValueError(f"triangle {bad} is degenerate or clockwise")
    area = 0.5 * det
    dldx = np.stack([t[:, 1] - t[:, 2], t[:, 2] - t[:, 0], t[:, 0] - t[:, 1]], axis=1)
    dldt = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    dldx /= det[:, None]
    dldt /= det[:, None]
    return x, t, area, dldx, dldt


def _to_csr(local, mesh, row_dofs, col_dofs):
    """Merge (M,3,3) element blocks into CSR with no stored zeros, applying
    the constraint convention.  Triplets are emitted in element order; the
    deterministic duplicate merge makes repeated assembly bitwise identical.
    Dropping the exact zeros matters for K: the dx gradient of each
    triangle's lone vertex on its time line is 0, so K is tridiagonal, and a
    sparse factorization treats every stored entry as structure."""
    tri = mesh.triangles
    rows = np.broadcast_to(tri[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(tri[:, None, :], local.shape).ravel()
    data = local.ravel()
    n = mesh.num_vertices
    if row_dofs is not None or col_dofs is not None:
        keep = np.ones(len(data), dtype=bool)
        if row_dofs is not None:
            keep &= ~row_dofs.constrained[rows]
        if col_dofs is not None:
            keep &= ~col_dofs.constrained[cols]
        rows, cols, data = rows[keep], cols[keep], data[keep]
        if row_dofs is not None:
            diag = row_dofs.constrained_indices
            rows = np.concatenate([rows, diag])
            cols = np.concatenate([cols, diag])
            data = np.concatenate([data, np.ones(len(diag))])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()  # summed, sorted
    mat.eliminate_zeros()
    return mat


def assemble_state_matrix(mesh: SpaceTimeMesh, spec: ProblemSpec,
                          dofs: DofMap | None = None,
                          row_dofs: DofMap | None = None):
    """A[i, j] = a_h(psi_j, psi_i).  ``dofs`` constrains columns (trial),
    ``row_dofs`` the rows (defaults to ``dofs``)."""
    x, t, area, dldx, dldt = triangle_geometry(mesh)
    rule = rule_degree2()
    local = np.zeros((mesh.num_triangles, 3, 3))
    for lam, w in zip(rule.points, rule.weights):
        tq = t @ lam
        vq = np.asarray(spec.velocity.fn(tq))
        coeff = dldt + vq[:, None] * dldx
        local += (w * area)[:, None, None] * lam[None, :, None] * coeff[:, None, :]
    kap = spec.kappa_of_region(mesh.regions)
    local += (kap * area)[:, None, None] * dldx[:, :, None] * dldx[:, None, :]
    return _to_csr(local, mesh, row_dofs if row_dofs is not None else dofs, dofs)


def assemble_spatial_stiffness(mesh: SpaceTimeMesh, spec: ProblemSpec,
                               dofs: DofMap | None = None):
    """K[i, j] = (kappa_h dx psi_j, dx psi_i); exact for P1."""
    _, _, area, dldx, _ = triangle_geometry(mesh)
    kap = spec.kappa_of_region(mesh.regions)
    local = (kap * area)[:, None, None] * dldx[:, :, None] * dldx[:, None, :]
    return _to_csr(local, mesh, dofs, dofs)


def assemble_mass(mesh: SpaceTimeMesh, dofs: DofMap | None = None):
    """Exact P1 mass matrix, local block (area/12) * (1 + delta_ij)."""
    _, _, area, _, _ = triangle_geometry(mesh)
    block = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * block[None, :, :]
    return _to_csr(local, mesh, dofs, dofs)


def assemble_load(mesh: SpaceTimeMesh, field, dofs: DofMap | None = None,
                  subdiv: int = 1) -> np.ndarray:
    """b[i] = integral of field * psi_i using the degree-5 composite rule.
    ``field`` is a vectorized callable (x, t) -> values."""
    x, t, area, _, _ = triangle_geometry(mesh)
    rule = subdivided_rule(rule_degree5(), subdiv)
    contrib = np.zeros((mesh.num_triangles, 3))
    for lam, w in zip(rule.points, rule.weights):
        xq = x @ lam
        tq = t @ lam
        f = np.asarray(field(xq, tq), dtype=float)
        contrib += (w * f)[:, None] * lam[None, :]
    contrib *= area[:, None]
    b = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.num_vertices)
    if dofs is not None:
        b[dofs.constrained] = 0.0
    return b


def assemble_time_weighted_load(mesh: SpaceTimeMesh, w: np.ndarray,
                                dofs: DofMap | None = None) -> np.ndarray:
    """r[i] = sum_K (dt w_h)|_K * integral_K psi_i, exact for P1 (the time
    derivative is element-constant and integral_K psi_i = area/3)."""
    _, _, area, _, dldt = triangle_geometry(mesh)
    dtw = np.einsum("mj,mj->m", w[mesh.triangles], dldt)
    contrib = np.repeat((dtw * area / 3.0)[:, None], 3, axis=1)
    r = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.num_vertices)
    if dofs is not None:
        r[dofs.constrained] = 0.0
    return r


def lagrange_interpolate(mesh: SpaceTimeMesh, spec: ProblemSpec, field) -> np.ndarray:
    """Vertex values of a continuous field (PiecewiseField branches must
    agree on the interface; interface vertices take the shared value)."""
    x = mesh.vertices[:, 0]
    t = mesh.vertices[:, 1]
    if isinstance(field, PiecewiseField):
        return np.asarray(field.evaluate(spec, x, t), dtype=float)
    return np.asarray(field(x, t), dtype=float)


def element_gradients(mesh: SpaceTimeMesh, w: np.ndarray):
    """Constant (dx, dt) of a P1 function on each element."""
    _, _, _, dldx, dldt = triangle_geometry(mesh)
    wv = w[mesh.triangles]
    return np.einsum("mj,mj->m", wv, dldx), np.einsum("mj,mj->m", wv, dldt)
