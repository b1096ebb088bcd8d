"""P1 finite element kernels on the space-time triangulation.

Trial/test functions are continuous piecewise linears in (x, t).  The state
form is

    a_h(u, phi) = (dt u, phi) + (v(t) dx u, phi) + (kappa_h dx u, dx phi),

with the first two terms integrated by the degree-2 rule (velocity sampled
at quadrature points) and the diffusion term exact.  Loads and anything
containing problem data use the degree-5 rule on a uniform sub-triangle
refinement (quad_subdiv levels, 4**k sub-triangles).

A quadrature point's time depends only on the time lines of its triangle's
three corners, in corner order.  In the strip layout of ``mesh.strips``
(the only one accepted) these are the strip's two lines and the line of
corner 1, so each strip has 2 time classes.  Every integral of problem data
(the load here, the energy errors in metrics) runs through the one
``quadrature`` loop, which passes the data each point's time per class and
the class of every triangle, so the data computes its t-only factors once
per class, not once per triangle.  It reads the corner x as contiguous
(3, M) rows and forms a point's x with ``barycentric_point``, which has the
bits of ``x @ lam`` on the strided (M, 3) view at a fraction of its cost;
the load sums its corner contributions as (3, M) rows and bincounts them in
``triangles.ravel()`` order, so any given field loads to the same bits.

A and M couple the same corner pairs, so they share one sparsity pattern,
held as the padded rows of ``linalg.SparseMatrix``: ``sparsity_pattern``
sorts the i * N + j keys of the nine corner pairs of every triangle once
and gives each pair the padded slot of its entry, and each slot the slot
of its transposed entry.  Each matrix is then the slot sums of its element
entries, one local pair (i, j) at a time, with no per-element 3 x 3 block
and no triplet copy.  K needs no pattern: the dx gradient of each strip
triangle's lone vertex on its time line is 0, so K is tridiagonal: it is
summed straight into its diagonal and superdiagonal and held as these two
bands, a ``linalg.Tridiagonal``.  ``build_block_system`` computes the
pattern and ``triangle_geometry`` once and passes them to the assemblers;
called alone, an assembler computes its own.

Constraint convention: for every assembled matrix, constrained rows and
columns are zeroed and the row-constrained diagonal entries set to one;
constrained load entries are zeroed.  It is applied on the summed values:
for A and M on the padded rows (columns through ``constrained[cols]``,
rows row by row, ones in the diagonal slots), for K on its bands.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import linalg
from .mesh import SpaceTimeMesh, TAG_T0, TAG_XMAX, TAG_XMIN, strips
from .problem import ProblemSpec

__all__ = [
    "QuadratureRule",
    "rule_degree2",
    "rule_degree5",
    "subdivided_rule",
    "DofMap",
    "state_dofmap",
    "adjoint_dofmap",
    "triangle_geometry",
    "quadrature",
    "SparsityPattern",
    "sparsity_pattern",
    "assemble_state_matrix",
    "assemble_spatial_stiffness",
    "assemble_mass",
    "assemble_load",
    "assemble_time_weighted_load",
    "element_gradients",
]

# The composite rule of quad_subdiv level k has 7 * 4**k points per
# triangle, and the data loops cost 4x more per level (an 8-layer moving
# solve and its energy error: about 0.02 s at k = 1, 1.6 s at k = 5).
MAX_QUAD_SUBDIV = 5


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
    if not 0 <= levels <= MAX_QUAD_SUBDIV:
        raise ValueError(f"subdivision level {levels} is not from 0 to {MAX_QUAD_SUBDIV}")
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


def _geometry(mesh, geometry):
    """``geometry`` if given, else ``triangle_geometry(mesh)``."""
    return geometry if geometry is not None else triangle_geometry(mesh)


def barycentric_point(rows, lam) -> np.ndarray:
    """rows[0] lam[0] + rows[1] lam[1] + rows[2] lam[2]: the coordinate of
    the barycentric point ``lam`` from (3, M) corner rows, summed in the
    order of ``x @ lam`` on the (M, 3) corners.  On contiguous rows this
    is several times faster than ``@`` on the strided corner view."""
    return rows[0] * lam[0] + rows[1] * lam[1] + rows[2] * lam[2]


def quadrature(mesh: SpaceTimeMesh, field, subdiv: int, x):
    """Yield (lam, w, field(x_q, t_q, t_index=index)) for each point lam and
    weight w of the degree-5 rule on 4**subdiv uniform sub-triangles: x_q
    per triangle from the (M, 3) corner x, t_q the point's time in each
    class 2s + k, the triangles of ``mesh.strips``'s strip s with corner 1 on
    its bottom (k = 0) or top (k = 1) line, and index[m] the class of
    triangle m.  x is dropped once copied to rows, so passing the only
    reference to it frees it then."""
    xt = np.ascontiguousarray(x.T)
    del x
    times, strip, top1, _ = strips(mesh)
    index = 2 * strip + top1
    del strip, top1
    s, k = np.divmod(np.arange(2 * len(times) - 2), 2)
    corners = times[np.stack([s, s + k, s + 1])]
    rule = subdivided_rule(rule_degree5(), subdiv)
    for lam, w in zip(rule.points, rule.weights):
        yield lam, w, field(barycentric_point(xt, lam), barycentric_point(corners, lam),
                            t_index=index)


@dataclasses.dataclass(frozen=True)
class SparsityPattern:
    """Padded-row structure of the element couplings, shared by A and M
    (see ``linalg.SparseMatrix``), with rows of ``width`` slots.

    ``slot[i, j, m]`` is the flat slot of the entry (row ``triangles[m, i]``,
    column ``triangles[m, j]``) and ``diagonal[v]`` that of (v, v).  The
    column and mirror arrays are computed from the slots on first use, so
    that they do not add to the memory of the load assembled while the
    pattern is held."""

    slot: np.ndarray
    diagonal: np.ndarray
    triangles: np.ndarray
    width: int

    @functools.cached_property
    def cols(self) -> np.ndarray:
        """``cols[k, v]``: the column of row v's k-th slot, v itself in an
        unused slot.  Native integers, which numpy gathers without a
        conversion."""
        n = len(self.diagonal)
        cols = np.tile(np.arange(n), self.width)
        for i in range(3):
            for j in range(3):
                if i != j:
                    cols[self.slot[i, j]] = self.triangles[:, j]
        return cols.reshape(self.width, n)

    @functools.cached_property
    def mirror(self) -> np.ndarray:
        """The flat slot of each slot's transposed entry; unused slots
        mirror themselves."""
        mirror = np.arange(self.width * len(self.diagonal), dtype=self.slot.dtype)
        for i in range(3):
            for j in range(3):
                if i != j:
                    mirror[self.slot[i, j]] = self.slot[j, i]
        return mirror


def sparsity_pattern(mesh: SpaceTimeMesh) -> SparsityPattern:
    """One sort of the i * N + j keys of all nine corner pairs of every
    triangle: the distinct keys in order are the entries row by row, each
    row's columns increasing, and each pair takes the slot of its key.
    Corner pairs come in both orders, so the pattern is symmetric and each
    (i, j) slot of a triangle mirrors its (j, i) slot.  Raises ValueError
    when a vertex belongs to no triangle, since it would have no diagonal
    slot."""
    n = mesh.num_vertices
    # i * N + j needs 64 bits; a C-ordered copy keeps the broadcast fast
    tri = mesh.triangles.T.astype(np.int64, order="C")
    keys = (tri[:, None, :] * n + tri[None, :, :]).ravel()
    del tri
    # sorting in place after the argsort, and keeping only the distinct
    # keys before the ranks exist, keeps at most three key-sized arrays
    # alive at a time
    order = np.argsort(keys, kind="stable")
    keys.sort(kind="stable")
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    # each pair's rank among the distinct keys, as int32 where it fits
    rank = np.cumsum(new, dtype=np.int32 if len(new) < 2**31 else np.int64)
    del new
    rank -= 1
    slot = np.empty(len(rank), dtype=rank.dtype)
    slot[order] = rank
    del order, rank
    rows, columns = np.divmod(keys, n)
    if np.count_nonzero(rows == columns) != n:
        raise ValueError("every vertex must belong to a triangle")
    del columns
    diagonal = np.searchsorted(keys, np.arange(n) * (n + 1))
    del keys
    # the k-th entry of row v goes to padded slot k * N + v; slots are
    # stored as int32 where they fit
    counts = np.bincount(rows, minlength=n)
    width = int(counts.max())
    index = np.int32 if width * n < 2**31 else np.int64
    place = (np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)) * n
    place += rows
    place = place.astype(index)
    del rows
    return SparsityPattern(slot=place[slot].reshape(3, 3, -1), diagonal=place[diagonal],
                           triangles=mesh.triangles, width=width)


def _to_matrix(entries, mesh, pattern, row_dofs, col_dofs):
    """Sum the element entries into ``pattern``'s slots and apply the
    constraint convention on the padded values.

    ``entries`` yields ((i, j), values): the (M,) entries of local pair
    (i, j), one pair at a time, so no (M, 3, 3) block is built.  Each
    off-diagonal entry sums at most two element contributions, so
    symmetric element entries give an exactly symmetric matrix."""
    if pattern is None:
        pattern = sparsity_pattern(mesh)
    data = np.zeros(pattern.cols.size)
    for (i, j), values in entries:
        data += np.bincount(pattern.slot[i, j], weights=values, minlength=data.size)
    padded = data.reshape(pattern.cols.shape)
    if col_dofs is not None:
        padded[col_dofs.constrained[pattern.cols]] = 0.0
    if row_dofs is not None:
        padded[:, row_dofs.constrained] = 0.0
        data[pattern.diagonal[row_dofs.constrained]] = 1.0
    return linalg.SparseMatrix(padded, pattern.cols, pattern.mirror)


def assemble_state_matrix(mesh: SpaceTimeMesh, spec: ProblemSpec,
                          dofs: DofMap | None = None,
                          row_dofs: DofMap | None = None, *,
                          geometry=None, pattern: SparsityPattern | None = None):
    """A[i, j] = a_h(psi_j, psi_i).  ``dofs`` constrains columns (trial),
    ``row_dofs`` the rows (defaults to ``dofs``).  ``geometry`` is the
    result of ``triangle_geometry(mesh)`` and ``pattern`` that of
    ``sparsity_pattern(mesh)``; either is computed when not given."""
    _, t, area, dldx, dldt = _geometry(mesh, geometry)
    rule = rule_degree2()
    velocity = [np.asarray(spec.velocity.fn(t @ lam)) for lam in rule.points]
    weighted = [w * area for w in rule.weights]
    kap_area = spec.kappa_of_region(mesh.regions) * area

    def entries():
        for j in range(3):
            coeff = [dldt[:, j] + vq * dldx[:, j] for vq in velocity]
            for i in range(3):
                yield (i, j), (sum(wa * lam[i] * cq for lam, wa, cq
                                   in zip(rule.points, weighted, coeff))
                               + kap_area * dldx[:, i] * dldx[:, j])

    return _to_matrix(entries(), mesh, pattern,
                      row_dofs if row_dofs is not None else dofs, dofs)


def assemble_spatial_stiffness(mesh: SpaceTimeMesh, spec: ProblemSpec,
                               dofs: DofMap | None = None, *, geometry=None):
    """K[i, j] = (kappa_h dx psi_j, dx psi_i); exact for P1.

    An element couples only its two vertices on one time line, which
    ``build_mesh`` numbers consecutively, so K is the symmetric
    ``linalg.Tridiagonal(diag, off)``, its two bands the bincounts of the
    element entries by vertex id.  Raises ValueError when an element couples
    a free row and a free column whose ids are not consecutive."""
    _, _, area, dldx, _ = _geometry(mesh, geometry)
    kap_area = spec.kappa_of_region(mesh.regions) * area
    n = mesh.num_vertices
    tri, dldx = mesh.triangles.T, dldx.T
    constrained = dofs.constrained if dofs is not None else np.zeros(n, dtype=bool)
    diag, off = np.zeros(n), np.zeros(n)
    for i in range(3):
        for j in range(i, 3):
            values = kap_area * dldx[i] * dldx[j]
            if i == j:
                diag += np.bincount(tri[i], values, minlength=n)
                continue
            # the (v, v + 1) and (v + 1, v) entries both go to off[v]; an
            # entry sums at most two element contributions, so their order
            # does not change its bits
            row = np.minimum(tri[i], tri[j])
            far = np.abs(tri[j] - tri[i]) > 1
            coupled = far & (values != 0.0)
            if np.any(coupled) and np.any(coupled & ~constrained[tri[i]]
                                          & ~constrained[tri[j]]):
                raise ValueError("K is not tridiagonal: an element couples free "
                                 "vertices whose ids are not consecutive")
            # row n - 1 has no (v, v + 1) entry: its bin takes the rest
            row[far] = n - 1
            off += np.bincount(row, values, minlength=n)
    off = off[:-1]
    off[constrained[:-1] | constrained[1:]] = 0.0
    diag[constrained] = 1.0
    return linalg.Tridiagonal(diag, off)


def assemble_mass(mesh: SpaceTimeMesh, dofs: DofMap | None = None, *,
                  geometry=None, pattern: SparsityPattern | None = None):
    """Exact P1 mass matrix, local block (area/12) * (1 + delta_ij)."""
    _, _, area, _, _ = _geometry(mesh, geometry)
    block = (np.ones((3, 3)) + np.eye(3)) / 12.0
    entries = (((i, j), area * block[i, j]) for i in range(3) for j in range(3))
    return _to_matrix(entries, mesh, pattern, dofs, dofs)


def assemble_load(mesh: SpaceTimeMesh, field, dofs: DofMap | None = None,
                  subdiv: int = 1, *, geometry=None) -> np.ndarray:
    """b[i] = integral of field * psi_i over the points of ``quadrature``.

    ``field`` is a vectorized callable (x, t, *, t_index) -> values at the
    points (x[m], t[t_index[m]]), called as ``quadrature`` calls it;
    ``problem.desired_state_function`` returns u_d in this form.  Values
    that broadcast to the shape of x, such as a constant, are broadcast;
    any other shape raises ValueError."""
    geometry = _geometry(mesh, geometry)
    # the loop is left the only reference to x, so a geometry computed here
    # is freed once the loop has copied x
    area, points = geometry[2], quadrature(mesh, field, subdiv, geometry[0])
    del geometry
    contrib = np.zeros((3, mesh.num_triangles))
    for lam, w, f in points:
        wf = w * _broadcast_values(f, area.shape)
        for i in range(3):
            contrib[i] += wf * lam[i]
    contrib *= area
    # triangle by triangle, corner by corner: the order of triangles.ravel()
    b = np.bincount(mesh.triangles.ravel(), weights=contrib.T.ravel(),
                    minlength=mesh.num_vertices)
    if dofs is not None:
        b[dofs.constrained] = 0.0
    return b


def _broadcast_values(f, shape):
    """The field values f as an array of the quadrature batch's shape."""
    f = np.asarray(f, dtype=float)
    try:
        return np.broadcast_to(f, shape)
    except ValueError:
        raise ValueError(f"the load field returned values of shape {f.shape}; expected "
                         f"{shape}, one per triangle, or a scalar") from None


def assemble_time_weighted_load(mesh: SpaceTimeMesh, w: np.ndarray,
                                dofs: DofMap | None = None, *,
                                geometry=None) -> np.ndarray:
    """r[i] = sum_K (dt w_h)|_K * integral_K psi_i, exact for P1 (the time
    derivative is element-constant and integral_K psi_i = area/3)."""
    _, _, area, _, dldt = _geometry(mesh, geometry)
    dtw = np.einsum("mj,mj->m", w[mesh.triangles], dldt)
    contrib = np.repeat((dtw * area / 3.0)[:, None], 3, axis=1)
    r = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.num_vertices)
    if dofs is not None:
        r[dofs.constrained] = 0.0
    return r


def element_gradients(mesh: SpaceTimeMesh, w: np.ndarray, *, geometry=None):
    """Constant (dx, dt) of a P1 function on each element."""
    _, _, _, dldx, dldt = _geometry(mesh, geometry)
    wv = w[mesh.triangles]
    return np.einsum("mj,mj->m", wv, dldx), np.einsum("mj,mj->m", wv, dldt)
