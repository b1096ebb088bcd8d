"""P1 finite element kernels on the space-time triangulation.

Trial/test functions are continuous piecewise linears in (x, t).  The state
form is

    a_h(u, phi) = (dt u, phi) + (v(t) dx u, phi) + (kappa_h dx u, dx phi),

with the first two terms integrated by the degree-2 rule (velocity sampled
at quadrature points) and the diffusion term exact.  Loads and anything
containing problem data use the degree-5 rule on a uniform sub-triangle
refinement (quad_subdiv levels, 4**k sub-triangles).

A quadrature point's time depends only on the time lines of its triangle's
three corners, in corner order, so ``time_classes`` keys each triangle by
its corners' line ids and gives each distinct key one class; a strip mesh
has 2 classes per layer.  The load loop passes the problem data each
quadrature point's time per class and the class of every triangle, so the
data computes its t-only factors once per class, not once per triangle.

A, K and M couple the same corner pairs, so they share one sparsity
pattern, held as the padded rows of ``linalg.SparseMatrix``:
``sparsity_pattern`` sorts the i * N + j keys of the nine corner pairs of
every triangle once and gives each pair the padded slot of its entry, and
each slot the slot of its transposed entry.  Each matrix is then the slot
sums of its element entries, one local pair (i, j) at a time, with no
per-element 3 x 3 block and no triplet copy.  ``build_block_system``
computes the pattern and ``triangle_geometry`` once and passes both to
every assembler; called alone, an assembler computes its own.

Constraint convention: for every assembled matrix, constrained rows and
columns are zeroed and the row-constrained diagonal entries set to one;
constrained load entries are zeroed.  It is applied on the summed padded
values (columns through ``constrained[cols]``, rows row by row, ones in
the diagonal slots); the matrices' CSR views leave out the exact zeros.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import linalg
from .mesh import SpaceTimeMesh, TAG_T0, TAG_XMAX, TAG_XMIN
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
    "TimeClasses",
    "time_classes",
    "SparsityPattern",
    "sparsity_pattern",
    "assemble_state_matrix",
    "assemble_spatial_stiffness",
    "assemble_mass",
    "assemble_load",
    "assemble_time_weighted_load",
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


def _geometry(mesh, geometry):
    """``geometry`` if given, else ``triangle_geometry(mesh)``."""
    return geometry if geometry is not None else triangle_geometry(mesh)


@dataclasses.dataclass(frozen=True)
class TimeClasses:
    """Triangles grouped by the time lines of their corners, in corner
    order: ``corners[:, c]`` holds the three corner times of class c and
    ``index[m]`` is the class of triangle m."""

    corners: np.ndarray
    index: np.ndarray

    def times(self, lam) -> np.ndarray:
        """The time of the barycentric point ``lam`` in each class, summed
        in the order of ``t @ lam`` on the geometry's corner times, so it
        has the bits of that point on every triangle of the class."""
        c = self.corners
        return c[0] * lam[0] + c[1] * lam[1] + c[2] * lam[2]


def time_classes(mesh: SpaceTimeMesh) -> TimeClasses:
    """Exact time classes of the triangles: one per distinct (line of
    corner 0, line of corner 1, line of corner 2), with the lines the
    distinct vertex times."""
    lines, line = np.unique(mesh.vertices[:, 1], return_inverse=True)
    n = np.int64(len(lines))
    ids = line[mesh.triangles.T].astype(np.int64)
    keys, index = np.unique((ids[0] * n + ids[1]) * n + ids[2], return_inverse=True)
    rest, c2 = np.divmod(keys, n)
    c0, c1 = np.divmod(rest, n)
    return TimeClasses(corners=lines[np.stack([c0, c1, c2])], index=index)


@dataclasses.dataclass(frozen=True)
class SparsityPattern:
    """Padded-row structure of the element couplings, shared by A, K and M
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
    (i, j), one pair at a time, so no (M, 3, 3) block is built.  The
    matrix's CSR view drops the exact zeros, which matters for K: the dx
    gradient of each triangle's lone vertex on its time line is 0, so K is
    tridiagonal, and a factorization treats every stored entry as
    structure.  Each off-diagonal entry sums at most two element
    contributions, so symmetric element entries give an exactly symmetric
    matrix."""
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


def _symmetric(local):
    """Both (i, j) and (j, i) of a symmetric element form local(i, j), i <= j."""
    for i in range(3):
        for j in range(i, 3):
            values = local(i, j)
            yield (i, j), values
            if i != j:
                yield (j, i), values


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
                               dofs: DofMap | None = None, *, geometry=None,
                               pattern: SparsityPattern | None = None):
    """K[i, j] = (kappa_h dx psi_j, dx psi_i); exact for P1."""
    _, _, area, dldx, _ = _geometry(mesh, geometry)
    kap_area = spec.kappa_of_region(mesh.regions) * area
    return _to_matrix(_symmetric(lambda i, j: kap_area * dldx[:, i] * dldx[:, j]),
                      mesh, pattern, dofs, dofs)


def assemble_mass(mesh: SpaceTimeMesh, dofs: DofMap | None = None, *,
                  geometry=None, pattern: SparsityPattern | None = None):
    """Exact P1 mass matrix, local block (area/12) * (1 + delta_ij)."""
    _, _, area, _, _ = _geometry(mesh, geometry)
    block = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _to_matrix(_symmetric(lambda i, j: area * block[i, j]), mesh, pattern, dofs, dofs)


def assemble_load(mesh: SpaceTimeMesh, field, dofs: DofMap | None = None,
                  subdiv: int = 1, *, geometry=None) -> np.ndarray:
    """b[i] = integral of field * psi_i using the degree-5 composite rule.

    ``field`` is a vectorized callable (x, t, *, t_index) -> values at the
    points (x[m], t[t_index[m]]): it is called once per quadrature point
    with x per triangle, t the point's times in the ``time_classes`` of the
    mesh and t_index their ``index``.  ``problem.desired_state_function``
    returns u_d in this form."""
    x, _, area, _, _ = _geometry(mesh, geometry)
    classes = time_classes(mesh)
    rule = subdivided_rule(rule_degree5(), subdiv)
    contrib = np.zeros((mesh.num_triangles, 3))
    for lam, w in zip(rule.points, rule.weights):
        f = np.asarray(field(x @ lam, classes.times(lam), t_index=classes.index),
                       dtype=float)
        contrib += (w * f)[:, None] * lam[None, :]
    contrib *= area[:, None]
    b = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.num_vertices)
    if dofs is not None:
        b[dofs.constrained] = 0.0
    return b


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
