"""Interface-fitted space-time meshing of the cylinder.

The cylinder is sliced into horizontal strips by uniform time lines.  Each
line carries a near-uniform x-grid plus the two exact interface points at
that time; uniform interior nodes falling within 0.3 pitch of an interface
point are culled.  Strips split at the interface nodes into three sub-strips
(outside / band / outside), and each sub-strip is triangulated by a monotone
two-chain zig-zag merge, which makes every chord between consecutive
interface nodes an element edge.  All merges of all strips are one stable
sort of the nodes by (strip, sub-strip, x), with no loop over strips, and
each triangle takes the region of its sub-strip: the band is region 1.  The
resulting discrete interface is a union of element edges whose endpoints sit
on the exact curves to roundoff.

A mesh is a flat bag of arrays; ``write_mesh`` writes it losslessly as text.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
# np.unique imports numpy.ma on its first call (numpy 2); every command
# validates a mesh with it, so that import is paid at start-up, not mid-run
import numpy.ma  # noqa: F401

from .errors import GeometryError, MeshingError
from .problem import ProblemSpec, curve_offsets, displacement

__all__ = [
    "TAG_XMIN",
    "TAG_XMAX",
    "TAG_T0",
    "TAG_TFINAL",
    "SpaceTimeMesh",
    "strips",
    "MeshReport",
    "build_mesh",
    "validate_mesh",
    "write_mesh",
]

TAG_XMIN = 1
TAG_XMAX = 2
TAG_T0 = 4
TAG_TFINAL = 8

FIT_RESIDUAL_LIMIT = 1e-10
# A solve takes about 0.8 KB of peak memory per vertex (745 MB for the
# 924,249 vertices of 960 layers on the unit square), so this bound of
# about 3.2 GB stops a wide domain or a short horizon before it allocates.
MAX_MESH_VERTICES = 4_000_000


@dataclasses.dataclass
class SpaceTimeMesh:
    """Conforming triangulation of the space-time cylinder.

    vertices: (N, 2) float array of (x, t) coordinates.
    triangles: (M, 3) vertex indices, counterclockwise.
    regions: (M,) labels, 1 inside the interface band, 2 outside.
    interface_edges: (E, 2) vertex index pairs forming the discrete interface.
    boundary_tags: (N,) bitmask of TAG_* flags, 0 for interior vertices.
    h: measured mesh size (max element diameter).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    interface_edges: np.ndarray
    boundary_tags: np.ndarray
    h: float

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def strips(mesh: SpaceTimeMesh):
    """The strip layout of ``build_mesh``'s triangles: strip by strip up the
    distinct vertex times and left to right in a strip, corners 0 and 2 on
    its bottom and top lines, each right edge the left edge (corners 0, 2)
    of the next triangle.  Returns (times, strip, top1, first): the times,
    each triangle's strip, whether its corner 1 is on the top line, and the
    first triangle of each strip, one per time (first[-1] is M).  Raises
    ValueError for a mesh in any other order."""
    times, line = np.unique(mesh.vertices[:, 1], return_inverse=True)
    tri = np.ascontiguousarray(mesh.triangles.T)
    strip = line[tri[0]]
    top1 = line[tri[1]] != strip
    step = np.diff(strip)
    # the right edge is corners 0, 1 with corner 1 on the top line, else 1, 2
    if (len(strip) == 0 or strip[0] != 0 or strip[-1] != len(times) - 2
            or np.any((step < 0) | (step > 1))
            or np.any((line[tri[2]] != strip + 1) | top1 & (line[tri[1]] != strip + 1))
            or np.any((step == 0) & ((np.where(top1, tri[0], tri[1])[:-1] != tri[0, 1:])
                                     | (np.where(top1, tri[1], tri[2])[:-1] != tri[2, 1:])))):
        raise ValueError("mesh triangles are not in build_mesh's strip order")
    return times, strip, top1, np.searchsorted(strip, np.arange(len(times)))


def _corners(vertices, triangles):
    """x and t of every triangle's corners 0, 1 and 2, each shape (3, M)."""
    corners = triangles.T
    return vertices[:, 0][corners], vertices[:, 1][corners]


def _edge_lengths(x, t):
    """Lengths of each triangle's edges 01, 12 and 20 from its corners."""
    def length(p, q):
        dx, dt = x[p] - x[q], t[p] - t[q]
        return np.sqrt(dx * dx + dt * dt)
    return length(0, 1), length(1, 2), length(2, 0)


def _measure_h(x, t):
    return max(float(np.max(e, initial=0.0)) for e in _edge_lengths(x, t))


def build_mesh(spec: ProblemSpec, n_layers: int) -> SpaceTimeMesh:
    """Build the interface-fitted mesh with n_layers uniform time strips."""
    if not float(n_layers).is_integer() or n_layers < 2:
        raise ValueError(f"n_layers must be an integer >= 2, got {n_layers!r}")
    n_layers = int(n_layers)

    width = spec.x_max - spec.x_min
    dt = spec.t_final / n_layers
    steps = width / dt
    n_x = max(2, round(steps)) if math.isfinite(steps) else math.inf
    # a line holds at most its n_x + 1 uniform nodes and two interface nodes
    bound = (n_x + 3) * (n_layers + 1)
    if bound > MAX_MESH_VERTICES:
        raise MeshingError(f"the mesh would have up to {bound} vertices, more than "
                           f"MAX_MESH_VERTICES = {MAX_MESH_VERTICES}")
    pitch = width / n_x
    cull = 0.3 * pitch
    times = np.linspace(0.0, spec.t_final, n_layers + 1)
    shifts = displacement(spec, times)

    line_x = []
    ia = np.empty(n_layers + 1, dtype=np.int64)
    ib = np.empty(n_layers + 1, dtype=np.int64)
    uniform = spec.x_min + pitch * np.arange(n_x + 1)
    uniform[-1] = spec.x_max
    interior = uniform[1:-1]

    for j in range(n_layers + 1):
        xa = spec.offset_a + shifts[j]
        xb = spec.offset_b + shifts[j]
        if xa <= spec.x_min + 1e-8 * width or xb >= spec.x_max - 1e-8 * width:
            raise GeometryError(
                f"interface leaves the domain interior at t={times[j]:.17g}"
            )
        keep = (np.abs(interior - xa) >= cull) & (np.abs(interior - xb) >= cull)
        xs = np.concatenate(
            ([spec.x_min], interior[keep], [xa, xb], [spec.x_max])
        )
        xs.sort(kind="stable")
        if np.any(np.diff(xs) < 1e-9 * width):
            raise MeshingError("node collision on time line", layer=j)
        ia[j] = np.searchsorted(xs, xa)
        ib[j] = np.searchsorted(xs, xb)
        line_x.append(xs)

    sizes = np.array([len(xs) for xs in line_x])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    x = np.concatenate(line_x)
    line = np.repeat(np.arange(n_layers + 1), sizes)
    vertices = np.stack([x, times[line]], axis=1)
    tags = np.zeros(len(vertices), dtype=np.int64)
    tags[offsets[:-1]] |= TAG_XMIN
    tags[offsets[1:] - 1] |= TAG_XMAX
    tags[: offsets[1]] |= TAG_T0
    tags[offsets[n_layers]:] |= TAG_TFINAL

    # Each band of each strip is a zig-zag merge of a bottom and a top chain.
    # Every node at position k >= 1 advances the bottom chain of strip `line`
    # and the top chain of strip `line - 1`, in band (k > ia) + (k > ib).  The
    # merge takes the smaller next x, the bottom one on a tie: that is a
    # stable sort of the advances by (strip, band, x), bottom ones first.
    k = np.arange(len(x)) - offsets[line]
    band = (k > ia[line]).astype(np.int64) + (k > ib[line])
    bottom = np.flatnonzero((k > 0) & (line < n_layers))
    top = np.flatnonzero((k > 0) & (line > 0))
    strip = np.concatenate((line[bottom], line[top] - 1))
    advance_band = np.concatenate((band[bottom], band[top]))
    order = np.lexsort((np.concatenate((x[bottom], x[top])), advance_band, strip))
    # each advance makes one triangle of its band; band 1, between the
    # interface nodes, is region 1
    regions = np.where(advance_band[order] == 1, 1, 2)
    strip = strip[order]
    is_top = order >= len(bottom)
    # Node 0 of a line is no advance, so before an advance the bottom chain
    # stands at vertex strip + (bottom advances so far) and the top chain at
    # offsets[1] + strip + (top advances so far).
    tops_before = np.cumsum(is_top) - is_top
    b = strip + np.arange(len(order)) - tops_before
    t = offsets[1] + strip + tops_before
    triangles = np.stack([b, np.where(is_top, t + 1, b + 1), t], axis=1)

    node_a, node_b = offsets[:-1] + ia, offsets[:-1] + ib
    interface_edges = np.stack(
        [node_a[:-1], node_a[1:], node_b[:-1], node_b[1:]], axis=1
    ).reshape(-1, 2)

    return SpaceTimeMesh(
        vertices=vertices,
        triangles=triangles,
        regions=regions,
        interface_edges=interface_edges,
        boundary_tags=tags,
        h=_measure_h(*_corners(vertices, triangles)),
    )


@dataclasses.dataclass
class MeshReport:
    """Validation summary; ok is the conjunction of every hard check."""

    num_vertices: int
    num_triangles: int
    h: float
    min_area: float
    orientation_violations: int
    conformity_violations: int
    quasi_uniformity: float
    rho_max: float
    straddle_count: int = 0
    region_mismatches: int = 0
    coverage_violations: int = 0
    max_fit_residual: float = 0.0
    ok: bool = False

    def as_dict(self):
        d = dataclasses.asdict(self)
        d["ok"] = bool(self.ok)
        return d


def _signed_areas(x, t):
    return 0.5 * ((x[1] - x[0]) * (t[2] - t[0]) - (x[2] - x[0]) * (t[1] - t[0]))


def validate_mesh(mesh: SpaceTimeMesh, spec: ProblemSpec,
                  rho_max: float = 8.0) -> MeshReport:
    """Run the structural checks against the cylinder of ``spec``, and the
    geometry-aware ones (interface fit, straddling, region labels) against
    its curves."""
    if mesh.num_triangles == 0:  # nothing covers Q
        return MeshReport(mesh.num_vertices, 0, h=0.0, min_area=0.0,
                          orientation_violations=0, conformity_violations=0,
                          quasi_uniformity=0.0, rho_max=rho_max, coverage_violations=1)
    v, tri = mesh.vertices, mesh.triangles
    x, t = _corners(v, tri)
    areas = _signed_areas(x, t)
    orientation_violations = int(np.sum(areas <= 0.0))
    min_area = float(np.min(areas))

    # Conformity: an undirected edge may be shared by at most two triangles,
    # and no two distinct vertices may coincide geometrically.
    # edges 01, 12 and 20 of every triangle, one integer key per ordered
    # pair min * n + max: a 1-D unique is far faster than a row-wise one,
    # and min / max are far faster than a row-wise sort
    corners = tri.T.astype(np.int64)
    a, b = corners.ravel(), corners[[1, 2, 0]].ravel()
    n = mesh.num_vertices
    keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    edges = np.stack([keys // n, keys % n], axis=1)
    conformity_violations = int(np.sum(counts > 2))
    order = np.lexsort((v[:, 1], v[:, 0]))
    sv = v[order]
    scale = max(np.ptp(v[:, 0]), np.ptp(v[:, 1]), 1.0)
    dup = np.all(np.abs(np.diff(sv, axis=0)) <= 1e-14 * scale, axis=1)
    conformity_violations += int(np.sum(dup))

    # Coverage of Q: an edge of only one triangle must lie on a side of Q,
    # so holes and T-junctions show, and the areas must add up to |Q|.
    lo, hi = np.array([spec.x_min, 0.0]), np.array([spec.x_max, spec.t_final])
    ends = v[edges[counts == 1]]
    tol = 1e-12 * scale
    on_side = (np.all(np.abs(ends - lo) <= tol, axis=1)
               | np.all(np.abs(ends - hi) <= tol, axis=1))
    coverage_violations = int(np.sum(~np.any(on_side, axis=1)))
    box = float(np.prod(hi - lo))
    coverage_violations += int(abs(float(np.sum(areas)) - box) > 1e-12 * box)

    # Quasi-uniformity: largest diameter over smallest incircle diameter.
    e01, e12, e20 = _edge_lengths(x, t)
    diam = np.maximum(e01, np.maximum(e12, e20))
    perim = e01 + e12 + e20
    with np.errstate(divide="ignore", invalid="ignore"):
        incircle = 4.0 * np.abs(areas) / perim
    h = np.max(diam)
    quasi = float(h / np.min(incircle))

    report = MeshReport(
        num_vertices=mesh.num_vertices,
        num_triangles=mesh.num_triangles,
        h=float(h),
        min_area=min_area,
        orientation_violations=orientation_violations,
        conformity_violations=conformity_violations,
        coverage_violations=coverage_violations,
        quasi_uniformity=quasi,
        rho_max=rho_max,
    )

    width = spec.x_max - spec.x_min
    da, db, _ = curve_offsets(spec, v[:, 0], v[:, 1])

    on_iface = np.zeros(mesh.num_vertices, dtype=bool)
    if len(mesh.interface_edges):
        on_iface[np.unique(mesh.interface_edges)] = True
    if np.any(on_iface):
        fit = np.minimum(np.abs(da[on_iface]), np.abs(db[on_iface]))
        report.max_fit_residual = float(np.max(fit))

    tol = 1e-8 * width
    strictly_in = (da > tol) & (db < -tol)
    strictly_out = (da < -tol) | (db > tol)
    has_in = np.any(strictly_in[tri], axis=1)
    has_out = np.any(strictly_out[tri], axis=1)
    report.straddle_count = int(np.sum(has_in & has_out))

    # Independent check of build_mesh's band labels: exact curves at the centroid.
    ca, cb, _ = curve_offsets(spec, x.mean(axis=0), t.mean(axis=0))
    expected = np.where((ca > 0.0) & (cb < 0.0), 1, 2)
    report.region_mismatches = int(np.sum(expected != mesh.regions))

    report.ok = (
        report.orientation_violations == 0
        and report.conformity_violations == 0
        and report.straddle_count == 0
        and report.region_mismatches == 0
        and report.coverage_violations == 0
        and report.min_area > 0.0
        and report.quasi_uniformity <= rho_max
        and report.max_fit_residual <= FIT_RESIDUAL_LIMIT
    )
    return report


def write_mesh(mesh: SpaceTimeMesh, path) -> None:
    """Write the line-oriented text format (lossless round trip).  Each
    column is formatted as a whole: floats as %.17g, integers with str."""
    def rows(*columns):
        text = [map("{:.17g}".format if c.dtype.kind == "f" else str, c.tolist())
                for c in columns]
        return (" ".join(row) + "\n" for row in zip(*text))

    with open(path, "w") as f:
        f.write("stmesh 1\n# space-time interface-fitted mesh\n")
        f.write(f"vertices {mesh.num_vertices}\n")
        f.writelines(rows(*mesh.vertices.T, mesh.boundary_tags))
        f.write(f"triangles {mesh.num_triangles}\n")
        f.writelines(rows(*mesh.triangles.T, mesh.regions))
        f.write(f"interface_edges {len(mesh.interface_edges)}\n")
        f.writelines(rows(*mesh.interface_edges.T))

