"""Interface-fitted space-time meshing of the cylinder.

The cylinder is sliced into horizontal strips by uniform time lines.  Each
line carries a near-uniform x-grid plus the two exact interface points at
that time; uniform interior nodes falling within 0.3 pitch of an interface
point are culled.  Strips split at the interface nodes into three sub-strips
(outside / band / outside), and each sub-strip is triangulated by a monotone
two-chain zig-zag merge, which makes every chord between consecutive
interface nodes an element edge.  The resulting discrete interface is a
union of element edges whose endpoints sit on the exact curves to roundoff.

A mesh is a flat bag of arrays; the text format round-trips it losslessly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import GeometryError, MeshFormatError, MeshingError
from .problem import ProblemSpec, curve_offsets, displacement

__all__ = [
    "TAG_XMIN",
    "TAG_XMAX",
    "TAG_T0",
    "TAG_TFINAL",
    "SpaceTimeMesh",
    "MeshReport",
    "build_mesh",
    "validate_mesh",
    "write_mesh",
    "read_mesh",
]

TAG_XMIN = 1
TAG_XMAX = 2
TAG_T0 = 4
TAG_TFINAL = 8
_ALL_TAGS = TAG_XMIN | TAG_XMAX | TAG_T0 | TAG_TFINAL

FIT_RESIDUAL_LIMIT = 1e-10


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


def _edge_lengths(vertices, triangles):
    """Lengths of each triangle's edges 01, 12 and 20, shape (3, M)."""
    p = vertices[triangles]
    return np.linalg.norm(p[:, [0, 1, 2]] - p[:, [1, 2, 0]], axis=2).T


def _measure_h(vertices, triangles):
    return float(np.max(_edge_lengths(vertices, triangles), initial=0.0))


def _merge_chains(b_ids, b_x, t_ids, t_x, out):
    """Zig-zag triangulation between two x-sorted node chains sharing the
    sub-strip.  Advances the chain whose next node has smaller x (tie:
    bottom), so the output is deterministic and counterclockwise."""
    i, j = 0, 0
    nb, nt = len(b_ids) - 1, len(t_ids) - 1
    while i < nb or j < nt:
        if i == nb:
            advance_top = True
        elif j == nt:
            advance_top = False
        else:
            advance_top = t_x[j + 1] < b_x[i + 1]
        if advance_top:
            out.append((b_ids[i], t_ids[j + 1], t_ids[j]))
            j += 1
        else:
            out.append((b_ids[i], b_ids[i + 1], t_ids[j]))
            i += 1


def build_mesh(spec: ProblemSpec, n_layers: int) -> SpaceTimeMesh:
    """Build the interface-fitted mesh with n_layers uniform time strips."""
    if int(n_layers) != n_layers or n_layers < 2:
        raise ValueError(f"n_layers must be an integer >= 2, got {n_layers!r}")
    n_layers = int(n_layers)

    width = spec.x_max - spec.x_min
    dt = spec.t_final / n_layers
    n_x = max(2, round(width / dt))
    pitch = width / n_x
    cull = 0.3 * pitch
    times = np.linspace(0.0, spec.t_final, n_layers + 1)
    shifts = displacement(spec, times)

    line_x = []
    line_ia = []
    line_ib = []
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
        ia = int(np.searchsorted(xs, xa))
        ib = int(np.searchsorted(xs, xb))
        line_x.append(xs)
        line_ia.append(ia)
        line_ib.append(ib)

    offsets = np.cumsum([0] + [len(xs) for xs in line_x])
    vertices = np.stack([np.concatenate(line_x), np.repeat(times, np.diff(offsets))], axis=1)
    tags = np.zeros(len(vertices), dtype=np.int64)
    tags[offsets[:-1]] |= TAG_XMIN
    tags[offsets[1:] - 1] |= TAG_XMAX
    tags[: offsets[1]] |= TAG_T0
    tags[offsets[n_layers]:] |= TAG_TFINAL

    triangles = []
    interface_edges = []
    for j in range(n_layers):
        xb_, xt_ = line_x[j], line_x[j + 1]
        ob, ot = int(offsets[j]), int(offsets[j + 1])
        bids = ob + np.arange(len(xb_))
        tids = ot + np.arange(len(xt_))
        cuts_b = (0, line_ia[j], line_ib[j], len(xb_) - 1)
        cuts_t = (0, line_ia[j + 1], line_ib[j + 1], len(xt_) - 1)
        for band in range(3):
            b0, b1 = cuts_b[band], cuts_b[band + 1]
            t0, t1 = cuts_t[band], cuts_t[band + 1]
            _merge_chains(
                bids[b0 : b1 + 1], xb_[b0 : b1 + 1],
                tids[t0 : t1 + 1], xt_[t0 : t1 + 1],
                triangles,
            )
        interface_edges.append((bids[line_ia[j]], tids[line_ia[j + 1]]))
        interface_edges.append((bids[line_ib[j]], tids[line_ib[j + 1]]))

    triangles = np.asarray(triangles, dtype=np.int64)
    interface_edges = np.asarray(interface_edges, dtype=np.int64)

    # Classify by centroid against the piecewise-linear discrete interface:
    # within each strip the curves are the chords between consecutive
    # interface nodes, linearly interpolated at the centroid time.
    cx = vertices[triangles, 0].mean(axis=1)
    ct = vertices[triangles, 1].mean(axis=1)
    strip = np.clip((ct / dt).astype(np.int64), 0, n_layers - 1)
    frac = ct / dt - strip
    xa_nodes = spec.offset_a + shifts
    xb_nodes = spec.offset_b + shifts
    xl = xa_nodes[strip] * (1.0 - frac) + xa_nodes[strip + 1] * frac
    xr = xb_nodes[strip] * (1.0 - frac) + xb_nodes[strip + 1] * frac
    regions = np.where((cx > xl) & (cx < xr), 1, 2).astype(np.int64)

    return SpaceTimeMesh(
        vertices=vertices,
        triangles=triangles,
        regions=regions,
        interface_edges=interface_edges,
        boundary_tags=tags,
        h=_measure_h(vertices, triangles),
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


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def validate_mesh(mesh: SpaceTimeMesh, spec: ProblemSpec | None = None,
                  rho_max: float = 8.0) -> MeshReport:
    """Run the structural checks; geometry-aware checks (interface fit,
    straddling, region labels) require the problem spec."""
    v, tri = mesh.vertices, mesh.triangles
    areas = _signed_areas(v, tri)
    orientation_violations = int(np.sum(areas <= 0.0))
    min_area = float(np.min(areas)) if len(areas) else 0.0

    # Conformity: an undirected edge may be shared by at most two triangles,
    # and no two distinct vertices may coincide geometrically.
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    # one integer key per sorted pair (a, b): a 1-D unique is far faster
    # than a row-wise one and gives the same edges and counts
    n = mesh.num_vertices
    keys, counts = np.unique(edges[:, 0].astype(np.int64) * n + edges[:, 1],
                             return_counts=True)
    edges = np.stack([keys // n, keys % n], axis=1)
    conformity_violations = int(np.sum(counts > 2))
    order = np.lexsort((v[:, 1], v[:, 0]))
    sv = v[order]
    scale = max(np.ptp(v[:, 0]), np.ptp(v[:, 1]), 1.0)
    dup = np.all(np.abs(np.diff(sv, axis=0)) <= 1e-14 * scale, axis=1)
    conformity_violations += int(np.sum(dup))

    # Coverage of Q (the vertices' bounding box without a spec): an edge of
    # only one triangle must lie on a side of Q, so holes and T-junctions
    # show, and the areas must add up to |Q|.
    if spec is not None:
        lo, hi = np.array([spec.x_min, 0.0]), np.array([spec.x_max, spec.t_final])
    else:
        lo, hi = v.min(axis=0), v.max(axis=0)
    ends = v[edges[counts == 1]]
    tol = 1e-12 * scale
    on_side = (np.all(np.abs(ends - lo) <= tol, axis=1)
               | np.all(np.abs(ends - hi) <= tol, axis=1))
    coverage_violations = int(np.sum(~np.any(on_side, axis=1)))
    box = float(np.prod(hi - lo))
    coverage_violations += int(abs(float(np.sum(areas)) - box) > 1e-12 * box)

    # Quasi-uniformity: largest diameter over smallest incircle diameter.
    e01, e12, e20 = _edge_lengths(v, tri)
    diam = np.maximum(e01, np.maximum(e12, e20))
    perim = e01 + e12 + e20
    with np.errstate(divide="ignore", invalid="ignore"):
        incircle = 4.0 * np.abs(areas) / perim
    h = np.max(diam, initial=0.0)
    quasi = float(h / np.min(incircle)) if len(tri) else 0.0

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

    if spec is not None:
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

        # Independent check of build_mesh's chord-based labels: exact curves at the centroid.
        ca, cb, _ = curve_offsets(spec, v[tri, 0].mean(axis=1), v[tri, 1].mean(axis=1))
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
    """Write the line-oriented text format (lossless round trip)."""
    with open(path, "w") as f:
        f.write("stmesh 1\n")
        f.write("# space-time interface-fitted mesh\n")
        f.write(f"vertices {mesh.num_vertices}\n")
        for (x, t), tag in zip(mesh.vertices, mesh.boundary_tags):
            f.write(f"{x:.17g} {t:.17g} {int(tag)}\n")
        f.write(f"triangles {mesh.num_triangles}\n")
        for (a, b, c), r in zip(mesh.triangles, mesh.regions):
            f.write(f"{a} {b} {c} {int(r)}\n")
        f.write(f"interface_edges {len(mesh.interface_edges)}\n")
        for a, b in mesh.interface_edges:
            f.write(f"{a} {b}\n")


def _significant_lines(path):
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped


def read_mesh(path) -> SpaceTimeMesh:
    """Parse the text format; malformed input raises MeshFormatError with
    the offending 1-based line number."""
    lines = _significant_lines(path)

    def next_line(what):
        try:
            return next(lines)
        except StopIteration:
            raise MeshFormatError(f"unexpected end of file, expected {what}") from None

    lineno, header = next_line("header")
    if header != "stmesh 1":
        raise MeshFormatError(f"expected 'stmesh 1' header, got {header!r}", line=lineno)

    def section(name):
        lineno, text = next_line(f"'{name}' section")
        parts = text.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError(f"expected '{name} <count>', got {text!r}", line=lineno)
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad count {parts[1]!r}", line=lineno) from None
        if count < 0:
            raise MeshFormatError(f"negative count {count}", line=lineno)
        return count

    nv = section("vertices")
    vertices = np.empty((nv, 2))
    tags = np.empty(nv, dtype=np.int64)
    for i in range(nv):
        lineno, text = next_line("vertex line")
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError(f"vertex line needs 'x t tag', got {text!r}", line=lineno)
        try:
            vertices[i, 0] = float(parts[0])
            vertices[i, 1] = float(parts[1])
            tags[i] = int(parts[2])
        except ValueError:
            raise MeshFormatError(f"bad vertex line {text!r}", line=lineno) from None
        if not np.all(np.isfinite(vertices[i])):
            raise MeshFormatError("non-finite vertex coordinate", line=lineno)
        if not (0 <= tags[i] <= _ALL_TAGS):
            raise MeshFormatError(f"boundary tag {tags[i]} out of range", line=lineno)

    nt = section("triangles")
    triangles = np.empty((nt, 3), dtype=np.int64)
    regions = np.empty(nt, dtype=np.int64)
    for i in range(nt):
        lineno, text = next_line("triangle line")
        parts = text.split()
        if len(parts) != 4:
            raise MeshFormatError(
                f"triangle line needs 'v0 v1 v2 region', got {text!r}", line=lineno
            )
        try:
            triangles[i] = [int(parts[0]), int(parts[1]), int(parts[2])]
            regions[i] = int(parts[3])
        except ValueError:
            raise MeshFormatError(f"bad triangle line {text!r}", line=lineno) from None
        if np.any(triangles[i] < 0) or np.any(triangles[i] >= nv):
            raise MeshFormatError("vertex index out of range", line=lineno)
        if regions[i] not in (1, 2):
            raise MeshFormatError(
                f"region label must be 1 or 2, got {regions[i]}", line=lineno
            )

    ne = section("interface_edges")
    iface = np.empty((ne, 2), dtype=np.int64)
    for i in range(ne):
        lineno, text = next_line("interface edge line")
        parts = text.split()
        if len(parts) != 2:
            raise MeshFormatError(f"edge line needs 'vi vj', got {text!r}", line=lineno)
        try:
            iface[i] = [int(parts[0]), int(parts[1])]
        except ValueError:
            raise MeshFormatError(f"bad edge line {text!r}", line=lineno) from None
        if np.any(iface[i] < 0) or np.any(iface[i] >= nv):
            raise MeshFormatError("vertex index out of range", line=lineno)

    for lineno, text in lines:
        raise MeshFormatError(f"trailing content {text!r}", line=lineno)

    return SpaceTimeMesh(
        vertices=vertices,
        triangles=triangles,
        regions=regions,
        interface_edges=iface,
        boundary_tags=tags,
        h=_measure_h(vertices, triangles),
    )
