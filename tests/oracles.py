"""Independent reference computations for the test suite.

Everything here is written the slow, obvious way -- python loops, dense
algebra, textbook formulas -- so that a bug in the vectorized package code
cannot hide in its own oracle.
"""

import csv
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stcontrol import fem, linalg, metrics, problem
from stcontrol.errors import GeometryError, MeshingError
from stcontrol.mesh import (TAG_T0, TAG_TFINAL, TAG_XMAX, TAG_XMIN, SpaceTimeMesh,
                            build_mesh)
from stcontrol.problem import (_K1, _K2, _KS, _PHASE1, _PHASE2, _interface_tol,
                               curve_offsets, displacement)


# Helpers only the tests use, kept out of the package.

ON_INTERFACE = 0


def regions(spec, da, db):
    """Region labels from the offsets da, db of ``curve_offsets``: 1 between
    the curves, 2 outside, ON_INTERFACE within the interface tolerance of
    either curve."""
    tol = _interface_tol(spec)
    region = np.where((da > 0.0) & (db < 0.0), 1, 2)
    return np.where((np.abs(da) <= tol) | (np.abs(db) <= tol), ON_INTERFACE, region)


def zero_data_spec() -> problem.ProblemSpec:
    """A moving-interface problem whose desired state is zero everywhere."""
    def zeros(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    return problem.ProblemSpec(
        x_min=0.0, x_max=1.0, t_final=1.0, kappa1=0.5, kappa2=1.0, eta=1e-6,
        velocity=problem.velocity_sine(), offset_a=0.4, offset_b=0.6,
        desired_state=zeros, name="zero-data",
    )


def coercivity_defect(rng, vectors: int, specs) -> float:
    """Largest (|||u|||^2 - u^T A u) / |||u|||^2 over ``vectors`` random u
    per spec, uniform in [-1, 1] on the free state dofs at 8 layers."""
    defects = []
    for spec in specs:
        m = build_mesh(spec, 8)
        dofs = fem.constrained(m, "U")
        free = np.flatnonzero(~dofs)
        a = fem.assemble_state_matrix(m, spec, dofs)
        for _ in range(vectors):
            u = np.zeros(m.num_vertices)
            u[free] = rng.uniform(-1.0, 1.0, free.size)
            quad = float(u @ (a @ u))
            tri2 = metrics.triple_norm(m, spec, u) ** 2
            defects.append((tri2 - quad) / tri2)
    return float(np.max(defects))


def lagrange_interpolate(mesh, spec, field):
    """Vertex values of a continuous field (PiecewiseField branches must
    agree on the interface; interface vertices take the shared value)."""
    x = mesh.vertices[:, 0]
    t = mesh.vertices[:, 1]
    if isinstance(field, problem.PiecewiseField):
        return np.asarray(field.evaluate(spec, x, t), dtype=float)
    return np.asarray(field(x, t), dtype=float)


def classify_point(spec, x, t):
    """Region of (x, t) relative to the exact interface: 1 between the
    curves, 2 outside, ON_INTERFACE (0) within 1e-14*width of either curve."""
    da, db, _ = curve_offsets(spec, x, t)
    region = regions(spec, da, db)
    return region if region.shape else int(region)


def read_csv(path):
    """The ConvergenceReport of a ``report.csv``; ValueError for another
    header."""
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
    return metrics.ConvergenceReport(dofs=dofs, h=hs, error=errors, order=orders)


def simpson_integral(fn, a, b, panels=2000):
    """Composite Simpson rule with an even number of panels."""
    if panels % 2:
        panels += 1
    xs = np.linspace(a, b, panels + 1)
    ys = np.asarray(fn(xs), dtype=float)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * panels) * np.sum(w * ys))


def fd_desired_state(spec, x, t, step=1e-4):
    """u_d at scattered points via Richardson-extrapolated central
    differences of the exact adjoint.

    Only valid away from the interface curves (the stencil must not cross a
    branch boundary) and ``step`` inside the space-time box.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    adj = spec.exact_adjoint

    def p(xx, tt):
        return np.asarray(adj.evaluate(spec, xx, tt), dtype=float)

    def d_dt(h):
        return (p(x, t + h) - p(x, t - h)) / (2.0 * h)

    def d_dx(h):
        return (p(x + h, t) - p(x - h, t)) / (2.0 * h)

    def d_dxx(h):
        return (p(x + h, t) - 2.0 * p(x, t) + p(x - h, t)) / (h * h)

    # one Richardson step kills the leading h^2 term of each central formula
    p_t = (4.0 * d_dt(step / 2.0) - d_dt(step)) / 3.0
    p_x = (4.0 * d_dx(step / 2.0) - d_dx(step)) / 3.0
    p_xx = (4.0 * d_dxx(step / 2.0) - d_dxx(step)) / 3.0

    region = np.asarray(classify_point(spec, x, t))
    kap = np.where(region != 2, spec.kappa1, spec.kappa2)
    v = np.asarray(spec.velocity.fn(t), dtype=float)
    u = np.asarray(spec.exact_state.evaluate(spec, x, t), dtype=float)
    return u + p_t + v * p_x + kap * p_xx


def example1_displacement(t, moving):
    """s(t) of the presets: 0 at rest, 0.05 (1 - cos 2 pi t) when moving."""
    t = np.asarray(t, dtype=float)
    return 0.05 * (1.0 - np.cos(2.0 * math.pi * t)) if moving else np.zeros_like(t)


def example1_pair(xs, ts, moving, eta):
    """The presets' exact state u and adjoint p with their partials, point by
    point from the closed form

        W = sin(k (x - s) - phi) + sin(10 pi s + 23 pi/6),
        u = sin(pi t / 2) W,    p = -eta sin(pi (1 - t) / 2) W,

    with (k, phi) = (20 pi, 47 pi/6) for 0.4 + s <= x <= 0.6 + s, widened by
    1e-14 on both sides, and (10 pi, 23 pi/6) elsewhere.  Returns a dict
    keyed by (field, partial) and "region" (1 or 2 per point)."""
    out = {(f, d): np.empty(len(xs)) for f in ("state", "adjoint")
           for d in ("value", "dx", "dt", "dxx")}
    out["region"] = np.empty(len(xs), dtype=int)
    for i, (x, t) in enumerate(zip(xs, ts)):
        s = float(example1_displacement(t, moving))
        ds = 0.1 * math.pi * math.sin(2.0 * math.pi * t) if moving else 0.0
        inside = 0.4 + s - 1e-14 <= x <= 0.6 + s + 1e-14
        if inside:
            k, phi = 20.0 * math.pi, 47.0 * math.pi / 6.0
        else:
            k, phi = 10.0 * math.pi, 23.0 * math.pi / 6.0
        arg = k * (x - s) - phi
        shared = 10.0 * math.pi * s + 23.0 * math.pi / 6.0
        w = math.sin(arg) + math.sin(shared)
        w_x = k * math.cos(arg)
        w_xx = -k * k * math.sin(arg)
        w_t = -k * ds * math.cos(arg) + 10.0 * math.pi * ds * math.cos(shared)
        ramp, ramp_t = math.sin(0.5 * math.pi * t), 0.5 * math.pi * math.cos(0.5 * math.pi * t)
        fade = math.sin(0.5 * math.pi * (1.0 - t))
        fade_t = -0.5 * math.pi * math.cos(0.5 * math.pi * (1.0 - t))
        for field, env, env_t, amp in (("state", ramp, ramp_t, 1.0),
                                       ("adjoint", fade, fade_t, -eta)):
            out[field, "value"][i] = amp * env * w
            out[field, "dx"][i] = amp * env * w_x
            out[field, "dxx"][i] = amp * env * w_xx
            out[field, "dt"][i] = amp * (env_t * w + env * w_t)
        out["region"][i] = 1 if inside else 2
    return out


def sample_away_from_interface(spec, rng, count, margin):
    """Uniform points of Q at least ``margin`` from both interface curves
    and from every side of the space-time box."""
    xs = np.empty(count)
    ts = np.empty(count)
    have = 0
    while have < count:
        x = rng.uniform(spec.x_min, spec.x_max, 4 * count)
        t = rng.uniform(0.0, spec.t_final, 4 * count)
        s = problem.displacement(spec, t)
        keep = (
            (np.abs(x - (spec.offset_a + s)) > margin)
            & (np.abs(x - (spec.offset_b + s)) > margin)
            & (x > spec.x_min + margin)
            & (x < spec.x_max - margin)
            & (t > margin)
            & (t < spec.t_final - margin)
        )
        x, t = x[keep], t[keep]
        take = min(count - have, x.size)
        xs[have:have + take] = x[:take]
        ts[have:have + take] = t[:take]
        have += take
    return xs, ts


def dense_lu_solve(a, b):
    """Gaussian elimination with partial pivoting on dense copies."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, n):
            m = a[i, k] / a[k, k]
            a[i, k + 1:] -= m * a[k, k + 1:]
            a[i, k] = 0.0
            b[i] -= m * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


def scipy_csr(matrix):
    """A ``linalg.SparseMatrix`` or ``linalg.Tridiagonal`` as a scipy CSR
    matrix with sorted indices and without stored zeros, for the checks that
    use scipy's matrix API: the padded rows, with the zeros of their unused
    slots dropped, or the three bands."""
    if isinstance(matrix, linalg.Tridiagonal):
        csr = sp.diags([matrix.off, matrix.diag, matrix.off], [-1, 0, 1],
                       shape=matrix.shape, format="csr")
        csr.sort_indices()
    else:
        n, width = matrix.shape[0], matrix.vals.shape[0]
        csr = sp.csr_matrix((matrix.vals.T.ravel(), matrix.cols.T.ravel(),
                             np.arange(0, n * width + 1, width)), shape=matrix.shape)
    csr.eliminate_zeros()
    return csr


def coupled_matrix(system):
    """The 2N x 2N coupled matrix [[A, K / eta], [M, -A^T]] of a
    ``solver.BlockSystem``; the solver never builds it."""
    A = scipy_csr(system.state_matrix)
    combined = sp.bmat(
        [[A, scipy_csr(system.stiffness).multiply(1.0 / system.eta)],
         [scipy_csr(system.mass), -A.transpose().tocsr()]],
        format="csr",
    )
    combined.sort_indices()
    return combined


def coupled_lu_solve(system):
    """(u, p) from a direct sparse LU of the assembled 2N x 2N system."""
    n = system.mass.shape[0]
    rhs = np.concatenate([np.zeros(n), system.b_d])
    x = spla.spsolve(coupled_matrix(system).tocsc(), rhs)
    return x[:n], x[n:]


def _corner_geometry(mesh, tri):
    ids = mesh.triangles[tri]
    px = mesh.vertices[ids, 0]
    pt = mesh.vertices[ids, 1]
    det = (px[1] - px[0]) * (pt[2] - pt[0]) - (px[2] - px[0]) * (pt[1] - pt[0])
    area = 0.5 * det
    dldx = np.array([pt[1] - pt[2], pt[2] - pt[0], pt[0] - pt[1]]) / det
    dldt = np.array([px[2] - px[1], px[0] - px[2], px[1] - px[0]]) / det
    return ids, px, pt, area, dldx, dldt


def load_by_element(mesh, field, rule):
    """Triangle-by-triangle load vector with explicit loops."""
    b = np.zeros(mesh.num_vertices)
    for tri in range(mesh.num_triangles):
        ids, px, pt, area, _, _ = _corner_geometry(mesh, tri)
        for lam, w in zip(rule.points, rule.weights):
            xq = float(lam @ px)
            tq = float(lam @ pt)
            val = float(np.asarray(field(xq, tq)))
            for loc in range(3):
                b[ids[loc]] += w * area * val * lam[loc]
    return b


def time_weighted_load_by_element(mesh, w):
    """r[i] = sum over triangles of (dt w_h) * area/3, looped."""
    r = np.zeros(mesh.num_vertices)
    for tri in range(mesh.num_triangles):
        ids, _, _, area, _, dldt = _corner_geometry(mesh, tri)
        dtw = float(w[ids] @ dldt)
        for loc in range(3):
            r[ids[loc]] += dtw * area / 3.0
    return r


def stiffness_by_element(mesh, spec):
    """Dense kappa-weighted spatial stiffness, looped."""
    n = mesh.num_vertices
    k = np.zeros((n, n))
    for tri in range(mesh.num_triangles):
        ids, _, _, area, dldx, _ = _corner_geometry(mesh, tri)
        kap = spec.kappa1 if mesh.regions[tri] != 2 else spec.kappa2
        for a in range(3):
            for b in range(3):
                k[ids[a], ids[b]] += kap * area * dldx[a] * dldx[b]
    return k


# Fem's assembly before the shared sparsity pattern: whole (M, 3, 3) element
# blocks, merged by a COO -> CSR conversion per matrix.  ``element_blocks``
# gives the blocks of A, K and M with the same expressions as the package
# used; ``to_csr_reference`` is the merge, kept unedited.

def element_blocks(mesh, spec):
    """The (M, 3, 3) local blocks of A, K and M by name."""
    _, t, area, dldx, dldt = fem.triangle_geometry(mesh)
    rule = fem.rule_degree2()
    local = np.zeros((mesh.num_triangles, 3, 3))
    for lam, w in zip(rule.points, rule.weights):
        tq = t @ lam
        vq = np.asarray(spec.velocity.fn(tq))
        coeff = dldt + vq[:, None] * dldx
        local += (w * area)[:, None, None] * lam[None, :, None] * coeff[:, None, :]
    kap = spec.kappa_of_region(mesh.regions)
    stiffness = (kap * area)[:, None, None] * dldx[:, :, None] * dldx[:, None, :]
    block = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return {"A": local + stiffness, "K": stiffness,
            "M": area[:, None, None] * block[None, :, :]}


def to_csr_reference(local, mesh, row_dofs, col_dofs):
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
            keep &= ~row_dofs[rows]
        if col_dofs is not None:
            keep &= ~col_dofs[cols]
        rows, cols, data = rows[keep], cols[keep], data[keep]
        if row_dofs is not None:
            diag = np.flatnonzero(row_dofs)
            rows = np.concatenate([rows, diag])
            cols = np.concatenate([cols, diag])
            data = np.concatenate([data, np.ones(len(diag))])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()  # summed, sorted
    mat.eliminate_zeros()
    return mat


def triple_sq_by_element(mesh, spec, w):
    """|||w|||^2 by explicit element loop."""
    total = 0.0
    for tri in range(mesh.num_triangles):
        ids, _, _, area, dldx, _ = _corner_geometry(mesh, tri)
        kap = spec.kappa1 if mesh.regions[tri] != 2 else spec.kappa2
        dxw = float(w[ids] @ dldx)
        total += kap * area * dxw * dxw
    return total


def p1_best_gradient_approximation(mesh, spec):
    """min over all P1 functions v on ``mesh`` of || dx u - dx v ||_{L2(Q)},
    u the exact state, in the quadrature of ``metrics.energy_error``.

    No boundary condition is imposed on v, so the minimum is a lower bound
    for the state part of the energy error of every discrete solution.
    dx v is constant on each element, so the fit only sees the element
    means of dx u.  On a mesh whose triangles each span two time lines, the
    P1 functions with dx v = 0 are exactly those constant on every time
    line, so one vertex per time line is pinned to zero without changing
    the minimum; that makes the normal equations SPD.
    """
    rule = fem.subdivided_rule(fem.rule_degree5(), 1)
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    area = np.zeros(mesh.num_triangles)
    mean = np.zeros(mesh.num_triangles)
    spread = 0.0
    for tri in range(mesh.num_triangles):
        ids, px, pt, area[tri], dldx, _ = _corner_geometry(mesh, tri)
        if len(set(pt)) != 2:
            raise ValueError(f"triangle {tri} does not span exactly two time lines")
        xq = rule.points @ px
        tq = rule.points @ pt
        g = np.asarray(spec.exact_state.evaluate(spec, xq, tq, "dx"), dtype=float)
        mean[tri] = float(rule.weights @ g)
        spread += area[tri] * float(rule.weights @ (g - mean[tri]) ** 2)
        for loc in range(3):
            rows.append(tri)
            cols.append(ids[loc])
            vals.append(dldx[loc])
    grad = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.num_triangles, n))
    _, pinned = np.unique(mesh.vertices[:, 1], return_index=True)
    grad = grad[:, np.setdiff1d(np.arange(n), pinned)]
    normal = (grad.T @ sp.diags(area) @ grad).tocsc()
    fit = grad @ spla.spsolve(normal, grad.T @ (area * mean))
    return math.sqrt(spread + float(np.sum(area * (mean - fit) ** 2)))


# The scalar output writers as they were before the whole-array rewrite:
# one f-string per triangle corner and one csv.writer row per vertex.  The
# bodies are kept unedited so the package's writers can be held to their bytes.

_SIZE = 640.0
_MARGIN = 40.0


def _diverging_color(c):
    """c in [-1, 1] -> blue-white-red."""
    c = min(1.0, max(-1.0, c))
    if c >= 0.0:
        r, g, b = 255, round(255 * (1.0 - c)), round(255 * (1.0 - c))
    else:
        r, g, b = round(255 * (1.0 + c)), round(255 * (1.0 + c)), 255
    return f"rgb({r},{g},{b})"


def render_field_reference(mesh, values, path, title: str = "") -> None:
    values = np.asarray(values, dtype=float)
    v = mesh.vertices
    x0, x1 = float(np.min(v[:, 0])), float(np.max(v[:, 0]))
    t0, t1 = float(np.min(v[:, 1])), float(np.max(v[:, 1]))
    span = _SIZE - 2.0 * _MARGIN

    def sx(x):
        return _MARGIN + (x - x0) / (x1 - x0) * span

    def sy(t):
        return _MARGIN + (1.0 - (t - t0) / (t1 - t0)) * span

    vmax = float(np.max(np.abs(values))) or 1.0
    tri_vals = values[mesh.triangles].mean(axis=1)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<rect width="100%" height="100%" fill="white"/>',
    ]
    for tri, val in zip(mesh.triangles, tri_vals):
        pts = " ".join(
            f"{sx(v[i, 0]):.2f},{sy(v[i, 1]):.2f}" for i in tri
        )
        color = _diverging_color(val / vmax)
        lines.append(f'<polygon points="{pts}" fill="{color}" stroke="none"/>')
    for a, b in mesh.interface_edges:
        lines.append(
            f'<line x1="{sx(v[a, 0]):.2f}" y1="{sy(v[a, 1]):.2f}" '
            f'x2="{sx(v[b, 0]):.2f}" y2="{sy(v[b, 1]):.2f}" '
            f'stroke="black" stroke-width="0.8"/>'
        )
    if title:
        lines.append(
            f'<text x="{_MARGIN:.0f}" y="{_MARGIN * 0.6:.0f}" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# The log-log plot and its document writer as they were before render_field
# wrote its polygons in chunks, kept unedited but for the names.

def _write_svg_reference(path, body, title) -> None:
    """One document: the white canvas, the ``body`` elements and the title."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
    ]
    if title:
        lines.append(
            f'<text x="{_MARGIN:.0f}" y="{_MARGIN * 0.6:.0f}" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def render_loglog_reference(hs, errors, path, title: str = "") -> None:
    """Error against h on log-log axes with a slope-1 guide.  Levels whose
    error is not positive have no logarithm and are left out; with none
    left, only the frame and the title are drawn."""
    span = _SIZE - 2.0 * _MARGIN
    lines = [
        f'<rect x="{_MARGIN:.0f}" y="{_MARGIN:.0f}" width="{span:.0f}" '
        f'height="{span:.0f}" fill="none" stroke="black"/>',
    ]
    kept = [(math.log10(float(h)), math.log10(float(e)))
            for h, e in zip(hs, errors) if float(e) > 0.0]
    if not kept:
        _write_svg_reference(path, lines, title)
        return
    lx, ly = zip(*kept)
    pad = 0.2
    x0, x1 = min(lx) - pad, max(lx) + pad
    y0, y1 = min(ly) - pad, max(ly) + pad

    def sx(v):
        return _MARGIN + (v - x0) / (x1 - x0) * span

    def sy(v):
        return _MARGIN + (1.0 - (v - y0) / (y1 - y0)) * span

    # slope-1 reference through the finest point
    gx = [x0 + pad / 2, x1 - pad / 2]
    gy = [ly[-1] + (g - lx[-1]) for g in gx]
    lines.append(
        f'<line x1="{sx(gx[0]):.2f}" y1="{sy(gy[0]):.2f}" '
        f'x2="{sx(gx[1]):.2f}" y2="{sy(gy[1]):.2f}" '
        f'stroke="gray" stroke-dasharray="6,4"/>'
    )
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    lines.append(
        f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>'
    )
    for a, b in zip(lx, ly):
        lines.append(
            f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3.5" fill="crimson"/>'
        )
    _write_svg_reference(path, lines, title)


def solution_csv_reference(path, m, sol, z_f):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["vertex_id", "x", "t", "u", "p", "z_f"])
        for i in range(m.num_vertices):
            writer.writerow([
                i,
                f"{m.vertices[i, 0]:.17g}",
                f"{m.vertices[i, 1]:.17g}",
                f"{sol.u[i]:.17g}",
                f"{sol.p[i]:.17g}",
                f"{z_f[i]:.17g}",
            ])


def locate_brute_force(mesh, x, t, tol=1e-12):
    """Lowest index of a triangle containing each point, -1 for none.

    Tests every triangle in turn, with barycentrics from its inverse
    Jacobian [[c2t, -c2x], [-c1t, c1x]] / det, where c1 and c2 are the
    edges from corner 0 to corners 1 and 2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.full(len(x), -1, dtype=np.int64)
    for k, (p0, p1, p2) in enumerate(mesh.vertices[mesh.triangles]):
        c1, c2 = p1 - p0, p2 - p0
        det = c1[0] * c2[1] - c2[0] * c1[1]
        inv = np.array([[c2[1], -c2[0]], [-c1[1], c1[0]]]) / det
        dx, dt = x - p0[0], t - p0[1]
        lam1 = inv[0, 0] * dx + inv[0, 1] * dt
        lam2 = inv[1, 0] * dx + inv[1, 1] * dt
        inside = (lam1 >= -tol) & (lam2 >= -tol) & (1.0 - lam1 - lam2 >= -tol)
        out[inside & (out < 0)] = k
    return out


def search_unbracketed(locator, x, t, strip):
    """``PointLocator._search`` before its bracket: one binary search over
    each point's whole strip, as many steps as the longest strip needs."""
    lo, hi = locator.first[strip], locator.first[strip + 1] - 1
    for _ in range(int(np.max(np.diff(locator.first)) - 1).bit_length()):
        mid = (lo + hi) // 2
        lam0, _, lam2 = locator._lam(mid, x, t)
        left = np.where(locator.opposite[mid] == 0, lam0, lam2) >= -metrics.LOCATE_TOL
        hi, lo = np.where(left, mid, hi), np.where(left, lo, np.minimum(mid + 1, hi))
    return lo, np.all(np.stack(locator._lam(lo, x, t)) >= -metrics.LOCATE_TOL, axis=0)


# The exact pair, u_d, the load and the energy error as evaluated before the
# time classes, with every t-only factor computed at every point.  Copied
# with only their names (and module prefixes) changed, so the gathered
# evaluation of the package can be checked bit for bit.


def points_reference(spec, x, t, with_v):
    """The shape of the broadcast batch (x, t), and its flat x, t, s(t),
    region and (``with_v``) v(t), each computed once."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    shape = x.shape
    x, t = x.ravel(), t.ravel()
    da, db, s = curve_offsets(spec, x, t)
    v = np.asarray(spec.velocity.fn(t), dtype=float) if with_v else None
    return shape, (x, t, s, regions(spec, da, db), v)


def partials_reference(self, x, t, s, region, v, derivs, trig):
    """The partials ``derivs`` at flat points with displacement s, region
    and speed v; each point takes the wave (k, phase) of its region.  Each
    sine and cosine is computed only when a partial uses it, and at most
    once per ``trig`` memo: fields evaluated on the same points share g,
    gs and their sines and cosines."""

    def shared(key, make):
        if key not in trig:
            trig[key] = make()
        return trig[key]

    # k and phase per point: region 1's on region 1 and the interface
    k, phase = shared("k", lambda: np.where(region != 2, [[_K1], [_PHASE1]],
                                            [[_K2], [_PHASE2]]))
    g = shared("g", lambda: k * (x - s) - phase)
    gs = shared("gs", lambda: _KS * s + _PHASE2)
    sin_g = shared("sin g", lambda: np.sin(g)) if {"value", "dt", "dxx"} & derivs else None
    cos_g = shared("cos g", lambda: np.cos(g)) if {"dx", "dt"} & derivs else None
    w = (shared("w", lambda: sin_g + shared("sin gs", lambda: np.sin(gs)))
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


def exact_partials_reference(spec, x, t, derivs):
    """The partials ``derivs`` of the exact state and adjoint at (x, t) as
    rows (state derivs[0], adjoint derivs[0], state derivs[1], ...), from one
    s(t), one region per point and one set of shared sines and cosines."""
    need = set(derivs)
    shape, pts = points_reference(spec, x, t, with_v="dt" in need)
    trig = {}
    u = partials_reference(spec.exact_state, *pts, need, trig)
    p = partials_reference(spec.exact_adjoint, *pts, need, trig)
    rows = [f[d] for d in derivs for f in (u, p)]
    return np.reshape(rows, (len(rows),) + shape)


def derive_desired_state_reference(spec):
    """u_d from the exact pair through the strong adjoint equation:

        u_d = u + dt p + v(t) dx p + kappa_i dxx p,

    with the wave and kappa of each point's true subdomain."""
    if spec.exact_state is None or spec.exact_adjoint is None:
        raise ValueError("deriving u_d requires exact state and adjoint fields")

    def u_d(x, t):
        shape, pts = points_reference(spec, x, t, with_v=True)
        trig = {}
        u = partials_reference(spec.exact_state, *pts, {"value"}, trig)["value"]
        p = partials_reference(spec.exact_adjoint, *pts, {"dt", "dx", "dxx"}, trig)
        _, _, _, region, v = pts
        kappa = spec.kappa_of_region(region)
        return (u + p["dt"] + v * p["dx"] + kappa * p["dxx"]).reshape(shape)

    return u_d


# The closed form the package evaluates: every partial of a field, and u_d,
# is alpha sin g + beta cos g + gamma, with g = k_r (x - s) - phase_r of the
# point's region r and alpha, beta, gamma functions of t and r.  Written point
# by point, with every t-only factor computed at every point and the region
# taken from ``regions``, in the package's operation order, so the gathered
# evaluation of the package can be checked bit for bit.


def closed_form_points_reference(spec, x, t, with_v):
    """The shape of the broadcast batch (x, t), and its flat x, t, s(t),
    region-2 mask and (``with_v``) v(t)."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    shape = x.shape
    x, t = x.ravel(), t.ravel()
    da, db, s = curve_offsets(spec, x, t)
    v = np.asarray(spec.velocity.fn(t), dtype=float) if with_v else None
    return shape, (x, t, s, regions(spec, da, db) == 2, v)


def _closed_form_wave(x, s, outer):
    """k and g = k (x - s) - phase per point, with region 2's (k, phase)
    where ``outer`` and region 1's elsewhere."""
    k = np.where(outer, _K2, _K1)
    return k, k * (x - s) - np.where(outer, _PHASE2, _PHASE1)


def _closed_form_envelope(field, t):
    """amplitude * envelope and amplitude * its time derivative, per point."""
    half_pi = 0.5 * math.pi
    arg = half_pi * (1.0 - t if field.fade else t)
    slope = -half_pi if field.fade else half_pi
    return (field.amplitude * np.sin(arg),
            field.amplitude * (slope * np.cos(arg)))


def closed_form_partial_reference(field, deriv, x, t, s, outer, v):
    """The partial ``deriv`` of ``field`` at flat points: with A the scaled
    envelope, value A sin g + A sin gs, dx A k cos g, dxx -A k^2 sin g and
    dt A' sin g - A v k cos g + A' sin gs + A 10 pi v cos gs."""
    a, da = _closed_form_envelope(field, t)
    k, g = _closed_form_wave(x, s, outer)
    gs = _KS * s + _PHASE2
    if deriv == "value":
        return a * np.sin(g) + a * np.sin(gs)
    if deriv == "dx":
        return (a * k) * np.cos(g)
    if deriv == "dxx":
        return (a * -(k * k)) * np.sin(g)
    if deriv == "dt":
        return (da * np.sin(g) + (-(a * v) * k) * np.cos(g)
                + (da * np.sin(gs) + a * (_KS * v) * np.cos(gs)))
    raise ValueError(f"no partial {deriv!r}")


def closed_form_partials_reference(spec, x, t, derivs):
    """The rows of ``problem.exact_partials`` point by point: state
    derivs[0], adjoint derivs[0], state derivs[1], ..."""
    shape, pts = closed_form_points_reference(spec, x, t, "dt" in derivs)
    rows = [closed_form_partial_reference(f, d, *pts) for d in derivs
            for f in (spec.exact_state, spec.exact_adjoint)]
    return np.reshape(rows, (len(rows),) + shape)


def closed_form_desired_state_reference(spec):
    """u_d = u + dt p + v dx p + kappa_r dxx p point by point in its closed
    form: the cos g terms of dt p and v dx p cancel, so

        u_d = (A_u + A_p' - A_p kappa_r k_r^2) sin g
              + (A_u + A_p') sin gs + A_p 10 pi v cos gs."""
    u, p = spec.exact_state, spec.exact_adjoint

    def u_d(x, t):
        shape, (x, t, s, outer, v) = closed_form_points_reference(spec, x, t, True)
        a_u, _ = _closed_form_envelope(u, t)
        a_p, da_p = _closed_form_envelope(p, t)
        k, g = _closed_form_wave(x, s, outer)
        kappa = np.where(outer, spec.kappa2, spec.kappa1)
        gs = _KS * s + _PHASE2
        gamma = (a_u + da_p) * np.sin(gs) + a_p * (_KS * v) * np.cos(gs)
        out = ((a_u + da_p) - a_p * (kappa * (k * k))) * np.sin(g) + gamma
        return out.reshape(shape)

    return u_d


def time_classes_reference(mesh):
    """Exact time classes of the triangles: one per distinct (line of
    corner 0, line of corner 1, line of corner 2), with the lines the
    distinct vertex times.  Returns (corners, index): ``corners[:, c]``
    holds the three corner times of class c and ``index[m]`` is the class
    of triangle m."""
    lines, line = np.unique(mesh.vertices[:, 1], return_inverse=True)
    n = np.int64(len(lines))
    ids = line[mesh.triangles.T].astype(np.int64)
    keys, index = np.unique((ids[0] * n + ids[1]) * n + ids[2], return_inverse=True)
    rest, c2 = np.divmod(keys, n)
    c0, c1 = np.divmod(rest, n)
    return lines[np.stack([c0, c1, c2])], index


def assemble_load_reference(mesh, field, dofs=None, subdiv=1, *, geometry=None):
    """b[i] = integral of field * psi_i using the degree-5 composite rule.
    ``field`` is a vectorized callable (x, t) -> values."""
    x, t, area, _, _ = fem._geometry(mesh, geometry)
    rule = fem.subdivided_rule(fem.rule_degree5(), subdiv)
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
        b[dofs] = 0.0
    return b


def error_integral_reference(mesh, discrete, reference, subdiv, geometry):
    """(sum_i ||r_i - d_i||^2)^(1/2) by composite degree-5 quadrature, for
    element-constant d_i and r_i = reference(x, t)[i]; ``geometry`` is
    ``fem.triangle_geometry(mesh)``."""
    x, t, area, _, _ = geometry
    rule = fem.subdivided_rule(fem.rule_degree5(), subdiv)
    acc = np.zeros(mesh.num_triangles)
    for lam, w in zip(rule.points, rule.weights):
        point = 0.0
        for r, d in zip(reference(x @ lam, t @ lam), discrete):
            e = r - d
            point = point + e * e
        acc += w * point
    return math.sqrt(float(np.sum(acc * area)))


def energy_error_reference(mesh, spec, u, p, subdiv=1, spacetime_gradient=False,
                           partials=exact_partials_reference):
    """curly-E: unweighted L2 mismatch of the (spatial) gradients of state
    and adjoint against the exact pair, by composite degree-5 quadrature
    with true-subdomain branch selection; one ``partials`` call per
    quadrature point gives every exact partial of both fields."""
    if spec.exact_state is None or spec.exact_adjoint is None:
        raise ValueError("energy_error requires exact state and adjoint fields")
    geometry = fem.triangle_geometry(mesh)
    dxu, dtu = fem.element_gradients(mesh, u, geometry=geometry)
    dxp, dtp = fem.element_gradients(mesh, p, geometry=geometry)
    derivs = ("dx", "dt") if spacetime_gradient else ("dx",)
    return error_integral_reference(mesh, [dxu, dxp, dtu, dtp],
                                    lambda x, t: partials(spec, x, t, derivs),
                                    subdiv, geometry)



def _edge_lengths_reference(vertices, triangles):
    """Lengths of each triangle's edges 01, 12 and 20, shape (3, M)."""
    p = vertices[triangles]
    return np.linalg.norm(p[:, [0, 1, 2]] - p[:, [1, 2, 0]], axis=2).T


def _measure_h_reference(vertices, triangles):
    return float(np.max(_edge_lengths_reference(vertices, triangles), initial=0.0))


def _merge_chains_reference(b_ids, b_x, t_ids, t_x, out):
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


def build_mesh_reference(spec: problem.ProblemSpec, n_layers: int) -> SpaceTimeMesh:
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
            _merge_chains_reference(
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
        h=_measure_h_reference(vertices, triangles),
    )


def write_mesh_reference(mesh: SpaceTimeMesh, path) -> None:
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


def read_mesh_reference(path) -> SpaceTimeMesh:
    """The mesh in a file of ``write_mesh_reference``'s format, which it
    trusts: nothing is checked."""
    with open(path) as f:
        rows = [line.split() for line in f if line.strip() and not line.startswith("#")]
    sections, at = {}, 1  # row 0 is the header
    for name in ("vertices", "triangles", "interface_edges"):
        count = int(rows[at][1])
        sections[name] = rows[at + 1:at + 1 + count]
        at += 1 + count
    vertices = np.array([r[:2] for r in sections["vertices"]], dtype=float).reshape(-1, 2)
    triangles = np.array([r[:3] for r in sections["triangles"]],
                         dtype=np.int64).reshape(-1, 3)
    return SpaceTimeMesh(
        vertices=vertices,
        triangles=triangles,
        regions=np.array([r[3] for r in sections["triangles"]], dtype=np.int64),
        interface_edges=np.array(sections["interface_edges"], dtype=np.int64).reshape(-1, 2),
        boundary_tags=np.array([r[2] for r in sections["vertices"]], dtype=np.int64),
        h=_measure_h_reference(vertices, triangles),
    )
