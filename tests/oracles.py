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

from stcontrol import fem, problem


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

    region = np.asarray(problem.classify_point(spec, x, t))
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


def coupled_matrix(system):
    """The 2N x 2N coupled matrix [[A, K / eta], [M, -A^T]] of a
    ``solver.BlockSystem``; the solver never builds it."""
    A = system.state_matrix
    combined = sp.bmat(
        [[A, system.stiffness.multiply(1.0 / system.eta)],
         [system.mass, -A.transpose().tocsr()]],
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
