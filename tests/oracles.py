"""Independent reference computations for the test suite.

Everything here is written the slow, obvious way -- python loops, dense
algebra, textbook formulas -- so that a bug in the vectorized package code
cannot hide in its own oracle.
"""

import numpy as np
import scipy.sparse.linalg as spla

from stcontrol import problem


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


def coupled_lu_solve(system):
    """(u, p) from a direct sparse LU of the assembled 2N x 2N system."""
    x = spla.spsolve(system.combined.tocsc(), system.rhs)
    n = system.mass.shape[0]
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
