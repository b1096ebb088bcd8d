"""Quadrature rules, constraint masks and P1 assembly kernels."""

import dataclasses
import math
import re

import numpy as np
import pytest

import oracles
from stcontrol import fem, linalg, mesh, problem, solver


def unit_triangle_mesh(region=1):
    return mesh.SpaceTimeMesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        regions=np.array([region]),
        interface_edges=np.zeros((0, 2), dtype=np.int64),
        boundary_tags=np.zeros(3, dtype=np.int64),
        h=math.sqrt(2.0),
    )


def toy_spec(kappa1=1.0, kappa2=1.0, velocity=None):
    # interface band parked far away from any toy element
    return problem.ProblemSpec(
        x_min=-10.0, x_max=10.0, t_final=1.0, kappa1=kappa1, kappa2=kappa2,
        eta=1.0, velocity=velocity or problem.velocity_zero(),
        offset_a=-5.0, offset_b=-4.0,
    )


def constant_velocity(c):
    return problem.Velocity(
        fn=lambda t: np.full_like(np.asarray(t, dtype=float), c),
        antiderivative=lambda t: c * np.asarray(t, dtype=float),
        name="constant",
    )


def rule_monomial(rule, p, q):
    # reference triangle (0,0)-(1,0)-(0,1): x = lambda_2, t = lambda_3
    vals = rule.points[:, 1] ** p * rule.points[:, 2] ** q
    return 0.5 * float(np.sum(rule.weights * vals))


def test_rules_integrate_monomials_exactly():
    # the monomials x^p t^q up to each rule's degree
    for rule in (fem.rule_degree2(), fem.rule_degree5(),
                 fem.subdivided_rule(fem.rule_degree5(), 1)):
        for p in range(rule.degree + 1):
            for q in range(rule.degree + 1 - p):
                exact = math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
                assert abs(rule_monomial(rule, p, q) - exact) < 1e-14, (rule.degree, p, q)


def test_degree2_rule_is_not_exact_on_cubics():
    exact = math.factorial(3) / math.factorial(5)
    assert abs(rule_monomial(fem.rule_degree2(), 3, 0) - exact) > 1e-3


def test_subdivision_shrinks_quadrature_error():
    exact = math.factorial(7) / math.factorial(9)
    base = abs(rule_monomial(fem.rule_degree5(), 7, 0) - exact)
    fine = abs(rule_monomial(fem.subdivided_rule(fem.rule_degree5(), 2), 7, 0) - exact)
    assert base > 0.0
    assert fine < base / 10.0


def test_subdivided_rule_structure():
    rule = fem.subdivided_rule(fem.rule_degree5(), 2)
    assert rule.points.shape == (7 * 16, 3)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
    assert np.all(rule.points > -1e-15)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        fem.subdivided_rule(fem.rule_degree5(), -1)


def test_subdivided_rule_stops_at_its_bound():
    rule = fem.subdivided_rule(fem.rule_degree5(), fem.MAX_QUAD_SUBDIV)
    assert rule.points.shape == (7 * 4 ** fem.MAX_QUAD_SUBDIV, 3)
    with pytest.raises(ValueError, match="from 0 to"):
        fem.subdivided_rule(fem.rule_degree5(), fem.MAX_QUAD_SUBDIV + 1)


def test_quadrature_rule_rejects_bad_weights():
    with pytest.raises(ValueError):
        fem.QuadratureRule(points=np.full((2, 3), 1.0 / 3.0),
                           weights=np.array([0.5, 0.6]), degree=1)


def test_unit_triangle_stiffness():
    m = unit_triangle_mesh(region=1)
    k = oracles.scipy_csr(fem.assemble_spatial_stiffness(m, toy_spec(kappa1=1.0))).toarray()
    want = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(k, want, atol=1e-15)
    # region-2 elements pick up kappa2
    m2 = unit_triangle_mesh(region=2)
    k2 = oracles.scipy_csr(fem.assemble_spatial_stiffness(m2, toy_spec(kappa2=3.0))).toarray()
    assert np.allclose(k2, 3.0 * want, atol=1e-15)


def test_unit_triangle_mass():
    m = unit_triangle_mesh()
    got = oracles.scipy_csr(fem.assemble_mass(m)).toarray()
    want = 0.5 / 12.0 * (np.ones((3, 3)) + np.eye(3))
    assert np.allclose(got, want, atol=1e-16)


def test_unit_triangle_state_matrix_constant_velocity():
    c = 0.7
    m = unit_triangle_mesh(region=1)
    spec = toy_spec(kappa1=2.0, velocity=constant_velocity(c))
    got = oracles.scipy_csr(fem.assemble_state_matrix(m, spec)).toarray()
    area = 0.5
    dldx = np.array([-1.0, 1.0, 0.0])
    dldt = np.array([-1.0, 0.0, 1.0])
    conv = area / 3.0 * np.tile(dldt + c * dldx, (3, 1))
    diff = 2.0 * area * np.outer(dldx, dldx)
    assert np.allclose(got, conv + diff, atol=1e-14)


def test_state_matrix_zero_velocity_paths_agree(static_spec):
    m = mesh.build_mesh(static_spec, 6)
    a1 = fem.assemble_state_matrix(m, static_spec)
    silent = dataclasses.replace(static_spec, velocity=problem.velocity_sine(amplitude=0.0))
    a2 = fem.assemble_state_matrix(m, silent)
    assert np.array_equal(oracles.scipy_csr(a1).toarray(), oracles.scipy_csr(a2).toarray())


def test_assembly_is_deterministic(moving_spec):
    m = mesh.build_mesh(moving_spec, 6)
    dofs = fem.constrained(m, "U")
    a1 = fem.assemble_state_matrix(m, moving_spec, dofs)
    a2 = fem.assemble_state_matrix(m, moving_spec, dofs)
    assert np.array_equal(a1.vals, a2.vals)
    assert np.array_equal(a1.cols, a2.cols)
    ud = problem.desired_state_function(moving_spec)
    b1 = fem.assemble_load(m, ud, dofs)
    b2 = fem.assemble_load(m, ud, dofs)
    assert np.array_equal(b1, b2)


def test_load_partition_of_unity(moving_spec):
    m = mesh.build_mesh(moving_spec, 5)

    def one(x, t, *, t_index):
        return np.ones_like(np.asarray(x, dtype=float))

    b = fem.assemble_load(m, one)
    assert float(np.sum(b)) == pytest.approx(1.0, abs=1e-13)
    mass_cols = np.asarray(fem.assemble_mass(m) @ np.ones(m.num_vertices))
    assert np.allclose(b, mass_cols, atol=1e-14)


def test_load_matches_looped_oracle(moving_spec):
    m = mesh.build_mesh(moving_spec, 5)
    ud = problem.desired_state_function(moving_spec)
    got = fem.assemble_load(m, ud)
    want = oracles.load_by_element(m, ud, fem.subdivided_rule(fem.rule_degree5(), 1))
    assert np.allclose(got, want, rtol=1e-10, atol=1e-14)


def test_constant_desired_state_loads_like_ones(moving_spec):
    # a constant u_d returns a scalar; it is broadcast to the batch, so it
    # loads bitwise like the array of ones and the system solves
    m = mesh.build_mesh(moving_spec, 8)
    dofs = fem.constrained(m, "U")

    def ones(x, t, *, t_index):
        return np.ones_like(np.asarray(x, dtype=float))

    spec = dataclasses.replace(moving_spec, desired_state=lambda x, t: 1.0)
    for subdiv in (0, 1):
        got = fem.assemble_load(m, problem.desired_state_function(spec), dofs, subdiv)
        assert np.array_equal(got, fem.assemble_load(m, ones, dofs, subdiv)), subdiv
    assert solver.solve_optimality(m, spec).residual <= 1e-8


@pytest.mark.parametrize("shape", [(2,), (3, 1), "rows"])
def test_load_field_of_a_wrong_shape_is_refused(moving_spec, shape):
    m = mesh.build_mesh(moving_spec, 4)

    def field(x, t, *, t_index):
        return np.ones((2, len(x)) if shape == "rows" else shape)

    expected = (m.num_triangles,)
    with pytest.raises(ValueError, match=re.escape(f"expected {expected}")):
        fem.assemble_load(m, field)


def test_time_weighted_load_matches_looped_oracle(moving_spec):
    m = mesh.build_mesh(moving_spec, 6)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(m.num_vertices)
    got = fem.assemble_time_weighted_load(m, w)
    want = oracles.time_weighted_load_by_element(m, w)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-13)


def test_dofmaps(static_spec):
    m = mesh.build_mesh(static_spec, 4)
    u = fem.constrained(m, "U")
    w = fem.constrained(m, "W")
    lateral = (m.boundary_tags & (mesh.TAG_XMIN | mesh.TAG_XMAX)) != 0
    initial = (m.boundary_tags & mesh.TAG_T0) != 0
    assert np.array_equal(u, lateral | initial)
    assert np.array_equal(w, lateral)
    # one boolean per vertex: each dof is free or constrained
    assert u.shape == w.shape == (m.num_vertices,)
    assert u.dtype == w.dtype == bool
    with pytest.raises(ValueError):
        fem.constrained(m, "V")


def test_constrained_rows_and_columns(static_spec):
    m = mesh.build_mesh(static_spec, 5)
    dofs = fem.constrained(m, "U")
    a = oracles.scipy_csr(fem.assemble_state_matrix(m, static_spec, dofs))
    for i in np.flatnonzero(dofs):
        row = a.getrow(int(i))
        assert row.nnz == 1
        assert row.indices[0] == i
        assert row.data[0] == 1.0
    cols = a.tocsc()
    for j in np.flatnonzero(dofs):
        col = cols.getcol(int(j))
        assert col.nnz == 1
        assert col.indices[0] == j


PRESET_MESHES = [("static_spec", "static_mesh30"), ("moving_spec", "moving_mesh30")]


@pytest.mark.parametrize("preset", PRESET_MESHES, ids=["static", "moving"])
def test_assembled_matrices_keep_the_padded_row_invariants(request, preset):
    # linalg.SparseMatrix's contract, which diagonal(k) and .T rely on: the
    # used slots of each row have strictly increasing columns, so no (i, j)
    # is stored twice, and each unused slot holds the row's own index and 0;
    # A and M share the padded pattern (K is a linalg.Tridiagonal)
    spec, m = (request.getfixturevalue(name) for name in preset)
    dofs_u = fem.constrained(m, "U")
    mats = {"M": fem.assemble_mass(m, dofs_u)}
    for space in ("U", "W"):
        dofs_p = fem.constrained(m, space)
        mats["A", space] = fem.assemble_state_matrix(m, spec, dofs=dofs_u, row_dofs=dofs_p)
    for name, mat in mats.items():
        # a slot holding its row's index and 0 counts as unused
        used = (mat.cols != np.arange(mat.shape[0])) | (mat.vals != 0.0)
        last = np.full(mat.shape[0], -1)
        for k in range(mat.cols.shape[0]):
            assert np.all(mat.cols[k, used[k]] > last[used[k]]), (name, k)
            last = np.where(used[k], mat.cols[k], last)


@pytest.mark.parametrize("preset", ["static_spec", "moving_spec"])
def test_matrix_products_match_dense_products(request, preset):
    # each product row is a sum of at most 9 terms, so it is within 1e-14
    # of the dense product relative to the sum of the terms' magnitudes
    spec = request.getfixturevalue(preset)
    m = mesh.build_mesh(spec, 8)
    v = np.random.default_rng(8).standard_normal(m.num_vertices)
    for space in ("U", "W"):
        system = solver.build_block_system(m, spec, space)
        A, M = system.state_matrix, system.mass
        for name, mat in (("A", A), ("K", system.stiffness), ("M", M)):
            dense = oracles.scipy_csr(mat).toarray()
            products = [(mat @ v, dense)]
            if name != "K":  # a symmetric linalg.Tridiagonal, with no .T
                products.append((mat.T @ v, dense.T))
            for got, want in products:
                bound = 1e-14 * (np.abs(want) @ np.abs(v))
                assert np.all(np.abs(got - want @ v) <= bound), (space, name)
        av, mv = linalg.matvecs((A, M), v)
        assert np.array_equal(av, A @ v) and np.array_equal(mv, M @ v), space


@pytest.mark.parametrize("preset", PRESET_MESHES, ids=["static", "moving"])
def test_stiffness_couples_only_time_line_neighbours(request, preset):
    # the lone vertex of each strip triangle has dx gradient exactly 0
    spec, m = (request.getfixturevalue(name) for name in preset)
    t = m.vertices[:, 1]
    for space in ("U", "W"):
        k = fem.assemble_spatial_stiffness(m, spec, fem.constrained(m, space))
        k = oracles.scipy_csr(k).tocoo()
        off = k.row != k.col
        i, j = k.row[off], k.col[off]
        assert np.all(t[i] == t[j]), space
        assert np.all(np.abs(i - j) == 1), space


@pytest.mark.parametrize("preset", PRESET_MESHES, ids=["static", "moving"])
def test_stiffness_factor_is_linear_in_vertices(request, preset):
    spec, m = (request.getfixturevalue(name) for name in preset)
    n = m.num_vertices
    for space in ("U", "W"):
        k = fem.assemble_spatial_stiffness(m, spec, fem.constrained(m, space))
        lu = linalg.factorize(k).lu
        # the banded Cholesky factor: the diagonal and one superdiagonal
        assert lu.nnz == 2 * n - 1, space


def test_state_form_coercivity(static_spec):
    rng = np.random.default_rng(42)
    assert oracles.coercivity_defect(rng, 20, (static_spec,)) <= 1e-10


def test_triangle_geometry_rejects_clockwise():
    m = unit_triangle_mesh()
    m.triangles = m.triangles[:, [0, 2, 1]]
    with pytest.raises(ValueError):
        fem.triangle_geometry(m)


def test_element_gradients_of_linear_field(static_spec):
    m = mesh.build_mesh(static_spec, 4)
    w = 2.0 * m.vertices[:, 0] + 3.0 * m.vertices[:, 1]
    dx, dt = fem.element_gradients(m, w)
    assert np.allclose(dx, 2.0, atol=1e-12)
    assert np.allclose(dt, 3.0, atol=1e-12)


def test_lagrange_interpolate_paths(moving_spec):
    m = mesh.build_mesh(moving_spec, 5)
    vals = oracles.lagrange_interpolate(m, moving_spec, moving_spec.exact_state)
    direct = moving_spec.exact_state.evaluate(
        moving_spec, m.vertices[:, 0], m.vertices[:, 1]
    )
    assert np.array_equal(vals, np.asarray(direct, dtype=float))

    def plain(x, t):
        return x + t

    got = oracles.lagrange_interpolate(m, moving_spec, plain)
    assert np.allclose(got, m.vertices[:, 0] + m.vertices[:, 1], atol=0.0)


@pytest.mark.parametrize("layers", [15, 60])
@pytest.mark.parametrize("preset", ["static_spec", "moving_spec"])
def test_assembly_matches_coo_oracle(request, preset, layers):
    # the shared-pattern assembly against the per-matrix COO -> CSR merge
    # it replaced: the same structure, entries equal up to the order in
    # which the (diagonal) duplicates are summed
    spec = request.getfixturevalue(preset)
    m = mesh.build_mesh(spec, layers)
    blocks = oracles.element_blocks(m, spec)
    dofs_u = fem.constrained(m, "U")
    for space in ("U", "W"):
        system = solver.build_block_system(m, spec, space)
        dofs_p = system.adjoint_dofs
        pairs = {
            "A": (system.state_matrix, dofs_p, dofs_u),
            "K": (system.stiffness, dofs_p, dofs_p),
            "M": (system.mass, dofs_u, dofs_u),
        }
        for name, (got, row_dofs, col_dofs) in pairs.items():
            want = oracles.to_csr_reference(blocks[name], m, row_dofs, col_dofs)
            got = oracles.scipy_csr(got)
            assert np.array_equal(got.indptr, want.indptr), (space, name)
            assert np.array_equal(got.indices, want.indices), (space, name)
            scale = np.max(np.abs(want.data))
            assert np.max(np.abs(got.data - want.data)) <= 1e-15 * scale, (space, name)
        # linalg.factorize refuses any matrix that is not exactly symmetric
        precond = solver._preconditioner(system, m.vertices[:, 1])
        for name, mat in (("K", system.stiffness), ("M", system.mass),
                          ("preconditioner", precond)):
            mat = oracles.scipy_csr(mat)
            assert (mat != mat.T).nnz == 0, (space, name)


def test_sparsity_pattern_rejects_a_vertex_in_no_triangle():
    m = unit_triangle_mesh()
    m.vertices = np.vstack([m.vertices, [[0.5, 0.5]]])
    m.boundary_tags = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match="every vertex"):
        fem.sparsity_pattern(m)
