"""Interface-fitted mesh generation, validation and the text file format."""

import dataclasses

import numpy as np
import pytest

import oracles
from stcontrol import mesh, problem
from stcontrol.errors import GeometryError, MeshFormatError, MeshingError


def curve_distance(spec, pts):
    s = problem.displacement(spec, pts[:, 1])
    da = np.abs(pts[:, 0] - (spec.offset_a + s))
    db = np.abs(pts[:, 0] - (spec.offset_b + s))
    return np.minimum(da, db)


def test_static_coarse_structure(static_spec):
    m = mesh.build_mesh(static_spec, 4)
    assert m.num_vertices == 35
    assert m.num_triangles == 48
    assert len(m.interface_edges) == 8          # two chords per strip
    assert m.h == pytest.approx(np.sqrt(2.0) / 4.0, rel=1e-12)
    assert np.bincount(m.regions, minlength=3).tolist() == [0, 16, 32]
    # initial line tagged, one xmin/xmax vertex per time line
    assert int(np.sum((m.boundary_tags & mesh.TAG_T0) != 0)) == 7
    assert int(np.sum((m.boundary_tags & mesh.TAG_XMIN) != 0)) == 5
    assert int(np.sum((m.boundary_tags & mesh.TAG_TFINAL) != 0)) == 7


def test_interface_vertices_sit_on_exact_curves(moving_spec):
    m = mesh.build_mesh(moving_spec, 13)
    ids = np.unique(m.interface_edges)
    assert ids.size > 0
    assert np.max(curve_distance(moving_spec, m.vertices[ids])) <= 1e-10


def test_presets_validate_clean(static_spec, moving_spec):
    for spec in (static_spec, moving_spec):
        for layers in (2, 5, 8, 30):
            m = mesh.build_mesh(spec, layers)
            rep = mesh.validate_mesh(m, spec)
            assert rep.ok, rep.as_dict()
            assert rep.straddle_count == 0
            assert rep.conformity_violations == 0
            assert rep.region_mismatches == 0
            assert rep.coverage_violations == 0
            assert rep.max_fit_residual <= mesh.FIT_RESIDUAL_LIMIT
            assert rep.quasi_uniformity <= 8.0


def test_refinement_halves_mesh_size(static_spec, moving_spec):
    for spec in (static_spec, moving_spec):
        h30 = mesh.build_mesh(spec, 30).h
        h60 = mesh.build_mesh(spec, 60).h
        assert 0.4 <= h60 / h30 <= 0.6


def test_band_area_is_exact(static_spec, moving_spec):
    # both curves shift together, so the discrete band keeps area 0.2
    for spec in (static_spec, moving_spec):
        for layers in (12, 30):
            m = mesh.build_mesh(spec, layers)
            p = m.vertices[m.triangles]
            areas = 0.5 * (
                (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
            )
            band = float(np.sum(areas[m.regions == 1]))
            assert band == pytest.approx(0.2, abs=1e-12)
            assert float(np.sum(areas)) == pytest.approx(1.0, abs=1e-12)


def test_layer_count_validation(static_spec):
    with pytest.raises(ValueError):
        mesh.build_mesh(static_spec, 1)
    with pytest.raises(ValueError):
        mesh.build_mesh(static_spec, 2.5)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="n_layers must be an integer >= 2"):
            mesh.build_mesh(static_spec, bad)


def unit_square_spec(velocity, offset_a, offset_b):
    return problem.ProblemSpec(
        x_min=0.0, x_max=1.0, t_final=1.0, kappa1=1.0, kappa2=10.0, eta=1e-3,
        velocity=velocity, offset_a=offset_a, offset_b=offset_b,
    )


# 15 layers of the unit square have node pitch 1/15.  The sine curves start
# at the 0.3-pitch cull distance from a uniform node; both velocities move
# the curves by up to three pitches per layer and turn them round often.
# That gives bands whose bottom and top chains differ in length by several
# nodes, so one chain runs out long before the other.
CULL_15 = 0.3 / 15
CUSTOM_SPECS = {
    "sine": lambda: unit_square_spec(problem.velocity_sine(3.0, 3.0),
                                     0.2 + CULL_15, 0.6 - CULL_15),
    "tabulated": lambda: unit_square_spec(
        problem.velocity_tabulated(
            np.linspace(0.0, 1.0, 17),
            [0, 3.5, 1, -3.5, 0, 3.5, -1, -3.5, 0, 3.5, 0, -3.5, 0, 3.5, 0, -3.5, 0]),
        0.3, 0.55),
}
PRESETS = {"static": problem.example1_static, "moving": problem.example1_moving}


@pytest.mark.parametrize("name, layers", [
    *((p, n) for p in PRESETS for n in (2, 15, 240)),
    *((c, n) for c in CUSTOM_SPECS for n in (2, 7, 15, 60)),
])
def test_build_mesh_matches_the_chain_merge_oracle(name, layers):
    spec = {**PRESETS, **CUSTOM_SPECS}[name]()
    got = mesh.build_mesh(spec, layers)
    want = oracles.build_mesh_reference(spec, layers)
    for field in ("vertices", "triangles", "regions", "interface_edges", "boundary_tags"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert getattr(got, field).dtype == getattr(want, field).dtype, field
    assert got.h == want.h


def band_sizes(m):
    """Nodes each time line has in each band, past the band's first node:
    (ia, ib - ia, n - 1 - ib) per line, from the interface edges."""
    _, sizes = np.unique(m.vertices[:, 1], return_counts=True)
    start = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    a = np.append(m.interface_edges[0::2, 0], m.interface_edges[-2, 1]) - start
    b = np.append(m.interface_edges[1::2, 0], m.interface_edges[-1, 1]) - start
    return np.stack([a, b - a, sizes - 1 - b], axis=1)


@pytest.mark.parametrize("name", CUSTOM_SPECS)
def test_custom_specs_give_unequal_chains(name):
    # the custom specs are in the oracle comparison for their bands whose
    # bottom and top chains differ in length by several nodes, where one
    # chain runs out well before the other: check that they still have them
    sizes = band_sizes(mesh.build_mesh(CUSTOM_SPECS[name](), 15))
    assert np.max(np.abs(np.diff(sizes, axis=0))) >= 3


def test_validate_empty_mesh(static_spec, tmp_path):
    path = tmp_path / "empty.stmesh"
    path.write_text("stmesh 1\nvertices 0\ntriangles 0\ninterface_edges 0\n")
    m = mesh.read_mesh(path)
    assert m.num_vertices == m.num_triangles == 0
    for rep in (mesh.validate_mesh(m, static_spec), mesh.validate_mesh(m)):
        assert rep.ok is False
        assert rep.num_triangles == 0
        assert rep.coverage_violations == 1


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("layers", [6, 60])
def test_write_mesh_bytes_match_the_row_writer(name, layers, tmp_path):
    m = mesh.build_mesh(PRESETS[name](), layers)
    mesh.write_mesh(m, tmp_path / "got.stmesh")
    oracles.write_mesh_reference(m, tmp_path / "want.stmesh")
    assert (tmp_path / "got.stmesh").read_bytes() == (tmp_path / "want.stmesh").read_bytes()


def test_pinched_band_raises_meshing_error():
    spec = problem.ProblemSpec(
        x_min=0.0, x_max=1.0, t_final=1.0, kappa1=1.0, kappa2=1.0, eta=1.0,
        velocity=problem.velocity_zero(), offset_a=0.4, offset_b=0.4 + 1e-10,
    )
    with pytest.raises(MeshingError) as err:
        mesh.build_mesh(spec, 4)
    assert err.value.layer == 0


def test_validator_flags_flipped_triangle(static_spec):
    m = mesh.build_mesh(static_spec, 5)
    tris = m.triangles.copy()
    tris[0] = tris[0][[0, 2, 1]]
    bad = dataclasses.replace(m, triangles=tris)
    rep = mesh.validate_mesh(bad, static_spec)
    assert rep.orientation_violations >= 1
    assert not rep.ok


def test_validator_flags_perturbed_interface_vertex(static_spec):
    m = mesh.build_mesh(static_spec, 5)
    verts = m.vertices.copy()
    vid = int(m.interface_edges[0, 0])
    verts[vid, 0] += 1e-6
    bad = dataclasses.replace(m, vertices=verts)
    rep = mesh.validate_mesh(bad, static_spec)
    assert rep.max_fit_residual > mesh.FIT_RESIDUAL_LIMIT
    assert not rep.ok


def test_validator_flags_straddling_triangle(static_spec):
    m = mesh.build_mesh(static_spec, 5)
    verts = m.vertices.copy()
    vid = int(m.interface_edges[0, 0])
    verts[vid, 0] += 0.05      # drag an interface vertex into the band
    bad = dataclasses.replace(m, vertices=verts)
    rep = mesh.validate_mesh(bad, static_spec)
    assert rep.straddle_count >= 1
    assert not rep.ok


def test_validator_flags_region_mislabels(moving_spec):
    m = mesh.build_mesh(moving_spec, 5)
    regions = m.regions.copy()
    regions[:4] = np.where(regions[:4] == 1, 2, 1)
    bad = dataclasses.replace(m, regions=regions)
    rep = mesh.validate_mesh(bad, moving_spec)
    assert rep.region_mismatches == 4
    assert not rep.ok


def test_validator_quasi_uniformity_threshold(static_spec):
    m = mesh.build_mesh(static_spec, 5)
    rep = mesh.validate_mesh(m, static_spec, rho_max=1.0)
    assert rep.quasi_uniformity > 1.0
    assert not rep.ok


def interior_triangle(m):
    """Index of a region-2 triangle with no vertex on the boundary of Q."""
    inner = np.all(m.boundary_tags[m.triangles] == 0, axis=1) & (m.regions == 2)
    return int(np.flatnonzero(inner)[0])


def validate_via_file(m, spec, tmp_path):
    path = tmp_path / "patched.stmesh"
    mesh.write_mesh(m, path)
    back = mesh.read_mesh(path)
    return mesh.validate_mesh(back, spec), mesh.validate_mesh(back)


def test_validator_flags_hole(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 8)
    k = interior_triangle(m)
    holed = dataclasses.replace(m, triangles=np.delete(m.triangles, k, axis=0),
                                regions=np.delete(m.regions, k))
    for rep in validate_via_file(holed, static_spec, tmp_path):
        # three edges end inside Q, and the areas miss |Q| by the hole
        assert rep.coverage_violations == 4
        assert rep.conformity_violations == 0
        assert rep.orientation_violations == 0
        assert not rep.ok


def test_validator_flags_t_junction(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 8)
    k = interior_triangle(m)
    a, b, c = m.triangles[k]
    # split triangle k at the midpoint of edge b-c; its neighbour across
    # that edge keeps the whole edge
    mid = m.num_vertices
    verts = np.vstack([m.vertices, 0.5 * (m.vertices[b] + m.vertices[c])])
    tris = np.vstack([m.triangles, [[a, mid, c]]])
    tris[k] = [a, b, mid]
    split = dataclasses.replace(
        m, vertices=verts, triangles=tris, regions=np.append(m.regions, m.regions[k]),
        boundary_tags=np.append(m.boundary_tags, 0),
    )
    for rep in validate_via_file(split, static_spec, tmp_path):
        # the neighbour's edge and the two half edges each have one triangle
        assert rep.coverage_violations == 3
        assert rep.conformity_violations == 0
        assert rep.orientation_violations == 0
        assert not rep.ok


def test_validator_flags_edges_of_three_triangles(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 8)
    k = interior_triangle(m)
    doubled = dataclasses.replace(m, triangles=np.vstack([m.triangles, m.triangles[k]]),
                                  regions=np.append(m.regions, m.regions[k]))
    # the row-wise edge count the validator's integer keys must agree with
    tri = doubled.triangles
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    row_wise = int(np.sum(counts > 2))
    reports = [mesh.validate_mesh(doubled, static_spec),
               *validate_via_file(doubled, static_spec, tmp_path)]
    for rep in reports:
        # each edge of the doubled triangle now has three triangles
        assert rep.conformity_violations == 3 == row_wise
        assert rep.ok is False


def test_file_roundtrip_is_lossless(moving_spec, tmp_path):
    m = mesh.build_mesh(moving_spec, 6)
    path = tmp_path / "m.stmesh"
    mesh.write_mesh(m, path)
    back = mesh.read_mesh(path)
    assert np.array_equal(m.vertices, back.vertices)
    assert np.array_equal(m.triangles, back.triangles)
    assert np.array_equal(m.regions, back.regions)
    assert np.array_equal(m.interface_edges, back.interface_edges)
    assert np.array_equal(m.boundary_tags, back.boundary_tags)
    assert back.h == pytest.approx(m.h, rel=1e-15)
    # writing the parsed mesh again reproduces the file byte for byte
    path2 = tmp_path / "m2.stmesh"
    mesh.write_mesh(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def write_and_patch(m, tmp_path, match, repl):
    path = tmp_path / "broken.stmesh"
    mesh.write_mesh(m, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if match(i, line))
    lines[idx] = repl(lines[idx])
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_mesh_rejects_bad_region_label(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 3)
    first_tri = 3 + m.num_vertices + 1   # header+comment+count, vertices, count
    path = write_and_patch(
        m, tmp_path,
        lambda i, line: i == first_tri,
        lambda line: line.rsplit(" ", 1)[0] + " 3",
    )
    with pytest.raises(MeshFormatError) as err:
        mesh.read_mesh(path)
    assert err.value.line == first_tri + 1
    assert "region" in str(err.value)


def test_read_mesh_rejects_bad_header(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 3)
    path = write_and_patch(
        m, tmp_path, lambda i, line: i == 0, lambda line: "stmesh 9"
    )
    with pytest.raises(MeshFormatError):
        mesh.read_mesh(path)


def test_read_mesh_rejects_truncation(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 3)
    path = tmp_path / "short.stmesh"
    mesh.write_mesh(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(MeshFormatError):
        mesh.read_mesh(path)


def test_read_mesh_rejects_a_count_the_file_does_not_hold(tmp_path):
    path = tmp_path / "huge.stmesh"
    path.write_text("stmesh 1\nvertices 1000000000000\n0 0 5\n")
    with pytest.raises(MeshFormatError, match="unexpected end of file"):
        mesh.read_mesh(path)


def test_read_mesh_rejects_out_of_range_index(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 3)
    first_tri = 3 + m.num_vertices + 1
    path = write_and_patch(
        m, tmp_path,
        lambda i, line: i == first_tri,
        lambda line: f"0 1 {10 * m.num_vertices} " + line.rsplit(" ", 1)[1],
    )
    with pytest.raises(MeshFormatError):
        mesh.read_mesh(path)


def test_read_mesh_rejects_bad_tag(static_spec, tmp_path):
    m = mesh.build_mesh(static_spec, 3)
    path = write_and_patch(
        m, tmp_path,
        lambda i, line: i == 3,          # first vertex line
        lambda line: line.rsplit(" ", 1)[0] + " 16",
    )
    with pytest.raises(MeshFormatError):
        mesh.read_mesh(path)


def test_vertex_bound_is_checked_before_building(static_spec, monkeypatch):
    # 4 layers of n_x = 4: at most (4 + 3) * (4 + 1) = 35 vertices
    monkeypatch.setattr(mesh, "MAX_MESH_VERTICES", 35)
    assert mesh.build_mesh(static_spec, 4).num_vertices <= 35
    monkeypatch.setattr(mesh, "MAX_MESH_VERTICES", 34)
    with pytest.raises(MeshingError, match="up to 35 vertices"):
        mesh.build_mesh(static_spec, 4)


def test_mesher_rejects_interface_hugging_the_wall():
    # strictly interior (so the spec is legal) but inside the mesher's
    # safety margin against the lateral boundary
    spec = problem.ProblemSpec(
        x_min=0.0, x_max=1.0, t_final=1.0, kappa1=1.0, kappa2=1.0,
        eta=1.0, velocity=problem.velocity_zero(),
        offset_a=0.4, offset_b=1.0 - 1e-12,
    )
    with pytest.raises(GeometryError):
        mesh.build_mesh(spec, 4)
