"""SVG rendering: structure, determinism, and the bytes of the scalar oracle."""

import math

import numpy as np
import pytest

import oracles
from stcontrol import mesh, solver, svg


def field_vectors(spec, m):
    """Named value vectors that reach every branch of the colour map."""
    sol = solver.solve_optimality(m, spec)
    n = m.num_vertices
    t = m.vertices[:, 1] / spec.t_final
    special = np.linspace(-2.0, 2.0, n)
    special[::5] = np.nan
    special[1::7] = np.inf
    special[2::7] = -np.inf
    infinite = np.linspace(-2.0, 2.0, n)
    infinite[1::7] = np.inf
    infinite[2::11] = -np.inf
    # 255 * (1 - |c|) lands exactly on 31.5 (rounds up) and 32.5 (rounds down)
    # on every triangle within one quarter of the time axis; vertex 0 pins
    # the scale at 1
    tie31, tie32 = 1.0 - 31.5 / 255, 1.0 - 32.5 / 255
    ties = np.select([t < 0.25, t < 0.5, t < 0.75], [tie31, tie32, -tie31], -tie32)
    ties[0] = 1.0
    return {
        "u": sol.u,
        "p": sol.p,
        "z_f": solver.recover_control_riesz(sol, spec),
        "zeros": np.zeros(n),
        "negative zeros": np.full(n, -0.0),
        "nan and infinities": special,
        "infinities": infinite,
        "exactly plus one": np.ones(n),
        "exactly plus and minus one": np.where(t < 0.5, 1.0, -1.0),
        "rounding ties": ties,
    }


def test_render_field_structure(tmp_path, static_spec):
    m = mesh.build_mesh(static_spec, 5)
    values = np.sin(3.0 * m.vertices[:, 0]) * m.vertices[:, 1]
    path = tmp_path / "field.svg"
    svg.render_field(m, values, path, "demo field")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polygon") == m.num_triangles
    assert text.count("<line") == len(m.interface_edges)
    assert "demo field" in text


def test_render_field_deterministic_and_total_on_zero(tmp_path, static_spec):
    m = mesh.build_mesh(static_spec, 4)
    zero = np.zeros(m.num_vertices)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    svg.render_field(m, zero, a)
    svg.render_field(m, zero, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("<polygon") == m.num_triangles


def test_render_loglog_structure(tmp_path):
    path = tmp_path / "conv.svg"
    svg.render_loglog([0.2, 0.1, 0.05], [1.0, 0.52, 0.26], path, "study")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 3
    assert text.count("<polyline") == 1
    assert 'stroke-dasharray' in text  # slope-1 guide
    assert "study" in text


def test_render_loglog_leaves_out_levels_without_a_logarithm(tmp_path):
    path = tmp_path / "conv.svg"
    svg.render_loglog([0.2, 0.1, 0.05], [1.0, 0.0, float("nan")], path, "study")
    text = path.read_text()
    assert text.count("<circle") == 1 and text.endswith("</svg>\n")


@pytest.mark.parametrize("layers", [6, 8])
@pytest.mark.parametrize("preset", ["static_spec", "moving_spec"])
def test_render_field_bytes_match_scalar_oracle(tmp_path, request, preset, layers):
    spec = request.getfixturevalue(preset)
    m = mesh.build_mesh(spec, layers)
    for name, values in field_vectors(spec, m).items():
        got, want = tmp_path / "got.svg", tmp_path / "want.svg"
        with np.errstate(invalid="ignore"):
            svg.render_field(m, values, got, f"field {name}")
            oracles.render_field_reference(m, values, want, f"field {name}")
        assert got.read_bytes() == want.read_bytes(), name


def test_rounding_tie_vector_reaches_both_ties(static_spec):
    m = mesh.build_mesh(static_spec, 8)
    values = field_vectors(static_spec, m)["rounding ties"]
    c = values[m.triangles].mean(axis=1) / np.max(np.abs(values))
    fade = 255 * np.where(c >= 0.0, 1.0 - c, 1.0 + c)
    for tie in (31.5, 32.5):
        assert np.sum(fade == tie) >= 2 * 8  # both signs, several triangles


def test_diverging_colors_match_scalar_map():
    c = np.array([-np.inf, -2.0, -1.0, -0.5, -1e-300, -0.0, 0.0, 5e-324, 0.5,
                  1.0, 2.0, np.inf, np.nan, 1.0 - 31.5 / 255, -(1.0 - 32.5 / 255),
                  math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0)])
    assert svg._diverging_colors(c) == [oracles._diverging_color(x) for x in c]
    assert svg._diverging_colors(np.array([np.nan, -0.0])) == [
        "rgb(0,0,255)", "rgb(255,255,255)"]
