"""Minimal deterministic SVG output.

Field plots color each triangle by the mean of its corner values on a fixed
two-color diverging map (blue below zero, red above, white at zero).  The
renderings are presentational; nothing downstream parses them.

``render_fields`` writes several fields of one mesh in one pass: it
computes the screen position of every vertex once, formats each distinct
screen coordinate once and gathers the strings to the vertices, and looks
each triangle's fill up in a table of colour strings.  It makes the
``<polygon points="...`` text of _CHUNK triangles at a time once and writes
that block to every open file with only the fills changed, and formats the
interface ``<line>``s once for all files.  So beyond one pointer per vertex
and coordinate its memory does not grow with the number of triangles or of
fields.  ``render_field`` is the one-field call.  The bytes are the same as
those of a per-triangle loop with the same expressions, so a rendering is
byte-stable for a given mesh and field.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .mesh import SpaceTimeMesh

__all__ = ["format_distinct", "render_field", "render_fields", "render_loglog"]

_SIZE = 640.0
_MARGIN = 40.0
_CHUNK = 8192  # triangles per block of <polygon> lines in render_fields

_HEAD = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
    f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">\n'
    '<rect width="100%" height="100%" fill="white"/>\n'
)


# Fill colours by fade index k = round(255 * (1 - |c|)): row 0 for c >= 0
# (red fading to white), row 1 for c < 0 (blue fading to white).
_COLORS = np.array([
    [f"rgb(255,{k},{k})" for k in range(256)],
    [f"rgb({k},{k},255)" for k in range(256)],
], dtype=object)


def _diverging_colors(c):
    """c -> blue-white-red fill strings.  c is clamped to [-1, 1] as
    ``min(1, max(-1, c))`` does it: NaN becomes -1 and -0.0 counts as >= 0;
    rint rounds half to even like ``round``."""
    c = np.where(c > -1.0, c, -1.0)
    c = np.where(c < 1.0, c, 1.0)
    fade = np.rint(255 * (1.0 - np.abs(c))).astype(np.int64)
    return _COLORS[(c < 0.0).astype(np.int64), fade].tolist()


def format_distinct(values, spec: str):
    """``format(a, spec)`` of every entry of the float array ``values``, as
    an object array in which equal entries share one string.  Each distinct
    entry is formatted once.  Entries are told apart by their bits, so -0.0
    keeps its own string where a float comparison would merge it with 0.0."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    strings = np.array([format(a, spec) for a in keys.view(np.float64).tolist()],
                       dtype=object)
    return strings[inverse]


def _tail(title) -> str:
    text = (f'<text x="{_MARGIN:.0f}" y="{_MARGIN * 0.6:.0f}" '
            f'font-family="monospace" font-size="14">{title}</text>\n') if title else ""
    return text + "</svg>\n"


def _write_svg(path, lines, title) -> None:
    """One document: the white canvas, ``lines`` and the title."""
    with open(path, "w") as f:
        f.write(_HEAD + "\n".join(lines) + "\n" + _tail(title))


def render_fields(mesh: SpaceTimeMesh, fields) -> None:
    """One field plot of ``mesh`` per (values, path, title) in ``fields``,
    all written in one pass over the triangles."""
    fields = [(np.asarray(values, dtype=float), path, title)
              for values, path, title in fields]
    v = mesh.vertices
    x0, x1 = float(np.min(v[:, 0])), float(np.max(v[:, 0]))
    t0, t1 = float(np.min(v[:, 1])), float(np.max(v[:, 1]))
    span = _SIZE - 2.0 * _MARGIN
    xs = format_distinct(_MARGIN + (v[:, 0] - x0) / (x1 - x0) * span, ".2f")
    ys = format_distinct(_MARGIN + (1.0 - (v[:, 1] - t0) / (t1 - t0)) * span, ".2f")
    scales = [float(np.max(np.abs(values))) or 1.0 for values, _, _ in fields]

    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w")) for _, path, _ in fields]
        for f in files:
            f.write(_HEAD)
        for start in range(0, mesh.num_triangles, _CHUNK):
            tri = mesh.triangles[start:start + _CHUNK]
            heads = [
                f'<polygon points="{xa},{ya} {xb},{yb} {xc},{yc}" fill="'
                for xa, xb, xc, ya, yb, yc in zip(*xs[tri].T.tolist(), *ys[tri].T.tolist())
            ]
            for f, (values, _, _), vmax in zip(files, fields, scales):
                colors = _diverging_colors(values[tri].mean(axis=1) / vmax)
                f.write("".join([f'{head}{color}" stroke="none"/>\n'
                                 for head, color in zip(heads, colors)]))
        edges = mesh.interface_edges
        lines = "".join(
            f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}" '
            f'stroke="black" stroke-width="0.8"/>\n'
            for xa, xb, ya, yb in zip(*xs[edges].T.tolist(), *ys[edges].T.tolist())
        )
        for f, (_, _, title) in zip(files, fields):
            f.write(lines + _tail(title))


def render_field(mesh: SpaceTimeMesh, values, path, title: str = "") -> None:
    """One field plot: ``render_fields`` with one field."""
    render_fields(mesh, [(values, path, title)])


def render_loglog(hs, errors, path, title: str = "") -> None:
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
        _write_svg(path, lines, title)
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
    _write_svg(path, lines, title)
