"""Minimal deterministic SVG output.

Field plots color each triangle by the mean of its corner values on a fixed
two-color diverging map (blue below zero, red above, white at zero).  The
renderings are presentational; nothing downstream parses them.

``render_field`` works on whole arrays: it computes the screen position of
every vertex at once, formats each vertex once (not once per triangle
corner), and looks each triangle's fill up in a table of colour strings.
It formats and writes the ``<polygon>`` lines _CHUNK triangles at a time,
so beyond the per-vertex strings its memory does not grow with the number
of triangles.  The bytes are the same as those of a per-triangle loop with
the same expressions, so a rendering is byte-stable for a given mesh and
field.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .mesh import SpaceTimeMesh

__all__ = ["render_field", "render_loglog"]

_SIZE = 640.0
_MARGIN = 40.0
_CHUNK = 8192  # triangles per block of <polygon> lines in render_field


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


def _write_svg(path, blocks, title) -> None:
    """One document: the white canvas, the lines of each of ``blocks`` in
    turn, and the title.  A block is a list of lines, joined and written
    before the next one is made."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    tail = [
        f'<text x="{_MARGIN:.0f}" y="{_MARGIN * 0.6:.0f}" '
        f'font-family="monospace" font-size="14">{title}</text>'
    ] if title else []
    tail.append("</svg>")
    with open(path, "w") as f:
        for block in itertools.chain([head], blocks, [tail]):
            if block:
                f.write("\n".join(block) + "\n")


def render_field(mesh: SpaceTimeMesh, values, path, title: str = "") -> None:
    values = np.asarray(values, dtype=float)
    v = mesh.vertices
    x0, x1 = float(np.min(v[:, 0])), float(np.max(v[:, 0]))
    t0, t1 = float(np.min(v[:, 1])), float(np.max(v[:, 1]))
    span = _SIZE - 2.0 * _MARGIN
    sx = _MARGIN + (v[:, 0] - x0) / (x1 - x0) * span
    sy = _MARGIN + (1.0 - (v[:, 1] - t0) / (t1 - t0)) * span
    xs = [f"{x:.2f}" for x in sx.tolist()]
    ys = [f"{y:.2f}" for y in sy.tolist()]
    pts = [f"{x},{y}" for x, y in zip(xs, ys)]
    vmax = float(np.max(np.abs(values))) or 1.0

    def polygons():
        for start in range(0, mesh.num_triangles, _CHUNK):
            tri = mesh.triangles[start:start + _CHUNK]
            colors = _diverging_colors(values[tri].mean(axis=1) / vmax)
            yield [
                f'<polygon points="{pts[a]} {pts[b]} {pts[c]}" fill="{color}" stroke="none"/>'
                for a, b, c, color in zip(*tri.T.tolist(), colors)
            ]

    lines = [
        f'<line x1="{xs[a]}" y1="{ys[a]}" x2="{xs[b]}" y2="{ys[b]}" '
        f'stroke="black" stroke-width="0.8"/>'
        for a, b in mesh.interface_edges.tolist()
    ]
    _write_svg(path, itertools.chain(polygons(), [lines]), title)


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
        _write_svg(path, [lines], title)
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
    _write_svg(path, [lines], title)
