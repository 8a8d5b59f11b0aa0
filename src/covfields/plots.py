"""Deterministic SVG emission for the standard figures.

All writers are pure text generation with fixed formatting, so identical
data and configuration produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

_MARGIN = 50.0
_W = 640.0
_H = 480.0
# the plot area inside the margins: x0, x1 (left, right), y0, y1 (top, bottom)
_AREA = (_MARGIN, _W - _MARGIN, _MARGIN, _H - _MARGIN)

_VIRIDIS = [
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _heat_color(v: float) -> str:
    v = min(1.0, max(0.0, v))
    pos = v * (len(_VIRIDIS) - 1)
    i = min(int(pos), len(_VIRIDIS) - 2)
    t = pos - i
    rgb = [
        _VIRIDIS[i][c] * (1 - t) + _VIRIDIS[i + 1][c] * t
        for c in range(3)
    ]
    return "#" + "".join(f"{int(round(255 * c)):02x}" for c in rgb)


def _write_svg(path, body: list[str]) -> None:
    """Write the canvas: header, white background, ``body``, close."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
        f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">'
    )
    lines = [head, '<rect width="100%" height="100%" fill="white"/>', *body, "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _axes(x0, x1, y0, y1, xlabel, ylabel) -> list[str]:
    return [
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y1)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" stroke="black"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="black"/>',
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y1 + 35)}" font-size="13" text-anchor="middle">{xlabel}</text>',
        f'<text x="{_fmt(x0 - 35)}" y="{_fmt((y0 + y1) / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 {_fmt(x0 - 35)} {_fmt((y0 + y1) / 2)})">{ylabel}</text>',
    ]


def loglog_svg(x, series, path) -> None:
    """Log-log plot of error against n; ``series`` is a list of (label, y-array) pairs."""
    x = np.asarray(x, dtype=float)
    lx = np.log10(x)
    ys = [np.log10(np.asarray(y, dtype=float)) for _, y in series]
    ymin = min(y.min() for y in ys)
    ymax = max(y.max() for y in ys)
    if ymax == ymin:
        ymax = ymin + 1.0
    xspan = (lx[-1] - lx[0]) or 1.0  # one x value sits at the left axis
    x0, x1, y0, y1 = _AREA

    def sx(v):
        return x0 + (v - lx[0]) / xspan * (x1 - x0)

    def sy(v):
        return y1 - (v - ymin) / (ymax - ymin) * (y1 - y0)

    body = _axes(x0, x1, y0, y1, "n", "log10 error")
    for k, v in enumerate(lx):
        body.append(
            f'<text x="{_fmt(sx(v))}" y="{_fmt(y1 + 18)}" font-size="11" text-anchor="middle">1e{_fmt(v)}</text>'
        )
    for i, ((label, _), ly) in enumerate(zip(series, ys)):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(lx, ly))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(
            f'<text x="{_fmt(x1 - 140)}" y="{_fmt(y0 + 16 + 16 * i)}" font-size="12" fill="{color}">{label}</text>'
        )
    _write_svg(path, body)


def dendrogram_svg(dendrogram, path) -> None:
    """Classic merge-tree rendering; leaves in the dendrogram's leaf order."""
    n = dendrogram.n_leaves
    merges = dendrogram.merges
    pos = {int(leaf): i for i, leaf in enumerate(dendrogram.order)}
    hmax = merges[:, 2].max() if len(merges) else 1.0
    hmax = hmax if hmax > 0 else 1.0
    x0, x1, y0, y1 = _AREA

    def sx(i):
        return x0 + (x1 - x0) * (i + 0.5) / max(n, 1)

    def sy(h):
        return y1 - (y1 - y0) * h / hmax

    xcoord = {leaf: sx(pos[leaf]) for leaf in range(n)}
    hcoord = {leaf: 0.0 for leaf in range(n)}
    body = _axes(x0, x1, y0, y1, "leaves", "merge height")
    for k in range(len(merges)):
        a, b, h = int(merges[k, 0]), int(merges[k, 1]), merges[k, 2]
        xa, xb = xcoord[a], xcoord[b]
        ya, yb = sy(hcoord[a]), sy(hcoord[b])
        yh = sy(h)
        body.append(
            f'<path d="M {_fmt(xa)} {_fmt(ya)} V {_fmt(yh)} H {_fmt(xb)} V {_fmt(yb)}" '
            f'fill="none" stroke="#1f77b4" stroke-width="1"/>'
        )
        xcoord[n + k] = 0.5 * (xa + xb)
        hcoord[n + k] = h
    _write_svg(path, body)


def tensor_glyphs_svg(points, tensors, path) -> None:
    """Draw each 2x2 tensor as an ellipse at its point.

    Principal axes follow the eigenvectors, principal radii are
    proportional to sqrt(eigenvalue), so an isotropic tensor is a circle;
    the largest radius is 6% of the canvas.
    """
    points = np.asarray(points, dtype=float)
    tensors = np.asarray(tensors, dtype=float)
    if points.shape[1] != 2:
        raise ValueError("tensor glyphs are 2-D only")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    x0, x1, y0, y1 = _AREA
    scale = min((x1 - x0) / span[0], (y1 - y0) / span[1])

    def sx(p):
        return x0 + (p[0] - lo[0]) * scale

    def sy(p):
        return y1 - (p[1] - lo[1]) * scale

    lams = np.linalg.eigvalsh(tensors)
    rmax = math.sqrt(max(lams.max(), 1e-300))
    glyph_scale = 0.06 * min(_W, _H) / rmax
    body = []
    for p, t in zip(points, tensors):
        lam, vec = np.linalg.eigh(t)
        r1 = math.sqrt(max(lam[1], 0.0)) * glyph_scale
        r2 = math.sqrt(max(lam[0], 0.0)) * glyph_scale
        ang = math.degrees(math.atan2(vec[1, 1], vec[0, 1]))
        body.append(
            f'<ellipse cx="{_fmt(sx(p))}" cy="{_fmt(sy(p))}" rx="{_fmt(max(r1, 0.5))}" '
            f'ry="{_fmt(max(r2, 0.5))}" transform="rotate({_fmt(-ang)} {_fmt(sx(p))} {_fmt(sy(p))})" '
            f'fill="none" stroke="#d62728" stroke-width="1"/>'
        )
        body.append(f'<circle cx="{_fmt(sx(p))}" cy="{_fmt(sy(p))}" r="1.2" fill="#1f77b4"/>')
    _write_svg(path, body)


def heatmap_svg(x_axis, y_axis, values, path) -> None:
    """Colored-cell heat map of a scalar field sampled on a grid."""
    x_axis = np.asarray(x_axis, dtype=float)
    y_axis = np.asarray(y_axis, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (y_axis.size, x_axis.size):
        raise ValueError("values must be shaped (len(y), len(x))")
    vmin, vmax = values.min(), values.max()
    spread = vmax - vmin if vmax > vmin else 1.0
    x0, x1, y0, y1 = _AREA
    cw = (x1 - x0) / x_axis.size
    ch = (y1 - y0) / y_axis.size
    body = []
    for iy in range(y_axis.size):
        for ix in range(x_axis.size):
            color = _heat_color((values[iy, ix] - vmin) / spread)
            body.append(
                f'<rect x="{_fmt(x0 + ix * cw)}" y="{_fmt(y1 - (iy + 1) * ch)}" '
                f'width="{_fmt(cw + 0.3)}" height="{_fmt(ch + 0.3)}" fill="{color}"/>'
            )
    _write_svg(path, body)

