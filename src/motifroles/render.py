"""Deterministic SVG rendering of profiles and dendrograms.

Pure string assembly, no drawing libraries: identical inputs produce
identical bytes. Heatmaps lay the 36 motifs out as the standard 6x6 grid,
one grid per position for positioned profiles, shaded white to dark green
on a scale shared across the grids of one figure.
"""

from __future__ import annotations

import numpy as np

from . import catalog
from .cluster import Dendrogram

_DARK = (0, 68, 27)  # deep green anchor of the single-hue ramp
_PALETTE = (
    "#ff7f0e",  # cluster 0, leftmost
    "#2ca02c",
    "#1f77b4",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)
_LINK = "#555555"

_CELL = 24
_GRID = 6 * _CELL


def _escape(text: str) -> str:
    """Text node escaping: &, < and > become entities, quotes stay."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _shade(value: float, vmax: float) -> str:
    if vmax <= 0:
        frac = 0.0
    else:
        frac = min(max(value / vmax, 0.0), 1.0)
    r = round(255 + (_DARK[0] - 255) * frac)
    g = round(255 + (_DARK[1] - 255) * frac)
    b = round(255 + (_DARK[2] - 255) * frac)
    return f"#{r:02x}{g:02x}{b:02x}"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _grid_svg(parts, x0, y0, values, vmax, caption):
    parts.append(
        f'<text x="{x0 + _GRID / 2:g}" y="{y0 - 26}" text-anchor="middle" '
        f'font-size="12" fill="#222">{_escape(caption)}</text>'
    )
    for c in range(6):
        parts.append(
            f'<text x="{x0 + c * _CELL + _CELL / 2:g}" y="{y0 - 8}" '
            f'text-anchor="middle" font-size="10" fill="#444">{c + 1}</text>'
        )
    for r in range(6):
        parts.append(
            f'<text x="{x0 - 8}" y="{y0 + r * _CELL + _CELL / 2 + 3:g}" '
            f'text-anchor="end" font-size="10" fill="#444">{r + 1}</text>'
        )
    for r in range(6):
        for c in range(6):
            fill = _shade(float(values[r, c]), vmax)
            parts.append(
                f'<rect x="{x0 + c * _CELL}" y="{y0 + r * _CELL}" '
                f'width="{_CELL}" height="{_CELL}" fill="{fill}" '
                f'stroke="#cccccc" stroke-width="1"/>'
            )


def heatmap_svg(vector, title: str) -> str:
    """Profile heatmap: one 6x6 grid per position for a positioned vector
    (length 104), a single grid for a positionless one (length 36). The
    color scale is shared across grids."""
    vec = np.asarray(vector, dtype=np.float64)
    if vec.shape == (catalog.N_POSITIONED_CELLS,):
        cells = catalog.spread_positioned(vec).reshape(6, 6, 3)
        grids = [(cells[:, :, p], f"position {p + 1}") for p in range(3)]
    elif vec.shape == (catalog.N_MOTIFS,):
        grids = [(vec.reshape(6, 6), "all positions")]
    else:
        raise ValueError(
            f"profile vector must have length {catalog.N_POSITIONED_CELLS} or "
            f"{catalog.N_MOTIFS}, got shape {vec.shape}"
        )
    vmax = float(vec.max())

    margin_left = 30
    margin_top = 64
    gap = 34
    bar_w = 14
    width = margin_left + len(grids) * (_GRID + gap) + bar_w + 46
    height = margin_top + _GRID + 24
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<defs><linearGradient id="ramp" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{_shade(0.0, 1.0)}"/>'
        f'<stop offset="1" stop-color="{_shade(1.0, 1.0)}"/>'
        "</linearGradient></defs>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{margin_left}" y="18" font-size="13" fill="#111">{_escape(title)}</text>',
        f'<text x="{margin_left}" y="34" font-size="10" fill="#666">'
        "cells are motifs M(row,col), rows 1-6 top to bottom</text>",
    ]
    for g, (values, caption) in enumerate(grids):
        _grid_svg(parts, margin_left + g * (_GRID + gap), margin_top, values, vmax, caption)
    bar_x = margin_left + len(grids) * (_GRID + gap)
    parts.append(
        f'<rect x="{bar_x}" y="{margin_top}" width="{bar_w}" height="{_GRID}" '
        'fill="url(#ramp)" stroke="#cccccc" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{bar_x + bar_w + 4}" y="{margin_top + 8}" font-size="10" '
        f'fill="#444">{_fmt(vmax)}</text>'
    )
    parts.append(
        f'<text x="{bar_x + bar_w + 4}" y="{margin_top + _GRID}" font-size="10" '
        'fill="#444">0</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def dendrogram_svg(dendrogram: Dendrogram, node_names, labels) -> str:
    """Dendrogram drawing with the flat clusters of `labels`, as cut gives
    them, colored: cluster 0 (leftmost) takes the first palette entry. The
    first n-k merges are exactly those inside one cluster, so merge step s
    takes its left subtree's color when s < n-k and the link grey after."""
    n = dendrogram.n_leaves
    if len(node_names) != n or len(labels) != n:
        raise ValueError("name or label count does not match leaf count")
    inside = n - (int(max(labels)) + 1)  # merges within one flat cluster
    order = dendrogram.leaf_order()

    leaf_space = 36
    margin = 40
    plot_h = 320
    label_band = 14 + 7 * max(len(str(nm)) for nm in node_names)
    width = 2 * margin + (n - 1) * leaf_space + 1
    height = margin + plot_h + label_band
    hmax = max((m.height for m in dendrogram.merges), default=0.0)
    scale = plot_h / hmax if hmax > 0 else 0.0

    # by cluster id: leaves 0..n-1, then merge step s as n + s
    xpos = [0] * n
    for i, leaf in enumerate(order):
        xpos[leaf] = margin + i * leaf_space
    heights = [0.0] * n + [m.height for m in dendrogram.merges]
    ypos = [margin + plot_h - h * scale for h in heights]
    color = [_PALETTE[int(c) % len(_PALETTE)] for c in labels]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for step, merge in enumerate(dendrogram.merges):
        left, right = merge.left, merge.right
        xl, xr, y = xpos[left], xpos[right], ypos[n + step]
        path = (
            f'M {xl:.2f} {ypos[left]:.2f} L {xl:.2f} {y:.2f} '
            f'L {xr:.2f} {y:.2f} L {xr:.2f} {ypos[right]:.2f}'
        )
        stroke = color[left] if step < inside else _LINK
        parts.append(
            f'<path d="{path}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )
        xpos.append((xl + xr) / 2.0)
        color.append(color[left])
    for leaf in order:
        x = xpos[leaf]
        parts.append(
            f'<circle cx="{x:.2f}" cy="{ypos[leaf]:.2f}" r="3" fill="{color[leaf]}"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{margin + plot_h + 12}" font-size="10" fill="#222" '
            f'transform="rotate(90 {x:.2f} {margin + plot_h + 12})">'
            f"{_escape(str(node_names[leaf]))}</text>"
        )
    parts.append(
        f'<text x="{margin}" y="{margin - 16}" font-size="11" fill="#444">'
        f"merge height: sum-of-squares increase, max {_fmt(hmax)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
