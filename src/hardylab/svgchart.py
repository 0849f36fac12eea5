"""Minimal self-contained SVG line charts on log-log axes (no external assets)."""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH, HEIGHT = 720, 480
MARGIN = dict(left=70, right=170, top=40, bottom=55)
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]


@dataclass
class Series:
    label: str
    xs: list
    ys: list
    dashed: bool = False


def _ticks(lo: float, hi: float) -> list[float]:
    """The powers of ten in [lo, hi], or its ends when there is none."""
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    vals = [10.0**e for e in range(lo_e, hi_e + 1)]
    return [v for v in vals if lo / 1.001 <= v <= hi * 1.001] or [lo, hi]


def _fmt(v: float) -> str:
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_chart(path, title: str, series: list[Series], xlabel: str, ylabel: str) -> None:
    """Write the series as a log-log chart; points with x <= 0 or y <= 0 are left out."""
    pts = [(x, y) for s in series for x, y in zip(s.xs, s.ys) if x > 0 and y > 0]
    if not pts:
        pts = [(1.0, 1.0), (2.0, 2.0)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x0, x1 = x0 / 2, x1 * 2
    if y0 == y1:
        y0, y1 = y0 / 2, y1 * 2
    y0, y1 = y0 / 1.2, y1 * 1.2

    px0, px1 = MARGIN["left"], WIDTH - MARGIN["right"]
    py0, py1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]

    def tx(x):
        return px0 + (math.log10(x) - math.log10(x0)) / (math.log10(x1) - math.log10(x0)) * (px1 - px0)

    def ty(y):
        return py0 + (math.log10(y) - math.log10(y0)) / (math.log10(y1) - math.log10(y0)) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{px0}" y="{py1}" width="{px1-px0}" height="{py0-py1}" '
        f'fill="none" stroke="#333"/>',
    ]
    for xt in _ticks(x0, x1):
        X = tx(xt)
        parts.append(f'<line x1="{X:.1f}" y1="{py0}" x2="{X:.1f}" y2="{py0+5}" stroke="#333"/>')
        parts.append(f'<line x1="{X:.1f}" y1="{py0}" x2="{X:.1f}" y2="{py1}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{X:.1f}" y="{py0+18}" text-anchor="middle">{_fmt(xt)}</text>')
    for yt in _ticks(y0, y1):
        Y = ty(yt)
        parts.append(f'<line x1="{px0-5}" y1="{Y:.1f}" x2="{px0}" y2="{Y:.1f}" stroke="#333"/>')
        parts.append(f'<line x1="{px0}" y1="{Y:.1f}" x2="{px1}" y2="{Y:.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{px0-8}" y="{Y+4:.1f}" text-anchor="end">{_fmt(yt)}</text>')
    parts.append(f'<text x="{(px0+px1)/2:.0f}" y="{HEIGHT-12}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(py0+py1)/2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(py0+py1)/2:.0f})">{ylabel}</text>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = [(tx(x), ty(y)) for x, y in zip(s.xs, s.ys) if x > 0 and y > 0]
        if coords:
            path_str = " ".join(f"{X:.2f},{Y:.2f}" for X, Y in coords)
            dash = ' stroke-dasharray="6,4"' if s.dashed else ""
            parts.append(f'<polyline points="{path_str}" fill="none" stroke="{color}" '
                         f'stroke-width="1.6"{dash}/>')
            for X, Y in coords:
                parts.append(f'<circle cx="{X:.2f}" cy="{Y:.2f}" r="2.4" fill="{color}"/>')
        ly = MARGIN["top"] + 16 * i + 8
        parts.append(f'<line x1="{px1+12}" y1="{ly-4}" x2="{px1+34}" y2="{ly-4}" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{px1+40}" y="{ly}">{s.label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
