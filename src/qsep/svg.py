"""Minimal self-contained SVG line charts.

Every plotted point carries ``data-x``/``data-y`` attributes with the raw
coordinates, so a chart doubles as a machine-readable record of the series
it shows; ``parse_chart`` recovers them without an XML parser. Every text
(title, axis labels, series names) is written XML-escaped.
"""

from __future__ import annotations

import math
import re

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

WIDTH, HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 34, 48

# the characters XML text and attribute values may not hold raw, "&" first,
# and their entities; html.escape would cost an import of html.entities
_ENTITIES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"))


def _escape(text: str) -> str:
    for char, entity in _ENTITIES:
        text = text.replace(char, entity)
    return text


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1, 2, 5, 10) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = [10.0 ** e for e in range(math.ceil(math.log10(lo)),
                                      math.floor(math.log10(hi)) + 1)]
    if len(ticks) >= 2:
        return ticks
    # under a decade of span: fall back to linear spacing
    return _linear_ticks(lo, hi)


def line_chart(series, *, title: str = "", xlabel: str = "", ylabel: str = "",
               logx: bool = False, logy: bool = False,
               header: str | None = None) -> str:
    """Render named (xs, ys) series to an SVG string.

    series: iterable of (name, xs, ys). All coordinates must be finite.
    A log-scaled axis that holds a coordinate <= 0 is drawn linear.
    """
    series = [(_escape(str(name)), [float(x) for x in xs], [float(y) for y in ys])
              for name, xs, ys in series]
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
    if not series or any(len(xs) == 0 or len(xs) != len(ys)
                         for _, xs, ys in series):
        raise ValueError("each series needs matching, non-empty xs and ys")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    logx, logy = logx and min(all_x) > 0, logy and min(all_y) > 0

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    def padded(lo, hi):
        if hi == lo:
            pad = 0.5 if lo == 0 else abs(lo) * 0.05
            return lo - pad, hi + pad
        pad = (hi - lo) * 0.05
        return lo - pad, hi + pad

    x0, x1 = padded(tx(min(all_x)), tx(max(all_x)))
    y0, y1 = padded(ty(min(all_y)), ty(max(all_y)))
    plot_w, plot_h = WIDTH - _ML - _MR, HEIGHT - _MT - _MB

    def sx(v):
        return _ML + (tx(v) - x0) / (x1 - x0) * plot_w

    def sy(v):
        return _MT + (y1 - ty(v)) / (y1 - y0) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">']
    if header:
        out.append(f"<!-- {header} -->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{title}</text>')

    # axes and ticks
    bottom, left = _MT + plot_h, _ML
    out.append(f'<line x1="{left}" y1="{bottom}" x2="{left + plot_w}" '
               f'y2="{bottom}" stroke="black"/>')
    out.append(f'<line x1="{left}" y1="{_MT}" x2="{left}" y2="{bottom}" '
               f'stroke="black"/>')
    xticks = (_log_ticks(min(all_x), max(all_x)) if logx
              else _linear_ticks(min(all_x), max(all_x)))
    yticks = (_log_ticks(min(all_y), max(all_y)) if logy
              else _linear_ticks(min(all_y), max(all_y)))
    for t in xticks:
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{bottom}" x2="{px:.1f}" '
                   f'y2="{bottom + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.1f}" y="{bottom + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    for t in yticks:
        py = sy(t)
        out.append(f'<line x1="{left - 5}" y1="{py:.1f}" x2="{left}" '
                   f'y2="{py:.1f}" stroke="black"/>')
        out.append(f'<text x="{left - 8}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    if xlabel:
        out.append(f'<text x="{left + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">{xlabel}</text>')
    if ylabel:
        cy = _MT + plot_h / 2
        out.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>')

    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            # full-precision repr so the chart parses back to the exact data
            out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
                       f'fill="{color}" data-series="{name}" '
                       f'data-x="{x!r}" data-y="{y!r}"/>')
        ly = _MT + 14 + 16 * idx
        lx = left + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


_POINT_RE = re.compile(
    r'<circle[^>]*data-series="([^"]*)"[^>]*data-x="([^"]*)"'
    r'[^>]*data-y="([^"]*)"')


def parse_chart(text: str) -> dict[str, tuple[list[float], list[float]]]:
    """Recover {series name: (xs, ys)} from a line_chart SVG."""
    series: dict[str, tuple[list[float], list[float]]] = {}
    for name, x, y in _POINT_RE.findall(text):
        for char, entity in reversed(_ENTITIES):
            name = name.replace(entity, char)
        xs, ys = series.setdefault(name, ([], []))
        xs.append(float(x))
        ys.append(float(y))
    return series
