"""Dependency-free deterministic SVG scatter plots.

Byte output depends only on the input data, so rendered plots can be
compared in tests and diffed across runs.
"""

import math

from .defect import least_squares_line
from .errors import ValidationError

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 24, 56


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_scatter(points, x_label: str, y_label: str, loglog: bool) -> str:
    """SVG text for a scatter of (x, y) points with a least-squares line.

    With ``loglog`` both axes are natural-log transformed (nonpositive points
    are dropped) and the annotated slope is the log-log OLS slope, matching
    the exponent-fitting convention.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if loglog:
        pts = [(x, y) for x, y in pts if x > 0 and y > 0]
        tpts = [(math.log(x), math.log(y)) for x, y in pts]
    else:
        tpts = pts
    tpts = [(x, y) for x, y in tpts if math.isfinite(x) and math.isfinite(y)]
    if len(tpts) < 2:
        raise ValidationError(f"need at least 2 plottable rows, got {len(tpts)}")

    xs = [x for x, _ in tpts]
    ys = [y for _, y in tpts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.05 or 0.5
    y_pad = (y_hi - y_lo) * 0.05 or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def to_px(x, y):
        px = MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w
        py = MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h
        return px, py

    slope, intercept = least_squares_line(xs, ys)

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    x0, y0 = to_px(x_lo, y_lo)
    x1, y1 = to_px(x_hi, y_hi)
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" stroke="black"/>')
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="black"/>')

    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        px, _ = to_px(fx, y_lo)
        _, py = to_px(x_lo, fy)
        label_x = math.exp(fx) if loglog else fx
        label_y = math.exp(fy) if loglog else fy
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y0 + 5)}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 20)}" font-size="11" text-anchor="middle">{label_x:.3g}</text>'
        )
        parts.append(f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end">{label_y:.3g}</text>'
        )

    fit_y0 = slope * x_lo + intercept
    fit_y1 = slope * x_hi + intercept
    lx0, ly0 = to_px(x_lo, fit_y0)
    lx1, ly1 = to_px(x_hi, fit_y1)
    parts.append(
        f'<line x1="{_fmt(lx0)}" y1="{_fmt(ly0)}" x2="{_fmt(lx1)}" y2="{_fmt(ly1)}" '
        f'stroke="firebrick" stroke-dasharray="4 3"/>'
    )
    for x, y in tpts:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="steelblue"/>')

    parts.append(
        f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" y="{HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(MARGIN_T + plot_h / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(MARGIN_T + plot_h / 2)})">{y_label}</text>'
    )
    parts.append(
        f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 14}" font-size="12" '
        f'text-anchor="end">slope={slope:.3f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
