"""Dependency-free SVG line plots for tipping curves.

One data polyline, axes with a handful of ticks, an optional dashed
horizontal reference line, and circle markers at reference crossings.
A numeric CSV always accompanies the plot, so the SVG stays minimal.
"""

from __future__ import annotations

__all__ = ["find_crossings", "line_plot"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 40, 48


def escape(text: str) -> str:
    """`text` as SVG character data: &, < and > as entities, the ampersand
    first. The same bytes as xml.sax.saxutils.escape, whose module would
    pull in urllib and the network stack at import."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def find_crossings(xs, ys, level):
    """Interpolated x positions where the piecewise-linear curve crosses
    `level` (sign changes of y - level; touching without crossing counts
    once when it lands exactly on the level)."""
    out = []
    prev_x = prev_y = None
    for x, y in zip(xs, ys):
        if y is None:
            prev_x = prev_y = None
            continue
        if prev_y is not None:
            a, b = prev_y - level, y - level
            if a == 0.0:
                pass  # recorded when first reached below
            elif a * b < 0:
                frac = a / (a - b)
                out.append(prev_x + frac * (x - prev_x))
            elif b == 0.0:
                out.append(x)
        prev_x, prev_y = x, y
    return out


def _scale(values, lo, hi, out_lo, out_hi):
    if hi == lo:
        return [0.5 * (out_lo + out_hi) for _ in values]
    span = hi - lo
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _ticks(lo, hi, n=5):
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot(xs, ys, path, title="", xlabel="", ylabel="", ref_y=None) -> list:
    """Write an SVG line plot of (xs, ys) to `path`; points whose y is None
    are left out and the line joins its neighbours.

    `ref_y` draws a dashed horizontal reference, and each crossing of it
    gets a circle marker. Returns the x positions of those crossings.
    """
    pts = [(x, y) for x, y in zip(xs, ys) if y is not None]
    if not pts:
        raise ValueError("nothing to plot")
    xv = [p[0] for p in pts]
    yv = [p[1] for p in pts]
    x_lo, x_hi = min(xv), max(xv)
    y_lo, y_hi = min(yv), max(yv)
    if ref_y is not None:
        y_lo, y_hi = min(y_lo, ref_y), max(y_hi, ref_y)
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px = _scale(xv, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    py = _scale(yv, y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">'
        f"{escape(title)}</text>",
    ]
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" stroke="black"/>'
    )
    for tx, sx in zip(_ticks(x_lo, x_hi), _scale(_ticks(x_lo, x_hi), x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)):
        parts.append(f'<line x1="{sx:.1f}" y1="{y0}" x2="{sx:.1f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{sx:.1f}" y="{y0 + 18}" text-anchor="middle" font-size="11">{tx:.3g}</text>'
        )
    for ty, sy in zip(_ticks(y_lo, y_hi), _scale(_ticks(y_lo, y_hi), y_lo, y_hi, y0, MARGIN_T)):
        parts.append(f'<line x1="{x0 - 5}" y1="{sy:.1f}" x2="{x0}" y2="{sy:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{sy + 4:.1f}" text-anchor="end" font-size="11">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-size="13">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_T + y0) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(MARGIN_T + y0) / 2:.1f})">{escape(ylabel)}</text>'
    )

    if ref_y is not None:
        sy = _scale([ref_y], y_lo, y_hi, y0, MARGIN_T)[0]
        parts.append(
            f'<line x1="{x0}" y1="{sy:.1f}" x2="{WIDTH - MARGIN_R}" y2="{sy:.1f}" '
            f'stroke="gray" stroke-dasharray="6,4"/>'
        )

    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.8"/>'
    )

    crossings = [] if ref_y is None else find_crossings(xv, yv, ref_y)
    for cx in crossings:
        sx = _scale([cx], x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)[0]
        sy = _scale([ref_y], y_lo, y_hi, y0, MARGIN_T)[0]
        parts.append(
            f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="5" fill="none" '
            f'stroke="crimson" stroke-width="1.6"/>'
        )

    parts.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(parts) + "\n")
    return crossings
