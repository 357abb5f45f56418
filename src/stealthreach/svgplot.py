"""Minimal deterministic SVG emission for 2-D results.

Hand-rolled rather than a plotting library so that identical inputs give
byte-identical files.  Convention: LMI bounds blue, geometric bounds red,
sample clouds black; heatmap cells darker blue for larger volume.
"""

import numpy as np

LMI_COLOR = "#1f4fd8"
GEOM_COLOR = "#d82f1f"
CLOUD_COLOR = "#222222"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class SvgCanvas:
    """Fixed-size canvas mapping data coordinates to pixels."""

    def __init__(self, xlim, ylim, size=640, margin=40):
        self.xlim, self.ylim = xlim, ylim
        self.size, self.margin = size, margin
        span_x = xlim[1] - xlim[0] or 1.0
        span_y = ylim[1] - ylim[0] or 1.0
        self.scale = (size - 2 * margin) / max(span_x, span_y)
        self.elements = []

    def _px(self, xy):
        x = self.margin + (xy[0] - self.xlim[0]) * self.scale
        y = self.size - self.margin - (xy[1] - self.ylim[0]) * self.scale
        return x, y

    def polyline(self, points, color, width=1.5, closed=False):
        xs, ys = self._px(np.asarray(points).reshape(-1, 2).T)  # as in dots
        coords = " ".join(map("{:.6g},{:.6g}".format, xs.tolist(), ys.tolist()))
        tag = "polygon" if closed else "polyline"
        self.elements.append(
            f'<{tag} points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def dots(self, points, color, radius=1.0, max_points=4000):
        pts = np.asarray(points)
        if len(pts) > max_points:  # stride subsample keeps determinism
            pts = pts[:: max(1, len(pts) // max_points)][:max_points]
        xs, ys = self._px(pts.reshape(-1, 2).T)  # _px's arithmetic on all points at once
        circle = f'<circle cx="{{:.6g}}" cy="{{:.6g}}" r="{_fmt(radius)}" fill="{color}"/>'
        self.elements.extend(map(circle.format, xs.tolist(), ys.tolist()))

    def rect(self, xy, wh, fill):
        px, py = self._px((xy[0], xy[1] + wh[1]))
        self.elements.append(
            f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(wh[0] * self.scale)}" '
            f'height="{_fmt(wh[1] * self.scale)}" fill="{fill}"/>'
        )

    def text(self, xy_px, s, size=13, color="#000000"):
        self.elements.append(
            f'<text x="{_fmt(xy_px[0])}" y="{_fmt(xy_px[1])}" font-size="{size}" '
            f'font-family="sans-serif" fill="{color}">{s}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>\n{body}\n</svg>\n'
        )


def _limits(point_sets, pad=0.08):
    sets = [np.asarray(p) for p in point_sets if len(p)]
    if not sets:  # every bound degenerate and no cloud: an empty plot
        return (-1.0, 1.0), (-1.0, 1.0)
    lo = np.min([[p[:, k].min() for k in (0, 1)] for p in sets], axis=0)
    hi = np.max([[p[:, k].max() for k in (0, 1)] for p in sets], axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo -= pad * span
    hi += pad * span
    return (lo[0], hi[0]), (lo[1], hi[1])


def render_bounds_svg(bounds, cloud=None) -> str:
    """Overlay 2-D ellipse outlines (blue LMI, red geometric) and a cloud."""
    outlines = [(b, b.shape.boundary_points(256)) for b in bounds if not b.shape.is_degenerate()]
    sets = [pts for _, pts in outlines]
    if cloud is not None and len(cloud):
        sets.append(cloud)
    xlim, ylim = _limits(sets)
    canvas = SvgCanvas(xlim, ylim)
    if cloud is not None and len(cloud):
        canvas.dots(cloud, CLOUD_COLOR)
    for bound, pts in outlines:
        color = LMI_COLOR if bound.method == "lmi" else GEOM_COLOR
        canvas.polyline(pts, color, closed=True)
    y = 20
    for bound, _ in outlines:
        color = LMI_COLOR if bound.method == "lmi" else GEOM_COLOR
        canvas.text((12, y), f"{bound.method} {bound.target} vol={_fmt(bound.volume)}", color=color)
        y += 16
    return canvas.render()


def render_heatmap_svg(result) -> str:
    """Admissible-triangle heatmap; darker blue marks larger volume."""
    alpha = result.alpha
    res = result.resolution[0]
    cell = alpha / max(res - 1, 1)
    vols = [row[2] for row in result.grid]
    vmax = max(vols) or 1.0
    canvas = SvgCanvas((0.0, alpha + cell), (0.0, alpha + cell))
    for c1, w1, vol in result.grid:
        frac = vol / vmax
        # white (small) to dark blue (large)
        r = int(255 - 215 * frac)
        g = int(255 - 195 * frac)
        b = int(255 - 95 * frac)
        canvas.rect((c1 - cell / 2, w1 - cell / 2), (cell, cell), f"rgb({r},{g},{b})")
    canvas.text((12, 20), f"volume heatmap (alpha={_fmt(alpha)}), dark = large")
    return canvas.render()
