import numpy as np
import pytest

from stealthreach import build_model, chi2_quantile, reach_bounds_geom, svgplot


def stacked_limits(point_sets, pad=0.08):
    """The plot limits from one stacked copy of every point set."""
    pts = np.vstack([np.asarray(p) for p in point_sets if len(p)])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo -= pad * span
    hi += pad * span
    return (lo[0], hi[0]), (lo[1], hi[1])


def test_limits_equal_stacked_limits():
    rng = np.random.default_rng(12)
    sets = [rng.standard_normal((5000, 2)) * [3.0, 0.5] + [1.0, -2.0], np.empty((0, 2)),
            [[-7.5, 0.25]], rng.uniform(-1.0, 9.0, (40, 2))]
    for count in range(1, len(sets) + 1):
        assert svgplot._limits(sets[:count]) == stacked_limits(sets[:count])
    assert svgplot._limits([[[2.0, 3.0]]]) == stacked_limits([[[2.0, 3.0]]])  # zero span


def test_bounds_svg_bytes_unchanged(bench_model, alpha, vbar, monkeypatch):
    noise, _, att_state, _ = reach_bounds_geom(bench_model, alpha, vbar)
    bounds = [att_state, noise]
    cloud = np.random.default_rng(13).standard_normal((20_000, 2)) * 0.3
    got = svgplot.render_bounds_svg(bounds, cloud)
    monkeypatch.setattr(svgplot, "_limits", stacked_limits)
    assert got == svgplot.render_bounds_svg(bounds, cloud)


@pytest.mark.parametrize("count", [10_007, 3_999])  # not a multiple of max_points; below it
def test_dots_equal_per_point_mapping(count):
    cloud = np.random.default_rng(14).standard_normal((count, 2)) * [2.0, 0.4] + [0.3, -1.0]
    canvas = svgplot.SvgCanvas((-6.5, 7.25), (-3.0, 1.5))
    canvas.dots(cloud, "#222222", max_points=4000)
    kept = cloud[:: max(1, count // 4000)][:4000] if count > 4000 else cloud
    want = []
    for xy in kept:  # the per-point mapping through _px
        px, py = canvas._px(xy)
        want.append(f'<circle cx="{svgplot._fmt(px)}" cy="{svgplot._fmt(py)}" '
                    f'r="{svgplot._fmt(1.0)}" fill="#222222"/>')
    assert canvas.elements == want
    assert len(want) == min(count, 4000)


def test_bounds_svg_with_every_bound_degenerate_and_no_cloud():
    # G = 0 and a noise covariance of rank one: every geometric bound is flat
    model = build_model(np.diag([0.5, 0.3]), [[0.0], [0.0]], [[1.0, 0.0]], [[0.1, 0.1]],
                        np.diag([0.05, 0.0]), [[1.0]])
    alpha = chi2_quantile(0.95, 1)
    bounds = reach_bounds_geom(model, alpha, alpha)
    assert all(b.shape.is_degenerate() for b in bounds)
    svg = svgplot.render_bounds_svg(bounds)
    assert svg.startswith("<svg") and "<polygon" not in svg and "<circle" not in svg
