import numpy as np

from stealthreach import reach_bounds_geom, svgplot


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
