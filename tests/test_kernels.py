"""The per-point kernels against their earlier formulations, bit for bit.

The attack-direction norms and the membership sums run one numpy call per
component along the long trials x steps axis.  Their earlier formulations
reduced across the short component axis; they live here as the oracles
(tests/test_svgplot.py::stacked_limits serves svgplot._limits).  So do the
earlier forms on the bound path: the SVG outline mapped and formatted point
by point, I - A (x) A / a through np.kron and the weighted shape through
np.tensordot.  Run this file as a script to print the width table: each
kernel's earlier and current form, and the forms not taken for distance,
scale and plant._dot, timed at widths 1-12 on a 128 x 550 batch.
"""

import sys
import time

import numpy as np
import pytest

from stealthreach import Ellipsoid, distance, named_spec
from stealthreach.attacks import AttackDraws, _mixture_z
from stealthreach.ellipsoids import (BLOCK_ROWS, DEGENERATE_RTOL, RANGE_TOL, stationarity_gap,
                                     stationary_weights, weighted_shape)
from stealthreach.plant import spectral_radius
from stealthreach.reach_lmi import _project, _solve_sym, logdet_slope
from stealthreach.svgplot import SvgCanvas, _fmt, _limits

WIDTHS = (1, 2, 3, 4, 6)
ALPHA = 5.99


def normalise_oracle(g):
    """AttackDraws.normalise through np.linalg.norm, in place."""
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    degenerate = norms[..., 0] < 1e-300
    if degenerate.any():
        g[degenerate] = np.eye(g.shape[-1])[0]
        norms = np.linalg.norm(g, axis=-1, keepdims=True)
    g /= norms


def membership_oracle(Q, x):
    """Ellipsoid.membership with np.sum and np.linalg.norm across each row."""
    w, V = np.linalg.eigh(Q)
    live = w > DEGENERATE_RTOL * max(w[-1], 0.0)
    m = np.empty(x.shape[0])
    block = np.empty((BLOCK_ROWS, Q.shape[0]))
    for lo in range(0, x.shape[0], BLOCK_ROWS):
        rows = min(BLOCK_ROWS, x.shape[0] - lo)
        block[:rows], block[rows:] = x[lo:lo + rows], 0.0
        proj = block @ V
        mb = np.sum(proj[:, live] ** 2 / w[live], axis=1)
        if not live.all():
            resid = np.sqrt(np.sum(proj[:, ~live] ** 2, axis=1))
            mb[resid > RANGE_TOL * np.linalg.norm(block, axis=1)] = np.inf
        m[lo:lo + rows] = mb[:rows]
    return m


def limits_oracle(point_sets, pad=0.08):
    """svgplot._limits through min and max down each set's rows, as timed
    in the width table."""
    sets = [np.asarray(p) for p in point_sets if len(p)]
    lo = np.min([p.min(axis=0) for p in sets], axis=0)
    hi = np.max([p.max(axis=0) for p in sets], axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo -= pad * span
    hi += pad * span
    return (lo[0], hi[0]), (lo[1], hi[1])


def polyline_oracle(canvas, points, color, width=1.5, closed=False):
    """SvgCanvas.polyline's element through _px on each row and _fmt on each
    coordinate."""
    coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in map(canvas._px, points))
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def dots_oracle(canvas, points, color, radius=1.0):
    """SvgCanvas.dots' elements (below max_points) with one f-string per circle."""
    xs, ys = canvas._px(np.asarray(points).T)
    return [f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(radius)}" fill="{color}"/>'
            for px, py in zip(xs.tolist(), ys.tolist())]


def logdet_slope_oracle(A, W0, a, C=None):
    """reach_lmi.logdet_slope with I - A (x) A / a from np.kron, for a
    positive definite Q."""
    n = A.shape[0]
    lhs = np.eye(n * n) - np.kron(A, A) / a
    Q = _solve_sym(lhs, W0 / (1.0 - a))
    dQ = _solve_sym(lhs, W0 / (1.0 - a) ** 2 - A @ Q @ A.T / (a * a))
    return Q, float(np.trace(np.linalg.solve(_project(C, Q), _project(C, dQ))))


def weighted_shape_oracle(Qs, w):
    """ellipsoids.weighted_shape through np.tensordot."""
    Q = np.tensordot(1.0 / w, Qs, axes=1)
    return (Q + Q.T) / 2.0


def stationarity_gap_oracle(E, terms):
    """ellipsoids.stationarity_gap with the nonzero terms taken one np.trace
    at a time, and the tensordot weighted shape."""
    Qs = np.stack([Q for Q in terms if np.trace(Q) > 0.0])
    resid = E.Q - weighted_shape_oracle(Qs, stationary_weights(E.Q, Qs))
    return float(np.linalg.norm(resid) / np.linalg.norm(E.Q))


def awkward(rng, shape):
    """Seeded normals at mixed scales, with a zero row, -0.0 entries and a
    row whose squares underflow (norm below 1e-300)."""
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape[:-1] + (1,))
    flat = g.reshape(-1, shape[-1])
    flat[3] = 0.0
    flat[5] = -0.0
    flat[7, 0] = -0.0
    flat[11] = 1e-200
    return g


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def spd(rng, p):
    A = rng.standard_normal((p, p))
    return A @ A.T + 0.1 * np.eye(p)


@pytest.mark.parametrize("p", range(1, 8))
def test_normalise_equals_norm_formulation(p):
    rng = np.random.default_rng(100 + p)
    g = awkward(rng, (5, 300, p))
    draws = AttackDraws(named_spec("ZA.B", ALPHA), g.copy())
    draws.normalise()
    want = g.copy()
    normalise_oracle(want)
    assert same_bits(draws.out, want)
    assert np.all(draws.out.reshape(-1, p)[[3, 5, 11]] == np.eye(p)[0])  # first-basis fallback
    lone = AttackDraws(named_spec("ZA.B", ALPHA), g[2:3].copy())
    lone.normalise()
    assert same_bits(lone.out[0], draws.out[2])
    sliced = AttackDraws(named_spec("ZA.B", ALPHA), g.copy()[:, 37:])  # from k*, as pull_inputs gives
    sliced.normalise()
    assert same_bits(sliced.out, draws.out[:, 37:])


@pytest.mark.parametrize("p", [8, 12])
def test_wide_normalise_within_round_off(p):
    # from width 8 np.linalg.norm sums in another order, so the directions
    # agree to round-off only: a sum of p squares is good to p ulps
    g = awkward(np.random.default_rng(100 + p), (5, 300, p))
    draws = AttackDraws(named_spec("ZA.B", ALPHA), g.copy())
    draws.normalise()
    normalise_oracle(g)
    np.testing.assert_allclose(draws.out, g, rtol=p * np.finfo(float).eps, atol=0.0)


def test_scale_is_root_z_times_direction():
    spec = named_spec("H.A", ALPHA)
    rng = np.random.default_rng(7)
    draws = AttackDraws(spec, awkward(rng, (4, 200, 3)))
    draws.uniforms[:] = rng.random(draws.uniforms.shape)
    draws.normalise()
    u = draws.out.copy()
    dbar = draws.scale(spec, np.empty((4, 200, 3)))
    want = np.sqrt(_mixture_z(spec, draws.uniforms.swapaxes(0, 1)))[..., None] * u
    assert same_bits(dbar, want)
    lone = AttackDraws(spec, draws.out[1:2].copy())
    lone.uniforms[:] = draws.uniforms[1:2]
    assert same_bits(lone.scale(spec, np.empty((1, 200, 3)))[0], dbar[1])


@pytest.mark.parametrize("p", WIDTHS)
def test_distance_of_a_lone_trial_is_its_batch_row(p):
    rng = np.random.default_rng(200 + p)
    S = spd(rng, p)
    r = awkward(rng, (6, 400, p))[:, 37:]  # a step slice, as attack_residual returns from k*
    z = distance(r, S)
    assert same_bits(distance(r[4:5], S)[0], z[4])
    assert same_bits(distance_component_major(r, S), z)


@pytest.mark.parametrize("n", WIDTHS)
def test_membership_equals_row_sums(n):
    rng = np.random.default_rng(300 + n)
    R = np.linalg.qr(rng.standard_normal((n, n)))[0]
    E = Ellipsoid((R * rng.uniform(0.5, 5.0, n)) @ R.T)
    x = awkward(rng, (BLOCK_ROWS + 9, n))
    assert same_bits(E.membership(x), membership_oracle(E.Q, x))


@pytest.mark.parametrize("n", WIDTHS[1:])
def test_degenerate_membership_equals_row_sums(n):
    rng = np.random.default_rng(400 + n)
    R = np.linalg.qr(rng.standard_normal((n, n)))[0]
    rank = n // 2
    E = Ellipsoid((R * np.r_[rng.uniform(0.5, 5.0, rank), np.zeros(n - rank)]) @ R.T)
    y = awkward(rng, (BLOCK_ROWS + 9, n))
    y[::2, rank:] = 0.0  # every other point in range(Q)
    x = y @ R.T
    m = E.membership(x)
    assert same_bits(m, membership_oracle(E.Q, x))
    assert np.isinf(m).sum() > BLOCK_ROWS // 4 and np.isfinite(m).sum() > BLOCK_ROWS // 4


@pytest.mark.parametrize("n", [4, 6])
def test_range_test_at_its_edge_equals_row_sums(n):
    # a diagonal shape projects exactly, so these points leave range(Q) by
    # RANGE_TOL * |x| to within an ulp or two, and the order of each sum
    # decides which side of the test they fall on
    rng = np.random.default_rng(500 + n)
    rank = n // 2
    E = Ellipsoid(np.diag(np.r_[rng.uniform(0.5, 5.0, rank), np.zeros(n - rank)]))
    x = rng.standard_normal((BLOCK_ROWS, n))
    x[:, rank:] *= (RANGE_TOL * np.linalg.norm(x[:, :rank], axis=1) / np.linalg.norm(x[:, rank:], axis=1)
                    * (1.0 + np.arange(-BLOCK_ROWS // 2, BLOCK_ROWS // 2) * 2.0 ** -58))[:, None]
    m = E.membership(x)
    assert same_bits(m, membership_oracle(E.Q, x))
    assert 0 < np.isinf(m).sum() < BLOCK_ROWS


def test_zero_shape_membership():
    x = np.array([[0.0, -0.0], [1.0, 0.0], [0.0, 0.0]])
    assert same_bits(Ellipsoid(np.zeros((2, 2))).membership(x), membership_oracle(np.zeros((2, 2)), x))


@pytest.mark.parametrize("scale", [1e-7, 1e-3, 1.0, 1e3, 1e7])
def test_polyline_and_dots_equal_per_point_formatting(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 700)
    outline = Ellipsoid(spd(rng, 2)).boundary_points(256) * scale
    outline[::17, 1] = -0.0
    outline[5] = -0.0
    # a canvas fitted to the outline, and a fixed one on which the pixels
    # reach below 1e-4 or beyond 1e6, so that .6g turns to exponent form
    for canvas in (SvgCanvas(*_limits([outline])), SvgCanvas((0.0, 1.0), (0.0, 1.0), margin=0)):
        canvas.polyline(outline, "#d82f1f", closed=True)
        canvas.polyline(list(outline[:9]), "#1f4fd8", width=2)
        canvas.dots(outline, "#222222", radius=1.5)
        assert canvas.elements == [polyline_oracle(canvas, outline, "#d82f1f", closed=True),
                                   polyline_oracle(canvas, outline[:9], "#1f4fd8", width=2),
                                   *dots_oracle(canvas, outline, "#222222", radius=1.5)]
    if scale in (1e-7, 1e7):
        assert ("e-0" if scale < 1.0 else "e+0") in canvas.elements[0]


def stable_case(rng, n):
    """(A, W0): A with rho(A) = 0.9 and a -0.0 entry, and W0 positive
    definite at a scale of 10^-7 to 10^7."""
    A = rng.standard_normal((n, n))
    if n > 1:
        A[-1, -1] = -0.0
    A *= 0.9 / spectral_radius(A)
    B = rng.standard_normal((n, n))
    return A, (B @ B.T + 0.1 * np.eye(n)) * 10.0 ** rng.integers(-7, 8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_logdet_slope_equals_kron_formulation(n):
    rng = np.random.default_rng(800 + n)
    A, W0 = stable_case(rng, n)
    for C in (None, rng.standard_normal((max(1, n // 2), n))):
        for a in (0.8101, 0.9, 0.99):  # rho(A)^2 = 0.81
            Q, slope = logdet_slope(A, W0, a, C)
            want_Q, want_slope = logdet_slope_oracle(A, W0, a, C)
            assert same_bits(Q, want_Q) and same_bits(slope, want_slope)


@pytest.mark.parametrize("n", range(1, 7))
def test_weighted_shape_equals_tensordot(n):
    rng = np.random.default_rng(900 + n)
    Qs = np.stack([spd(rng, n) * 10.0 ** k for k in rng.integers(-7, 8, 30)])
    Qs[4] = 0.0
    Qs[7, 0] = -0.0
    for count in (1, 2, 30):
        w = rng.random(count)
        assert same_bits(weighted_shape(Qs[:count], w / w.sum()),
                         weighted_shape_oracle(Qs[:count], w / w.sum()))
    terms = list(Qs[:12]) + [np.zeros((n, n))]
    E = Ellipsoid(weighted_shape(Qs[:12], np.full(12, 1.0 / 12)))
    assert same_bits(stationarity_gap(E, terms), stationarity_gap_oracle(E, terms))


# ---- the width table: python tests/test_kernels.py ------------------------------------

def _median_ms(before, after, reps=15):
    """Median ms of each of two calls, timed alternately after one warm-up."""
    times = ([], [])
    for _ in range(reps + 1):
        for f, spent in zip((before, after), times):
            start = time.perf_counter()
            f()
            spent.append(time.perf_counter() - start)
    return tuple(1e3 * float(np.median(spent[1:])) for spent in times)


def distance_component_major(r, sigma_inv):
    """detector.distance on a component-major copy, which is not taken: the
    same einsum loop and bits, but a copy or a transposed view per call."""
    rc = np.ascontiguousarray(r.transpose(-1, *range(r.ndim - 1)))
    return np.einsum("i...,ij,j...->...", rc, sigma_inv, rc)


def scale_per_component(root_z, u, out):
    """The per-component form of AttackDraws.scale's multiply, which is not taken."""
    for k in range(out.shape[-1]):
        np.multiply(root_z, u[..., k], out=out[..., k])
    return out


def dot_per_component(a, M):
    """plant._dot as one multiply-add per component pair, which is not taken."""
    out = np.zeros(a.shape[:-1] + (M.shape[1],))
    for j in range(M.shape[1]):
        for i in range(M.shape[0]):
            out[..., j] += a[..., i] * M[i, j]
    return out


def _round_off(a, b):
    """(same bits, largest |a - b| / |a| over the entries that differ)."""
    a, b = np.ravel(a), np.ravel(b)
    if a.dtype.kind == "U":  # SVG text: the same characters or not
        return bool(np.array_equal(a, b)), float("nan")
    b = b.astype(float)
    differ = a != b
    return same_bits(a, b), float(np.max(np.abs(a[differ] - b[differ]) / np.abs(a[differ]), initial=0.0))


def _polylines(canvas, outlines):
    for pts in outlines:
        canvas.polyline(pts, "#d82f1f", closed=True)
    return canvas.elements


def width_table(widths=(1, 2, 3, 4, 6, 8, 12), trials=128, steps=550):
    """{kernel: {width: (earlier ms, current ms, same bits, round-off)}} on one
    batch, and the same bits and round-off of the unit attack directions."""
    from stealthreach.attacks import _norms
    from stealthreach.plant import _dot
    rng = np.random.default_rng(0)
    table = {}
    for p in widths:
        g = rng.standard_normal((trials, steps, p))
        points = g.reshape(-1, p)
        S, root_z = spd(rng, p), np.sqrt(rng.random((trials, steps)))
        R, w = np.linalg.qr(rng.standard_normal((p, p)))[0], rng.uniform(0.5, 5.0, p)
        E, E_flat = Ellipsoid((R * w) @ R.T), Ellipsoid((R * np.r_[w[1:], 0.0]) @ R.T)
        out = np.empty_like(g)
        rows = {
            "normalise norms": (lambda: np.linalg.norm(g, axis=-1), lambda: _norms(g)),
            "normalise norms, step slice": (lambda: np.linalg.norm(g[:, 49:], axis=-1),
                                            lambda: _norms(g[:, 49:])),
            "distance (not taken)": (lambda: distance(g, S), lambda: distance_component_major(g, S)),
            "scale (not taken)": (lambda: np.multiply(root_z[..., None], g, out=out),
                                  lambda: scale_per_component(root_z, g, out)),
            "plant._dot (not taken)": (lambda: _dot(g, S), lambda: dot_per_component(g, S)),
            "membership": (lambda: membership_oracle(E.Q, points), lambda: E.membership(points)),
            "membership, degenerate": (lambda: membership_oracle(E_flat.Q, points),
                                       lambda: E_flat.membership(points)),
        }
        if p > 1:  # plot limits read two coordinates
            rows["_limits"] = (lambda: limits_oracle([points]), lambda: _limits([points]))
        A = R * 0.9  # rho(A) = 0.9
        Qs, v = np.stack([spd(rng, p) for _ in range(40)]), rng.random(40)
        rows["logdet_slope, 100 calls"] = (
            lambda: [logdet_slope_oracle(A, S, 0.95)[0] for _ in range(100)],
            lambda: [logdet_slope(A, S, 0.95)[0] for _ in range(100)])
        rows["weighted_shape, 40 terms, 100 calls"] = (
            lambda: [weighted_shape_oracle(Qs, v / v.sum()) for _ in range(100)],
            lambda: [weighted_shape(Qs, v / v.sum()) for _ in range(100)])
        if p == 2:  # the outlines of bound --method both
            outlines = [Ellipsoid(spd(rng, 2)).boundary_points(256) for _ in range(8)]
            canvas = SvgCanvas(*_limits(outlines))
            rows["polyline, 8 outlines of 256 points"] = (
                lambda: [polyline_oracle(canvas, pts, "#d82f1f", closed=True) for pts in outlines],
                lambda: _polylines(SvgCanvas(canvas.xlim, canvas.ylim), outlines))
        for name, (before, after) in rows.items():
            checked = _round_off(np.copy(before()), np.copy(after()))
            table.setdefault(name, {})[p] = (*_median_ms(before, after), *checked)
        want, draws = g.copy(), AttackDraws(named_spec("ZA.B", ALPHA), g.copy())
        normalise_oracle(want)
        draws.normalise()
        table.setdefault("attack directions", {})[p] = _round_off(want, draws.out)
    return table


if __name__ == "__main__":
    for name, row in width_table().items():
        print(name)
        for p, cells in row.items():
            *times, same, rel = cells
            bits = "same bits" if same else f"round-off {rel:.2e}"
            print(f"  width {p:2d}: " + "".join(f"{t:9.3f} ms" for t in times) + f"  {bits}")
    print("earlier and current form, median of 15 alternating calls", file=sys.stderr)
