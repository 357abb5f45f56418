"""Stealthy sensor-attack synthesis.

Two families, both parameterized by a two-segment uniform mixture of the
attacker's distance-measure distribution:

* zero-alarm: all mass on [0, alpha], so the detector never fires;
* hidden: mass 1-A on [0, alpha] and mass A above alpha, so the alarm
  rate during the attack equals the attack-free false-alarm rate.

Below-threshold draws are capped at alpha*(1 - 1e-12): an attacker that
must guarantee z <= alpha in finite precision backs off the boundary by a
hair, otherwise round-off in the detector's quadratic form flips the
strict comparison on roughly half the boundary steps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec

BOUNDARY_BACKOFF = 1e-12

ZERO_ALARM = "zero_alarm"
HIDDEN = "hidden"

UNIFORM_SPHERE = "uniform_sphere"
HAAR = "haar"  # identical law to uniform_sphere for a single direction


@dataclass(frozen=True)
class AttackSpec:
    """Distance-measure mixture for a stealthy attack at threshold alpha.

    Segment 1 is Uniform[c1 - w1/2, c1 + w1/2] and must sit inside
    [0, alpha].  Hidden attacks add segment 2, Uniform(c2 - w2/2, c2 + w2/2]
    (open on the left so draws stay strictly above alpha), taken with
    probability rate_above.
    """

    kind: str
    alpha: float
    c1: float
    w1: float = 0.0
    c2: float | None = None
    w2: float | None = None
    rate_above: float | None = None
    direction_mode: str | tuple = UNIFORM_SPHERE

    def __post_init__(self):
        a = self.alpha
        tol = 1e-9 * max(a, 1.0)
        if a <= 0.0:
            raise InvalidSpec(f"alpha must be positive, got {a}")
        if self.kind not in (ZERO_ALARM, HIDDEN):
            raise InvalidSpec(f"unknown attack kind {self.kind!r}")
        if self.w1 < 0.0:
            raise InvalidSpec(f"w1 must be nonnegative, got {self.w1}")
        if self.c1 - self.w1 / 2.0 < -tol:
            raise InvalidSpec("below-threshold segment extends under 0")
        if self.c1 + self.w1 / 2.0 > a + tol:
            raise InvalidSpec("below-threshold segment extends past the threshold")
        if self.kind == HIDDEN:
            if self.c2 is None or self.w2 is None:
                raise InvalidSpec("hidden attack needs c2 and w2")
            if self.w2 < 0.0:
                raise InvalidSpec(f"w2 must be nonnegative, got {self.w2}")
            if self.rate_above is None or not 0.0 < self.rate_above < 1.0:
                raise InvalidSpec(f"hidden attack needs rate_above in (0,1), got {self.rate_above}")
            lo2 = self.c2 - self.w2 / 2.0
            # left edge may touch alpha (segment is open there) but not cross it
            if lo2 < a - tol:
                raise InvalidSpec("above-threshold segment extends under the threshold")
            if self.w2 == 0.0 and self.c2 <= a + tol:
                raise InvalidSpec("point mass of the above segment must sit strictly above the threshold")
        else:
            if self.c2 is not None or self.w2 is not None:
                raise InvalidSpec("zero-alarm attack takes no above-threshold segment")
        if isinstance(self.direction_mode, str):
            if self.direction_mode not in (UNIFORM_SPHERE, HAAR):
                raise InvalidSpec(f"unknown direction mode {self.direction_mode!r}")
        else:
            u = np.asarray(self.direction_mode, dtype=float)
            if u.ndim != 1 or abs(np.linalg.norm(u) - 1.0) > 1e-9:
                raise InvalidSpec("fixed direction must be a unit vector")
            object.__setattr__(self, "direction_mode", tuple(float(v) for v in u))


TABLE_PRESETS = {
    "ZA.A": dict(kind=ZERO_ALARM, c1="alpha/8", w1="alpha/10"),
    "ZA.B": dict(kind=ZERO_ALARM, c1="alpha/2", w1="alpha"),
    "ZA.C": dict(kind=ZERO_ALARM, c1="alpha", w1=0.0),
    "H.A": dict(kind=HIDDEN, c1="alpha", w1=0.0, c2="1.5*alpha", w2="alpha"),
    "H.B": dict(kind=HIDDEN, c1="alpha", w1=0.0, c2="2*alpha", w2=0.0),
    "H.C": dict(kind=HIDDEN, c1="alpha", w1=0.0, c2="10*alpha", w2=0.0),
    "H.D": dict(kind=HIDDEN, c1="alpha", w1=0.0, c2="100*alpha", w2=0.0),
}


def _resolve_alpha_token(value, alpha: float) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    expr = str(value).replace(" ", "")
    if expr == "alpha":
        return alpha
    if expr.endswith("*alpha"):
        return float(expr[: -len("*alpha")]) * alpha
    if expr.startswith("alpha/"):
        return alpha / float(expr[len("alpha/"):])
    raise InvalidSpec(f"cannot resolve alpha expression {value!r}")


def named_spec(name: str, alpha: float, rate_above: float = 0.05,
               direction_mode=UNIFORM_SPHERE) -> AttackSpec:
    """Build one of the seven named mixtures (ZA.A..ZA.C, H.A..H.D)."""
    if name not in TABLE_PRESETS:
        raise InvalidSpec(f"unknown preset {name!r}; options: {sorted(TABLE_PRESETS)}")
    raw = TABLE_PRESETS[name]
    kwargs = {k: _resolve_alpha_token(v, alpha) for k, v in raw.items() if k != "kind"}
    kind = raw["kind"]
    return AttackSpec(
        kind=kind, alpha=alpha, direction_mode=direction_mode,
        rate_above=rate_above if kind == HIDDEN else None, **kwargs,
    )


def sample_z(spec: AttackSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size distance-measure targets from the mixture.

    Below-threshold draws are capped at alpha*(1 - 1e-12); above-threshold
    draws use a (0, 1] uniform so they stay strictly above the segment's
    left edge.
    """
    u = rng.random(size)
    z = (spec.c1 - spec.w1 / 2.0) + spec.w1 * u
    z = np.minimum(np.maximum(z, 0.0), spec.alpha * (1.0 - BOUNDARY_BACKOFF))
    if spec.kind == HIDDEN:
        above = rng.random(size) < spec.rate_above
        u2 = 1.0 - rng.random(size)  # in (0, 1]
        z2 = (spec.c2 - spec.w2 / 2.0) + spec.w2 * u2
        z = np.where(above, z2, z)
    return z


def _directions(spec: AttackSpec, p: int, rng: np.random.Generator, count: int) -> np.ndarray:
    if isinstance(spec.direction_mode, tuple):
        u = np.asarray(spec.direction_mode, dtype=float)
        if u.shape != (p,):
            raise DimensionMismatch(f"fixed direction dim {u.shape[0]} vs sensors {p}")
        return np.tile(u, (count, 1))
    g = rng.standard_normal((count, p))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    degenerate = norms[:, 0] < 1e-300
    if degenerate.any():
        g[degenerate] = 0.0
        g[degenerate, 0] = 1.0
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def sample_delta_bar(spec: AttackSpec, p: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size attack vectors dbar = sqrt(z) * u, shape (size, p), with u
    per the direction mode.

    By construction dbar^T dbar equals the paired z draw to round-off.
    """
    z = sample_z(spec, rng, size)
    u = _directions(spec, p, rng, size)
    return np.sqrt(z)[:, None] * u


def mixture_cdf(spec: AttackSpec, z) -> np.ndarray:
    """Analytic CDF of the two-segment mixture as actually sampled,
    i.e. with the below-threshold segment capped at alpha*(1 - 1e-12)."""
    z = np.asarray(z, dtype=float)
    cap = spec.alpha * (1.0 - BOUNDARY_BACKOFF)
    lo1 = min(spec.c1 - spec.w1 / 2.0, cap)
    hi1 = min(spec.c1 + spec.w1 / 2.0, cap)
    mass1 = 1.0 if spec.kind == ZERO_ALARM else 1.0 - spec.rate_above

    def seg_cdf(lo, hi, v):
        if hi <= lo:  # point mass
            return (v >= lo).astype(float)
        return np.clip((v - lo) / (hi - lo), 0.0, 1.0)

    total = mass1 * seg_cdf(lo1, hi1, z)
    if spec.kind == HIDDEN:
        lo2, hi2 = spec.c2 - spec.w2 / 2.0, spec.c2 + spec.w2 / 2.0
        total = total + spec.rate_above * seg_cdf(lo2, hi2, z)
    return total
