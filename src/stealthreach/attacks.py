"""Stealthy sensor-attack synthesis.

Two families, both parameterized by a two-segment uniform mixture of the
attacker's distance-measure distribution:

* zero-alarm: all mass on [0, alpha], so the detector never fires;
* hidden: mass 1-A on [0, alpha] and mass A above alpha, so the alarm
  rate during the attack equals the attack-free false-alarm rate.

Each attack vector is sqrt(z) times a direction drawn uniformly from the
unit sphere, with z drawn from the mixture.

Below-threshold draws are capped at alpha*(1 - 1e-12): an attacker that
must guarantee z <= alpha in finite precision backs off the boundary by a
hair, otherwise round-off in the detector's quadratic form flips the
strict comparison on roughly half the boundary steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec

BOUNDARY_BACKOFF = 1e-12

ZERO_ALARM = "zero_alarm"
HIDDEN = "hidden"


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

    def __post_init__(self):
        a = self.alpha
        tol = 1e-9 * max(a, 1.0)
        if a <= 0.0:
            raise InvalidSpec(f"alpha must be positive, got {a}")
        for name in ("c1", "w1", "c2", "w2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidSpec(f"{name} must be finite, got {value}")
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
    if isinstance(value, bool):  # a JSON true/false is not a number
        raise InvalidSpec(f"expected a number or an alpha expression, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    expr = str(value).replace(" ", "")
    try:
        if expr == "alpha":
            return alpha
        if expr.endswith("*alpha"):
            return float(expr[: -len("*alpha")]) * alpha
        if expr.startswith("alpha/"):
            return alpha / float(expr[len("alpha/"):])
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidSpec(f"cannot resolve alpha expression {value!r}")


def attack_spec(block: dict, alpha: float, rate_above: float) -> AttackSpec:
    """Build the mixture of a {kind, c1, w1, c2, w2} block at threshold alpha.
    Values are numbers or alpha expressions ("alpha", "2*alpha", "alpha/8");
    w1 defaults to 0, and a hidden attack puts mass rate_above above alpha."""
    kind = block.get("kind")
    values = {k: _resolve_alpha_token(v, alpha) for k, v in block.items() if k != "kind"}
    return AttackSpec(kind=kind, alpha=alpha, rate_above=rate_above if kind == HIDDEN else None,
                      **values)


def named_spec(name: str, alpha: float, rate_above: float = 0.05) -> AttackSpec:
    """Build one of the seven named mixtures (ZA.A..ZA.C, H.A..H.D)."""
    if not isinstance(name, str) or name not in TABLE_PRESETS:
        raise InvalidSpec(f"unknown preset {name!r}; options: {sorted(TABLE_PRESETS)}")
    return attack_spec(TABLE_PRESETS[name], alpha, rate_above)


def _uniform_rows(spec: AttackSpec) -> int:
    """Uniforms per z draw: the segment-1 draw, and for a hidden attack the
    segment pick and the segment-2 draw."""
    return 3 if spec.kind == HIDDEN else 1


def _mixture_z(spec: AttackSpec, u: np.ndarray) -> np.ndarray:
    """Distance-measure targets from the raw uniforms u, (_uniform_rows, ...).

    Below-threshold draws are capped at alpha*(1 - 1e-12); above-threshold
    draws use a (0, 1] uniform so they stay strictly above the segment's
    left edge.
    """
    z = (spec.c1 - spec.w1 / 2.0) + spec.w1 * u[0]
    z = np.minimum(np.maximum(z, 0.0), spec.alpha * (1.0 - BOUNDARY_BACKOFF))
    if spec.kind == HIDDEN:
        z2 = (spec.c2 - spec.w2 / 2.0) + spec.w2 * (1.0 - u[2])
        z = np.where(u[1] < spec.rate_above, z2, z)
    return z


def _norms(g: np.ndarray) -> np.ndarray:
    """|g| over the last axis.  The squares are written component-major, so
    the sum runs one call per component along the contiguous trials x steps
    axis, in component order: np.linalg.norm's bits up to width 7.  A step
    slice is copied first, as numpy writes it across the components."""
    g = np.ascontiguousarray(g)
    sq = np.empty((g.shape[-1],) + g.shape[:-1])
    np.multiply(g, g, out=sq.transpose(*range(1, g.ndim), 0))
    for k in range(1, len(sq)):
        sq[0] += sq[k]
    return np.sqrt(sq[0], out=sq[0])


class AttackDraws:
    """Raw draws of attack vectors for a batch of trials, and their transform.

    out is the (trials, count, p) array that receives dbar.  Each trial's
    stream fills its row in stream order (pull): count segment-1 uniforms,
    for a hidden attack count segment picks and count segment-2 uniforms,
    then count x p direction normals, drawn into out.  transform then maps
    the whole batch in place: normalise turns the normals into unit
    directions, and scale multiplies them by sqrt(z).  Every operation is
    elementwise or per step, so a trial's rows do not depend on the batch
    they are transformed in.
    """

    def __init__(self, spec: AttackSpec, out: np.ndarray):
        trials, count, _ = out.shape
        self.spec, self.out = spec, out
        self.uniforms = np.empty((trials, _uniform_rows(spec), count))

    # quoted, as in seeding.stream: numpy.random loads on the first draw
    def pull(self, i: int, rng: "np.random.Generator") -> None:
        """Fill trial row i from rng."""
        rng.random(out=self.uniforms[i])
        rng.standard_normal(out=self.out[i])

    def normalise(self) -> None:
        """Turn the normals in out into unit directions, in place; a normal of
        norm below 1e-300 becomes the first basis vector."""
        g = self.out
        norms = _norms(g)
        degenerate = norms < 1e-300
        if degenerate.any():
            g[degenerate] = np.eye(g.shape[-1])[0]
            norms = _norms(g)
        g /= norms[..., None]

    def scale(self, spec: AttackSpec, dbar: np.ndarray) -> np.ndarray:
        """Write dbar = sqrt(z) * u and return it: z is spec's mixture of the
        pulled uniforms, u the normalised out.  Any spec with this batch's
        uniform count can reuse one pull."""
        root_z = np.sqrt(_mixture_z(spec, self.uniforms.swapaxes(0, 1)))[..., None]
        return np.multiply(root_z, self.out, out=dbar)

    def transform(self) -> np.ndarray:
        """Turn out into dbar = sqrt(z) * u of the batch's own spec, and return it."""
        self.normalise()
        return self.scale(self.spec, self.out)
