"""Empirical reachable sets: point clouds, ellipsoid fits, heatmap sweep.

Clouds are collected from post-transient simulation steps; fits provide a
volume proxy for comparing attack parameterizations.  All sampling is
deterministic per (master_seed, path).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import ZERO_ALARM, AttackSpec
from .ellipsoids import Ellipsoid
from .errors import DegenerateCloud, DimensionMismatch
from .plant import PlantModel, SimConfig, simulate
from .reach_common import ReachBound
from .seeding import substream_seed

SOURCE_NOISE = "noise"
SOURCE_ATTACK = "attack"
SOURCE_TOTAL = "total"

_SOURCE_COLUMN = {SOURCE_NOISE: "x_v", SOURCE_ATTACK: "x_delta", SOURCE_TOTAL: "x"}


@dataclass(frozen=True)
class PointCloud:
    """Sampled states with collection provenance."""

    points: np.ndarray
    source: str
    spec: AttackSpec | None
    trials: int
    horizon: int
    master_seed: int
    burn_in: int
    trial_alarm_free: np.ndarray | None = None
    trial_index: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def empirical_cloud(model: PlantModel, cfg: SimConfig, spec: AttackSpec | None,
                    source: str = SOURCE_ATTACK, burn_in: int = 50,
                    alpha: float | None = None) -> PointCloud:
    """Simulate cfg.trials trajectories and collect post-burn-in states.

    source picks the column: noise-driven split, attack-driven split, or the
    full state.  Steps k >= k* + burn_in are kept (k >= 1 + burn_in for
    attack-free runs).  Alarm-free flags per trial are recorded so callers
    can split clouds by whether the whole attack history stayed below the
    threshold.
    """
    if source not in _SOURCE_COLUMN:
        raise DimensionMismatch(f"unknown cloud source {source!r}")
    if spec is None and source == SOURCE_NOISE:
        # the noise-driven split is the eta-free recursion that runs only
        # inside an attack window: use a zero-magnitude attack from k = 1
        import dataclasses

        spec = AttackSpec(kind=ZERO_ALARM, alpha=alpha if alpha else 1.0, c1=0.0, w1=0.0)
        if cfg.attack_start is None:
            cfg = dataclasses.replace(cfg, attack_start=1)
    kstar = cfg.attack_start if spec is not None else 1
    if kstar is None:
        raise DimensionMismatch("attack spec given but cfg.attack_start is None")
    if not 0 <= burn_in <= cfg.horizon - kstar:
        raise DimensionMismatch(
            f"burn_in {burn_in} must be in [0, {cfg.horizon - kstar}] "
            f"(attack_start {kstar}, horizon {cfg.horizon})"
        )
    alpha = alpha if alpha is not None else (spec.alpha if spec is not None else None)
    trace = simulate(model, cfg, attack=spec, alpha=alpha)
    first = kstar - 1 + burn_in
    block = getattr(trace, _SOURCE_COLUMN[source])[:, first:, :]
    T, steps, n = block.shape
    points = block.reshape(T * steps, n)
    if not np.all(np.isfinite(points)):
        raise DegenerateCloud("cloud contains non-finite states")
    attacked = trace.alarm[:, trace.attacked_slice()]
    alarm_free = ~attacked.any(axis=1) if attacked.size else np.ones(T, dtype=bool)
    return PointCloud(
        points=points, source=source, spec=spec, trials=T,
        horizon=cfg.horizon, master_seed=cfg.master_seed, burn_in=burn_in,
        trial_alarm_free=alarm_free,
        trial_index=np.repeat(np.arange(T), steps),
    )


def fit_ellipsoid_moment(cloud, quantile: float = 1.0) -> tuple[Ellipsoid, float]:
    """Second-moment ellipsoid scaled so the given quantile of points is inside.

    Q = s * M with M the raw second moment and s the quantile of the
    memberships x^T M^-1 x (s = max for quantile 1.0, full containment).
    """
    X = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1] + 1:
        raise DegenerateCloud(f"need at least dim+1 points, got shape {X.shape}")
    n = X.shape[1]
    M = X.T @ X / X.shape[0]
    M = (M + M.T) / 2.0
    w = np.linalg.eigvalsh(M)
    if w[0] <= 1e-12 * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise DegenerateCloud("cloud has no spread in some direction")
    memberships = np.einsum("ij,jk,ik->i", X, np.linalg.inv(M), X)
    s = float(np.max(memberships)) if quantile >= 1.0 else float(np.quantile(memberships, quantile))
    if s <= 0.0:
        raise DegenerateCloud("all points at the origin")
    E = Ellipsoid(s * M)
    return E, E.volume


@dataclass(frozen=True)
class HeatmapResult:
    """Fitted cloud volume per admissible (c1, w1) cell."""

    grid: list = field(default_factory=list)  # (c1, w1, volume) triples
    alpha: float = 0.0
    resolution: tuple = (0, 0)
    master_seed: int = 0

    def argmax_cell(self) -> tuple[float, float, float]:
        return max(self.grid, key=lambda row: row[2])


def admissible_cells(alpha: float, res: int) -> list[tuple[float, float]]:
    """Grid of the triangle 0 <= c1 <= alpha, 0 <= w1 <= 2 min(c1, alpha-c1)."""
    c1s = np.linspace(0.0, alpha, res)
    w1s = np.linspace(0.0, alpha, res)
    tol = 1e-12 * alpha
    return [
        (float(c1), float(w1))
        for c1 in c1s
        for w1 in w1s
        if w1 <= 2.0 * min(c1, alpha - c1) + tol
    ]


def heatmap_cell_volume(model: PlantModel, alpha: float, c1: float, w1: float,
                        trials: int, horizon: int, burn_in: int,
                        master_seed: int, direction_mode="uniform_sphere") -> float:
    """Fitted attack-cloud volume for one (c1, w1) mixture."""
    spec = AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=c1, w1=w1,
                      direction_mode=direction_mode)
    cfg = SimConfig(horizon=horizon, attack_start=1, master_seed=master_seed,
                    trials=trials)
    cloud = empirical_cloud(model, cfg, spec, source=SOURCE_ATTACK, burn_in=burn_in)
    try:
        _, vol = fit_ellipsoid_moment(cloud)
    except DegenerateCloud:
        return 0.0  # zero-magnitude mixtures reach nothing
    return vol


def volume_heatmap(model: PlantModel, alpha: float, grid_res: int = 16,
                   trials: int = 20, horizon: int = 550, burn_in: int = 50,
                   master_seed: int = 0) -> HeatmapResult:
    """Sweep the admissible (c1, w1) triangle and record fitted volumes.

    Each cell draws from its own stream keyed by (master_seed, cell index),
    so results are independent of evaluation order.
    """
    if grid_res < 4:
        raise DimensionMismatch(f"grid resolution must be >= 4, got {grid_res}")
    cells = admissible_cells(alpha, grid_res)
    grid = []
    for idx, (c1, w1) in enumerate(cells):
        vol = heatmap_cell_volume(
            model, alpha, c1, w1, trials=trials, horizon=horizon,
            burn_in=burn_in, master_seed=substream_seed(master_seed, idx),
        )
        grid.append((c1, w1, vol))
    return HeatmapResult(grid=grid, alpha=alpha, resolution=(grid_res, grid_res),
                         master_seed=master_seed)


def containment_report(cloud: PointCloud, bounds: list[ReachBound],
                       slacks=(0.0, 1e-6, 1e-2)) -> dict:
    """Fraction of cloud points inside each bound at several slacks.

    Also reports the worst membership value and the bound/fit volume ratio.
    """
    X = cloud.points
    try:
        _, fit_volume = fit_ellipsoid_moment(cloud)
    except DegenerateCloud:
        fit_volume = 0.0
    report = {
        "points": int(len(cloud)),
        "source": cloud.source,
        "fit_volume": fit_volume,
        "bounds": [],
    }
    for bound in bounds:
        if bound.shape.dim != cloud.dim:
            raise DimensionMismatch(
                f"bound dim {bound.shape.dim} vs cloud dim {cloud.dim}"
            )
        memberships = bound.shape.membership(X)
        memberships = np.atleast_1d(memberships)
        entry = {
            "method": bound.method,
            "target": bound.target,
            "volume": bound.volume,
            "max_membership": float(np.max(memberships)) if len(X) else 0.0,
            "volume_ratio_vs_fit": (bound.volume / fit_volume) if fit_volume > 0.0 else math.inf,
            "contained_fraction": {
                str(s): float(np.mean(memberships <= 1.0 + s)) for s in slacks
            },
        }
        report["bounds"].append(entry)
    return report

