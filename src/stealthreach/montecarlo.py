"""Empirical reachable sets: point clouds, ellipsoid fits, heatmap sweep.

Clouds are collected from post-transient simulation steps; fits provide a
volume proxy for comparing attack parameterizations.  All sampling is
deterministic per (master_seed, trial).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import ZERO_ALARM, AttackSpec
from .ellipsoids import Ellipsoid
from .errors import DegenerateCloud, DimensionMismatch
from .detector import distance
from .plant import (PlantModel, SimConfig, attack_part, attack_residual, draw_inputs, noise_error,
                    noise_part, noise_residual, pull_inputs)
from .reach_geom import TARGET_ATTACK_STATE, TARGET_NOISE, TARGET_TOTAL_STATE, ReachBound
from .workers import ordered_map

SOURCE_NOISE = "noise"
SOURCE_ATTACK = "attack"
SOURCE_TOTAL = "total"
# the reach-bound target each cloud source samples
SOURCE_TARGET = {SOURCE_NOISE: TARGET_NOISE, SOURCE_ATTACK: TARGET_ATTACK_STATE,
                 SOURCE_TOTAL: TARGET_TOTAL_STATE}

# Membership slacks s of containment_report: a point counts as inside at
# membership <= 1 + s.
CONTAINMENT_SLACKS = (0.0, 1e-6, 1e-2)

# Trials are drawn and propagated in batches of at most this many: a cloud's
# or alarm count's trials in consecutive chunks, and the heatmap's cells stacked
# along the trial axis, spread over the usable CPUs (workers.ordered_map).  Per
# trial-step the attack part costs 0.06-0.08 us at 128 trials and 0.05-0.06 at
# 256 (horizon 550, one CPU); on 2 CPUs 256 gave montecarlo-2d 0.886 s against
# 0.908 s (2 of 3 pairs) and raised its peak RSS from 58.2 to 64.9 MB (+12 %).
BATCH_TRIALS = 128


@dataclass(frozen=True)
class PointCloud:
    """Sampled states with provenance: each trial's kept steps in order, trial after trial."""

    points: np.ndarray
    source: str
    trials: int
    horizon: int
    burn_in: int
    trial_alarm_free: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def _first_kept(cfg: SimConfig, burn_in: int) -> int:
    """Index of the first kept step k* + burn_in, with burn_in in 0 .. horizon - k*."""
    if not 0 <= burn_in <= cfg.horizon - cfg.attack_start:
        raise DimensionMismatch(
            f"burn_in {burn_in} must be in [0, {cfg.horizon - cfg.attack_start}] "
            f"(attack_start {cfg.attack_start}, horizon {cfg.horizon})"
        )
    return cfg.attack_start - 1 + burn_in


def empirical_cloud(model: PlantModel, cfg: SimConfig, spec: AttackSpec | None,
                    source: str = SOURCE_ATTACK, burn_in: int = 50) -> PointCloud:
    """Simulate cfg.trials trajectories and collect post-burn-in states.

    source picks the column: noise-driven split, attack-driven split, or the
    full state; only the parts it reads are propagated.  The attack and total
    sources need a spec.  Steps k >= k* + burn_in are kept, k* =
    cfg.attack_start.  Alarm-free flags per trial are recorded so callers can
    split clouds by whether the whole attack history stayed below the
    threshold spec.alpha.  The trials run in chunks of BATCH_TRIALS spread
    over the usable CPUs (workers.ordered_map); each trial's rows are bitwise
    what it gives alone, and a cloud of one chunk forks nothing.
    """
    if source not in SOURCE_TARGET:
        raise DimensionMismatch(f"unknown cloud source {source!r}")
    if spec is None and source != SOURCE_NOISE:
        raise DimensionMismatch(f"cloud source {source!r} needs an attack spec")
    first = _first_kept(cfg, burn_in)
    # the noise-driven split is the eta-free recursion inside the attack window
    T, n, kstar = cfg.trials, model.n, cfg.attack_start
    steps = cfg.horizon - first

    def chunk(trials):
        """Kept steps (len(trials) * steps, n), contiguous, and alarm-free flags."""
        vs, etas, dbar = draw_inputs(model, cfg, spec, trials)
        block = None
        if source != SOURCE_ATTACK:
            block = noise_part(model, vs, etas, kstar)[:, first:, :n]
        del vs, etas  # not held while the attack part and the alarm flags are computed
        if source != SOURCE_NOISE:
            x_delta = attack_part(model, dbar, kstar)[:, first:, :n]
            block = x_delta if block is None else block + x_delta
        flags = np.ones(len(trials), dtype=bool)
        if spec is not None:
            flags = ~_attack_alarms(model, dbar, kstar, spec.alpha).any(axis=1)
        return block.reshape(-1, n), flags

    chunks = _chunks(T)
    points = np.empty((T * steps, n))
    alarm_free = np.empty(T, dtype=bool)
    for trials, (block, flags) in zip(chunks, ordered_map(chunk, chunks)):
        points[trials.start * steps:trials.stop * steps] = block
        alarm_free[trials.start:trials.stop] = flags
    if not np.all(np.isfinite(points)):
        raise DegenerateCloud("cloud contains non-finite states")
    return PointCloud(
        points=points, source=source, trials=T,
        horizon=cfg.horizon, burn_in=burn_in, trial_alarm_free=alarm_free,
    )


def _chunks(trials: int) -> list[range]:
    """Consecutive trial ranges of at most BATCH_TRIALS trials."""
    return [range(lo, min(lo + BATCH_TRIALS, trials)) for lo in range(0, trials, BATCH_TRIALS)]


def _attack_alarms(model: PlantModel, dbar, kstar: int, alpha: float) -> np.ndarray:
    """Alarm flags (trials, horizon - k* + 1) of the attacked steps, r = SigmaSqrt dbar."""
    return distance(attack_residual(model, dbar, kstar), model.SigmaInv) > alpha


def alarm_counts(model: PlantModel, runs, alpha: float) -> list[tuple[int, int]]:
    """(alarms, steps) of each (cfg, spec) run at threshold alpha: z > alpha.

    Steps 1 .. horizon of an attack-free run (spec None) count, and k* ..
    horizon of an attacked one; the counts are bitwise those of the run's
    residual computed on the whole batch at once.  All runs' chunks go
    through one workers.ordered_map, and a chunk propagates only what its
    residual reads: e_v alone (plant.noise_error), or nothing when r = SigmaSqrt dbar.
    """
    def count(item):
        (cfg, spec), trials = runs[item[0]], item[1]
        vs, etas, dbar = draw_inputs(model, cfg, spec, trials)
        if spec is not None:
            return int(_attack_alarms(model, dbar, cfg.attack_start, alpha).sum())
        r = noise_residual(model, noise_error(model, vs, etas), etas)
        return int((distance(r, model.SigmaInv) > alpha).sum())

    items = [(i, trials) for i, (cfg, _) in enumerate(runs) for trials in _chunks(cfg.trials)]
    alarms = [0] * len(runs)
    for (i, _), chunk_alarms in zip(items, ordered_map(count, items)):
        alarms[i] += chunk_alarms
    return [(a, cfg.trials * (cfg.horizon - (cfg.attack_start - 1 if spec is not None else 0)))
            for a, (cfg, spec) in zip(alarms, runs)]


def fit_ellipsoid_moment(points) -> tuple[Ellipsoid, float]:
    """Second-moment ellipsoid scaled to contain every row of points, and its volume.

    Q = s * M with M the raw second moment and s the largest membership
    x^T M^-1 x, scored by Ellipsoid.membership like containment.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1] + 1:
        raise DegenerateCloud(f"need at least dim+1 points, got shape {X.shape}")
    M = Ellipsoid(X.T @ X / X.shape[0])
    if M.is_degenerate():
        raise DegenerateCloud("cloud has no spread in some direction")
    E = Ellipsoid(float(np.max(M.membership(X))) * M.Q)
    return E, E.volume


@dataclass(frozen=True)
class HeatmapResult:
    """Fitted cloud volume per admissible (c1, w1) cell."""

    grid: list = field(default_factory=list)  # (c1, w1, volume) triples
    alpha: float = 0.0
    resolution: tuple = (0, 0)

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


def volume_heatmap(model: PlantModel, alpha: float, grid_res: int = 16,
                   trials: int = 20, horizon: int = 550, burn_in: int = 50,
                   master_seed: int = 0) -> HeatmapResult:
    """Sweep the admissible (c1, w1) triangle and record fitted volumes.

    Cell (c1, w1) is the zero-alarm mixture attacking from step 1.  All
    cells share one set of trials (common random numbers): the streams keyed
    by (master_seed, t) are pulled once, in the calling process, their
    directions normalised once, and each cell maps the shared uniforms
    through its own mixture.  So a cell's volume is, bit for bit,
    fit_ellipsoid_moment of that cell's own empirical_cloud at master_seed
    (0.0 when the fit is degenerate: zero-magnitude mixtures reach nothing),
    whatever the evaluation order.  Cells are stacked along the trial axis
    up to BATCH_TRIALS trials; each batch's attack part is propagated once
    and fitted in its worker (workers.ordered_map).
    """
    if grid_res < 4:
        raise DimensionMismatch(f"grid resolution must be >= 4, got {grid_res}")
    cfg = SimConfig(horizon=horizon, master_seed=master_seed, trials=trials)
    first = _first_kept(cfg, burn_in)
    # every zero-alarm spec pulls the same raw numbers; the corner's sizes the pull
    raw = pull_inputs(model, cfg, AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=alpha))[3]
    raw.normalise()
    cells = admissible_cells(alpha, grid_res)
    per_batch = max(1, BATCH_TRIALS // trials)
    batches = [cells[lo:lo + per_batch] for lo in range(0, len(cells), per_batch)]

    def batch_volumes(batch):
        dbar = np.empty((len(batch) * trials, horizon, model.p))
        for cell, (c1, w1) in zip(np.split(dbar, len(batch)), batch):
            raw.scale(AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=c1, w1=w1), cell)
        x_delta = attack_part(model, dbar, cfg.attack_start)[:, first:, :model.n]
        volumes = []
        for cell in np.split(x_delta, len(batch)):
            points = cell.reshape(-1, model.n)
            if not np.all(np.isfinite(points)):
                raise DegenerateCloud("cloud contains non-finite states")
            try:
                volumes.append(fit_ellipsoid_moment(points)[1])
            except DegenerateCloud:
                volumes.append(0.0)
        return volumes

    grid = [(c1, w1, vol) for batch, vols in zip(batches, ordered_map(batch_volumes, batches))
            for (c1, w1), vol in zip(batch, vols)]
    return HeatmapResult(grid=grid, alpha=alpha, resolution=(grid_res, grid_res))


def containment_report(cloud: PointCloud, bounds: list[ReachBound]) -> dict:
    """Fraction of cloud points inside each bound at each of CONTAINMENT_SLACKS,
    the worst membership value and the bound/fit volume ratio, each None (JSON
    null) where not finite: a point off a flat bound's range, a degenerate fit."""
    X = cloud.points
    try:
        _, fit_volume = fit_ellipsoid_moment(X)
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
        memberships = np.atleast_1d(bound.shape.membership(X))
        worst = float(np.max(memberships)) if len(X) else 0.0
        report["bounds"].append({
            "method": bound.method,
            "target": bound.target,
            "volume": bound.volume,
            "max_membership": worst if math.isfinite(worst) else None,
            "volume_ratio_vs_fit": bound.volume / fit_volume if fit_volume > 0.0 else None,
            "contained_fraction": {
                str(s): float(np.mean(memberships <= 1.0 + s)) for s in CONTAINMENT_SLACKS
            },
        })
        del memberships  # one cloud-length array at a time
    return report

