"""stealthreach: reachable-set analysis of stealthy sensor attacks.

Simulates stochastic LTI control loops under zero-alarm and hidden sensor
attacks against a chi-squared detector, and computes outer ellipsoidal
bounds on the attack-driven reachable states by a log-det SDP method and
a geometric Minkowski-sum method.
"""

__version__ = "0.1.0"

from .attacks import AttackSpec, named_spec
from .detector import chi2_cdf, chi2_quantile, distance
from .ellipsoids import (
    Ellipsoid,
    minkowski_sum_many,
    sym_sqrt,
    unit_ball_volume,
    volume,
)
from .montecarlo import (
    HeatmapResult,
    PointCloud,
    containment_report,
    empirical_cloud,
    fit_ellipsoid_moment,
    volume_heatmap,
)
from .plant import (
    PlantModel,
    SimConfig,
    build_model,
    solve_steady_state_kalman,
)
from .reach_common import ReachBound
from .reach_geom import reach_bounds_geom, reach_targets
from .reach_lmi import (
    min_volume_over_a,
    reach_bounds_lmi,
    solve_logdet_sdp,
)
from .scenario import Scenario, load_scenario, parse_scenario

__all__ = [
    "AttackSpec", "named_spec",
    "chi2_cdf", "chi2_quantile", "distance",
    "Ellipsoid", "minkowski_sum_many", "sym_sqrt", "unit_ball_volume", "volume",
    "HeatmapResult", "PointCloud", "containment_report", "empirical_cloud",
    "fit_ellipsoid_moment", "volume_heatmap",
    "PlantModel", "SimConfig", "build_model", "solve_steady_state_kalman",
    "ReachBound",
    "reach_bounds_geom", "reach_targets",
    "min_volume_over_a", "reach_bounds_lmi", "solve_logdet_sdp",
    "Scenario", "load_scenario", "parse_scenario",
]
