"""stealthreach: reachable-set analysis of stealthy sensor attacks.

Simulates stochastic LTI control loops under zero-alarm and hidden sensor
attacks against a chi-squared detector, and computes outer ellipsoidal
bounds on the attack-driven reachable states by a log-det SDP method and
a geometric Minkowski-sum method.
"""

__version__ = "0.1.0"

from .attacks import AttackSpec, named_spec, sample_delta_bar, sample_z
from .detector import alarm_stream, chi2_quantile, distance, reg_lower_gamma
from .ellipsoids import (
    Ellipsoid,
    contains,
    linear_image,
    minkowski_sum_many,
    minkowski_sum_pair,
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
    SimTrace,
    build_model,
    simulate,
    solve_steady_state_kalman,
)
from .reach_common import ReachBound, total_state_bound
from .reach_geom import (
    GeomSumConfig,
    attack_error_reach_geom,
    attack_state_reach_geom,
    noise_reach_geom,
    reach_bounds_geom,
    total_state_bound_geom,
)
from .reach_lmi import (
    LmiProblem,
    min_volume_over_a,
    reach_bounds_lmi,
    solve_logdet_sdp,
)
from .scenario import Scenario, load_scenario, parse_scenario

__all__ = [
    "AttackSpec", "named_spec", "sample_delta_bar", "sample_z",
    "alarm_stream", "chi2_quantile", "distance", "reg_lower_gamma",
    "Ellipsoid", "contains", "linear_image", "minkowski_sum_many", "minkowski_sum_pair",
    "sym_sqrt", "unit_ball_volume", "volume",
    "HeatmapResult", "PointCloud", "containment_report", "empirical_cloud",
    "fit_ellipsoid_moment", "volume_heatmap",
    "PlantModel", "SimConfig", "SimTrace", "build_model", "simulate", "solve_steady_state_kalman",
    "ReachBound", "total_state_bound",
    "GeomSumConfig", "attack_error_reach_geom", "attack_state_reach_geom",
    "noise_reach_geom", "reach_bounds_geom", "total_state_bound_geom",
    "LmiProblem", "min_volume_over_a", "reach_bounds_lmi", "solve_logdet_sdp",
    "Scenario", "load_scenario", "parse_scenario",
]
