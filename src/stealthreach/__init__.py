"""stealthreach: reachable-set analysis of stealthy sensor attacks.

Simulates stochastic LTI control loops under zero-alarm and hidden sensor
attacks against a chi-squared detector, and computes outer ellipsoidal
bounds on the attack-driven reachable states by a log-det SDP method and
a geometric Minkowski-sum method.

Public names, and submodules such as ``stealthreach.montecarlo``, are
imported on first access (PEP 562), so ``import stealthreach`` followed by
``load_scenario`` loads only the modules a scenario needs.
"""

import importlib

__version__ = "0.1.0"

# home module -> its public names
_PUBLIC = {
    "attacks": ("AttackSpec", "named_spec"),
    "detector": ("chi2_cdf", "chi2_quantile", "distance"),
    "ellipsoids": ("Ellipsoid", "minkowski_sum_many", "sym_sqrt", "unit_ball_volume", "volume"),
    "montecarlo": ("HeatmapResult", "PointCloud", "containment_report", "empirical_cloud",
                   "fit_ellipsoid_moment", "volume_heatmap"),
    "plant": ("PlantModel", "SimConfig", "build_model", "solve_steady_state_kalman"),
    "reach_common": ("ReachBound",),
    "reach_geom": ("reach_bounds_geom", "reach_targets"),
    "reach_lmi": ("min_volume_over_a", "reach_bounds_lmi", "solve_logdet_sdp"),
    "scenario": ("Scenario", "load_scenario", "parse_scenario"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
        globals()[name] = value  # later lookups skip this function
        return value
    try:  # a submodule; importing it binds it in globals()
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():  # every submodule too, each of which __getattr__ resolves
    import pkgutil

    return sorted({*globals(), *_HOME, *(m.name for m in pkgutil.iter_modules(__path__))})
