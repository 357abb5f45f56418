import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import stealthreach

SRC = str(Path(stealthreach.__file__).parents[1])

# every public name of the package, by the module that defines it
HOMES = {
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


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter with src/ first on the path; its stdout."""
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path[:0] = [{SRC!r}]\n{code}"],
                          check=True, capture_output=True, text=True)
    return done.stdout


def test_load_scenario_leaves_unused_modules_unloaded():
    # the modules below serve commands, bounds and clouds, never a load;
    # hashlib loads with numpy.random (the first draw) or the first output write
    got = run_fresh(
        "import json\n"
        "before = set(sys.modules)\n"
        "import stealthreach\n"
        "stealthreach.load_scenario('benchmark2d')\n"
        "heavy = {f'stealthreach.{m}' for m in ('montecarlo', 'workers', 'reach_common',\n"
        "         'reach_geom', 'reach_lmi', 'cli', 'svgplot')}\n"
        "heavy |= {'hashlib'} - before\n"
        "print(json.dumps(sorted(heavy & set(sys.modules))))\n")
    assert json.loads(got) == []


def test_public_names_are_their_home_modules_objects():
    names = [name for names in HOMES.values() for name in names]
    assert sorted(stealthreach.__all__) == sorted(names)
    assert set(names) <= set(dir(stealthreach))
    for module, own in HOMES.items():
        home = importlib.import_module(f"stealthreach.{module}")
        for name in own:
            assert getattr(stealthreach, name) is getattr(home, name), name
    star = {}
    exec("from stealthreach import *", star)
    assert all(star[name] is getattr(stealthreach, name) for name in names)


def test_submodule_resolves_after_a_bare_import():
    got = run_fresh("import stealthreach\n"
                    "print({'montecarlo', 'workers', 'errors', 'seeding'} <= set(dir(stealthreach)),\n"
                    "      'stealthreach.montecarlo' in sys.modules,\n"
                    "      stealthreach.montecarlo is sys.modules['stealthreach.montecarlo'],\n"
                    "      stealthreach.empirical_cloud is stealthreach.montecarlo.empirical_cloud)")
    assert got.split() == ["True", "False", "True", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'stealthreach' has no attribute 'nope'$"):
        stealthreach.nope
    assert not hasattr(stealthreach, "nope")
