"""The benchmark's own output checks and probes, run on the program as it is.

perfbench/spans.py wraps the program's entry points by module attribute and
perfbench/workloads.py checks each command's outputs; both are imported
the way perfbench/selftest.py imports them.
"""

import json
import sys
from pathlib import Path

from stealthreach.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# the probes the bound workload's per-layer metrics and gated volumes read
BOUND_PROBES = ("cli.reach_bounds_geom", "cli.reach_bounds_lmi", "reach_lmi.min_volume_over_a",
                "reach_lmi.solve_logdet_sdp", "reach_geom.minkowski_sum_many")
# the probes montecarlo-2d's gated vol_*_geom and its cloud and heatmap layers read
MONTECARLO_PROBES = ("cli.reach_bounds_geom", "cli.empirical_cloud", "cli.containment_report",
                     "cli.volume_heatmap")


def test_bound_both_passes_check_bounds_with_every_probe(tmp_path, capsys):
    out = tmp_path / "out"
    rec = spans.Recorder()
    with spans.instrumented(rec) as absent:
        assert main(["bound", "--scenario", workloads.BUNDLED_2D, "--out", str(out),
                     "--method", "both"]) == 0
    assert not set(BOUND_PROBES) & set(absent)
    probe = {}
    for layer, method in (("reach_geom", "geometric"), ("reach_lmi", "lmi")):
        probe.update(((method, t), v)
                     for t, v in spans.bound_volumes(rec, f"{layer}.bounds").items() if v)
    assert len(probe) == 8
    # certificates, LMI >= geometric volume for all four targets, JSON volumes as computed
    assert workloads.check_bounds(out, probe) == []
    # the gated vol_*_geom metrics are read from this span
    assert spans.bound_volumes(rec, "reach_geom.bounds") == {
        t: json.loads((out / f"bound_geometric_{t}.json").read_text())["volume"]
        for t in spans.TARGETS}


def test_verify_4d_passes_check_verify(tmp_path, capsys):
    raw, _ = workloads.scenario_4d(21)
    path = tmp_path / "verify4d.json"
    path.write_text(workloads.scenario_json(raw))
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
    assert workloads.check_verify(out) == []


def test_montecarlo_2d_passes_its_checks_with_every_probe(tmp_path, capsys):
    path = tmp_path / "montecarlo2d.json"
    path.write_text(workloads.scenario_json(workloads.scenario_2d_geom(ROOT, 21)))
    out = tmp_path / "out"
    rec = spans.Recorder()
    with spans.instrumented(rec) as absent:
        assert main(["montecarlo", "--scenario", str(path), "--out", str(out),
                     "--cloud", "total"]) == 0
        assert main(["heatmap", "--scenario", str(path), "--out", str(out), "--res", "16"]) == 0
    assert not set(MONTECARLO_PROBES) & set(absent)
    probe = {("geometric", t): v
             for t, v in spans.bound_volumes(rec, "reach_geom.bounds").items() if v}
    assert len(probe) == 4
    # every geometric bound contains the cloud, and the heatmap peaks at its corner
    assert workloads.check_containment(out, probe) == []
    assert workloads.check_heatmap(out, workloads.ALPHA_2D) == []
