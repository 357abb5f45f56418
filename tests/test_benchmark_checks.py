"""The benchmark's own output checks and probes, run on the program as it is.

perfbench/spans.py wraps the program's entry points by module attribute and
perfbench/workloads.py checks each command's outputs; both are imported
the way perfbench/selftest.py imports them.
"""

import json
import sys
from pathlib import Path

from stealthreach.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# the probes the bound workload's per-layer metrics and gated volumes read
BOUND_PROBES = ("cli.reach_bounds_geom", "cli.reach_bounds_lmi", "reach_lmi.min_volume_over_a",
                "reach_lmi.solve_logdet_sdp", "reach_geom.minkowski_sum_many",
                "reach_common.minkowski_sum_pair")


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
