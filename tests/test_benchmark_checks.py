"""The benchmark's own output checks and probes, run on the program as it is,
and the digests of every file its workloads' commands write.

perfbench/spans.py wraps the program's entry points by module attribute and
perfbench/workloads.py checks each command's outputs; both are imported
the way perfbench/selftest.py imports them.  Each workload command runs once
per session at SEED, into a directory of its own, as perfbench/run.py runs it.

output_digests.json holds the SHA-256 of each of those files, every bound
volume as %.17g, and the numpy and BLAS that wrote them.  On that numpy and
BLAS the files must match byte for byte; elsewhere the volumes must match to
VOLUME_RTOL.  A change that moves an output rewrites the manifest with

    PYTHONPATH=src python tests/test_benchmark_checks.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from stealthreach.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 21
MANIFEST = Path(__file__).with_name("output_digests.json")
VOLUME_RTOL = 1e-12

# the probes the bound workload's per-layer metrics and gated volumes read
BOUND_PROBES = ("cli.reach_bounds_geom", "cli.reach_bounds_lmi", "reach_lmi.min_volume_over_a",
                "reach_lmi.solve_logdet_sdp", "reach_geom.minkowski_sum_many")
# the probes montecarlo-2d's gated vol_*_geom and its cloud and heatmap layers read
MONTECARLO_PROBES = ("cli.reach_bounds_geom", "cli.empirical_cloud", "cli.containment_report",
                     "cli.volume_heatmap")


class Run(NamedTuple):
    out: Path
    recorder: spans.Recorder
    absent: frozenset
    exit_code: int


def run_workloads(work: Path) -> dict:
    """Run every workload command at SEED, traced, each into work/<workload>/<i>-<command>.
    Returns {(workload, command label): Run}."""
    runs = {}
    for wl in workloads.WORKLOADS.values():
        (work / wl.name).mkdir(parents=True)
        scenario, _ = wl.prepare(ROOT, work / wl.name, SEED)
        for index, cmd in enumerate(wl.commands):
            out = work / wl.name / f"{index}-{cmd.name}"
            rec = spans.Recorder()
            with spans.instrumented(rec) as absent:
                code = main([cmd.name, "--scenario", scenario, "--out", str(out), *cmd.args])
            runs[wl.name, cmd.label] = Run(out, rec, frozenset(absent), code)
    return runs


def output_files(runs: dict) -> dict:
    """{workload/<i>-<command>/file name: path} over every file the commands wrote."""
    return {f"{key[0]}/{run.out.name}/{path.name}": path
            for key, run in runs.items() for path in sorted(run.out.iterdir())}


def bound_volumes(files: dict) -> dict:
    """Every bound volume in the JSON outputs, as %.17g: a bound file's own, and
    each bound that containment.json scores, keyed file#method/target."""
    volumes = {}
    for key, path in files.items():
        if path.suffix != ".json":
            continue
        payload = json.loads(path.read_text())
        if "volume" in payload:
            volumes[key] = "%.17g" % payload["volume"]
        for entry in payload.get("bounds", []):
            volumes[f"{key}#{entry['method']}/{entry['target']}"] = "%.17g" % entry["volume"]
    return volumes


def platform() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": " ".join(str(blas.get(k)) for k in ("name", "version",
                                                        "openblas configuration"))}


def manifest(runs: dict) -> dict:
    files = output_files(runs)
    return {
        "seed": SEED,
        "platform": platform(),
        "sha256": {key: hashlib.sha256(path.read_bytes()).hexdigest()
                   for key, path in files.items()},
        "volumes": bound_volumes(files),
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_workloads(tmp_path_factory.mktemp("workloads"))


def test_bound_both_passes_check_bounds_with_every_probe(runs):
    out, rec, absent, code = runs["bound-2d", "bound --method both"]
    assert code == 0
    assert not set(BOUND_PROBES) & absent
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


def test_verify_4d_passes_check_verify(runs):
    out, _, _, code = runs["verify-4d", "verify"]
    assert code == 0
    assert workloads.check_verify(out) == []


def test_montecarlo_2d_passes_its_checks_with_every_probe(runs):
    for label in ("montecarlo --cloud total", "montecarlo --cloud attack --trials 1000"):
        out, rec, absent, code = runs["montecarlo-2d", label]
        assert code == 0
        assert not set(MONTECARLO_PROBES) & absent
        probe = {("geometric", t): v
                 for t, v in spans.bound_volumes(rec, "reach_geom.bounds").items() if v}
        assert len(probe) == 4
        # every geometric bound contains the cloud
        assert workloads.check_containment(out, probe) == []
    out, _, _, code = runs["montecarlo-2d", "heatmap --res 16"]
    assert code == 0
    # the heatmap peaks at its corner
    assert workloads.check_heatmap(out, workloads.ALPHA_2D) == []


def test_outputs_match_the_digest_manifest(runs):
    want = json.loads(MANIFEST.read_text())
    got = manifest(runs)
    assert got["seed"] == want["seed"]
    assert len(got["sha256"]) == 18
    assert sorted(got["sha256"]) == sorted(want["sha256"])
    assert sorted(got["volumes"]) == sorted(want["volumes"])
    if got["platform"] == want["platform"]:
        changed = [key for key, digest in got["sha256"].items() if digest != want["sha256"][key]]
        assert changed == [], "outputs differ from the manifest's bytes"
    else:
        for key, volume in want["volumes"].items():
            assert float(got["volumes"][key]) == pytest.approx(float(volume), rel=VOLUME_RTOL,
                                                               abs=0.0), key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        payload = manifest(run_workloads(Path(work)))
    MANIFEST.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(payload['sha256'])} files, "
          f"{len(payload['volumes'])} volumes", file=sys.stderr)
