import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stealthreach import (
    SimConfig, __version__, chi2_quantile, cli, distance, empirical_cloud, errors, load_scenario,
    parse_scenario,
)
from stealthreach.cli import main
from stealthreach.errors import SchemaError, StealthreachError
from stealthreach.montecarlo import admissible_cells

from conftest import (C, F, G, K, L_EXPECTED, R1, R2, batch_parts, cell_cloud_volume, cpu_cases,
                      plant_4d, strict_json)


def base_raw(**overrides):
    raw = {
        "model": {
            "F": F.tolist(), "G": G.tolist(), "C": C.tolist(), "K": K.tolist(),
            "R1": R1.tolist(), "R2": R2.tolist(),
        },
        "detector": {"A": 0.05},
        "attack": {"preset": "ZA.C"},
        "sim": {"horizon": 80, "attack_start": 1, "master_seed": 99, "trials": 3},
        "output": {"dir": "out", "formats": ["json", "csv"]},
    }
    raw.update(overrides)
    return raw


def write_scenario(tmp_path, raw, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestScenarioSchema:
    def test_parses_and_resolves_alpha(self):
        scn = parse_scenario(base_raw())
        assert scn.alpha == pytest.approx(5.99146, abs=1e-4)
        assert scn.vbar == pytest.approx(5.99146, abs=1e-4)
        assert scn.attack.c1 == pytest.approx(scn.alpha)

    def test_alpha_token_arithmetic(self):
        raw = base_raw(attack={"kind": "hidden", "c1": "alpha", "w1": 0,
                               "c2": "2*alpha", "w2": "alpha/8"})
        scn = parse_scenario(raw)
        assert scn.attack.c2 == pytest.approx(2.0 * scn.alpha)
        assert scn.attack.w2 == pytest.approx(scn.alpha / 8.0)
        assert scn.attack.rate_above == 0.05

    def test_unknown_key_named_in_error(self):
        raw = base_raw()
        raw["model"]["Q"] = [[1.0]]
        with pytest.raises(SchemaError) as err:
            parse_scenario(raw)
        assert "scenario.model.Q" in str(err.value)

    def test_missing_required_key(self):
        raw = base_raw()
        del raw["sim"]["horizon"]
        with pytest.raises(SchemaError) as err:
            parse_scenario(raw)
        assert "scenario.sim.horizon" in str(err.value)

    def test_preset_excludes_explicit_fields(self):
        raw = base_raw(attack={"preset": "ZA.C", "c1": 1.0})
        with pytest.raises(SchemaError):
            parse_scenario(raw)

    def test_attack_requires_attack_start(self):
        raw = base_raw()
        del raw["sim"]["attack_start"]
        with pytest.raises(SchemaError) as err:
            parse_scenario(raw)
        assert "attack_start" in str(err.value)

    def test_bad_format_rejected(self):
        raw = base_raw(output={"dir": "out", "formats": ["yaml"]})
        with pytest.raises(SchemaError):
            parse_scenario(raw)

    def test_bundled_scenario_by_name(self):
        scn = load_scenario("benchmark2d")
        assert scn.model.n == 2
        assert scn.hash == load_scenario("benchmark2d").hash

    def test_readme_example_parses(self):
        # the README's "Scenario format" example, with benchmark2d's matrices
        # in its [[...]] slots, is a valid scenario
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("### Scenario format")[1].split("```json")[1].split("```")[0]
        bench = load_scenario("benchmark2d").raw["model"]
        example = re.sub(r'"(\w+)": \[\[\.\.\.\]\]',
                         lambda m: f'"{m[1]}": {json.dumps(bench.get(m[1]))}', example)
        raw = json.loads(example)
        assert set(raw["model"]) == set(bench)
        scn = parse_scenario(raw)
        assert (scn.bounds_method, scn.attack.c1) == ("both", scn.alpha)

    # each preset's explicit {kind, c1, w1, c2, w2} block
    EXPLICIT_PRESETS = {
        "ZA.A": {"kind": "zero_alarm", "c1": "alpha/8", "w1": "alpha/10"},
        "ZA.B": {"kind": "zero_alarm", "c1": "alpha/2", "w1": "alpha"},
        "ZA.C": {"kind": "zero_alarm", "c1": "alpha"},
        "H.A": {"kind": "hidden", "c1": "alpha", "c2": "1.5*alpha", "w2": "alpha"},
        "H.B": {"kind": "hidden", "c1": "alpha", "w1": 0, "c2": "2*alpha", "w2": 0},
        "H.C": {"kind": "hidden", "c1": "alpha", "c2": "10*alpha", "w2": 0},
        "H.D": {"kind": "hidden", "c1": "alpha", "c2": "100*alpha", "w2": 0.0},
    }

    @pytest.mark.parametrize("detector", [None, {"A": 0.01}])
    @pytest.mark.parametrize("preset", sorted(EXPLICIT_PRESETS))
    def test_preset_equals_its_explicit_block(self, preset, detector):
        blocks = [{"preset": preset}, dict(self.EXPLICIT_PRESETS[preset])]
        overrides = {} if detector is None else {"detector": detector}
        by_preset, explicit = (parse_scenario(base_raw(attack=b, **overrides)).attack
                               for b in blocks)
        assert by_preset == explicit

    @pytest.mark.parametrize("attack", [{"preset": "H.A"}, {"preset": "H.D"},
                                        EXPLICIT_PRESETS["H.B"]])
    def test_hidden_mass_above_threshold_is_the_false_alarm_rate(self, attack):
        scn = parse_scenario(base_raw(detector={"A": 0.01}, attack=attack))
        assert scn.alpha == chi2_quantile(0.99, 2)
        assert scn.attack.rate_above == 0.01


def test_readme_library_example_runs():
    # the README's Library snippet, run on benchmark2d's matrices, gives what
    # its comments say: a 5% attack-free alarm rate and no alarm under ZA.C
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    snippet = readme.split("## Library")[1].split("```python")[1].split("```")[0]
    names = {k: np.array(v) for k, v in load_scenario("benchmark2d").raw["model"].items()}
    exec(snippet, names)
    assert names["rate"] == pytest.approx(0.05, rel=1e-9)
    assert names["alarms"] == 0 and names["steps"] == 200 * 550
    assert names["report"]["bounds"][0]["target"] == "attack_state"


class TestCliExitCodes:
    def test_tune_success(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_raw())
        code = main(["tune", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "tuning.json").read_text())
        assert payload["alpha"] == pytest.approx(5.99146, abs=1e-4)
        assert payload["vbar"] == pytest.approx(5.99146, abs=1e-4)
        assert payload["p"] == 2 and payload["n"] == 2 and payload["A"] == 0.05
        assert "scenario_hash" in payload["meta"]

    def test_schema_error_exit_2(self, tmp_path, capsys):
        raw = base_raw()
        raw["unknown_block"] = {}
        path = write_scenario(tmp_path, raw)
        assert main(["tune", "--scenario", path]) == 2
        assert "unknown_block" in capsys.readouterr().err

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        # K = 0 leaves x undriven in the joint [x, e] recursion, so the
        # attack-state LMI has no bounded solution at any decay scalar
        raw = base_raw()
        raw["model"]["F"] = (0.999 * np.eye(2)).tolist()
        raw["model"]["K"] = np.zeros((2, 2)).tolist()
        del raw["attack"]
        del raw["sim"]["attack_start"]
        raw["bounds"] = {"method": "lmi"}
        path = write_scenario(tmp_path, raw)
        assert main(["bound", "--scenario", path, "--out", str(tmp_path / "out")]) == 3

    def test_invariant_violation_exit_4(self, tmp_path, capsys):
        raw = base_raw()
        raw["model"]["F"] = (2.0 * np.eye(2)).tolist()
        path = write_scenario(tmp_path, raw)
        assert main(["tune", "--scenario", path]) == 4
        assert "UnstableF" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["tune", "--scenario", "/definitely/not/here.json"]) == 2

    @pytest.mark.parametrize("block,key,value", [
        ("geom", "tail_tol", 2), ("geom", "tail_tol", 0), ("geom", "max_terms", "abc"),
        ("geom", "max_terms", 0), ("lmi", "grid_step", "x"), ("lmi", "grid_step", 0),
        ("lmi", "grid_step", 1.5),
    ])
    @pytest.mark.parametrize("command", ["bound", "montecarlo"])
    def test_malformed_bound_setting_exit_2(self, tmp_path, capsys, block, key, value, command):
        path = write_scenario(tmp_path, base_raw(bounds={block: {key: value}}))
        assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 2
        # neither bound method has a setting, so a bounds.geom or bounds.lmi
        # block is unknown as a whole
        assert f"scenario.bounds.{block}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key,value,path", [
        ("attack", "preset", "ZZ", "scenario.attack: unknown preset"),
        ("attack", "c1", "2*alpha", "scenario.attack: below-threshold segment"),
        ("attack", "c1", "alpha*2", "scenario.attack: cannot resolve alpha expression"),
        ("attack", "direction_mode", "diagonal", "scenario.attack.direction_mode: unknown key"),
        ("attack", "direction_mode", [1.0, 1.0], "scenario.attack.direction_mode: unknown key"),
        ("attack", "direction_mode", [1.0, 0.0, 0.0],
         "scenario.attack.direction_mode: unknown key"),
        ("sim", "horizon", 0, "scenario.sim: horizon"),
        ("sim", "trials", 0, "scenario.sim: trials"),
        ("sim", "attack_start", 600, "scenario.sim: attack_start"),
        # the bounds cover the noise state from zero at k*, so no other start is a setting
        ("sim", "initial_state", [20.0, -20.0], "scenario.sim.initial_state: unknown key"),
        ("detector", "alpha", -1, "scenario.detector.alpha"),
        # 1 - A rounds to 1.0, which has no chi-square quantile
        ("detector", "A", 1e-17, "scenario.detector.A: quantile level"),
    ])
    def test_bad_attack_or_run_setting_exit_2(self, tmp_path, capsys, block, key, value, path):
        raw = base_raw()
        if key == "c1":
            raw["attack"] = {"kind": "zero_alarm"}
        raw[block][key] = value
        code = main(["bound", "--scenario", write_scenario(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"schema error: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("attack", [
        {"kind": "zero_alarm", "c1": True, "w1": False},
        {"kind": "zero_alarm", "c1": "alpha/2", "w1": True},
        {"kind": "hidden", "c1": "alpha", "c2": "2*alpha", "w2": False},
        {"kind": "hidden", "c1": False, "w1": 0, "c2": "2*alpha", "w2": 0},
    ])
    def test_boolean_mixture_value_exit_2(self, tmp_path, capsys, attack):
        # JSON true/false are not numbers, in an explicit block as everywhere else
        with pytest.raises(SchemaError, match="got (True|False)"):
            parse_scenario(base_raw(attack=attack))
        code = main(["bound", "--scenario", write_scenario(tmp_path, base_raw(attack=attack)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert ("schema error: scenario.attack: expected a number or an alpha expression"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("block,key,value", [
        ("detector", "alpha", 6.5), ("attack", "A", 0.2), ("model", "L", L_EXPECTED.tolist()),
        ("attack", "direction_mode", [0.6, 0.8]),
    ])
    @pytest.mark.parametrize("command", ["tune", "bound", "montecarlo", "heatmap", "verify"])
    def test_derived_rate_and_threshold_are_not_settings(self, tmp_path, capsys, block, key,
                                                         value, command):
        # alpha is the detector's (1 - A)-quantile and a hidden attack's mass
        # above it is A, so neither is a key of its own; the detector and the
        # bounds assume the Riccati gain L and uniform attack directions, so
        # neither of those is a key either
        raw = base_raw()
        raw[block][key] = value
        code = main([command, "--scenario", write_scenario(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"schema error: scenario.{block}.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("dir", 5, "expected a string, got int"), ("dir", None, "expected a string, got NoneType"),
        ("dir", ["a"], "expected a string, got list"),
        ("formats", 5, "expected a list of format names, got int"),
        ("formats", None, "expected a list of format names, got NoneType"),
        ("formats", "svg", "expected a list of format names, got str"),
    ])
    def test_malformed_output_block_exit_2(self, tmp_path, monkeypatch, capsys, key, value,
                                           message):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, base_raw(output={key: value}))
        assert main(["tune", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert f"schema error: scenario.output.{key}: {message}" in err
        assert "Traceback" not in err

    def test_small_false_alarm_rate_loads(self):
        scn = parse_scenario(base_raw(detector={"A": 1e-12}))
        assert (scn.target_rate, scn.alpha) == (1e-12, chi2_quantile(1.0 - 1e-12, 2))

    @pytest.mark.parametrize("where,value,message", [
        (("model", "F", 0, 0), math.nan, "scenario.model.F: expected finite numbers"),
        (("model", "R1", 1, 1), math.inf, "scenario.model.R1: expected finite numbers"),
        (("sim", "horizon"), math.nan, "scenario.sim.horizon: expected a finite number"),
        (("sim", "trials"), math.inf, "scenario.sim.trials: expected a finite number"),
        (("sim", "horizon"), 550.7, "scenario.sim.horizon: expected an integer"),
        (("model", "G", 1), [math.inf, 0.0], "scenario.model.G: expected finite numbers"),
        (("attack",), {"kind": "zero_alarm", "c1": "nan*alpha"},
         "scenario.attack: c1 must be finite"),
        (("attack",), {"kind": "hidden", "c1": "alpha", "c2": "inf*alpha", "w2": 0},
         "scenario.attack: c2 must be finite"),
    ])
    def test_non_finite_or_non_integral_number_exit_2(self, tmp_path, capsys, where, value,
                                                      message):
        raw = base_raw()
        *parents, last = where
        block = raw
        for key in parents:
            block = block[key]
        block[last] = value
        code = main(["montecarlo", "--scenario", write_scenario(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"schema error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("heatmap", "--res", "3"), ("heatmap", "--cell-trials", "0"),
        ("montecarlo", "--trials", "0"), ("montecarlo", "--burn-in", "-1"),
        ("montecarlo", "--burn-in", "80"),  # the horizon: no step left
    ])
    def test_out_of_range_argument_exit_2(self, tmp_path, capsys, command, flag, value):
        path = write_scenario(tmp_path, base_raw())
        assert main([command, "--scenario", path, "--out", str(tmp_path / "out"), flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_scenario_directory_exit_2(self, tmp_path, capsys):
        assert main(["tune", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert f"schema error: {tmp_path}: cannot read" in capsys.readouterr().err

    def test_non_utf8_scenario_exit_2(self, tmp_path, capsys):
        # a UTF-16 byte-order mark, then the scenario in UTF-16
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(base_raw()).encode("utf-16-le"))
        assert main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"schema error: {path}: the scenario file is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.fixture
    def no_cloud(self, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("the cloud was computed before the output directory was made")

        monkeypatch.setattr(cli, "empirical_cloud", computed)

    def test_out_under_a_file_exit_2(self, tmp_path, capsys, no_cloud):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        path = write_scenario(tmp_path, base_raw())
        assert main(["montecarlo", "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"argument error: cannot create the output directory {out}" in err

    def test_out_the_os_refuses_exit_2(self, tmp_path, monkeypatch, capsys, no_cloud):
        # mkdir in a deleted working directory fails with ENOENT, as it does under /proc
        path = write_scenario(tmp_path, base_raw())
        (tmp_path / "gone").mkdir()
        monkeypatch.chdir(tmp_path / "gone")
        (tmp_path / "gone").rmdir()
        assert main(["montecarlo", "--scenario", path, "--out", "out"]) == 2
        assert ("argument error: cannot create the output directory out: No such file"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, name, args", [
        ("tune", "tuning.json", []),
        ("montecarlo", "containment.json", ["--burn-in", "10"]),
        ("montecarlo", "cloud_attack.npy", ["--burn-in", "10"]),
        ("heatmap", "heatmap.csv", ["--res", "4", "--cell-trials", "1"]),
    ], ids=["tuning.json", "containment.json", "cloud_attack.npy", "heatmap.csv"])
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, command, name, args):
        # a directory squats on the file's name, so opening it for writing fails
        path = write_scenario(tmp_path, base_raw())
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([command, "--scenario", path, "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert f"argument error: cannot write {out / name}: Is a directory" in err
        assert "Traceback" not in err


def csv_meta(scn):
    return [f"# scenario_hash={scn.hash}", f"# master_seed={scn.sim.master_seed}",
            f"# version={__version__}"]


def assert_cloud_file(out, scn, burn_in):
    """cloud_attack.npy is the attack cloud as (trials, steps, n), bit for bit, with
    steps = horizon - k* - burn_in + 1."""
    cloud = empirical_cloud(scn.model, scn.sim, scn.attack, source="attack", burn_in=burn_in)
    steps = scn.sim.horizon - scn.sim.attack_start - burn_in + 1
    got = np.load(out / "cloud_attack.npy")
    assert got.dtype == np.float64 and got.shape == (scn.sim.trials, steps, 2)
    assert got.tobytes() == cloud.points.reshape(scn.sim.trials, steps, 2).tobytes()


class TestCliOutputs:
    def test_bound_writes_eight_files(self, tmp_path, capsys):
        raw = base_raw()
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["bound", "--scenario", path, "--out", str(out), "--method", "both"]) == 0
        files = sorted(f.name for f in out.glob("bound_*.json"))
        assert len(files) == 8
        for method in ("geometric", "lmi"):
            for target in ("noise", "attack_error", "attack_state", "total_state"):
                assert f"bound_{method}_{target}.json" in files
        payload = json.loads((out / "bound_geometric_noise.json").read_text())
        import math
        Q = np.array(payload["Q"])
        assert payload["volume"] == pytest.approx(
            math.pi * math.sqrt(np.linalg.det(Q)), abs=1e-9
        )

    def test_montecarlo_deterministic_cloud(self, tmp_path, capsys):
        raw = base_raw()
        path = write_scenario(tmp_path, raw)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["montecarlo", "--scenario", path, "--out", str(out1),
                     "--cloud", "attack", "--burn-in", "10"]) == 0
        assert main(["montecarlo", "--scenario", path, "--out", str(out2),
                     "--cloud", "attack", "--burn-in", "10"]) == 0
        assert (out1 / "cloud_attack.npy").read_bytes() == (out2 / "cloud_attack.npy").read_bytes()
        report = json.loads((out1 / "containment.json").read_text())
        entries = {(b["method"], b["target"]) for b in report["bounds"]}
        assert ("geometric", "attack_state") in entries
        assert ("lmi", "attack_state") in entries

    @pytest.mark.parametrize("trials, cpus", cpu_cases(130))
    def test_cloud_npy_is_the_reshaped_cloud(self, tmp_path, capsys, usable_cpus, trials, cpus):
        # 130 trials are two chunks, so two CPUs fork; an attack from k* = 5 with
        # burn-in 3 keeps the steps from k = 8 on, horizon - 7 of them
        usable_cpus(cpus)
        for attack_start, burn_in in ((1, 10), (5, 3)):
            raw = base_raw()
            raw["sim"].update(attack_start=attack_start, trials=trials)
            path = write_scenario(tmp_path, raw, f"scn{attack_start}.json")
            out = tmp_path / f"out{attack_start}"
            assert main(["montecarlo", "--scenario", path, "--out", str(out),
                         "--cloud", "attack", "--burn-in", str(burn_in)]) == 0
            assert_cloud_file(out, load_scenario(path), burn_in)

    def test_heatmap_bytes_match_per_cell_oracle(self, tmp_path, capsys):
        raw = base_raw()
        raw["sim"]["attack_start"] = 5
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        scn = load_scenario(path)
        assert main(["heatmap", "--scenario", path, "--out", str(out),
                     "--res", "5", "--cell-trials", "2"]) == 0

        # each heatmap row is the fit of its cell's own cloud at the scenario's seed;
        # the cells attack from step 1 whatever sim.attack_start says
        lines = csv_meta(scn) + ["c1,w1,volume"]
        for c1, w1 in admissible_cells(scn.alpha, 5):
            vol = cell_cloud_volume(scn.model, scn.alpha, c1, w1, scn.sim.master_seed, trials=2,
                                    horizon=550, burn_in=50)
            lines.append(f"{c1:.17g},{w1:.17g},{vol:.17g}")
        assert (out / "heatmap.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_scenario_listing_csv_writes_the_cloud_array(self, tmp_path, capsys):
        # csv names no file of its own: the cloud array is written with or without it
        for formats in (["json", "csv", "svg"], []):
            raw = base_raw(output={"dir": "out", "formats": formats})
            path = write_scenario(tmp_path, raw)
            assert load_scenario(path).output_formats == tuple(formats)
            out = tmp_path / f"out{len(formats)}"
            assert main(["montecarlo", "--scenario", path, "--out", str(out),
                         "--cloud", "attack", "--burn-in", "10"]) == 0
            assert_cloud_file(out, load_scenario(path), 10)
            assert (out / "cloud_attack.svg").is_file() == bool(formats)

    def test_heatmap_outputs(self, tmp_path, capsys):
        raw = base_raw()
        del raw["attack"]
        del raw["sim"]["attack_start"]
        raw["output"]["formats"] = ["csv", "svg"]
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["heatmap", "--scenario", path, "--out", str(out),
                     "--res", "5", "--cell-trials", "2"]) == 0
        lines = [l for l in (out / "heatmap.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "c1,w1,volume"
        scn = parse_scenario(raw)
        assert len(lines) - 1 == len(admissible_cells(scn.alpha, 5))
        svg = (out / "heatmap.svg").read_text()
        assert svg.startswith("<!-- scenario_hash=")
        assert "<svg" in svg

    def test_seed_override_changes_hashless_outputs(self, tmp_path, capsys):
        raw = base_raw()
        path = write_scenario(tmp_path, raw)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["montecarlo", "--scenario", path, "--out", str(out1),
              "--cloud", "attack", "--burn-in", "10", "--seed", "1"])
        main(["montecarlo", "--scenario", path, "--out", str(out2),
              "--cloud", "attack", "--burn-in", "10", "--seed", "2"])
        assert (out1 / "cloud_attack.npy").read_bytes() != (out2 / "cloud_attack.npy").read_bytes()

    def test_svg_skipped_for_higher_dims(self, tmp_path, capsys):
        # 3-state stable chain with 2 sensors: plots are 2-D only
        F3 = (0.5 * np.eye(3)).tolist()
        raw = {
            "model": {
                "F": F3,
                "G": np.eye(3)[:, :1].tolist(),
                "C": np.eye(3)[:2].tolist(),
                "K": np.zeros((1, 3)).tolist(),
                "R1": np.eye(3).tolist(),
                "R2": np.eye(2).tolist(),
            },
            "detector": {"A": 0.05},
            "sim": {"horizon": 50, "master_seed": 1, "trials": 2},
            "output": {"dir": "out", "formats": ["json", "svg"]},
        }
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["bound", "--scenario", path, "--out", str(out), "--method", "geom"]) == 0
        captured = capsys.readouterr().out
        assert "skipped" in captured
        assert not (out / "bounds.svg").exists()

    def test_svg_skipped_when_every_bound_is_degenerate(self, tmp_path, capsys):
        # G = 0 and a noise covariance of rank one: every geometric bound is
        # flat, so no bound has an outline to draw; the JSON files stand
        raw = base_raw(output={"dir": "out", "formats": ["json", "svg"]})
        raw["model"].update(F=[[0.5, 0.0], [0.0, 0.3]], G=[[0.0], [0.0]], C=[[1.0, 0.0]],
                            K=[[0.1, 0.1]], R1=[[0.05, 0.0], [0.0, 0.0]], R2=[[1.0]])
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["bound", "--scenario", path, "--out", str(out), "--method", "geom"]) == 0
        assert "every bound is degenerate" in capsys.readouterr().out
        assert not (out / "bounds.svg").exists()
        volumes = [json.loads(f.read_text())["volume"] for f in sorted(out.glob("bound_*.json"))]
        assert volumes == [0.0] * 4

    def test_degenerate_fit_writes_a_null_ratio(self, tmp_path, capsys):
        # benchmark2d with G = 0: the attack cannot move x, so the attack cloud
        # is the origin, its fit has no volume, and the ratio to it is null
        raw = load_scenario("benchmark2d").raw
        raw["model"]["G"], raw["bounds"] = [[0.0, 0.0], [0.0, 0.0]], {"method": "geom"}
        out = tmp_path / "out"
        assert main(["montecarlo", "--scenario", write_scenario(tmp_path, raw), "--out", str(out),
                     "--cloud", "attack", "--trials", "4"]) == 0
        report = strict_json(out / "containment.json")
        assert report["fit_volume"] == 0.0
        assert [b["volume_ratio_vs_fit"] for b in report["bounds"]] == [None]


class TestVerifyCommand:
    def test_verify_passes_on_benchmark(self, tmp_path, capsys):
        raw = base_raw()
        raw["sim"]["trials"] = 2
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["verify", "--scenario", path, "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["all_pass"]
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "[FAIL]" not in stdout

    def test_threshold_round_trip_fails_off_the_quantile(self, tmp_path, monkeypatch, capsys):
        # the round trip reads the detector's false-alarm rate at alpha, so a
        # threshold that is not the (1 - A)-quantile fails it
        scenario = parse_scenario(base_raw())
        monkeypatch.setattr(cli, "load_scenario",
                            lambda _: dataclasses.replace(scenario, alpha=6.5))
        out = tmp_path / "out"
        assert main(["verify", "--scenario", "unused", "--out", str(out)]) == 4
        checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
        round_trip = checks["threshold tuning round-trip"]
        assert not round_trip["pass"]
        assert round_trip["detail"] == (
            f"|false-alarm rate at alpha - A| = {abs(math.exp(-3.25) - 0.05):.2e}")

    def test_threshold_round_trip_fails_a_millionth_off(self, tmp_path, monkeypatch, capsys):
        # the ulp floor of the tolerance does not hide a threshold 1e-6 relative off
        scenario = parse_scenario(base_raw())
        monkeypatch.setattr(cli, "load_scenario", lambda _: dataclasses.replace(
            scenario, alpha=scenario.alpha * (1.0 + 1e-6)))
        out = tmp_path / "out"
        assert main(["verify", "--scenario", "unused", "--out", str(out)]) == 4
        checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
        assert not checks["threshold tuning round-trip"]["pass"]
        assert sum(not c["pass"] for c in checks.values()) == 1

    @pytest.mark.parametrize("rate", [1e-8, 1e-12])
    def test_verify_passes_at_small_false_alarm_rate(self, tmp_path, capsys, rate):
        # 1 - chi2_cdf(alpha, p) is a difference from 1 with a rounding error of
        # about an ulp of 1, more than 1e-9 * A at these rates
        raw = base_raw(detector={"A": rate})
        del raw["attack"]
        out = tmp_path / "out"
        assert main(["verify", "--scenario", write_scenario(tmp_path, raw), "--out", str(out)]) == 0
        assert json.loads((out / "verify.json").read_text())["all_pass"]

    @pytest.mark.parametrize("rate, silenced, code", [
        (0.005, False, 0), (0.005, True, 4), (1e-8, True, 0),
    ])
    def test_alarm_rate_tolerance_scales_with_the_rate(self, tmp_path, monkeypatch, capsys, rate,
                                                       silenced, code):
        # the rate checks allow five binomial standard deviations of the 100,000
        # counted steps: no alarm at all is about 22 of them at A = 0.005, and
        # 0.5 at A = 1e-8
        raw = json.loads(json.dumps(load_scenario("benchmark2d").raw))
        raw["detector"], raw["attack"] = {"A": rate}, {"preset": "H.B"}
        if silenced:
            monkeypatch.setattr(cli, "alarm_counts", lambda model, runs, alpha: [
                (0, cfg.trials * cfg.horizon) for cfg, _ in runs])
        out = tmp_path / "out"
        path = write_scenario(tmp_path, raw)
        assert main(["verify", "--scenario", path, "--out", str(out)]) == code
        checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
        failed = {name for name, c in checks.items() if not c["pass"]}
        assert failed == ({"attack-free alarm rate", "hidden-attack rate match"} if code else set())
        if silenced:
            assert checks["attack-free alarm rate"]["detail"] == (
                f"0.0000 vs target {rate} (0 alarms in 100000 steps)")

    def test_verify_passes_on_4d_plant(self, tmp_path, capsys):
        model = plant_4d()
        mats = ("F", "G", "C", "K", "R1", "R2")
        raw = base_raw(model={k: getattr(model, k).tolist() for k in mats})
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["verify", "--scenario", path, "--out", str(out)]) == 0
        checks = {c["name"] for c in json.loads((out / "verify.json").read_text())["checks"]}
        for target in ("noise", "attack_error", "attack_state"):
            assert f"lmi certificate ({target})" in checks
        assert "lmi certificate (total_state)" not in checks
        for target in ("noise", "attack_error", "attack_state", "total_state"):
            assert f"volume ordering ({target})" in checks
        assert "total-state containment (geometric)" in checks
        assert "[FAIL]" not in capsys.readouterr().out

    @pytest.mark.parametrize("preset", [None, "H.B"])
    def test_verify_reports_simulated_alarm_rates(self, tmp_path, capsys, preset):
        # the rate checks give the rates of the runs simulated as one batch by
        # their parts, with the alarm counts behind them
        path, scenario = "benchmark2d", load_scenario("benchmark2d")
        if preset is not None:  # a hidden attack on the same loop
            raw = json.loads(json.dumps(scenario.raw))
            raw["attack"] = {"preset": preset}
            path, scenario = write_scenario(tmp_path, raw), parse_scenario(raw)
        out = tmp_path / "out"
        assert main(["verify", "--scenario", path, "--out", str(out)]) == 0
        details = {c["name"]: c["detail"]
                   for c in json.loads((out / "verify.json").read_text())["checks"]}
        seed, target = scenario.sim.master_seed, scenario.target_rate

        def count_alarms(cfg, spec=None):
            r = batch_parts(scenario.model, cfg, spec)[2]
            return int(np.sum(distance(r, scenario.model.SigmaInv) > scenario.alpha))

        free = count_alarms(SimConfig(horizon=1000, master_seed=seed, trials=100))
        assert details["attack-free alarm rate"] == (
            f"{free / 100_000:.4f} vs target {target} ({free} alarms in 100000 steps)")
        alarms = count_alarms(SimConfig(horizon=1000, attack_start=1, master_seed=seed + 1,
                                        trials=100), scenario.attack)
        rate = alarms / 100_000
        counts = f"({alarms} alarms in 100000 steps)"
        if preset is None:  # benchmark2d's zero-alarm attack
            assert details["zero-alarm stealth"] == f"attacked alarm rate {rate} {counts}"
        else:
            assert details["hidden-attack rate match"] == f"{rate:.4f} vs target {target} {counts}"


# The exit code of every library error, as the README's exit-code paragraph
# documents it.  A new error class needs an entry here and in the README.
DOCUMENTED_EXIT_CODES = {
    "SchemaError": 2, "UsageError": 2,
    "NoConvergence": 3, "Infeasible": 3, "AllInfeasible": 3, "MaxTermsExceeded": 3,
    "DomainError": 3,
    "DimensionMismatch": 4, "NonSymmetric": 4, "NotPSD": 4, "EmptyTermList": 4,
    "DegenerateCloud": 4, "UnstableF": 4, "UnstableClosedLoop": 4,
    "UnstableFilter": 4, "InvalidSpec": 4,
}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, StealthreachError) and cls is not StealthreachError]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_documented_code(monkeypatch, capsys, cls):
    assert cls.__name__ in DOCUMENTED_EXIT_CODES, f"{cls.__name__} has no documented exit code"
    exc = cls("scenario.x", "boom") if cls is SchemaError else cls("boom")

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_tune", raise_it)
    assert main(["tune", "--scenario", "benchmark2d"]) == DOCUMENTED_EXIT_CODES[cls.__name__]
    assert "boom" in capsys.readouterr().err


README_EXIT_CODES = (Path(__file__).parents[1] / "README.md").read_text().split("Exit codes:")[1]
README_EXIT_CODES = README_EXIT_CODES.split("\n\n")[0]


@pytest.mark.parametrize("cls", [StealthreachError] + ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_main_returns_the_exit_code_of_the_error(monkeypatch, capsys, cls):
    # errors.py holds the policy: main returns each class's exit_code, and
    # the README's exit-code paragraph names every class that does not exit 4
    exc = cls("scenario.x", "boom") if cls is SchemaError else cls("boom")

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_tune", raise_it)
    assert main(["tune", "--scenario", "benchmark2d"]) == cls.exit_code
    assert "boom" in capsys.readouterr().err
    assert cls.exit_code in (2, 3, 4)
    if cls.exit_code != 4:
        assert f"`{cls.__name__}`" in README_EXIT_CODES


class TestRankDeficientCovariance:
    """R1 = diag(0.045, 0): the noise drives one state only, and F couples it
    into the other, so every bound is bounded."""

    @pytest.fixture(scope="class")
    def scenario_path(self, tmp_path_factory):
        raw = json.loads(json.dumps(load_scenario("benchmark2d").raw))
        raw["model"]["R1"] = [[0.045, 0.0], [0.0, 0.0]]
        raw["sim"]["trials"] = 20
        return write_scenario(tmp_path_factory.mktemp("rank_deficient"), raw)

    @pytest.mark.parametrize("argv", [
        ["bound", "--method", "lmi"], ["heatmap", "--res", "4", "--cell-trials", "4"], ["verify"],
    ], ids=lambda argv: argv[0])
    def test_command_exits_0(self, tmp_path, capsys, scenario_path, argv):
        assert main([argv[0], "--scenario", scenario_path, "--out", str(tmp_path), *argv[1:]]) == 0

    def test_noise_cloud_inside_both_noise_bounds(self, tmp_path, capsys, scenario_path):
        assert main(["montecarlo", "--scenario", scenario_path, "--out", str(tmp_path),
                     "--cloud", "noise"]) == 0
        report = json.loads((tmp_path / "containment.json").read_text())
        assert sorted(b["method"] for b in report["bounds"]) == ["geometric", "lmi"]
        for bound in report["bounds"]:
            assert bound["target"] == "noise"
            assert bound["max_membership"] <= 1.0


class TestInvalidCovariance:
    """build_model checks R1 and R2 as ellipsoid shapes, so an asymmetric or
    indefinite covariance exits 4 from every command, before any series,
    LMI or Riccati iteration reads it."""

    @pytest.mark.parametrize("argv", [["tune"], ["bound", "--method", "geom"],
                                      ["bound", "--method", "lmi"]], ids=" ".join)
    @pytest.mark.parametrize("name", ["R1", "R2"])
    @pytest.mark.parametrize("fault, error", [("asymmetric", "NonSymmetric"),
                                              ("indefinite", "NotPSD")])
    def test_exits_4(self, tmp_path, capsys, argv, name, fault, error):
        raw = json.loads(json.dumps(load_scenario("benchmark2d").raw))
        M = raw["model"][name]
        if fault == "asymmetric":
            M[0][1] += 0.01
        else:
            M[0][0] = -M[0][0]
        path = write_scenario(tmp_path, raw)
        assert main([argv[0], "--scenario", path, "--out", str(tmp_path / "out"), *argv[1:]]) == 4
        assert f"{error}: {name}:" in capsys.readouterr().err


def test_commands_that_draw_nothing_leave_numpy_random_unloaded(tmp_path):
    # numpy.random, and with it secrets and hmac, loads on the first draw; hashlib
    # loads then or on the first output write (the scenario hash), whichever comes first
    code = ("import sys; sys.path[:0] = sys.argv[1:2]; import stealthreach; "
            "from stealthreach.cli import main; stealthreach.load_scenario('benchmark2d'); "
            "common = ['--scenario', 'benchmark2d', '--out', sys.argv[2]]; "
            "assert main(['bound', '--method', 'both', *common]) == 0; "
            "assert main(['tune', *common]) == 0; "
            "assert 'numpy.random' not in sys.modules")
    subprocess.run([sys.executable, "-c", code, str(Path(cli.__file__).parents[1]), str(tmp_path)],
                   check=True, capture_output=True)
