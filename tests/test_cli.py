import json

import numpy as np
import pytest

from stealthreach import __version__, empirical_cloud, load_scenario, parse_scenario, volume_heatmap
from stealthreach.cli import main
from stealthreach.errors import SchemaError

from conftest import C, F, G, K, R1, R2, plant_4d


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
        # rho(F)^2 = 0.998 makes every grid point infeasible
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
        assert f"scenario.bounds.{block}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("heatmap", "--res", "3"), ("heatmap", "--cell-trials", "0"),
        ("montecarlo", "--trials", "0"), ("montecarlo", "--burn-in", "-1"),
        ("montecarlo", "--burn-in", "80"),  # the horizon: no step left
    ])
    def test_out_of_range_argument_exit_2(self, tmp_path, capsys, command, flag, value):
        path = write_scenario(tmp_path, base_raw())
        assert main([command, "--scenario", path, "--out", str(tmp_path / "out"), flag, value]) == 2
        assert flag in capsys.readouterr().err


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

    def test_montecarlo_deterministic_csv(self, tmp_path, capsys):
        raw = base_raw()
        path = write_scenario(tmp_path, raw)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["montecarlo", "--scenario", path, "--out", str(out1),
                     "--cloud", "attack", "--burn-in", "10"]) == 0
        assert main(["montecarlo", "--scenario", path, "--out", str(out2),
                     "--cloud", "attack", "--burn-in", "10"]) == 0
        assert (out1 / "cloud_attack.csv").read_bytes() == (out2 / "cloud_attack.csv").read_bytes()
        report = json.loads((out1 / "containment.json").read_text())
        entries = {(b["method"], b["target"]) for b in report["bounds"]}
        assert ("geometric", "attack_state") in entries
        assert ("lmi", "attack_state") in entries

    def test_csv_bytes_match_per_row_oracle(self, tmp_path, capsys):
        raw = base_raw()
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["montecarlo", "--scenario", path, "--out", str(out),
                     "--cloud", "attack", "--burn-in", "10"]) == 0
        assert main(["heatmap", "--scenario", path, "--out", str(out),
                     "--res", "5", "--cell-trials", "2"]) == 0
        scn = load_scenario(path)
        meta = [f"# scenario_hash={scn.hash}", f"# master_seed={scn.sim.master_seed}",
                f"# version={__version__}"]

        cloud = empirical_cloud(scn.model, scn.sim, scn.attack, source="attack",
                                burn_in=10, alpha=scn.alpha)
        steps = len(cloud) // cloud.trials
        lines = meta + ["trial,k,x1,x2"]
        for idx, pt in enumerate(cloud.points):
            k = scn.sim.attack_start + cloud.burn_in + idx % steps
            lines.append(f"{cloud.trial_index[idx]},{k}," + ",".join(f"{v:.17g}" for v in pt))
        assert (out / "cloud_attack.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

        result = volume_heatmap(scn.model, scn.alpha, grid_res=5, trials=2,
                                master_seed=scn.sim.master_seed)
        lines = meta + ["c1,w1,volume"]
        lines += [f"{c1:.17g},{w1:.17g},{vol:.17g}" for c1, w1, vol in result.grid]
        assert (out / "heatmap.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

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
        from stealthreach.montecarlo import admissible_cells
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
        assert (out1 / "cloud_attack.csv").read_text() != (out2 / "cloud_attack.csv").read_text()

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
            assert f"volume ordering ({target})" in checks
        assert "total-state containment (geometric)" in checks
        assert "[FAIL]" not in capsys.readouterr().out
