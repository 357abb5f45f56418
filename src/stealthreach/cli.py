"""Command-line pipeline: tune -> bound -> montecarlo / heatmap -> verify.

Exit codes: 0 success, 2 scenario schema error or out-of-range argument,
3 numeric failure (no convergence / infeasible), 4 model or invariant
violation.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import ZERO_ALARM
from .csvout import write_csv
from .detector import chi2_quantile
from .errors import (
    AllInfeasible,
    DomainError,
    Infeasible,
    MaxTermsExceeded,
    NoConvergence,
    SchemaError,
    StealthreachError,
    UsageError,
)
from .montecarlo import (
    SOURCE_ATTACK,
    SOURCE_NOISE,
    SOURCE_TOTAL,
    containment_report,
    empirical_cloud,
    volume_heatmap,
)
from .plant import SimConfig, simulate
from .reach_geom import reach_bounds_geom
from .reach_lmi import LMI_CERT_TOL, reach_bounds_lmi
from .scenario import Scenario, load_scenario
from .svgplot import render_bounds_svg, render_heatmap_svg

_NUMERIC_ERRORS = (NoConvergence, Infeasible, AllInfeasible, MaxTermsExceeded, DomainError)


def _meta(scenario: Scenario) -> dict:
    return {
        "scenario_hash": scenario.hash,
        "master_seed": scenario.sim.master_seed,
        "version": __version__,
    }


def _write_json(path: Path, payload: dict, scenario: Scenario) -> None:
    payload = dict(payload)
    payload["meta"] = _meta(scenario)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _write_text(path: Path, text: str, scenario: Scenario | None = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if scenario is not None:
            pairs = " ".join(f"{k}={v}" for k, v in _meta(scenario).items())
            fh.write(f"<!-- {pairs} -->\n")
        fh.write(text)
    print(f"wrote {path}")


def _check_arg(flag: str, value: int, lo: int, hi: int | None = None) -> None:
    if value < lo or (hi is not None and value > hi):
        allowed = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise UsageError(f"{flag} must be {allowed}, got {value}")


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        _check_arg("--trials", args.trials, 1)
        overrides["trials"] = args.trials
    if overrides:
        scenario = dataclasses.replace(
            scenario, sim=dataclasses.replace(scenario.sim, **overrides)
        )
    if getattr(args, "out", None):
        scenario = dataclasses.replace(scenario, output_dir=args.out)
    return scenario


def _compute_bounds(scenario: Scenario, method: str):
    model = scenario.model
    out = {}
    if method in ("geom", "both"):
        noise, att_err, att_state, total = reach_bounds_geom(
            model, scenario.alpha, scenario.vbar, scenario.geom_config
        )
        out["geometric"] = [noise, att_err, att_state, total]
    if method in ("lmi", "both"):
        noise, att_err, att_state, total = reach_bounds_lmi(
            model, scenario.alpha, scenario.vbar, grid_step=scenario.lmi_grid_step
        )
        out["lmi"] = [noise, att_err, att_state, total]
    return out


def cmd_tune(args) -> int:
    scenario = _load(args)
    payload = {
        "alpha": scenario.alpha,
        "vbar": scenario.vbar,
        "p": scenario.model.p,
        "n": scenario.model.n,
        "A": scenario.target_rate,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    _write_json(Path(scenario.output_dir) / "tuning.json", payload, scenario)
    return 0


def cmd_bound(args) -> int:
    scenario = _load(args)
    method = args.method or scenario.bounds_method
    bounds = _compute_bounds(scenario, method)
    out_dir = Path(scenario.output_dir)
    rendered = []
    for method_name, blist in bounds.items():
        for bound in blist:
            name = f"bound_{method_name}_{bound.target}.json"
            _write_json(out_dir / name, bound.to_dict(), scenario)
            rendered.append(bound)
    if "svg" in scenario.output_formats:
        if scenario.model.n == 2:
            _write_text(out_dir / "bounds.svg", render_bounds_svg(rendered), scenario)
        else:
            print("notice: SVG output skipped (plots are 2-D only)")
    return 0


def cmd_montecarlo(args) -> int:
    scenario = _load(args)
    source = args.cloud
    spec = scenario.attack
    if spec is None and source in (SOURCE_ATTACK, SOURCE_TOTAL):
        raise SchemaError("scenario.attack", f"cloud source '{source}' needs an attack block")
    cfg = scenario.sim
    if spec is not None and cfg.attack_start is None:
        cfg = dataclasses.replace(cfg, attack_start=1)
    kstar = cfg.attack_start or 1
    _check_arg("--burn-in", args.burn_in, 0, cfg.horizon - kstar)
    cloud = empirical_cloud(scenario.model, cfg, spec, source=source,
                            burn_in=args.burn_in, alpha=scenario.alpha)

    out_dir = Path(scenario.output_dir)
    bounds = []
    for blist in _compute_bounds(scenario, scenario.bounds_method).values():
        for bound in blist:
            if (source, bound.target) in (
                (SOURCE_NOISE, "noise"),
                (SOURCE_ATTACK, "attack_state"),
                (SOURCE_TOTAL, "total_state"),
            ):
                bounds.append(bound)
    report = containment_report(cloud, bounds)
    report["cloud"] = {
        "source": source,
        "trials": cloud.trials,
        "horizon": cloud.horizon,
        "burn_in": cloud.burn_in,
        "alarm_free_trials": int(cloud.trial_alarm_free.sum()),
    }
    _write_json(out_dir / "containment.json", report, scenario)

    if "csv" in scenario.output_formats:
        csv_path = out_dir / f"cloud_{source}.csv"
        steps = len(cloud) // cloud.trials
        first_k = kstar + cloud.burn_in
        rows = np.column_stack([cloud.trial_index, first_k + np.arange(len(cloud)) % steps,
                                cloud.points])
        write_csv(csv_path, _meta(scenario), ["trial", "k"] + [f"x{i+1}" for i in range(cloud.dim)],
                  rows, ["%d", "%d"] + ["%.17g"] * cloud.dim)
        print(f"wrote {csv_path}")

    if "svg" in scenario.output_formats:
        if scenario.model.n == 2:
            _write_text(out_dir / f"cloud_{source}.svg",
                        render_bounds_svg(bounds, cloud.points), scenario)
        else:
            print("notice: SVG output skipped (plots are 2-D only)")
    return 0


def cmd_heatmap(args) -> int:
    _check_arg("--res", args.res, 4)
    _check_arg("--cell-trials", args.cell_trials, 1)
    scenario = _load(args)
    result = volume_heatmap(
        scenario.model, scenario.alpha, grid_res=args.res,
        trials=args.cell_trials, master_seed=scenario.sim.master_seed,
    )
    out_dir = Path(scenario.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "heatmap.csv"
    write_csv(csv_path, _meta(scenario), ["c1", "w1", "volume"], np.array(result.grid), "%.17g")
    print(f"wrote {csv_path}")
    if "svg" in scenario.output_formats:
        _write_text(out_dir / "heatmap.svg", render_heatmap_svg(result), scenario)
    c1, w1, vol = result.argmax_cell()
    print(f"max volume {vol:.6g} at c1={c1:.6g} w1={w1:.6g}")
    return 0


def cmd_verify(args) -> int:
    scenario = _load(args)
    model = scenario.model
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    residual = abs(chi2_quantile(1.0 - scenario.target_rate, model.p) - scenario.alpha)
    check("threshold tuning round-trip", residual <= 1e-6 * max(scenario.alpha, 1.0),
          f"|alpha - quantile| = {residual:.2e}")
    riccati, p_max = model.diagnostics["riccati_residual"], float(np.max(np.abs(model.P)))
    check("riccati fixed point", riccati <= 1e-10 * p_max,
          f"residual {riccati:.2e} vs max|P| {p_max:.2e}")

    steps = 100_000
    trials = max(1, steps // 1000)
    cfg_free = SimConfig(horizon=1000, master_seed=scenario.sim.master_seed, trials=trials)
    trace = simulate(model, cfg_free, alpha=scenario.alpha)
    rate = trace.alarm_rate()
    check("attack-free alarm rate", abs(rate - scenario.target_rate) <= 0.01,
          f"{rate:.4f} vs target {scenario.target_rate}")

    if scenario.attack is not None:
        cfg_att = SimConfig(horizon=1000, attack_start=1,
                            master_seed=scenario.sim.master_seed + 1, trials=trials)
        trace = simulate(model, cfg_att, attack=scenario.attack, alpha=scenario.alpha)
        att_rate = trace.alarm_rate(attacked_only=True)
        if scenario.attack.kind == ZERO_ALARM:
            check("zero-alarm stealth", att_rate == 0.0, f"attacked alarm rate {att_rate}")
        else:
            check("hidden-attack rate match", abs(att_rate - scenario.target_rate) <= 0.01,
                  f"{att_rate:.4f} vs target {scenario.target_rate}")

    bounds = _compute_bounds(scenario, "both")
    for bound in bounds["lmi"][:3]:
        ok = bound.diagnostics.get("lmi_min_eig", -1.0) >= -LMI_CERT_TOL
        check(f"lmi certificate ({bound.target})", ok,
              f"min eig {bound.diagnostics.get('lmi_min_eig'):.2e}")
    for geom, lmi in zip(bounds["geometric"][:3], bounds["lmi"][:3]):
        check(f"volume ordering ({geom.target})", lmi.volume >= geom.volume,
              f"lmi {lmi.volume:.6g} >= geom {geom.volume:.6g}")

    spec = scenario.attack
    if spec is not None and spec.kind == ZERO_ALARM:
        cfg_cloud = SimConfig(horizon=150, attack_start=1,
                              master_seed=scenario.sim.master_seed + 2,
                              trials=100, truncate_noise=True, vbar=scenario.vbar)
        cloud = empirical_cloud(model, cfg_cloud, spec, source=SOURCE_TOTAL,
                                burn_in=50, alpha=scenario.alpha)
        total_geom = bounds["geometric"][3]
        memb = np.atleast_1d(total_geom.shape.membership(cloud.points))
        check("total-state containment (geometric)", float(memb.max()) <= 1.0 + 1e-6,
              f"worst membership {memb.max():.4f} over {len(cloud)} points")

    payload = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    _write_json(Path(scenario.output_dir) / "verify.json", payload, scenario)
    return 0 if payload["all_pass"] else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthreach",
        description="Simulate stealthy sensor attacks on stochastic LTI loops "
                    "and compute outer ellipsoid bounds on the reachable states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path, or a bundled name like 'benchmark2d'")
        p.add_argument("--out", help="output directory (overrides scenario)")
        p.add_argument("--seed", type=int, help="master seed override")

    p = sub.add_parser("tune", help="compute detector threshold and noise truncation level")
    common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("bound", help="compute reachable-set bounds")
    common(p)
    p.add_argument("--method", choices=["lmi", "geom", "both"],
                   help="bounding method (overrides scenario)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("montecarlo", help="sample empirical clouds and score containment")
    common(p)
    p.add_argument("--cloud", choices=[SOURCE_NOISE, SOURCE_ATTACK, SOURCE_TOTAL],
                   default=SOURCE_ATTACK)
    p.add_argument("--trials", type=int, help="trial count override")
    p.add_argument("--burn-in", type=int, default=50, dest="burn_in")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("heatmap", help="fitted cloud volume over the (c1, w1) triangle")
    common(p)
    p.add_argument("--res", type=int, default=16)
    p.add_argument("--cell-trials", type=int, default=20, dest="cell_trials")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("verify", help="run scenario-level verification checks")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except StealthreachError as exc:
        print(f"invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
