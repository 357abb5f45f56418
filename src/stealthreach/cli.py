"""Command-line pipeline: tune -> bound -> montecarlo / heatmap -> verify.

Exit codes: 0 success, otherwise the exit_code of the library error
(errors.py): 2 scenario or argument error, 3 numeric failure, 4 model or
invariant violation.
"""

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import ZERO_ALARM
from .detector import chi2_cdf
from .errors import SchemaError, StealthreachError, UsageError
from .montecarlo import (
    SOURCE_ATTACK,
    SOURCE_NOISE,
    SOURCE_TARGET,
    SOURCE_TOTAL,
    alarm_counts,
    containment_report,
    empirical_cloud,
    volume_heatmap,
)
from .plant import SimConfig
from .reach_geom import TARGET_TOTAL_STATE, reach_bounds_geom
from .reach_lmi import LMI_CERT_TOL, reach_bounds_lmi
from .scenario import Scenario, load_scenario
from .svgplot import render_bounds_svg, render_heatmap_svg


def _meta(scenario: Scenario) -> dict:
    return {
        "scenario_hash": scenario.hash,
        "master_seed": scenario.sim.master_seed,
        "version": __version__,
    }


@contextmanager
def _output(path: Path, mode: str = "w"):
    """The output file opened for writing; an OS refusal is an argument error (exit 2)."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    print(f"wrote {path}")


def _write_json(path: Path, payload: dict, scenario: Scenario) -> None:
    payload = dict(payload)
    payload["meta"] = _meta(scenario)
    with _output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: Path, text: str, scenario: Scenario) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in _meta(scenario).items())
    with _output(path) as fh:
        fh.write(f"<!-- {pairs} -->\n")
        fh.write(text)


def _check_arg(flag: str, value: int, lo: int, hi: int | None = None) -> None:
    if value < lo or (hi is not None and value > hi):
        allowed = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise UsageError(f"{flag} must be {allowed}, got {value}")


def _load(args) -> Scenario:
    """The scenario with the command-line overrides, and its output directory
    created, so that an unusable one fails before any computation."""
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
    try:
        Path(scenario.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create the output directory {scenario.output_dir}: "
                         f"{exc.strerror}") from None
    return scenario


def _compute_bounds(scenario: Scenario, method: str):
    model = scenario.model
    out = {}
    if method in ("geom", "both"):
        out["geometric"] = list(reach_bounds_geom(model, scenario.alpha, scenario.vbar))
    if method in ("lmi", "both"):
        out["lmi"] = list(reach_bounds_lmi(model, scenario.alpha, scenario.vbar))
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
        if scenario.model.n != 2:
            print("notice: SVG output skipped (plots are 2-D only)")
        elif all(bound.shape.is_degenerate() for bound in rendered):
            print("notice: SVG output skipped (every bound is degenerate, so none has an outline)")
        else:
            _write_text(out_dir / "bounds.svg", render_bounds_svg(rendered), scenario)
    return 0


def cmd_montecarlo(args) -> int:
    scenario = _load(args)
    source = args.cloud
    spec = scenario.attack
    if spec is None and source in (SOURCE_ATTACK, SOURCE_TOTAL):
        raise SchemaError("scenario.attack", f"cloud source '{source}' needs an attack block")
    cfg = scenario.sim
    _check_arg("--burn-in", args.burn_in, 0, cfg.horizon - cfg.attack_start)
    cloud = empirical_cloud(scenario.model, cfg, spec, source=source, burn_in=args.burn_in)

    out_dir = Path(scenario.output_dir)
    bounds = [bound for blist in _compute_bounds(scenario, scenario.bounds_method).values()
              for bound in blist if bound.target == SOURCE_TARGET[source]]
    report = containment_report(cloud, bounds)
    report["cloud"] = {
        "source": source,
        "trials": cloud.trials,
        "horizon": cloud.horizon,
        "burn_in": cloud.burn_in,
        "alarm_free_trials": int(cloud.trial_alarm_free.sum()),
    }
    _write_json(out_dir / "containment.json", report, scenario)

    # a[t, j] is trial t at step k = horizon - steps + 1 + j
    with _output(out_dir / f"cloud_{source}.npy", "wb") as fh:
        np.save(fh, cloud.points.reshape(cloud.trials, -1, cloud.dim))

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
    header = "\n".join([f"# {k}={v}" for k, v in _meta(scenario).items()] + ["c1,w1,volume"])
    with _output(out_dir / "heatmap.csv") as fh:
        np.savetxt(fh, result.grid, fmt="%.17g", delimiter=",", header=header, comments="")
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

    seed, target = scenario.sim.master_seed, scenario.target_rate
    residual = abs(1.0 - chi2_cdf(scenario.alpha, model.p) - target)
    # 1 - chi2_cdf is a difference from 1: its rounding error is about an ulp of 1
    check("threshold tuning round-trip", residual <= 1e-9 * target + np.spacing(1.0),
          f"|false-alarm rate at alpha - A| = {residual:.2e}")
    riccati, p_max = model.diagnostics["riccati_residual"], float(np.max(np.abs(model.P)))
    check("riccati fixed point", riccati <= 1e-10 * p_max,
          f"residual {riccati:.2e} vs max|P| {p_max:.2e}")

    runs = [(SimConfig(horizon=1000, master_seed=seed, trials=100), None)]
    if scenario.attack is not None:
        runs.append((SimConfig(horizon=1000, master_seed=seed + 1, trials=100), scenario.attack))
    # a rate passes within five standard deviations of a binomial count at rate A
    (rate, tol, counts), *attacked = [
        (alarms / steps, 5.0 * np.sqrt(target * (1.0 - target) / steps),
         f"({alarms} alarms in {steps} steps)")
        for alarms, steps in alarm_counts(model, runs, scenario.alpha)]
    check("attack-free alarm rate", abs(rate - target) <= tol,
          f"{rate:.4f} vs target {target} {counts}")
    for rate, tol, counts in attacked:
        if scenario.attack.kind == ZERO_ALARM:
            check("zero-alarm stealth", rate == 0.0, f"attacked alarm rate {rate} {counts}")
        else:
            check("hidden-attack rate match", abs(rate - target) <= tol,
                  f"{rate:.4f} vs target {target} {counts}")

    bounds = _compute_bounds(scenario, "both")
    by_target = {name: {bound.target: bound for bound in blist} for name, blist in bounds.items()}
    # the total-state bound is the fitted sum of two others and has no certificate of its own
    for bound in (b for b in bounds["lmi"] if b.target != TARGET_TOTAL_STATE):
        ok = bound.diagnostics.get("lmi_min_eig", -1.0) >= -LMI_CERT_TOL
        check(f"lmi certificate ({bound.target})", ok,
              f"min eig {bound.diagnostics.get('lmi_min_eig'):.2e}")
    for geom in bounds["geometric"]:
        lmi = by_target["lmi"][geom.target]
        check(f"volume ordering ({geom.target})", lmi.volume >= geom.volume,
              f"lmi {lmi.volume:.6g} >= geom {geom.volume:.6g}")

    spec = scenario.attack
    if spec is not None and spec.kind == ZERO_ALARM:
        cfg_cloud = SimConfig(horizon=150, master_seed=seed + 2, trials=100, vbar=scenario.vbar)
        cloud = empirical_cloud(model, cfg_cloud, spec, source=SOURCE_TOTAL, burn_in=50)
        total_geom = by_target["geometric"][TARGET_TOTAL_STATE]
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
    except StealthreachError as exc:
        if isinstance(exc, (SchemaError, UsageError)):
            kind = "schema" if isinstance(exc, SchemaError) else "argument"
            print(f"{kind} error: {exc}", file=sys.stderr)
        else:
            kind = "numeric failure" if exc.exit_code == 3 else "invariant violation"
            print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
