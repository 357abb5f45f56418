"""Scenario files: strict-schema JSON describing model, detector, attack, run.

Unknown keys are rejected with the offending path named, so typos fail
loudly instead of silently running defaults.  Attack parameters may be
written in terms of the threshold ("alpha", "2*alpha", "alpha/8"); they
resolve after detector tuning, since the threshold depends on the
false-alarm rate and sensor count.
"""

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .attacks import HIDDEN, UNIFORM_SPHERE, ZERO_ALARM, AttackSpec, _resolve_alpha_token, named_spec
from .detector import chi2_quantile
from .errors import SchemaError
from .plant import PlantModel, SimConfig, build_model
from .reach_geom import GeomSumConfig

_MODEL_KEYS = {"F", "G", "C", "K", "R1", "R2", "L"}
_MODEL_REQUIRED = {"F", "G", "C", "K", "R1", "R2"}
_DETECTOR_KEYS = {"A", "alpha"}
_ATTACK_KEYS = {"preset", "kind", "c1", "w1", "c2", "w2", "A", "direction_mode"}
_SIM_KEYS = {"horizon", "attack_start", "master_seed", "trials", "initial_state", "truncate_noise"}
_SIM_REQUIRED = {"horizon", "master_seed", "trials"}
_BOUNDS_KEYS = {"method", "geom", "lmi"}
_GEOM_KEYS = {"tail_tol", "max_terms"}
_LMI_KEYS = {"grid_step"}
_OUTPUT_KEYS = {"dir", "formats"}
_TOP_KEYS = {"model", "detector", "attack", "sim", "bounds", "output"}


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")


def _check_keys(obj, allowed, required, path):
    _require_mapping(obj, path)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required key")


def _matrix(obj, path):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, f"not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise SchemaError(path, f"expected a nested array (matrix), got ndim={arr.ndim}")
    return arr


def _scalar(obj, path, kind=float):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(obj).__name__}")
    return kind(obj)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario: model built, threshold tuned, attack bound."""

    raw: dict = field(repr=False)
    model: PlantModel = field(repr=False)
    target_rate: float
    alpha: float
    vbar: float
    attack: AttackSpec | None
    sim: SimConfig
    bounds_method: str
    geom_config: GeomSumConfig
    lmi_grid_step: float
    output_dir: str
    output_formats: tuple

    @property
    def hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_attack(block, alpha, default_rate, path) -> AttackSpec:
    _check_keys(block, _ATTACK_KEYS, set(), path)
    rate = block.get("A", default_rate)
    direction = block.get("direction_mode", UNIFORM_SPHERE)
    if isinstance(direction, list):
        direction = tuple(float(v) for v in direction)
    if "preset" in block:
        extra = set(block) - {"preset", "A", "direction_mode"}
        if extra:
            raise SchemaError(f"{path}.{sorted(extra)[0]}", "preset excludes explicit mixture keys")
        return named_spec(block["preset"], alpha, rate_above=rate, direction_mode=direction)
    for key in ("kind", "c1"):
        if key not in block:
            raise SchemaError(f"{path}.{key}", "missing required key")
    kind = block["kind"]
    if kind not in (ZERO_ALARM, HIDDEN):
        raise SchemaError(f"{path}.kind", f"must be '{ZERO_ALARM}' or '{HIDDEN}'")
    resolve = lambda key, default=None: (
        _resolve_alpha_token(block[key], alpha) if key in block else default
    )
    return AttackSpec(
        kind=kind,
        alpha=alpha,
        c1=resolve("c1"),
        w1=resolve("w1", 0.0),
        c2=resolve("c2"),
        w2=resolve("w2"),
        rate_above=rate if kind == HIDDEN else None,
        direction_mode=direction,
    )


def parse_scenario(raw: dict) -> Scenario:
    _check_keys(raw, _TOP_KEYS, {"model", "detector", "sim"}, "scenario")

    mblock = raw["model"]
    _check_keys(mblock, _MODEL_KEYS, _MODEL_REQUIRED, "scenario.model")
    mats = {k: _matrix(mblock[k], f"scenario.model.{k}") for k in mblock}
    model = build_model(
        mats["F"], mats["G"], mats["C"], mats["K"], mats["R1"], mats["R2"],
        L=mats.get("L"),
    )

    dblock = raw["detector"]
    _check_keys(dblock, _DETECTOR_KEYS, {"A"}, "scenario.detector")
    rate = _scalar(dblock["A"], "scenario.detector.A")
    if not 0.0 < rate < 1.0:
        raise SchemaError("scenario.detector.A", f"must be in (0,1), got {rate}")
    alpha = (_scalar(dblock["alpha"], "scenario.detector.alpha")
             if "alpha" in dblock else chi2_quantile(1.0 - rate, model.p))
    vbar = chi2_quantile(1.0 - rate, model.n)

    sblock = raw["sim"]
    _check_keys(sblock, _SIM_KEYS, _SIM_REQUIRED, "scenario.sim")
    attack_start = sblock.get("attack_start")
    if attack_start is not None:
        attack_start = _scalar(attack_start, "scenario.sim.attack_start", int)
    initial_state = sblock.get("initial_state")
    if initial_state is not None:
        initial_state = np.asarray(initial_state, dtype=float)
    truncate = sblock.get("truncate_noise", False)
    if not isinstance(truncate, bool):
        raise SchemaError("scenario.sim.truncate_noise", "expected true/false")
    sim = SimConfig(
        horizon=_scalar(sblock["horizon"], "scenario.sim.horizon", int),
        attack_start=attack_start,
        master_seed=_scalar(sblock["master_seed"], "scenario.sim.master_seed", int),
        trials=_scalar(sblock["trials"], "scenario.sim.trials", int),
        initial_state=initial_state,
        truncate_noise=truncate,
        vbar=vbar if truncate else None,
    )

    attack = None
    if "attack" in raw:
        attack = _parse_attack(raw["attack"], alpha, rate, "scenario.attack")
        if sim.attack_start is None:
            raise SchemaError("scenario.sim.attack_start",
                              "required when an attack block is present")

    bblock = raw.get("bounds", {})
    _check_keys(bblock, _BOUNDS_KEYS, set(), "scenario.bounds")
    method = bblock.get("method", "both")
    if method not in ("lmi", "geom", "both"):
        raise SchemaError("scenario.bounds.method", "must be 'lmi', 'geom', or 'both'")
    gblock = bblock.get("geom", {})
    _check_keys(gblock, _GEOM_KEYS, set(), "scenario.bounds.geom")
    tail_tol = _scalar(gblock.get("tail_tol", 1e-12), "scenario.bounds.geom.tail_tol")
    if not 0.0 < tail_tol < 1.0:
        raise SchemaError("scenario.bounds.geom.tail_tol", f"must be in (0,1), got {tail_tol}")
    max_terms = _scalar(gblock.get("max_terms", 500), "scenario.bounds.geom.max_terms", int)
    if max_terms < 1:
        raise SchemaError("scenario.bounds.geom.max_terms", f"must be >= 1, got {max_terms}")
    geom_cfg = GeomSumConfig(tail_tol=tail_tol, max_terms=max_terms)
    lblock = bblock.get("lmi", {})
    _check_keys(lblock, _LMI_KEYS, set(), "scenario.bounds.lmi")
    grid_step = _scalar(lblock.get("grid_step", 0.02), "scenario.bounds.lmi.grid_step")
    if not 0.0 < grid_step < 1.0:
        raise SchemaError("scenario.bounds.lmi.grid_step", f"must be in (0,1), got {grid_step}")

    oblock = raw.get("output", {})
    _check_keys(oblock, _OUTPUT_KEYS, set(), "scenario.output")
    out_dir = oblock.get("dir", "out")
    formats = tuple(oblock.get("formats", ["json", "csv", "svg"]))
    for fmt in formats:
        if fmt not in ("json", "csv", "svg"):
            raise SchemaError("scenario.output.formats", f"unknown format {fmt!r}")

    return Scenario(
        raw=raw, model=model, target_rate=rate, alpha=alpha, vbar=vbar,
        attack=attack, sim=sim, bounds_method=method, geom_config=geom_cfg,
        lmi_grid_step=grid_step, output_dir=out_dir, output_formats=formats,
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario file, or a bundled one by bare name (e.g. 'benchmark2d')."""
    text = None
    if "/" not in str(path_or_name) and not str(path_or_name).endswith(".json"):
        ref = resources.files("stealthreach").joinpath(f"scenarios/{path_or_name}.json")
        if ref.is_file():
            text = ref.read_text()
    if text is None:
        with open(path_or_name) as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("scenario", f"invalid JSON: {exc}") from None
    return parse_scenario(raw)
