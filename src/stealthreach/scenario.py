"""Scenario files: strict-schema JSON describing model, detector, attack, run.

Unknown keys are rejected with the offending path named, so typos fail
loudly instead of silently running defaults.  The detector takes the
false-alarm rate A alone: the threshold alpha and the noise truncation level
vbar are its chi-square quantiles, and a hidden attack's mass above alpha is
A.  Attack parameters may be written in terms of the threshold ("alpha",
"2*alpha", "alpha/8"); they resolve after detector tuning.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .attacks import AttackSpec, attack_spec, named_spec
from .detector import chi2_quantile
from .errors import DimensionMismatch, DomainError, InvalidSpec, SchemaError
from .plant import PlantModel, SimConfig, build_model

_MODEL_KEYS = {"F", "G", "C", "K", "R1", "R2"}
_DETECTOR_KEYS = {"A"}
_ATTACK_KEYS = {"preset", "kind", "c1", "w1", "c2", "w2"}
_SIM_KEYS = {"horizon", "attack_start", "master_seed", "trials", "truncate_noise"}
_SIM_REQUIRED = {"horizon", "master_seed", "trials"}
_BOUNDS_KEYS = {"method"}
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
    if not np.all(np.isfinite(arr)):
        raise SchemaError(path, "expected finite numbers, got NaN or infinity")
    return arr


def _scalar(obj, path, kind=float):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(obj).__name__}")
    if isinstance(obj, float) and not math.isfinite(obj):
        raise SchemaError(path, f"expected a finite number, got {obj}")
    if kind is int and isinstance(obj, float) and not obj.is_integer():
        raise SchemaError(path, f"expected an integer, got {obj}")
    return kind(obj)


@contextmanager
def _at(path):
    """Report a setting that a library check rejects as a SchemaError at path."""
    try:
        yield
    except (InvalidSpec, DimensionMismatch, DomainError) as exc:
        raise SchemaError(path, str(exc)) from None


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
    output_dir: str
    output_formats: tuple

    @property
    def hash(self) -> str:
        import hashlib  # here, not at module level: it loads OpenSSL, which a load never needs

        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_attack(block, alpha, rate, path) -> AttackSpec:
    _check_keys(block, _ATTACK_KEYS, set() if "preset" in block else {"kind", "c1"}, path)
    if "preset" in block:
        extra = set(block) - {"preset"}
        if extra:
            raise SchemaError(f"{path}.{sorted(extra)[0]}", "preset excludes explicit mixture keys")
        return named_spec(block["preset"], alpha, rate)
    return attack_spec(block, alpha, rate)


def parse_scenario(raw: dict) -> Scenario:
    _check_keys(raw, _TOP_KEYS, {"model", "detector", "sim"}, "scenario")

    mblock = raw["model"]
    _check_keys(mblock, _MODEL_KEYS, _MODEL_KEYS, "scenario.model")
    mats = {k: _matrix(mblock[k], f"scenario.model.{k}") for k in mblock}
    model = build_model(mats["F"], mats["G"], mats["C"], mats["K"], mats["R1"], mats["R2"])

    dblock = raw["detector"]
    _check_keys(dblock, _DETECTOR_KEYS, {"A"}, "scenario.detector")
    rate = _scalar(dblock["A"], "scenario.detector.A")
    if not 0.0 < rate < 1.0:
        raise SchemaError("scenario.detector.A", f"must be in (0,1), got {rate}")
    with _at("scenario.detector.A"):
        alpha = chi2_quantile(1.0 - rate, model.p)
        vbar = chi2_quantile(1.0 - rate, model.n)

    sblock = raw["sim"]
    _check_keys(sblock, _SIM_KEYS, _SIM_REQUIRED, "scenario.sim")
    attack_start = _scalar(sblock.get("attack_start", 1), "scenario.sim.attack_start", int)
    truncate = sblock.get("truncate_noise", False)
    if not isinstance(truncate, bool):
        raise SchemaError("scenario.sim.truncate_noise", "expected true/false")
    horizon = _scalar(sblock["horizon"], "scenario.sim.horizon", int)
    master_seed = _scalar(sblock["master_seed"], "scenario.sim.master_seed", int)
    trials = _scalar(sblock["trials"], "scenario.sim.trials", int)
    with _at("scenario.sim"):
        sim = SimConfig(horizon=horizon, attack_start=attack_start, master_seed=master_seed,
                        trials=trials, vbar=vbar if truncate else None)

    attack = None
    if "attack" in raw:
        with _at("scenario.attack"):
            attack = _parse_attack(raw["attack"], alpha, rate, "scenario.attack")
        if "attack_start" not in sblock:
            raise SchemaError("scenario.sim.attack_start",
                              "required when an attack block is present")

    bblock = raw.get("bounds", {})
    _check_keys(bblock, _BOUNDS_KEYS, set(), "scenario.bounds")
    method = bblock.get("method", "both")
    if method not in ("lmi", "geom", "both"):
        raise SchemaError("scenario.bounds.method", "must be 'lmi', 'geom', or 'both'")

    oblock = raw.get("output", {})
    _check_keys(oblock, _OUTPUT_KEYS, set(), "scenario.output")
    out_dir = oblock.get("dir", "out")
    if not isinstance(out_dir, str):
        raise SchemaError("scenario.output.dir", f"expected a string, got {type(out_dir).__name__}")
    # json and csv select nothing, as their files are always written; svg is the one option
    formats = oblock.get("formats", ["json", "csv", "svg"])
    if not isinstance(formats, list):
        raise SchemaError("scenario.output.formats",
                          f"expected a list of format names, got {type(formats).__name__}")
    formats = tuple(formats)
    for fmt in formats:
        if fmt not in ("json", "csv", "svg"):
            raise SchemaError("scenario.output.formats", f"unknown format {fmt!r}")

    return Scenario(
        raw=raw, model=model, target_rate=rate, alpha=alpha, vbar=vbar,
        attack=attack, sim=sim, bounds_method=method,
        output_dir=out_dir, output_formats=formats,
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario file, or a bundled one by bare name (e.g. 'benchmark2d')."""
    text = None
    if "/" not in str(path_or_name) and not str(path_or_name).endswith(".json"):
        ref = resources.files("stealthreach").joinpath(f"scenarios/{path_or_name}.json")
        if ref.is_file():
            text = ref.read_text()
    if text is None:
        try:
            with open(path_or_name, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(str(path_or_name),
                              f"cannot read the scenario file: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(str(path_or_name),
                              f"the scenario file is not UTF-8 text: {exc.reason}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("scenario", f"invalid JSON: {exc}") from None
    return parse_scenario(raw)
