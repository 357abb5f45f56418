"""Outside-in span recording for the traced run.

Layer entry points are wrapped where their callers look them up (a module
attribute), for the traced passes only, and restored afterwards.  Each call
becomes a span with name, start, end and parent; spans stay in memory until
the run ends.  A name that a later version of the program no longer has is
reported as absent instead of failing the run.
"""

import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    info: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one thread, nested by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, error: str | None = None) -> Span:
        span = self.spans[idx]
        span.end = self.clock()
        span.error = error
        self._open.remove(idx)
        return span

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        except BaseException as exc:
            self.end(idx, error=type(exc).__name__)
            raise
        self.end(idx)

    def wrap(self, fn, name: str, extract=None):
        """fn recorded as span `name`; extract(args, kwargs, result) -> info dict."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, error=type(exc).__name__)
                raise
            span = self.end(idx)
            if extract is not None:
                try:
                    span.info = extract(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                    span.info = {}
            return result

        return traced

    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def self_time(self, idx: int) -> float:
        """Span duration minus the part of its interval its children cover."""
        span = self.spans[idx]
        pieces = sorted((max(c.start, span.start), min(c.end, span.end))
                        for c in self.children(idx))
        covered, reach = 0.0, span.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def has_ancestor(self, span: Span, indices: set) -> bool:
        parent = span.parent
        while parent is not None and parent not in indices:
            parent = self.spans[parent].parent
        return parent is not None

    def outermost(self, name: str) -> list[Span]:
        """Spans called `name` that have no ancestor of the same name."""
        same = {i for i, s in enumerate(self.spans) if s.name == name}
        return [self.spans[i] for i in sorted(same)
                if not self.has_ancestor(self.spans[i], same)]


TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float]:
    """(level, value) of the highest level in TAIL_LEVELS with at least
    MIN_BEYOND samples beyond it.  Under 2 * MIN_BEYOND samples no level
    qualifies and the median is returned at level 50."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        return 0.0, 0.0
    for level in TAIL_LEVELS:
        if x.size * (100.0 - level) / 100.0 >= MIN_BEYOND - 1e-9:  # 100 - 99.9 < 0.1
            return level, float(np.percentile(x, level))
    return 50.0, float(np.median(x))


# ------------------------------------------------------------- instrumentation

def _cfg_steps(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"trial_steps": cfg.trials * cfg.horizon}


def _bound_volumes(args, kwargs, result):
    info = {f"vol.{b.target}": b.volume for b in result}
    info["terms"] = sum(b.terms_used or 0 for b in result)
    return info


def _cert(args, kwargs, result):
    return {"min_eig": result.diagnostics["lmi_min_eig"]}


def _newton(args, kwargs, result):
    return {"newton_iters": result[1]["iterations"]}


def _riccati(args, kwargs, result):
    return {"riccati_iters": result.diagnostics["riccati_iterations"]}


def _points(args, kwargs, result):
    return {"points": len(result)}


# (module, attribute, span name, extract); module is relative to stealthreach
PROBES = (
    ("cli", "load_scenario", "scenario.load", None),
    ("scenario", "build_model", "plant.build_model", _riccati),
    ("cli", "reach_bounds_lmi", "reach_lmi.bounds", _bound_volumes),
    ("cli", "reach_bounds_geom", "reach_geom.bounds", _bound_volumes),
    ("cli", "empirical_cloud", "montecarlo.cloud", _points),
    ("cli", "containment_report", "montecarlo.containment", None),
    ("cli", "volume_heatmap", "montecarlo.heatmap", None),
    ("cli", "simulate", "plant.simulate", _cfg_steps),
    ("cli", "render_bounds_svg", "svgplot.render", None),
    ("cli", "render_heatmap_svg", "svgplot.render", None),
    ("montecarlo", "simulate", "plant.simulate", _cfg_steps),
    ("montecarlo", "heatmap_cell_volume", "montecarlo.heatmap_cell", None),
    ("reach_lmi", "min_volume_over_a", "reach_lmi.search", _cert),
    ("reach_lmi", "solve_logdet_sdp", "reach_lmi.sdp_solve", _newton),
    ("reach_geom", "minkowski_sum_many", "ellipsoids.sum_many", None),
    ("ellipsoids", "minkowski_sum_pair", "ellipsoids.sum_pair", None),
    ("reach_common", "minkowski_sum_pair", "ellipsoids.sum_pair", None),
)


@contextmanager
def instrumented(recorder: Recorder, probes=PROBES):
    """Wrap every probe that exists; yield the labels of the absent ones."""
    patched, absent = [], []
    try:
        for module_name, attr, name, extract in probes:
            try:
                module = importlib.import_module(f"stealthreach.{module_name}")
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, recorder.wrap(original, name, extract))
            patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ----------------------------------------------------------- per-layer metrics

COMMANDS = ("bound", "montecarlo", "heatmap", "verify")


def layer_metrics(recorder: Recorder, passes: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, totals and counts per pass.

    Per-call timings pool the calls of every traced pass that returned
    (an SDP attempt that raises Infeasible is counted, not timed) and give
    the median, the tail percentile with its level, and the sample count.
    """
    per = 1.0 / max(passes, 1)

    def spans(name):
        return recorder.outermost(name)

    def total_s(name):
        return sum(s.duration for s in spans(name)) * per

    def calls(name):
        return len(spans(name)) * per

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans(name)) * per

    out = {}

    def per_call(prefix, name):
        samples = [s.duration for s in spans(name) if s.error is None]
        level, tail = tail_percentile(samples)
        out[f"{prefix}_p50_s"] = (float(np.median(samples)) if samples else 0.0, "s")
        out[f"{prefix}_tail_s"] = (tail, "s")
        out[f"{prefix}_tail_pct"] = (level, "%")
        out[f"{prefix}_samples"] = (len(samples), "count")

    out["scenario.load_s"] = (total_s("scenario.load"), "s")
    out["plant.build_model_s"] = (total_s("plant.build_model"), "s")
    out["plant.riccati_iters"] = (info_sum("plant.build_model", "riccati_iters"), "count")

    sdp = spans("reach_lmi.sdp_solve")
    infeasible = sum(1 for s in sdp if s.error == "Infeasible")
    certs = [s.info["min_eig"] for s in spans("reach_lmi.search") if "min_eig" in s.info]
    out["reach_lmi.bounds_s"] = (total_s("reach_lmi.bounds"), "s")
    out["reach_lmi.search_s"] = (total_s("reach_lmi.search"), "s")
    out["reach_lmi.searches"] = (calls("reach_lmi.search"), "count")
    out["reach_lmi.sdp_attempts"] = (len(sdp) * per, "count")
    out["reach_lmi.sdp_infeasible"] = (infeasible * per, "count")
    out["reach_lmi.sdp_feasible_ratio"] = (
        (len(sdp) - infeasible) / len(sdp) if sdp else 0.0, "ratio")
    per_call("reach_lmi.sdp_solve", "reach_lmi.sdp_solve")  # solves that returned
    out["reach_lmi.newton_iters"] = (info_sum("reach_lmi.sdp_solve", "newton_iters"), "count")
    out["reach_lmi.cert_min_eig"] = (min(certs) if certs else 0.0, "eig")

    out["reach_geom.bounds_s"] = (total_s("reach_geom.bounds"), "s")
    out["reach_geom.terms"] = (info_sum("reach_geom.bounds", "terms"), "count")
    out["ellipsoids.sum_many_calls"] = (calls("ellipsoids.sum_many"), "count")
    out["ellipsoids.sum_many_s"] = (total_s("ellipsoids.sum_many"), "s")
    out["ellipsoids.sum_pair_calls"] = (calls("ellipsoids.sum_pair"), "count")
    out["ellipsoids.sum_pair_s"] = (total_s("ellipsoids.sum_pair"), "s")

    sim_s = total_s("plant.simulate")
    steps = info_sum("plant.simulate", "trial_steps")
    out["plant.simulate_calls"] = (calls("plant.simulate"), "count")
    out["plant.simulate_s"] = (sim_s, "s")
    per_call("plant.simulate_call", "plant.simulate")
    out["plant.trial_steps"] = (steps, "count")
    out["plant.trial_steps_per_s"] = (steps / sim_s if sim_s > 0 else 0.0, "1/s")

    out["montecarlo.cloud_s"] = (total_s("montecarlo.cloud"), "s")
    out["montecarlo.cloud_points"] = (info_sum("montecarlo.cloud", "points"), "count")
    out["montecarlo.containment_s"] = (total_s("montecarlo.containment"), "s")
    out["montecarlo.heatmap_s"] = (total_s("montecarlo.heatmap"), "s")
    heatmaps = {i for i, s in enumerate(recorder.spans) if s.name == "montecarlo.heatmap"}
    out["montecarlo.heatmap_simulate_s"] = (sum(
        s.duration for s in spans("plant.simulate") if recorder.has_ancestor(s, heatmaps)) * per, "s")
    out["montecarlo.heatmap_cells"] = (calls("montecarlo.heatmap_cell"), "count")
    per_call("montecarlo.heatmap_cell", "montecarlo.heatmap_cell")

    for command in COMMANDS:
        idxs = [i for i, s in enumerate(recorder.spans) if s.name == f"cli.{command}"]
        out[f"cli.{command}.self_s"] = (sum(recorder.self_time(i) for i in idxs) * per, "s")
    out["svgplot.render_s"] = (total_s("svgplot.render"), "s")

    for layer in ("reach_geom", "reach_lmi"):
        for target, volume in bound_volumes(recorder, f"{layer}.bounds").items():
            out[f"{layer}.vol_{target}"] = (volume, "vol")
    return out


TARGETS = ("noise", "attack_error", "attack_state", "total_state")


def bound_volumes(recorder: Recorder, span_name: str, first: int = 0) -> dict:
    """Volume per target from the last `span_name` span at index >= first (0 if none)."""
    out = dict.fromkeys(TARGETS, 0.0)
    for span in recorder.spans[first:]:
        if span.name == span_name:
            out.update((t, span.info[f"vol.{t}"]) for t in TARGETS if f"vol.{t}" in span.info)
    return out
