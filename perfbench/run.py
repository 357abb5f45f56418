"""stealthreach benchmark: one workload through the public CLI, end to end.

    python3 perfbench/run.py --workload bound-2d --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout; the program is imported from src/.
The workload's CLI commands run in this process through
stealthreach.cli.main(argv), pass after pass, until --seconds (set-up
included) is used up; every command's outputs are checked.

With --trace 0 the metrics are end to end.  Nothing is wrapped except the two
bound entry points whose returned volumes are read, and command and set-up
times are normalised to a reference host speed (see hostspeed.py); the raw
wall times are printed beside them.  commands_s is the mean over the run's
passes of one pass's normalised time: a run holds two to six passes, and
their mean covers the whole run.  Set-up time is measured in fresh child
processes, one at a time, and its median is reported.  With --trace 1
untraced and traced passes alternate and the metrics are per layer, in raw
seconds (see spans.py).

Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
SETUP_KERNEL_REPEATS = 20  # reference kernel runs before and after each set-up
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# import stealthreach plus the first load_scenario, in a fresh interpreter;
# numpy is imported first and not timed, as it is not the program's own cost.
# The reference kernel runs just before and after; prints raw and normalised.
SETUP_PROBE = (
    "import sys, time, numpy\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[3]]\n"
    "import hostspeed\n"
    f"ref = hostspeed.time_kernel({SETUP_KERNEL_REPEATS})\n"
    "t0 = time.perf_counter()\n"
    "import stealthreach\n"
    "stealthreach.load_scenario(sys.argv[2])\n"
    "elapsed = time.perf_counter() - t0\n"
    f"ref += hostspeed.time_kernel({SETUP_KERNEL_REPEATS})\n"
    "print(elapsed, hostspeed.normalise(elapsed, ref))\n"
)


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None  # a checkout that is not its own git repository has none
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def measure_setup(scenario: str) -> tuple[list[float], list[float]]:
    """Raw and normalised set-up times of SETUP_REPEATS fresh interpreters."""
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), scenario,
                               str(HERE)], cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        elapsed, normalised = map(float, done.stdout.strip().splitlines()[-1].split())
        raw.append(elapsed)
        norm.append(normalised)
    return raw, norm


class Runner:
    """Runs a workload's commands and keeps their timings and failures."""

    def __init__(self, cli, spans, workload, scenario: str, work: Path, sample: bool):
        self.cli, self.spans, self.workload = cli, spans, workload
        self.sample = sample  # normalise untraced command times (hostspeed.py)
        self.scenario, self.work = scenario, work
        self.volume_rec = spans.Recorder()
        self.trace_rec = spans.Recorder()
        self.volume_probes = tuple(p for p in spans.PROBES
                                   if p[2] in ("reach_geom.bounds", "reach_lmi.bounds"))
        self.command_s: list[list[float]] = [[] for _ in workload.commands]
        self.command_norm_s: list[list[float]] = [[] for _ in workload.commands]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.absent: list[str] = []
        self.passes = 0

    def _command(self, rec, index: int, cmd):
        out = self.work / f"pass{self.passes}-{index}-{cmd.name}"
        argv = [cmd.name, "--scenario", self.scenario, "--out", str(out), *cmd.args]
        first = len(rec.spans)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            with rec.span(f"cli.{cmd.name}") as span:
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    rc = None
                    traceback.print_exc()
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}: {log.getvalue().strip()[-500:]}"]
        else:
            probe = {}
            for layer, method in (("reach_geom", "geometric"), ("reach_lmi", "lmi")):
                span_vols = self.spans.bound_volumes(rec, f"{layer}.bounds", first)
                probe.update(((method, t), v) for t, v in span_vols.items() if v)
            try:
                problems = cmd.check(out, probe)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.extend(f"pass {self.passes} {cmd.label}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)
        return span

    def run_pass(self, traced: bool) -> float:
        rec = self.trace_rec if traced else self.volume_rec
        probes = self.spans.PROBES if traced else self.volume_probes
        sample = self.sample and not traced
        sampling = contextlib.nullcontext()
        if sample:
            import hostspeed  # numpy may be imported only after cap_threads()
            sampling = hostspeed.SpeedSampler()
        total = 0.0
        with self.spans.instrumented(rec, probes=probes) as absent, sampling as sampler:
            if traced:
                self.absent = absent
            for index, cmd in enumerate(self.workload.commands):
                span = self._command(rec, index, cmd)
                if not traced:
                    self.command_s[index].append(span.duration)
                if sample:
                    self.command_norm_s[index].append(sampler.normalised(span.start, span.end))
                total += span.duration
        self.passes += 1
        return total


def loop_for(seconds: float, body) -> list[float]:
    """Call body() until the next call would likely end after `seconds`; at least once."""
    start = time.perf_counter()
    costs = []
    while True:
        costs.append(body())
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            return costs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nproc = cap_threads()
    if not (SRC / "stealthreach" / "__init__.py").is_file():
        print(f"error: no stealthreach sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stealthreach
    from stealthreach import cli
    if Path(stealthreach.__file__).resolve().parent != SRC / "stealthreach":
        print(f"error: imported stealthreach from {stealthreach.__file__}", file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        scenario, record = workload.prepare(ROOT, work, args.seed)
        setup_raw, setup = measure_setup(scenario)
        seconds = args.seconds - (time.perf_counter() - started)
        runner = Runner(cli, spans, workload, scenario, work, sample=not args.trace)
        if args.trace:
            pairs = []

            def pair() -> float:
                pairs.append((runner.run_pass(traced=False), runner.run_pass(traced=True)))
                return sum(pairs[-1])

            loop_for(seconds, pair)
            untraced = statistics.fmean(p[0] for p in pairs)
            traced = statistics.fmean(p[1] for p in pairs)
            metrics = spans.layer_metrics(runner.trace_rec, len(pairs))
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            metrics["trace.absent_probes"] = (len(runner.absent), "count")
        else:
            loop_for(seconds, lambda: runner.run_pass(traced=False))
            geom = spans.bound_volumes(runner.volume_rec, "reach_geom.bounds")
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "commands_s": (statistics.fmean(map(sum, zip(*runner.command_norm_s))), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "vol_attack_state_geom": (geom["attack_state"], "vol"),
                "vol_total_geom": (geom["total_state"], "vol"),
            }

        report(args, workload, runner, setup_raw, setup, metrics, record, nproc)
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 0


def report(args, workload, runner, setup_raw, setup, metrics, record, nproc) -> None:
    """Readable summary, then one JSON line with the environment and details.

    Times named *_wall_s are raw; the others are normalised to the reference
    host speed (hostspeed.py), except in a traced run, which has only raw times.
    """
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {runner.passes}  commands {runner.attempted}")

    def per_command(lists, suffix):  # mean per pass, summed over same-named commands
        acc: dict[str, list[float]] = {}
        for cmd, times in zip(workload.commands, lists):
            for i, t in enumerate(times):
                row = acc.setdefault(f"{cmd.name}{suffix}", [0.0] * len(times))
                row[i] += t
        return [(name, statistics.fmean(times), "s") for name, times in acc.items() if times]

    rows = [("setup_s", statistics.median(setup), "s"),
            ("setup_wall_s", statistics.median(setup_raw), "s")]
    rows += per_command(runner.command_norm_s, "_s")
    rows += per_command(runner.command_s, "_wall_s")
    if runner.command_s[0]:
        rows.append(("commands_wall_s", statistics.fmean(map(sum, zip(*runner.command_s))), "s"))
    rows += [(name, value, unit) for name, (value, unit) in metrics.items() if name != "setup_s"]
    rows.append(("fail_frac", runner.failed / runner.attempted, "ratio"))
    for layer, method in (("reach_geom", "geom"), ("reach_lmi", "lmi")):
        vols = runner.spans.bound_volumes(runner.volume_rec, f"{layer}.bounds")
        for target, short in (("attack_state", "attack_state"), ("total_state", "total")):
            name = f"vol_{short}_{method}"
            if vols[target] and name not in metrics:
                rows.append((name, vols[target], "vol"))
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>14.6g} {unit}")
    for failure in runner.failures[:20]:
        print(f"  FAIL {failure}")
    if runner.absent:
        print(f"  absent probes: {', '.join(runner.absent)}")
    labels = [cmd.label for cmd in workload.commands]
    print(json.dumps({"environment": environment(nproc, args.seed), "scenario": record,
                      "setup_s": setup, "setup_wall_s": setup_raw,
                      "command_s": dict(zip(labels, runner.command_norm_s)),
                      "command_wall_s": dict(zip(labels, runner.command_s))}))


if __name__ == "__main__":
    sys.exit(main())
