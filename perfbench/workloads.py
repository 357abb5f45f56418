"""Workloads: the scenario files each one feeds the CLI, its commands and the
checks on their outputs.

Every input is made from the workload seed and nothing else, so the same seed
gives byte-identical scenario files.  The generator uses numpy only, never the
program under test, so a change to the program cannot change its inputs.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BUNDLED_2D = "benchmark2d"

# The n = 4 plant.  PLANT_SEED fixes the plant's dynamics: the generator takes
# the first draw from it that meets the margins below.  The workload seed then
# picks random orthogonal bases for the state, input and output spaces and the
# simulation seed.  Orthogonal changes of basis keep every spectral radius, the
# number of series terms, the SDP iteration path and every bound volume, so
# runs on different seeds do the same work and give the same volumes, while the
# matrices the program sees and the noise it draws differ from seed to seed.
PLANT_SEED = 0
N4, M4, P4 = 4, 2, 3
RHO_F = 0.85
RHO_CLOSED_LOOP_MAX = 0.75
RHO_FILTER_MAX = 0.75
MAX_DRAWS = 1000
SIG_DIGITS = 12  # printed precision of the generated matrices

LMI_CERT_TOL = 1e-7
MEMBERSHIP_TOL = 1e-6
CERTIFIED_TARGETS = ("noise", "attack_error", "attack_state")
ALL_TARGETS = CERTIFIED_TARGETS + ("total_state",)
# A 20-trial heatmap cell's fitted volume has a relative standard deviation of
# about 4.5% (40 seeds per cell), so two cells differ by about 6.4% from noise
# alone.  In expectation the corner (alpha, 0) leads its nearest neighbours by
# about 7%, which the noise overturns on about half of all seeds.  The check
# allows a cell to exceed the corner by 4 standard deviations of that
# difference.  The corner must also lead the interior cell (alpha/8, alpha/10)
# by the 20% margin the acceptance tests ask of a separate reference cell;
# measured, it leads by a factor 6 to 8.
HEATMAP_NOISE_TOL = 0.25
HEATMAP_MIN_MARGIN = 0.20


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dare(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
         tol: float = 1e-13, max_iter: int = 100_000) -> np.ndarray:
    """Stabilising solution of P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q by iteration."""
    P = Q.copy()
    for _ in range(max_iter):
        BtPA = B.T @ P @ A
        P_next = A.T @ P @ A - BtPA.T @ np.linalg.solve(R + B.T @ P @ B, BtPA) + Q
        P_next = (P_next + P_next.T) / 2.0
        if np.max(np.abs(P_next - P)) <= tol * max(1.0, float(np.max(np.abs(P)))):
            return P_next
        P = P_next
    raise RuntimeError("Riccati iteration did not converge")


def _random_spd(rng, k: int, floor: float) -> np.ndarray:
    W = rng.standard_normal((k, k))
    return W @ W.T / k + floor * np.eye(k)


def draw_plant(rng: np.random.Generator, n: int = N4, m: int = M4, p: int = P4) -> tuple[dict, int]:
    """Draw a plant with rho(F) = RHO_F and margins on the closed loop and filter.

    K is the LQR gain for unit weights and L the steady-state Kalman gain.
    Draws whose rho(F + G K) or rho(F - L C) exceed their limits are rejected.
    Returns the matrices and the number of draws it took.
    """
    for draw in range(1, MAX_DRAWS + 1):
        F = rng.standard_normal((n, n))
        F *= RHO_F / spectral_radius(F)
        G = rng.standard_normal((n, m)) / math.sqrt(n)
        C = rng.standard_normal((p, n)) / math.sqrt(n)
        R1 = 0.05 * _random_spd(rng, n, 0.2)
        R2 = _random_spd(rng, p, 1.0)
        P = dare(F, G, np.eye(n), np.eye(m))
        K = -np.linalg.solve(np.eye(m) + G.T @ P @ G, G.T @ P @ F)
        S = dare(F.T, C.T, R1, R2)
        L = F @ S @ C.T @ np.linalg.inv(C @ S @ C.T + R2)
        if (spectral_radius(F + G @ K) <= RHO_CLOSED_LOOP_MAX
                and spectral_radius(F - L @ C) <= RHO_FILTER_MAX):
            return {"F": F, "G": G, "C": C, "K": K, "R1": R1, "R2": R2}, draw
    raise RuntimeError(f"no plant met the margins in {MAX_DRAWS} draws")


def random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _rounded(M: np.ndarray) -> list:
    return [[float(f"{v:.{SIG_DIGITS}g}") for v in row] for row in M]


def scenario_4d(seed: int, plant_seed: int = PLANT_SEED) -> tuple[dict, dict]:
    """The n = 4, m = 2, p = 3 scenario for a workload seed, and its record.

    The record holds the spectral radii of the matrices as written, the
    draws the rejection loop used and the seeds.
    """
    plant, draws = draw_plant(np.random.default_rng(plant_seed))
    frames = np.random.default_rng(seed)
    Tx = random_orthogonal(frames, N4)
    Tu = random_orthogonal(frames, M4)
    Ty = random_orthogonal(frames, P4)
    sym = lambda M: (M + M.T) / 2.0
    mats = {
        "F": Tx @ plant["F"] @ Tx.T,
        "G": Tx @ plant["G"] @ Tu.T,
        "C": Ty @ plant["C"] @ Tx.T,
        "K": Tu @ plant["K"] @ Tx.T,
        "R1": sym(Tx @ plant["R1"] @ Tx.T),
        "R2": sym(Ty @ plant["R2"] @ Ty.T),
    }
    model = {name: _rounded(M) for name, M in mats.items()}
    raw = {
        "model": model,
        "detector": {"A": 0.05},
        "attack": {"preset": "ZA.C"},
        "sim": {"horizon": 550, "attack_start": 1, "master_seed": seed,
                "trials": 200, "truncate_noise": True},
        "bounds": {"method": "both"},
        "output": {"dir": "out", "formats": ["json", "csv", "svg"]},
    }
    F, G, C, K = (np.asarray(model[k]) for k in ("F", "G", "C", "K"))
    R1, R2 = np.asarray(model["R1"]), np.asarray(model["R2"])
    L = F @ (S := dare(F.T, C.T, R1, R2)) @ C.T @ np.linalg.inv(C @ S @ C.T + R2)
    record = {
        "plant_seed": plant_seed, "frame_seed": seed, "draws": draws,
        "rho_F": spectral_radius(F),
        "rho_closed_loop": spectral_radius(F + G @ K),
        "rho_filter": spectral_radius(F - L @ C),
    }
    return raw, record


def scenario_json(raw: dict) -> str:
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def bundled_2d(root: Path) -> dict:
    path = root / "src" / "stealthreach" / "scenarios" / f"{BUNDLED_2D}.json"
    return json.loads(path.read_text())


def scenario_2d_geom(root: Path, seed: int) -> dict:
    """The bundled 2-D benchmark with geometric bounds and a seeded simulation."""
    raw = bundled_2d(root)
    raw["bounds"] = {"method": "geom"}
    raw["sim"]["master_seed"] = seed
    return raw


# ---------------------------------------------------------------- output checks

def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_bounds(out: Path, probe: dict) -> list[str]:
    """bound --method both: certificates, LMI >= geometric volume, volumes as computed."""
    failures = []
    files = {(method, target): out / f"bound_{method}_{target}.json"
             for method in ("lmi", "geometric") for target in ALL_TARGETS}
    missing = [str(p.name) for p in files.values() if not p.is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    data = {key: _read_json(path) for key, path in files.items()}
    for target in CERTIFIED_TARGETS:
        eig = data["lmi", target]["diagnostics"].get("lmi_min_eig")
        if eig is None or not eig >= -LMI_CERT_TOL:
            failures.append(f"lmi certificate {target}: min eig {eig}")
    for target in ALL_TARGETS:
        lmi, geom = data["lmi", target]["volume"], data["geometric", target]["volume"]
        if not lmi >= geom:
            failures.append(f"volume ordering {target}: lmi {lmi!r} < geometric {geom!r}")
    for (method, target), payload in data.items():
        want = probe.get((method, target))
        if want is not None and payload["volume"] != want:
            failures.append(f"{method} {target} volume in JSON {payload['volume']!r} != {want!r}")
    return failures


def check_containment(out: Path, probe: dict) -> list[str]:
    """montecarlo: every bound contains the cloud, volumes as computed."""
    path = out / "containment.json"
    if not path.is_file():
        return ["missing containment.json"]
    report = _read_json(path)
    failures = []
    if not report.get("bounds"):
        failures.append("containment.json lists no bounds")
    for entry in report.get("bounds", []):
        if not entry["max_membership"] <= 1.0 + MEMBERSHIP_TOL:
            failures.append(f"{entry['method']} {entry['target']}: max membership "
                            f"{entry['max_membership']!r}")
        want = probe.get((entry["method"], entry["target"]))
        if want is not None and entry["volume"] != want:
            failures.append(f"{entry['method']} {entry['target']} volume in JSON "
                            f"{entry['volume']!r} != {want!r}")
    return failures


def chi2_threshold_2dof(rate: float) -> float:
    """alpha with P(chi2_2 > alpha) = rate, in closed form."""
    return -2.0 * math.log(rate)


def check_heatmap(out: Path, alpha: float) -> list[str]:
    """heatmap: the largest fitted volume sits at (c1, w1) = (alpha, 0), up to
    the sampling noise of a cell, and well above the interior cell (alpha/8, alpha/10).

    Each cell is a 20-trial Monte-Carlo estimate, so the exact argmax is a coin
    toss between the corner and its neighbours (see HEATMAP_NOISE_TOL).
    """
    path = out / "heatmap.csv"
    if not path.is_file():
        return ["missing heatmap.csv"]
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("c1,"):
            continue
        rows.append(tuple(float(v) for v in line.split(",")))
    if not rows:
        return ["heatmap.csv has no cells"]
    corner = [row for row in rows if abs(row[0] - alpha) <= 1e-9 * alpha and row[1] == 0.0]
    if not corner:
        return [f"heatmap has no cell at c1={alpha!r} w1=0"]
    corner_vol = corner[0][2]
    failures = []
    c1, w1, vol = max(rows, key=lambda row: row[2])
    if not vol <= (1.0 + HEATMAP_NOISE_TOL) * corner_vol:
        failures.append(f"heatmap argmax at c1={c1!r} w1={w1!r} (volume {vol!r}) exceeds "
                        f"the corner c1={alpha!r} w1=0 (volume {corner_vol!r}) by more "
                        f"than {HEATMAP_NOISE_TOL:.0%}")
    ref = min(rows, key=lambda row: (row[0] - alpha / 8.0) ** 2 + (row[1] - alpha / 10.0) ** 2)
    if not corner_vol >= (1.0 + HEATMAP_MIN_MARGIN) * ref[2]:
        failures.append(f"heatmap corner volume {corner_vol!r} is not {HEATMAP_MIN_MARGIN:.0%} "
                        f"above the interior cell c1={ref[0]!r} w1={ref[1]!r} ({ref[2]!r})")
    return failures


def check_verify(out: Path) -> list[str]:
    path = out / "verify.json"
    if not path.is_file():
        return ["missing verify.json"]
    report = _read_json(path)
    failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
    if failed or not report.get("all_pass"):
        return [f"verify checks failed: {', '.join(failed) or 'all_pass false'}"]
    return []


# -------------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Command:
    """One CLI command: its subcommand, extra arguments and output check.

    check(out_dir, probe) returns failure messages; probe maps
    (method, target) to the bound volumes the command computed.
    """

    name: str
    args: tuple
    check: Callable[[Path, dict], list[str]]

    @property
    def label(self) -> str:
        return " ".join((self.name,) + tuple(self.args))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    # prepare(root, work_dir, seed) writes the scenario file and returns
    # (--scenario value, record of how it was made)
    prepare: Callable[[Path, Path, int], tuple[str, dict]]


def _prepare_bound(root: Path, work: Path, seed: int) -> tuple[str, dict]:
    return BUNDLED_2D, {"scenario": BUNDLED_2D}


def _prepare_montecarlo(root: Path, work: Path, seed: int) -> tuple[str, dict]:
    path = work / "montecarlo2d.json"
    path.write_text(scenario_json(scenario_2d_geom(root, seed)))
    return str(path), {"scenario": f"{BUNDLED_2D} with bounds.method geom",
                       "master_seed": seed}


def _prepare_verify(root: Path, work: Path, seed: int) -> tuple[str, dict]:
    raw, record = scenario_4d(seed)
    path = work / "verify4d.json"
    path.write_text(scenario_json(raw))
    return str(path), dict(record, scenario="generated n=4 m=2 p=3")


ALPHA_2D = chi2_threshold_2dof(0.05)  # detector.A of the bundled 2-D scenario

WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="bound-2d",
            why="bundled 2-D benchmark through bound --method both: the first command "
                "every user runs, blocked by the LMI search, with no simulation",
            commands=(Command("bound", ("--method", "both"), check_bounds),),
            prepare=_prepare_bound,
        ),
        Workload(
            name="montecarlo-2d",
            why="2-D clouds and heatmap with geometric bounds: simulate as one 1000-trial "
                "batch and as one small batch per heatmap cell, plus cloud CSV, no LMI solve",
            commands=(
                Command("montecarlo", ("--cloud", "total"), check_containment),
                Command("montecarlo", ("--cloud", "attack", "--trials", "1000"),
                        check_containment),
                Command("heatmap", ("--res", "16"),
                        lambda out, probe: check_heatmap(out, ALPHA_2D)),
            ),
            prepare=_prepare_montecarlo,
        ),
        Workload(
            name="verify-4d",
            why="seeded n=4 plant through verify: the trust checks, where SDP cost and "
                "series length grow with n",
            commands=(Command("verify", (), lambda out, probe: check_verify(out)),),
            prepare=_prepare_verify,
        ),
    )
}
