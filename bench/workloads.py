"""The three workloads: the CLI commands of one pass and their output checks.

A pass runs inside its own directory with relative paths, so passes of
one seed write byte-identical trees. The set-up writes `setup/tune.json`
beside the pass directories; the commands read it as `../setup/tune.json`.
Checks read the written files with numpy and the standard library only,
so they do not trust the code they check.
"""

import csv
import io
import json
import math
import os
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

TUNE_ARGV = ["tune", "--out", "setup", "--mode", "constant_q", "--depth", "16", "--eps1", "0.1"]
TUNE_FILE = "../setup/tune.json"

SIM_WIDTH = 1000
SIM_DEPTH = 16
SIM_DRAWS = 1
SWEEP_DEPTHS = (4, 8, 16)
# theory --depth 5 and --depth 16 run on this grid instead of the default
# 2048, which takes about 65 s per pass; the depth-5 mass defect shows on
# both grids.
THEORY_GRID = "512"
CLOSED_L1_BOUND = 1e-2  # acceptance criterion 1
MASS_TOL = 1e-9

WORKLOADS = ("theory", "simulate", "sweep")


def setup(main, workdir: Path) -> dict:
    """Run the tune command into workdir/setup; returns tune.json's params."""
    prev = Path.cwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(io.StringIO()):
            rc = main(TUNE_ARGV)
        if rc != 0:
            raise RuntimeError(f"set-up command exited {rc}")
        return json.loads(Path("setup/tune.json").read_text())["params"]
    finally:
        os.chdir(prev)


def _fmt(x: float) -> str:
    return repr(float(x))


def commands(workload: str, seed: int, params: dict) -> list:
    """argv lists of one pass; `params` is tune.json's `params` entry."""
    q, sigma, alpha, gamma = (_fmt(params[k]) for k in ("q", "sigma", "alpha", "gamma"))
    if workload == "theory":
        return [
            ["theory", "--out", "theory3", "--depth", "3", "--alpha", "0.75", "--gamma", "1.0"],
            ["compare", "theory3/mu_003.json", "theory3/mu_003_closed.json",
             "--bins", "0.01", "--out", "compare3"],
            ["theory", "--out", "theory5", "--depth", "5", "--grid", THEORY_GRID],
            ["theory", "--out", "theory16", "--depth", "16", "--q", q, "--sigma", sigma,
             "--alpha", alpha, "--gamma", gamma, "--grid", THEORY_GRID],
        ]
    shape = ["--width", str(SIM_WIDTH), "--depth", str(SIM_DEPTH), "--bins", "0.31",
             "--draws", str(SIM_DRAWS), "--seed", str(seed)]
    if workload == "simulate":
        return [
            ["simulate", "--out", "sim_network", "--model", "network",
             "--activation-file", TUNE_FILE] + shape,
            ["simulate", "--out", "sim_atoms", "--model", "atoms", "--q", q,
             "--sigma", sigma, "--alpha", alpha, "--gamma", gamma] + shape,
        ]
    if workload == "sweep":
        return [
            ["sweep", "--out", "sweep", "--width", "64",
             "--depths", ",".join(map(str, SWEEP_DEPTHS)), "--eta-min", "0.05",
             "--eta-max", "10", "--per-decade", "8", "--steps", "500", "--seed", str(seed)],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# checks: each returns (problems, facts); facts feed the metrics
# ----------------------------------------------------------------------


def _measure(path: Path):
    """(atoms, grid, values, step) of a measure JSON; grid is None without density."""
    data = json.loads(path.read_text())
    atoms = [(float(x), float(w)) for x, w in data["atoms"]]
    dens = data["density"]
    if dens is None:
        return atoms, None, None, 0.0
    values = np.asarray(dens["values"], dtype=float)
    grid = np.linspace(dens["left"], dens["right"], values.size)
    return atoms, grid, values, float(grid[1] - grid[0])


def check_theory_dir(outdir: Path):
    problems = []
    limits = json.loads((outdir / "limits.json").read_text())
    mean_track = limits["mean_track"]
    lam_track = limits["lambda_max_track"]
    with open(outdir / "atom_track.csv", newline="") as fh:
        beta = [float(row["beta"]) for row in csv.DictReader(fh)]
    layers = sorted(
        int(m.group(1)) for p in outdir.iterdir() if (m := re.fullmatch(r"mu_(\d{3})\.json", p.name))
    )
    if layers != list(range(1, len(lam_track) + 1)):
        problems.append(f"{outdir.name}: layers {layers} do not match depth {len(lam_track)}")
        return problems, {"layers": 0, "mean_resid": []}
    resid = []
    for ell in layers:
        name = f"{outdir.name}/mu_{ell:03d}.json"
        atoms, grid, values, step = _measure(outdir / f"mu_{ell:03d}.json")
        mass = sum(w for _, w in atoms)
        m1 = sum(w * x for x, w in atoms)
        top = max(x for x, _ in atoms) if atoms else -math.inf
        if grid is not None:
            mass += float(np.trapezoid(values, dx=step))
            m1 += float(np.trapezoid(values * grid, dx=step))
            top = max(top, float(grid[-1]))
        lam = lam_track[ell - 1]
        if not abs(mass - 1.0) <= MASS_TOL:
            problems.append(f"{name}: mass {mass!r} is not 1 to {MASS_TOL}")
        if not top <= lam + step + 1e-12 * abs(lam):
            problems.append(f"{name}: support max {top!r} beyond lambda_max {lam!r} + one step")
        if beta[ell - 1] > 0:
            weight = sum(w for x, w in atoms if abs(x - lam) <= 1e-9 * (1.0 + abs(lam)))
            if not abs(weight - beta[ell - 1]) <= 1e-9:
                problems.append(
                    f"{name}: top-atom weight {weight!r} differs from beta {beta[ell - 1]!r}"
                )
        resid.append(abs(m1 - mean_track[ell - 1]) / abs(mean_track[ell - 1]))
    return problems, {"layers": len(layers) - 1, "mean_resid": resid}


def check_compare_dir(outdir: Path):
    l1 = float(json.loads((outdir / "compare.json").read_text())["l1"])
    problems = []
    if not l1 < CLOSED_L1_BOUND:
        problems.append(f"{outdir.name}: closed-form L1 {l1!r} not below {CLOSED_L1_BOUND}")
    return problems, {"closed_l1": l1}


def check_simulate_dir(outdir: Path, q_last: float, model: str):
    """draws x M finite eigenvalues; H_L = q_{L-1} I + PSD bounds the bottom.

    For the atoms model q_{L-1} is the given q. For the network it is the
    measured q_hat of the last hidden layer, which this check cannot see,
    so there the bound is only that H_L is positive definite with its
    bottom near q.
    """
    problems = []
    with open(outdir / "eigenvalues.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    vals = np.array([float(r["eigenvalue"]) for r in rows])
    depths = {int(r["depth"]) for r in rows}
    if len(rows) != SIM_DRAWS * SIM_WIDTH:
        problems.append(f"{outdir.name}: {len(rows)} eigenvalues, expected {SIM_DRAWS * SIM_WIDTH}")
    if not np.all(np.isfinite(vals)):
        problems.append(f"{outdir.name}: non-finite eigenvalues")
    elif vals.size:
        roundoff = 1e-9 * float(np.abs(vals).max())
        floor = q_last - roundoff if model == "atoms" else 0.5 * q_last
        if not vals.min() >= floor:
            problems.append(f"{outdir.name}: smallest eigenvalue {vals.min()!r} below {floor!r}")
    layers = SIM_DRAWS * depths.pop() if len(depths) == 1 else 0
    return problems, {"layers": layers}


def check_sweep_dir(outdir: Path, etas_count: int):
    problems = []
    with open(outdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(SWEEP_DEPTHS) * etas_count
    if len(rows) != expected:
        problems.append(f"{outdir.name}/sweep.csv: {len(rows)} rows, expected {expected}")
    boundary_path = outdir / "boundary.json"
    if not boundary_path.is_file():
        problems.append(f"{outdir.name}: boundary.json missing")
    else:
        keys = set(json.loads(boundary_path.read_text()).get("boundary", {}))
        missing = [d for d in SWEEP_DEPTHS if str(d) not in keys]
        if missing:
            problems.append(f"{outdir.name}/boundary.json: no entry for depths {missing}")
    return problems, {"layers": sum(int(r["L"]) for r in rows)}


def sweep_eta_count(argv: list) -> int:
    """Grid size cmd_sweep derives from --eta-min/--eta-max/--per-decade."""
    lo, hi = float(argv[argv.index("--eta-min") + 1]), float(argv[argv.index("--eta-max") + 1])
    per_decade = int(argv[argv.index("--per-decade") + 1])
    return int(math.ceil(math.log10(hi / lo) * per_decade)) + 1


def check_command(argv: list, passdir: Path, params: dict):
    """Output checks for one command that exited 0."""
    outdir = passdir / argv[argv.index("--out") + 1]
    try:
        if argv[0] == "theory":
            return check_theory_dir(outdir)
        if argv[0] == "compare":
            return check_compare_dir(outdir)
        if argv[0] == "simulate":
            model = argv[argv.index("--model") + 1]
            return check_simulate_dir(outdir, float(params["q"]), model)
        if argv[0] == "sweep":
            return check_sweep_dir(outdir, sweep_eta_count(argv))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{outdir.name}: unreadable output: {exc!r}"], {}
    return [], {}
