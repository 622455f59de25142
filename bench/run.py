"""Benchmark of the isospec CLI: three workloads run in-process through
`isospec.cli.main`, with output checks, end-to-end metrics and, in the
traced run, per-module spans.

    python3 bench/run.py --workload theory --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, measured with tracing off;
pass times are rescaled by a speed probe (see SpeedProbe). `--trace 1`
prints the per-layer metrics of two traced passes, run between two
untraced passes of the same seed and checked against them. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. Run from any directory; the program is imported from `src/`
beside `bench/`, and scratch outputs go to `.bench_work/`, removed on
exit. See bench/METRICS.md for what each workload and metric means.
"""

import os

# One BLAS thread: set before numpy loads. Two threads were no faster on
# the 2-core machine this was tuned on, and a second thread makes small
# matrix products (the sweep's M = 64) slower and far noisier.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 3
# Start no pass that would end after this many seconds of passes; the
# whole run must finish within 180 s.
PASS_BUDGET_S = 140.0
CAPPED_ITERATIONS = 10_000
# Pass times are rescaled to the machine speed at which one
# SpeedProbe call takes this long, its typical time on the 2-vCPU Xeon
# the benchmark was tuned on.
REF_PROBE_S = 0.1

# One set-up sample in a fresh interpreter: imports, then the tune command.
SETUP_SNIPPET = """
import sys
sys.path[:0] = sys.argv[1:3]
from pathlib import Path
from isospec.cli import main
import workloads
workloads.setup(main, Path(sys.argv[3]))
"""


def import_program():
    """isospec from this checkout's src/, never from anywhere else."""
    if not (SRC / "isospec" / "cli.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'isospec'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import isospec

    if Path(isospec.__file__).resolve().parent != SRC / "isospec":
        sys.exit(f"bench: imported isospec from {isospec.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"isospec.{name}") for name in spans.MODULES}
    return isospec, mods


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# set-up and passes
# ----------------------------------------------------------------------


def setup_in_process(cli, workdir: Path) -> dict:
    try:
        return workloads.setup(cli.main, workdir)
    except RuntimeError as exc:
        sys.exit(f"bench: {exc}")


def setup_samples(workdir: Path) -> list:
    """Wall time of SETUP_SAMPLES set-ups, each in a fresh interpreter."""
    times = []
    for k in range(SETUP_SAMPLES):
        d = workdir / f"setup_sample{k}"
        d.mkdir()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH), str(d)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120, check=False,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up sample failed: {proc.stderr.decode(errors='replace')}")
        shutil.rmtree(d)
    return times


def run_pass(cli, cmds: list, passdir: Path):
    """Run one pass in passdir; returns (wall seconds, [(exit code, stderr)])."""
    passdir.mkdir()
    prev = Path.cwd()
    os.chdir(passdir)
    outcomes = []
    try:
        start = time.perf_counter()
        for argv in cmds:
            err = io.StringIO()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a failed benchmark
                rc = None
                err.write(traceback.format_exc())
            outcomes.append((rc, err.getvalue().strip()))
        wall = time.perf_counter() - start
    finally:
        os.chdir(prev)
    return wall, outcomes


def tree_digest(passdir: Path):
    """(sha256 over every file's path and bytes, total bytes)."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(passdir.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            size += len(data)
            h.update(str(p.relative_to(passdir)).encode() + b"\0" + data)
    return h.hexdigest(), size


class PassReport:
    """Outcome of one pass: checks its outputs, hashes them, then deletes passdir."""

    def __init__(self, cmds, passdir, wall, outcomes, params):
        self.wall = wall
        self.attempted = len(cmds)
        self.ok = 0
        self.failures = []
        self.problems = []
        self.layers = 0
        self.mean_resid = []
        self.closed_l1 = None
        for argv, (rc, msg) in zip(cmds, outcomes):
            label = " ".join(argv[:3])
            if rc != 0:
                last = msg.splitlines()[-1] if msg else ""
                self.failures.append(f"{label}: exit {rc}: {last}")
                continue
            problems, facts = workloads.check_command(argv, passdir, params)
            self.problems += [f"{label}: {p}" for p in problems]
            if problems:
                continue
            self.ok += 1
            self.layers += facts.get("layers", 0)
            self.mean_resid += facts.get("mean_resid", [])
            if "closed_l1" in facts:
                self.closed_l1 = facts["closed_l1"]
        self.digest, self.bytes = tree_digest(passdir)
        shutil.rmtree(passdir)


class SpeedProbe:
    """Times a fixed kernel, to rescale the workloads' times by machine speed.

    On a shared host the CPU's speed drifted by up to 2x over minutes. A
    pass's wall time divided by the probe time around it stays far
    steadier (see METRICS.md). The kernel is complex elementwise
    arithmetic like theory's solver, which tracked the speed of all three
    workloads best of the kernels tried. It runs in 32-row blocks so that
    its memory stays below any pass's (peak_rss_mb is unaffected), and it
    calls no isospec code, so a change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.z = rng.standard_normal(512) + 1j
        self.x, self.m = rng.standard_normal(520), rng.random(520)
        self()  # the first call is slower while the allocator settles

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            for r in range(0, self.z.size, 32):
                (self.m[None, :] / (self.z[r:r + 32, None] - self.x[None, :])).sum(axis=1)
        return time.perf_counter() - start


def timed_passes(cli, cmds, workdir, params, seconds, probe):
    """Passes until `seconds` would be exceeded. Returns their reports and
    the probe times: one before each pass and one after the last."""
    reports, probes = [], [probe()]
    start = time.perf_counter()
    while True:
        passdir = workdir / f"pass{len(reports)}"
        wall, outcomes = run_pass(cli, cmds, passdir)
        probes.append(probe())
        reports.append(PassReport(cmds, passdir, wall, outcomes, params))
        elapsed = time.perf_counter() - start
        nxt = elapsed + statistics.median(r.wall for r in reports)
        if nxt > PASS_BUDGET_S or (len(reports) >= MIN_PASSES and nxt > seconds):
            return reports, probes


def traced_pass(cli, mods, cmds, passdir, params):
    tracer = spans.Tracer()
    undo = spans.install(mods, tracer)
    try:
        wall, outcomes = run_pass(cli, cmds, passdir)
    finally:
        spans.uninstall(undo)
    return tracer, PassReport(cmds, passdir, wall, outcomes, params)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(reports, setup_times, probes) -> dict:
    """Pass times are rescaled by REF_PROBE_S over the mean of the probe
    times before and after the pass. Set-up times are not: they did not
    vary with the probe."""
    scaled = [r.wall * 2.0 * REF_PROBE_S / (probes[k] + probes[k + 1])
              for k, r in enumerate(reports)]
    run_s = statistics.median(scaled)
    attempted = sum(r.attempted for r in reports)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (sum(r.ok for r in reports) / attempted, "ratio"),
        "layers_per_s": (reports[0].layers / run_s, "1/s"),
    }


def gemm_gflops(width: int) -> float:
    """Rate of one M x M matrix product at the widest width rmtsim used."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((width, width)), rng.standard_normal((width, width))
    a @ b
    times = []
    for _ in range(3):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2.0 * width**3 / statistics.median(times) / 1e9


def per_layer(tracers, reports, untraced, setup_tracer) -> dict:
    """Per-layer metrics: times averaged over the traced passes, counts
    from the first (they repeat exactly; see repeated_counts)."""
    t0 = tracers[0]

    def mean_over(fn):
        return statistics.fmean(fn(t) for t in tracers)

    def total(*names):
        return mean_over(lambda t: t.total(*names))

    numeric = [(s, p) for s, p in t0.conv_stats if s.grid_count > 0]
    iters = [s.iterations_mean for s, _ in numeric]
    fim_s = total("rmtsim.dual_fim_recursive")
    durations = np.array(t0.step_durations) * 1e6
    run_traced = statistics.fmean(r.wall for r in reports)
    run_untraced = statistics.fmean(r.wall for r in untraced)
    uncovered = statistics.fmean(r.wall - t.covered() for r, t in zip(reports, tracers))
    resid = reports[0].mean_resid
    return {
        "bench.run_s_untraced": (run_untraced, "s"),
        "bench.run_s_traced": (run_traced, "s"),
        "bench.trace_overhead": (run_traced / run_untraced, "ratio"),
        "bench.uncovered_s": (uncovered, "s"),
        "cli.self_s": (mean_over(lambda t: t.module_self("cli")), "s"),
        "cli.bytes_written": (reports[0].bytes, "bytes"),
        "specmeasure.self_s": (mean_over(lambda t: t.module_self("specmeasure")), "s"),
        "specmeasure.pushforward_calls": (t0.count("specmeasure.affine_pushforward"), "count"),
        "specmeasure.pushforward_s": (total("specmeasure.affine_pushforward"), "s"),
        "specmeasure.json_s": (
            total("specmeasure.SpectralMeasure.to_json_dict", "specmeasure.SpectralMeasure.from_json"),
            "s",
        ),
        "specmeasure.l1_s": (total("specmeasure.distance_L1"), "s"),
        "freeconv.self_s": (mean_over(lambda t: t.module_self("freeconv")), "s"),
        "freeconv.conv_calls": (t0.count("freeconv.free_mult_conv_two_atom"), "count"),
        "freeconv.conv_errors": (t0.conv_errors, "count"),
        "freeconv.conv_s": (total("freeconv.free_mult_conv_two_atom"), "s"),
        "freeconv.conv_s_max": (
            mean_over(lambda t: t.spans["freeconv.free_mult_conv_two_atom"].longest), "s"
        ),
        "freeconv.iters_max": (max((s.iterations_max for s, _ in numeric), default=0), "count"),
        "freeconv.iters_mean": (statistics.fmean(iters) if iters else 0.0, "count"),
        "freeconv.capped_layers": (
            sum(s.iterations_max > CAPPED_ITERATIONS for s, _ in numeric), "count"
        ),
        "freeconv.pole_evals": (
            sum(s.iterations_mean * s.grid_count * p for s, p in numeric), "count_computed"
        ),
        "freeconv.closed_s": (total("freeconv.solve_three_layer"), "s"),
        "freeconv.mass_defect_max": (max((s.mass_defect for s, _ in numeric), default=0.0), "ratio"),
        "freeconv.flagged": (sum(len(s.flagged) for s, _ in numeric), "count"),
        "freeconv.clamped_max": (max((s.clamped for s, _ in numeric), default=0.0), "density"),
        "freeconv.mean_resid_max": (max(resid, default=0.0), "ratio"),
        "freeconv.closed_l1": (reports[0].closed_l1 or 0.0, "L1"),
        "meanfield.self_s": (mean_over(lambda t: t.module_self("meanfield")), "s"),
        "meanfield.activation_calls": (
            t0.count("meanfield.activation_apply", "meanfield.activation_deriv_sq"), "count"
        ),
        "meanfield.activation_s": (
            total("meanfield.activation_apply", "meanfield.activation_deriv_sq"), "s"
        ),
        "meanfield.tune_s": (
            setup_tracer.total("meanfield.tune_constant_q", "meanfield.tune_di"), "s"
        ),
        "rmtsim.self_s": (mean_over(lambda t: t.module_self("rmtsim")), "s"),
        "rmtsim.haar_calls": (t0.count("rmtsim.sample_haar_orthogonal"), "count"),
        "rmtsim.haar_s": (total("rmtsim.sample_haar_orthogonal"), "s"),
        "rmtsim.net_check_s": (total("rmtsim.OrthogonalNet.__post_init__"), "s"),
        "rmtsim.forward_s": (total("rmtsim.forward_trace"), "s"),
        "rmtsim.fim_s": (fim_s, "s"),
        "rmtsim.fim_gflops": (t0.fim_flops / fim_s / 1e9 if fim_s else 0.0, "GFLOP/s_computed"),
        "rmtsim.gemm_gflops": (
            gemm_gflops(max(t0.widths)) if t0.widths else 0.0, "GFLOP/s_computed"
        ),
        "rmtsim.model_fim_s": (total("rmtsim.model_fim_sample"), "s"),
        "rmtsim.eig_s": (total(spans.EIG_SPAN, "rmtsim.eig_sym"), "s"),
        "rmtsim.empirical_s": (total("rmtsim.empirical_measure"), "s"),
        "trainlab.self_s": (mean_over(lambda t: t.module_self("trainlab")), "s"),
        "trainlab.cells": (t0.count("trainlab.train_run"), "count"),
        "trainlab.cells_diverged": (t0.cells_diverged, "count"),
        "trainlab.steps": (t0.count("trainlab.online_gd_step"), "count"),
        "trainlab.step_s": (total("trainlab.online_gd_step"), "s"),
        "trainlab.step_us_p50": (float(np.percentile(durations, 50)) if durations.size else 0.0, "us"),
        "trainlab.step_us_p99": (float(np.percentile(durations, 99)) if durations.size else 0.0, "us"),
        "trainlab.eval_s": (total("trainlab.evaluate"), "s"),
        "trainlab.dataset_s": (total("trainlab.synth_dataset"), "s"),
    }


def repeated_counts(tracers) -> list:
    """Counts that must repeat exactly between traced passes of one seed."""
    def counts(t):
        numeric = [s for s, _ in t.conv_stats if s.grid_count > 0]
        return {
            "freeconv.iters": [(s.iterations_max, s.iterations_mean) for s in numeric],
            "freeconv.flagged": [s.flagged for s in numeric],
            "rmtsim.haar_calls": t.count("rmtsim.sample_haar_orthogonal"),
            "trainlab.steps": t.count("trainlab.online_gd_step"),
            "trainlab.cells_diverged": t.cells_diverged,
        }

    first, *rest = [counts(t) for t in tracers]
    return [f"traced passes disagree on {k}" for other in rest for k in first if first[k] != other[k]]


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run(args, workdir: Path) -> dict:
    isospec, mods = import_program()
    cli = mods["cli"]
    env = environment(args.seed)
    env["isospec"] = isospec.__version__
    print("env " + json.dumps(env, sort_keys=True))

    problems = []
    if args.trace:
        setup_tracer = spans.Tracer()
        undo = spans.install(mods, setup_tracer)
        try:
            params = setup_in_process(cli, workdir)
        finally:
            spans.uninstall(undo)
        cmds = workloads.commands(args.workload, args.seed, params)

        def untraced_pass(name):
            wall, outcomes = run_pass(cli, cmds, workdir / name)
            return PassReport(cmds, workdir / name, wall, outcomes, params)

        # untraced, traced, traced, untraced: the overhead ratio then
        # cancels a linear drift in machine speed. The repeat passes are
        # dropped when four passes would not fit in PASS_BUDGET_S.
        untraced = [untraced_pass("untraced0")]
        repeat = 4 * untraced[0].wall < PASS_BUDGET_S
        tracers, reports = [], []
        for k in range(2 if repeat else 1):
            tracer, report = traced_pass(cli, mods, cmds, workdir / f"traced{k}", params)
            tracers.append(tracer)
            reports.append(report)
        if repeat:
            untraced.append(untraced_pass("untraced1"))
        problems += repeated_counts(tracers)
        metrics = per_layer(tracers, reports, untraced, setup_tracer)
        for name, st in sorted(tracers[0].spans.items()):
            print(f"span {name} count {st.count} total_s {st.total!r} self_s {st.self_time!r}")
        reports = untraced[:1] + reports + untraced[1:]
    else:
        setup_times = setup_samples(workdir)
        params = setup_in_process(cli, workdir)
        cmds = workloads.commands(args.workload, args.seed, params)
        reports, probes = timed_passes(cli, cmds, workdir, params, args.seconds, SpeedProbe())
        metrics = end_to_end(reports, setup_times, probes)
        print("setup_samples_s " + json.dumps(setup_times))
        print("probe_s " + json.dumps(probes))

    first = "the untraced pass" if args.trace else "pass 0"
    problems += [f"pass {k} wrote other bytes than {first}"
                 for k, r in enumerate(reports) if r.digest != reports[0].digest]
    for r in reports:
        problems += r.problems
    print(f"workload {args.workload} seed {args.seed} passes {len(reports)} "
          f"pass_s {json.dumps([r.wall for r in reports])}")
    for line in sorted({f for r in reports for f in r.failures}):
        print("failed: " + line)
    for line in dict.fromkeys(problems):
        print("check: " + line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    attempted = sum(r.attempted for r in reports)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(r.ok for r in reports),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
