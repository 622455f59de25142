"""Command-line front end: theory, tune, simulate, sweep, compare.

Every run resolves its configuration (defaults, then the --config JSON
file, then explicit flags), writes the resolved record beside the
outputs, and emits CSV/JSON/SVG files only; reruns from a saved config
reproduce the outputs byte for byte. Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 sweep with nothing but divergence.
"""

import argparse
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .freeconv import (
    AsymptoticRegime,
    LayerSchedule,
    TwoAtomJacobianLaw,
    asymptotic_max,
    di_conditions,
    max_support_track,
    mean_track,
    propagate_schedule,
    solve_three_layer,
    theta_mean_limit,
)
from .meanfield import (
    HardTanh,
    Linear,
    ShiftedRelu,
    mean_field_schedule,
    tune_constant_q,
    tune_di,
)
from .rmtsim import (
    EigenReport,
    OrthogonalNet,
    dual_fim_recursive,
    empirical_measure,
    forward_trace,
    model_fim_sample,
    normalized_input,
)
from .specmeasure import NumericalError, SpectralMeasure, _bin_masses, distance_L1, moment
from .trainlab import TrainConfig, idx_dataset, lr_depth_sweep, synth_dataset

MATRIX_MAGIC = b"ISOM"
MATRIX_VERSION = 1

CANVAS_W, CANVAS_H = 800, 600
MARGIN = {"left": 70, "right": 24, "top": 34, "bottom": 52}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


def _load_config_file(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return data


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags, by destination name."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        file_conf = _load_config_file(args.config)
        unknown = set(file_conf) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_conf)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _as_float_list(value, path: str, length: int) -> list:
    if isinstance(value, str):
        try:
            value = [float(tok) for tok in value.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if np.isscalar(value):
        value = [float(value)] * length
    value = [float(v) for v in value]
    if len(value) == 1:
        value = value * length
    _require(len(value) == length, path, f"expected {length} values, got {len(value)}")
    return value


def _as_int_list(value, path: str) -> list:
    if isinstance(value, str):
        try:
            value = [int(tok) for tok in value.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if np.isscalar(value):
        value = [int(value)]
    out = [int(v) for v in value]
    _require(bool(out), path, "list must be nonempty")
    return out


def _as_floats_free(value, path: str) -> list:
    """Comma string or sequence to a float list of whatever length."""
    if isinstance(value, str):
        try:
            value = [float(tok) for tok in value.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if np.isscalar(value):
        value = [float(value)]
    out = [float(v) for v in value]
    _require(bool(out), path, "list must be nonempty")
    return out


def _activation_from_dict(d: dict, path: str):
    _require(isinstance(d, dict), path, "activation must be an object")
    family = d.get("family")
    try:
        if family == "hard_tanh":
            return HardTanh(s=float(d["s"]), g=float(d["g"]))
        if family == "shifted_relu":
            return ShiftedRelu(a=float(d["a"]), b=float(d["b"]))
        if family == "linear":
            return Linear(g=float(d["g"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.family: unknown family {family!r}")


def _activation_to_dict(spec) -> dict:
    if isinstance(spec, HardTanh):
        return {"family": "hard_tanh", "s": spec.s, "g": spec.g}
    if isinstance(spec, ShiftedRelu):
        return {"family": "shifted_relu", "a": spec.a, "b": spec.b}
    return {"family": "linear", "g": spec.g}


def _resolve_activation(merged: dict):
    """Activation from an inline description or a tune.json file."""
    if merged.get("activation_file"):
        record = _load_config_file(merged["activation_file"])
        _require("spec" in record, "activation_file", "missing 'spec' entry")
        spec = _activation_from_dict(record["spec"], "activation_file.spec")
        sigma = float(record.get("params", {}).get("sigma", merged.get("sigma") or 1.0))
        return spec, sigma
    if merged.get("family"):
        d = {k: merged.get(k) for k in ("s", "g", "a", "b")}
        d = {k: v for k, v in d.items() if v is not None}
        d["family"] = merged["family"]
        return _activation_from_dict(d, "activation"), float(merged.get("sigma") or 1.0)
    return None, float(merged.get("sigma") or 1.0)


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_config(outdir: Path, command: str, merged: dict):
    record = {"version": __version__, "command": command}
    record.update({k: v for k, v in sorted(merged.items())})
    _write_json(outdir / "config.json", record)


def _outdir(merged: dict) -> Path:
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_matrix_dump(path, matrix: np.ndarray):
    """Row-major float64 dump: 16-byte header (magic "ISOM", version,
    rows, cols as little-endian uint32), then the payload."""
    matrix = np.asarray(matrix, dtype="<f8")
    if matrix.ndim != 2:
        raise ValueError("matrix dump needs a 2-D array")
    header = MATRIX_MAGIC + struct.pack("<III", MATRIX_VERSION, *matrix.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(matrix).tobytes())


def read_matrix_dump(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MATRIX_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    version, rows, cols = struct.unpack("<III", blob[4:16])
    if version != MATRIX_VERSION:
        raise ValueError(f"{path}: unsupported dump version {version}")
    expected = 16 + 8 * rows * cols
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(blob)}")
    return np.frombuffer(blob[16:], dtype="<f8").reshape(rows, cols)


# ----------------------------------------------------------------------
# SVG emission
# ----------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _svg_open(title: str) -> list:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect x="0" y="0" width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{CANVAS_W // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    return parts


def emit_svg_histogram(
    measure: SpectralMeasure,
    overlay: SpectralMeasure | None = None,
    *,
    bin_width: float = 0.1,
    log_y: bool = False,
    title: str = "",
) -> str:
    """Deterministic 800x600 SVG: the first measure as density-scale
    bars, the optional overlay as a density polyline with atom stems."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    measures = [measure] + ([overlay] if overlay is not None else [])
    lo = min(m.support_min() for m in measures)
    hi = max(m.support_max for m in measures)
    origin = math.floor(lo / bin_width) * bin_width
    n_bins = max(int(math.ceil((hi - origin) / bin_width)) + 1, 1)
    heights = _bin_masses(measure, origin, bin_width, n_bins) / bin_width

    x_lo, x_hi = origin, origin + n_bins * bin_width
    plot_w = CANVAS_W - MARGIN["left"] - MARGIN["right"]
    plot_h = CANVAS_H - MARGIN["top"] - MARGIN["bottom"]
    bottom = MARGIN["top"] + plot_h

    y_candidates = [heights.max() if len(heights) else 0.0]
    if overlay is not None:
        if overlay.density is not None:
            y_candidates.append(float(overlay.density.values.max()))
        y_candidates.extend(w / bin_width for _, w in overlay.atoms)
    y_max = max(max(y_candidates), 1e-12) * 1.05
    y_floor = y_max * 1e-4

    def xpix(x):
        return MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * plot_w

    def ypix(v):
        if log_y:
            v = max(v, y_floor)
            frac = math.log(v / y_floor) / math.log(y_max / y_floor)
        else:
            frac = max(v, 0.0) / y_max
        return bottom - frac * plot_h

    parts = _svg_open(title)
    for i, h in enumerate(heights):
        if h <= (y_floor if log_y else 0.0):
            continue
        x0 = xpix(origin + i * bin_width)
        x1 = xpix(origin + (i + 1) * bin_width)
        y0 = ypix(h)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(bottom - y0)}" fill="#9ecae1" stroke="#3182bd" stroke-width="0.5"/>'
        )
    for loc, w in measure.atoms:
        parts.append(
            f'<line x1="{_fmt(xpix(loc))}" y1="{_fmt(bottom)}" x2="{_fmt(xpix(loc))}" '
            f'y2="{_fmt(ypix(w / bin_width))}" stroke="#3182bd" stroke-width="2"/>'
        )
    if overlay is not None:
        if overlay.density is not None:
            pts = " ".join(
                f"{_fmt(xpix(x))},{_fmt(ypix(v))}"
                for x, v in zip(overlay.density.grid(), overlay.density.values)
            )
            parts.append(
                f'<polyline fill="none" stroke="#111111" stroke-width="1.5" points="{pts}"/>'
            )
        for loc, w in overlay.atoms:
            xp = _fmt(xpix(loc))
            yp = ypix(w / bin_width)
            parts.append(
                f'<line x1="{xp}" y1="{_fmt(bottom)}" x2="{xp}" y2="{_fmt(yp)}" '
                f'stroke="#d62728" stroke-width="2"/>'
            )
            parts.append(f'<circle cx="{xp}" cy="{_fmt(yp)}" r="3" fill="#d62728"/>')

    # axes and ticks
    parts.append(
        f'<line x1="{MARGIN["left"]}" y1="{bottom}" x2="{MARGIN["left"] + plot_w}" '
        f'y2="{bottom}" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN["left"]}" y1="{MARGIN["top"]}" x2="{MARGIN["left"]}" '
        f'y2="{bottom}" stroke="#000000" stroke-width="1"/>'
    )
    for i in range(6):
        x = x_lo + (x_hi - x_lo) * i / 5
        xp = _fmt(xpix(x))
        parts.append(
            f'<line x1="{xp}" y1="{bottom}" x2="{xp}" y2="{bottom + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp}" y="{bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(x)}</text>'
        )
    for i in range(5):
        frac = i / 4
        if log_y:
            v = y_floor * (y_max / y_floor) ** frac
        else:
            v = y_max * frac
        yp = _fmt(bottom - frac * plot_h)
        parts.append(
            f'<line x1="{MARGIN["left"] - 5}" y1="{yp}" x2="{MARGIN["left"]}" y2="{yp}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN["left"] - 8}" y="{yp}" text-anchor="end" dy="4" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>'
        )
    if overlay is not None:
        lx = CANVAS_W - MARGIN["right"] - 150
        ly = MARGIN["top"] + 10
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="14" height="10" fill="#9ecae1" stroke="#3182bd"/>'
        )
        parts.append(
            f'<text x="{lx + 20}" y="{ly + 9}" font-family="sans-serif" font-size="12">empirical</text>'
        )
        parts.append(
            f'<line x1="{lx}" y1="{ly + 25}" x2="{lx + 14}" y2="{ly + 25}" '
            f'stroke="#111111" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 20}" y="{ly + 29}" font-family="sans-serif" font-size="12">predicted</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg_heatmap(sweep, *, value: str = "train_acc", title: str = "") -> str:
    """Deterministic 800x600 heatmap over (depth, eta) with the 2/L line.

    Cells are colored by `value` (accuracy: white to blue); diverged
    cells are red. The y axis is the eta grid in log scale.
    """
    cells = sweep.cells
    if not cells:
        raise ValueError("empty sweep")
    depths = sorted({c.depth for c in cells})
    etas = sorted({c.eta for c in cells})
    if min(etas) <= 0:
        raise ValueError("heatmap needs positive learning rates")
    plot_w = CANVAS_W - MARGIN["left"] - MARGIN["right"]
    plot_h = CANVAS_H - MARGIN["top"] - MARGIN["bottom"]
    bottom = MARGIN["top"] + plot_h
    cw = plot_w / len(depths)
    ch = plot_h / len(etas)
    log_lo, log_hi = math.log(etas[0]), math.log(etas[-1])

    def cell_color(c):
        if c.diverged:
            return "#d62728"
        v = getattr(c, value)
        v = 0.0 if not math.isfinite(v) else min(max(v, 0.0), 1.0)
        r = round(255 + (8 - 255) * v)
        g = round(255 + (81 - 255) * v)
        b = round(255 + (156 - 255) * v)
        return f"#{r:02x}{g:02x}{b:02x}"

    def eta_to_y(eta):
        """Continuous y for the reference line: log-interpolated onto the
        cell-index scale so it lines up with the discrete rows."""
        if log_hi == log_lo:
            idx = 0.5
        else:
            pos = (math.log(eta) - log_lo) / (log_hi - log_lo) * (len(etas) - 1)
            idx = min(max(pos, -0.5), len(etas) - 0.5)
        return bottom - (idx + 0.5) * ch

    parts = _svg_open(title)
    lut = {(c.depth, c.eta): c for c in cells}
    for di, depth in enumerate(depths):
        for ei, eta in enumerate(etas):
            c = lut.get((depth, eta))
            if c is None:
                continue
            x0 = MARGIN["left"] + di * cw
            y0 = bottom - (ei + 1) * ch
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(cw)}" '
                f'height="{_fmt(ch)}" fill="{cell_color(c)}" stroke="#cccccc" '
                f'stroke-width="0.5"/>'
            )
    pts = " ".join(
        f"{_fmt(MARGIN['left'] + (di + 0.5) * cw)},{_fmt(eta_to_y(2.0 / depth))}"
        for di, depth in enumerate(depths)
    )
    parts.append(
        f'<polyline fill="none" stroke="#000000" stroke-width="2" '
        f'stroke-dasharray="6,4" points="{pts}"/>'
    )
    for di, depth in enumerate(depths):
        x = _fmt(MARGIN["left"] + (di + 0.5) * cw)
        parts.append(
            f'<text x="{x}" y="{bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{depth}</text>'
        )
    for ei, eta in enumerate(etas):
        y = _fmt(bottom - (ei + 0.5) * ch + 4)
        parts.append(
            f'<text x="{MARGIN["left"] - 8}" y="{y}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(eta)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN["left"] + plot_w // 2}" y="{CANVAS_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">depth</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

THEORY_DEFAULTS = {
    "out": "out",
    "depth": 3,
    "q": 1.0,
    "sigma": 1.0,
    "alpha": 0.75,
    "gamma": 1.0,
    "grid": 2048,
}


def _schedule_from_config(merged: dict) -> LayerSchedule:
    depth = int(merged["depth"])
    _require(depth >= 1, "depth", "must be at least 1")
    q = _as_float_list(merged["q"], "q", depth)
    sigma = _as_float_list(merged["sigma"], "sigma", depth)
    jacobians = ()
    if depth > 1:
        alpha = _as_float_list(merged["alpha"], "alpha", depth - 1)
        gamma = _as_float_list(merged["gamma"], "gamma", depth - 1)
        try:
            jacobians = tuple(TwoAtomJacobianLaw(a, c) for a, c in zip(alpha, gamma))
        except ValueError as exc:
            raise ConfigError(f"alpha/gamma: {exc}") from exc
    try:
        return LayerSchedule(q=tuple(q), sigma=tuple(sigma), jacobians=jacobians)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def cmd_theory(args) -> int:
    merged = _resolve(args, THEORY_DEFAULTS)
    outdir = _outdir(merged)
    schedule = _schedule_from_config(merged)
    grid = int(merged["grid"])

    measures = propagate_schedule(schedule, grid_count=grid)
    for i, mu in enumerate(measures, start=1):
        _write_json(outdir / f"mu_{i:03d}.json", mu.to_json_dict())

    track = max_support_track(schedule)
    rows = ["layer,lambda_max,beta,atom_valid"]
    for i, (lam, beta) in enumerate(zip(track.lam, track.beta), start=1):
        rows.append(f"{i},{lam:.10g},{beta:.10g},{int(i <= track.valid_depth)}")
    (outdir / "atom_track.csv").write_text("\n".join(rows) + "\n")

    limits = {
        "mean_track": mean_track(schedule),
        "lambda_max_track": list(track.lam),
        "eps1": None,
        "eps2": None,
        "asymptotic_max_per_depth": None,
        "asymptotic_mean_per_depth": None,
    }
    if schedule.depth > 1:
        nu = schedule.jacobians[-1]
        eps1, eps2 = di_conditions(nu.alpha, schedule.sigma[-1], nu.gamma, schedule.depth)
        limits["eps1"], limits["eps2"] = eps1, eps2
        if abs(eps1) < 1 and abs(eps2) < 1:
            regime = AsymptoticRegime(q=schedule.q[-1], eps1=eps1, eps2=eps2)
            limits["asymptotic_max_per_depth"] = asymptotic_max(regime)
            limits["asymptotic_mean_per_depth"] = theta_mean_limit(regime, 1.0)
    _write_json(outdir / "limits.json", limits)

    if schedule.depth == 3:
        nu1, nu2 = schedule.jacobians
        closed = solve_three_layer(
            schedule.q[0], schedule.q[1], schedule.q[2],
            schedule.sigma[1], schedule.sigma[2],
            nu1.alpha, nu2.alpha, nu1.gamma, nu2.gamma,
            grid_count=grid,
        )
        _write_json(outdir / "mu_003_closed.json", closed.to_json_dict())

    _write_config(outdir, "theory", merged)
    return 0


TUNE_DEFAULTS = {
    "out": "out",
    "mode": "di",
    "family": "hard_tanh",
    "s": 0.3535533905932738,
    "sigma": 1.0,
    "criterion": "sg2a",
    "depth": 16,
    "eps1": 0.1,
    "eps2": 0.0,
    "q_star": 1.0,
}


def cmd_tune(args) -> int:
    merged = _resolve(args, TUNE_DEFAULTS)
    outdir = _outdir(merged)
    mode = merged["mode"]
    try:
        if mode == "di":
            result = tune_di(
                family=merged["family"],
                sigma=float(merged["sigma"]),
                criterion=merged["criterion"],
                s=float(merged["s"]) if merged["family"] == "hard_tanh" else None,
            )
        elif mode == "constant_q":
            result = tune_constant_q(
                depth=int(merged["depth"]),
                eps1=float(merged["eps1"]),
                eps2=float(merged["eps2"]),
                q_star=float(merged["q_star"]),
            )
        else:
            raise ConfigError(f"mode: unknown mode {mode!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    record = {
        "version": __version__,
        "mode": mode,
        "criterion": result.criterion,
        "spec": _activation_to_dict(result.spec),
        "params": result.params.to_json_dict(),
        "eps1": result.eps1,
        "eps2": result.eps2,
        "ref_depth": result.ref_depth,
    }
    _write_json(outdir / "tune.json", record)
    _write_config(outdir, "tune", merged)
    print(f"tuned: {record['spec']} -> q={result.params.q:.6g} "
          f"alpha={result.params.alpha:.6g} gamma={result.params.gamma:.6g} "
          f"sigma={result.params.sigma:.6g}")
    return 0


SIMULATE_DEFAULTS = {
    "out": "out",
    "model": "network",
    "width": 200,
    "depth": 3,
    "seed": 0,
    "draws": 1,
    "bins": 0.1,
    "atom_window": None,
    "family": None,
    "s": None,
    "g": None,
    "a": None,
    "b": None,
    "sigma": None,
    "activation_file": None,
    "q": 1.0,
    "alpha": 0.75,
    "gamma": 1.0,
    "theory": None,
    "theory_auto": False,
    "dump_matrix": None,
}


def cmd_simulate(args) -> int:
    merged = _resolve(args, SIMULATE_DEFAULTS)
    outdir = _outdir(merged)
    width = int(merged["width"])
    depth = int(merged["depth"])
    draws = int(merged["draws"])
    bins = float(merged["bins"])
    seed = int(merged["seed"])
    _require(width >= 2, "width", "must be at least 2")
    _require(depth >= 1, "depth", "must be at least 1")
    _require(draws >= 1, "draws", "must be at least 1")
    _require(bins > 0, "bins", "must be positive")
    model = merged["model"]
    _require(model in ("network", "atoms"), "model", f"unknown model {model!r}")

    theory = None
    if merged["theory"]:
        try:
            theory = SpectralMeasure.from_json(Path(merged["theory"]).read_text())
        except OSError as exc:
            raise ConfigError(f"theory: {exc}") from exc
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"theory: bad measure file: {exc}") from exc

    values = []
    matrix = None
    if model == "network":
        spec, sigma = _resolve_activation(merged)
        _require(spec is not None, "activation", "need --family/--activation-file")
        for k in range(draws):
            net = OrthogonalNet.sample(width, depth, spec, sigma, seed + k)
            rng = np.random.default_rng((seed + k) ^ 0xA5A5)
            x = normalized_input(width, rng)
            matrix = dual_fim_recursive(net, forward_trace(net, x))
            values.append(np.linalg.eigvalsh(matrix))
        if merged["theory_auto"]:
            schedule = mean_field_schedule(spec, sigma, depth, q0=1.0)
            theory = propagate_schedule(schedule)[-1]
            _write_json(outdir / "theory.json", theory.to_json_dict())
    else:
        q = _as_float_list(merged["q"], "q", depth)
        sigma = _as_float_list(merged["sigma"] if merged["sigma"] is not None else 1.0,
                               "sigma", depth)
        alpha = _as_float_list(merged["alpha"], "alpha", depth - 1) if depth > 1 else []
        gamma = _as_float_list(merged["gamma"], "gamma", depth - 1) if depth > 1 else []
        for k in range(draws):
            rng = np.random.default_rng(seed + k)
            matrix = model_fim_sample(width, q, sigma, alpha, gamma, rng)
            values.append(np.linalg.eigvalsh(matrix))
        if merged["theory_auto"]:
            jac = tuple(TwoAtomJacobianLaw(a, c) for a, c in zip(alpha, gamma))
            schedule = LayerSchedule(q=tuple(q), sigma=tuple(sigma), jacobians=jac)
            theory = propagate_schedule(schedule)[-1]
            _write_json(outdir / "theory.json", theory.to_json_dict())

    rows = ["draw,index,eigenvalue,width,depth,seed"]
    for k, vals in enumerate(values):
        rows.extend(
            f"{k},{i},{v:.12g},{width},{depth},{seed + k}" for i, v in enumerate(vals)
        )
    (outdir / "eigenvalues.csv").write_text("\n".join(rows) + "\n")

    pooled = np.sort(np.concatenate(values))
    top = float(pooled[-1])
    window = 0.01 * max(abs(top), 1e-300)
    lo = float(pooled[0])
    # near-degenerate spectra can be narrower than 64 finite bins
    if top - lo <= 64 * np.spacing(max(abs(lo), abs(top), 1.0)):
        edges = np.array([lo - 0.5, top + 0.5])
        counts = np.array([len(pooled)])
    else:
        counts, edges = np.histogram(pooled, bins=64)
    report = EigenReport(
        eigenvalues=pooled,
        max=top,
        mean=float(pooled.mean()),
        histogram=(edges, counts),
        atom_mass_near_max=float(np.count_nonzero(pooled >= top - window)) / len(pooled),
    )
    atom_window = merged["atom_window"]
    empirical = empirical_measure(
        report, bins, atom_window=float(atom_window) if atom_window is not None else None
    )
    _write_json(outdir / "empirical.json", empirical.to_json_dict())
    svg = emit_svg_histogram(
        empirical, theory, bin_width=bins, log_y=True,
        title=f"spectrum M={width} L={depth} ({model})",
    )
    (outdir / "histogram.svg").write_text(svg)

    if theory is not None:
        compare = {
            "l1": distance_L1(empirical, theory, bins),
            "bin_width": bins,
            "empirical_max": report.max,
            "theory_max": theory.support_max,
            "empirical_mean": report.mean,
            "theory_mean": moment(theory, 1),
            "near_max_mass": report.atom_mass_near_max,
        }
        _write_json(outdir / "compare.json", compare)

    if merged["dump_matrix"]:
        write_matrix_dump(outdir / str(merged["dump_matrix"]), matrix)

    _write_config(outdir, "simulate", merged)
    return 0


SWEEP_DEFAULTS = {
    "out": "out",
    "width": 64,
    "depths": "4,8,16",
    "etas": None,
    "eta_min": 0.01,
    "eta_max": 1.0,
    "per_decade": 8,
    "steps": 500,
    "samples": 500,
    "classes": 10,
    "seed": 0,
    "eps1": 0.1,
    "eps2": 0.0,
    "family": None,
    "s": None,
    "g": None,
    "a": None,
    "b": None,
    "sigma": None,
    "activation_file": None,
    "idx_images": None,
    "idx_labels": None,
}


def cmd_sweep(args) -> int:
    merged = _resolve(args, SWEEP_DEFAULTS)
    outdir = _outdir(merged)
    width = int(merged["width"])
    depths = _as_int_list(merged["depths"], "depths")
    _require(all(d >= 1 for d in depths), "depths", "entries must be positive")
    if merged["etas"] is not None:
        etas = _as_floats_free(merged["etas"], "etas")
    else:
        lo, hi = float(merged["eta_min"]), float(merged["eta_max"])
        per_decade = int(merged["per_decade"])
        _require(0 < lo < hi, "eta_min", "need 0 < eta_min < eta_max")
        _require(per_decade >= 1, "per_decade", "must be positive")
        count = int(math.ceil(math.log10(hi / lo) * per_decade)) + 1
        etas = np.geomspace(lo, hi, count).tolist()
    _require(all(e > 0 for e in etas), "etas", "entries must be positive")

    spec, sigma = _resolve_activation(merged)
    if spec is None:
        tuned = tune_constant_q(
            depth=max(depths), eps1=float(merged["eps1"]), eps2=float(merged["eps2"])
        )
        spec, sigma = tuned.spec, tuned.params.sigma

    if merged["idx_images"]:
        _require(bool(merged["idx_labels"]), "idx_labels", "needed with idx_images")
        try:
            train = idx_dataset(merged["idx_images"], merged["idx_labels"],
                                classes=int(merged["classes"]))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"idx: {exc}") from exc
        test = None
    else:
        classes = min(int(merged["classes"]), width)
        train = synth_dataset(width, int(merged["samples"]), classes, int(merged["seed"]))
        test = synth_dataset(width, max(int(merged["samples"]) // 4, 1), classes,
                             int(merged["seed"]) + 1)
    _require(train.width == width, "width", f"dataset width {train.width} != {width}")

    base = TrainConfig(
        depth=depths[0],
        width=width,
        activation=spec,
        eta=etas[0],
        steps=int(merged["steps"]),
        sigma=sigma,
        seed=int(merged["seed"]),
    )
    result = lr_depth_sweep(depths, etas, base, train, test)

    (outdir / "sweep.csv").write_text("\n".join(result.to_csv_rows()) + "\n")
    boundary = {
        "boundary": {str(d): result.boundary[d] for d in depths},
        "reference_2_over_L": {str(d): 2.0 / d for d in depths},
        "activation": _activation_to_dict(spec),
        "sigma": sigma,
    }
    _write_json(outdir / "boundary.json", boundary)
    _write_json(outdir / "cells.json", {"cells": result.outcomes()})
    svg = emit_svg_heatmap(result, title=f"stability sweep M={width}")
    (outdir / "sweep.svg").write_text(svg)
    _write_config(outdir, "sweep", merged)
    if result.all_diverged():
        print("all sweep cells diverged", file=sys.stderr)
        return 4
    return 0


COMPARE_DEFAULTS = {"out": "out", "bins": 0.1, "a": None, "b": None}


def cmd_compare(args) -> int:
    merged = _resolve(args, COMPARE_DEFAULTS)
    _require(bool(merged["a"]) and bool(merged["b"]), "a/b", "need two measure files")
    outdir = _outdir(merged)
    bins = float(merged["bins"])
    _require(bins > 0, "bins", "must be positive")
    ms = {}
    for key in ("a", "b"):
        try:
            ms[key] = SpectralMeasure.from_json(Path(merged[key]).read_text())
        except OSError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{key}: bad measure file: {exc}") from exc
    l1 = distance_L1(ms["a"], ms["b"], bins)
    summary = {
        "l1": l1,
        "bin_width": bins,
        "a": {"path": str(merged["a"]), "max": ms["a"].support_max,
              "mean": moment(ms["a"], 1), "atom_mass": ms["a"].atom_mass()},
        "b": {"path": str(merged["b"]), "max": ms["b"].support_max,
              "mean": moment(ms["b"], 1), "atom_mass": ms["b"].atom_mass()},
    }
    _write_json(outdir / "compare.json", summary)
    print(f"L1 distance: {l1:.6g}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isospec",
        description="Limit spectra of deep orthogonal networks: theory vs simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for this command")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("theory", help="limit spectra along a layer schedule")
    common(p)
    p.add_argument("--depth", type=int)
    p.add_argument("--q", help="scalar or comma list, one per layer")
    p.add_argument("--sigma", help="scalar or comma list, one per layer")
    p.add_argument("--alpha", help="scalar or comma list, one per hidden layer")
    p.add_argument("--gamma", help="scalar or comma list, one per hidden layer")
    p.add_argument("--grid", type=int, help="density grid resolution")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("tune", help="tune activation parameters toward isometry")
    common(p)
    p.add_argument("--mode", choices=["di", "constant_q"])
    p.add_argument("--family", choices=["hard_tanh", "linear"])
    p.add_argument("--s", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--criterion", choices=["sg2", "sg2a"])
    p.add_argument("--depth", type=int)
    p.add_argument("--eps1", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("--q-star", dest="q_star", type=float)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", help="finite-width eigenvalue experiment")
    common(p)
    p.add_argument("--model", choices=["network", "atoms"])
    p.add_argument("--width", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--draws", type=int)
    p.add_argument("--bins", type=float, help="histogram bin width")
    p.add_argument("--atom-window", dest="atom_window", type=float,
                   help="relative window for isolating the top atom")
    p.add_argument("--family", choices=["hard_tanh", "shifted_relu", "linear"])
    p.add_argument("--s", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--sigma")
    p.add_argument("--activation-file", dest="activation_file",
                   help="tune.json produced by the tune command")
    p.add_argument("--q", help="atoms model: scalar or comma list")
    p.add_argument("--alpha", help="atoms model: scalar or comma list")
    p.add_argument("--gamma", help="atoms model: scalar or comma list")
    p.add_argument("--theory", help="measure JSON to compare against")
    p.add_argument("--theory-auto", dest="theory_auto", action="store_const", const=True,
                   help="derive the prediction from the schedule and compare")
    p.add_argument("--dump-matrix", dest="dump_matrix",
                   help="also dump the last H matrix under this filename")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="depth x learning-rate stability sweep")
    common(p)
    p.add_argument("--width", type=int)
    p.add_argument("--depths", help="comma list of depths")
    p.add_argument("--etas", help="explicit comma list of learning rates")
    p.add_argument("--eta-min", dest="eta_min", type=float)
    p.add_argument("--eta-max", dest="eta_max", type=float)
    p.add_argument("--per-decade", dest="per_decade", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps1", type=float, help="target depth-scaled saturation")
    p.add_argument("--eps2", type=float, help="target depth-scaled decay")
    p.add_argument("--family", choices=["hard_tanh", "shifted_relu", "linear"])
    p.add_argument("--s", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--activation-file", dest="activation_file")
    p.add_argument("--idx-images", dest="idx_images")
    p.add_argument("--idx-labels", dest="idx_labels")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="L1 distance between two measure files")
    common(p)
    p.add_argument("a", nargs="?", help="first measure JSON")
    p.add_argument("b", nargs="?", help="second measure JSON")
    p.add_argument("--bins", type=float)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
