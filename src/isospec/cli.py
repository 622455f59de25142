"""Command-line front end: theory, tune, simulate, sweep, compare.

Each command declares its flags once, in FLAGS. Every run resolves its
configuration (the table's defaults, then the --config JSON file, then
explicit flags), writes the resolved record to config.json beside the
outputs, and emits CSV/JSON/SVG files only; rerunning a saved
config.json through --config reproduces the outputs byte for byte. Exit
codes: 0 success, 2 config error, 3 numerical failure, 4 sweep with
nothing but divergence.
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
    DEFAULT_GRID,
    MIN_GRID,
    AsymptoticRegime,
    LayerError,
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
)
from .rmtsim import (
    EigenReport,
    empirical_measure,
    model_fim_sample,
    network_fim_sample,
    normalized_input,
)
from .specmeasure import NumericalError, SpectralMeasure, _bin_masses, distance_L1, moment
from .trainlab import TrainConfig, idx_dataset, lr_depth_sweep, synth_dataset

MATRIX_MAGIC = b"ISOM"
MATRIX_VERSION = 1

CANVAS_W, CANVAS_H = 800, 600
MARGIN = {"left": 70, "right": 24, "top": 34, "bottom": 52}
PLOT_W = CANVAS_W - MARGIN["left"] - MARGIN["right"]
PLOT_H = CANVAS_H - MARGIN["top"] - MARGIN["bottom"]
PLOT_BOTTOM = MARGIN["top"] + PLOT_H


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# ----------------------------------------------------------------------
# flag tables
# ----------------------------------------------------------------------

# Each command's flags: key -> (default, type, argparse extras). The
# flag is --key with "_" written "-", except that an operand (one with
# "nargs") is positional; its value is stored under key in the resolved
# configuration and in config.json. A type of None marks a list flag,
# kept as given and parsed by the command with _as_list.
_COMMON = {"out": ("out", str, {"help": "output directory"})}
_SCHEDULE = {
    "depth": (3, int, {}),
    "q": (1.0, None, {"help": "scalar or comma list, one per layer"}),
    "alpha": (0.75, None, {"help": "scalar or comma list, one per hidden layer"}),
    "gamma": (1.0, None, {"help": "scalar or comma list, one per hidden layer"}),
}
_ACTIVATION = {
    "family": (None, str, {"choices": ["hard_tanh", "shifted_relu", "linear"]}),
    "s": (None, float, {}),
    "g": (None, float, {}),
    "a": (None, float, {}),
    "b": (None, float, {}),
    "activation_file": (None, str, {"help": "tune.json produced by the tune command"}),
}
FLAGS = {
    "theory": {
        **_COMMON,
        **_SCHEDULE,
        "sigma": (1.0, None, {"help": "scalar or comma list, one per layer"}),
        "grid": (DEFAULT_GRID, int, {"help": "density grid resolution"}),
    },
    "tune": {
        **_COMMON,
        "mode": ("di", str, {"choices": ["di", "constant_q"],
                             "help": "di: sigma^2 gamma alpha = 1; constant_q: the given eps2"}),
        "depth": (16, int, {}),
        "eps1": (0.1, float, {}),
        "eps2": (0.0, float, {}),
        "q_star": (1.0, float, {}),
    },
    "simulate": {
        **_COMMON,
        "model": ("network", str, {"choices": ["network", "atoms"]}),
        "width": (200, int, {}),
        "seed": (0, int, {}),
        "draws": (1, int, {}),
        "bins": (0.1, float, {"help": "histogram bin width"}),
        "atom_window": (None, float, {"help": "relative window for isolating the top atom"}),
        **_ACTIVATION,
        **_SCHEDULE,
        "sigma": (None, None, {"help": "scalar or comma list, one per layer"}),
        "theory": (None, str, {"help": "measure JSON to compare against"}),
        "theory_auto": (False, bool, {
            "action": "store_const", "const": True,
            "help": "derive the prediction from the schedule and compare"}),
        "dump_matrix": (None, str, {"help": "also dump the last H matrix under this filename"}),
    },
    "sweep": {
        **_COMMON,
        "width": (64, int, {}),
        "depths": ("4,8,16", None, {"help": "comma list of depths"}),
        "etas": (None, None, {"help": "explicit comma list of learning rates"}),
        "eta_min": (0.01, float, {}),
        "eta_max": (1.0, float, {}),
        "per_decade": (8, int, {}),
        "steps": (500, int, {}),
        "samples": (500, int, {}),
        "classes": (10, int, {}),
        "seed": (0, int, {}),
        "eps1": (0.1, float, {"help": "target depth-scaled saturation"}),
        "eps2": (0.0, float, {"help": "target depth-scaled decay"}),
        **_ACTIVATION,
        "sigma": (None, float, {}),
        "idx_images": (None, str, {}),
        "idx_labels": (None, str, {}),
    },
    "compare": {
        **_COMMON,
        "a": (None, str, {"nargs": "?", "help": "first measure JSON"}),
        "b": (None, str, {"nargs": "?", "help": "second measure JSON"}),
        "bins": (0.1, float, {}),
    },
}
# (command, key, value) -> the flags that choice does not read; each must
# stay at its default, so that a saved config.json still replays.
UNREAD = {
    ("tune", "mode", "di"): ("eps2",),
    ("simulate", "model", "network"): ("q", "alpha", "gamma"),
    ("simulate", "model", "atoms"): tuple(_ACTIVATION),
}


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


def _resolve(args: argparse.Namespace) -> dict:
    """Table defaults <- config file <- explicit flags, by key.

    A saved config.json replays: its `command` must name this command
    and its `version` is ignored.
    """
    table = FLAGS[args.command]
    merged = {key: default for key, (default, _, _) in table.items()}
    if args.config:
        file_conf = _load_config_file(args.config)
        command = file_conf.pop("command", args.command)
        _require(command == args.command, "command",
                 f"config is for {command!r}, not {args.command!r}")
        file_conf.pop("version", None)
        unknown = set(file_conf) - set(table)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_conf.items():
            default, kind, _ = table[key]
            if kind is not None and (value is not None or default is not None):
                value = _typed(value, kind, key)
            merged[key] = value
    for key in table:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    for (command, choice, value), unread in UNREAD.items():
        if command == args.command and merged[choice] == value:
            for key in unread:
                default, kind, _ = table[key]
                same = (merged[key] == default if kind is not None
                        else _as_list(merged[key], key) == _as_list(default, key))
                _require(same, key, f"not read with --{choice} {value}")
    return merged


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _checked(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a rejected input as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _typed(value, kind, path: str):
    """`value` as `kind`: strings parse as on the command line, other
    values must convert unchanged (2.5 is not an int)."""
    out = _checked(path, kind, value)
    _require(out == value or (isinstance(value, str) and kind in (int, float)),
             path, f"{value!r} is not a {kind.__name__}")
    return out


def _as_list(value, path: str, kind=float, length: int | None = None) -> list:
    """A comma string, scalar or sequence as a nonempty list of `kind`;
    with `length`, a single value is broadcast to that many entries."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    out = [_typed(v, kind, path) for v in value]
    if length is not None and len(out) == 1:
        out *= length
    _require(bool(out), path, "list must be nonempty")
    _require(length is None or len(out) == length, path,
             f"expected {length} values, got {len(out)}")
    return out


# family -> (activation class, the parameters it reads)
FAMILIES = {
    "hard_tanh": (HardTanh, ("s", "g")),
    "shifted_relu": (ShiftedRelu, ("a", "b")),
    "linear": (Linear, ("g",)),
}


def _activation_from_dict(d: dict, path: str):
    _require(isinstance(d, dict), path, "activation must be an object")
    family = d.get("family")
    _require(isinstance(family, str) and family in FAMILIES, f"{path}.family",
             f"unknown family {family!r}")
    cls, keys = FAMILIES[family]
    return _checked(path, lambda: cls(**{k: float(d[k]) for k in keys}))


def _activation_to_dict(spec) -> dict:
    family = next(name for name, (cls, _) in FAMILIES.items() if isinstance(spec, cls))
    return {"family": family, **{k: getattr(spec, k) for k in FAMILIES[family][1]}}


def _resolve_activation(merged: dict):
    """(activation, sigma) from the inline flags or a tune.json file.

    Each source reads only its own flags: a file none of --family/--s/
    --g/--a/--b, a family only its own parameters, and without either
    source none of them is read. An explicit sigma wins over the file's;
    sigma is None when neither gives one, and the activation is None
    without a family or a file.
    """
    sigma, path, family = merged["sigma"], merged["activation_file"], merged["family"]
    if path:
        reads, source = (), "with --activation-file"
    elif family:
        _require(family in FAMILIES, "family", f"unknown family {family!r}")
        reads, source = ("family", *FAMILIES[family][1]), f"with --family {family}"
    else:
        reads, source = (), "without --family or --activation-file"
    for key in ("family", "s", "g", "a", "b"):
        _require(merged[key] is None or key in reads, key, f"not read {source}")
    if path:
        record = _load_config_file(path)
        _require("spec" in record, "activation_file", "missing 'spec' entry")
        spec = _activation_from_dict(record["spec"], "activation_file.spec")
        params = record.get("params", {})
        if sigma is None and "sigma" in params:
            sigma = _typed(params["sigma"], float, "activation_file.params.sigma")
        return spec, sigma
    if family:
        d = {k: merged[k] for k in reads if merged[k] is not None}
        return _activation_from_dict(d, "activation"), sigma
    return None, sigma


def _load_measure(path, key: str) -> SpectralMeasure:
    return _checked(key, lambda: SpectralMeasure.from_json(Path(path).read_text()))


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


def _text(x, y, label, size=11, attrs=' text-anchor="middle"') -> str:
    return (f'<text x="{x}" y="{y}"{attrs} font-family="sans-serif" '
            f'font-size="{size}">{label}</text>')


def _line(x1, y1, x2, y2, stroke="#000000", width=1) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _svg_open(title: str) -> list:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect x="0" y="0" width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(_text(CANVAS_W // 2, 20, title, 14))
    return parts


def _svg_close(parts: list) -> str:
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    left, bottom = MARGIN["left"], PLOT_BOTTOM

    y_candidates = [heights.max() if len(heights) else 0.0]
    if overlay is not None:
        if overlay.density is not None:
            y_candidates.append(float(overlay.density.values.max()))
        y_candidates.extend(w / bin_width for _, w in overlay.atoms)
    y_max = max(max(y_candidates), 1e-12) * 1.05
    y_floor = y_max * 1e-4

    def xpix(x):
        return left + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def ypix(v):
        if log_y:
            v = max(v, y_floor)
            frac = math.log(v / y_floor) / math.log(y_max / y_floor)
        else:
            frac = max(v, 0.0) / y_max
        return bottom - frac * PLOT_H

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
        xp = _fmt(xpix(loc))
        parts.append(_line(xp, _fmt(bottom), xp, _fmt(ypix(w / bin_width)), "#3182bd", 2))
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
            yp = _fmt(ypix(w / bin_width))
            parts.append(_line(xp, _fmt(bottom), xp, yp, "#d62728", 2))
            parts.append(f'<circle cx="{xp}" cy="{yp}" r="3" fill="#d62728"/>')

    # axes and ticks
    parts.append(_line(left, bottom, left + PLOT_W, bottom))
    parts.append(_line(left, MARGIN["top"], left, bottom))
    for i in range(6):
        x = x_lo + (x_hi - x_lo) * i / 5
        xp = _fmt(xpix(x))
        parts.append(_line(xp, bottom, xp, bottom + 5))
        parts.append(_text(xp, bottom + 20, _fmt(x)))
    for i in range(5):
        frac = i / 4
        if log_y:
            v = y_floor * (y_max / y_floor) ** frac
        else:
            v = y_max * frac
        yp = _fmt(bottom - frac * PLOT_H)
        parts.append(_line(left - 5, yp, left, yp))
        parts.append(_text(left - 8, yp, _fmt(v), attrs=' text-anchor="end" dy="4"'))
    if overlay is not None:
        lx = CANVAS_W - MARGIN["right"] - 150
        ly = MARGIN["top"] + 10
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="14" height="10" fill="#9ecae1" stroke="#3182bd"/>'
        )
        parts.append(_text(lx + 20, ly + 9, "empirical", 12, attrs=""))
        parts.append(_line(lx, ly + 25, lx + 14, ly + 25, "#111111", 1.5))
        parts.append(_text(lx + 20, ly + 29, "predicted", 12, attrs=""))
    return _svg_close(parts)


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
    left, bottom = MARGIN["left"], PLOT_BOTTOM
    cw = PLOT_W / len(depths)
    ch = PLOT_H / len(etas)
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
            x0 = left + di * cw
            y0 = bottom - (ei + 1) * ch
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(cw)}" '
                f'height="{_fmt(ch)}" fill="{cell_color(c)}" stroke="#cccccc" '
                f'stroke-width="0.5"/>'
            )
    pts = " ".join(
        f"{_fmt(left + (di + 0.5) * cw)},{_fmt(eta_to_y(2.0 / depth))}"
        for di, depth in enumerate(depths)
    )
    parts.append(
        f'<polyline fill="none" stroke="#000000" stroke-width="2" '
        f'stroke-dasharray="6,4" points="{pts}"/>'
    )
    for di, depth in enumerate(depths):
        parts.append(_text(_fmt(left + (di + 0.5) * cw), bottom + 20, depth))
    for ei, eta in enumerate(etas):
        y = _fmt(bottom - (ei + 0.5) * ch + 4)
        parts.append(_text(left - 8, y, _fmt(eta), 10, attrs=' text-anchor="end"'))
    parts.append(_text(left + PLOT_W // 2, CANVAS_H - 12, "depth", 12))
    return _svg_close(parts)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _schedule_from_config(merged: dict, sigma) -> LayerSchedule:
    depth = merged["depth"]
    _require(depth >= 1, "depth", "must be at least 1")
    q = _as_list(merged["q"], "q", length=depth)
    sigma = _as_list(sigma, "sigma", length=depth)
    jacobians = []
    if depth > 1:
        alpha = _as_list(merged["alpha"], "alpha", length=depth - 1)
        gamma = _as_list(merged["gamma"], "gamma", length=depth - 1)
        jacobians = [_checked("alpha/gamma", TwoAtomJacobianLaw, a, c)
                     for a, c in zip(alpha, gamma)]
    return _checked("schedule", LayerSchedule, q=tuple(q), sigma=tuple(sigma),
                    jacobians=tuple(jacobians))


def _write_layers(outdir: Path, schedule: LayerSchedule, measures, stats, failure=None):
    """mu_001.json onwards, and diagnostics.json: the solver's record of
    each layer (no wall times, so reruns are identical), then that of the
    LayerError `failure`, if the recursion stopped."""
    layers = []
    for i, (mu, st, m1) in enumerate(zip(measures, stats, mean_track(schedule)), start=1):
        _write_json(outdir / f"mu_{i:03d}.json", mu.to_json_dict())
        layers.append({
            "layer": i,
            "grid_count": st.grid_count,
            "newton_steps_max": st.iterations_max,
            "newton_steps_mean": st.iterations_mean,
            "continued": st.continued,
            "flagged": len(st.flagged),
            "mass_defect": st.mass_defect,
            "clamped": st.clamped,
            "mean_resid": abs(moment(mu, 1) - m1) / m1,
        })
    if failure is not None:
        layers.append({"layer": failure.layer, "error": failure.reason})
    _write_json(outdir / "diagnostics.json", {"layers": layers})


def cmd_theory(args) -> int:
    merged = _resolve(args)
    schedule = _schedule_from_config(merged, merged["sigma"])
    grid = merged["grid"]
    _require(grid >= MIN_GRID, "grid", f"must be at least {MIN_GRID}")
    outdir = _outdir(merged)

    try:
        measures, stats = propagate_schedule(schedule, grid_count=grid, return_stats=True)
    except LayerError as exc:
        # keep the layers that converged, and say where the recursion stopped
        _write_layers(outdir, schedule, exc.measures, exc.stats, failure=exc)
        raise
    _write_layers(outdir, schedule, measures, stats)

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


def cmd_tune(args) -> int:
    merged = _resolve(args)
    mode, depth, eps1, eps2 = (merged[k] for k in ("mode", "depth", "eps1", "eps2"))
    if mode == "di":
        # the critical line: sigma^2 gamma alpha = 1 at alpha = 1 - eps1/depth
        _require(0 < eps1 < depth, "eps1", "must be in (0, depth)")
        eps2 = depth * math.log1p(-eps1 / depth)
    elif mode != "constant_q":
        raise ConfigError(f"mode: unknown mode {mode!r}")
    result = _checked(
        "tune", tune_constant_q,
        depth=depth,
        eps1=eps1,
        eps2=eps2,
        q_star=merged["q_star"],
    )
    outdir = _outdir(merged)

    record = {
        "version": __version__,
        "mode": mode,
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


def cmd_simulate(args) -> int:
    merged = _resolve(args)
    width, depth, draws, bins, seed = (
        merged[k] for k in ("width", "depth", "draws", "bins", "seed"))
    _require(width >= 2, "width", "must be at least 2")
    _require(depth >= 1, "depth", "must be at least 1")
    _require(draws >= 1, "draws", "must be at least 1")
    _require(bins > 0, "bins", "must be positive")
    model = merged["model"]
    _require(model in ("network", "atoms"), "model", f"unknown model {model!r}")
    theory = _load_measure(merged["theory"], "theory") if merged["theory"] else None

    schedule = None
    if model == "network":
        spec, sigma = _resolve_activation(merged)
        _require(spec is not None, "activation", "need --family/--activation-file")
        sigma = _as_list(1.0 if sigma is None else sigma, "sigma", length=depth)
        _require(all(s > 0 for s in sigma), "sigma", "entries must be positive")
        if merged["theory_auto"]:
            schedule = _checked("schedule", mean_field_schedule, spec, sigma, depth, q0=1.0)
    else:
        sigma = 1.0 if merged["sigma"] is None else merged["sigma"]
        schedule = _schedule_from_config(merged, sigma)
    outdir = _outdir(merged)

    values = []
    matrix = None
    for k in range(draws):
        if model == "network":
            x = normalized_input(width, np.random.default_rng((seed + k) ^ 0xA5A5))
            matrix = network_fim_sample(width, depth, spec, sigma, seed + k, x)
        else:
            matrix = model_fim_sample(
                width, schedule.q, schedule.sigma,
                [nu.alpha for nu in schedule.jacobians], [nu.gamma for nu in schedule.jacobians],
                np.random.default_rng(seed + k),
            )
        values.append(np.linalg.eigvalsh(matrix))
    if merged["theory_auto"]:
        theory = propagate_schedule(schedule)[-1]
        _write_json(outdir / "theory.json", theory.to_json_dict())

    rows = ["draw,index,eigenvalue,width,depth,seed"]
    for k, vals in enumerate(values):
        rows.extend(
            f"{k},{i},{v:.12g},{width},{depth},{seed + k}" for i, v in enumerate(vals)
        )
    (outdir / "eigenvalues.csv").write_text("\n".join(rows) + "\n")

    report = EigenReport.from_eigenvalues(np.sort(np.concatenate(values)))
    empirical = empirical_measure(report, bins, atom_window=merged["atom_window"])
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
        write_matrix_dump(outdir / merged["dump_matrix"], matrix)

    _write_config(outdir, "simulate", merged)
    return 0


def cmd_sweep(args) -> int:
    merged = _resolve(args)
    width, seed, samples = merged["width"], merged["seed"], merged["samples"]
    depths = _as_list(merged["depths"], "depths", int)
    _require(all(d >= 1 for d in depths), "depths", "entries must be positive")
    if merged["etas"] is not None:
        etas = _as_list(merged["etas"], "etas")
    else:
        lo, hi, per_decade = merged["eta_min"], merged["eta_max"], merged["per_decade"]
        _require(0 < lo < hi, "eta_min", "need 0 < eta_min < eta_max")
        _require(per_decade >= 1, "per_decade", "must be positive")
        count = int(math.ceil(math.log10(hi / lo) * per_decade)) + 1
        etas = np.geomspace(lo, hi, count).tolist()
    _require(all(e > 0 for e in etas), "etas", "entries must be positive")

    spec, sigma = _resolve_activation(merged)
    if spec is None:
        tuned = _checked("tune", tune_constant_q,
                         depth=max(depths), eps1=merged["eps1"], eps2=merged["eps2"])
        spec = tuned.spec
        sigma = tuned.params.sigma if sigma is None else sigma
    sigma = 1.0 if sigma is None else sigma
    _require(sigma > 0, "sigma", "must be positive")

    if merged["idx_images"]:
        _require(bool(merged["idx_labels"]), "idx_labels", "needed with idx_images")
        train = _checked("idx", idx_dataset, merged["idx_images"], merged["idx_labels"],
                         classes=merged["classes"])
        test = None
    else:
        classes = min(merged["classes"], width)
        train = _checked("dataset", synth_dataset, width, samples, classes, seed)
        test = synth_dataset(width, max(samples // 4, 1), classes, seed + 1)
    _require(train.width == width, "width", f"dataset width {train.width} != {width}")
    base = _checked("sweep", TrainConfig, depth=depths[0], width=width, activation=spec,
                    eta=etas[0], steps=merged["steps"], sigma=sigma, seed=seed)
    outdir = _outdir(merged)

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


def cmd_compare(args) -> int:
    merged = _resolve(args)
    _require(bool(merged["a"]) and bool(merged["b"]), "a/b", "need two measure files")
    bins = merged["bins"]
    _require(bins > 0, "bins", "must be positive")
    ms = {key: _load_measure(merged[key], key) for key in ("a", "b")}
    outdir = _outdir(merged)
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
    _write_config(outdir, "compare", merged)
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
    for name, func, text in (
        ("theory", cmd_theory, "limit spectra along a layer schedule"),
        ("tune", cmd_tune, "tune activation parameters toward isometry"),
        ("simulate", cmd_simulate, "finite-width eigenvalue experiment"),
        ("sweep", cmd_sweep, "depth x learning-rate stability sweep"),
        ("compare", cmd_compare, "L1 distance between two measure files"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON file with defaults for this command, "
                                        "such as a saved config.json")
        for key, (_, kind, extras) in FLAGS[name].items():
            flag = key if "nargs" in extras else "--" + key.replace("_", "-")
            typed = {"type": kind} if kind in (int, float) else {}
            p.add_argument(flag, **typed, **extras)
        p.set_defaults(func=func)
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
