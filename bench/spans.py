"""Spans around the calls between isospec's modules, for the traced run.

Nothing in `src/` is edited. `install` rebinds module attributes (and a
few class attributes) to wrappers that time each call, and `uninstall`
puts the originals back, so an untraced pass runs the program exactly as
shipped. Spans are aggregated per name as they close: call count, total
(inclusive) time, self time (total minus the time of child spans) and
the longest call. A few wrappers also record what the call returned,
such as the solver statistics of each free convolution.
"""

import inspect
import time
import types
from collections import defaultdict

MODULES = ("cli", "specmeasure", "freeconv", "meanfield", "rmtsim", "trainlab")

# Calls inside one module that the per-layer metrics need; every call
# from one module into another is wrapped without being listed.
INTRA_MODULE = {
    "cli": ("main",),
    "freeconv": ("free_mult_conv_two_atom",),
    "rmtsim": ("sample_haar_orthogonal",),
    "trainlab": ("train_run", "online_gd_step", "evaluate"),
}
# (module, class, attribute) wrapped on the class itself.
CLASS_METHODS = (
    ("rmtsim", "OrthogonalNet", "sample"),
    ("rmtsim", "OrthogonalNet", "__post_init__"),
    ("specmeasure", "SpectralMeasure", "to_json_dict"),
    ("specmeasure", "SpectralMeasure", "from_json"),
)
# The eigensolve cmd_simulate makes directly through numpy.
EIG_SPAN = "rmtsim.eigvalsh"


class SpanStats:
    __slots__ = ("count", "total", "self_time", "longest")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.longest = 0.0


class Tracer:
    """Per-name span aggregates plus the records some wrappers keep."""

    def __init__(self):
        self.spans = defaultdict(SpanStats)
        self.conv_stats = []  # (ConvolutionStats, poles of the input measure)
        self.conv_errors = 0
        self.fim_flops = 0.0
        self.step_durations = []
        self.cells_diverged = 0
        self.widths = set()
        self._child_time = [0.0]  # child time of each open span; [0] is the root

    def call(self, name, fn, args, kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            children = self._child_time.pop()
            self._child_time[-1] += dur
            s = self.spans[name]
            s.count += 1
            s.total += dur
            s.self_time += dur - children
            if dur > s.longest:
                s.longest = dur

    def covered(self) -> float:
        """Time inside top-level spans since the tracer was created."""
        return self._child_time[0]

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(s.self_time for n, s in self.spans.items() if n.startswith(prefix))

    def total(self, *names) -> float:
        return sum(self.spans[n].total for n in names if n in self.spans)

    def count(self, *names) -> int:
        return sum(self.spans[n].count for n in names if n in self.spans)


def _plain(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _conv(tracer, name, fn):
    """free_mult_conv_two_atom, always asked for its solver statistics."""

    def wrapper(mu, nu, *args, return_stats=False, **kwargs):
        poles = len(mu.atoms) + (mu.density.grid_count if mu.density is not None else 0)
        try:
            result, stats = tracer.call(
                name, fn, (mu, nu) + args, dict(kwargs, return_stats=True)
            )
        except Exception:
            tracer.conv_errors += 1
            raise
        tracer.conv_stats.append((stats, poles))
        return (result, stats) if return_stats else result

    return wrapper


def _fim(tracer, name, fn):
    """dual_fim_recursive: (L - 1) layers of two M x M products each."""

    def wrapper(net, trace):
        tracer.fim_flops += (net.depth - 1) * 4.0 * float(net.width) ** 3
        return tracer.call(name, fn, (net, trace), {})

    return wrapper


def _step(tracer, name, fn):
    def wrapper(*args, **kwargs):
        before = tracer.spans[name].total
        out = tracer.call(name, fn, args, kwargs)
        tracer.step_durations.append(tracer.spans[name].total - before)
        return out

    return wrapper


def _cell(tracer, name, fn):
    def wrapper(config, *args, **kwargs):
        run = tracer.call(name, fn, (config,) + args, kwargs)
        tracer.cells_diverged += bool(run.diverged)
        return run

    return wrapper


def _sample(tracer, name, fn):
    def wrapper(cls, width, *args, **kwargs):
        tracer.widths.add(width)
        return tracer.call(name, fn, (cls, width) + args, kwargs)

    return wrapper


SPECIAL = {
    "freeconv.free_mult_conv_two_atom": _conv,
    "rmtsim.dual_fim_recursive": _fim,
    "trainlab.online_gd_step": _step,
    "trainlab.train_run": _cell,
    "rmtsim.OrthogonalNet.sample": _sample,
}


def _wrapper(tracer, name, fn):
    return SPECIAL.get(name, _plain)(tracer, name, fn)


def _numpy_proxy(np, tracer):
    """Stand-in for `numpy` inside cli whose linalg.eigvalsh is traced."""
    linalg = types.SimpleNamespace(**vars(np.linalg))
    linalg.eigvalsh = _plain(tracer, EIG_SPAN, np.linalg.eigvalsh)
    proxy = types.SimpleNamespace(**vars(np))
    proxy.linalg = linalg
    return proxy


def install(isospec_modules: dict, tracer: Tracer) -> list:
    """Wrap the traced calls; returns what `uninstall` needs to undo it."""
    undo = []
    by_name = {m.__name__: short for short, m in isospec_modules.items()}

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for short, mod in isospec_modules.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ not in by_name:
                continue
            home = by_name[obj.__module__]
            if home != short or attr in INTRA_MODULE.get(short, ()):
                rebind(mod, attr, _wrapper(tracer, f"{home}.{obj.__name__}", obj))
    for short, cls_name, attr in CLASS_METHODS:
        cls = getattr(isospec_modules[short], cls_name)
        raw = cls.__dict__[attr]
        name = f"{short}.{cls_name}.{attr}"
        if isinstance(raw, classmethod):
            rebind(cls, attr, classmethod(_wrapper(tracer, name, raw.__func__)))
        else:
            rebind(cls, attr, _wrapper(tracer, name, raw))
    cli = isospec_modules["cli"]
    rebind(cli, "np", _numpy_proxy(cli.np, tracer))
    return undo


def uninstall(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
