"""Online gradient descent at the edge of stability.

Small training harness for the square orthogonal networks: IDX file
ingestion, synthetic cluster datasets with orthonormal class targets,
per-sample (online) gradient descent on the MSE loss ||f - y||^2 / (2M),
and the (depth, learning rate) sweep that locates the divergence
boundary to compare against eta = 2 / lambda_max. The sweep is the only
trainer: it steps the cells of one depth together as stacks of weights
and trains the stacks on worker processes. The weights are drawn, and
run forward, by rmtsim's code.
"""

import logging
import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _openblas
from .meanfield import ActivationSpec, layer_sigmas
from .rmtsim import _forward_layers, _haar_layers

logger = logging.getLogger(__name__)

# Reported losses are clamped at LOSS_CLAMP, and a cell diverges once a
# layer's Frobenius norm passes BLOWUP_FACTOR times its initial value.
LOSS_CLAMP = 10.0
BLOWUP_FACTOR = 1e3
# Byte budget for the weights of one group of sweep cells trained as a
# stack. At M = 64 a group holds 16 cells at depth 4, 8 at depth 8 and 4
# at depth 16.
GROUP_BYTES = 2 * 1024 * 1024

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


def load_idx(path) -> np.ndarray:
    """Parse an IDX file of unsigned bytes (image tensors or labels).

    Header: big-endian 32-bit magic (two zero bytes, dtype code 0x08,
    dimension count), then one big-endian 32-bit size per dimension,
    then the raw payload. Accepts the 3-D image magic 0x00000803 and
    the 1-D label magic 0x00000801.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise ValueError(f"{path}: only {len(blob)} bytes, no room for a magic")
    (magic,) = struct.unpack(">i", blob[:4])
    if magic == IDX_MAGIC_IMAGES:
        ndim = 3
    elif magic == IDX_MAGIC_LABELS:
        ndim = 1
    else:
        raise ValueError(f"{path}: bad magic 0x{magic:08x} at offset 0")
    header = 4 + 4 * ndim
    if len(blob) < header:
        raise ValueError(f"{path}: header needs {header} bytes, file has {len(blob)}")
    dims = struct.unpack(f">{ndim}i", blob[4:header])
    if any(d < 0 for d in dims):
        raise ValueError(f"{path}: negative dimension in {dims}")
    expected = header + int(np.prod(dims))
    if len(blob) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for dims {dims}, got {len(blob)} "
            f"(payload starts at offset {header})"
        )
    return np.frombuffer(blob[header:], dtype=np.uint8).reshape(dims)


@dataclass
class Dataset:
    """Inputs normalized to ||x||^2 / M = 1 with orthonormal class targets.

    targets[k] is the standard basis vector e_k in R^M, so the encoded
    target of sample i is targets[labels[i]] and top-1 prediction is the
    argmax of the first `classes` output coordinates.
    """

    inputs: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be (n, M)")
        n, m = self.inputs.shape
        if len(self.labels) != n:
            raise ValueError("one label per input required")
        if not 1 <= self.classes <= m:
            raise ValueError(f"classes must be in [1, {m}]")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise ValueError("labels must index into the class range")
        qhat = (self.inputs**2).sum(axis=1) / m
        worst = np.abs(qhat - 1.0).max()
        if worst > 1e-9:
            raise ValueError(f"inputs not normalized to q_hat = 1 (off by {worst:.2e})")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def width(self) -> int:
        return self.inputs.shape[1]

    @classmethod
    def from_arrays(cls, vectors: np.ndarray, labels: np.ndarray, classes: int) -> "Dataset":
        """Normalize raw vectors to q_hat = 1 and wrap them up."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError("vectors must be (n, M)")
        norms = np.linalg.norm(vectors, axis=1)
        dead = np.flatnonzero(norms == 0)
        if dead.size:
            raise ValueError(f"zero-norm input rows at indices {dead[:5].tolist()}")
        m = vectors.shape[1]
        scaled = vectors * (math.sqrt(m) / norms)[:, None]
        return cls(scaled, labels, classes)


def synth_dataset(M: int, n: int, classes: int, seed: int) -> Dataset:
    """Gaussian cluster dataset: per-class random centers plus unit noise,
    labels balanced, everything normalized to q_hat = 1."""
    if not 1 <= classes <= M:
        raise ValueError(f"classes must be in [1, {M}], got {classes}")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, M))
    labels = rng.permutation(np.arange(n) % classes)
    raw = centers[labels] + rng.standard_normal((n, M))
    return Dataset.from_arrays(raw, labels, classes)


def idx_dataset(images_path, labels_path, classes: int = 10) -> Dataset:
    """Flatten an IDX image/label pair into a normalized Dataset."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise ValueError("images file must hold a 3-D tensor")
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images vs {len(labels)} labels")
    flat = images.reshape(len(images), -1).astype(float)
    return Dataset.from_arrays(flat, labels.astype(int), classes)


def _row_dots(v: np.ndarray) -> np.ndarray:
    """v_i @ v_i for every row of v (..., K); each is the 1-D dot's bits."""
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of the (M, M) matrices of a (..., M, M) stack, each
    bit-equal to np.linalg.norm of the C-contiguous matrix."""
    return np.sqrt(_row_dots(stack.reshape(*stack.shape[:-2], -1)))


def _group_step(weights: np.ndarray, activation, x, y, etas, scratch: np.ndarray):
    """One SGD step on loss(x, y) = ||h^L - y||^2 / (2M) for a stack of
    cells, each on its own sample, updating the stack in place.

    weights is (L, A, M, M), x and y are (A, M), etas is (A,) and scratch
    is an (A, M, M) buffer. Returns the (A,) pre-update losses, an (A,)
    mask of the valid steps and the (L, A) norms after the update. A
    step is valid when its loss and gradient are finite; an invalid
    cell is stepped anyway and must be dropped or restored by the caller.

    Each layer is updated as soon as the backward pass is past it, while
    its weights are still in cache. The pre-update weights have been
    used by then, so every cell gets the bits of the plain step.
    """
    M = x.shape[-1]
    depth = len(weights)
    eta_list = etas.tolist()
    deltas = [None] * depth
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the checks below
        _, xs, hs = zip(*_forward_layers(weights, activation, x))
        resid = hs[-1] - y
        loss = _row_dots(resid) / (2.0 * M)
        delta = resid / M
        for ell in range(depth - 1, -1, -1):
            w = weights[ell]
            deltas[ell] = delta
            if ell > 0:
                back = np.matmul(w.transpose(0, 2, 1), delta[:, :, None])[:, :, 0]
            # einsum writes +0.0 where outer() gives -0.0, which can only
            # turn a -0.0 weight into +0.0; the sign of a zero never
            # reaches a loss, an accuracy or a check.
            np.einsum("ai,aj->aij", delta, xs[ell], out=scratch)
            for s, e in zip(scratch, eta_list):  # faster than broadcasting etas
                s *= e
            w -= scratch
            if ell > 0:
                delta = activation.deriv(hs[ell - 1]) * back
        # outer(delta, x) is finite exactly when max|delta| * max|x| is
        peaks = np.abs(np.stack(deltas)).max(axis=2) * np.abs(np.stack(xs)).max(axis=2)
        norms = _norms(weights)
    ok = np.isfinite(loss) & np.isfinite(peaks).all(axis=0)
    return loss, ok, norms


NONFINITE_LOSS = "nonfinite_loss"
NONFINITE_GRADIENT = "nonfinite_gradient"
NORM_BLOWUP = "norm_blowup"


@dataclass
class SweepCell:
    """One (depth, eta) cell: its metrics and how its run ended.

    A diverged cell records its cause: NONFINITE_LOSS, NONFINITE_GRADIENT
    or NORM_BLOWUP, the last with the first layer (1-based) whose norm
    passed its limit. `steps` counts the steps run, the divergent one
    included.
    """

    depth: int
    eta: float
    seed: int
    train_loss: float
    test_loss: float
    train_acc: float
    test_acc: float
    diverged: bool
    steps: int
    diverged_at: int | None = None
    cause: str | None = None
    layer: int | None = None


def _evaluate(weights, activation, data: Dataset):
    """Mean loss and top-1 accuracy of one cell's weights on a dataset.

    Samples go through in chunks, one mat-vec each, each (rows, M)
    activation taking at most 1/16 of GROUP_BYTES; the per-sample losses
    are summed left to right.
    """
    M = data.width
    rows = max(1, GROUP_BYTES // (16 * 8 * M))
    eye = np.eye(M)
    per_sample, hits = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, data.size, rows):
            inputs, labels = data.inputs[start : start + rows], data.labels[start : start + rows]
            for _, _, out in _forward_layers(weights, activation, inputs):
                pass
            per_sample.append(_row_dots(out - eye[labels]) / (2.0 * M))
            hits += int(np.count_nonzero(np.argmax(out[:, : data.classes], axis=1) == labels))
    total = float(np.add.accumulate(np.concatenate(per_sample))[-1])
    return total / data.size, hits / data.size


def _train_group(group, train: Dataset, test: Dataset | None, activation, steps: int, sigma):
    """Draw and train one group of cells side by side; one SweepCell per
    cell.

    `group` is (depth, cells), each cell an (eta, seed) pair; cell a
    starts from the network its seed draws (see _sampled_stack) and
    follows its own sample order. The stack of weights is (L, A, M, M).
    A cell leaves the stack at its divergence step: a step that is not
    finite, or a layer whose norm passes BLOWUP_FACTOR times its initial
    value. Survivors are evaluated one by one. Reported losses are
    clamped at LOSS_CLAMP.
    """
    depth, cells = group
    seeds = [seed for _, seed in cells]
    weights = _sampled_stack(depth, seeds, train.width, sigma)
    orders = np.stack(
        [np.random.default_rng(seed + 0x5EED).permutation(train.size) for seed in seeds]
    )
    etas = np.array([eta for eta, _ in cells])
    with np.errstate(over="ignore"):
        limits = BLOWUP_FACTOR * _norms(weights)
    eye = np.eye(train.width)
    stops = {}  # cell -> (step, cause, layer)
    live = np.arange(len(cells))
    scratch = np.empty_like(weights[0])
    for step in range(steps):
        if not live.size:
            break
        idx = orders[live, step % train.size]
        loss, ok, norms = _group_step(
            weights, activation, train.inputs[idx], eye[train.labels[idx]], etas[live],
            scratch[: live.size],
        )
        over = norms > limits[:, live]
        leave = ~ok | over.any(axis=0)
        if not leave.any():
            continue
        for k in np.flatnonzero(leave):
            if ok[k]:
                cause, layer = NORM_BLOWUP, int(np.argmax(over[:, k])) + 1
            else:
                cause = NONFINITE_LOSS if not math.isfinite(loss[k]) else NONFINITE_GRADIENT
                layer = None
            stops[int(live[k])] = (step, cause, layer)
        keep = np.flatnonzero(~leave)
        for w in weights:  # compact in place; the copy is one layer at most
            w[: keep.size] = w[keep]
        weights, live = weights[:, : keep.size], live[keep]

    out = []
    survivors = {int(cell): k for k, cell in enumerate(live)}
    no_test = (math.nan, math.nan)
    for cell, (eta, seed) in enumerate(cells):
        if cell in survivors:
            w = weights[:, survivors[cell]]
            train_loss, train_acc = _evaluate(w, activation, train)
            test_loss, test_acc = _evaluate(w, activation, test) if test is not None else no_test
            out.append(SweepCell(  # min(nan, LOSS_CLAMP) is nan: no test set stays NaN
                depth, eta, seed, min(train_loss, LOSS_CLAMP), min(test_loss, LOSS_CLAMP),
                train_acc, test_acc, diverged=False, steps=steps,
            ))
        else:
            step, cause, layer = stops[cell]
            test_loss, test_acc = (LOSS_CLAMP, 0.0) if test is not None else no_test
            out.append(SweepCell(
                depth, eta, seed, LOSS_CLAMP, test_loss, 0.0, test_acc, diverged=True,
                steps=step + 1, diverged_at=step, cause=cause, layer=layer,
            ))
    return out


# The settings a sweep's groups share: (train, test, activation, steps,
# sigma). _start_worker sets them once as a worker process starts; under
# fork the worker inherits them from the parent's memory, so the datasets
# are never pickled.
_shared = None

def _start_worker(shared: tuple, workers: int) -> None:
    global _shared
    _shared = shared
    _openblas.split_threads(workers)


def _train_shared(group):
    """_train_group on the worker's inherited settings."""
    return _train_group(group, *_shared)


def _worker_count(jobs: int) -> int:
    """Worker processes for `jobs` groups: one per CPU this process may
    run on, at most one per group."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def _train_groups(groups, shared: tuple) -> list:
    """_train_group on every group with the `shared` settings, the
    results in group order.

    The groups go to forked worker processes, one per _worker_count.
    Each worker inherits the shared settings at fork and takes its share
    of the BLAS threads (see _start_worker); only the groups and their
    results cross the pipes. The groups run here in turn instead
    with one worker, where fork is unavailable, or while another thread
    runs: a forked child gets no copy of that thread, and would wait
    forever on any lock it held. A worker's exception cancels the queued
    groups and is raised here, once every worker has been joined, so no
    process outlives the call.
    """
    workers = _worker_count(len(groups))
    context = None
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    if context is None:
        return [_train_group(group, *shared) for group in groups]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_start_worker,
        initargs=(shared, workers),
    ) as pool:
        try:
            return list(pool.map(_train_shared, groups))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _sampled_stack(depth: int, seeds, width: int, sigma) -> np.ndarray:
    """(L, A, M, M) initial weights, cell a drawn and checked as
    OrthogonalNet.sample(width, depth, ..., sigma, seeds[a]) draws its
    network."""
    sig = layer_sigmas(sigma, depth)
    stack = np.empty((depth, len(seeds), width, width))
    for k, seed in enumerate(seeds):
        for ell, w in enumerate(_haar_layers(width, sig, seed)):
            stack[ell, k] = w
    return stack


@dataclass
class SweepResult:
    """Grid of training outcomes plus the estimated stability boundary.

    boundary maps each depth to the geometric midpoint between the
    largest surviving and smallest diverging learning rate, or None when
    the grid never brackets the transition.
    """

    cells: list = field(default_factory=list)
    boundary: dict = field(default_factory=dict)

    def to_csv_rows(self):
        yield "L,eta,train_loss,test_loss,train_acc,test_acc,diverged"
        for c in self.cells:
            yield (
                f"{c.depth},{c.eta:.10g},{c.train_loss:.10g},{c.test_loss:.10g},"
                f"{c.train_acc:.10g},{c.test_acc:.10g},{int(c.diverged)}"
            )

    def outcomes(self) -> list:
        """How each cell's run ended, as JSON-ready dicts."""
        keys = ("depth", "eta", "seed", "steps", "diverged_at", "cause", "layer")
        return [{k: getattr(c, k) for k in keys} for c in self.cells]

    def all_diverged(self) -> bool:
        return bool(self.cells) and all(c.diverged for c in self.cells)


def estimate_boundary(etas, diverged_flags, depth=None):
    """Geometric midpoint between the largest stable and smallest diverged
    eta; None when the pattern never crosses. `depth`, if given, is named
    in the warning about a non-monotone pattern."""
    pairs = sorted(zip(etas, diverged_flags))
    stable = [e for e, d in pairs if not d]
    blown = [e for e, d in pairs if d]
    if not stable or not blown:
        return None
    lo, hi = max(stable), min(blown)
    if hi < lo:
        where = "" if depth is None else f" at depth {depth}"
        logger.warning(
            "non-monotone divergence pattern%s: stable at %g above diverged %g", where, lo, hi
        )
    return math.sqrt(lo * hi)


def lr_depth_sweep(
    depths,
    etas,
    train: Dataset,
    test: Dataset | None = None,
    *,
    activation: ActivationSpec,
    steps: int,
    sigma=1.0,
    seed: int = 0,
) -> SweepResult:
    """Run online gradient descent on every (depth, eta) cell and locate
    each depth's divergence boundary.

    Every cell trains a network of `activation` and the dataset's width,
    with weight scales `sigma` (one value, or one per layer), for `steps`
    steps. It draws that network from a seed derived from `seed` and the
    cell coordinates, and follows its own sample order. The cells of one
    depth train together in groups: a group's weights are copied into
    one stack of at most GROUP_BYTES, stepped with one batched mat-vec
    per layer, and a cell leaves the stack at its divergence step. No
    group shares work with another, so the groups of every depth are
    built first and trained in forked worker processes, one per
    available CPU (see _train_groups). The results are identical, bit
    for bit, to training each cell alone, one sample at a time, as the
    plain loop _ref_cell in tests/test_trainlab.py does. Each SweepCell
    also records how its run ended: the steps run, the divergence step
    and its cause, with the layer of a norm blow-up. A depth whose
    divergence is not monotone in eta gets one warning, from
    estimate_boundary.
    """
    depths = list(depths)
    etas = list(etas)
    if not depths or not etas:
        raise ValueError("depth and eta grids must be nonempty")
    if not all(0 <= eta < math.inf for eta in etas):
        raise ValueError("eta must be finite and nonnegative")
    if steps < 1 or train.width < 2:
        raise ValueError("steps >= 1 and width >= 2 required")
    if test is not None and test.width != train.width:
        raise ValueError(f"test width {test.width} does not match train width {train.width}")
    width = train.width
    groups = []
    for di, depth in enumerate(depths):
        layer_sigmas(sigma, depth)  # refuse a bad depth or sigma before any cell runs
        cells = [(eta, seed + 100_003 * di + 1_009 * ei) for ei, eta in enumerate(etas)]
        size = max(1, GROUP_BYTES // (depth * width * width * 8))
        groups += [(depth, cells[start : start + size]) for start in range(0, len(cells), size)]

    shared = (train, test, activation, steps, sigma)
    result = SweepResult([cell for cells in _train_groups(groups, shared) for cell in cells])
    for di, depth in enumerate(depths):
        row = result.cells[di * len(etas) : (di + 1) * len(etas)]
        result.boundary[depth] = estimate_boundary(
            etas, [cell.diverged for cell in row], depth=depth
        )
    return result
