"""Tests for IDX ingestion, datasets, online gradient descent, and sweeps."""

import dataclasses
import logging
import math
import multiprocessing
import os
import pickle
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from isospec import trainlab
from isospec.meanfield import HardTanh, Linear, activation_apply, activation_deriv
from isospec.rmtsim import OrthogonalNet, normalized_input
from isospec.specmeasure import NumericalError
from isospec.trainlab import (
    NONFINITE_GRADIENT,
    NONFINITE_LOSS,
    NORM_BLOWUP,
    Dataset,
    SweepCell,
    TrainConfig,
    estimate_boundary,
    evaluate,
    idx_dataset,
    load_idx,
    lr_depth_sweep,
    online_gd_step,
    synth_dataset,
    train_run,
)


def _idx_bytes(magic: int, dims, payload: bytes) -> bytes:
    head = struct.pack(">i", magic)
    head += b"".join(struct.pack(">i", d) for d in dims)
    return head + payload


class TestLoadIdx:
    def test_reads_image_tensor(self, tmp_path):
        payload = bytes(range(24))
        path = tmp_path / "img.idx"
        path.write_bytes(_idx_bytes(0x00000803, (2, 3, 4), payload))
        arr = load_idx(path)
        assert arr.shape == (2, 3, 4)
        assert arr.dtype == np.uint8
        assert arr[1, 2, 3] == 23

    def test_reads_label_vector(self, tmp_path):
        path = tmp_path / "lbl.idx"
        path.write_bytes(_idx_bytes(0x00000801, (5,), bytes([0, 1, 2, 1, 0])))
        arr = load_idx(path)
        assert arr.shape == (5,)
        assert list(arr) == [0, 1, 2, 1, 0]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(_idx_bytes(0x00000999, (2,), bytes(2)))
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">i", 0x00000803) + struct.pack(">i", 2))
        with pytest.raises(ValueError, match="header needs 16 bytes, file has 8"):
            load_idx(path)

    def test_rejects_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "sizes.idx"
        path.write_bytes(_idx_bytes(0x00000801, (5,), bytes(3)))
        with pytest.raises(ValueError, match="expected 13 bytes"):
            load_idx(path)

    def test_rejects_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(ValueError, match="no room for a magic"):
            load_idx(path)


class TestIdxDataset:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(1, 255, size=(6, 2, 2), dtype=np.uint8)
        labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        ipath.write_bytes(_idx_bytes(0x00000803, images.shape, images.tobytes()))
        lpath.write_bytes(_idx_bytes(0x00000801, (6,), labels.tobytes()))
        data = idx_dataset(ipath, lpath, classes=3, limit=4)
        assert data.size == 4 and data.width == 4
        qhat = (data.inputs**2).sum(axis=1) / 4
        np.testing.assert_allclose(qhat, 1.0, atol=1e-12)

    def test_rejects_count_mismatch(self, tmp_path):
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        ipath.write_bytes(_idx_bytes(0x00000803, (2, 2, 2), bytes(range(1, 9))))
        lpath.write_bytes(_idx_bytes(0x00000801, (3,), bytes(3)))
        with pytest.raises(ValueError, match="2 images vs 3 labels"):
            idx_dataset(ipath, lpath, classes=2)


class TestDataset:
    def test_from_arrays_normalizes(self):
        raw = np.array([[3.0, 4.0, 0.0], [1.0, 1.0, 1.0]])
        data = Dataset.from_arrays(raw, [0, 1], classes=2)
        qhat = (data.inputs**2).sum(axis=1) / 3
        np.testing.assert_allclose(qhat, 1.0, atol=1e-12)

    def test_target_is_basis_vector(self):
        data = Dataset.from_arrays(np.ones((2, 4)), [0, 2], classes=3)
        np.testing.assert_array_equal(data.target(1), [0.0, 0.0, 1.0, 0.0])

    def test_rejects_unnormalized_direct_construction(self):
        with pytest.raises(ValueError, match="not normalized"):
            Dataset(2.0 * np.ones((2, 4)), [0, 1], classes=2)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="zero-norm"):
            Dataset.from_arrays(np.array([[1.0, 1.0], [0.0, 0.0]]), [0, 0], classes=1)

    def test_rejects_bad_labels_and_classes(self):
        raw = np.ones((2, 4))
        with pytest.raises(ValueError):
            Dataset.from_arrays(raw, [0, 5], classes=3)
        with pytest.raises(ValueError):
            Dataset.from_arrays(raw, [0, 1], classes=5)


class TestSynthDataset:
    def test_seed_determinism(self):
        da = synth_dataset(16, 20, 4, seed=7)
        db = synth_dataset(16, 20, 4, seed=7)
        np.testing.assert_array_equal(da.inputs, db.inputs)
        np.testing.assert_array_equal(da.labels, db.labels)
        dc = synth_dataset(16, 20, 4, seed=8)
        assert not np.array_equal(da.inputs, dc.inputs)

    def test_labels_balanced(self):
        data = synth_dataset(8, 21, 3, seed=0)
        counts = np.bincount(data.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_guards(self):
        with pytest.raises(ValueError):
            synth_dataset(4, 10, 5, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(4, 0, 2, seed=0)


def _loss_of(net: OrthogonalNet, x: np.ndarray, y: np.ndarray) -> float:
    cur = x
    for ell in range(net.depth):
        h = net.weights[ell] @ cur
        if ell < net.depth - 1:
            cur = activation_apply(net.activation, h)
    return float((h - y) @ (h - y)) / (2.0 * net.width)


class TestOnlineGdStep:
    def test_zero_eta_leaves_weights(self):
        net = OrthogonalNet.sample(8, 2, Linear(1.0), seed=0)
        before = [w.copy() for w in net.weights]
        x = normalized_input(8, np.random.default_rng(0))
        y = np.zeros(8)
        loss, ok = online_gd_step(net, x, y, 0.0)
        assert ok
        for w0, w1 in zip(before, net.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_reported_loss_matches_definition(self):
        net = OrthogonalNet.sample(8, 3, HardTanh(s=1.0, g=1.0), seed=3)
        x = normalized_input(8, np.random.default_rng(3))
        y = np.zeros(8)
        y[0] = 1.0
        expected = _loss_of(net, x, y)
        loss, ok = online_gd_step(net.copy(), x, y, 0.1)
        assert ok
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradient_against_finite_differences(self):
        # seed 3 keeps every preactivation well away from the kink
        net = OrthogonalNet.sample(8, 3, HardTanh(s=1.0, g=1.0), seed=3)
        x = normalized_input(8, np.random.default_rng(3))
        y = np.zeros(8)
        y[0] = 1.0
        stepped = net.copy()
        online_gd_step(stepped, x, y, 1.0)
        grads = [w0 - w1 for w0, w1 in zip(net.weights, stepped.weights)]
        h = 1e-6
        rng = np.random.default_rng(99)
        for ell in range(3):
            for _ in range(4):
                i, j = rng.integers(0, 8, size=2)
                plus, minus = net.copy(), net.copy()
                plus.weights[ell][i, j] += h
                minus.weights[ell][i, j] -= h
                fd = (_loss_of(plus, x, y) - _loss_of(minus, x, y)) / (2 * h)
                assert abs(fd - grads[ell][i, j]) < 1e-5

    def test_nonfinite_loss_reports_failure(self):
        net = OrthogonalNet.sample(8, 2, Linear(1.0), seed=0)
        net.weights[0] *= 1e200
        before = [w.copy() for w in net.weights]
        x = normalized_input(8, np.random.default_rng(0))
        loss, ok = online_gd_step(net, x, np.zeros(8), 0.1)
        assert not ok
        for w0, w1 in zip(before, net.weights):
            np.testing.assert_array_equal(w0, w1)


class TestEvaluate:
    def test_matches_single_step_loss(self):
        data = synth_dataset(8, 1, 2, seed=4)
        net = OrthogonalNet.sample(8, 2, Linear(1.0), seed=4)
        probe = net.copy()
        loss, _ = online_gd_step(probe, data.inputs[0], data.target(0), 0.0)
        mean_loss, acc = evaluate(net, data)
        assert mean_loss == pytest.approx(loss, abs=1e-12)
        assert 0.0 <= acc <= 1.0


class TestTrainRun:
    def test_small_eta_descends(self):
        data = synth_dataset(16, 32, 4, seed=0)
        cfg = TrainConfig(depth=1, width=16, activation=Linear(1.0), eta=1e-2, steps=200, seed=1)
        r = train_run(cfg, data)
        assert not r.diverged
        assert r.losses[-20:].mean() < r.losses[:20].mean()

    def test_moderate_eta_completes(self):
        data = synth_dataset(16, 32, 4, seed=0)
        cfg = TrainConfig(
            depth=4, width=16, activation=HardTanh(s=1.0, g=1.0), eta=0.1, steps=100, seed=2
        )
        r = train_run(cfg, data)
        assert not r.diverged
        assert r.train_loss < 0.5

    def test_extreme_eta_diverges_and_clamps(self):
        data = synth_dataset(16, 32, 4, seed=0)
        cfg = TrainConfig(
            depth=4, width=16, activation=HardTanh(s=1.0, g=1.0), eta=80.0, steps=100, seed=2
        )
        r = train_run(cfg, data)
        assert r.diverged and r.diverged_at is not None
        assert r.train_loss == cfg.loss_clamp
        assert r.train_acc == 0.0
        assert r.losses.max() <= cfg.loss_clamp

    def test_seeded_runs_are_identical(self):
        data = synth_dataset(16, 32, 4, seed=0)
        cfg = TrainConfig(depth=2, width=16, activation=Linear(1.0), eta=0.05, steps=50, seed=5)
        ra, rb = train_run(cfg, data), train_run(cfg, data)
        np.testing.assert_array_equal(ra.losses, rb.losses)

    def test_test_metrics_follow_dataset_presence(self):
        data = synth_dataset(16, 32, 4, seed=0)
        test = synth_dataset(16, 16, 4, seed=9)
        cfg = TrainConfig(depth=1, width=16, activation=Linear(1.0), eta=0.01, steps=20, seed=0)
        with_test = train_run(cfg, data, test)
        assert math.isfinite(with_test.test_loss)
        assert 0.0 <= with_test.test_acc <= 1.0
        without = train_run(cfg, data)
        assert math.isnan(without.test_loss) and math.isnan(without.test_acc)

    def test_rejects_width_mismatch(self):
        data = synth_dataset(8, 8, 2, seed=0)
        cfg = TrainConfig(depth=1, width=16, activation=Linear(1.0), eta=0.01, steps=5)
        with pytest.raises(ValueError):
            train_run(cfg, data)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(depth=1, width=16, activation=Linear(1.0), eta=-0.1, steps=5)
        with pytest.raises(ValueError):
            TrainConfig(depth=0, width=16, activation=Linear(1.0), eta=0.1, steps=5)
        with pytest.raises(ValueError):
            TrainConfig(depth=1, width=16, activation=Linear(1.0), eta=0.1, steps=5, blowup_factor=0.5)


class TestEstimateBoundary:
    def test_geometric_midpoint(self):
        got = estimate_boundary([0.1, 0.2, 0.4], [False, False, True])
        assert got == pytest.approx(math.sqrt(0.2 * 0.4))

    def test_handles_unsorted_input(self):
        got = estimate_boundary([0.4, 0.1, 0.2], [True, False, False])
        assert got == pytest.approx(math.sqrt(0.2 * 0.4))

    def test_no_crossing_returns_none(self):
        assert estimate_boundary([0.1, 0.2], [False, False]) is None
        assert estimate_boundary([0.1, 0.2], [True, True]) is None

    def test_non_monotone_pattern_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="isospec.trainlab"):
            got = estimate_boundary([0.1, 0.2, 0.4], [False, True, False])
        assert got == pytest.approx(math.sqrt(0.4 * 0.2))
        assert "non-monotone" in caplog.text


class TestLrDepthSweep:
    def _base(self):
        return TrainConfig(
            depth=1, width=16, activation=HardTanh(s=1.0, g=1.0), eta=0.1, steps=40, seed=3
        )

    def test_grid_and_boundary(self):
        data = synth_dataset(16, 32, 4, seed=0)
        sw = lr_depth_sweep([1, 2], [1e-3, 80.0], self._base(), data)
        assert len(sw.cells) == 4
        assert sw.boundary[1] == pytest.approx(math.sqrt(1e-3 * 80.0))
        assert sw.boundary[2] == pytest.approx(math.sqrt(1e-3 * 80.0))
        assert not sw.all_diverged()
        seeds = [c.seed for c in sw.cells]
        assert len(set(seeds)) == len(seeds)

    def test_csv_rows(self):
        data = synth_dataset(16, 32, 4, seed=0)
        sw = lr_depth_sweep([1], [1e-3, 80.0], self._base(), data)
        rows = list(sw.to_csv_rows())
        assert rows[0] == "L,eta,train_loss,test_loss,train_acc,test_acc,diverged"
        assert len(rows) == 3
        assert all(row.split(",")[-1] in ("0", "1") for row in rows[1:])

    def test_all_diverged_grid(self):
        data = synth_dataset(16, 32, 4, seed=0)
        sw = lr_depth_sweep([2], [60.0, 90.0], self._base(), data)
        assert sw.all_diverged()
        assert sw.boundary[2] is None

    def test_rejects_empty_grids(self):
        data = synth_dataset(16, 32, 4, seed=0)
        with pytest.raises(ValueError):
            lr_depth_sweep([], [0.1], self._base(), data)
        with pytest.raises(ValueError):
            lr_depth_sweep([1], [], self._base(), data)


# ----------------------------------------------------------------------
# Reference: one cell at a time, one sample at a time, as a plain loop.
# The stacked sweep must reproduce it bit for bit.
# ----------------------------------------------------------------------


def _ref_forward(weights, activation, x):
    xs, hs = [x], []
    for ell, w in enumerate(weights):
        h = w @ xs[-1]
        hs.append(h)
        if ell < len(weights) - 1:
            xs.append(activation_apply(activation, h))
    return xs, hs


def _ref_step(weights, activation, x, y, eta):
    M = len(x)
    xs, hs = _ref_forward(weights, activation, x)
    resid = hs[-1] - y
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(resid @ resid) / (2.0 * M)
        if not math.isfinite(loss):
            return loss, NONFINITE_LOSS
        delta = resid / M
        grads = [None] * len(weights)
        for ell in range(len(weights) - 1, -1, -1):
            grads[ell] = np.outer(delta, xs[ell])
            if ell > 0:
                back = weights[ell].T @ delta
                delta = activation_deriv(activation, hs[ell - 1]) * back
    if not all(np.all(np.isfinite(g)) for g in grads):
        return loss, NONFINITE_GRADIENT
    with np.errstate(over="ignore"):
        for w, g in zip(weights, grads):
            w -= eta * g
    return loss, None


def _ref_evaluate(weights, activation, data):
    total, hits = 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(data.size):
            _, hs = _ref_forward(weights, activation, data.inputs[i])
            resid = hs[-1] - data.target(i)
            total += float(resid @ resid) / (2.0 * data.width)
            hits += int(np.argmax(hs[-1][: data.classes]) == data.labels[i])
    return total / data.size, hits / data.size


def _ref_cell(config, train, test):
    """(SweepCell, clamped per-step losses) of one cell."""
    net = OrthogonalNet.sample(
        config.width, config.depth, config.activation, config.sigma, config.seed
    )
    weights = net.weights
    order = np.random.default_rng(config.seed + 0x5EED).permutation(train.size)
    with np.errstate(over="ignore"):
        limits = [config.blowup_factor * np.linalg.norm(w) for w in weights]
    losses, stop = [], None
    for step in range(config.steps):
        i = int(order[step % train.size])
        loss, cause = _ref_step(weights, config.activation, train.inputs[i], train.target(i),
                                config.eta)
        losses.append(min(loss, config.loss_clamp) if math.isfinite(loss) else config.loss_clamp)
        if cause is not None:
            stop = (step, cause, None)
            break
        with np.errstate(over="ignore"):
            over = [np.linalg.norm(w) > lim for w, lim in zip(weights, limits)]
        if any(over):
            stop = (step, NORM_BLOWUP, over.index(True) + 1)
            break
    clamp = config.loss_clamp
    if stop is None:
        train_loss, train_acc = _ref_evaluate(weights, config.activation, train)
        train_loss = min(train_loss, clamp)
        test_loss, test_acc = math.nan, math.nan
        if test is not None:
            test_loss, test_acc = _ref_evaluate(weights, config.activation, test)
            test_loss = min(test_loss, clamp)
        diverged_at, cause, layer = None, None, None
    else:
        train_loss, train_acc = clamp, 0.0
        test_loss, test_acc = (clamp, 0.0) if test is not None else (math.nan, math.nan)
        diverged_at, cause, layer = stop
    cell = SweepCell(
        depth=config.depth, eta=config.eta, seed=config.seed, train_loss=train_loss,
        test_loss=test_loss, train_acc=train_acc, test_acc=test_acc,
        diverged=stop is not None, steps=len(losses), diverged_at=diverged_at,
        cause=cause, layer=layer,
    )
    return cell, np.asarray(losses)


def _ref_sweep(depths, etas, base, train, test):
    cells, boundary = [], {}
    for di, depth in enumerate(depths):
        row = []
        for ei, eta in enumerate(etas):
            config = dataclasses.replace(
                base, depth=depth, eta=eta, seed=base.seed + 100_003 * di + 1_009 * ei
            )
            row.append(_ref_cell(config, train, test)[0])
        cells += row
        boundary[depth] = estimate_boundary(etas, [c.diverged for c in row])
    return cells, boundary


def _same(a, b) -> bool:
    """Equal values of equal type, NaN matching NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _assert_same_cells(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(SweepCell):
            gv, wv = getattr(g, f.name), getattr(w, f.name)
            assert _same(gv, wv), f"{f.name}: {gv!r} != {wv!r} in {w}"


# survivors and norm blow-ups; survivors, a non-finite loss and a norm
# blow-up; a non-finite gradient with a finite loss
SWEEP_GRIDS = {
    "hard_tanh": dict(
        width=16, classes=4, depths=[1, 2, 3], etas=[1e-3, 0.5, 3.0, 80.0],
        config=dict(activation=HardTanh(s=1.0, g=1.0), steps=40, seed=3),
    ),
    "linear_overflow": dict(
        width=16, classes=4, depths=[1, 3], etas=[1e-3, 0.5, 1e100, 1e250],
        config=dict(activation=Linear(1.0), steps=40, seed=3, blowup_factor=1e200),
    ),
    "gradient_overflow": dict(
        width=8, classes=2, depths=[2], etas=[1e-3, 0.1],
        config=dict(activation=Linear(1.0), steps=5, seed=0, sigma=(1e160, 1e-7)),
    ),
}


def _grid_inputs(name, with_test):
    grid = SWEEP_GRIDS[name]
    m = grid["width"]
    train = synth_dataset(m, 32, grid["classes"], seed=0)
    test = synth_dataset(m, 8, grid["classes"], seed=1) if with_test else None
    base = TrainConfig(depth=grid["depths"][0], width=m, eta=grid["etas"][0], **grid["config"])
    return grid["depths"], grid["etas"], base, train, test


class TestStackedSweepMatchesReference:
    @pytest.mark.parametrize("with_test", [False, True])
    @pytest.mark.parametrize("name", sorted(SWEEP_GRIDS))
    def test_cells_and_boundaries_bit_equal(self, name, with_test):
        depths, etas, base, train, test = _grid_inputs(name, with_test)
        got = lr_depth_sweep(depths, etas, base, train, test)
        cells, boundary = _ref_sweep(depths, etas, base, train, test)
        _assert_same_cells(got.cells, cells)
        assert list(got.boundary) == list(boundary)
        for depth in depths:
            assert _same(got.boundary[depth], boundary[depth])

    def test_grids_cover_every_outcome(self):
        causes = set()
        for name in SWEEP_GRIDS:
            causes |= {c.cause for c in lr_depth_sweep(*_grid_inputs(name, False)).cells}
        assert causes == {None, NORM_BLOWUP, NONFINITE_LOSS, NONFINITE_GRADIENT}

    @pytest.mark.parametrize("name", sorted(SWEEP_GRIDS))
    def test_one_cell_groups_give_the_same_result(self, name, monkeypatch):
        inputs = _grid_inputs(name, True)
        grouped = lr_depth_sweep(*inputs)
        monkeypatch.setattr(trainlab, "GROUP_BYTES", 1)
        single = lr_depth_sweep(*inputs)
        _assert_same_cells(single.cells, grouped.cells)
        assert single.boundary == grouped.boundary

    def test_train_run_matches_reference(self):
        depths, etas, base, train, test = _grid_inputs("hard_tanh", True)
        for eta in etas:
            config = dataclasses.replace(base, depth=3, eta=eta)
            run = train_run(config, train, test)
            cell, losses = _ref_cell(config, train, test)
            assert np.array_equal(run.losses, losses)
            assert (run.diverged, run.diverged_at, run.cause, run.layer) == (
                cell.diverged, cell.diverged_at, cell.cause, cell.layer)
            for key in ("train_loss", "train_acc", "test_loss", "test_acc"):
                assert _same(getattr(run, key), getattr(cell, key))

    def test_outcomes_record_each_cell(self):
        sw = lr_depth_sweep(*_grid_inputs("linear_overflow", False))
        records = sw.outcomes()
        assert len(records) == len(sw.cells)
        for rec, cell in zip(records, sw.cells):
            assert set(rec) == {"depth", "eta", "seed", "steps", "diverged_at", "cause", "layer"}
            assert rec["steps"] == (cell.diverged_at + 1 if cell.diverged else 40)
            assert (rec["layer"] is not None) == (rec["cause"] == NORM_BLOWUP)


def _two_workers(jobs):
    return min(2, jobs)


def _one_worker(jobs):
    return 1


def _pids(path) -> set:
    return set(path.read_text().split())


@pytest.fixture
def draw_pids(monkeypatch, tmp_path):
    """A file that gets the process id of each group's draw, one a line."""
    pids = tmp_path / "pids"
    draw = trainlab._sampled_stack

    def logged_draw(configs):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return draw(configs)

    monkeypatch.setattr(trainlab, "_sampled_stack", logged_draw)
    return pids


class _UnpicklableDataset(trainlab.Dataset):
    """A dataset that fails the moment anything pickles it."""

    def __reduce__(self):
        raise AssertionError("dataset pickled")


class TestSweepWorkers:
    """The sweep's groups trained in forked worker processes."""

    def test_datasets_reach_workers_unpickled(self, monkeypatch, draw_pids):
        depths, etas, base, train, test = _grid_inputs("hard_tanh", True)
        alone = lr_depth_sweep(depths, etas, base, train, test)
        train, test = (_UnpicklableDataset(d.inputs, d.labels, d.classes) for d in (train, test))
        with pytest.raises(AssertionError, match="dataset pickled"):
            pickle.dumps(train)  # the guard works
        monkeypatch.setattr(trainlab, "GROUP_BYTES", 1)  # one group per cell
        monkeypatch.setattr(trainlab, "_worker_count", _two_workers)
        pooled = lr_depth_sweep(depths, etas, base, train, test)
        assert str(os.getpid()) not in _pids(draw_pids)
        _assert_same_cells(pooled.cells, alone.cells)

    @pytest.mark.parametrize("group_bytes", [trainlab.GROUP_BYTES, 1])
    @pytest.mark.parametrize("name", sorted(SWEEP_GRIDS))
    def test_pooled_sweep_bit_equal_to_in_process(self, name, group_bytes, monkeypatch,
                                                   draw_pids):
        inputs = _grid_inputs(name, True)
        monkeypatch.setattr(trainlab, "GROUP_BYTES", group_bytes)
        monkeypatch.setattr(trainlab, "_worker_count", _two_workers)
        pooled = lr_depth_sweep(*inputs)
        workers = _pids(draw_pids)
        groups = len(draw_pids.read_text().split())
        draw_pids.unlink()
        monkeypatch.setattr(trainlab, "_worker_count", _one_worker)
        alone = lr_depth_sweep(*inputs)
        assert _pids(draw_pids) == {str(os.getpid())}
        if groups > 1:  # one group takes one worker: no pool
            assert str(os.getpid()) not in workers
        _assert_same_cells(pooled.cells, alone.cells)
        assert list(pooled.boundary) == list(alone.boundary)
        for depth in alone.boundary:
            assert _same(pooled.boundary[depth], alone.boundary[depth])
        assert multiprocessing.active_children() == []

    def test_runs_in_process_while_another_thread_runs(self, monkeypatch, draw_pids):
        monkeypatch.setattr(trainlab, "_worker_count", _two_workers)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            lr_depth_sweep(*_grid_inputs("hard_tanh", False))
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert _pids(draw_pids) == {str(os.getpid())}

    def test_worker_exception_reaches_caller(self, monkeypatch):
        draw = trainlab._sampled_stack

        def failing_draw(configs):
            if configs[0].depth == 2:
                raise NumericalError(f"forced failure in process {os.getpid()}")
            return draw(configs)

        monkeypatch.setattr(trainlab, "_sampled_stack", failing_draw)
        monkeypatch.setattr(trainlab, "_worker_count", _two_workers)
        with pytest.raises(NumericalError, match="forced failure in process") as err:
            lr_depth_sweep(*_grid_inputs("hard_tanh", False))
        assert type(err.value) is NumericalError
        assert str(err.value) != f"forced failure in process {os.getpid()}"
        assert multiprocessing.active_children() == []

    def test_workers_split_the_blas_threads(self):
        code = (
            "import ctypes, pathlib, numpy, isospec.trainlab as t\n"
            "libs = (pathlib.Path(numpy.__file__).parent.parent / 'numpy.libs').glob('*openblas*')\n"
            "lib = next((ctypes.CDLL(str(p)) for p in libs), None)\n"
            "get = next((getattr(lib, g) for g, _ in t._OPENBLAS_THREADS if hasattr(lib, g)), None)\n"
            "if get is None: raise SystemExit('no bundled OpenBLAS')\n"
            "before = get(); t._split_blas_threads(2); print(before, get())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="4")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        if run.returncode and "no bundled OpenBLAS" in run.stderr:
            pytest.skip("numpy does not bundle OpenBLAS here")
        assert run.returncode == 0, run.stderr
        before, after = map(int, run.stdout.split())  # OpenBLAS caps at the CPU count
        assert after == max(1, before // 2)

    def test_worker_count_is_capped_by_groups(self):
        assert trainlab._worker_count(1) == 1
        assert 1 <= trainlab._worker_count(1000) <= (os.cpu_count() or 1)

    def test_importing_the_cli_loads_no_process_pool(self):
        code = ("import sys, isospec.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


def test_non_monotone_grid_warns_once_per_depth(caplog):
    # one step at a tight blow-up limit: whether a cell diverges depends
    # on its own draw and sample, so both depths come out non-monotone
    data = synth_dataset(8, 16, 2, seed=0)
    base = TrainConfig(depth=1, width=8, activation=Linear(1.0), eta=0.1, steps=1, seed=75,
                       blowup_factor=1.5)
    etas = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0]
    with caplog.at_level(logging.WARNING, logger="isospec.trainlab"):
        sw = lr_depth_sweep([1, 2], etas, base, data)
    for depth in (1, 2):
        flags = [c.diverged for c in sw.cells if c.depth == depth]
        assert any(a and not b for a, b in zip(flags, flags[1:])), depth
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2
    assert all("non-monotone" in r.getMessage() for r in warnings)
    assert [r.getMessage().split(":")[0] for r in warnings] == [
        "non-monotone divergence pattern at depth 1",
        "non-monotone divergence pattern at depth 2",
    ]
