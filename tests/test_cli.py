"""End-to-end tests of the command-line interface, run in process."""

import json
import struct

import numpy as np
import pytest

import isospec.cli as cli
from isospec.cli import main, read_matrix_dump, write_matrix_dump
from isospec.meanfield import moment_map
from isospec.specmeasure import NumericalError, SpectralMeasure, distance_L1


def _run(*argv) -> int:
    return main([str(a) for a in argv])


class TestTheory:
    def test_three_layer_outputs(self, tmp_path):
        out = tmp_path / "t"
        assert _run("theory", "--out", out, "--depth", 3, "--alpha", "0.8,0.6",
                    "--gamma", "1.2,0.9") == 0
        names = {p.name for p in out.iterdir()}
        assert {"mu_001.json", "mu_002.json", "mu_003.json", "mu_003_closed.json",
                "atom_track.csv", "limits.json", "config.json"} <= names
        mu = SpectralMeasure.from_json((out / "mu_003.json").read_text())
        closed = SpectralMeasure.from_json((out / "mu_003_closed.json").read_text())
        assert distance_L1(mu, closed, 0.05) < 2e-2
        track = (out / "atom_track.csv").read_text().splitlines()
        assert track[0] == "layer,lambda_max,beta,atom_valid"
        assert len(track) == 4

    def test_scalar_flags_broadcast_across_layers(self, tmp_path):
        out = tmp_path / "b"
        assert _run("theory", "--out", out, "--depth", 4, "--q", "1", "--sigma", "1",
                    "--alpha", "0.9", "--gamma", "1.1") == 0
        assert (out / "mu_004.json").exists()

    def test_limits_record_regime(self, tmp_path):
        out = tmp_path / "lim"
        assert _run("theory", "--out", out, "--depth", 3) == 0
        limits = json.loads((out / "limits.json").read_text())
        assert len(limits["mean_track"]) == 3
        assert limits["eps1"] is not None

    def test_diagnostics_per_layer(self, tmp_path):
        runs = [tmp_path / "d1", tmp_path / "d2"]
        for out in runs:
            assert _run("theory", "--out", out, "--depth", 4, "--grid", 512) == 0
        text = (runs[0] / "diagnostics.json").read_text()
        assert (runs[1] / "diagnostics.json").read_text() == text
        layers = json.loads(text)["layers"]
        assert [rec["layer"] for rec in layers] == [1, 2, 3, 4]
        assert layers[0]["grid_count"] == 0
        for rec in layers[2:]:
            assert rec["grid_count"] == 512
            assert rec["newton_steps_max"] >= rec["newton_steps_mean"] > 0
            assert rec["continued"] > 0
            assert rec["flagged"] == 0 and rec["clamped"] == 0.0
            assert 0 < rec["mass_defect"] < 1e-2
            assert 0 <= rec["mean_resid"] < 1e-2

    def test_numerical_failure_names_the_layer(self, tmp_path, capsys):
        assert _run("theory", "--out", tmp_path / "x", "--depth", 5, "--grid", 512) == 3
        err = capsys.readouterr().err
        assert "numerical failure: layer 5: mass defect" in err

    def test_bad_depth_is_config_error(self, tmp_path):
        assert _run("theory", "--out", tmp_path / "x", "--depth", 0) == 2

    def test_bad_alpha_is_config_error(self, tmp_path):
        assert _run("theory", "--out", tmp_path / "x", "--alpha", "1.5") == 2

    def test_wrong_list_length_is_config_error(self, tmp_path):
        assert _run("theory", "--out", tmp_path / "x", "--depth", 4,
                    "--alpha", "0.5,0.6") == 2


class TestTune:
    def test_constant_q_mode_writes_reference_values(self, tmp_path, capsys):
        out = tmp_path / "tc"
        assert _run("tune", "--out", out, "--mode", "constant_q", "--depth", 16,
                    "--eps1", 0.1, "--eps2", 0.0) == 0
        record = json.loads((out / "tune.json").read_text())
        assert record["spec"]["family"] == "hard_tanh"
        assert record["spec"]["g"] == pytest.approx(3.050462909517828, rel=1e-10)
        assert record["params"]["alpha"] == pytest.approx(1.0 - 0.1 / 16)
        assert "tuned:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        [],
        ["--depth", 1, "--eps1", 0.5],
        ["--depth", 64, "--eps1", 60, "--q-star", 2.5],
    ])
    def test_di_mode_sits_on_the_critical_line(self, argv, tmp_path, capsys):
        assert _run("tune", "--out", tmp_path / "di", *argv) == 0
        assert capsys.readouterr().err == ""
        config = json.loads((tmp_path / "di" / "config.json").read_text())
        record = json.loads((tmp_path / "di" / "tune.json").read_text())
        assert set(record) == {"version", "mode", "spec", "params", "eps1", "eps2", "ref_depth"}
        p = record["params"]
        assert p["q"] == config["q_star"]
        spec = cli._activation_from_dict(record["spec"], "spec")
        q_next, alpha, gamma = moment_map(spec, p["sigma"], p["q"])
        assert q_next == pytest.approx(p["q"], rel=1e-12)
        assert (alpha, gamma) == (pytest.approx(p["alpha"], abs=1e-12), p["gamma"])
        assert p["sigma"] ** 2 * gamma * alpha == pytest.approx(1.0, abs=1e-12)
        assert record["ref_depth"] == config["depth"]
        assert record["eps1"] == pytest.approx(config["eps1"], rel=1e-9)

    def test_unknown_mode_from_config_file(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"mode": "bogus"}))
        assert _run("tune", "--out", tmp_path / "x", "--config", conf) == 2


class TestSimulate:
    def test_atoms_model_with_auto_theory(self, tmp_path):
        out = tmp_path / "sa"
        code = _run("simulate", "--out", out, "--model", "atoms", "--width", 50,
                    "--depth", 3, "--alpha", "0.75", "--gamma", "1", "--seed", 0,
                    "--bins", 0.1, "--theory-auto")
        assert code == 0
        rows = (out / "eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "draw,index,eigenvalue,width,depth,seed"
        assert len(rows) == 51
        assert (out / "theory.json").exists()
        compare = json.loads((out / "compare.json").read_text())
        assert 0.0 <= compare["l1"] <= 2.0
        svg = (out / "histogram.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_auto_theory_of_constant_q_network(self, tmp_path):
        assert _run("tune", "--out", tmp_path / "t", "--mode", "constant_q") == 0
        q_star = json.loads((tmp_path / "t" / "tune.json").read_text())["params"]["q"]
        out = tmp_path / "s"
        assert _run("simulate", "--out", out, "--model", "network", "--width", 16,
                    "--depth", 4, "--activation-file", tmp_path / "t" / "tune.json",
                    "--theory-auto") == 0
        compare = json.loads((out / "compare.json").read_text())
        # every layer sits on the fixed point: lambda_max = L q_star exactly
        assert compare["theory_max"] == pytest.approx(4 * q_star, abs=1e-9)

    def test_auto_theory_of_critical_line_network(self, tmp_path):
        assert _run("tune", "--out", tmp_path / "t") == 0
        params = json.loads((tmp_path / "t" / "tune.json").read_text())["params"]
        out = tmp_path / "s"
        assert _run("simulate", "--out", out, "--model", "network", "--width", 16,
                    "--depth", 4, "--activation-file", tmp_path / "t" / "tune.json",
                    "--theory-auto") == 0
        compare = json.loads((out / "compare.json").read_text())
        # q stays at q_star, so lambda_max,l = q_star + c lambda_max,l-1
        c = params["sigma"] ** 2 * params["gamma"]
        expected = params["q"] * (1 + c + c**2 + c**3)
        assert compare["theory_max"] == pytest.approx(expected, abs=1e-9)

    def test_activation_file_reads_no_inline_parameters(self, tmp_path, capsys):
        assert _run("tune", "--out", tmp_path / "t") == 0
        code = _run("simulate", "--out", tmp_path / "s", "--model", "network",
                    "--width", 8, "--depth", 2, "--activation-file",
                    tmp_path / "t" / "tune.json", "--family", "linear", "--g", 5)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: family: not read")
        assert not (tmp_path / "s").exists()

    def test_linear_network_degenerate_spectrum(self, tmp_path):
        out = tmp_path / "sl"
        code = _run("simulate", "--out", out, "--model", "network", "--width", 32,
                    "--depth", 2, "--family", "linear", "--g", 1.0, "--seed", 1)
        assert code == 0
        empirical = json.loads((out / "empirical.json").read_text())
        mu = SpectralMeasure.from_json(json.dumps(empirical))
        assert mu.atoms == ((pytest.approx(2.0, abs=1e-9), 1.0),)

    def test_network_sigma_per_layer(self, tmp_path):
        base = ["simulate", "--model", "network", "--width", 16, "--depth", 3,
                "--family", "linear", "--g", 1.0, "--seed", 1]
        assert _run(*base, "--out", tmp_path / "one", "--sigma", "1") == 0
        assert _run(*base, "--out", tmp_path / "each", "--sigma", "1,1,1") == 0
        one, each = tmp_path / "one", tmp_path / "each"
        for name in ("eigenvalues.csv", "empirical.json"):
            assert (one / name).read_bytes() == (each / name).read_bytes()

    def test_matrix_dump_round_trip(self, tmp_path):
        out = tmp_path / "sd"
        code = _run("simulate", "--out", out, "--model", "network", "--width", 16,
                    "--depth", 2, "--family", "linear", "--g", 1.0, "--seed", 1,
                    "--dump-matrix", "h.isom")
        assert code == 0
        h = read_matrix_dump(out / "h.isom")
        assert h.shape == (16, 16)
        assert np.abs(h - h.T).max() < 1e-12
        assert np.abs(np.linalg.eigvalsh(h) - 2.0).max() < 1e-9

    def test_byte_determinism_across_runs(self, tmp_path):
        args = ["simulate", "--model", "atoms", "--width", 40, "--depth", 3,
                "--alpha", "0.75", "--gamma", "1", "--seed", 7, "--theory-auto"]
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert _run(*args, "--out", out) == 0
            outs.append(out)
        for fname in ("eigenvalues.csv", "empirical.json", "histogram.svg", "theory.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_external_theory_comparison(self, tmp_path):
        theory_dir = tmp_path / "th"
        assert _run("theory", "--out", theory_dir, "--depth", 3) == 0
        out = tmp_path / "sim"
        code = _run("simulate", "--out", out, "--model", "atoms", "--width", 40,
                    "--depth", 3, "--alpha", "0.75", "--gamma", "1", "--seed", 0,
                    "--theory", theory_dir / "mu_003.json")
        assert code == 0
        assert "l1" in json.loads((out / "compare.json").read_text())

    def test_config_errors(self, tmp_path):
        x = tmp_path / "x"
        assert _run("simulate", "--out", x, "--width", 1) == 2
        assert _run("simulate", "--out", x, "--model", "network", "--width", 16,
                    "--depth", 2) == 2  # no activation given
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"model": "quantum"}))
        assert _run("simulate", "--out", x, "--config", conf) == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalError("forced failure")

        monkeypatch.setattr(cli, "model_fim_sample", boom)
        code = _run("simulate", "--out", tmp_path / "x", "--model", "atoms",
                    "--width", 40, "--depth", 3)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestSweep:
    SMALL = ["--width", 16, "--steps", 30, "--samples", 16, "--classes", 4,
             "--family", "hard_tanh", "--s", 1.0, "--g", 1.0, "--sigma", 1.0]

    def test_small_grid_outputs(self, tmp_path):
        out = tmp_path / "sw"
        code = _run("sweep", "--out", out, "--depths", "1,2",
                    "--etas", "0.001,80", *self.SMALL)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "L,eta,train_loss,test_loss,train_acc,test_acc,diverged"
        assert len(rows) == 5
        boundary = json.loads((out / "boundary.json").read_text())
        assert boundary["boundary"]["1"] == pytest.approx((0.001 * 80) ** 0.5)
        assert boundary["reference_2_over_L"]["2"] == pytest.approx(1.0)
        assert (out / "sweep.svg").read_text().startswith("<svg")

    def test_cells_json_records_each_outcome(self, tmp_path):
        out = tmp_path / "swc"
        assert _run("sweep", "--out", out, "--depths", "1,2",
                    "--etas", "0.001,80", *self.SMALL) == 0
        cells = json.loads((out / "cells.json").read_text())["cells"]
        assert [(c["depth"], c["eta"]) for c in cells] == [
            (1, 0.001), (1, 80.0), (2, 0.001), (2, 80.0)]
        for c in cells:
            assert set(c) == {"depth", "eta", "seed", "steps", "diverged_at", "cause", "layer"}
        stable, blown = cells[0], cells[1]
        assert stable["steps"] == 30 and stable["diverged_at"] is None
        assert stable["cause"] is None and stable["layer"] is None
        assert blown["cause"] == "norm_blowup" and blown["layer"] == 1
        assert blown["steps"] == blown["diverged_at"] + 1

    def test_all_diverged_exit_code(self, tmp_path, capsys):
        out = tmp_path / "swd"
        code = _run("sweep", "--out", out, "--depths", "2",
                    "--etas", "60,90", *self.SMALL)
        assert code == 4
        assert "all sweep cells diverged" in capsys.readouterr().err

    def test_idx_dataset_path(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(1, 255, size=(8, 4, 4), dtype=np.uint8)
        labels = (np.arange(8) % 4).astype(np.uint8)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        ipath.write_bytes(struct.pack(">i", 0x00000803)
                          + struct.pack(">iii", 8, 4, 4) + images.tobytes())
        lpath.write_bytes(struct.pack(">i", 0x00000801)
                          + struct.pack(">i", 8) + labels.tobytes())
        out = tmp_path / "swi"
        code = _run("sweep", "--out", out, "--depths", "1", "--etas", "0.01",
                    "--idx-images", ipath, "--idx-labels", lpath, *self.SMALL)
        assert code == 0
        assert (out / "sweep.csv").exists()

    def test_explicit_sigma_wins_over_activation_file(self, tmp_path):
        tune = tmp_path / "tune"
        assert _run("tune", "--out", tune, "--mode", "constant_q", "--depth", 4) == 0
        spec = json.loads((tune / "tune.json").read_text())["spec"]
        grid = ["--width", 16, "--steps", 30, "--samples", 16, "--classes", 4,
                "--depths", "1,2", "--etas", "0.001,80", "--sigma", 2.0]
        assert _run("sweep", "--out", tmp_path / "file", "--activation-file",
                    tune / "tune.json", *grid) == 0
        assert _run("sweep", "--out", tmp_path / "inline", "--family", "hard_tanh",
                    "--s", spec["s"], "--g", spec["g"], *grid) == 0
        from_file, inline = tmp_path / "file", tmp_path / "inline"
        assert json.loads((from_file / "boundary.json").read_text())["sigma"] == 2.0
        for name in ("sweep.csv", "boundary.json"):
            assert (from_file / name).read_bytes() == (inline / name).read_bytes()

    def test_config_errors(self, tmp_path):
        x = tmp_path / "x"
        assert _run("sweep", "--out", x, "--idx-images", "only.idx", *self.SMALL) == 2
        assert _run("sweep", "--out", x, "--eta-min", 2.0, "--eta-max", 1.0,
                    *self.SMALL) == 2


class TestCompare:
    def _measure_file(self, path, atoms):
        mu = SpectralMeasure.from_atoms(atoms)
        path.write_text(json.dumps(mu.to_json_dict()))
        return path

    def test_disjoint_atoms(self, tmp_path, capsys):
        a = self._measure_file(tmp_path / "a.json", [(1.0, 1.0)])
        b = self._measure_file(tmp_path / "b.json", [(2.0, 1.0)])
        assert _run("compare", "--out", tmp_path / "c", a, b, "--bins", 0.5) == 0
        summary = json.loads((tmp_path / "c" / "compare.json").read_text())
        assert summary["l1"] == pytest.approx(2.0)
        assert "L1 distance" in capsys.readouterr().out

    def test_identical_measures(self, tmp_path):
        a = self._measure_file(tmp_path / "a.json", [(1.0, 0.5), (2.0, 0.5)])
        b = self._measure_file(tmp_path / "b.json", [(1.0, 0.5), (2.0, 0.5)])
        assert _run("compare", "--out", tmp_path / "c", a, b) == 0
        summary = json.loads((tmp_path / "c" / "compare.json").read_text())
        assert summary["l1"] == 0.0

    def test_missing_operands_or_files(self, tmp_path):
        a = self._measure_file(tmp_path / "a.json", [(1.0, 1.0)])
        assert _run("compare", "--out", tmp_path / "c", a) == 2
        assert _run("compare", "--out", tmp_path / "c", a, tmp_path / "nope.json") == 2


class TestConfigMerge:
    def test_file_supplies_defaults_flags_override(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"depth": 4}))
        out_a = tmp_path / "a"
        assert _run("theory", "--out", out_a, "--config", conf) == 0
        assert (out_a / "mu_004.json").exists()
        out_b = tmp_path / "b"
        assert _run("theory", "--out", out_b, "--config", conf, "--depth", 2) == 0
        assert not (out_b / "mu_003.json").exists()
        assert json.loads((out_b / "config.json").read_text())["depth"] == 2

    def test_unknown_keys_rejected(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"depht": 3}))
        assert _run("theory", "--out", tmp_path / "x", "--config", conf) == 2

    def test_invalid_json_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text("{not json")
        assert _run("theory", "--out", tmp_path / "x", "--config", conf) == 2
        assert "invalid JSON" in capsys.readouterr().err


def _case(argv, config=None, id=None):
    """One BAD_INPUTS row with its own test id, so that adding or deleting
    a row renames no other case. The id is the argv and config joined;
    the first 24 rows keep the ids they had when ids were positional."""
    if id is None:
        id = " ".join(argv + [f"{k}={v}" for k, v in sorted((config or {}).items())])
    return pytest.param(argv, config, id=id)


BAD_INPUTS = [
    _case(["simulate", "--model", "atoms", "--alpha", "1.5", "--theory-auto"], id="argv0-None"),
    _case(["simulate", "--model", "atoms", "--alpha", "1.5"], id="argv1-None"),
    _case(["simulate", "--model", "atoms", "--q=-1"], id="argv2-None"),
    _case(["simulate", "--model", "network", "--family", "linear", "--g", "1", "--sigma", "1,1"],
          id="argv3-None"),
    _case(["simulate", "--model", "network", "--family", "linear", "--g", "1", "--sigma", "0"],
          id="argv4-None"),
    _case(["sweep", "--steps", "0"], id="argv5-None"),
    _case(["sweep", "--width", "1"], id="argv6-None"),
    _case(["sweep", "--samples", "0"], id="argv7-None"),
    _case(["sweep", "--family", "linear", "--g", "1", "--sigma", "0"], id="argv8-None"),
    _case(["theory", "--grid", "100"], id="argv9-None"),
    _case(["simulate"], {"width": "abc"}, id="argv10-config10"),
    _case(["simulate", "--model", "atoms"], {"width": 2.5}, id="argv11-config11"),
    _case(["sweep"], {"depths": [4, "x"]}, id="argv12-config12"),
    _case(["theory"], {"depth": None}, id="argv13-config13"),
    _case(["theory"], {"command": "simulate"}, id="argv14-config14"),
    _case(["simulate", "--model", "atoms", "--family", "linear", "--g", "5"], id="argv15-None"),
    _case(["simulate", "--model", "atoms", "--activation-file", "missing.json"],
          id="argv16-None"),
    _case(["simulate", "--model", "atoms"], {"s": 0.5}, id="argv17-config17"),
    _case(["simulate", "--model", "network", "--family", "linear", "--g", "1", "--alpha", "0.5"],
          id="argv18-None"),
    _case(["tune", "--mode", "di", "--eps2", "0.1"], id="argv19-None"),
    _case(["simulate", "--model", "network", "--family", "hard_tanh", "--s", "0.5", "--g", "1",
           "--a", "2"], id="argv20-None"),
    _case(["simulate", "--model", "network", "--family", "linear", "--g", "1", "--s", "0.5"],
          id="argv21-None"),
    _case(["tune", "--mode", "constant_q"], {"s": 0.5}, id="argv22-config22"),
    _case(["sweep", "--g", "2"], id="argv23-None"),
    _case(["simulate", "--model", "network", "--family", "linear", "--g", "1", "--width", "1"]),
    _case(["simulate", "--model", "network", "--family", "linear", "--g", "1", "--depth", "0"]),
]


@pytest.mark.parametrize("argv,config", BAD_INPUTS)
def test_bad_input_exits_2(argv, config, tmp_path, capsys):
    if config is not None:
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(config))
        argv = argv + ["--config", conf]
    assert _run(*argv, "--out", tmp_path / "x") == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_unread_flag_at_its_default_is_accepted(tmp_path):
    assert _run("tune", "--out", tmp_path / "t", "--mode", "di", "--eps2", "0") == 0
    assert _run("simulate", "--out", tmp_path / "s", "--model", "network", "--width", 8,
                "--family", "linear", "--g", "1", "--q", "1", "--alpha", "0.75") == 0


class TestFlagTable:
    @staticmethod
    def _argv(command, tmp_path):
        if command == "compare":
            files = []
            for name, loc in (("a.json", 1.0), ("b.json", 1.5)):
                files.append(tmp_path / name)
                files[-1].write_text(json.dumps(SpectralMeasure.dirac(loc).to_json_dict()))
            return [*files, "--bins", 0.5]
        return {
            "theory": ["--depth", 3, "--alpha", "0.8,0.6", "--gamma", "1.2,0.9", "--grid", 256],
            "tune": ["--mode", "constant_q", "--depth", 8],
            "simulate": ["--model", "atoms", "--width", 40, "--alpha", "0.75", "--seed", 3,
                         "--theory-auto"],
            "sweep": [*TestSweep.SMALL, "--depths", "1,2", "--etas", "0.001,80"],
        }[command]

    @pytest.mark.parametrize("command", sorted(cli.FLAGS))
    def test_saved_config_replays(self, command, tmp_path):
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert _run(command, "--out", first, *self._argv(command, tmp_path)) == 0
        assert _run(command, "--config", first / "config.json", "--out", second) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            if name != "config.json":
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        saved = json.loads((first / "config.json").read_text())
        replayed = json.loads((second / "config.json").read_text())
        assert set(saved) == set(cli.FLAGS[command]) | {"out", "command", "version"}
        assert (saved.pop("out"), replayed.pop("out")) == (str(first), str(second))
        assert saved == replayed

    @pytest.mark.parametrize("command", sorted(cli.FLAGS))
    def test_every_key_has_its_flag(self, command):
        parser = cli.build_parser()
        table = cli.FLAGS[command]
        operands = [key for key, (_, _, extras) in table.items() if "nargs" in extras]
        args = parser.parse_args([command, *operands])
        assert [getattr(args, key) for key in operands] == operands
        for key, (_, _, extras) in table.items():
            if key in operands:
                continue
            argv = ["--" + key.replace("_", "-")]
            if extras.get("action") != "store_const":
                argv.append(extras.get("choices", ["1"])[0])
            assert getattr(parser.parse_args([command, *argv]), key) is not None, key


class TestMatrixDump:
    def test_round_trip(self, tmp_path):
        m = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "m.isom"
        write_matrix_dump(path, m)
        blob = path.read_bytes()
        assert blob[:4] == b"ISOM"
        assert struct.unpack("<III", blob[4:16]) == (1, 3, 4)
        np.testing.assert_array_equal(read_matrix_dump(path), m)

    def test_rejects_bad_files(self, tmp_path):
        path = tmp_path / "m.isom"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="bad magic"):
            read_matrix_dump(path)
        path.write_bytes(b"ISOM" + struct.pack("<III", 9, 1, 1) + bytes(8))
        with pytest.raises(ValueError, match="version"):
            read_matrix_dump(path)
        path.write_bytes(b"ISOM" + struct.pack("<III", 1, 2, 2) + bytes(8))
        with pytest.raises(ValueError, match="expected 48 bytes"):
            read_matrix_dump(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix_dump(tmp_path / "v.isom", np.arange(3.0))


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "isospec" in capsys.readouterr().out
