"""End-to-end tests of the command-line interface, run in process."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from oracles import reference_model_fim

import isospec.cli as cli
from isospec import rmtsim, trainlab
from isospec.cli import main
from isospec.meanfield import moment_map
from isospec.rmtsim import FimDraw
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
            assert rec["clamped"] == 0.0
            assert 0 < rec["mass_defect"] < 1e-2
            assert 0 <= rec["mean_resid"] < 1e-2
        # layer 3 solves every point at the strip; layer 4 walks some
        assert layers[3]["continued"] > 0
        assert all(rec["refused"] >= 0 for rec in layers)

    def test_schedule_at_a_large_scale(self, tmp_path):
        # layer 3 has G = 0 in its gap near x = 4e4, where u passes near 0
        assert _run("theory", "--out", tmp_path / "q", "--depth", 3, "--q", "1e5") == 0

    def test_numerical_failure_names_the_layer(self, tmp_path, capsys):
        assert _run("theory", "--out", tmp_path / "x", "--depth", 5, "--grid", 512) == 3
        err = capsys.readouterr().err
        assert "numerical failure: layer 5: mass defect" in err

    def test_failed_layer_keeps_the_converged_layers(self, tmp_path, capsys):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _run("theory", "--out", out, "--depth", 5, "--grid", 512) == 3
            assert capsys.readouterr().err == (
                "numerical failure: layer 5: mass defect 2.414e-02 after convolution\n")
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[0] == runs[1]
        assert set(runs[0]) == {f"mu_{i:03d}.json" for i in range(1, 5)} | {"diagnostics.json"}
        layers = json.loads(runs[0]["diagnostics.json"])["layers"]
        assert [rec["layer"] for rec in layers] == [1, 2, 3, 4, 5]
        assert all(0 <= rec["mass_defect"] < 1e-2 for rec in layers[:4])
        assert layers[4] == {"layer": 5, "error": "mass defect 2.414e-02 after convolution"}
        mu4 = SpectralMeasure.from_json(runs[0]["mu_004.json"].decode())
        assert mu4.mass() == pytest.approx(1.0)

    def test_bad_depth_is_config_error(self, tmp_path):
        assert _run("theory", "--out", tmp_path / "x", "--depth", 0) == 2

    def test_bad_alpha_is_config_error(self, tmp_path):
        assert _run("theory", "--out", tmp_path / "x", "--alpha", "1.5") == 2

    def test_wrong_list_length_is_config_error(self, tmp_path):
        assert _run("theory", "--out", tmp_path / "x", "--depth", 4,
                    "--alpha", "0.5,0.6") == 2

    @pytest.mark.parametrize("alpha", ["1", "0.5,1", "1,0.5"])
    def test_alpha_one_closed_form_is_the_atoms(self, alpha, tmp_path):
        out = tmp_path / "a"
        assert _run("theory", "--out", out, "--depth", 3, "--alpha", alpha) == 0
        assert (out / "config.json").exists()
        mu = SpectralMeasure.from_json((out / "mu_003.json").read_text())
        closed = SpectralMeasure.from_json((out / "mu_003_closed.json").read_text())
        assert closed.density is None
        assert closed.atoms == mu.atoms


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

    def test_unknown_mode_from_config_file(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"mode": "bogus"}))
        assert _run("tune", "--out", tmp_path / "x", "--config", conf) == 2
        assert capsys.readouterr().err == "config error: mode: unknown mode 'bogus'\n"


class TestSimulate:
    def test_overflowing_h_exits_3(self, tmp_path, capsys):
        # sigma^2 = 1e300 is finite, but H overflows after two layers: in
        # its low-rank form (alpha 1: no dead unit), turning dense partway
        # (the default alpha), and dense from the first step (alpha 0.5)
        for alpha in ([], ["--alpha", "1"], ["--alpha", "0.5"]):
            assert _run("simulate", "--out", tmp_path / "x", "--model", "atoms", "--width", 8,
                        "--depth", 3, "--sigma", "1e150", *alpha) == 3
            assert capsys.readouterr().err == (
                "numerical failure: draw 0: H has non-finite entries\n")
            assert not (tmp_path / "x").exists()

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
        h = np.load(out / "h.isom")  # saved at exactly the name given
        assert h.shape == (16, 16)
        assert np.abs(h - h.T).max() < 1e-12
        assert np.abs(np.linalg.eigvalsh(h) - 2.0).max() < 1e-9

    def test_each_draw_releases_the_last_draws_matrix(self, tmp_path):
        M = 400

        def peak(draws):
            out = tmp_path / f"d{draws}"
            tracemalloc.start()
            try:
                assert _run("simulate", "--out", out, "--model", "atoms", "--width", M,
                            "--depth", 6, "--alpha", "0.75", "--gamma", "1", "--draws", draws,
                            "--dump-matrix", "h.isom") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = peak(1), peak(2)
        assert two - one <= 0.25 * 8 * M * M
        # the dump is still the last draw's H
        rows = (tmp_path / "d2" / "eigenvalues.csv").read_text().splitlines()[1:]
        last = [float(r.split(",")[2]) for r in rows if r.startswith("1,")]
        h = np.load(tmp_path / "d2" / "h.isom")
        assert np.allclose(np.linalg.eigvalsh(h), last, rtol=1e-10, atol=0)

    def test_dump_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "dm"
        assert _run("simulate", "--model", "atoms", "--width", 20, "--depth", 2,
                    "--dump-matrix", "sub/h.npy", "--out", out) == 2
        assert capsys.readouterr().err == (
            f"config error: dump_matrix: no directory {str(out / 'sub')!r}\n")
        assert not out.exists()
        # a name that is a directory is refused before the first draw
        for name in (".", ".."):
            assert _run("simulate", "--model", "atoms", "--width", 20, "--depth", 2,
                        "--dump-matrix", name, "--out", out) == 2
            assert capsys.readouterr().err == (
                f"config error: dump_matrix: {name!r} names a directory\n")
            assert not out.exists()
        (out / "sub").mkdir(parents=True)
        assert _run("simulate", "--model", "atoms", "--width", 20, "--depth", 2,
                    "--dump-matrix", "sub", "--out", out) == 2
        assert capsys.readouterr().err == "config error: dump_matrix: 'sub' names a directory\n"
        assert sorted(out.iterdir()) == [out / "sub"]
        # a directory that exists may hold the dump, inside --out or not
        (tmp_path / "elsewhere").mkdir()
        for name in ("h.npy", tmp_path / "elsewhere" / "h.npy"):
            assert _run("simulate", "--model", "atoms", "--width", 20, "--depth", 2,
                        "--dump-matrix", name, "--out", out) == 0
            assert np.load(out / name).shape == (20, 20)

    def test_compare_pools_every_draw(self, tmp_path, explicit_q):
        # the numbers below are those of the draws with each Q explicit
        assert _run("theory", "--out", tmp_path / "t3", "--depth", 3) == 0
        out = tmp_path / "s"
        assert _run("simulate", "--model", "atoms", "--width", 300, "--depth", 3,
                    "--alpha", 0.75, "--gamma", 1, "--seed", 3, "--draws", 2,
                    "--atom-window", 0.02, "--bins", 0.05,
                    "--theory", tmp_path / "t3" / "mu_003.json", "--out", out) == 0
        compare = json.loads((out / "compare.json").read_text())
        rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
        vals = np.array([float(r.split(",")[2]) for r in rows])
        assert len(vals) == 600
        top = vals.max()
        near = np.count_nonzero(vals >= top - 0.01 * abs(top)) / len(vals)
        assert compare["near_max_mass"] == near == 292 / 600
        assert compare["empirical_max"] == pytest.approx(top, rel=1e-11)
        assert compare["empirical_mean"] == pytest.approx(vals.mean(), rel=1e-11)
        assert compare["empirical_mean"] == pytest.approx(2.3152192392831994, rel=1e-9)

    def test_roundoff_in_h_leaves_the_histogram(self, tmp_path, monkeypatch):
        # about (1 - alpha) M eigenvalues sit exactly at q = 1, on the edge
        # 1.0 of the default 0.1-wide bins: last-bit noise must not move them
        args = ["simulate", "--model", "atoms", "--width", 300, "--depth", 6,
                "--alpha", 0.75, "--gamma", 1.2, "--seed", 3]
        assert _run(*args, "--out", tmp_path / "plain") == 0
        want = (tmp_path / "plain" / "empirical.json").read_bytes()
        real = cli.model_fim_sample
        for sign in (1.0, -1.0):
            def nudged(M, schedule, rng, sign=sign):
                h = real(M, schedule, rng).matrix()
                noise = np.random.default_rng(0).standard_normal(h.shape)
                h += sign * 1e-15 * np.abs(h).max() * (noise + noise.T)
                return FimDraw((), None, h=h)

            monkeypatch.setattr(cli, "model_fim_sample", nudged)
            out = tmp_path / f"nudged{sign:+.0f}"
            assert _run(*args, "--out", out) == 0
            assert (out / "empirical.json").read_bytes() == want

    def test_byte_determinism_across_runs(self, tmp_path):
        args = ["simulate", "--model", "atoms", "--width", 40, "--depth", 3,
                "--alpha", "0.75", "--gamma", "1", "--seed", 7, "--theory-auto"]
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert _run(*args, "--out", out) == 0
            outs.append(out)
        for fname in ("eigenvalues.csv", "empirical.json", "histogram.svg", "theory.json",
                      "diagnostics.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_diagnostics_explain_each_draw(self, tmp_path):
        # alpha 0.95 keeps H low-rank; at alpha 0.3 most units are dead and
        # the first step turns dense
        for alpha, low_rank in ((0.95, True), (0.3, False)):
            out = tmp_path / str(alpha)
            assert _run("simulate", "--model", "atoms", "--width", 100, "--depth", 5,
                        "--alpha", alpha, "--seed", 2, "--draws", 2, "--out", out) == 0
            draws = json.loads((out / "diagnostics.json").read_text())["draws"]
            rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
            assert [d["seed"] for d in draws] == [2, 3]
            for k, d in enumerate(draws):
                vals = np.array([float(r.split(",")[2]) for r in rows if r.startswith(f"{k},")])
                assert len(d["dead_units"]) == 4
                assert 0.0 <= d["ortho_defect_max"] < 1e-10
                if low_rank:
                    assert d["dense_layer"] is None
                    assert d["top_atom_multiplicity"] == 100 - sum(d["dead_units"])
                    assert d["top_atom"] == pytest.approx(vals.max(), rel=1e-11)
                    near = np.abs(vals - d["top_atom"]) <= 1e-11 * d["top_atom"]
                    assert np.count_nonzero(near) >= d["top_atom_multiplicity"]
                else:
                    assert d["dense_layer"] == 2
                    assert d["top_atom"] is None and d["top_atom_multiplicity"] is None
                    assert d["dead_units"][0] > 50

    def test_dump_matches_the_dense_recursion(self, tmp_path, explicit_q):
        # the low-rank form, formed only for the dump, against the dense
        # recursion, each thin draw fed the recursion's explicit Q
        out = tmp_path / "lr"
        assert _run("simulate", "--model", "atoms", "--width", 200, "--depth", 8,
                    "--alpha", 0.99, "--gamma", 1.2, "--seed", 4, "--dump-matrix", "h.npy",
                    "--out", out) == 0
        dense_layer = json.loads((out / "diagnostics.json").read_text())["draws"][0]["dense_layer"]
        assert dense_layer is None
        want = reference_model_fim(200, [1.0] * 8, [1.0] * 8, [0.99] * 7, [1.2] * 7,
                                   np.random.default_rng(4))
        h = np.load(out / "h.npy")
        assert np.array_equal(h, h.T)
        assert np.abs(h - want).max() <= 1e-12 * np.abs(want).max()

    def test_external_theory_comparison(self, tmp_path):
        theory_dir = tmp_path / "th"
        assert _run("theory", "--out", theory_dir, "--depth", 3) == 0
        out = tmp_path / "sim"
        code = _run("simulate", "--out", out, "--model", "atoms", "--width", 40,
                    "--depth", 3, "--alpha", "0.75", "--gamma", "1", "--seed", 0,
                    "--theory", theory_dir / "mu_003.json")
        assert code == 0
        assert "l1" in json.loads((out / "compare.json").read_text())

    def test_config_errors(self, tmp_path, capsys):
        x = tmp_path / "x"
        assert _run("simulate", "--out", x, "--width", 1) == 2
        assert _run("simulate", "--out", x, "--model", "network", "--width", 16,
                    "--depth", 2) == 2  # no activation given
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"model": "quantum"}))
        assert _run("simulate", "--out", x, "--config", conf) == 2
        err = capsys.readouterr().err
        assert err.endswith("config error: model: unknown model 'quantum'\n")

    @pytest.mark.parametrize("bins", [1e-9, 1e-320])
    def test_tiny_bin_width_is_config_error(self, tmp_path, capsys, bins):
        # 1e-9 asks for ~1e9 bins; it is refused before any array of them exists
        code = _run("simulate", "--out", tmp_path / "x", "--model", "atoms", "--width", 8,
                    "--depth", 3, "--bins", bins)
        assert code == 2
        assert "config error: bins: bin width" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bent_draw_exits_3_and_names_its_layer(self, tmp_path, monkeypatch, capsys):
        # the third draw, thin while a linear network stays low-rank, whole
        # once a saturated one turns dense, is bent by 1e-6 in one entry
        drawn = []

        def bent_third(real):
            def draw(*args):
                out = real(*args)
                drawn.append(1)
                if len(drawn) == 3:
                    (out[0] if isinstance(out, tuple) else out)[5, 0] += 1e-6
                return out

            return draw

        for name in ("_stiefel", "_householder_draw", "sample_haar_orthogonal"):
            monkeypatch.setattr(rmtsim, name, bent_third(getattr(rmtsim, name)))
        for family, shape in (("linear", ["--g", 1.0]), ("hard_tanh", ["--s", 3.0, "--g", 1.3])):
            drawn.clear()
            code = _run("simulate", "--out", tmp_path / family, "--model", "network",
                        "--width", 16, "--depth", 5, "--family", family, *shape)
            assert code == 3
            assert "numerical failure: layer 3: W/sigma off orthogonal" in capsys.readouterr().err

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

    def test_classes_above_the_width_are_lowered_and_recorded(self, tmp_path, capsys):
        out = tmp_path / "swk"
        code = _run("sweep", "--out", out, "--width", 8, "--classes", 10, "--samples", 16,
                    "--depths", 1, "--etas", 0.01, "--steps", 5, "--family", "linear", "--g", 1)
        assert code == 0
        assert json.loads((out / "config.json").read_text())["classes"] == 8
        assert capsys.readouterr().err == "classes: 10 lowered to the width 8\n"

    def test_worker_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def failing_draw(*args):
            raise NumericalError("forced failure")

        monkeypatch.setattr(trainlab, "_sampled_stack", failing_draw)
        monkeypatch.setattr(trainlab, "_worker_count", lambda jobs: min(2, jobs))
        code = _run("sweep", "--out", tmp_path / "swf", "--depths", "1,2",
                    "--etas", "0.001,80", *self.SMALL)
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: forced failure\n"

    def test_idx_dataset_path(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        images = rng.integers(1, 255, size=(8, 4, 4), dtype=np.uint8)
        labels = (np.arange(8) % 4).astype(np.uint8)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        ipath.write_bytes(struct.pack(">i", 0x00000803)
                          + struct.pack(">iii", 8, 4, 4) + images.tobytes())
        lpath.write_bytes(struct.pack(">i", 0x00000801)
                          + struct.pack(">i", 8) + labels.tobytes())
        out = tmp_path / "swi"
        flags = dict(zip(self.SMALL[::2], self.SMALL[1::2]))
        del flags["--width"], flags["--samples"]  # idx data reads no --samples
        argv = ["sweep", "--depths", "1", "--etas", "0.01", "--idx-images", ipath,
                "--idx-labels", lpath, *(a for flag in flags.items() for a in flag)]
        assert _run(*argv, "--width", 16, "--out", out) == 0
        assert (out / "sweep.csv").exists()
        # without --width the width is the images' pixel count, and
        # config.json records it, so the run replays
        assert _run(*argv, "--out", tmp_path / "auto") == 0
        saved = tmp_path / "auto" / "config.json"
        assert json.loads(saved.read_text())["width"] == 16
        assert _run("sweep", "--config", saved, "--out", tmp_path / "again") == 0
        for name in ("sweep.csv", "cells.json"):
            want = (out / name).read_bytes()
            assert (tmp_path / "auto" / name).read_bytes() == want
            assert (tmp_path / "again" / name).read_bytes() == want
        capsys.readouterr()
        assert _run(*argv, "--width", 64, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == "config error: width: dataset width 16 != 64\n"
        assert not (tmp_path / "x").exists()

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

    def test_bent_draw_exits_3_and_names_its_layer(self, tmp_path, monkeypatch, capsys):
        real, drawn = rmtsim.sample_haar_orthogonal, []

        def bent_third(M, rng):
            q = real(M, rng)
            drawn.append(M)
            if len(drawn) == 3:
                q[5, 0] += 1e-6
            return q

        monkeypatch.setattr(rmtsim, "sample_haar_orthogonal", bent_third)
        assert _run("sweep", "--out", tmp_path / "x", "--depths", "3", "--etas", "0.01,0.1",
                    *self.SMALL) == 3
        assert "numerical failure: layer 3: W/sigma off orthogonal" in capsys.readouterr().err

    @pytest.mark.parametrize("classes", [0, -1])
    def test_class_count_below_one_is_config_error(self, classes, tmp_path, capsys):
        assert _run("sweep", "--out", tmp_path / "x", "--depths", "1", "--etas", "0.1",
                    *self.SMALL, "--classes", classes) == 2
        assert "classes must be in [1, 16]" in capsys.readouterr().err


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

    def test_tiny_bin_width_is_config_error(self, tmp_path, capsys):
        a = self._measure_file(tmp_path / "a.json", [(1.0, 1.0)])
        b = self._measure_file(tmp_path / "b.json", [(2.0, 1.0)])
        assert _run("compare", "--out", tmp_path / "c", a, b, "--bins", 1e-9) == 2
        assert "config error: bins: bin width" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

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


def _case(argv, config=None, id=None, message=""):
    """One BAD_INPUTS row with its own test id, so that adding or deleting
    a row renames no other case. The id is the argv and config joined;
    the first 24 rows keep the ids they had when ids were positional.
    The error's text after "config error: " starts with `message`."""
    if id is None:
        id = " ".join(argv + [f"{k}={v}" for k, v in sorted((config or {}).items())])
    return pytest.param(argv, config, message, id=id)


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
    _case(["theory"], {"depth": float("inf")}),
    _case(["simulate", "--model", "atoms", "--width", "50", "--depth", "3",
           "--atom-window", "-0.5"]),
    _case(["simulate", "--model", "atoms", "--width", "50", "--depth", "3", "--atom-window", "0"]),
    _case(["simulate", "--model", "network", "--family", "linear", "--g", "1", "--width", "8",
           "--depth", "2", "--seed", "-1"], message="seed: must be nonnegative\n"),
    _case(["sweep", "--width", "8", "--samples", "8", "--classes", "2", "--depths", "1",
           "--etas", "0.1", "--steps", "2", "--seed", "-1"],
          message="seed: must be nonnegative\n"),
    # argparse checks a choice flag's value, and _resolve a config file's
    _case(["simulate", "--model", "network"], {"family": "tanh"},
          message="family: unknown family 'tanh'\n"),
    _case(["sweep"], {"family": "tanh"}, message="family: unknown family 'tanh'\n"),
    # sigma^2 overflows, or underflows to 0
    _case(["theory", "--depth", "2", "--sigma", "1e155"],
          message="schedule: sigma^2 must be finite and positive in floats\n"),
    _case(["theory", "--depth", "2", "--sigma", "1,1e-170"],
          message="schedule: sigma^2 must be finite and positive in floats\n"),
    _case(["simulate", "--model", "atoms", "--width", "8", "--depth", "2", "--sigma", "1e155"],
          message="schedule: sigma^2 must be finite and positive in floats\n"),
]


@pytest.mark.parametrize("argv,config,message", BAD_INPUTS)
def test_bad_input_exits_2(argv, config, message, tmp_path, capsys):
    if config is not None:
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(config))
        argv = argv + ["--config", conf]
    assert _run(*argv, "--out", tmp_path / "x") == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["theory", "--sigma", "nan"],
    ["theory", "--q", "inf"],
    ["theory", "--gamma", "inf"],
    ["simulate", "--model", "atoms", "--gamma", "inf"],
    ["simulate", "--family", "linear", "--g", "inf"],
    ["sweep", "--sigma", "inf"],
    ["sweep", "--etas", "inf"],
], ids=" ".join)
def test_non_finite_number_exits_2(argv, tmp_path, capsys):
    assert _run(*argv, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "is not finite" in err


@pytest.mark.parametrize("argv", [
    ["theory", "--depth", "2", "--sigma", "1,1e-9"],
    ["theory", "--depth", "2", "--alpha", "0.5", "--gamma", "1e-17"],
    ["theory", "--depth", "4", "--sigma", "1,1,1e-9,1"],
    ["theory", "--depth", "4", "--q", "1,1,1e20,1"],
    # the closed form's band too, with every lambda at q2
    ["theory", "--depth", "3", "--gamma", "1e-300"],
    ["simulate", "--model", "atoms", "--width", "8", "--depth", "4", "--sigma", "1,1,1e-9,1",
     "--theory-auto"],
], ids=" ".join)
def test_layer_collapsing_onto_one_float_exits_0(argv, tmp_path):
    # q + sigma^2 x sends distinct atoms, or a density's whole support, to one float
    assert _run(*argv, "--out", tmp_path / "x") == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["theory", "--depth", "2", "--gamma", "1e300", "--sigma", "1e10"],
    ["theory", "--depth", "3", "--alpha", "1", "--gamma", "1e200"],
    ["theory", "--depth", "3", "--gamma", "1e300"],
    ["simulate", "--model", "atoms", "--theory-auto", "--depth", "3", "--gamma", "1e300"],
], ids=" ".join)
def test_overflowing_support_exits_3(argv, tmp_path, capsys):
    # q + sigma^2 gamma lambda overflows at the last layer, which fails
    # before its solve; theory keeps the layers before it
    out, depth = tmp_path / "x", int(argv[argv.index("--depth") + 1])
    assert _run(*argv, "--out", out) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: layer {depth}: the support maximum overflows\n")
    if argv[0] == "theory":
        assert sorted(p.name for p in out.iterdir()) == (
            ["diagnostics.json"] + [f"mu_{i:03d}.json" for i in range(1, depth)])


def test_non_finite_activation_file_value_exits_2(tmp_path, capsys):
    tune = tmp_path / "tune.json"
    tune.write_text(json.dumps({"spec": {"family": "linear", "g": float("inf")}}))
    assert _run("simulate", "--out", tmp_path / "x", "--activation-file", tune) == 2
    assert "activation_file.spec.g: inf is not finite" in capsys.readouterr().err


def test_unread_flag_at_its_default_is_accepted(tmp_path):
    assert _run("tune", "--out", tmp_path / "t", "--mode", "di", "--eps2", "0") == 0
    assert _run("simulate", "--out", tmp_path / "s", "--model", "network", "--width", 8,
                "--family", "linear", "--g", "1", "--q", "1", "--alpha", "0.75") == 0
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"family": None}))  # null is the default, not a family
    assert _run("simulate", "--out", tmp_path / "a", "--model", "atoms", "--width", 8,
                "--config", conf) == 0


@pytest.mark.parametrize("argv,message", [
    (["sweep", *TestSweep.SMALL, "--depths", 1, "--etas", "0.01,0.1", "--eta-min", 0.5,
      "--eta-max", 0.9], "eta_min: not read with --etas"),
    (["sweep", "--width", 16, "--steps", 5, "--samples", 16, "--classes", 4, "--depths", 1,
      "--etas", 0.01, "--family", "linear", "--g", 1, "--eps1", 0.3],
     "eps1: not read with --family"),
    (["sweep", "--activation-file", "tune.json", "--eps2", 0.1],
     "eps2: not read with --activation-file"),
    (["simulate", "--model", "atoms", "--theory", "t3/mu_003.json", "--theory-auto"],
     "theory: not read with --theory-auto"),
    (["sweep", "--idx-images", "i.idx", "--idx-labels", "l.idx", "--samples", 16],
     "samples: not read with --idx-images"),
    (["simulate", "--model", "network", "--family", "linear", "--s", 1],
     "s: not read with --family linear"),
    (["simulate", "--model", "network", "--g", 1], "g: not read without --family"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_flag_the_choice_does_not_read_exits_2(argv, message, tmp_path, capsys):
    assert _run(*argv, "--out", tmp_path / "x") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


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


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "isospec" in capsys.readouterr().out
