import json
import os

import numpy as np
import pytest

import photoncorr.cli
import photoncorr.inference
from photoncorr import CountsMatrix, JointDistribution, SourceParams, SimConfig, simulate
from photoncorr.cli import main
from photoncorr.io import (
    distribution_to_text,
    read_counts,
    sum_difference_to_text,
    sum_difference_view,
    write_counts,
    write_distribution,
    write_json,
)

from conftest import FIT_DET_H, FIT_DET_V, PAPER_DET_H, PAPER_DET_V


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def read_json(path):
    """A JSON output, parsed strictly: ``NaN`` and ``Infinity`` are not JSON."""
    with open(path) as handle:
        return json.load(handle, parse_constant=_not_json)


def write_config(path, **overrides):
    config = {
        "source": {"mean_photons": 1.2, "correlation": 0.6},
        "detector_h": {"efficiency": 0.4, "dark_mean": 0.05, "crosstalk": 0.06},
        "detector_v": {"efficiency": 0.35, "dark_mean": 0.04, "crosstalk": 0.05},
        "shots": 20_000,
        "seed": 13,
        "n_max": 10,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return str(path)


class TestCountsFile:
    def test_round_trip_exact(self, tmp_path, rng):
        raw = rng.integers(0, 500, size=(4, 4)).astype(np.int64)
        counts = CountsMatrix(n_max=3, counts=raw, shots=int(raw.sum()) + 7, overflow=7)
        path = tmp_path / "counts.csv"
        write_counts(counts, str(path))
        loaded = read_counts(str(path))
        assert np.array_equal(loaded.counts, counts.counts)
        assert (loaded.n_max, loaded.shots, loaded.overflow) == (3, counts.shots, 7)

    def test_header_format(self, tmp_path):
        counts = CountsMatrix(n_max=1, counts=np.array([[3, 1], [1, 0]]), shots=5)
        path = tmp_path / "counts.csv"
        write_counts(counts, str(path))
        first = path.read_text().splitlines()[0]
        assert first == "# n_max=1 shots=5 overflow=0"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError):
            read_counts(str(path))


class TestDistributionFile:
    def test_round_trip_exact(self, tmp_path, rng):
        probs = rng.random((5, 5))
        probs /= probs.sum() * 1.25
        dist = JointDistribution(n_max=4, probs=probs, tail_mass=1 - probs.sum())
        path = tmp_path / "dist.csv"
        write_distribution(dist, str(path))
        header = path.read_text().splitlines()[0]
        assert header == f"# n_max=4 tail_mass={dist.tail_mass!r}"
        assert np.array_equal(np.loadtxt(path, delimiter=","), dist.probs)

    def test_text_is_each_float_repr(self, rng):
        # Signed zero, subnormals, tiny and random values: every cell is
        # written as repr(float(v)), so the text round-trips exactly.
        probs = rng.random((6, 6))
        probs[0] = [-0.0, 5e-324, 2.2250738585072014e-308 / 3.0, 1e-300, 0.1, 1.0 / 3.0]
        dist = JointDistribution(n_max=5, probs=probs, tail_mass=0.125)
        lines = distribution_to_text(dist).splitlines()
        assert lines[0] == "# n_max=5 tail_mass=0.125"
        assert lines[1:] == [",".join(repr(float(v)) for v in row) for row in dist.probs]
        assert lines[1].startswith("-0.0,5e-324,")


class TestJsonFile:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json({"value": value}, str(path))
        assert not path.exists()


class TestSumDifferenceView:
    def test_delta_single_row(self):
        matrix = np.zeros((5, 5))
        matrix[2, 1] = 4.0
        rows = sum_difference_view(matrix)
        assert len(rows) == 1
        assert (rows[0].total, rows[0].difference, rows[0].value) == (3, 1, 4.0)

    def test_invariants(self, rng):
        matrix = rng.random((7, 7))
        matrix[matrix < 0.5] = 0.0
        for row in sum_difference_view(matrix):
            assert abs(row.difference) <= row.total
            assert row.total <= 2 * 6
            assert (row.total - row.difference) % 2 == 0

    def test_round_trip(self, tmp_path, rng):
        matrix = rng.random((4, 4))
        rows = sum_difference_view(matrix)
        path = tmp_path / "sd.csv"
        path.write_text(sum_difference_to_text(rows))
        assert path.read_text().splitlines()[0] == "S,D,value"
        expected = [[r.total, r.difference, r.value] for r in rows]
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), expected)

    def test_ordering(self, rng):
        matrix = rng.random((6, 6))
        rows = sum_difference_view(matrix)
        keys = [(r.total, r.difference) for r in rows]
        assert keys == sorted(keys)


class TestSimulateCommand:
    def test_outputs_and_round_trip(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        loaded = read_counts(str(out / "counts.csv"))
        direct = simulate(
            SimConfig(
                SourceParams(1.2, 0.6),
                PAPER_DET_H.__class__(0.4, 0.05, 0.06),
                PAPER_DET_V.__class__(0.35, 0.04, 0.05),
                20_000,
                13,
                10,
            )
        )
        assert np.array_equal(loaded.counts, direct.counts)
        manifest = read_json(out / "simulate_manifest.json")
        assert manifest["command"] == "simulate"
        assert str(out / "counts.csv") in manifest["outputs"]
        assert manifest["seed"] == 13
        assert manifest["peak_rss_mb"] > 0.0

    def test_manifest_peak_memory_null_without_resource(self, tmp_path, monkeypatch):
        # Where the resource module does not exist, the peak is unknown.
        monkeypatch.setattr(photoncorr.cli, "resource", None)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path / "config.json"),
                     "--out", str(out)]) == 0
        assert read_json(out / "simulate_manifest.json")["peak_rss_mb"] is None

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out2)]) == 0
        assert (out1 / "counts.csv").read_bytes() == (out2 / "counts.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(out1)])
        main(["simulate", "--config", config, "--seed", "99", "--out", str(out2)])
        assert (out1 / "counts.csv").read_bytes() != (out2 / "counts.csv").read_bytes()

    def test_malformed_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_missing_key_exit_code(self, tmp_path):
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps({"source": {"mean_photons": 1.0}}))
        assert main(["simulate", "--config", str(incomplete), "--out", str(tmp_path)]) == 2

    def test_invalid_domain_exit_code(self, tmp_path):
        config = write_config(
            tmp_path / "config.json",
            detector_h={"efficiency": 1.5, "dark_mean": 0.0, "crosstalk": 0.0},
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2

    def test_mean_above_int32_limit_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json",
                              source={"mean_photons": 2e6, "correlation": 0.5})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "mean_photons" in err

    def test_missing_config_file_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 4

    def test_manifest_config_round_trip(self, tmp_path):
        # The resolved config in the manifest reruns the same acquisition.
        config = write_config(tmp_path / "config.json")
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(first)]) == 0
        resolved = read_json(first / "simulate_manifest.json")["config"]
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(resolved))
        assert main(["simulate", "--config", str(replay), "--out", str(second)]) == 0
        assert (first / "counts.csv").read_bytes() == (second / "counts.csv").read_bytes()


class TestMeasureCommand:
    def test_product_counts_report_zero_distance(self, tmp_path):
        # A rank-1 integer matrix is an exact product histogram.
        row = np.array([800, 150, 40, 10])
        col = np.array([700, 220, 60, 20])
        counts = np.outer(row, col).astype(np.int64)
        matrix = CountsMatrix(n_max=3, counts=counts, shots=int(counts.sum()))
        path = tmp_path / "counts.csv"
        write_counts(matrix, str(path))
        out = tmp_path / "meas"
        assert main(["measure", str(path), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["product_distance"] < 1e-6
        assert report["mean_interior_ratio"] == pytest.approx(1.0, abs=1e-9)
        assert set(report) == {
            "mean_interior_ratio", "product_distance", "coincidence_ratio",
            "lee_nonclassical", "lee_witness", "singular_values", "n_max", "shots", "manifest",
        }
        assert len(report["singular_values"]) == 4
        assert report["singular_values"][0] == pytest.approx(1.0, abs=1e-12)

    def test_sum_difference_output(self, tmp_path):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[2, 1] = 10
        matrix = CountsMatrix(n_max=3, counts=counts, shots=10)
        path = tmp_path / "counts.csv"
        write_counts(matrix, str(path))
        out = tmp_path / "meas"
        assert main(["measure", str(path), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "sum_difference.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.tolist() == [[3, 1, 10.0]]

    def test_undefined_ratio_is_null(self, tmp_path):
        # Every count in column 0: no cell with a count in both modes has a
        # nonzero product of marginals, so the interior ratio is undefined.
        path = tmp_path / "counts.csv"
        path.write_text("# n_max=2 shots=10 overflow=0\n5,0,0\n3,0,0\n2,0,0\n")
        out = tmp_path / "meas"
        assert main(["measure", str(path), "--out", str(out)]) == 0
        assert read_json(out / "report.json")["mean_interior_ratio"] is None

    def test_missing_counts_exit_code(self, tmp_path):
        assert main(["measure", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 4


def assert_bounds_printed(result, printed):
    """The printed line names every parameter ``fit.json`` has on a bound,
    stage 1's as ``stage1.<name>``, and says "on a bound" only then."""
    held = result["at_bound"] + [f"stage1.{name}" for name in result["stage1"]["at_bound"]]
    assert ("on a bound" in printed) == bool(held)
    assert all(name in printed for name in held)


class TestFitCommand:
    def make_counts_file(self, tmp_path):
        config = write_config(tmp_path / "config.json", shots=100_000)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        return config, str(out / "counts.csv")

    def test_fit_outputs(self, tmp_path, capsys):
        config, counts_path = self.make_counts_file(tmp_path)
        out = tmp_path / "fit"
        code = main(["fit", counts_path, "--config", config, "--out", str(out),
                     "--bootstrap", "3", "--seed", "5", "--reconstruct", "20"])
        assert code == 0
        result = read_json(out / "fit.json")
        assert 0.0 <= result["correlation"] <= 1.0
        assert result["g_error"] >= 0.0
        assert result["distance_error"] >= 0.0
        assert set(result) == {
            "mean_photons", "correlation", "nu", "at_bound", "detector_h", "detector_v",
            "residual", "g_error", "distance_error", "nu_error", "evaluations", "stage1",
            "manifest",
        }
        assert result["nu_error"] >= 0.0
        assert isinstance(result["evaluations"], int) and result["evaluations"] > 12
        assert result["nu"] == pytest.approx(
            result["correlation"] * (1.0 + 1.0 / result["mean_photons"]), rel=1e-15
        )
        assert set(result["at_bound"]) <= {"mean_photons", "correlation"}
        printed = capsys.readouterr().out
        assert f"nu={result['nu']:.4f}" in printed
        assert_bounds_printed(result, printed)
        assert set(result["stage1"]) == {
            "detected_mean_h", "detected_mean_v", "dark_h", "dark_v", "xtalk_h", "xtalk_v",
            "residual", "evaluations", "at_bound",
        }
        for key in ("detector_h", "detector_v"):
            assert set(result[key]) == {"efficiency", "dark_mean", "crosstalk"}
        recon = out / "reconstruction.csv"
        assert recon.read_text().startswith("# n_max=20 tail_mass=")
        assert np.loadtxt(recon, delimiter=",").shape == (21, 21)
        manifest = read_json(out / "fit_manifest.json")
        assert manifest["command"] == "fit"
        assert set(manifest["config"]["fit"]) == {"max_iterations", "convergence_tol"}

    def test_names_stage1_parameters_on_a_bound(self, tmp_path, capsys):
        # At criterion 4's g = 0.06 input, stage 1 holds dark_h on 0 and
        # stage 2 ends inside its range.
        counts = simulate(
            SimConfig(SourceParams(4.1, 0.06), FIT_DET_H, FIT_DET_V, 10 ** 6, 601, 34)
        )
        counts_path = tmp_path / "counts.csv"
        write_counts(counts, str(counts_path))
        out = tmp_path / "fit"
        assert main(["fit", str(counts_path), "--out", str(out)]) == 0
        result = read_json(out / "fit.json")
        assert result["at_bound"] == [] and result["stage1"]["at_bound"] == ["dark_h"]
        printed = capsys.readouterr().out
        assert "(on a bound: stage1.dark_h)" in printed
        assert_bounds_printed(result, printed)

    def test_manifest_fit_block_round_trip(self, tmp_path):
        # The manifest's resolved fit block reruns the same fit.
        config, counts_path = self.make_counts_file(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        flags = ["--bootstrap", "3", "--seed", "5"]
        assert main(["fit", counts_path, "--config", config, "--out", str(first)] + flags) == 0
        resolved = read_json(first / "fit_manifest.json")["config"]["fit"]
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps({"fit": resolved}))
        assert main(["fit", counts_path, "--config", str(replay), "--out", str(second)]
                    + flags) == 0
        assert (first / "fit.json").read_bytes() == (second / "fit.json").read_bytes()

    def test_bootstrap_fits_stage1_once(self, tmp_path, monkeypatch):
        config, counts_path = self.make_counts_file(tmp_path)
        calls = []
        fit_stage1 = photoncorr.inference.fit_stage1

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_stage1(*args, **kwargs)

        monkeypatch.setattr(photoncorr.inference, "fit_stage1", counted)
        code = main(["fit", counts_path, "--config", config, "--out", str(tmp_path / "fit"),
                     "--bootstrap", "3"])
        assert code == 0
        assert len(calls) == 1

    def test_bootstrap_of_sparse_counts(self, tmp_path):
        # Resamples of these counts often keep the overflow alone; each is
        # drawn again until it has in-range counts, so the bootstrap runs.
        path = str(tmp_path / "counts.csv")
        write_counts(CountsMatrix(2, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], 9, 5), path)
        for seed in range(4):
            out = tmp_path / f"fit{seed}"
            assert main(["fit", path, "--bootstrap", "100", "--seed", str(seed),
                         "--out", str(out)]) == 0
            assert read_json(out / "fit.json")["distance_error"] >= 0.0

    def test_weighting_key_ignored(self, tmp_path):
        # Configs written for earlier versions carry "weighting" and
        # "n_max" keys; the fit ignores both.
        config, counts_path = self.make_counts_file(tmp_path)
        legacy = write_config(tmp_path / "legacy.json", fit={"weighting": "poisson", "n_max": 30})
        fits = []
        for name, path in (("plain", config), ("legacy", legacy)):
            out = tmp_path / name
            assert main(["fit", counts_path, "--config", path, "--out", str(out)]) == 0
            fits.append((out / "fit.json").read_bytes())
        assert fits[0] == fits[1]

    def test_non_convergence_exit_code(self, tmp_path):
        config_path = tmp_path / "starved.json"
        config, counts_path = self.make_counts_file(tmp_path)
        config_path.write_text(json.dumps({"fit": {"max_iterations": 1}}))
        code = main(["fit", counts_path, "--config", str(config_path),
                     "--out", str(tmp_path / "starved")])
        assert code == 3

    def test_invalid_fit_config_exit_code(self, tmp_path):
        config_path = tmp_path / "bad_fit.json"
        config, counts_path = self.make_counts_file(tmp_path)
        config_path.write_text(json.dumps({"fit": {"max_iterations": 0}}))
        code = main(["fit", counts_path, "--config", str(config_path),
                     "--out", str(tmp_path / "bad_fit")])
        assert code == 2


class TestConfigErrors:
    # (command, config overrides, the key the error message must name)
    @pytest.mark.parametrize("command, overrides, key", [
        pytest.param("fit", {"fit": [1]}, "fit", id="fit-list"),
        pytest.param("fit", {"fit": {"max_iterations": float("inf")}}, "max_iterations",
                     id="fit-iterations-inf"),
        pytest.param("fit", {"seed": [5]}, "seed", id="fit-seed-list"),
        pytest.param("fit", {"seed": 7.5}, "seed", id="fit-seed-fraction"),
        pytest.param("fit", {"fit": {"max_iterations": 10.5}}, "max_iterations",
                     id="fit-iterations-fraction"),
        pytest.param("fit", {"fit": {"max_iterations": True}}, "max_iterations",
                     id="fit-iterations-bool"),
        pytest.param("fit", {"fit": {"convergence_tol": True}}, "convergence_tol",
                     id="fit-tol-bool"),
        pytest.param("fit", {"fit": {"convergence_tol": float("inf")}},
                     "convergence_tol", id="fit-tol-inf"),
        pytest.param("simulate", {"source": {"mean_photons": None}}, "mean_photons",
                     id="mean-null"),
        pytest.param("simulate", {"source": None}, "source", id="source-null"),
        pytest.param("simulate", {"detector_h": {"efficiency": [0.5]}}, "efficiency",
                     id="efficiency-list"),
        pytest.param("simulate", {"shots": [1]}, "shots", id="shots-list"),
        pytest.param("simulate", {"seed": [13]}, "seed", id="seed-list"),
        pytest.param("simulate", {"n_max": None}, "n_max", id="n_max-null"),
        pytest.param("simulate", {"shots": 1000.9}, "shots", id="shots-fraction"),
        pytest.param("simulate", {"shots": True}, "shots", id="shots-bool"),
        pytest.param("simulate", {"seed": 7.5}, "seed", id="seed-fraction"),
        pytest.param("simulate", {"seed": False}, "seed", id="seed-bool"),
        pytest.param("simulate", {"source": {"mean_photons": "1.2", "correlation": 0.6}},
                     "mean_photons", id="mean-string"),
        pytest.param("simulate", {"shots": "20000"}, "shots", id="shots-string"),
        pytest.param("simulate", {"shots": "2e4"}, "shots", id="shots-exponent-string"),
        pytest.param("simulate", {"n_max": 8.9}, "n_max", id="n_max-fraction"),
        pytest.param("simulate", {"source": {"mean_photons": True, "correlation": 0.6}},
                     "mean_photons", id="mean-bool"),
        pytest.param("simulate",
                     {"detector_h": {"efficiency": 0.4, "dark_mean": False, "crosstalk": 0.06}},
                     "dark_mean", id="dark_mean-bool"),
        pytest.param("simulate", {"source": {"mean_photons": float("inf"), "correlation": 0.6}},
                     "mean_photons", id="mean-inf"),
        pytest.param("simulate",
                     {"detector_h": {"efficiency": 0.4, "dark_mean": float("inf"),
                                     "crosstalk": 0.06}},
                     "dark_mean", id="dark-inf"),
        pytest.param("sweep", {"shots": 1000.9, "g_list": [0.5]}, "shots",
                     id="sweep-shots-fraction"),
        pytest.param("sweep", {"g_list": None}, "g_list", id="g_list-null"),
        pytest.param("sweep", {"g_list": [None]}, "g_list", id="g_list-item-null"),
        pytest.param("sweep", {"g_list": [True]}, "g_list", id="g_list-item-bool"),
        pytest.param("sweep", {"g_list": []}, "g_list", id="g_list-empty"),
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, command, overrides, key):
        config = write_config(tmp_path / "config.json", **overrides)
        counts = CountsMatrix(n_max=1, counts=np.array([[3, 1], [1, 2]]), shots=7)
        counts_path = str(tmp_path / "counts.csv")
        write_counts(counts, counts_path)
        argv = {
            "fit": ["fit", counts_path, "--config", config, "--bootstrap", "2"],
            "simulate": ["simulate", "--config", config],
            "sweep": ["sweep", "--config", config],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert key in capsys.readouterr().err

    def test_integral_float_accepted(self, tmp_path):
        config = write_config(tmp_path / "config.json", shots=2e4, seed=13.0, n_max=10.0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert read_counts(str(out / "counts.csv")).shots == 20_000

    def test_sweep_checks_every_g_first(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "config.json")

        def must_not_run(*args, **kwargs):
            pytest.fail("an invalid g must be rejected before any simulation")

        monkeypatch.setattr(photoncorr.cli, "simulate", must_not_run)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--g-list", "0.5,1.5", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_negative_bootstrap_exit_code(self, tmp_path, monkeypatch, command):
        config = write_config(tmp_path / "config.json")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0

        def must_not_run(*args, **kwargs):
            pytest.fail("an invalid --bootstrap must be rejected before any simulation or fit")

        monkeypatch.setattr(photoncorr.cli, "simulate", must_not_run)
        monkeypatch.setattr(photoncorr.inference, "fit_stage1", must_not_run)
        argv = {
            "fit": ["fit", str(tmp_path / "sim" / "counts.csv"), "--config", config],
            "sweep": ["sweep", "--config", config, "--g-list", "0.5"],
        }[command]
        for bootstrap in ("-1", "1"):
            out = tmp_path / f"out{bootstrap}"
            assert main(argv + ["--bootstrap", bootstrap, "--out", str(out)]) == 2
            assert not out.exists()

    def test_negative_reconstruct_exit_code(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "config.json")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0

        def must_not_run(*args, **kwargs):
            pytest.fail("an invalid --reconstruct must be rejected before the fit")

        monkeypatch.setattr(photoncorr.inference, "fit_stage1", must_not_run)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", str(tmp_path / "sim" / "counts.csv"), "--config", config,
                     "--bootstrap", "100", "--reconstruct", "-1", "--out", str(out)])
        assert code == 2
        assert list(out.iterdir()) == []


class TestSweepCommand:
    def test_two_rows_and_gamma_law(self, tmp_path):
        config = write_config(tmp_path / "config.json", shots=100_000)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", config, "--g-list", "0,1", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("g_true,gamma,")
        assert lines[0].endswith(",g_fitted,g_error,distance_error,nu_fitted,nu_error")
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        # nu = g (1 + 1/mean) is at least g; without a bootstrap it has no error.
        assert all(float(row[7]) >= float(row[4]) and row[8] == "" for row in rows)
        g0, g1 = float(rows[0][1]), float(rows[1][1])
        # gamma = g * efficiency of the non-heralding detector.
        assert g0 == pytest.approx(0.0, abs=1e-4)
        assert g1 == pytest.approx(0.35, rel=1e-2)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path / "config.json", shots=50_000)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", config, "--g-list", "0.2,0.8",
                     "--out", str(out1)]) == 0
        assert main(["sweep", "--config", config, "--g-list", "0.2,0.8",
                     "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_missing_g_list_exit_code(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("g_list, named", [
        pytest.param("", "g_list", id="empty"),
        pytest.param(",", "g_list", id="comma"),
        pytest.param("0.1,abc", "--g-list", id="not-a-number"),
    ])
    def test_bad_g_list_flag_exit_code(self, tmp_path, capsys, monkeypatch, g_list, named):
        config = write_config(tmp_path / "config.json")

        def must_not_run(*args, **kwargs):
            pytest.fail("a bad --g-list must be rejected before any simulation")

        monkeypatch.setattr(photoncorr.cli, "simulate", must_not_run)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--g-list", g_list, "--out", str(out)]) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_fitted_g_linear_in_heralded_efficiency(self, tmp_path):
        # The fitted degree of correlation tracks the model heralded
        # efficiency linearly across the sweep.
        config = write_config(
            tmp_path / "config.json",
            source={"mean_photons": 4.1, "correlation": 0.0},
            detector_h={"efficiency": 0.70, "dark_mean": 0.02, "crosstalk": 0.05},
            detector_v={"efficiency": 0.65, "dark_mean": 0.03, "crosstalk": 0.04},
            shots=10 ** 6,
            n_max=34,
        )
        out = tmp_path / "sweep_linear"
        code = main(["sweep", "--config", config,
                     "--g-list", "0.1,0.3,0.5,0.7,0.9", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        gamma = np.array([float(line.split(",")[1]) for line in lines])
        distance = np.array([float(line.split(",")[3]) for line in lines])
        fitted = np.array([float(line.split(",")[4]) for line in lines])
        assert np.all(np.diff(distance) > 0)
        slope, intercept = np.polyfit(gamma, fitted, 1)
        predicted = slope * gamma + intercept
        ss_res = ((fitted - predicted) ** 2).sum()
        ss_tot = ((fitted - fitted.mean()) ** 2).sum()
        assert 1.0 - ss_res / ss_tot > 0.95
