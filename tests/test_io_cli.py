import json
import os

import numpy as np
import pytest

import photoncorr.cli
import photoncorr.inference
from photoncorr import CountsMatrix, JointDistribution, SourceParams, SimConfig, simulate
from photoncorr.cli import main
from photoncorr.io import (
    read_counts,
    read_distribution,
    read_json,
    read_sum_difference,
    sum_difference_to_text,
    sum_difference_view,
    write_counts,
    write_distribution,
)

from conftest import PAPER_DET_H, PAPER_DET_V


def write_config(path, **overrides):
    config = {
        "source": {"mean_photons": 1.2, "correlation": 0.6},
        "detector_h": {"efficiency": 0.4, "dark_mean": 0.05, "crosstalk": 0.06},
        "detector_v": {"efficiency": 0.35, "dark_mean": 0.04, "crosstalk": 0.05},
        "shots": 20_000,
        "seed": 13,
        "n_max": 10,
        "fit": {"n_max": 30},
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
        loaded = read_distribution(str(path))
        assert np.array_equal(loaded.probs, dist.probs)
        assert loaded.tail_mass == dist.tail_mass


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
        assert read_sum_difference(str(path)) == rows

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
        manifest = read_json(str(out / "simulate_manifest.json"))
        assert manifest["command"] == "simulate"
        assert str(out / "counts.csv") in manifest["outputs"]
        assert manifest["seed"] == 13

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

    def test_missing_config_file_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 4


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
        report = read_json(str(out / "report.json"))
        assert report["product_distance"] < 1e-6
        assert report["mean_interior_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_sum_difference_output(self, tmp_path):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[2, 1] = 10
        matrix = CountsMatrix(n_max=3, counts=counts, shots=10)
        path = tmp_path / "counts.csv"
        write_counts(matrix, str(path))
        out = tmp_path / "meas"
        assert main(["measure", str(path), "--out", str(out)]) == 0
        rows = read_sum_difference(str(out / "sum_difference.csv"))
        assert len(rows) == 1
        assert (rows[0].total, rows[0].difference) == (3, 1)

    def test_missing_counts_exit_code(self, tmp_path):
        assert main(["measure", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 4


class TestFitCommand:
    def make_counts_file(self, tmp_path):
        config = write_config(tmp_path / "config.json", shots=100_000)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        return config, str(out / "counts.csv")

    def test_fit_outputs(self, tmp_path):
        config, counts_path = self.make_counts_file(tmp_path)
        out = tmp_path / "fit"
        code = main(["fit", counts_path, "--config", config, "--out", str(out),
                     "--bootstrap", "3", "--seed", "5", "--reconstruct", "20"])
        assert code == 0
        result = read_json(str(out / "fit.json"))
        assert 0.0 <= result["correlation"] <= 1.0
        assert result["g_error"] >= 0.0
        assert result["distance_error"] >= 0.0
        assert set(result) == {
            "mean_photons", "correlation", "detector_h", "detector_v", "residual",
            "g_error", "distance_error", "stage1", "manifest",
        }
        assert set(result["stage1"]) == {
            "detected_mean_h", "detected_mean_v", "dark_h", "dark_v", "xtalk_h", "xtalk_v",
            "residual",
        }
        for key in ("detector_h", "detector_v"):
            assert set(result[key]) == {"efficiency", "dark_mean", "crosstalk"}
        recon = read_distribution(str(out / "reconstruction.csv"))
        assert recon.n_max == 20
        manifest = read_json(str(out / "fit_manifest.json"))
        assert manifest["command"] == "fit"
        assert set(manifest["config"]["fit"]) == {
            "max_iterations", "convergence_tol", "n_max",
        }

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

    def test_weighting_key_ignored(self, tmp_path):
        # Configs written for earlier versions carry a "weighting" key.
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
        config_path.write_text(json.dumps({"fit": {"max_iterations": 1, "n_max": 30}}))
        code = main(["fit", counts_path, "--config", str(config_path),
                     "--out", str(tmp_path / "starved")])
        assert code == 3

    def test_invalid_fit_config_exit_code(self, tmp_path):
        config_path = tmp_path / "bad_fit.json"
        config, counts_path = self.make_counts_file(tmp_path)
        config_path.write_text(json.dumps({"fit": {"n_max": 0}}))
        code = main(["fit", counts_path, "--config", str(config_path),
                     "--out", str(tmp_path / "bad_fit")])
        assert code == 2


class TestConfigErrors:
    @pytest.mark.parametrize("command, overrides", [
        pytest.param("fit", {"fit": {"n_max": None}}, id="fit-n_max-null"),
        pytest.param("fit", {"fit": [1]}, id="fit-list"),
        pytest.param("fit", {"fit": {"max_iterations": float("inf")}}, id="fit-iterations-inf"),
        pytest.param("fit", {"seed": [5]}, id="fit-seed-list"),
        pytest.param("simulate", {"source": {"mean_photons": None}}, id="mean-null"),
        pytest.param("simulate", {"source": None}, id="source-null"),
        pytest.param("simulate", {"detector_h": {"efficiency": [0.5]}}, id="efficiency-list"),
        pytest.param("simulate", {"shots": [1]}, id="shots-list"),
        pytest.param("simulate", {"seed": [13]}, id="seed-list"),
        pytest.param("simulate", {"n_max": None}, id="n_max-null"),
        pytest.param("sweep", {"g_list": None}, id="g_list-null"),
        pytest.param("sweep", {"g_list": [None]}, id="g_list-item-null"),
    ])
    def test_malformed_value_exit_code(self, tmp_path, command, overrides):
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
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
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
            fit={"n_max": 60},
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
