import numpy as np
import pytest

import photoncorr.inference as inference
from photoncorr import (
    CountsMatrix,
    DetectorParams,
    FitConfig,
    FitConvergenceError,
    FitResult,
    SimConfig,
    SourceParams,
    apply_two_mode,
    bootstrap,
    fit_stage1,
    fit_stage2,
    mixture_joint,
    normalize,
    pdc_joint,
    product_distance,
    reconstruct,
    simulate,
    singular_spectrum,
)
from photoncorr.inference import fit_counts, poisson_resample, _resample_rng
from photoncorr.montecarlo import total_variation

from conftest import FIT_DET_H, FIT_DET_V, PAPER_DET_H, PAPER_DET_V

# Darks and crosstalk at the reference-measurement level, with enough
# efficiency for the histogram to constrain all six parameters.
STAGE1_DET_H = DetectorParams(0.70, 0.11, 0.12)
STAGE1_DET_V = DetectorParams(0.65, 0.14, 0.11)


def simulate_counts(g, det_h, det_v, shots, seed, n_max, mean=4.1):
    config = SimConfig(SourceParams(mean, g), det_h, det_v, shots, seed, n_max)
    return simulate(config)


class TestStage1:
    def test_recovers_detector_parameters(self):
        counts = simulate_counts(0.5, STAGE1_DET_H, STAGE1_DET_V, 10 ** 6, 42, 34)
        s1 = fit_stage1(counts, FitConfig(n_max=60))
        assert s1.detected_mean_h == pytest.approx(0.70 * 4.1, rel=0.05)
        assert s1.detected_mean_v == pytest.approx(0.65 * 4.1, rel=0.05)
        assert s1.dark_h == pytest.approx(0.11, rel=0.15)
        assert s1.dark_v == pytest.approx(0.14, rel=0.15)
        assert s1.xtalk_h == pytest.approx(0.12, rel=0.15)
        assert s1.xtalk_v == pytest.approx(0.11, rel=0.15)
        assert s1.residual >= 0.0

    def test_ideal_detector_identity_limit(self):
        ideal = DetectorParams.ideal()
        counts = simulate_counts(1.0, ideal, ideal, 300_000, 5, 20, mean=1.0)
        s1 = fit_stage1(counts, FitConfig())
        assert s1.detected_mean_h == pytest.approx(1.0, abs=0.02)
        assert s1.detected_mean_v == pytest.approx(1.0, abs=0.02)
        assert s1.dark_h <= 0.01 and s1.dark_v <= 0.01
        assert s1.xtalk_h <= 0.01 and s1.xtalk_v <= 0.01

    def test_degenerate_counts_rejected(self):
        counts = np.zeros((5, 5), dtype=np.int64)
        counts[0, 0] = 1000
        degenerate = CountsMatrix(n_max=4, counts=counts, shots=1000)
        with pytest.raises(ValueError):
            fit_stage1(degenerate, FitConfig())

    def test_exhausted_budget_raises_with_best(self):
        counts = simulate_counts(0.3, FIT_DET_H, FIT_DET_V, 50_000, 1, 16)
        with pytest.raises(FitConvergenceError) as excinfo:
            fit_stage1(counts, FitConfig(max_iterations=1))
        assert excinfo.value.best is not None
        assert np.isfinite(excinfo.value.objective)


class TestStage2:
    def test_round_trip(self):
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 300_000, 9, 30)
        config = FitConfig(n_max=60)
        s1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, s1, config)
        assert abs(fit.source.correlation - 0.47) <= 0.05
        assert 0.0 <= fit.source.correlation <= 1.0
        assert fit.det_h.efficiency <= 1.0 and fit.det_v.efficiency <= 1.0

    def test_product_input_gives_small_g(self):
        counts = simulate_counts(0.0, FIT_DET_H, FIT_DET_V, 300_000, 11, 30)
        config = FitConfig(n_max=60)
        fit = fit_stage2(counts, fit_stage1(counts, config), config)
        assert fit.source.correlation <= 0.03

    def test_shared_product_state_distinct_g(self):
        # Same marginal statistics, three correlation levels: stage 1
        # must agree across them, stage 2 must separate them.
        config = FitConfig(n_max=60)
        stage1s, fits = [], []
        for g in (0.06, 0.23, 0.47):
            counts = simulate_counts(g, FIT_DET_H, FIT_DET_V, 10 ** 6, 21, 34)
            s1 = fit_stage1(counts, config)
            stage1s.append(s1)
            fits.append(fit_stage2(counts, s1, config))
        dm_h = [s.detected_mean_h for s in stage1s]
        dm_v = [s.detected_mean_v for s in stage1s]
        assert max(dm_h) - min(dm_h) < 0.05 * np.mean(dm_h)
        assert max(dm_v) - min(dm_v) < 0.05 * np.mean(dm_v)
        g_fitted = [f.source.correlation for f in fits]
        assert g_fitted[0] < g_fitted[1] < g_fitted[2]
        assert np.allclose(g_fitted, [0.06, 0.23, 0.47], atol=0.05)

    def test_estimator_consistency_in_shots(self):
        # Median |g_hat - g| over ten seeds must shrink from 1e4 to 1e6
        # shots.
        config = FitConfig(n_max=60)
        errors = {}
        for shots in (10 ** 4, 10 ** 6):
            errs = []
            for seed in range(10):
                counts = simulate_counts(0.3, FIT_DET_H, FIT_DET_V, shots, 50 + seed, 20)
                fit = fit_stage2(counts, fit_stage1(counts, config), config)
                errs.append(abs(fit.source.correlation - 0.3))
            errors[shots] = float(np.median(errs))
        assert errors[10 ** 6] < errors[10 ** 4]

    def test_stage_consistency_fixpoint(self):
        # Counts regenerated from the fitted model refit to the same
        # detected means within one percent.
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 10 ** 6, 33, 30)
        config = FitConfig(n_max=60)
        s1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, s1, config)
        model = apply_two_mode(
            mixture_joint(fit.source, config.n_max), fit.det_h, fit.det_v, n_out=30
        )
        synthetic = np.rint(model.probs * 10 ** 8).astype(np.int64)
        regenerated = CountsMatrix(
            n_max=30, counts=synthetic, shots=int(synthetic.sum())
        )
        s1_again = fit_stage1(regenerated, config)
        assert s1_again.detected_mean_h == pytest.approx(s1.detected_mean_h, rel=0.01)
        assert s1_again.detected_mean_v == pytest.approx(s1.detected_mean_v, rel=0.01)

    def test_objective_monotonicity(self):
        counts = simulate_counts(0.3, FIT_DET_H, FIT_DET_V, 100_000, 3, 20)
        config = FitConfig(n_max=40)
        s1 = fit_stage1(counts, config)
        trace = []
        fit_stage2(counts, s1, config, trace=trace)
        assert len(trace) > 10
        assert all(b <= a + 1e-18 for a, b in zip(trace, trace[1:]))

    def test_reaches_global_basin(self):
        # At the reference detectors the objective over the source mean
        # has two basins. On this histogram (the seed-2 fit-bootstrap
        # input of bench/run.py) a local search from the low-mean basin
        # stops near g = 0.08, mean = 0.14, while the global minimum lies
        # near g = 0.57, mean = 4.3, lower by 0.07%. The grid stays inside
        # the fit's mean bounds (above the larger detected mean, below
        # n_max / 3).
        counts = simulate_counts(0.5, PAPER_DET_H, PAPER_DET_V, 10 ** 6, 165131858720007, 12)
        config = FitConfig(n_max=40)
        s1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, s1, config)

        emp = counts.counts / counts.shots
        w = 1.0 / np.maximum(counts.counts, 1)
        g = np.linspace(0.0, 1.0, 201)[:, None, None]
        grid_min = np.inf
        mean_lo = max(s1.detected_mean_h, s1.detected_mean_v) * (1.0 + 1e-6)
        for mean in np.geomspace(mean_lo, 10.0, 200):
            det_h = DetectorParams(s1.detected_mean_h / mean, s1.dark_h, s1.xtalk_h)
            det_v = DetectorParams(s1.detected_mean_v / mean, s1.dark_v, s1.xtalk_v)
            # The model is affine in g, so its ends give every grid value.
            a, b = (
                apply_two_mode(
                    mixture_joint(SourceParams(mean, end), config.n_max), det_h, det_v, n_out=12
                ).probs
                for end in (1.0, 0.0)
            )
            diff = b + g * (a - b) - emp
            grid_min = min(grid_min, float((w * diff * diff).sum(axis=(1, 2)).min()))
        assert fit.residual <= grid_min * (1.0 + 1e-9)


class TestReconstruct:
    def test_full_correlation_is_diagonal(self):
        fit = FitResult(
            source=SourceParams(2.0, 1.0),
            det_h=PAPER_DET_H,
            det_v=PAPER_DET_V,
            residual=0.0,
        )
        recon = reconstruct(fit, 12)
        off = recon.probs[~np.eye(13, dtype=bool)]
        assert np.all(off == 0.0)

    def test_zero_correlation_is_rank_one(self):
        fit = FitResult(
            source=SourceParams(2.0, 0.0),
            det_h=PAPER_DET_H,
            det_v=PAPER_DET_V,
            residual=0.0,
        )
        s = np.linalg.svd(reconstruct(fit, 12).probs, compute_uv=False)
        assert s[1] < 1e-12

    def test_round_trip_close_to_truth(self):
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 10 ** 6, 8, 34)
        fit = fit_counts(counts, FitConfig(n_max=60))
        recon = reconstruct(fit, 40)
        truth = mixture_joint(SourceParams(4.1, 0.47), 40)
        assert total_variation(recon.probs, truth.probs) <= 0.02


class TestBootstrap:
    def make_counts(self):
        return simulate_counts(0.5, PAPER_DET_H, PAPER_DET_V, 10 ** 5, 17, 12)

    def test_too_few_resamples_rejected(self):
        with pytest.raises(ValueError):
            bootstrap(self.make_counts(), 1, seed=0)

    def test_deterministic_given_seed(self):
        counts = self.make_counts()
        config = FitConfig(n_max=40)
        first = bootstrap(counts, 4, seed=3, config=config)
        second = bootstrap(counts, 4, seed=3, config=config)
        assert first == second
        third = bootstrap(counts, 4, seed=4, config=config)
        assert third != first

    def test_errors_nonnegative(self):
        g_err, d_err = bootstrap(self.make_counts(), 4, seed=1, config=FitConfig())
        assert g_err >= 0.0 and d_err >= 0.0

    def test_identical_streams_give_zero_spread(self):
        # Degenerate determinism check: two resamples drawn from the
        # same stream are identical, so any derived error is exactly 0.
        counts = self.make_counts()
        draws = [poisson_resample(counts, _resample_rng(5, 0)) for _ in range(2)]
        assert np.array_equal(draws[0].counts, draws[1].counts)
        distances = [
            product_distance(singular_spectrum(normalize(d))) for d in draws
        ]
        assert np.std(distances) == 0.0

    def test_resample_invariants(self):
        counts = self.make_counts()
        resampled = poisson_resample(counts, _resample_rng(2, 7))
        assert resampled.counts.sum() + resampled.overflow == resampled.shots
        assert resampled.n_max == counts.n_max

    def test_stage1_fit_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_stage1(*args, **kwargs)

        monkeypatch.setattr(inference, "fit_stage1", counted)
        fit_counts(self.make_counts(), FitConfig(n_max=40), n_bootstrap=3, seed=2)
        assert len(calls) == 1

    def test_fit_counts_attaches_errors(self):
        counts = self.make_counts()
        fit = fit_counts(counts, FitConfig(n_max=40), n_bootstrap=3, seed=2)
        assert fit.g_error is not None and fit.g_error >= 0.0
        assert fit.distance_error is not None and fit.distance_error >= 0.0


class TestModeSymmetry:
    @pytest.mark.parametrize(
        "det_h, det_v, g, shots, n_out",
        [
            (FIT_DET_H, FIT_DET_V, 0.47, 300_000, 30),
            (PAPER_DET_H, PAPER_DET_V, 0.5, 10 ** 6, 12),
        ],
        ids=["fit", "paper"],
    )
    def test_swapping_modes_transposes_fit(self, det_h, det_v, g, shots, n_out):
        counts = simulate_counts(g, det_h, det_v, shots, 7, n_out)
        swapped = CountsMatrix(
            n_max=counts.n_max, counts=counts.counts.T, shots=counts.shots,
            overflow=counts.overflow,
        )
        config = FitConfig(n_max=40)
        s1, s1_t = fit_stage1(counts, config), fit_stage1(swapped, config)
        pairs = [
            (s1.detected_mean_h, s1_t.detected_mean_v),
            (s1.detected_mean_v, s1_t.detected_mean_h),
            (s1.dark_h, s1_t.dark_v),
            (s1.dark_v, s1_t.dark_h),
            (s1.xtalk_h, s1_t.xtalk_v),
            (s1.xtalk_v, s1_t.xtalk_h),
        ]
        # Darks can sit at their zero bound, where only an absolute
        # comparison is meaningful.
        for value, swapped_value in pairs:
            assert swapped_value == pytest.approx(value, rel=1e-6, abs=1e-9)
        fit, fit_t = fit_stage2(counts, s1, config), fit_stage2(swapped, s1_t, config)
        assert fit_t.source.correlation == pytest.approx(fit.source.correlation, rel=1e-6)
        assert fit_t.source.mean_photons == pytest.approx(fit.source.mean_photons, rel=1e-6)
        assert fit_t.residual == pytest.approx(fit.residual, rel=1e-6)


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"convergence_tol": 0.0},
            {"weighting": "equal"},
            {"n_max": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)
