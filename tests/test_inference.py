import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import photoncorr.inference as inference
from photoncorr import (
    CountsMatrix,
    DetectorParams,
    FitConfig,
    FitConvergenceError,
    FitResult,
    SimConfig,
    SourceParams,
    Stage1Result,
    after_loss_channel,
    apply_two_mode,
    loss_matrix,
    fit_stage1,
    fit_stage2,
    mixture_joint,
    normalize,
    product_distance,
    reconstruct,
    simulate,
    singular_spectrum,
    thermal_pmf,
)
from photoncorr.detector import _after_loss_pass
from photoncorr.distributions import _thermal_probs
from photoncorr.inference import fit_counts
from photoncorr.montecarlo import _stream_rng, total_variation

from conftest import FIT_DET_H, FIT_DET_V, PAPER_DET_H, PAPER_DET_V

# Darks and crosstalk at the reference-measurement level, with enough
# efficiency for the histogram to constrain all six parameters.
STAGE1_DET_H = DetectorParams(0.70, 0.11, 0.12)
STAGE1_DET_V = DetectorParams(0.65, 0.14, 0.11)


def simulate_counts(g, det_h, det_v, shots, seed, n_max, mean=4.1):
    config = SimConfig(SourceParams(mean, g), det_h, det_v, shots, seed, n_max)
    return simulate(config)


def detected_marginal(detected_mean, dark, xtalk, n_model, n_out):
    """A thermal mode with the loss absorbed, then darks and crosstalk."""
    return after_loss_channel(dark, xtalk, n_model, n_out) @ _thermal_probs(detected_mean, n_model)


def poisson_objective(counts, model, target):
    """The Poisson-weighted least-squares objective of both fit stages."""
    diff = model - target
    return float((diff * diff / np.maximum(counts.counts, 1)).sum())


# The photon numbers of the untruncated model: the thermal tail past them
# is below 1e-16 up to the stage-2 search's mean cap of 40/3.
N_EXACT = 520


def exact_terms(mean, det_h, det_v, n_out):
    """``apply_two_mode(mixture_joint(SourceParams(mean, g), N_EXACT), det_h, det_v, n_out)``
    at g = 0 and 1, the outer product and the diagonal of the thermal ``t``.

    The after-loss channel's columns past ``n_out`` are zero, so only rows
    0 .. ``n_out`` of each loss matrix are read.
    """
    ch, cv = (
        after_loss_channel(det.dark_mean, det.crosstalk, n_out)
        @ loss_matrix(det.efficiency, N_EXACT)[: n_out + 1]
        for det in (det_h, det_v)
    )
    t = thermal_pmf(mean, N_EXACT).probs
    return np.outer(ch @ t, cv @ t), (ch * t) @ cv.T


def exact_model(source, det_h, det_v, n_out):
    """The untruncated forward model of ``source``, ``g`` of the way from product to correlated."""
    product, correlated = exact_terms(source.mean_photons, det_h, det_v, n_out)
    return product + source.correlation * (correlated - product)


def stage1_detectors(stage1, mean):
    """The detectors of ``stage1`` at source mean ``mean``."""
    return (
        DetectorParams(min(detected / mean, 1.0), dark, xtalk)
        for detected, dark, xtalk in (
            (stage1.detected_mean_h, stage1.dark_h, stage1.xtalk_h),
            (stage1.detected_mean_v, stage1.dark_v, stage1.xtalk_v),
        )
    )


def profiled_objective(counts, stage1, mean):
    """The stage-2 objective at ``mean`` with g at its best value in [0, 1].

    The model is affine in g and the objective quadratic in it, so g is
    the unconstrained minimiser clipped to [0, 1].
    """
    product, correlated = exact_terms(mean, *stage1_detectors(stage1, mean), counts.n_max)
    slope, emp = correlated - product, counts.counts / counts.shots
    w = 1.0 / np.maximum(counts.counts, 1)
    g = np.clip((w * slope * (emp - product)).sum() / (w * slope * slope).sum(), 0.0, 1.0)
    return poisson_objective(counts, product + g * slope, emp)


# A histogram at the FIT detectors and one at the reference (PAPER)
# detectors: (det_h, det_v, g, shots, n_out).
REFERENCE_HISTOGRAMS = pytest.mark.parametrize(
    "det_h, det_v, g, shots, n_out",
    [
        (FIT_DET_H, FIT_DET_V, 0.47, 300_000, 30),
        (PAPER_DET_H, PAPER_DET_V, 0.5, 10 ** 6, 12),
    ],
    ids=["fit", "paper"],
)


class TestStage1:
    def test_recovers_detector_parameters(self):
        counts = simulate_counts(0.5, STAGE1_DET_H, STAGE1_DET_V, 10 ** 6, 42, 34)
        s1 = fit_stage1(counts, FitConfig())
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

    def test_few_residual_evaluations(self):
        # With the exact Jacobian, every residual evaluation is a trial
        # step; central differences took 157 here.
        counts = simulate_counts(0.5, PAPER_DET_H, PAPER_DET_V, 10 ** 6, 7, 12)
        trace = []
        fit_stage1(counts, FitConfig(), trace=trace)
        assert len(trace) <= 30

    @REFERENCE_HISTOGRAMS
    def test_not_above_generating_parameters(self, det_h, det_v, g, shots, n_out):
        # Stage 1 starts from the data, not from the truth, and must still
        # end no higher than the objective at the generating parameters
        # (detected mean efficiency * 4.1, the source mean of the counts).
        counts = simulate_counts(g, det_h, det_v, shots, 7, n_out)
        s1 = fit_stage1(counts, FitConfig())
        marg_h, marg_v = (
            after_loss_channel(det.dark_mean, det.crosstalk, N_EXACT, n_out)
            @ thermal_pmf(det.efficiency * 4.1, N_EXACT).probs
            for det in (det_h, det_v)
        )
        emp = counts.counts / counts.shots
        target = np.outer(emp.sum(axis=1), emp.sum(axis=0))
        assert s1.residual <= poisson_objective(counts, np.outer(marg_h, marg_v), target)


class TestStage1Jacobian:
    @staticmethod
    def _finite_difference(x, k, n_model, n_out):
        """Derivative of ``detected_marginal`` in ``x[k]``.

        Central, or second-order forward within a step of 0: darks and
        crosstalk cannot go below the bound where stage 1 starts.
        """
        step = 1e-5 * (x[0] if k == 0 else 1.0)

        def at(dx):
            y = list(x)
            y[k] += dx
            return detected_marginal(*y, n_model, n_out)

        if x[k] < step:
            return (4.0 * at(step) - at(2.0 * step) - 3.0 * at(0.0)) / (2.0 * step)
        return (at(step) - at(-step)) / (2.0 * step)

    @pytest.mark.parametrize("longer", [False, True], ids=["n_out-short", "n_out-long"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        means=st.tuples(*[st.floats(min_value=0.01, max_value=10.0)] * 2),
        darks=st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))] * 2),
        xtalks=st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.45))] * 2),
        n_model=st.integers(min_value=2, max_value=40),
        offset=st.integers(min_value=1, max_value=20),
    )
    def test_matches_finite_differences(self, longer, means, darks, xtalks, n_model, offset):
        # Both modes go through one pass with different parameters, so a
        # mode mixed up along its leading axis fails. The marginals are
        # built on the output range alone. Where that is shorter than the
        # oracle's model range, the oracle's longer thermal adds only zero
        # columns of the channel, so the two agree to rounding.
        modes = list(zip(means, darks, xtalks))
        assume(modes[0] != modes[1])
        n_out = n_model + offset if longer else max(n_model - offset, 1)
        n_model = max(n_model, n_out)
        channels, marginals, jac = _after_loss_pass(means, darks, xtalks, n_out)
        assert channels.shape == (2, n_out + 1, n_out + 1) and jac.shape == (2, n_out + 1, 3)
        oracle = [detected_marginal(*x, n_model, n_out) for x in modes]
        for mode, x in enumerate(modes):
            np.testing.assert_allclose(
                channels[mode], after_loss_channel(*x[1:], n_out), rtol=1e-14, atol=1e-300
            )
            np.testing.assert_allclose(marginals[mode], oracle[mode], rtol=1e-14, atol=1e-300)
            for k in range(3):
                np.testing.assert_allclose(
                    jac[mode, :, k], self._finite_difference(x, k, n_model, n_out),
                    rtol=0.0, atol=1e-7,
                )
        # Stage 2's product term: the pass at stage 1's parameters, in the
        # order of Stage1Result's fields, then the outer product.
        stage1 = Stage1Result(*means, *darks, *xtalks, 0.0)
        params = np.array([getattr(stage1, key) for key in STAGE1_PARAMETERS]).reshape(3, 2)
        _, marginals, _ = _after_loss_pass(*params, n_out)
        np.testing.assert_allclose(
            np.outer(*marginals), np.outer(*oracle), rtol=1e-14, atol=1e-300
        )


def _bench_seed(seed):
    """The simulate seed of the fit-bootstrap benchmark workload at ``seed``."""
    digest = hashlib.sha256(f"{seed}/fit-bootstrap.simulate".encode()).hexdigest()
    return int(digest[:12], 16)


# (det_h, det_v, g, simulate seed, n_out): the fit-bootstrap benchmark's
# inputs at six seeds, and criterion 4's three inputs.
SOLVER_INPUTS = {
    **{f"bench-{seed}": (PAPER_DET_H, PAPER_DET_V, 0.5, _bench_seed(seed), 12)
       for seed in (1, 2, 3, 7, 29, 41)},
    **{f"fit-601-g{g}": (FIT_DET_H, FIT_DET_V, g, 601, 34) for g in (0.06, 0.23, 0.47)},
}


@functools.lru_cache(maxsize=None)
def _solver_input(name):
    det_h, det_v, g, seed, n_out = SOLVER_INPUTS[name]
    return simulate_counts(g, det_h, det_v, 10 ** 6, seed, n_out), FitConfig()


def _least_squares(evaluate, x, lower, upper, config):
    """``_levenberg_marquardt`` done by scipy's bounded trust-region solver."""
    from scipy.optimize import least_squares

    result = least_squares(
        lambda x: evaluate(x)[0], x, jac=lambda x: evaluate(x)[1], bounds=(lower, upper),
        x_scale="jac", ftol=config.convergence_tol, xtol=config.convergence_tol, gtol=None,
        max_nfev=config.max_iterations,
    )
    assert result.status > 0
    return result.x, float(result.fun @ result.fun), result.nfev, np.zeros(x.size, dtype=bool)


STAGE1_PARAMETERS = ("detected_mean_h", "detected_mean_v", "dark_h", "dark_v", "xtalk_h", "xtalk_v")


class TestStage1Solver:
    @pytest.mark.parametrize("name", list(SOLVER_INPUTS))
    def test_matches_least_squares(self, name, monkeypatch):
        counts, config = _solver_input(name)
        trace = []
        s1 = fit_stage1(counts, config, trace=trace)
        monkeypatch.setattr(inference, "_levenberg_marquardt", _least_squares)
        reference = fit_stage1(counts, config)
        for key in STAGE1_PARAMETERS:
            got, want = getattr(s1, key), getattr(reference, key)
            if key in s1.at_bound:
                assert got == 0.0 and abs(want) <= 1e-9, key
            else:
                assert got == pytest.approx(want, rel=1e-6), key
        assert s1.residual == pytest.approx(reference.residual, rel=1e-12)
        assert s1.evaluations == len(trace) <= 30

    @pytest.mark.parametrize("name", list(SOLVER_INPUTS))
    def test_evaluations_stable_in_the_last_bits(self, name, monkeypatch):
        # Passes that differ from the package's only in the last bits of the
        # marginals and the Jacobian stop within 2 evaluations of each
        # other: near the optimum the loop stops at the objective's rounding
        # floor instead of retrying on noise.
        counts, config = _solver_input(name)
        evaluations = []
        for k in range(-3, 4):
            def scaled(*args, scale=1.0 + k * 2.0 ** -52):
                channels, marginals, jac = _after_loss_pass(*args)
                return channels, marginals * scale, jac * scale

            monkeypatch.setattr(inference, "_after_loss_pass", scaled)
            evaluations.append(fit_stage1(counts, config).evaluations)
        assert max(evaluations) - min(evaluations) <= 2 and max(evaluations) <= 20, evaluations

    @pytest.mark.parametrize("name", list(SOLVER_INPUTS))
    def test_swapping_modes_swaps_parameters(self, name):
        # Every evaluation runs both modes through one stacked pass, so a
        # mode mixed up in it shows as h and v parameters that do not trade
        # places when the histogram is transposed.
        counts, config = _solver_input(name)
        swapped = CountsMatrix(counts.n_max, counts.counts.T, counts.shots, counts.overflow)
        s1, s1_t = fit_stage1(counts, config), fit_stage1(swapped, config)
        other = {key: key[:-1] + ("v" if key.endswith("h") else "h") for key in STAGE1_PARAMETERS}
        for key in STAGE1_PARAMETERS:
            if key in s1.at_bound:
                assert getattr(s1_t, other[key]) == getattr(s1, key) == 0.0, key
            else:
                assert getattr(s1_t, other[key]) == pytest.approx(getattr(s1, key), rel=1e-6), key
        assert sorted(s1_t.at_bound) == sorted(other[key] for key in s1.at_bound)

    def test_reports_dark_count_on_bound(self):
        # At criterion 4's g = 0.06 input, the best dark mean of mode h is
        # below 0, against a truth of 0.02.
        counts, config = _solver_input("fit-601-g0.06")
        s1 = fit_stage1(counts, config)
        assert s1.at_bound == ("dark_h",)
        assert s1.dark_h == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        efficiencies=st.tuples(*[st.floats(min_value=0.05, max_value=1.0)] * 2),
        darks=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 0.5))] * 2),
        xtalks=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 0.3))] * 2),
        mean=st.floats(min_value=0.2, max_value=3.0),
        g=st.floats(min_value=0.0, max_value=1.0),
        shots=st.integers(min_value=2_000, max_value=200_000),
        n_out=st.integers(min_value=4, max_value=14),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_stationary_in_the_box(self, efficiencies, darks, xtalks, mean, g, shots, n_out, seed):
        # The result lies in the box and is not above the start. The
        # gradient of every parameter off the bounds is zero, and that of a
        # parameter on a bound points out of the box, or is zero: its
        # cosine with the residual vector is at rounding level. ``at_bound``
        # names the parameters on a bound whose gradient points outward.
        det_h, det_v = (DetectorParams(*p) for p in zip(efficiencies, darks, xtalks))
        probs = apply_two_mode(mixture_joint(SourceParams(mean, g), 30), det_h, det_v, n_out).probs
        drawn = np.random.default_rng(seed).multinomial(
            shots, np.append(probs.ravel(), max(1.0 - probs.sum(), 0.0))
        )
        counts = CountsMatrix(n_out, drawn[:-1].reshape(probs.shape), shots, int(drawn[-1]))
        emp = counts.counts / counts.shots
        assume(min(np.count_nonzero(emp.sum(axis=1)), np.count_nonzero(emp.sum(axis=0))) >= 2)

        solve, seen = inference._levenberg_marquardt, {}

        def solve_and_keep(evaluate, x, lower, upper, config):
            seen.update(evaluate=evaluate, lower=lower, upper=upper)
            return solve(evaluate, x, lower, upper, config)

        trace = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_levenberg_marquardt", solve_and_keep)
            s1 = fit_stage1(counts, FitConfig(), trace=trace)
        x = np.array([getattr(s1, key) for key in STAGE1_PARAMETERS])
        lower, upper = seen["lower"], seen["upper"]
        assert ((lower <= x) & (x <= upper)).all()
        assert s1.residual == trace[-1] <= trace[0]
        r, jac = seen["evaluate"](x)
        cosine = (jac.T @ r) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(r))
        on_lower, on_upper = x == lower, x == upper
        assert (cosine[on_lower] >= -1e-6).all() and (cosine[on_upper] <= 1e-6).all()
        assert np.abs(cosine[~(on_lower | on_upper)]).max(initial=0.0) <= 1e-6
        outward = (on_lower & (cosine > 0.0)) | (on_upper & (cosine < 0.0))
        assert s1.at_bound == tuple(key for key, b in zip(STAGE1_PARAMETERS, outward) if b)


class TestStage2:
    def test_round_trip(self):
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 300_000, 9, 30)
        config = FitConfig()
        s1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, s1, config)
        assert abs(fit.source.correlation - 0.47) <= 0.05
        assert 0.0 <= fit.source.correlation <= 1.0
        assert fit.det_h.efficiency <= 1.0 and fit.det_v.efficiency <= 1.0

    def test_product_input_gives_small_g(self):
        counts = simulate_counts(0.0, FIT_DET_H, FIT_DET_V, 300_000, 11, 30)
        config = FitConfig()
        fit = fit_stage2(counts, fit_stage1(counts, config), config)
        assert fit.source.correlation <= 0.03

    def test_shared_product_state_distinct_g(self):
        # Same marginal statistics, three correlation levels: stage 1
        # must agree across them, stage 2 must separate them.
        config = FitConfig()
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
        config = FitConfig()
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
        config = FitConfig()
        s1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, s1, config)
        model = exact_model(fit.source, fit.det_h, fit.det_v, 30)
        synthetic = np.rint(model * 10 ** 8).astype(np.int64)
        regenerated = CountsMatrix(
            n_max=30, counts=synthetic, shots=int(synthetic.sum())
        )
        s1_again = fit_stage1(regenerated, config)
        assert s1_again.detected_mean_h == pytest.approx(s1.detected_mean_h, rel=0.01)
        assert s1_again.detected_mean_v == pytest.approx(s1.detected_mean_v, rel=0.01)

    def test_objective_monotonicity(self):
        counts = simulate_counts(0.3, FIT_DET_H, FIT_DET_V, 100_000, 3, 20)
        config = FitConfig()
        trace1, trace2 = [], []
        s1 = fit_stage1(counts, config, trace=trace1)
        fit_stage2(counts, s1, config, trace=trace2)
        for trace in (trace1, trace2):
            assert len(trace) > 10
            assert all(b <= a + 1e-18 for a, b in zip(trace, trace[1:]))

    @REFERENCE_HISTOGRAMS
    def test_residual_matches_forward_model(self, det_h, det_v, g, shots, n_out):
        # The profiled objective is built from the detected thermal
        # marginals and a recurrence; it must equal the objective of the
        # untruncated forward model at the fit.
        counts = simulate_counts(g, det_h, det_v, shots, 7, n_out)
        config = FitConfig()
        fit = fit_stage2(counts, fit_stage1(counts, config), config)
        model = exact_model(fit.source, fit.det_h, fit.det_v, n_out)
        expected = poisson_objective(counts, model, counts.counts / counts.shots)
        assert fit.residual == pytest.approx(expected, rel=1e-12)

    @REFERENCE_HISTOGRAMS
    def test_no_lower_point_at_the_stop_width(self, det_h, det_v, g, shots, n_out):
        # The search stops once its bracket on log(mean) is no wider than
        # sqrt(convergence_tol), so the profile one such width to either
        # side of the fit is not lower. A search that stopped early, away
        # from the minimum, would leave a lower point on one side. A fit on
        # an end of the search range has no point past that end.
        counts = simulate_counts(g, det_h, det_v, shots, 7, n_out)
        config = FitConfig()
        s1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, s1, config)
        width = math.sqrt(config.convergence_tol)
        mean_lo, mean_hi = np.exp(inference._log_mean_range(s1))
        for mean in fit.source.mean_photons * np.exp([-width, width]):
            if not mean_lo <= mean <= mean_hi:
                assert "mean_photons" in fit.at_bound
                continue
            objective = profiled_objective(counts, s1, mean)
            assert objective >= fit.residual * (1.0 - 1e-12)

    @pytest.mark.parametrize(
        "name, at_bound", [("bench-1", ("mean_photons",)), ("fit-601-g0.47", ())]
    )
    def test_names_parameters_on_a_bound(self, name, at_bound):
        # At the reference detectors the data pin nu = g (1 + 1/mean), not
        # the mean, and on the benchmark's seed-1 input the fit runs to the
        # mean cap of 40/3. Criterion 4's input at g = 0.47 fits inside.
        counts, config = _solver_input(name)
        fit = fit_counts(counts, config)
        assert fit.at_bound == at_bound
        assert (fit.source.mean_photons == 40.0 / 3.0) == bool(at_bound)
        assert fit.nu == fit.source.correlation * (1.0 + 1.0 / fit.source.mean_photons)

    def test_reaches_global_basin(self):
        # At the reference detectors the objective is nearly flat along a
        # ridge of constant nu = g (1 + 1/mean). On this histogram (the
        # seed-2 fit-bootstrap input of bench/run.py) the fit ends near
        # g = 0.08, mean = 0.14; a model cut off at 40 photons has a deeper
        # minimum near g = 0.57, mean = 4.3. The fit is not above any point
        # of a dense grid over the search's mean range (above the larger
        # detected mean, up to 40/3) and g.
        counts = simulate_counts(0.5, PAPER_DET_H, PAPER_DET_V, 10 ** 6, 165131858720007, 12)
        config = FitConfig()
        s1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, s1, config)

        emp = counts.counts / counts.shots
        w = 1.0 / np.maximum(counts.counts, 1)
        g = np.linspace(0.0, 1.0, 201)[:, None, None]
        grid_min = np.inf
        mean_lo = max(s1.detected_mean_h, s1.detected_mean_v) * (1.0 + 1e-6)
        for mean in np.geomspace(mean_lo, 40.0 / 3.0, 200):
            # The model is affine in g, so its ends give every grid value.
            b, a = exact_terms(mean, *stage1_detectors(s1, mean), 12)
            diff = b + g * (a - b) - emp
            grid_min = min(grid_min, float((w * diff * diff).sum(axis=(1, 2)).min()))
        assert fit.residual <= grid_min * (1.0 + 1e-9)


class TestReconstruct:
    # reconstruct reads only the fitted source.
    STAGE1 = Stage1Result(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_full_correlation_is_diagonal(self):
        fit = FitResult(
            source=SourceParams(2.0, 1.0),
            det_h=PAPER_DET_H,
            det_v=PAPER_DET_V,
            residual=0.0,
            stage1=self.STAGE1,
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
            stage1=self.STAGE1,
        )
        s = np.linalg.svd(reconstruct(fit, 12).probs, compute_uv=False)
        assert s[1] < 1e-12

    def test_round_trip_close_to_truth(self):
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 10 ** 6, 8, 34)
        fit = fit_counts(counts, FitConfig())
        recon = reconstruct(fit, 40)
        truth = mixture_joint(SourceParams(4.1, 0.47), 40)
        assert total_variation(recon.probs, truth.probs) <= 0.02


def resample_batch(counts, n_resamples, seed, stage1, config):
    """The stage-2 batch of ``fit_counts``' bootstrap, with a given stage 1."""
    stacked, shots, _ = inference._draw_resamples(counts, n_resamples, seed)
    return inference._fit_stage2_batch(stacked, shots, stage1, config)


def poisson_resample(counts: CountsMatrix, rng: np.random.Generator) -> CountsMatrix:
    """The reference draw of one bootstrap resample.

    Every cell (and the overflow) is replaced with a Poisson draw around
    it. The total number of shots is not conserved; it is recomputed from
    the resampled counts, matching the assumption of independent
    Poissonian cell noise. A draw whose in-range cells are all empty has
    no spectrum, so it is drawn again, at most 100 times in all.
    """
    for _ in range(100):
        new_counts = rng.poisson(counts.counts)
        new_overflow = int(rng.poisson(counts.overflow))
        if new_counts.any():
            return CountsMatrix(
                n_max=counts.n_max,
                counts=new_counts,
                shots=int(new_counts.sum()) + new_overflow,
                overflow=new_overflow,
            )
    raise ValueError("resampling produced only empty histograms; counts are too sparse")


def resample_by_the_total(counts, rng):
    """``poisson_resample``'s draw under a rule that redraws only while the
    total, overflow included, is zero: the cells and the overflow, or None."""
    for _ in range(100):
        cells, overflow = rng.poisson(counts.counts), int(rng.poisson(counts.overflow))
        if int(cells.sum()) + overflow > 0:
            return cells, overflow
    return None


class TestBootstrap:
    def make_counts(self):
        return simulate_counts(0.5, PAPER_DET_H, PAPER_DET_V, 10 ** 5, 17, 12)

    def test_too_few_resamples_rejected(self):
        with pytest.raises(ValueError):
            fit_counts(self.make_counts(), n_bootstrap=1, seed=0)

    def test_deterministic_given_seed(self):
        counts = self.make_counts()
        config = FitConfig()
        first = fit_counts(counts, config, n_bootstrap=4, seed=3)
        second = fit_counts(counts, config, n_bootstrap=4, seed=3)
        assert first == second
        third = fit_counts(counts, config, n_bootstrap=4, seed=4)
        assert (third.g_error, third.distance_error) != (first.g_error, first.distance_error)

    def test_errors_nonnegative(self):
        fit = fit_counts(self.make_counts(), FitConfig(), n_bootstrap=4, seed=1)
        assert fit.g_error >= 0.0 and fit.distance_error >= 0.0

    def test_exhausted_budget_raises(self):
        # A resample whose stage-2 search runs out of budget fails the
        # bootstrap; its best-so-far g does not stand in for a fit.
        counts = simulate_counts(0.5, PAPER_DET_H, PAPER_DET_V, 10 ** 5, 3, 12)
        stage1 = fit_stage1(counts, FitConfig())
        with pytest.raises(FitConvergenceError):
            resample_batch(counts, 4, 1, stage1, FitConfig(max_iterations=1))

    def test_identical_streams_give_zero_spread(self):
        # Degenerate determinism check: two resamples drawn from the
        # same stream are identical, so any derived error is exactly 0.
        counts = self.make_counts()
        draws = [poisson_resample(counts, _stream_rng(5, 0)) for _ in range(2)]
        assert np.array_equal(draws[0].counts, draws[1].counts)
        distances = [
            product_distance(singular_spectrum(normalize(d))) for d in draws
        ]
        assert np.std(distances) == 0.0

    def test_resample_invariants(self):
        counts = self.make_counts()
        resampled = poisson_resample(counts, _stream_rng(2, 7))
        assert resampled.counts.sum() + resampled.overflow == resampled.shots
        assert resampled.n_max == counts.n_max

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_max=st.integers(0, 6),
        cells=st.lists(st.sampled_from([0, 0, 0, 1, 2, 7, 1000]), min_size=49, max_size=49),
        overflow=st.sampled_from([0, 1, 30]),
        seed=st.integers(0, 2 ** 32),
    )
    def test_stacked_draws_are_the_resamples(self, n_max, cells, overflow, seed):
        # Sparse histograms and overflow included: the stacked draw holds
        # the counts, then every resample of its own stream, and the batched
        # spectrum gives each resample's product distance bitwise. Counts
        # with every in-range cell empty cannot be resampled; otherwise no
        # resample has every cell empty.
        dim = n_max + 1
        cells = np.array(cells[: dim * dim]).reshape(dim, dim)
        assume(cells.sum() + overflow > 0)
        counts = CountsMatrix(n_max, cells, int(cells.sum()) + overflow, overflow)
        if not cells.any():
            with pytest.raises(ValueError, match="too sparse"):
                inference._draw_resamples(counts, 5, seed)
            return
        draws = [poisson_resample(counts, _stream_rng(seed, r)) for r in range(5)]
        assert all(x.counts.any() for x in draws)
        want = [product_distance(singular_spectrum(normalize(x))) for x in draws]
        stacked, shots, distances = inference._draw_resamples(counts, 5, seed)
        assert stacked.tolist() == [x.counts.tolist() for x in [counts, *draws]]
        assert shots.tolist() == [x.shots for x in [counts, *draws]]
        assert distances.tolist() == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        cells=st.lists(st.sampled_from([0, 0, 0, 0, 1, 2]), min_size=4, max_size=4),
        overflow=st.sampled_from([0, 1, 5, 30]),
        seed=st.integers(0, 2 ** 32),
    )
    def test_resample_redraws_only_empty_cells(self, cells, overflow, seed):
        # Wherever a rule that redraws only an empty total would keep a
        # draw with in-range counts, the resample is that draw; where it
        # would keep one with overflow alone, the resample has counts. The
        # stacked draw redraws as the reference does.
        cells = np.array(cells).reshape(2, 2)
        assume(cells.any())
        counts = CountsMatrix(1, cells, int(cells.sum()) + overflow, overflow)
        stacked, shots, _ = inference._draw_resamples(counts, 5, seed)
        for r in range(5):
            old = resample_by_the_total(counts, _stream_rng(seed, r))
            new = poisson_resample(counts, _stream_rng(seed, r))
            assert new.counts.any()
            if old is not None and old[0].any():
                assert new.counts.tolist() == old[0].tolist() and new.overflow == old[1]
            assert stacked[r + 1].tolist() == new.counts.tolist() and shots[r + 1] == new.shots

    def test_distance_error_is_that_of_the_resamples(self):
        # A sparse histogram with overflow.
        counts = CountsMatrix(3, [[40, 3, 0, 0], [2, 5, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 60, 7)
        draws = [poisson_resample(counts, _stream_rng(4, r)) for r in range(6)]
        want = np.std([product_distance(singular_spectrum(normalize(x))) for x in draws], ddof=1)
        fit = fit_counts(counts, FitConfig(), n_bootstrap=6, seed=4)
        assert fit.distance_error == float(want)

    def test_stage1_fit_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_stage1(*args, **kwargs)

        monkeypatch.setattr(inference, "fit_stage1", counted)
        fit_counts(self.make_counts(), FitConfig(), n_bootstrap=3, seed=2)
        assert len(calls) == 1

    def test_fit_counts_attaches_errors(self):
        counts = self.make_counts()
        fit = fit_counts(counts, FitConfig(), n_bootstrap=3, seed=2)
        assert fit.g_error is not None and fit.g_error >= 0.0
        assert fit.distance_error is not None and fit.distance_error >= 0.0

    def test_fit_counts_is_the_fits_alone(self):
        # fit_counts fits the counts as row 0 of the bootstrap's batch, and
        # a row is bitwise its fit alone: the fit is the counts' fit_stage2,
        # and g_error and nu_error the spreads of the resamples' fits with
        # its stage 1.
        counts = self.make_counts()
        config = FitConfig()
        stage1 = fit_stage1(counts, config)
        draws = [poisson_resample(counts, _stream_rng(2, r)) for r in range(5)]
        fits = [fit_stage2(x, stage1, config) for x in draws]
        fit = fit_counts(counts, config, n_bootstrap=5, seed=2)
        assert fit.g_error == float(np.std([x.source.correlation for x in fits], ddof=1))
        assert fit.nu_error == pytest.approx(np.std([x.nu for x in fits], ddof=1), rel=1e-12)
        assert dataclasses.replace(
            fit, g_error=None, distance_error=None, nu_error=None
        ) == fit_stage2(counts, stage1, config)

    def test_fit_counts_carries_stage1(self):
        counts = self.make_counts()
        config = FitConfig()
        assert fit_counts(counts, config).stage1 == fit_stage1(counts, config)


_detected_means = st.one_of(st.just(1e-8), st.floats(min_value=1e-8, max_value=5.0))


class TestStage2Terms:
    """The stage-2 terms are those of the untruncated forward model."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        detected_h=_detected_means,
        detected_v=st.one_of(st.none(), _detected_means),
        darks=st.tuples(*[st.floats(min_value=0.0, max_value=5.0)] * 2),
        xtalks=st.tuples(*[st.floats(min_value=0.0, max_value=0.45)] * 2),
        n_out=st.integers(min_value=0, max_value=60),
        fractions=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)), min_size=1, max_size=4
        ),
    )
    def test_match_untruncated_model(
        self, detected_h, detected_v, darks, xtalks, n_out, fractions
    ):
        # Means run over the whole search range, from its lower end, where
        # 1 - efficiency is about 1e-9, to the cap of 40/3; a detected_v of
        # None is equal to detected_h.
        detected_v = detected_h if detected_v is None else detected_v
        stage1 = Stage1Result(detected_h, detected_v, *darks, *xtalks, 0.0)
        lo, hi = inference._log_mean_range(stage1)
        log_means = lo + np.array(fractions) * (hi - lo)
        after_loss, marginals, _ = _after_loss_pass((detected_h, detected_v), darks, xtalks, n_out)
        product = np.outer(*marginals)
        correlated = inference._correlated_term(stage1, log_means, after_loss)
        assert correlated.shape == (log_means.size, n_out + 1, n_out + 1)
        for u, got in zip(log_means, correlated):
            mean = math.exp(u)
            detectors = stage1_detectors(stage1, mean)
            want_product, want_correlated = exact_terms(mean, *detectors, n_out)
            np.testing.assert_allclose(product, want_product, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(got, want_correlated, rtol=0.0, atol=1e-13)


# The bootstrap seed of _resamples_fitted_alone: on the "bench-1" input,
# three of its eight resamples (1, 4 and 5) need more search passes than
# the counts.
RESAMPLE_STREAM = 3


@functools.lru_cache(maxsize=None)
def _resamples_fitted_alone(name):
    """Eight resamples of the input ``name``, each fitted alone with its stage 1.

    ``name`` is a key of SOLVER_INPUTS, or "ref-1e5", a 10^5-shot
    histogram at the reference detectors. On "bench-1" the counts settle
    on the mean cap in one probe pass, and resamples 1, 4 and 5 run Brent
    searches of 20, 14 and 17 passes in all, so rows of one batch run
    different numbers of passes. On "ref-1e5", g is 0 at every mean for
    resamples 6-8, so their profiles are flat.
    """
    if name == "ref-1e5":
        counts = simulate_counts(0.5, PAPER_DET_H, PAPER_DET_V, 10 ** 5, 17, 12)
        config = FitConfig()
    else:
        counts, config = _solver_input(name)
    stage1 = fit_stage1(counts, config)
    resamples = [poisson_resample(counts, _stream_rng(RESAMPLE_STREAM, r)) for r in range(8)]
    return counts, resamples, stage1, config, [fit_stage2(x, stage1, config) for x in resamples]


def stage2_batch(histograms, stage1, config):
    """``_fit_stage2_batch`` of a list of histograms."""
    return inference._fit_stage2_batch(
        np.stack([x.counts for x in histograms]), np.array([x.shots for x in histograms]),
        stage1, config,
    )


def sequential_first_best(best, rows, values, g, log_means):
    """The first-best update point by point, in evaluation order."""
    for k in np.flatnonzero(values < best[0, rows]):
        if values[k] < best[0, rows[k]]:
            best[:, rows[k]] = values[k], g[k], log_means[k]


_objective_values = st.sampled_from([0.0, 0.5, 1.0, math.inf, math.nan]) | st.floats(
    min_value=0.0, max_value=2.0
)


class TestStage2Batch:
    """Stage 2 fits many histograms with one stage 1 in one batched search."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(order=st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    def test_rows_equal_fits_alone(self, order):
        # Each row of the batch's (objective, g, log mean, evaluations)
        # array is bitwise that of its histogram in a batch of one, and the
        # FitResult built from it is the histogram's fit_stage2.
        _, resamples, stage1, config, alone = _resamples_fitted_alone("bench-1")
        batch = stage2_batch([resamples[i] for i in order], stage1, config)
        assert batch.shape == (4, len(order))
        for i, row in zip(order, batch.T):
            assert row.tolist() == stage2_batch([resamples[i]], stage1, config)[:, 0].tolist()
            fit = inference._stage2_result(stage1, row)
            for field in dataclasses.fields(FitResult):
                assert getattr(fit, field.name) == getattr(alone[i], field.name), field.name

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        initial=st.lists(_objective_values, min_size=4, max_size=4),
        passes=st.lists(
            st.lists(
                st.tuples(st.integers(0, 3), _objective_values),
                min_size=1, max_size=4, unique_by=lambda point: point[0],
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_first_best_update_is_the_sequential_rule(self, initial, passes):
        # Passes of distinct rows, with ties, inf and NaN: each row keeps
        # its earliest smallest value that beats its best, as a
        # point-by-point update in evaluation order.
        best = np.full((3, len(initial)), -1.0)
        best[0] = initial
        want = best.copy()
        seen = 0
        for points in passes:
            rows = np.array([row for row, _ in points])
            values = np.array([value for _, value in points])
            labels = seen + np.arange(rows.size, dtype=float)
            seen += rows.size
            sequential_first_best(want, rows, values, labels / 16.0, -labels)
            inference._keep_first_best(best, rows, values, labels / 16.0, -labels)
            np.testing.assert_array_equal(best, want)

    def test_term_builds_do_not_grow_with_resamples(self, monkeypatch):
        # A batch builds the product term and the after-loss channels in one
        # two-mode pass, and the correlated term once per pass: one over the
        # grid, one probe pass if any row's grid minimum is an end of the
        # range, then one per Brent step of the row that takes the most,
        # whatever the number of rows. A row's Brent passes are its passes
        # alone less its probe, if it starts on an end. On "bench-1" the rows
        # differ in their Brent passes.
        counts, config = _solver_input("bench-1")
        stage1 = fit_stage1(counts, config)
        calls, values = [], []

        def counting(function):
            def wrapper(*args):
                calls.append(function)
                return function(*args)

            return wrapper

        two_mode_pass, correlated = inference._after_loss_pass, inference._correlated_term
        keep = inference._keep_first_best
        monkeypatch.setattr(inference, "_after_loss_pass", counting(two_mode_pass))
        monkeypatch.setattr(inference, "_correlated_term", counting(correlated))
        monkeypatch.setattr(
            inference, "_keep_first_best",
            lambda best, rows, v, g, u: values.append(v) or keep(best, rows, v, g, u),
        )

        def brent_passes(x):
            # The Brent passes of ``x`` fitted alone, and whether it starts on an end.
            calls.clear()
            values.clear()
            fit_stage2(x, stage1, config)
            k = int(np.concatenate(values[:inference._MEAN_GRID_POINTS]).argmin())
            on_end = k in (0, inference._MEAN_GRID_POINTS - 1)
            return calls.count(correlated) - 1 - on_end, on_end

        resamples = [poisson_resample(counts, _stream_rng(3, r)) for r in range(40)]
        rows = [brent_passes(x) for x in [counts, *resamples]]
        for n_resamples in (20, 40):
            passes, on_end = zip(*rows[:1 + n_resamples])
            assert len(set(passes)) > 1, n_resamples
            calls.clear()
            resample_batch(counts, n_resamples, 3, stage1, config)
            assert calls.count(correlated) == 1 + any(on_end) + max(passes), n_resamples
            assert calls.count(two_mode_pass) == 1, n_resamples

    def test_search_takes_few_evaluations(self):
        # On this smooth one-minimum profile the parabolic steps reach the
        # stop width in 9 evaluations; a golden-section search needs 33.
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 300_000, 9, 30)
        config = FitConfig()
        trace = []
        fit_stage2(counts, fit_stage1(counts, config), config, trace=trace)
        assert len(trace) - 12 <= 15

    @staticmethod
    def recording_terms(monkeypatch):
        """The log means of every ``_correlated_term`` call, one array per call."""
        calls, terms = [], inference._correlated_term
        monkeypatch.setattr(
            inference, "_correlated_term", lambda s1, u, al: calls.append(u) or terms(s1, u, al)
        )
        return calls

    def test_flat_profile_settles_in_the_grid_and_one_probe(self, monkeypatch):
        # Where g clips to 0 at every mean, every grid point ties. The one
        # search starts on the first of them, the lower end, and the probe
        # inside it is no lower, so the fit takes the 12 grid points and
        # the probe, not a search from every tied grid point.
        _, resamples, stage1, config, _ = _resamples_fitted_alone("ref-1e5")
        counts = simulate_counts(0.0, FIT_DET_H, FIT_DET_V, 10 ** 6, 601, 34)
        inputs = [(x, stage1) for x in resamples[5:8]] + [(counts, fit_stage1(counts, config))]
        fitted_g, keep = [], inference._keep_first_best
        monkeypatch.setattr(
            inference, "_keep_first_best",
            lambda best, rows, values, g, u: fitted_g.extend(g) or keep(best, rows, values, g, u),
        )
        for x, s1 in inputs:
            fitted_g.clear()
            fit = fit_stage2(x, s1, config)
            assert fitted_g == [0.0] * 13
            assert fit.evaluations == 13
            assert fit.source.mean_photons == math.exp(inference._log_mean_range(s1)[0])

    def test_end_minimum_settled_by_one_probe(self, monkeypatch):
        # On the benchmark's seed-1 input the profile falls all the way to
        # the mean cap, so the grid's best point is the cap itself. The one
        # probe inside it is not lower, and the search ends on the cap.
        counts, config = _solver_input("bench-1")
        stage1 = fit_stage1(counts, config)
        calls = self.recording_terms(monkeypatch)
        fit = fit_stage2(counts, stage1, config)
        assert [u.size for u in calls] == [inference._MEAN_GRID_POINTS, 1]
        assert fit.source.mean_photons == math.exp(inference._log_mean_range(stage1)[1])
        assert "mean_photons" in fit.at_bound
        assert fit.evaluations == 13

    def test_end_minimum_with_a_dip_inside_gets_the_full_search(self, monkeypatch):
        # With only the two ends on the grid, the grid's best point is an end
        # although the minimum (true mean 4.1) lies inside the range. The
        # probe is lower than the end, so the search runs over the whole
        # range and reaches the 12-point fit.
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 300_000, 9, 30)
        config = FitConfig()
        stage1 = fit_stage1(counts, config)
        want = fit_stage2(counts, stage1, config)
        monkeypatch.setattr(inference, "_MEAN_GRID_POINTS", 2)
        fit = fit_stage2(counts, stage1, config)
        assert fit.at_bound == want.at_bound == ()
        assert fit.source.mean_photons == pytest.approx(want.source.mean_photons, rel=1e-6)
        assert fit.source.correlation == pytest.approx(want.source.correlation, rel=1e-6)

    @pytest.mark.parametrize("convergence_tol", [1e-2, 1.0])
    def test_end_probe_stays_in_its_bracket(self, convergence_tol, monkeypatch):
        # The probe goes 4 tol = sqrt(convergence_tol) inside the cap, but at
        # most half-way to the next grid point: at a tolerance of 1 that
        # step is wider than the bracket.
        counts, config = _solver_input("bench-1")
        stage1 = fit_stage1(counts, config)
        calls = self.recording_terms(monkeypatch)
        loose = dataclasses.replace(config, convergence_tol=convergence_tol)
        fit = fit_stage2(counts, stage1, loose)
        grid, (probe,) = calls[0], calls[1]
        assert grid[-2] < probe < grid[-1]
        assert probe == grid[-1] - min(math.sqrt(convergence_tol), 0.5 * (grid[-1] - grid[-2]))
        assert grid[-2] <= math.log(fit.source.mean_photons) <= grid[-1]

    def test_budget_is_the_search_evaluation_count(self):
        # At the FIT detectors the profile has one minimum on the grid, so
        # the trace after the 12 grid points is one search's evaluations.
        counts = simulate_counts(0.47, FIT_DET_H, FIT_DET_V, 300_000, 9, 30)
        config = FitConfig()
        stage1 = fit_stage1(counts, config)
        trace = []
        fit = fit_stage2(counts, stage1, config, trace=trace)
        evaluations = len(trace) - 12
        exact = dataclasses.replace(config, max_iterations=evaluations)
        assert fit_stage2(counts, stage1, exact) == fit
        short = dataclasses.replace(config, max_iterations=evaluations - 1)
        with pytest.raises(FitConvergenceError) as excinfo:
            fit_stage2(counts, stage1, short)
        g, mean = excinfo.value.best
        assert 0.0 <= g <= 1.0 and mean > 0.0
        assert excinfo.value.objective >= fit.residual
        assert excinfo.value.row == 0 and "search of the counts did" in str(excinfo.value)

    def test_exhausted_budget_names_the_row(self, monkeypatch):
        # At a budget the counts' search meets (one probe pass here),
        # resamples whose searches need more fail the bootstrap, and the
        # error names the first of them (row r + 1 of the batch is drawn
        # from stream (seed, r)), so its (g, mean) is not read as the fit's
        # own. The budget counts each row's own search points.
        counts, resamples, stage1, config, _ = _resamples_fitted_alone("bench-1")
        passes = []
        terms = inference._correlated_term
        monkeypatch.setattr(
            inference, "_correlated_term", lambda *args: passes.append(1) or terms(*args)
        )

        def search_passes(x):
            passes.clear()
            fit_stage2(x, stage1, config)
            return len(passes) - 1

        budget = search_passes(counts)
        late = [r + 1 for r, x in enumerate(resamples) if search_passes(x) > budget]
        assert len(late) > 1, "fewer than two resamples need more passes than the counts"
        short = dataclasses.replace(config, max_iterations=budget)
        assert fit_stage2(counts, stage1, short) == fit_stage2(counts, stage1, config)
        with pytest.raises(FitConvergenceError) as excinfo:
            resample_batch(counts, len(resamples), RESAMPLE_STREAM, stage1, short)
        assert excinfo.value.row == late[0]
        assert f"search of resample {late[0]} did not converge" in str(excinfo.value)
        row = stage2_batch([resamples[late[0] - 1]], stage1, config)[:, 0]
        g, mean = excinfo.value.best
        assert 0.0 <= g <= 1.0 and mean > 0.0 and excinfo.value.objective >= row[0]

    @pytest.mark.parametrize("index", [0, 3])
    def test_batch_meets_the_budget_of_each_row_alone(self, index):
        # Resamples 0 and 3 of "bench-1" search longer than the counts,
        # which end on the mean cap after one probe. Batched with the
        # counts at the budget each meets alone, both rows equal their fits
        # alone; one point short, the batch fails on the resample's row
        # with the best point and objective of its failure alone.
        counts, resamples, stage1, config, _ = _resamples_fitted_alone("bench-1")
        rows = [counts, resamples[index]]
        alone = [stage2_batch([x], stage1, config)[:, 0] for x in rows]
        points = int(alone[1][3]) - inference._MEAN_GRID_POINTS
        assert points > int(alone[0][3]) - inference._MEAN_GRID_POINTS
        exact = dataclasses.replace(config, max_iterations=points)
        assert stage2_batch(rows, stage1, exact).T.tolist() == [x.tolist() for x in alone]
        short = dataclasses.replace(config, max_iterations=points - 1)
        with pytest.raises(FitConvergenceError) as failed_alone:
            stage2_batch(rows[1:], stage1, short)
        with pytest.raises(FitConvergenceError) as failed:
            stage2_batch(rows, stage1, short)
        assert failed.value.row == 1
        assert failed.value.best.tolist() == failed_alone.value.best.tolist()
        assert failed.value.objective == failed_alone.value.objective


class TestModeSymmetry:
    @REFERENCE_HISTOGRAMS
    def test_swapping_modes_transposes_fit(self, det_h, det_v, g, shots, n_out):
        counts = simulate_counts(g, det_h, det_v, shots, 7, n_out)
        swapped = CountsMatrix(
            n_max=counts.n_max, counts=counts.counts.T, shots=counts.shots,
            overflow=counts.overflow,
        )
        config = FitConfig()
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
            {"convergence_tol": math.inf},
            {"convergence_tol": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)
