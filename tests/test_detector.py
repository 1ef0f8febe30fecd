import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln
from scipy.stats import poisson

from photoncorr import (
    DetectorParams,
    after_loss_channel,
    apply_two_mode,
    compose_channel,
    crosstalk_matrix,
    dark_matrix,
    loss_matrix,
    mixture_joint,
    thermal_pmf,
    SourceParams,
)
from photoncorr.montecarlo import total_variation

from conftest import PAPER_DET_H, PAPER_DET_V, detect_count


class TestLossMatrix:
    def test_lossless_is_identity(self):
        chan = loss_matrix(1.0, 6)
        assert np.array_equal(chan, np.eye(7))

    def test_binomial_column(self):
        chan = loss_matrix(0.5, 2)
        np.testing.assert_allclose(chan[:, 2], [0.25, 0.5, 0.25], atol=1e-15)

    def test_thermal_closure(self):
        # Binomial thinning of a thermal state is thermal with the mean
        # scaled by the efficiency; the input tail must be negligible.
        eta, mean, n_max = 0.37, 1.0, 60
        thermal_in = thermal_pmf(mean, n_max)
        out = loss_matrix(eta, n_max) @ thermal_in.probs
        expected = thermal_pmf(eta * mean, n_max)
        np.testing.assert_allclose(out, expected.probs, atol=1e-10)

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.3])
    def test_domain_errors(self, eta):
        with pytest.raises(ValueError):
            loss_matrix(eta, 4)


class TestDarkMatrix:
    def test_zero_darks_identity(self):
        chan = dark_matrix(0.0, 5)
        assert np.array_equal(chan, np.eye(6))

    def test_vacuum_column_is_poisson(self):
        chan = dark_matrix(0.11, 6, 12)
        expected = [math.exp(-0.11) * 0.11 ** k / math.factorial(k) for k in range(13)]
        np.testing.assert_allclose(chan[:, 0], expected, rtol=1e-12)
        assert chan[0, 0] == pytest.approx(0.895834135, abs=1e-8)
        assert chan[1, 0] == pytest.approx(0.098541754, abs=1e-8)
        assert chan[2, 0] == pytest.approx(0.005419796, abs=1e-8)

    def test_columns_normalize_with_headroom(self):
        chan = dark_matrix(0.3, 4, 40)
        np.testing.assert_allclose(chan.sum(axis=0), np.ones(5), atol=1e-12)

    def test_truncation_recorded(self):
        # A short output range is the top rows of a long one, whose
        # columns hold all the mass.
        short, long = dark_matrix(0.5, 4, 4), dark_matrix(0.5, 4, 60)
        np.testing.assert_allclose(short, long[:5], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(long.sum(axis=0), np.ones(5), atol=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            dark_matrix(-0.1, 4)

    def test_non_finite_mean_rejected(self):
        # Input validation: inf or nan has no pmf.
        for mean in (math.inf, math.nan):
            with pytest.raises(ValueError):
                dark_matrix(mean, 4)


class TestCrosstalkMatrix:
    def test_zero_crosstalk_identity(self):
        chan = crosstalk_matrix(0.0, 5)
        assert np.array_equal(chan, np.eye(6))

    def test_single_fired_cell(self):
        chan = crosstalk_matrix(0.12, 4, 8)
        np.testing.assert_allclose(
            chan[:4, 1], [0.0, 0.88, 0.12, 0.0], atol=1e-15
        )

    def test_two_fired_cells(self):
        chan = crosstalk_matrix(0.12, 4, 8)
        assert chan[2, 2] == pytest.approx(0.7744, abs=1e-12)
        assert chan[3, 2] == pytest.approx(0.2112, abs=1e-12)
        assert chan[4, 2] == pytest.approx(0.0144, abs=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, 1.0])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError):
            crosstalk_matrix(eps, 4)

    def test_truncation_recorded(self):
        short, long = crosstalk_matrix(0.3, 6, 6), crosstalk_matrix(0.3, 6, 12)
        np.testing.assert_allclose(short, long[:7], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(long.sum(axis=0), np.ones(7), atol=1e-12)


class TestComposeChannel:
    def test_ideal_is_identity_bitwise(self):
        chan = compose_channel(DetectorParams.ideal(), 8)
        assert np.array_equal(chan, np.eye(9))

    def test_column_stochastic_within_truncation(self):
        # 148 = 2 (12 + 2 ceil(dark) + 60) rows hold every column's mass.
        short, long = compose_channel(PAPER_DET_H, 12, 12), compose_channel(PAPER_DET_H, 12, 148)
        np.testing.assert_allclose(short, long[:13], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(long.sum(axis=0), np.ones(13), atol=1e-12)

    def test_vacuum_column_against_event_oracle(self):
        # Vacuum through the channel is dark counts broadened by
        # crosstalk; compare with an event-level histogram.
        trials = 10 ** 6
        chan = compose_channel(PAPER_DET_H, 6, 12)
        rng = np.random.default_rng(99)
        draws = detect_count(np.zeros(trials, dtype=np.int64), PAPER_DET_H, rng)
        hist = np.bincount(draws, minlength=13)[:13] / trials
        occupied = int((chan[:, 0] > 1e-12).sum())
        bound = 5.0 * math.sqrt(occupied / trials)
        assert total_variation(hist, chan[:, 0]) < bound

    def test_dark_loss_order_matters(self):
        # Applying darks before loss would thin the dark counts too; the
        # two orders must differ on a thermal input.
        n = 20
        loss = loss_matrix(0.25, n)
        dark = dark_matrix(0.11, n)
        thermal_in = thermal_pmf(1.0, n).probs
        dark_after = dark @ loss @ thermal_in
        dark_before = loss @ dark @ thermal_in
        assert np.abs(dark_after - dark_before).max() > 1e-4


def binom_pmf(trials, k, p):
    """Binomial(trials, p) at ``k`` through ``gammaln``, 0 outside ``0 <= k <= trials``."""
    ok = (k >= 0) & (k <= trials)
    k = np.where(ok, k, 0.0)
    log_c = gammaln(trials + 1.0) - gammaln(k + 1.0) - gammaln(trials - k + 1.0)
    return np.where(ok, np.exp(log_c + k * np.log(p) + (trials - k) * np.log1p(-p)), 0.0)


# Output shorter than, equal to and longer than the input.
SHAPES = [(12, 6), (12, 12), (6, 40)]


class TestKernelsAgainstScipy:
    """The closed-form kernels agree with scipy's to 1e-12 relative.

    Dark mean 1e-24 is where stage-1 darks sit at their bound.

    ``atol=1e-300`` only admits differences among subnormal values, where
    no relative accuracy exists (e.g. dark mean 1e-24 at 13+ counts).
    """

    @pytest.mark.parametrize("n_in, n_out", SHAPES)
    @pytest.mark.parametrize("dark_mean", [0.0, 1e-24, 0.11, 5.0, 40.0])
    def test_dark_matrix_matches_poisson(self, dark_mean, n_in, n_out):
        chan = dark_matrix(dark_mean, n_in, n_out)
        k = np.arange(n_out + 1)[:, None] - np.arange(n_in + 1)[None, :]
        pmf = np.where(k >= 0, poisson.pmf(np.maximum(k, 0), dark_mean), 0.0)
        np.testing.assert_allclose(chan, pmf, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("n_in, n_out", SHAPES)
    def test_binomial_kernels_match_gammaln(self, n_in, n_out):
        m = np.arange(n_out + 1, dtype=float)[:, None]
        n = np.arange(n_in + 1, dtype=float)[None, :]
        np.testing.assert_allclose(
            loss_matrix(0.37, n_in), binom_pmf(n, n.T, 0.37), rtol=1e-12, atol=1e-300
        )
        np.testing.assert_allclose(
            crosstalk_matrix(0.12, n_in, n_out),
            binom_pmf(n, m - n, 0.12),
            rtol=1e-12,
            atol=1e-300,
        )


_dims = st.integers(min_value=0, max_value=30)
_efficiencies = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_darks = st.one_of(st.just(0.0), st.just(1e-24), st.floats(min_value=0.0, max_value=40.0))
_crosstalks = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
# Derandomized, so the suite draws the same examples on every run.
_examples = settings(max_examples=60, deadline=None, derandomize=True)


def _assert_drops_rows(build, n_in, n_out, dark=0.0):
    """``build(n_out)`` is the top rows of a channel whose range covers the support.

    Dark counts past ``2 ceil(dark) + 60`` are negligible and crosstalk at
    most doubles the fired cells, so ``2 (n_in + 2 ceil(dark) + 60)``
    rows hold every column's mass. A short range must drop the rows below
    it, not clamp them into its top bin.
    """
    full = build(2 * (n_in + 2 * math.ceil(dark) + 60))
    assert np.all(full >= 0.0)
    np.testing.assert_allclose(full.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    # atol admits only differences among subnormal values.
    np.testing.assert_allclose(build(n_out), full[: n_out + 1], rtol=1e-12, atol=1e-300)


class TestChannelProperties:
    @_examples
    @given(eta=_efficiencies, n=_dims)
    def test_loss_accounts_for_all_mass(self, eta, n):
        chan = loss_matrix(eta, n)
        assert np.all(chan >= 0.0)
        np.testing.assert_allclose(chan.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    @_examples
    @given(
        eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        n=_dims,
    )
    def test_loss_matrix_bitwise_closed_form(self, eta, n):
        # The kernel is eta^m times the exact binomial C(k, m) times
        # (1-eta)^(k-m), each power the exp of a multiple of a scalar log,
        # multiplied in this order, to the last bit.
        keep = np.exp(np.arange(n + 1) * math.log(eta))
        powers = np.append(1.0, np.exp(np.arange(1, n + 1) * math.log1p(-eta)))
        lose = np.zeros((n + 1, n + 1))
        for m in range(n + 1):
            for k in range(m, n + 1):
                lose[m, k] = float(math.comb(k, m)) * powers[k - m]
        assert np.array_equal(loss_matrix(eta, n), keep[:, None] * lose)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        eps=st.one_of(
            st.just(1e-300),
            st.just(1.0 - 1e-12),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
        n_in=st.integers(min_value=0, max_value=60),
        n_out=st.integers(min_value=0, max_value=60),
    )
    def test_crosstalk_is_shifted_loss(self, eps, n_in, n_out):
        # The extras of n fired cells are the survivors of thinning them at
        # eps, so column n is loss column n shifted down by n, bitwise.
        chan = crosstalk_matrix(eps, n_in, n_out)
        loss = loss_matrix(eps, max(n_in, n_out))
        shifted = np.zeros_like(chan)
        for n in range(n_in + 1):
            rows = min(n, n_out - n) + 1
            if rows > 0:
                shifted[n : n + rows, n] = loss[:rows, n]
        assert np.array_equal(chan, shifted)
        assert np.all(np.isfinite(chan))
        m = np.arange(n_out + 1, dtype=float)[:, None]
        n = np.arange(n_in + 1, dtype=float)[None, :]
        np.testing.assert_allclose(chan, binom_pmf(n, m - n, eps), rtol=1e-12, atol=1e-300)

    @_examples
    @given(n=st.integers(min_value=0, max_value=60))
    def test_lossless_is_exact_identity(self, n):
        # At efficiency 1 the powers of 1-eta are [1, 0, 0, ...], exactly.
        assert np.array_equal(loss_matrix(1.0, n), np.eye(n + 1))

    @_examples
    @given(dark=_darks, eps=_crosstalks, n_in=_dims, n_out=_dims)
    def test_after_loss_zero_beyond_output_range(self, dark, eps, n_in, n_out):
        # Darks and crosstalk never lower a count, so an input above the
        # output range reaches no output row.
        chan = after_loss_channel(dark, eps, n_in, n_out)
        assert np.all(chan[:, n_out + 1:] == 0.0)

    @_examples
    @given(dark=_darks, n_in=_dims, n_out=_dims)
    def test_dark_accounts_for_all_mass(self, dark, n_in, n_out):
        _assert_drops_rows(lambda top: dark_matrix(dark, n_in, top), n_in, n_out, dark)

    @_examples
    @given(eps=_crosstalks, n_in=_dims, n_out=_dims)
    def test_crosstalk_accounts_for_all_mass(self, eps, n_in, n_out):
        _assert_drops_rows(lambda top: crosstalk_matrix(eps, n_in, top), n_in, n_out)

    @_examples
    @given(dark=_darks, eps=_crosstalks, n_in=_dims, n_out=_dims)
    def test_after_loss_accounts_for_all_mass(self, dark, eps, n_in, n_out):
        _assert_drops_rows(
            lambda top: after_loss_channel(dark, eps, n_in, top), n_in, n_out, dark
        )

    @_examples
    @given(eta=_efficiencies, dark=_darks, eps=_crosstalks, n_in=_dims, n_out=_dims)
    def test_composed_channel_accounts_for_all_mass(self, eta, dark, eps, n_in, n_out):
        params = DetectorParams(eta, dark, eps)
        _assert_drops_rows(lambda top: compose_channel(params, n_in, top), n_in, n_out, dark)
        np.testing.assert_array_equal(
            compose_channel(params, n_in, n_out),
            after_loss_channel(dark, eps, n_in, n_out) @ loss_matrix(eta, n_in),
        )

    @_examples
    @given(
        eta=_efficiencies,
        mean=st.floats(min_value=0.0, max_value=10.0),
        n_max=st.integers(min_value=0, max_value=60),
    )
    def test_loss_of_thermal_is_thermal(self, eta, mean, n_max):
        # Thinning thermal(mean) gives thermal(eta * mean). The input grid
        # misses its recorded tail, so the output can fall short of the
        # exact thermal by at most that much, and never exceed it.
        thermal_in = thermal_pmf(mean, n_max)
        out = loss_matrix(eta, n_max) @ thermal_in.probs
        shortfall = thermal_pmf(eta * mean, n_max).probs - out
        assert np.all(shortfall >= -1e-12)
        assert shortfall.sum() <= thermal_in.tail_mass + 1e-12

    @settings(_examples, max_examples=40)
    @given(
        eta=st.floats(min_value=0.01, max_value=1.0),
        dark=st.floats(min_value=0.0, max_value=3.0),
        eps=st.floats(min_value=0.0, max_value=0.5),
        n=st.integers(min_value=0, max_value=8),
        n_out=st.integers(min_value=0, max_value=12),
    )
    def test_monte_carlo_matches_channel(self, eta, dark, eps, n, n_out):
        # Event-level draws of n photons, with every count above n_out in
        # one overflow bin, against the channel column and the mass the
        # channel drops below its range.
        trials = 2 * 10 ** 4
        params = DetectorParams(eta, dark, eps)
        draws = detect_count(np.full(trials, n, dtype=np.int64), params, np.random.default_rng(7))
        hist = np.bincount(np.minimum(draws, n_out + 1), minlength=n_out + 2) / trials
        column = compose_channel(params, n, n_out)[:, n]
        expected = np.append(column, 1.0 - column.sum())
        occupied = int((expected > 1e-12).sum())
        assert total_variation(hist, expected) < 5.0 * math.sqrt(occupied / trials)


class TestApplyTwoMode:
    def test_ideal_detectors_preserve_input(self):
        joint = mixture_joint(SourceParams(1.3, 0.6), 10)
        out = apply_two_mode(joint, DetectorParams.ideal(), DetectorParams.ideal())
        np.testing.assert_array_equal(out.probs, joint.probs)

    def test_product_structure_preserved(self):
        out = apply_two_mode(
            mixture_joint(SourceParams(4.1, 0.0), 40), PAPER_DET_H, PAPER_DET_V, n_out=12
        )
        s = np.linalg.svd(out.probs, compute_uv=False)
        assert s[1] / s[0] < 1e-10

    def test_correlated_input_gains_off_diagonal_mass(self):
        out = apply_two_mode(
            mixture_joint(SourceParams(4.1, 1.0), 40), PAPER_DET_H, PAPER_DET_V, n_out=12
        )
        off_diag = out.probs[~np.eye(13, dtype=bool)]
        assert off_diag.sum() > 0.01
        # Zero-photon events dominate every other cell.
        assert out.probs[0, 0] == out.probs.max()
        assert np.all(out.probs[0, 0] > np.delete(out.probs.ravel(), 0))

    def test_output_normalization(self):
        joint = mixture_joint(SourceParams(4.1, 0.5), 40)
        out = apply_two_mode(joint, PAPER_DET_H, PAPER_DET_V, n_out=12)
        assert out.probs.sum() + out.tail_mass == pytest.approx(1.0, abs=1e-12)


class TestDetectorParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"efficiency": 0.0, "dark_mean": 0.1, "crosstalk": 0.1},
            {"efficiency": 1.1, "dark_mean": 0.1, "crosstalk": 0.1},
            {"efficiency": 0.5, "dark_mean": -0.1, "crosstalk": 0.1},
            {"efficiency": 0.5, "dark_mean": 0.1, "crosstalk": 1.0},
            {"efficiency": 0.5, "dark_mean": math.inf, "crosstalk": 0.1},
            {"efficiency": 0.5, "dark_mean": math.nan, "crosstalk": 0.1},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            DetectorParams(**kwargs)
