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
    pdc_joint,
    product_joint,
    thermal_pmf,
    SourceParams,
)
from photoncorr.detector import _log_binom_table, apply_two_mode_built
from photoncorr.montecarlo import detect_count, total_variation

from conftest import PAPER_DET_H, PAPER_DET_V


class TestLossMatrix:
    def test_lossless_is_identity(self):
        chan = loss_matrix(1.0, 6)
        assert np.array_equal(chan.entries, np.eye(7))

    def test_binomial_column(self):
        chan = loss_matrix(0.5, 2)
        np.testing.assert_allclose(chan.entries[:, 2], [0.25, 0.5, 0.25], atol=1e-15)

    def test_thermal_closure(self):
        # Binomial thinning of a thermal state is thermal with the mean
        # scaled by the efficiency; the input tail must be negligible.
        eta, mean, n_max = 0.37, 1.0, 60
        thermal_in = thermal_pmf(mean, n_max)
        out = loss_matrix(eta, n_max).entries @ thermal_in.probs
        expected = thermal_pmf(eta * mean, n_max)
        np.testing.assert_allclose(out, expected.probs, atol=1e-10)

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.3])
    def test_domain_errors(self, eta):
        with pytest.raises(ValueError):
            loss_matrix(eta, 4)

    def test_short_output_records_truncation(self):
        chan = loss_matrix(0.5, 4, 2)
        total = chan.entries.sum(axis=0) + chan.column_truncation
        np.testing.assert_allclose(total, np.ones(5), atol=1e-12)
        assert chan.column_truncation[4] > 0.0


class TestDarkMatrix:
    def test_zero_darks_identity(self):
        chan = dark_matrix(0.0, 5)
        assert np.array_equal(chan.entries, np.eye(6))

    def test_vacuum_column_is_poisson(self):
        chan = dark_matrix(0.11, 6, 12)
        expected = [math.exp(-0.11) * 0.11 ** k / math.factorial(k) for k in range(13)]
        np.testing.assert_allclose(chan.entries[:, 0], expected, rtol=1e-12)
        assert chan.entries[0, 0] == pytest.approx(0.895834135, abs=1e-8)
        assert chan.entries[1, 0] == pytest.approx(0.098541754, abs=1e-8)
        assert chan.entries[2, 0] == pytest.approx(0.005419796, abs=1e-8)

    def test_columns_normalize_with_headroom(self):
        chan = dark_matrix(0.3, 4, 40)
        np.testing.assert_allclose(chan.entries.sum(axis=0), np.ones(5), atol=1e-12)

    def test_truncation_recorded(self):
        chan = dark_matrix(0.5, 4, 4)
        total = chan.entries.sum(axis=0) + chan.column_truncation
        np.testing.assert_allclose(total, np.ones(5), atol=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            dark_matrix(-0.1, 4)

    def test_non_finite_mean_rejected(self):
        # The closed form sums terms up to 2 * dark_mean; inf or nan has no pmf.
        for mean in (math.inf, math.nan):
            with pytest.raises(ValueError):
                dark_matrix(mean, 4)


class TestCrosstalkMatrix:
    def test_zero_crosstalk_identity(self):
        chan = crosstalk_matrix(0.0, 5)
        assert np.array_equal(chan.entries, np.eye(6))

    def test_single_fired_cell(self):
        chan = crosstalk_matrix(0.12, 4, 8)
        np.testing.assert_allclose(
            chan.entries[:4, 1], [0.0, 0.88, 0.12, 0.0], atol=1e-15
        )

    def test_two_fired_cells(self):
        chan = crosstalk_matrix(0.12, 4, 8)
        assert chan.entries[2, 2] == pytest.approx(0.7744, abs=1e-12)
        assert chan.entries[3, 2] == pytest.approx(0.2112, abs=1e-12)
        assert chan.entries[4, 2] == pytest.approx(0.0144, abs=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, 1.0])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError):
            crosstalk_matrix(eps, 4)

    def test_truncation_recorded(self):
        chan = crosstalk_matrix(0.3, 6, 6)
        total = chan.entries.sum(axis=0) + chan.column_truncation
        np.testing.assert_allclose(total, np.ones(7), atol=1e-12)
        assert chan.column_truncation[6] > 0.0


class TestComposeChannel:
    def test_ideal_is_identity_bitwise(self):
        chan = compose_channel(DetectorParams.ideal(), 8)
        assert np.array_equal(chan.entries, np.eye(9))

    def test_column_stochastic_within_truncation(self):
        chan = compose_channel(PAPER_DET_H, 12, 12)
        sums = chan.entries.sum(axis=0)
        assert np.all(sums <= 1.0 + 1e-12)
        np.testing.assert_allclose(sums + chan.column_truncation, np.ones(13), atol=1e-10)

    def test_vacuum_column_against_event_oracle(self):
        # Vacuum through the channel is dark counts broadened by
        # crosstalk; compare with an event-level histogram.
        trials = 10 ** 6
        chan = compose_channel(PAPER_DET_H, 6, 12)
        rng = np.random.default_rng(99)
        draws = detect_count(np.zeros(trials, dtype=np.int64), PAPER_DET_H, rng)
        hist = np.bincount(draws, minlength=13)[:13] / trials
        occupied = int((chan.entries[:, 0] > 1e-12).sum())
        bound = 5.0 * math.sqrt(occupied / trials)
        assert total_variation(hist, chan.entries[:, 0]) < bound

    def test_dark_loss_order_matters(self):
        # Applying darks before loss would thin the dark counts too; the
        # two orders must differ on a thermal input.
        n = 20
        loss = loss_matrix(0.25, n).entries
        dark = dark_matrix(0.11, n).entries
        thermal_in = thermal_pmf(1.0, n).probs
        dark_after = dark @ loss @ thermal_in
        dark_before = loss @ dark @ thermal_in
        assert np.abs(dark_after - dark_before).max() > 1e-4


# Output shorter than, equal to and longer than the input.
SHAPES = [(12, 6), (12, 12), (6, 40)]


class TestKernelsAgainstScipy:
    """The closed-form kernels agree with scipy's to 1e-12 relative.

    Dark mean 1e-24 is where stage-1 darks sit at their bound; there the
    overflow is about 1e-24, which ``1 - cdf`` would round to 0.

    ``atol=1e-300`` only admits differences among subnormal values, where
    no relative accuracy exists (e.g. dark mean 1e-24 at 13+ counts).
    """

    @pytest.mark.parametrize("n_in, n_out", SHAPES)
    @pytest.mark.parametrize("dark_mean", [0.0, 1e-24, 0.11, 5.0, 40.0])
    def test_dark_matrix_matches_poisson(self, dark_mean, n_in, n_out):
        chan = dark_matrix(dark_mean, n_in, n_out)
        k = np.arange(n_out + 1)[:, None] - np.arange(n_in + 1)[None, :]
        pmf = np.where(k >= 0, poisson.pmf(np.maximum(k, 0), dark_mean), 0.0)
        n = np.arange(n_in + 1)
        tail = np.where(n <= n_out, poisson.sf(n_out - n, dark_mean), 1.0)
        np.testing.assert_allclose(chan.entries, pmf, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(chan.column_truncation, tail, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("dim", [1, 2, 13, 41, 61])
    def test_log_binom_table_matches_gammaln(self, dim):
        table = _log_binom_table(dim)
        m = np.arange(dim)[:, None]
        n = np.arange(dim)[None, :]
        ref = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
        valid = m <= n
        np.testing.assert_allclose(table[valid], ref[valid], rtol=1e-12, atol=0.0)
        assert np.all(table[~valid] == -np.inf)
        assert not table.flags.writeable

    @pytest.mark.parametrize("n_in, n_out", SHAPES)
    def test_binomial_kernels_match_gammaln(self, n_in, n_out):
        m = np.arange(n_out + 1, dtype=float)[:, None]
        n = np.arange(n_in + 1, dtype=float)[None, :]

        def binom_pmf(trials, k, p):
            ok = (k >= 0) & (k <= trials)
            k = np.where(ok, k, 0.0)
            log_c = gammaln(trials + 1.0) - gammaln(k + 1.0) - gammaln(trials - k + 1.0)
            return np.where(ok, np.exp(log_c + k * np.log(p) + (trials - k) * np.log1p(-p)), 0.0)

        np.testing.assert_allclose(
            loss_matrix(0.37, n_in, n_out).entries, binom_pmf(n, m, 0.37), rtol=1e-12, atol=1e-300
        )
        np.testing.assert_allclose(
            crosstalk_matrix(0.12, n_in, n_out).entries,
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


def _assert_accounted(chan):
    """Every column's entries plus its recorded overflow sum to 1."""
    assert np.all(chan.entries >= 0.0) and np.all(chan.column_truncation >= 0.0)
    np.testing.assert_allclose(
        chan.entries.sum(axis=0) + chan.column_truncation, 1.0, rtol=0.0, atol=1e-12
    )


class TestChannelProperties:
    @_examples
    @given(eta=_efficiencies, n_in=_dims, n_out=_dims)
    def test_loss_accounts_for_all_mass(self, eta, n_in, n_out):
        _assert_accounted(loss_matrix(eta, n_in, n_out))

    @_examples
    @given(dark=_darks, n_in=_dims, n_out=_dims)
    def test_dark_accounts_for_all_mass(self, dark, n_in, n_out):
        _assert_accounted(dark_matrix(dark, n_in, n_out))

    @_examples
    @given(eps=_crosstalks, n_in=_dims, n_out=_dims)
    def test_crosstalk_accounts_for_all_mass(self, eps, n_in, n_out):
        _assert_accounted(crosstalk_matrix(eps, n_in, n_out))

    @_examples
    @given(dark=_darks, eps=_crosstalks, n_in=_dims, n_out=_dims)
    def test_after_loss_accounts_for_all_mass(self, dark, eps, n_in, n_out):
        _assert_accounted(after_loss_channel(dark, eps, n_in, n_out))

    @_examples
    @given(eta=_efficiencies, dark=_darks, eps=_crosstalks, n_in=_dims, n_out=_dims)
    def test_composed_channel_accounts_for_all_mass(self, eta, dark, eps, n_in, n_out):
        chan = compose_channel(DetectorParams(eta, dark, eps), n_in, n_out)
        _assert_accounted(chan)
        after_loss = after_loss_channel(dark, eps, n_in, n_out).entries
        np.testing.assert_array_equal(
            chan.entries, after_loss @ loss_matrix(eta, n_in).entries
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
        out = loss_matrix(eta, n_max).entries @ thermal_in.probs
        shortfall = thermal_pmf(eta * mean, n_max).probs - out
        assert np.all(shortfall >= -1e-12)
        assert shortfall.sum() <= thermal_in.tail_mass + 1e-12


class TestApplyTwoMode:
    def test_ideal_detectors_preserve_input(self):
        joint = mixture_joint(SourceParams(1.3, 0.6), 10)
        out = apply_two_mode(joint, DetectorParams.ideal(), DetectorParams.ideal())
        np.testing.assert_array_equal(out.probs, joint.probs)

    def test_product_structure_preserved(self):
        out = apply_two_mode(product_joint(4.1, 40), PAPER_DET_H, PAPER_DET_V, n_out=12)
        s = np.linalg.svd(out.probs, compute_uv=False)
        assert s[1] / s[0] < 1e-10

    def test_correlated_input_gains_off_diagonal_mass(self):
        out = apply_two_mode(pdc_joint(4.1, 40), PAPER_DET_H, PAPER_DET_V, n_out=12)
        off_diag = out.probs[~np.eye(13, dtype=bool)]
        assert off_diag.sum() > 0.01
        # Zero-photon events dominate every other cell.
        assert out.probs[0, 0] == out.probs.max()
        assert np.all(out.probs[0, 0] > np.delete(out.probs.ravel(), 0))

    def test_dimension_mismatch_rejected(self):
        joint = pdc_joint(1.0, 8)
        chan = compose_channel(PAPER_DET_H, 5, 5)
        with pytest.raises(ValueError):
            apply_two_mode_built(joint, chan, chan)

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
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            DetectorParams(**kwargs)
