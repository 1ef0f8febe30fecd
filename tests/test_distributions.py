import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photoncorr import (
    JointDistribution,
    SourceParams,
    mixture_joint,
    moments,
    thermal_pmf,
)


def brute_moments(probs):
    """Independent plain-loop oracle for the moment sums."""
    dim = probs.shape[0]
    mean_h = mean_v = cross = fact2_h = fact2_v = 0.0
    for i in range(dim):
        for j in range(dim):
            p = probs[i, j]
            mean_h += i * p
            mean_v += j * p
            cross += i * j * p
            fact2_h += i * (i - 1) * p
            fact2_v += j * (j - 1) * p
    return mean_h, mean_v, cross, fact2_h, fact2_v


class TestThermal:
    def test_vacuum(self):
        marg = thermal_pmf(0.0, 4)
        assert np.array_equal(marg.probs, [1, 0, 0, 0, 0])
        assert marg.tail_mass == 0.0

    def test_mean_one(self):
        marg = thermal_pmf(1.0, 2)
        np.testing.assert_allclose(marg.probs, [0.5, 0.25, 0.125], atol=1e-15)
        assert marg.tail_mass == pytest.approx(0.125, abs=1e-15)

    def test_paper_mean(self):
        marg = thermal_pmf(4.1, 40)
        assert marg.probs[0] == pytest.approx(1 / 5.1, abs=1e-12)
        assert marg.tail_mass < 1e-3

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            thermal_pmf(-0.1, 5)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            thermal_pmf(1.0, -1)

    @pytest.mark.parametrize("build", [
        thermal_pmf,
        pytest.param(lambda m, n: mixture_joint(SourceParams(m, 1.0), n), id="pdc_joint"),
        pytest.param(lambda m, n: mixture_joint(SourceParams(m, 0.0), n), id="product_joint"),
    ])
    @pytest.mark.parametrize("mean", [math.nan, math.inf, -0.1])
    def test_invalid_mean_rejected(self, build, mean):
        with pytest.raises(ValueError, match="mean"):
            build(mean, 5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        mean=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
        n_max=st.integers(min_value=0, max_value=60),
    )
    def test_probs_bitwise_closed_form(self, mean, n_max):
        # P(n) = exp(n log(mean/(mean+1)) - log(1+mean)), to the last bit.
        if mean == 0.0:
            expected = np.zeros(n_max + 1)
            expected[0] = 1.0
        else:
            log_q = math.log(mean) - math.log1p(mean)
            expected = np.exp(np.arange(n_max + 1) * log_q - math.log1p(mean))
        assert np.array_equal(thermal_pmf(mean, n_max).probs, expected)

    @pytest.mark.parametrize("mean", [0.0, 0.3, 1.0, 4.1])
    @pytest.mark.parametrize("n_max", [3, 12, 40])
    def test_normalization(self, mean, n_max):
        marg = thermal_pmf(mean, n_max)
        assert marg.probs.sum() + marg.tail_mass == pytest.approx(1.0, abs=1e-12)


class TestPdcJoint:
    def test_vacuum(self):
        joint = mixture_joint(SourceParams(0.0, 1.0), 3)
        assert joint.probs[0, 0] == 1.0
        assert joint.probs.sum() == 1.0

    def test_mean_one_diagonal(self):
        joint = mixture_joint(SourceParams(1.0, 1.0), 2)
        np.testing.assert_allclose(np.diag(joint.probs), [0.5, 0.25, 0.125])

    def test_off_diagonal_bitwise_zero(self):
        joint = mixture_joint(SourceParams(4.1, 1.0), 20)
        off = joint.probs[~np.eye(21, dtype=bool)]
        assert np.all(off == 0.0)

    def test_marginals_match_thermal(self):
        # Row/column summation oracle against the closed-form law.
        joint = mixture_joint(SourceParams(4.1, 1.0), 40)
        thermal = thermal_pmf(4.1, 40)
        row_sums = [sum(joint.probs[i, j] for j in range(41)) for i in range(41)]
        col_sums = [sum(joint.probs[i, j] for i in range(41)) for j in range(41)]
        np.testing.assert_allclose(row_sums, thermal.probs, atol=1e-14)
        np.testing.assert_allclose(col_sums, thermal.probs, atol=1e-14)
        np.testing.assert_allclose(joint.probs.sum(axis=1), thermal.probs, atol=1e-14)
        np.testing.assert_allclose(joint.probs.sum(axis=0), thermal.probs, atol=1e-14)


class TestProductJoint:
    def test_vacuum(self):
        assert mixture_joint(SourceParams(0.0, 0.0), 3).probs[0, 0] == 1.0

    def test_cell_value(self):
        joint = mixture_joint(SourceParams(1.0, 0.0), 2)
        assert joint.probs[1, 2] == pytest.approx(0.25 * 0.125, abs=1e-15)

    def test_rank_one(self):
        s = np.linalg.svd(mixture_joint(SourceParams(4.1, 0.0), 40).probs, compute_uv=False)
        assert s[1] < 1e-12


class TestMixtureJoint:
    def test_endpoints(self):
        # g = 1 is the correlated diagonal and g = 0 the thermal product, bitwise.
        t = thermal_pmf(1.0, 8).probs
        np.testing.assert_array_equal(
            mixture_joint(SourceParams(1.0, 1.0), 8).probs, np.diag(t)
        )
        np.testing.assert_array_equal(
            mixture_joint(SourceParams(1.0, 0.0), 8).probs, np.outer(t, t)
        )

    def test_off_diagonal_cell(self):
        joint = mixture_joint(SourceParams(1.0, 0.5), 4)
        assert joint.probs[1, 2] == pytest.approx(0.015625, abs=1e-15)

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            SourceParams(1.0, 1.2)
        with pytest.raises(ValueError):
            SourceParams(1.0, -0.1)

    @pytest.mark.parametrize("mean", [-0.1, math.inf, math.nan])
    def test_invalid_mean(self, mean):
        with pytest.raises(ValueError, match="mean_photons must be finite"):
            SourceParams(mean, 0.5)

    @pytest.mark.parametrize("g", [0.1, 0.5, 0.9])
    def test_linearity(self, g):
        full = mixture_joint(SourceParams(2.0, 1.0), 20).probs
        none = mixture_joint(SourceParams(2.0, 0.0), 20).probs
        mix = mixture_joint(SourceParams(2.0, g), 20).probs
        np.testing.assert_allclose(mix, g * full + (1 - g) * none, atol=1e-15)

    @pytest.mark.parametrize("g", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("mean,n_max", [(1.0, 45), (4.1, 140)])
    def test_marginal_invariance(self, g, mean, n_max):
        # Entrywise equality with the thermal law needs a grid whose
        # truncation tail is itself below the tolerance.
        joint = mixture_joint(SourceParams(mean, g), n_max)
        thermal = thermal_pmf(mean, n_max)
        np.testing.assert_allclose(joint.probs.sum(axis=1), thermal.probs, atol=1e-12)
        np.testing.assert_allclose(joint.probs.sum(axis=0), thermal.probs, atol=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.25, 0.75, 1.0])
    @pytest.mark.parametrize("mean", [0.5, 4.1])
    def test_normalization(self, g, mean):
        joint = mixture_joint(SourceParams(mean, g), 40)
        assert joint.probs.sum() + joint.tail_mass == pytest.approx(1.0, abs=1e-12)


class TestMoments:
    def test_pdc_cross_approaches_thermal_second_moment(self):
        # Brute-force summation oracle at n_max=200; for a thermal mean
        # of 1 the second moment is 2<n>^2 + <n> = 3.
        joint = mixture_joint(SourceParams(1.0, 1.0), 200)
        oracle = brute_moments(joint.probs)
        m = moments(joint)
        assert m.cross == pytest.approx(oracle[2], abs=1e-12)
        assert m.cross == pytest.approx(3.0, abs=1e-9)

    def test_product_cross_is_mean_squared(self):
        joint = mixture_joint(SourceParams(1.0, 0.0), 200)
        oracle = brute_moments(joint.probs)
        m = moments(joint)
        assert m.cross == pytest.approx(oracle[2], abs=1e-12)
        assert m.cross == pytest.approx(1.0, abs=1e-9)

    def test_delta_matrix(self):
        probs = np.zeros((6, 6))
        probs[2, 3] = 1.0
        m = moments(JointDistribution(n_max=5, probs=probs))
        assert (m.mean_h, m.mean_v, m.cross) == (2.0, 3.0, 6.0)
        assert (m.fact2_h, m.fact2_v) == (2.0, 6.0)

    @pytest.mark.parametrize("mean", [0.5, 1.0, 4.1])
    @pytest.mark.parametrize("g", [0.0, 0.4, 1.0])
    def test_mixture_cross_identity(self, mean, g):
        # cross(g) = <n>^2 + g (<n>^2 + <n>), truncation tail below 1e-10.
        n_max = 80 if mean <= 1.0 else 180
        joint = mixture_joint(SourceParams(mean, g), n_max)
        expected = mean * mean + g * (mean * mean + mean)
        assert moments(joint).cross == pytest.approx(expected, rel=1e-8)


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(n_max=3, probs=np.zeros((2, 2)))

    def test_probs_are_read_only(self):
        joint = mixture_joint(SourceParams(1.0, 1.0), 4)
        with pytest.raises(ValueError):
            joint.probs[0, 0] = 0.5
