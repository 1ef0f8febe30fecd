import math

import numpy as np
import pytest
from scipy.optimize import brentq

from photoncorr import (
    DetectorParams,
    JointDistribution,
    SourceParams,
    apply_two_mode,
    coincidence_ratio,
    correlation_report,
    heralded_efficiency,
    lee_criterion,
    mean_interior_ratio,
    mixture_joint,
    moments,
    product_distance,
    ratio_matrix,
    singular_spectrum,
)

from conftest import PAPER_DET_H, PAPER_DET_V, PAPER_MEAN


def forward(g, n_max=12):
    joint = mixture_joint(SourceParams(PAPER_MEAN, g), n_max)
    return apply_two_mode(joint, PAPER_DET_H, PAPER_DET_V)


class TestRatioMatrix:
    def test_product_gives_unity_everywhere(self):
        # Holds for any truncation: the ratio conditions on the grid.
        ratio = ratio_matrix(mixture_joint(SourceParams(1.0, 0.0), 4))
        defined = ratio[~np.isnan(ratio)]
        np.testing.assert_allclose(defined, 1.0, atol=1e-12)

    def test_correlated_cell_value(self):
        # P(1,1)/P(1)^2 = 0.25/0.0625 for an ideal correlated pair source
        # of mean 1 (negligible tail).
        ratio = ratio_matrix(mixture_joint(SourceParams(1.0, 1.0), 80))
        assert ratio[1, 1] == pytest.approx(4.0, rel=1e-9)

    def test_off_diagonal_zero(self):
        ratio = ratio_matrix(mixture_joint(SourceParams(1.0, 1.0), 80))
        assert ratio[1, 2] == 0.0

    def test_no_infinities(self):
        probs = np.zeros((4, 4))
        probs[0, 0] = 1.0
        ratio = ratio_matrix(JointDistribution(n_max=3, probs=probs))
        defined = ratio[~np.isnan(ratio)]
        assert np.all(np.isfinite(defined))


class TestMeanInteriorRatio:
    def test_product_is_one(self):
        ratio = ratio_matrix(mixture_joint(SourceParams(4.1, 0.0), 12))
        assert mean_interior_ratio(ratio) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_correlation(self):
        values = [mean_interior_ratio(ratio_matrix(forward(g)))
                  for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_interior_is_nan(self):
        probs = np.zeros((3, 3))
        probs[0, 0] = 1.0
        ratio = ratio_matrix(JointDistribution(n_max=2, probs=probs))
        assert np.isnan(mean_interior_ratio(ratio))


class TestSingularSpectrum:
    def test_rank_one_spectrum(self):
        s = singular_spectrum(mixture_joint(SourceParams(4.1, 0.0), 20))
        assert s.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.values[1:] < 1e-12)

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_uniform_diagonal(self, n):
        probs = np.eye(n) / n
        s = singular_spectrum(JointDistribution(n_max=n - 1, probs=probs))
        assert np.abs(s.values - 1.0 / np.sqrt(n)).max() < 1e-12

    def test_transpose_invariance(self):
        measured = forward(0.7)
        transposed = JointDistribution(
            n_max=measured.n_max, probs=measured.probs.T, tail_mass=measured.tail_mass
        )
        np.testing.assert_allclose(
            singular_spectrum(measured).values,
            singular_spectrum(transposed).values,
            atol=1e-12,
        )

    def test_normalized(self):
        s = singular_spectrum(forward(0.5))
        assert (s.values ** 2).sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(s.values) <= 1e-15)


class TestProductDistance:
    def test_product_is_zero(self):
        joint = mixture_joint(SourceParams(4.1, 0.0), 20)
        assert product_distance(singular_spectrum(joint)) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_uniform_diagonal(self, n):
        probs = np.eye(n) / n
        d = product_distance(singular_spectrum(JointDistribution(n_max=n - 1, probs=probs)))
        assert d == pytest.approx(np.sqrt((n - 1) / n), abs=1e-12)

    def test_monotone_in_correlation(self):
        values = [product_distance(singular_spectrum(forward(g)))
                  for g in np.arange(0.0, 1.01, 0.1)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_iff_second_singular_value_vanishes(self):
        s_prod = singular_spectrum(mixture_joint(SourceParams(1.0, 0.0), 10))
        assert s_prod.values[1] < 1e-12
        assert product_distance(s_prod) < 1e-12
        s_corr = singular_spectrum(forward(1.0))
        assert s_corr.values[1] > 1e-12
        assert product_distance(s_corr) > 1e-12

    def test_eckart_young_identity(self):
        # The dominant singular triple is the closest product matrix in the
        # Frobenius norm, and the distance is its normalized residual.
        joint = forward(0.8)
        u, s, vt = np.linalg.svd(joint.probs)
        residual = np.linalg.norm(joint.probs - s[0] * np.outer(u[:, 0], vt[0]))
        assert residual / np.linalg.norm(joint.probs) == pytest.approx(
            product_distance(singular_spectrum(joint)), abs=1e-12
        )


class TestLeeCriterion:
    def test_thermal_product_is_classical(self):
        nonclassical, witness = lee_criterion(moments(mixture_joint(SourceParams(1.0, 0.0), 200)))
        assert not nonclassical
        assert witness == pytest.approx(-3.0, abs=1e-8)

    def test_ideal_correlated_is_nonclassical(self):
        nonclassical, witness = lee_criterion(moments(mixture_joint(SourceParams(1.0, 1.0), 200)))
        assert nonclassical
        assert witness == pytest.approx(5.0, abs=1e-7)

    @pytest.mark.parametrize("mean", [0.5, 1.0, 4.1])
    def test_threshold_matches_analytic(self, mean):
        n_max = 120 if mean <= 1.0 else 300

        def witness(g):
            return lee_criterion(moments(mixture_joint(SourceParams(mean, g), n_max)))[1]

        threshold = brentq(witness, 1e-9, 1.0 - 1e-9, xtol=1e-12)
        assert threshold == pytest.approx(mean / (mean + 1.0), abs=1e-6)

    @pytest.mark.parametrize("mean", [0.2, 0.5, 1.0, 4.1])
    def test_zero_correlation_never_flags(self, mean):
        _, witness = lee_criterion(moments(mixture_joint(SourceParams(mean, 0.0), 200)))
        assert witness <= 0.0


class TestHeraldedEfficiency:
    def test_perfect_correlation_perfect_detector(self):
        det = DetectorParams(1.0, 0.0, 0.0)
        gamma = heralded_efficiency(SourceParams(1.0, 1.0), det, det, herald="H")
        assert gamma == pytest.approx(1.0, abs=2e-4)

    def test_half_correlation_partial_detector(self):
        gamma = heralded_efficiency(
            SourceParams(1.0, 0.5),
            DetectorParams(0.8, 0.0, 0.0),
            DetectorParams(0.2, 0.0, 0.0),
            herald="H",
        )
        assert gamma == pytest.approx(0.1, rel=1e-3)

    def test_uncorrelated_vanishes(self):
        gamma = heralded_efficiency(
            SourceParams(1.0, 0.0),
            DetectorParams(0.5, 0.0, 0.0),
            DetectorParams(0.5, 0.0, 0.0),
        )
        assert gamma < 1e-6

    @pytest.mark.parametrize("g", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
    def test_proportionality_law(self, g, eta):
        det = DetectorParams(eta, 0.0, 0.0)
        gamma = heralded_efficiency(SourceParams(1.0, g), det, det)
        assert 1 - 1e-2 <= gamma / (g * eta) <= 1 + 1e-2

    def test_crosstalk_does_not_change_ratio(self):
        base = DetectorParams(0.5, 0.0, 0.0)
        with_ct = DetectorParams(0.5, 0.0, 0.2)
        g_plain = heralded_efficiency(SourceParams(1.0, 0.5), base, base)
        g_ct = heralded_efficiency(SourceParams(1.0, 0.5), with_ct, with_ct)
        assert g_ct == pytest.approx(g_plain, abs=1e-6)

    def test_herald_mode_selects_other_efficiency(self):
        det_h = DetectorParams(0.8, 0.0, 0.0)
        det_v = DetectorParams(0.2, 0.0, 0.0)
        src = SourceParams(1.0, 1.0)
        assert heralded_efficiency(src, det_h, det_v, "H") == pytest.approx(0.2, rel=1e-3)
        assert heralded_efficiency(src, det_h, det_v, "V") == pytest.approx(0.8, rel=1e-3)

    def test_invalid_probe_mean(self):
        det = DetectorParams(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            heralded_efficiency(SourceParams(1.0, 0.5), det, det, probe_mean=0.0)

    @pytest.mark.parametrize("probe_mean", [-1e-4, math.nan, math.inf])
    def test_probe_mean_named_when_rejected(self, probe_mean):
        # A NaN fails every comparison, so it must not reach SourceParams
        # and be reported as a bad mean_photons.
        det = DetectorParams(0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="probe_mean must be finite"):
            heralded_efficiency(SourceParams(1.0, 0.5), det, det, probe_mean=probe_mean)


class TestCoincidenceRatio:
    def test_scale_invariance(self):
        joint = forward(0.5)
        scaled = JointDistribution(n_max=joint.n_max, probs=joint.probs * 0.5,
                                   tail_mass=0.0)
        assert coincidence_ratio(scaled) == pytest.approx(
            coincidence_ratio(joint), rel=1e-12
        )


@pytest.mark.parametrize("measure", [
    pytest.param(lambda herald: coincidence_ratio(forward(0.5), herald=herald), id="ratio"),
    pytest.param(lambda herald: correlation_report(forward(0.5), herald=herald), id="report"),
    pytest.param(lambda herald: heralded_efficiency(
        SourceParams(1.0, 0.5), DetectorParams(0.5, 0.0, 0.0), DetectorParams(0.5, 0.0, 0.0),
        herald=herald), id="efficiency"),
])
@pytest.mark.parametrize("herald", ["h", "X", ""])
def test_unknown_herald_rejected(measure, herald):
    with pytest.raises(ValueError, match="herald"):
        measure(herald)


class TestCorrelationReport:
    def test_fields_populated(self):
        report = correlation_report(forward(0.5))
        assert 0.0 <= report.coincidence_ratio <= 1.0
        assert report.product_distance >= 0.0
        assert np.isfinite(report.mean_interior_ratio)
        assert isinstance(report.lee_nonclassical, bool)

    def test_singular_values_match_spectrum(self):
        joint = forward(0.5)
        report = correlation_report(joint)
        spectrum = singular_spectrum(joint)
        assert report.singular_values == tuple(spectrum.values)
        assert all(type(s) is float for s in report.singular_values)
        assert report.product_distance == product_distance(spectrum)
