import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson

from photoncorr import (
    CountsMatrix,
    DetectorParams,
    SimConfig,
    SourceParams,
    apply_two_mode,
    compose_channel,
    detect_count,
    mixture_joint,
    normalize,
    sample_pair,
    simulate,
)
from photoncorr.montecarlo import (
    _BLOCK_SHOTS,
    _CHUNK_SHOTS,
    _simulate_chunk,
    _stream_rng,
    total_variation,
)

from conftest import PAPER_DET_H, PAPER_DET_V, PAPER_MEAN


class TestSamplePair:
    def test_full_correlation_equal_pairs(self, rng):
        n_h, n_v = sample_pair(SourceParams(2.0, 1.0), rng, size=100_000)
        assert np.array_equal(n_h, n_v)

    def test_vacuum_source(self, rng):
        n_h, n_v = sample_pair(SourceParams(0.0, 0.0), rng, size=1000)
        assert not n_h.any() and not n_v.any()

    def test_histogram_matches_mixture(self, rng):
        # Empirical pair histogram against the analytic mixture law.
        shots = 10 ** 6
        n_max = 14
        n_h, n_v = sample_pair(SourceParams(1.0, 0.3), rng, size=shots)
        keep = (n_h <= n_max) & (n_v <= n_max)
        flat = n_h[keep] * (n_max + 1) + n_v[keep]
        hist = np.bincount(flat, minlength=(n_max + 1) ** 2).reshape(n_max + 1, -1)
        model = mixture_joint(SourceParams(1.0, 0.3), n_max)
        assert total_variation(hist / shots, model.probs) < 0.01


class TestDetectCount:
    def test_ideal_detector_is_identity(self, rng):
        n = rng.integers(0, 10, size=1000)
        out = detect_count(n, DetectorParams.ideal(), rng)
        assert np.array_equal(out, n)

    def test_input_unchanged_and_shape_kept(self):
        n = np.arange(3 * _BLOCK_SHOTS, dtype=np.int64) % 9
        before = n.copy()
        flat = detect_count(n, PAPER_DET_H, np.random.default_rng(3))
        assert np.array_equal(n, before)
        square = detect_count(n.reshape(2, -1), PAPER_DET_H, np.random.default_rng(3))
        assert square.shape == (2, n.size // 2)
        assert np.array_equal(square.reshape(-1), flat)

    def test_darks_only_poisson(self, rng):
        trials = 10 ** 6
        params = DetectorParams(efficiency=0.5, dark_mean=0.3, crosstalk=0.0)
        out = detect_count(np.zeros(trials, dtype=np.int64), params, rng)
        hist = np.bincount(out, minlength=12)[:12] / trials
        expected = poisson.pmf(np.arange(12), 0.3)
        assert total_variation(hist, expected) < 0.005

    @pytest.mark.parametrize("n", range(7))
    def test_column_law_matches_channel(self, n, rng):
        # Event-level per-column oracle against the composed transfer
        # matrix at the reference detector parameters.
        trials = 10 ** 6
        chan = compose_channel(PAPER_DET_H, 6, 14)
        out = detect_count(np.full(trials, n, dtype=np.int64), PAPER_DET_H, rng)
        hist = np.bincount(out, minlength=15)[:15] / trials
        assert total_variation(hist, chan[:, n]) < 0.01


def _reference_chunk(config, index, shots):
    """Whole-chunk draws and a masked histogram: the Monte Carlo before its
    draws were made block-wise. Each draw is one call over all ``shots``."""
    rng = _stream_rng(config.seed, index)
    mean = config.source.mean_photons

    def thermal():
        if mean == 0.0:
            return np.zeros(shots, dtype=np.int64)
        return rng.geometric(1.0 / (mean + 1.0), size=shots) - 1

    correlated = rng.random(shots) < config.source.correlation
    shared, own_h, own_v = thermal(), thermal(), thermal()
    detected = []
    for n, det in ((np.where(correlated, shared, own_h), config.det_h),
                   (np.where(correlated, shared, own_v), config.det_v)):
        fired = rng.binomial(n, det.efficiency) + rng.poisson(det.dark_mean, size=shots)
        detected.append(fired + rng.binomial(fired, det.crosstalk))
    m_h, m_v = detected
    dim = config.n_max + 1
    in_range = (m_h <= config.n_max) & (m_v <= config.n_max)
    flat = m_h[in_range] * dim + m_v[in_range]
    counts = np.bincount(flat, minlength=dim * dim).reshape(dim, dim)
    return counts, shots - int(in_range.sum())


class TestBlockwiseChunk:
    @pytest.mark.parametrize("shots", [
        1, _BLOCK_SHOTS - 1, _BLOCK_SHOTS, _BLOCK_SHOTS + 1, 3 * _BLOCK_SHOTS + 5,
    ])
    def test_equals_reference_across_block_edges(self, shots):
        config = SimConfig(SourceParams(PAPER_MEAN, 0.5), PAPER_DET_H, PAPER_DET_V,
                           shots, 11, 12)
        counts, overflow = _simulate_chunk(config, 2, shots)
        ref_counts, ref_overflow = _reference_chunk(config, 2, shots)
        assert np.array_equal(counts, ref_counts)
        assert overflow == ref_overflow

    @pytest.mark.parametrize("source, det_h, det_v, n_max", [
        pytest.param(SourceParams(0.0, 0.5), PAPER_DET_H, PAPER_DET_V, 6, id="vacuum"),
        pytest.param(SourceParams(30.0, 0.0), DetectorParams.ideal(), DetectorParams.ideal(),
                     34, id="g0-ideal"),
        pytest.param(SourceParams(30.0, 1.0), DetectorParams.ideal(), DetectorParams.ideal(),
                     34, id="g1-ideal"),
        pytest.param(SourceParams(2.0, 0.3), DetectorParams(1.0, 0.0, 0.1),
                     DetectorParams(0.6, 0.2, 0.0), 10, id="unit-efficiency-no-darks"),
        pytest.param(SourceParams(PAPER_MEAN, 0.5), PAPER_DET_H, PAPER_DET_V, 0, id="n_max0"),
    ])
    def test_equals_reference_at_edge_parameters(self, source, det_h, det_v, n_max):
        shots = 2 * _BLOCK_SHOTS + 17
        config = SimConfig(source, det_h, det_v, shots, 5, n_max)
        counts, overflow = _simulate_chunk(config, 0, shots)
        ref_counts, ref_overflow = _reference_chunk(config, 0, shots)
        assert np.array_equal(counts, ref_counts)
        assert overflow == ref_overflow

    def test_working_set_of_full_chunk(self):
        # About 17 bytes per shot: two int64 buffers and one bool mask.
        # This bound is what makes one worker per available CPU safe.
        config = SimConfig(SourceParams(PAPER_MEAN, 0.5), PAPER_DET_H, PAPER_DET_V,
                           _CHUNK_SHOTS, 1, 12)
        tracemalloc.start()
        try:
            _simulate_chunk(config, 0, _CHUNK_SHOTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20


class TestSimulate:
    def base_config(self, **overrides):
        kwargs = dict(
            source=SourceParams(PAPER_MEAN, 0.5),
            det_h=PAPER_DET_H,
            det_v=PAPER_DET_V,
            shots=50_000,
            seed=7,
            n_max=12,
        )
        kwargs.update(overrides)
        return SimConfig(**kwargs)

    def test_single_shot(self):
        counts = simulate(self.base_config(shots=1))
        assert counts.counts.sum() + counts.overflow == 1

    def test_deterministic_given_seed(self):
        a = simulate(self.base_config())
        b = simulate(self.base_config())
        assert np.array_equal(a.counts, b.counts)
        assert (a.shots, a.overflow) == (b.shots, b.overflow)

    def test_seed_changes_output(self):
        a = simulate(self.base_config())
        b = simulate(self.base_config(seed=8))
        assert not np.array_equal(a.counts, b.counts)

    def test_worker_count_does_not_change_result(self):
        # More shots than one chunk so the shard plan actually splits.
        config = self.base_config(shots=2_200_000, source=SourceParams(1.0, 0.5))
        serial = simulate(config, workers=1)
        threaded = simulate(config, workers=4)
        assert np.array_equal(serial.counts, threaded.counts)
        assert serial.overflow == threaded.overflow

    def test_oracle_equivalence_paper_params(self):
        config = self.base_config(shots=10 ** 6)
        counts = simulate(config)
        model = apply_two_mode(
            mixture_joint(SourceParams(PAPER_MEAN, 0.5), 40),
            PAPER_DET_H,
            PAPER_DET_V,
            n_out=12,
        )
        assert total_variation(normalize(counts).probs, model.probs) <= 0.01

    def test_detected_marginal_means(self):
        # Event-level mean per mode: (eta <n> + dark) (1 + crosstalk),
        # within three standard errors estimated from the histogram.
        config = self.base_config(shots=10 ** 6)
        counts = simulate(config)
        m = np.arange(13, dtype=float)
        for axis, det in ((1, PAPER_DET_H), (0, PAPER_DET_V)):
            marg = counts.counts.sum(axis=axis) / counts.shots
            mean = m @ marg
            second = (m * m) @ marg
            se = np.sqrt(max(second - mean * mean, 0.0) / counts.shots)
            expected = (det.efficiency * PAPER_MEAN + det.dark_mean) * (1 + det.crosstalk)
            assert abs(mean - expected) < 3 * se

    def test_overflow_recorded(self):
        config = self.base_config(
            source=SourceParams(4.1, 1.0),
            det_h=DetectorParams.ideal(),
            det_v=DetectorParams.ideal(),
            n_max=6,
            shots=20_000,
        )
        counts = simulate(config)
        assert counts.overflow > 0
        assert counts.counts.sum() + counts.overflow == counts.shots


class TestNormalize:
    def test_round_trip_total(self):
        counts = simulate(
            SimConfig(SourceParams(1.0, 0.2), PAPER_DET_H, PAPER_DET_V, 10_000, 3, 10)
        )
        dist = normalize(counts)
        assert dist.probs.sum() + dist.tail_mass == pytest.approx(1.0, abs=1e-12)

    def test_values(self):
        counts = CountsMatrix(
            n_max=1, counts=np.array([[6, 2], [1, 1]]), shots=12, overflow=2
        )
        dist = normalize(counts)
        assert dist.probs[0, 0] == pytest.approx(0.5)
        assert dist.tail_mass == pytest.approx(2 / 12)


class TestCountsMatrix:
    def test_inconsistent_totals_rejected(self):
        with pytest.raises(ValueError):
            CountsMatrix(n_max=1, counts=np.array([[1, 1], [1, 1]]), shots=10, overflow=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountsMatrix(n_max=1, counts=np.array([[-1, 1], [1, 1]]), shots=2, overflow=0)

    def test_invalid_shots_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(SourceParams(1, 0.5), PAPER_DET_H, PAPER_DET_V, 0, 1, 5)
