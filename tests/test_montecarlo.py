import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from photoncorr import (
    CountsMatrix,
    DetectorParams,
    SimConfig,
    SourceParams,
    apply_two_mode,
    compose_channel,
    mixture_joint,
    normalize,
    simulate,
)
from photoncorr.montecarlo import (
    _BLOCK_SHOTS,
    _CHUNK_SHOTS,
    _LOCKSTEP_MAX_DARK,
    _CountOverflow,
    _binomial_into,
    _binomial_inversion,
    _chunk_at_width,
    _count_dtype,
    _detect_in_place,
    _poisson_add,
    _sample_pair_into,
    _simulate_chunk,
    _stream_rng,
    _thermal_into,
    total_variation,
)
from photoncorr import montecarlo
from photoncorr.io import counts_to_text

from conftest import PAPER_DET_H, PAPER_DET_V, PAPER_MEAN, detect_count


def _sample_pair(source, rng, size, dtype=np.int32):
    """``size`` photon-number pairs drawn into fresh buffers of ``dtype``."""
    n_h, n_v = np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)
    _sample_pair_into(n_h, n_v, source, rng)
    return n_h, n_v


class TestSamplePair:
    def test_full_correlation_equal_pairs(self, rng):
        n_h, n_v = _sample_pair(SourceParams(2.0, 1.0), rng, size=100_000)
        assert np.array_equal(n_h, n_v)

    def test_vacuum_source(self, rng):
        n_h, n_v = _sample_pair(SourceParams(0.0, 0.0), rng, size=1000)
        assert not n_h.any() and not n_v.any()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        mean=st.sampled_from([0.0, 2.0, 5.0]) | st.floats(0.0, 5.0),
        g=st.floats(0.0, 1.0),
        detectors=st.lists(
            st.builds(DetectorParams,
                      efficiency=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
                      dark_mean=st.floats(0.0, 0.5),
                      crosstalk=st.floats(0.0, 0.5, exclude_max=True)),
            min_size=2, max_size=2),
        size=st.sampled_from([1, _BLOCK_SHOTS - 1, _BLOCK_SHOTS, _BLOCK_SHOTS + 1])
        | st.integers(1, 3 * _BLOCK_SHOTS),
        seed=st.integers(0, 2 ** 32),
    )
    def test_every_width_holds_the_int64_numbers(self, mean, g, detectors, size, seed):
        # The source and detection passes from one stream make the same
        # numbers, and leave the generator in the same state, in every
        # buffer width as in int64. A width the counts do not fit raises
        # _CountOverflow, and the Monte Carlo reruns its chunk one width up.
        def run(dtype):
            rng = _stream_rng(seed, 0)
            pair = _sample_pair(SourceParams(mean, g), rng, size, dtype)
            for m, det in zip(pair, detectors):
                _detect_in_place(m, det, rng)
            return [m.tolist() for m in pair], rng.bit_generator.state

        want = run(np.int64)
        for dtype in (np.int8, np.int16, np.int32):
            try:
                got = run(dtype)
            except _CountOverflow:
                continue
            assert got == want, dtype

    def test_histogram_matches_mixture(self, rng):
        # Empirical pair histogram against the analytic mixture law.
        shots = 10 ** 6
        n_max = 14
        n_h, n_v = _sample_pair(SourceParams(1.0, 0.3), rng, size=shots)
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


def _twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_binomial_is_numpys(counts, p, add, seed):
    # Values and the generator state after the draw equal numpy's binomial.
    m = np.array(counts, dtype=np.int32)
    rng, ref = _twin_generators(seed)
    want = ref.binomial(m, p) + (m if add else 0)
    _binomial_into(m, p, rng, add)
    assert m.tolist() == want.tolist()
    assert rng.bit_generator.state == ref.bit_generator.state


class _FirstUniformHigh:
    """Draws from ``rng``, except that the first uniform of each call is
    1 - 2**-53, the largest numpy makes, so that it outruns the binomial
    inversion's bound."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator

    def random(self, size):
        u = self.rng.random(size)
        u[0] = 1.0 - 2.0 ** -53
        return u

    def binomial(self, n, p):
        return self.rng.binomial(n, p)


_counts = st.lists(st.integers(0, 3) | st.integers(0, 60) | st.integers(0, 5000),
                   min_size=1, max_size=300)


class TestInversionSamplers:
    """The block-wise inversions make numpy's own draws from the same variates."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        mean=st.sampled_from([0.0, 1.0, 2.0, float(np.nextafter(2.0, 3.0)), PAPER_MEAN, 2.0 ** 20])
        | st.floats(0.0, 1e4),
        size=st.integers(1, 300),
        seed=st.integers(0, 2 ** 32),
    )
    def test_thermal_is_numpys_geometric(self, mean, size, seed):
        # Mean 2.0 gives p = 1/3, numpy's search branch; just above it,
        # the inversion.
        rng, ref = _twin_generators(seed)
        out = np.empty(size, dtype=np.int32)
        _thermal_into(out, mean, rng)
        if mean == 0.0:
            want = np.zeros(size, dtype=np.int64)
        else:
            want = ref.geometric(1.0 / (mean + 1.0), size=size) - 1
        assert out.tolist() == want.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        counts=_counts | st.lists(st.just(0), min_size=1, max_size=10),
        p=st.sampled_from([0.0, 0.01, 0.012, 0.12, 0.49, 0.5]) | st.floats(0.0, 1.0),
        add=st.booleans(),
        seed=st.integers(0, 2 ** 32),
    )
    def test_binomial_is_numpys(self, counts, p, add, seed):
        _assert_binomial_is_numpys(counts, p, add, seed)

    @pytest.mark.parametrize("counts, p, inverted", [
        pytest.param([0, 5, 0, 60, 60], 0.5, True, id="np30-p0.5"),
        pytest.param([0, 5, 0, 61, 60], 0.5, False, id="np30.5"),
        pytest.param([120, 1, 0], 0.25, True, id="np30-p0.25"),
        pytest.param([121, 1, 0], 0.25, False, id="np30.25"),
        pytest.param([0, 0, 0], 0.3, True, id="all-zero"),
        # The table of (1-p)**n at every count up to the largest.
        pytest.param([1] * 200 + [2, 0], 0.3, True, id="table-every-count"),
        pytest.param([3, 4], 0.0, False, id="p0"),
        pytest.param([3, 4], 0.5000001, False, id="p-above-half"),
        pytest.param([60_000, 7, 0], 1e-4, True, id="large-n"),
        pytest.param([2 ** 20, 7, 0], 1e-5, False, id="n-beyond-table"),
    ])
    def test_binomial_branch_edges(self, counts, p, inverted):
        m = np.array(counts, dtype=np.int32)
        probe = np.random.default_rng(0)
        assert (_binomial_inversion(m, p, probe) is not None) == inverted
        for add in (False, True):
            _assert_binomial_is_numpys(counts, p, add, seed=9)

    def test_restart_redraws_the_block_with_numpy(self):
        # At n = 100, p = 0.01 the inversion gives up past 15, and the
        # largest uniform outruns the mass up to there: numpy would draw
        # again. The block is then numpy's draw from the state on entry.
        m = np.array([100, 0, 7, 100, 3] * 40, dtype=np.int32)
        rng, ref = _twin_generators(8)
        high = _FirstUniformHigh(rng)
        assert _binomial_inversion(m, 0.01, high) is None
        assert rng.bit_generator.state == ref.bit_generator.state
        want = ref.binomial(m, 0.01)
        _binomial_into(m, 0.01, high, add=False)
        assert m.tolist() == want.tolist()
        # The next draw is numpy's too.
        want = ref.binomial(m, 0.3)
        _binomial_into(m, 0.3, rng, add=False)
        assert m.tolist() == want.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


def _knuth_poisson(u, lam, size):
    """numpy's Poisson sampler below a mean of 10, in Python, over the
    uniforms ``u``: the first ``size`` draws and the number of uniforms
    they take."""
    end, used, draws = math.exp(-lam), 0, []
    for _ in range(size):
        draw, product = 0, 1.0
        while True:
            product *= u[used]
            used += 1
            if product <= end:
                break
            draw += 1
        draws.append(draw)
    return draws, used


class _UniformsSetAt:
    """Draws from ``rng``, except that each call's uniforms from ``at`` on
    are ``values`` (as many as fit). The uniforms of the last call are
    kept, and ``poisson`` calls are counted, so a test sees which path ran."""

    def __init__(self, rng, at=0, values=()):
        self.rng, self.at, self.values = rng, at, values
        self.bit_generator = rng.bit_generator
        self.poisson_calls = 0

    def random(self, size):
        u = self.rng.random(size)
        values = self.values[:max(size - self.at, 0)]
        u[self.at:self.at + len(values)] = values
        self.uniforms = u.copy()
        return u

    def poisson(self, lam, size):
        self.poisson_calls += 1
        return self.rng.poisson(lam, size=size)


def _buffered_pcg64(seed):
    """A PCG64 generator that holds the unused half of a 32-bit draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _stale_pcg64(seed):
    """A PCG64 generator whose 32-bit half is used up but still stored."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.integers(0, 10, size=2, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] != 0
    return rng


def _state(rng):
    """The state of ``rng``'s bit generator, its arrays as lists, so that
    states compare with ``==`` (Philox and MT19937 keep arrays)."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def _assert_poisson_is_numpys(start, lam, rng, ref):
    # Values, the generator state after the draw and the next draw equal
    # numpy's poisson.
    m = np.array(start)
    want = m + ref.poisson(lam, size=m.size)
    _poisson_add(m, lam, rng)
    assert m.tolist() == want.tolist()
    assert _state(rng) == _state(ref)
    assert rng.random() == ref.random()


class TestPoissonAdd:
    """The lockstep products make numpy's own Poisson draws from the same uniforms."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        lam=st.sampled_from([0.0, 1e-9, 0.02, PAPER_DET_H.dark_mean, PAPER_DET_V.dark_mean,
                             _LOCKSTEP_MAX_DARK, math.nextafter(_LOCKSTEP_MAX_DARK, math.inf)])
        | st.floats(0.0, 2 * _LOCKSTEP_MAX_DARK),
        size=st.integers(1, 3000) | st.sampled_from([1, _BLOCK_SHOTS]),
        base=st.integers(0, 3),
        dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
        seed=st.integers(0, 2 ** 32),
    )
    def test_poisson_is_numpys(self, lam, size, base, dtype, seed):
        rng, ref = _twin_generators(seed)
        _assert_poisson_is_numpys(np.full(size, base, dtype=dtype), lam, rng, ref)

    def test_knuth_oracle_is_numpys(self):
        u = np.random.default_rng(4).random(5000)
        draws, used = _knuth_poisson(u, 0.7, 2000)
        ref = np.random.default_rng(4)
        assert draws == ref.poisson(0.7, size=2000).tolist()
        ref.bit_generator.advance(-used)
        assert ref.bit_generator.state == np.random.default_rng(4).bit_generator.state

    @pytest.mark.parametrize("at", [0, 500, 999])
    def test_runs_with_inner_ends(self, at):
        # At lam = 0.11 every uniform set here is big (above exp(-lam), about
        # 0.896): 0.95 * 0.94 ends a draw inside a run, and 0.99**11 ends a
        # draw of 10, twice in the run of thirty, so one run holds several
        # ends.
        values = [0.95, 0.94, 0.99, 0.95, 0.94] + [0.99] * 30 + [0.9, 0.995, 0.9]
        rng, ref = _twin_generators(6)
        forced = _UniformsSetAt(rng, at, values)
        m = np.zeros(1000, dtype=np.int16)
        _poisson_add(m, 0.11, forced)
        assert forced.poisson_calls == 0
        draws, used = _knuth_poisson(forced.uniforms, 0.11, m.size)
        assert m.tolist() == draws
        assert max(draws) >= 10
        ref.bit_generator.advance(used)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_short_margin_redraws_the_block_with_numpy(self):
        # No uniform ends a draw, so the margin holds none of them: the
        # block is numpy's draw from the state on entry.
        rng, ref = _twin_generators(8)
        high = _UniformsSetAt(rng, 0, [1.0 - 2.0 ** -53] * 4000)
        m = np.zeros(1000, dtype=np.int16)
        _poisson_add(m, 0.11, high)
        assert high.poisson_calls == 1
        assert m.tolist() == ref.poisson(0.11, size=1000).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("make, lam, size, lockstep", [
        pytest.param(np.random.default_rng, 0.0, 100, False, id="lam0"),
        pytest.param(np.random.default_rng, 1e-9, 1000, True, id="all-zero"),
        pytest.param(np.random.default_rng, 0.11, 1, True, id="n1"),
        pytest.param(np.random.default_rng, PAPER_DET_V.dark_mean, _BLOCK_SHOTS, True,
                     id="paper-block"),
        pytest.param(np.random.default_rng, _LOCKSTEP_MAX_DARK, 1000, True, id="at-cap"),
        pytest.param(np.random.default_rng, math.nextafter(_LOCKSTEP_MAX_DARK, math.inf),
                     1000, False, id="above-cap"),
        pytest.param(lambda seed: np.random.Generator(np.random.Philox(seed)), 0.11, 1000,
                     False, id="philox"),
        pytest.param(lambda seed: np.random.Generator(np.random.MT19937(seed)), 0.11, 1000,
                     False, id="mt19937"),
        pytest.param(lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)), 0.11, 1000,
                     False, id="pcg64dxsm"),
        pytest.param(_buffered_pcg64, 0.11, 1000, False, id="pcg64-buffered-32-bit"),
        pytest.param(_stale_pcg64, 0.11, 1000, False, id="pcg64-stale-32-bit"),
    ])
    def test_poisson_branch_edges(self, make, lam, size, lockstep):
        spy = _UniformsSetAt(make(9))
        _poisson_add(np.zeros(size, dtype=np.int16), lam, spy)
        assert spy.poisson_calls == (0 if lockstep else 1)
        _assert_poisson_is_numpys(np.zeros(size, dtype=np.int16), lam, make(9), make(9))
        if lam == 1e-9:
            assert not make(9).poisson(lam, size=size).any()

    @pytest.mark.parametrize("make", [
        pytest.param(lambda seed: np.random.Generator(np.random.Philox(seed)), id="philox"),
        pytest.param(lambda seed: np.random.Generator(np.random.MT19937(seed)), id="mt19937"),
        pytest.param(_buffered_pcg64, id="pcg64-buffered-32-bit"),
    ])
    def test_detect_count_draws_numpys_stream_on_any_generator(self, make):
        # Only a PCG64 with no 32-bit half held is advanced past the darks:
        # Philox.advance counts 256-bit blocks, MT19937 has no advance, and
        # advance would clear the held half.
        n = np.arange(2 * _BLOCK_SHOTS + 5, dtype=np.int64) % 9
        rng, ref = make(9), make(9)
        out = detect_count(n, PAPER_DET_H, rng)
        fired = ref.binomial(n, PAPER_DET_H.efficiency) + ref.poisson(
            PAPER_DET_H.dark_mean, size=n.size)
        want = fired + ref.binomial(fired, PAPER_DET_H.crosstalk)
        assert out.tolist() == want.tolist()
        assert _state(rng) == _state(ref)


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
        # The largest allowed mean: the largest photon numbers the int32
        # buffers are built for.
        pytest.param(SourceParams(2 ** 20, 0.5), PAPER_DET_H, PAPER_DET_V, 12,
                     id="int32-limit"),
        # The largest means of int16 buffers, and the smallest source mean
        # of int32 ones.
        pytest.param(SourceParams(15.0, 0.5), DetectorParams(0.5, 15.0, 0.1),
                     DetectorParams(0.6, 15.0, 0.2), 40, id="int16-limit"),
        pytest.param(SourceParams(math.nextafter(15.0, math.inf), 0.5), PAPER_DET_H,
                     PAPER_DET_V, 12, id="int32-above-int16-limit"),
        # The largest means of int8 buffers, and the smallest source mean of
        # int16 ones.
        pytest.param(SourceParams(5.0, 0.5), DetectorParams(0.5, 5.0, 0.1),
                     DetectorParams(0.6, 5.0, 0.2), 30, id="int8-limit"),
        pytest.param(SourceParams(math.nextafter(5.0, math.inf), 0.5), PAPER_DET_H,
                     PAPER_DET_V, 12, id="int16-above-int8-limit"),
        # A clamp value above int8's range.
        pytest.param(SourceParams(PAPER_MEAN, 0.5), DetectorParams(0.9, 0.1, 0.4),
                     DetectorParams(0.8, 0.2, 0.3), 200, id="int8-n_max-200"),
        # p = 1/3: numpy's search branch of the geometric.
        pytest.param(SourceParams(2.0, 0.5), PAPER_DET_H, PAPER_DET_V, 10, id="mean2"),
        pytest.param(SourceParams(PAPER_MEAN, 0.5), DetectorParams(0.5, 0.1, 0.49),
                     DetectorParams(0.5, 0.2, 0.49), 14, id="p0.5-crosstalk0.49"),
        # Loss counts with n p > 30 take numpy's own binomial.
        pytest.param(SourceParams(400.0, 0.5), DetectorParams(0.5, 0.1, 0.1),
                     DetectorParams(0.5, 0.2, 0.1), 300, id="mean400-np-above-30"),
        # The largest dark mean of the lockstep Poisson, the smallest of
        # numpy's, and a mode without darks.
        pytest.param(SourceParams(PAPER_MEAN, 0.5), DetectorParams(0.5, _LOCKSTEP_MAX_DARK, 0.1),
                     DetectorParams(0.6, _LOCKSTEP_MAX_DARK, 0.2), 14, id="darks-at-cap"),
        pytest.param(SourceParams(PAPER_MEAN, 0.5),
                     DetectorParams(0.5, math.nextafter(_LOCKSTEP_MAX_DARK, math.inf), 0.1),
                     DetectorParams(0.6, math.nextafter(_LOCKSTEP_MAX_DARK, math.inf), 0.2),
                     14, id="darks-above-cap"),
        pytest.param(SourceParams(PAPER_MEAN, 0.5), PAPER_DET_H,
                     DetectorParams(0.010, 0.0, 0.11), 12, id="one-mode-dark0"),
    ])
    def test_equals_reference_at_edge_parameters(self, source, det_h, det_v, n_max):
        shots = 2 * _BLOCK_SHOTS + 17
        config = SimConfig(source, det_h, det_v, shots, 5, n_max)
        counts, overflow = _simulate_chunk(config, 0, shots)
        ref_counts, ref_overflow = _reference_chunk(config, 0, shots)
        assert np.array_equal(counts, ref_counts)
        assert overflow == ref_overflow

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        mean=st.floats(0.0, 50.0),
        g=st.floats(0.0, 1.0),
        efficiency=st.tuples(*[st.floats(0.0, 1.0, exclude_min=True)] * 2),
        dark=st.tuples(*[st.floats(0.0, 2.0)] * 2),
        crosstalk=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 2),
        n_max=st.integers(0, 20),
        shots=st.integers(1, 2 * _BLOCK_SHOTS + 3),
        seed=st.integers(0, 2 ** 32),
        index=st.integers(0, 3),
    )
    def test_random_stream_equals_reference(self, mean, g, efficiency, dark, crosstalk,
                                            n_max, shots, seed, index):
        # The stream contract: block-wise draws into int8, int16 or int32
        # buffers (means above 5 take int16, above 15 int32) give the
        # histogram of whole-chunk int64 draws, bit for bit.
        det_h, det_v = (DetectorParams(*p) for p in zip(efficiency, dark, crosstalk))
        config = SimConfig(SourceParams(mean, g), det_h, det_v, shots, seed, n_max)
        counts, overflow = _simulate_chunk(config, index, shots)
        ref_counts, ref_overflow = _reference_chunk(config, index, shots)
        assert np.array_equal(counts, ref_counts)
        assert overflow == ref_overflow

    @staticmethod
    def chunk_peak(mean):
        """The tracemalloc peak of one full chunk at source mean ``mean``."""
        config = SimConfig(SourceParams(mean, 0.5), PAPER_DET_H, PAPER_DET_V,
                           _CHUNK_SHOTS, 1, 12)
        tracemalloc.start()
        try:
            _simulate_chunk(config, 0, _CHUNK_SHOTS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_set_of_full_chunk(self):
        # About 2 bytes per shot: two int8 buffers, plus about 1.4 MiB of
        # block temporaries. This bound is what makes one worker per
        # available CPU safe.
        assert self.chunk_peak(PAPER_MEAN) <= 4.5 * 2 ** 20

    def test_working_set_of_full_int16_chunk(self):
        # A source mean above 5 takes two int16 buffers: about 4 bytes per shot.
        assert self.chunk_peak(15.0) <= 7 * 2 ** 20

    def test_working_set_of_full_int32_chunk(self):
        # A source mean above 15 takes two int32 buffers: about 8 bytes per shot.
        assert self.chunk_peak(16.0) <= 12 * 2 ** 20


def _int8_block(value, size=1000):
    return np.full(size, value, dtype=np.int8)


class TestOverflowChecks:
    """Every store that could leave a buffer's range is checked first: the
    check raises ``_CountOverflow`` (a ``RuntimeError``) and the block keeps
    no wrapped value. A chunk that overflows runs again one width up."""

    def test_thermal(self):
        block = _int8_block(0)
        with pytest.raises(_CountOverflow, match="int8"):
            _thermal_into(block, 200.0, np.random.default_rng(1))
        assert not block.any()

    @pytest.mark.parametrize("lam, uniforms, poisson_calls", [
        pytest.param(0.11, [], 0, id="lockstep"),
        pytest.param(0.5, [], 1, id="numpy"),
        # No uniform ends a draw: the margin is too short, and the block is
        # numpy's draw.
        pytest.param(0.11, [1.0 - 2.0 ** -53] * 4000, 1, id="short-margin"),
    ])
    def test_darks(self, lam, uniforms, poisson_calls):
        block = _int8_block(127)
        spy = _UniformsSetAt(np.random.default_rng(2), 0, uniforms)
        with pytest.raises(_CountOverflow, match="int8"):
            _poisson_add(block, lam, spy)
        assert spy.poisson_calls == poisson_calls
        assert (block == 127).all()

    @pytest.mark.parametrize("count, p, inverted", [
        pytest.param(100, 0.49, False, id="numpy"),
        pytest.param(120, 0.25, True, id="inversion"),
    ])
    def test_crosstalk(self, count, p, inverted):
        block = _int8_block(count)
        assert (_binomial_inversion(block, p, np.random.default_rng(3)) is not None) == inverted
        with pytest.raises(_CountOverflow, match="int8"):
            _binomial_into(block, p, np.random.default_rng(3), add=True)
        assert (block == count).all()

    def test_loss_cannot_overflow(self):
        block = _int8_block(127)
        _binomial_into(block, 0.5, np.random.default_rng(4), add=False)
        assert 0 <= block.min() and block.max() <= 127

    @pytest.mark.parametrize("draw", [
        pytest.param(lambda m: _poisson_add(m, 0.11, np.random.default_rng(5)), id="darks"),
        pytest.param(lambda m: _binomial_into(m, 0.49, np.random.default_rng(5), add=True),
                     id="crosstalk"),
    ])
    def test_int32_raises(self, draw):
        block = np.full(1000, 2 ** 31 - 1, dtype=np.int32)
        with pytest.raises(RuntimeError, match="int32"):
            draw(block)
        assert (block == 2 ** 31 - 1).all()

    @pytest.mark.parametrize("dtype, mean", [(np.int8, 30.0), (np.int16, 2.0 ** 20)])
    def test_overflowing_chunk_runs_one_width_up(self, monkeypatch, dtype, mean):
        shots = 2 * _BLOCK_SHOTS + 17
        config = SimConfig(SourceParams(mean, 0.5), PAPER_DET_H, PAPER_DET_V, shots, 5, 12)
        with pytest.raises(_CountOverflow):
            _chunk_at_width(config, 0, shots, dtype)
        monkeypatch.setattr(montecarlo, "_count_dtype", lambda config: dtype)
        counts, overflow = _simulate_chunk(config, 0, shots)
        ref_counts, ref_overflow = _reference_chunk(config, 0, shots)
        assert np.array_equal(counts, ref_counts)
        assert overflow == ref_overflow

    def test_widths_tried_in_order_then_raise(self, monkeypatch):
        tried = []

        def overflow(config, index, shots, dtype):
            tried.append(dtype)
            raise _CountOverflow("does not fit")

        monkeypatch.setattr(montecarlo, "_chunk_at_width", overflow)
        config = SimConfig(SourceParams(1.0, 0.5), PAPER_DET_H, PAPER_DET_V, 10, 5, 12)
        with pytest.raises(RuntimeError, match="does not fit"):
            _simulate_chunk(config, 0, 10)
        assert tried == [np.int8, np.int16, np.int32]


class TestCountWidth:
    # A chunk starts in int8 when the source mean and both dark means are at
    # most 5, in int16 up to 15, and in int32 above.
    @staticmethod
    def config(key, value):
        means = {"mean": 1.0, "dark_h": 0.1, "dark_v": 0.1, key: value}
        return SimConfig(SourceParams(means["mean"], 0.5),
                         DetectorParams(0.5, means["dark_h"], 0.1),
                         DetectorParams(0.5, means["dark_v"], 0.1), 100, 1, 12)

    @pytest.mark.parametrize("key", ["mean", "dark_h", "dark_v"])
    def test_five_is_the_int8_limit(self, key):
        assert _count_dtype(self.config(key, 5.0)) is np.int8
        assert _count_dtype(self.config(key, math.nextafter(5.0, math.inf))) is np.int16

    @pytest.mark.parametrize("key", ["mean", "dark_h", "dark_v"])
    def test_fifteen_is_the_int16_limit(self, key):
        assert _count_dtype(self.config(key, 15.0)) is np.int16
        assert _count_dtype(self.config(key, math.nextafter(15.0, math.inf))) is np.int32


class TestInt32Limit:
    # Means up to 2**20 keep every photon number and count inside int32.
    def config(self, mean=1.0, dark_h=0.1, dark_v=0.1, n_max=12):
        return SimConfig(SourceParams(mean, 0.5), DetectorParams(0.5, dark_h, 0.0),
                         DetectorParams(0.5, dark_v, 0.0), 100, 1, n_max)

    def test_limit_accepted(self):
        config = self.config(mean=2 ** 20, dark_h=2 ** 20, dark_v=2 ** 20)
        assert config.source.mean_photons == 2 ** 20

    @pytest.mark.parametrize("key, overrides", [
        ("mean_photons", dict(mean=2 ** 20 + 1)),
        ("det_h.dark_mean", dict(dark_h=2 ** 20 + 1)),
        ("det_v.dark_mean", dict(dark_v=2 ** 20 + 1)),
    ])
    def test_above_limit_rejected_by_name(self, key, overrides):
        with pytest.raises(ValueError, match=key):
            self.config(**overrides)

    def test_cell_index_bounds_n_max(self):
        assert self.config(n_max=46338).n_max == 46338
        with pytest.raises(ValueError, match="n_max"):
            self.config(n_max=46339)


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
        parallel = simulate(config, workers=4)
        assert np.array_equal(serial.counts, parallel.counts)
        assert serial.overflow == parallel.overflow

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            simulate(self.base_config(), workers=workers)

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


class _NeedsTwo(Exception):
    """Pickles, but does not unpickle: its constructor takes two arguments."""

    def __init__(self, first, second):
        super().__init__(first)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """``simulate``'s forked workers on three chunks: the caller runs chunk 0,
    and with ``workers=3`` one child each runs chunk 1 and chunk 2."""

    CONFIG = SimConfig(SourceParams(1.0, 0.5), PAPER_DET_H, PAPER_DET_V,
                       shots=2 * _CHUNK_SHOTS + 5, seed=31, n_max=10)

    def patch_chunks(self, monkeypatch, actions):
        """Make chunk ``i`` run ``actions[i]`` (if any) before its real work.
        An action that would end the process raises in the caller instead."""
        caller, real = os.getpid(), _simulate_chunk

        def chunk(config, index, shots):
            if index in actions:
                assert os.getpid() != caller or index == 0, f"chunk {index} ran in the caller"
                actions[index]()
            return real(config, index, shots)

        monkeypatch.setattr(montecarlo, "_simulate_chunk", chunk)

    def test_child_exception_keeps_its_type(self, monkeypatch):
        def fail():
            raise KeyError("chunk 2 failed")

        self.patch_chunks(monkeypatch, {2: fail})
        with pytest.raises(KeyError, match="chunk 2 failed") as raised:
            simulate(self.CONFIG, workers=3)
        cause = raised.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "Traceback" in str(cause) and "in fail" in str(cause)
        _assert_no_child_left()

    @pytest.mark.parametrize("unpicklable", ["local", "needs_two"])
    def test_child_exception_that_does_not_pickle(self, monkeypatch, unpicklable):
        class Local(Exception):
            pass

        def fail():
            raise Local("chunk 1 failed") if unpicklable == "local" else _NeedsTwo("chunk 1 failed", 0)

        self.patch_chunks(monkeypatch, {1: fail})
        with pytest.raises(RuntimeError, match="worker process") as raised:
            simulate(self.CONFIG, workers=3)
        assert "Traceback" in str(raised.value) and "chunk 1 failed" in str(raised.value)
        _assert_no_child_left()

    @pytest.mark.parametrize("die, status", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(3), "exited with status 3"),
    ], ids=["signal", "exit"])
    def test_child_that_dies_raises_its_status(self, monkeypatch, die, status):
        self.patch_chunks(monkeypatch, {2: die})
        with pytest.raises(RuntimeError, match=status):
            simulate(self.CONFIG, workers=3)
        _assert_no_child_left()

    def test_caller_failure_kills_the_children(self, monkeypatch):
        def fail():
            raise ValueError("chunk 0 failed")

        def hang():
            time.sleep(60)

        self.patch_chunks(monkeypatch, {0: fail, 1: hang, 2: hang})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="chunk 0 failed"):
            simulate(self.CONFIG, workers=3)
        assert time.perf_counter() - start < 30
        _assert_no_child_left()

    def test_without_fork_runs_serially(self, monkeypatch):
        serial = counts_to_text(simulate(self.CONFIG, workers=1))
        monkeypatch.delattr(os, "fork")
        assert counts_to_text(simulate(self.CONFIG)) == serial
        assert counts_to_text(simulate(self.CONFIG, workers=4)) == serial


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
