"""Event-level simulation of the source and detectors.

This module is the brute-force counterpart of the transfer-matrix
channel: each pulse draws a photon-number pair from the source mixture
and pushes each mode through loss, dark counts, and crosstalk as actual
random events. It serves both as the generator of synthetic raw data and
as an independent oracle for the analytic forward model.

Reproducibility contract: a ``SimConfig`` (including its seed) fully
determines the output. Shots are split into fixed-size chunks, each with
an RNG stream derived from ``(seed, chunk_index)``; the merged histogram
is identical whether chunks run serially or on any number of workers.

Memory: inside a chunk every random draw is made in blocks of
``_BLOCK_SHOTS`` shots, one full pass over the blocks per kind of draw,
so the stream order is the one a single whole-chunk call would give.
numpy draws element by element, so the numbers are the same too. A chunk
holds only two int64 photon-number buffers and one bool mask, about 17
bytes per shot, which keeps a worker per available CPU cheap.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, SourceParams
from .detector import DetectorParams

_CHUNK_SHOTS = 1 << 20
_BLOCK_SHOTS = 1 << 16


@dataclass(frozen=True, eq=False)
class CountsMatrix:
    """Raw event counts per (n_h, n_v) cell from a counting acquisition.

    ``overflow`` counts the events whose detected number exceeded
    ``n_max`` in either mode; ``counts.sum() + overflow == shots``.
    """

    n_max: int
    counts: np.ndarray
    shots: int
    overflow: int = 0

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        dim = self.n_max + 1
        if counts.shape != (dim, dim):
            raise ValueError(f"counts must have shape ({dim}, {dim}), got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if int(counts.sum()) + self.overflow != self.shots:
            raise ValueError(
                f"counts ({int(counts.sum())}) + overflow ({self.overflow}) "
                f"!= shots ({self.shots})"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulated acquisition."""

    source: SourceParams
    det_h: DetectorParams
    det_v: DetectorParams
    shots: int
    seed: int
    n_max: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")


def _thermal_draw(mean: float, rng: np.random.Generator, size: int) -> np.ndarray:
    # Geometric law on {0, 1, ...}; numpy's geometric counts trials from 1.
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    return rng.geometric(1.0 / (mean + 1.0), size=size) - 1


def _blocks(size: int):
    """``(slice, length)`` of consecutive blocks of at most ``_BLOCK_SHOTS`` in ``range(size)``."""
    for start in range(0, size, _BLOCK_SHOTS):
        stop = min(start + _BLOCK_SHOTS, size)
        yield slice(start, stop), stop - start


def sample_pair(
    source: SourceParams, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` photon-number pairs from the source mixture.

    With probability ``g`` the pulse comes from the correlated component
    (identical thermal numbers in both modes), otherwise the two modes
    are independent thermal draws. The draws come in this order: all
    component choices, all shared numbers, all of mode h's own numbers,
    then all of mode v's.
    """
    mean = source.mean_photons
    correlated = np.empty(size, dtype=bool)
    n_h = np.empty(size, dtype=np.int64)
    n_v = np.empty(size, dtype=np.int64)
    for b, n in _blocks(size):
        correlated[b] = rng.random(n) < source.correlation
    # n_v holds the shared numbers until mode v's own draws replace them.
    for b, n in _blocks(size):
        n_v[b] = _thermal_draw(mean, rng, n)
    for b, n in _blocks(size):
        n_h[b] = np.where(correlated[b], n_v[b], _thermal_draw(mean, rng, n))
    for b, n in _blocks(size):
        n_v[b] = np.where(correlated[b], n_v[b], _thermal_draw(mean, rng, n))
    return n_h, n_v


def _detect_in_place(m: np.ndarray, params: DetectorParams, rng: np.random.Generator) -> None:
    """Overwrite the 1-D int64 buffer ``m`` of photon numbers with detected counts.

    Loss, then darks, then crosstalk, each one full pass over the blocks.
    """
    for b, _ in _blocks(m.size):
        m[b] = rng.binomial(m[b], params.efficiency)
    for b, n in _blocks(m.size):
        m[b] += rng.poisson(params.dark_mean, size=n)
    for b, _ in _blocks(m.size):
        m[b] += rng.binomial(m[b], params.crosstalk)


def detect_count(
    n: np.ndarray, params: DetectorParams, rng: np.random.Generator
) -> np.ndarray:
    """Push an array of true photon numbers through one detector, event by event.

    Survivors of binomial loss plus Poisson dark counts give the fired
    cells; each fired cell independently adds one extra count with the
    crosstalk probability. Returns a new array; ``n`` is left unchanged.
    """
    m = np.array(n, dtype=np.int64)
    _detect_in_place(m.reshape(-1), params, rng)  # a view: the copy is contiguous
    return m


def _stream_rng(seed: int, index: int) -> np.random.Generator:
    """Independent RNG stream ``index`` of ``seed`` (a Monte Carlo chunk, a resample)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _simulate_chunk(config: SimConfig, index: int, shots: int) -> tuple[np.ndarray, int]:
    rng = _stream_rng(config.seed, index)
    m_h, m_v = sample_pair(config.source, rng, size=shots)
    _detect_in_place(m_h, config.det_h, rng)
    _detect_in_place(m_v, config.det_v, rng)
    # Clamp into one overflow row/column, so every pair lands in a cell of
    # a (n_max+2)^2 grid whose top-left (n_max+1)^2 block is the histogram.
    side = config.n_max + 2
    np.minimum(m_h, side - 1, out=m_h)
    np.minimum(m_v, side - 1, out=m_v)
    m_h *= side
    m_h += m_v
    counts = np.bincount(m_h, minlength=side * side).reshape(side, side)[:-1, :-1]
    return counts, shots - int(counts.sum())


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity exists on Linux only
        return os.cpu_count() or 1


def simulate(config: SimConfig, workers: int | None = None) -> CountsMatrix:
    """Run a full acquisition and histogram the detected pairs.

    Chunks run on ``workers`` threads, by default one per CPU available
    to the process. The chunked execution plan is a pure function of the
    config, so the result is byte-identical for any ``workers`` value.
    """
    if workers is None:
        workers = _available_cpus()
    plan = []
    remaining, index = config.shots, 0
    while remaining > 0:
        step = min(remaining, _CHUNK_SHOTS)
        plan.append((index, step))
        remaining -= step
        index += 1
    if workers > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda p: _simulate_chunk(config, *p), plan))
    else:
        results = [_simulate_chunk(config, i, s) for i, s in plan]
    dim = config.n_max + 1
    counts = np.zeros((dim, dim), dtype=np.int64)
    overflow = 0
    for chunk_counts, chunk_overflow in results:
        counts += chunk_counts
        overflow += chunk_overflow
    return CountsMatrix(n_max=config.n_max, counts=counts, shots=config.shots, overflow=overflow)


def normalize(counts: CountsMatrix) -> JointDistribution:
    """Relative frequencies; overflow becomes the recorded tail mass."""
    return JointDistribution(
        n_max=counts.n_max,
        probs=counts.counts / counts.shots,
        tail_mass=counts.overflow / counts.shots,
    )


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two histograms of equal shape."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())
