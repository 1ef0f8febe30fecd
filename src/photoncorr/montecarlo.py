"""Event-level simulation of the source and detectors.

This module is the brute-force counterpart of the transfer-matrix
channel: each pulse draws a photon-number pair from the source mixture
and pushes each mode through loss, dark counts, and crosstalk as actual
random events. It serves both as the generator of synthetic raw data and
as an independent oracle for the analytic forward model.

Reproducibility contract: a ``SimConfig`` (including its seed) fully
determines the output. Shots are split into fixed-size chunks, each with
an RNG stream derived from ``(seed, chunk_index)``; the merged histogram
is identical whether chunks run serially or on any number of worker
processes, and with or without ``os.fork``. A histogram is returned only
when every chunk ran: a worker that raises, exits non-zero or dies by a
signal makes ``simulate`` raise.

Memory: inside a chunk every random draw is made in blocks of
``_BLOCK_SHOTS`` shots, one full pass over the blocks per kind of draw,
so the stream order is the one a single whole-chunk call would give.
numpy draws element by element, so the numbers are the same too. A chunk
holds only its two photon-number buffers, which keeps a worker per
available CPU cheap: the component choices and the marks of the shots
still waiting for a number live in those buffers until their own draws
replace them. The buffers are int16 (4 bytes per shot, about 4 MiB per
chunk) when the source mean and both dark means are at most 15, and
int32 (8 bytes per shot) otherwise; see ``_count_dtype``. The clamp, the
cell index and the histogram are made block by block in ``intp``, since
a cell index does not fit in int16 and one ``np.bincount`` of a whole
buffer would make an int64 copy of it.

Speed: numpy's geometric, binomial and Poisson samplers run a scalar
loop per element. Where they invert one variate per element, a block's
draws are made here as the same inversion on the whole block, written
into its buffer: thermal numbers at source means above 2 from standard
exponentials, and loss and crosstalk thinning at ``p <= 0.5`` with every
``count * p <= 30`` from uniforms. These consume exactly the variates
numpy's samplers would, in the same order, and compute each draw with
the same floating-point operations, so the stream and every histogram
are unchanged. At means up to 2, at ``p > 0.5``, at ``count * p > 30``,
and on the rare uniform that makes numpy's binomial draw again, the
block is drawn by numpy's own call, the last from the state saved at
the block's start. Dark counts at means up to ``_LOCKSTEP_MAX_DARK`` are
numpy's product method run in lockstep over the runs of uniforms that
do not end a draw; the uniforms are drawn with a margin, and a ``PCG64``
generator is then advanced past exactly the ones numpy uses. Other
means, other bit generators and a margin too short keep numpy's
Poisson. The tests pin each sampler to numpy's on numpy 2.4.6; an older
numpy was not tried.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, SourceParams
from .detector import DetectorParams

_CHUNK_SHOTS = 1 << 20
_BLOCK_SHOTS = 1 << 16
# Largest source mean and dark mean, so the int32 buffers never wrap. With
# means <= 2^20 a thermal number reaches 2^29 with probability about
# e^-512 (a Poisson dark count far less), and a detected count is at most
# 2 * (photons + darks), which then stays below 2^31.
_MAX_MEAN = float(1 << 20)
# Largest source mean and dark mean for int16 buffers. A thermal number of
# mean 15 reaches 2^13 with probability (15/16)^8192, about e^-529, below
# the e^-512 the int32 limit accepts per draw (a Poisson dark count of mean
# 15 far less), and a detected count then stays below 2 * 2^14 = 2^15.
_INT16_MAX_MEAN = 15.0
# Largest dark mean that ``_poisson_add`` draws by products in lockstep.
# Per 2^16-shot block the lockstep took 0.52-0.56 of the time of numpy's
# loop at 0.11, 0.81 at 0.3, 0.95-0.98 at 0.4 and 1.07 at 0.45 (a 2-core
# Xeon, numpy 2.4.6).
_LOCKSTEP_MAX_DARK = 0.4


def _check_mean(name: str, value: float) -> None:
    if value > _MAX_MEAN:
        raise ValueError(
            f"{name} must be <= 2**20 for the Monte Carlo's int32 counts, got {value}"
        )


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
    """Full configuration of one simulated acquisition.

    ``source.mean_photons`` and each detector's ``dark_mean`` are at most
    ``2**20``: the Monte Carlo holds photon numbers and counts as int32 at
    most (int16 when all three means are at most 15), and above that
    limit a count could wrap. The histogram's cell index, below
    ``(n_max + 2)**2``, bounds ``n_max`` by 46338.
    """

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
        if (self.n_max + 2) ** 2 > 2 ** 31:
            raise ValueError(f"n_max must be <= 46338 for int32 cell indices, got {self.n_max}")
        _check_mean("mean_photons", self.source.mean_photons)
        _check_mean("det_h.dark_mean", self.det_h.dark_mean)
        _check_mean("det_v.dark_mean", self.det_v.dark_mean)


def _thermal_into(out: np.ndarray, mean: float, rng: np.random.Generator) -> None:
    """Fill the integer block ``out`` with thermal numbers of mean ``mean``.

    The law is geometric on {0, 1, ...}: numpy's ``geometric(p) - 1`` with
    ``p = 1/(mean+1)``. For ``p < 1/3`` numpy inverts one standard
    exponential ``E`` per draw, ``ceil(-E / log1p(-p))``; the same
    inversion is made here on the whole block, from the same variates.
    Otherwise numpy's own call is kept.
    """
    if mean == 0.0:
        out[:] = 0
        return
    p = 1.0 / (mean + 1.0)
    if p >= 1.0 / 3.0:  # numpy's sequential search branch
        out[:] = rng.geometric(p, size=out.size) - 1
        return
    draws = rng.standard_exponential(out.size)
    draws /= -math.log1p(-p)  # libm's log1p, as numpy's sampler calls it
    np.ceil(draws, out=draws)
    np.subtract(draws, 1.0, out=out, casting="unsafe")


def _binomial_into(m: np.ndarray, p: float, rng: np.random.Generator, add: bool) -> None:
    """Draw ``Binomial(m, p)`` for the integer block ``m`` and store the draws in it.

    The draws replace ``m``, or with ``add`` are added to it. They are
    those of numpy's ``rng.binomial(m, p)``, whichever way they are made.
    """
    drawn = _binomial_inversion(m, p, rng)
    where, draws = drawn if drawn is not None else (slice(None), rng.binomial(m, p))
    if not add:
        m[:] = 0
    m[where] += draws


def _binomial_inversion(
    m: np.ndarray, p: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray] | None:
    """numpy's ``binomial(m, p)`` as the indices and values of its nonzero draws, or None.

    For ``0 < p <= 0.5`` and every ``m * p <= 30`` numpy's sampler inverts
    one uniform per nonzero count (BINV of Kachitvichyanukul & Schmeiser,
    Commun. ACM 31, 216 (1988)); a zero count draws nothing. The same
    recurrence runs here on all of them in lockstep, from the same
    uniforms. Outside that regime, or when a count reaches 2**16 (the
    table of ``(1-p)**m`` is indexed by count), None is returned and
    nothing is drawn. A uniform beyond the recurrence's bound makes numpy
    draw again for that count, which shifts every later draw; then the
    generator is put back to its state on entry and None is returned.
    """
    top = int(m.max(initial=0))
    if not (0.0 < p <= 0.5 and top * p <= 30.0 and top < _BLOCK_SHOTS):
        return None
    state = rng.bit_generator.state
    nonzero = np.flatnonzero(m != 0)  # a bool scan: faster than one of the integers
    n = m[nonzero]
    q = 1.0 - p
    log_q = math.log(q)
    # exp and log of libm, as numpy's sampler calls them. One count of the
    # loop costs about as much as 64 elements of the bincount that finds the
    # distinct counts, so the loop runs over every count up to the largest
    # only while that is the cheaper.
    qn = np.zeros(top + 1)
    values = range(top + 1) if 64 * top < n.size else np.flatnonzero(np.bincount(n)).tolist()
    for v in values:
        qn[v] = math.exp(v * log_q)
    px = qn.take(n)
    u = rng.random(n.size)
    # The counts whose uniform passes the mass at 0: every draw above 0.
    running = np.flatnonzero(u > px)
    hits, draws = nonzero[running], np.zeros(running.size, dtype=np.int32)
    u, px, n = u[running], px[running], n[running]
    mean = n * p
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1.0)).astype(np.int64)
    running = np.arange(running.size)
    k = 0
    while running.size:
        k += 1
        if (bound < k).any():
            rng.bit_generator.state = state
            return None
        u -= px
        px = (n - (k - 1)) * p * px / (k * q)
        draws[running] = k
        more = u > px
        running, u, px, n, bound = running[more], u[more], px[more], n[more], bound[more]
    return hits, draws


def _poisson_add(m: np.ndarray, lam: float, rng: np.random.Generator) -> None:
    """Add numpy's ``rng.poisson(lam, size=m.size)`` to the integer block ``m``.

    Below a mean of 10 numpy multiplies uniforms until the product is at
    most ``exp(-lam)``, and the draw is the number of factors before that
    (Knuth, TAOCP vol. 2, 3.4.1). A uniform at or below ``exp(-lam)`` ends
    whatever draw it falls in. The other, big, uniforms come in short
    runs; products over the runs of two or more, in lockstep, find the
    draws that end inside a run. Every other big uniform adds 1 to its
    draw, whose index is the number of ends before it. The uniforms of a
    margin are drawn at once; then the generator is put back and advanced
    past exactly the ones numpy would use. That takes a ``PCG64`` that
    holds no half of a 32-bit draw, which ``advance`` would clear. At
    ``lam == 0`` or above ``_LOCKSTEP_MAX_DARK``, or when fewer than
    ``m.size`` draws end in the margin, numpy's own call is made.
    """
    bit_generator = rng.bit_generator
    n = m.size
    state = None
    if 0.0 < lam <= _LOCKSTEP_MAX_DARK and type(bit_generator) is np.random.PCG64:
        state = bit_generator.state
    if state is None or state["has_uint32"] or state["uinteger"]:
        m += rng.poisson(lam, size=n)
        return
    end = math.exp(-lam)  # libm's exp, as numpy's sampler calls it
    spread = n * lam
    size = n + math.ceil(spread + 12.0 * math.sqrt(spread + 1.0)) + 64
    u = rng.random(size)
    big = np.flatnonzero(u > end)
    # joined[k] is true where big uniform k directly follows big uniform k-1;
    # a draw starts on the first of each run of two or more.
    joined = np.zeros(big.size + 1, dtype=bool)
    np.equal(big[1:] - big[:-1], 1, out=joined[1:-1])
    k = np.flatnonzero(joined[1:] > joined[:-1])
    product = u[big[k]]
    inner = [k[:0]]
    while k.size:
        k += 1
        live = joined[k]
        k = k[live]
        product = product[live] * u[big[k]]
        ends = product <= end
        inner.append(k[ends])
        product[ends] = 1.0  # the next draw's product starts anew
    big = np.delete(big, np.concatenate(inner))
    bit_generator.state = state
    if size - big.size < n:
        m += rng.poisson(lam, size=n)
        return
    draw = big - np.arange(big.size)  # the number of ends before each
    draw = draw[:np.searchsorted(draw, n)]
    bit_generator.advance(n + draw.size)
    while draw.size:  # a draw of j is j equal indices
        m[draw] += 1
        draw = draw[1:][draw[1:] == draw[:-1]]


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
    then all of mode v's. Returns two int32 arrays whatever the mean (the
    Monte Carlo's own chunks take int16 where ``_count_dtype`` allows);
    the source mean must be at most ``2**20`` so that they cannot wrap.
    """
    _check_mean("mean_photons", source.mean_photons)
    n_h = np.empty(size, dtype=np.int32)
    n_v = np.empty(size, dtype=np.int32)
    _sample_pair_into(n_h, n_v, source, rng)
    return n_h, n_v


def _sample_pair_into(
    n_h: np.ndarray, n_v: np.ndarray, source: SourceParams, rng: np.random.Generator
) -> None:
    """``sample_pair``'s draws, written into the signed integer buffers ``n_h`` and ``n_v``.

    Each buffer holds other draws until its own replace them: ``n_h`` the
    component choices (1 for correlated), ``n_v`` the shared numbers, and
    then -1 where a shot still waits for mode v's own number. The merges
    are arithmetic on 0/1 factors, which makes the same numbers as a
    masked copy without its branch per element.
    """
    mean = source.mean_photons
    for b, n in _blocks(n_h.size):
        np.less(rng.random(n), source.correlation, out=n_h[b])
    for b, _ in _blocks(n_v.size):
        _thermal_into(n_v[b], mean, rng)
    for b, _ in _blocks(n_h.size):
        correlated = n_h[b] == 1
        _thermal_into(n_h[b], mean, rng)
        # Correlated shots take the shared number in n_h and keep it in n_v;
        # the others are marked -1 in n_v.
        n_h[b] += correlated * (n_v[b] - n_h[b])
        n_v[b] += 1
        n_v[b] *= correlated
        n_v[b] -= 1
    own = np.empty(min(n_v.size, _BLOCK_SHOTS), dtype=n_v.dtype)
    for b, n in _blocks(n_v.size):
        _thermal_into(own[:n], mean, rng)
        n_v[b] += (n_v[b] < 0) * (own[:n] + 1)


def _detect_in_place(m: np.ndarray, params: DetectorParams, rng: np.random.Generator) -> None:
    """Overwrite the 1-D integer buffer ``m`` of photon numbers with detected counts.

    Loss, then darks, then crosstalk, each one full pass over the blocks.
    """
    for b, _ in _blocks(m.size):
        _binomial_into(m[b], params.efficiency, rng, add=False)
    for b, _ in _blocks(m.size):
        _poisson_add(m[b], params.dark_mean, rng)
    for b, _ in _blocks(m.size):
        _binomial_into(m[b], params.crosstalk, rng, add=True)


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


def _count_dtype(config: SimConfig) -> type:
    """The integer type of a chunk's buffers: int16 if every mean of ``config``
    is at most ``_INT16_MAX_MEAN``, else int32."""
    means = (config.source.mean_photons, config.det_h.dark_mean, config.det_v.dark_mean)
    return np.int16 if max(means) <= _INT16_MAX_MEAN else np.int32


def _simulate_chunk(config: SimConfig, index: int, shots: int) -> tuple[np.ndarray, int]:
    rng = _stream_rng(config.seed, index)
    dtype = _count_dtype(config)
    m_h, m_v = np.empty(shots, dtype=dtype), np.empty(shots, dtype=dtype)
    _sample_pair_into(m_h, m_v, config.source, rng)
    _detect_in_place(m_h, config.det_h, rng)
    _detect_in_place(m_v, config.det_v, rng)
    # Clamp into one overflow row/column, so every pair lands in a cell of
    # a (n_max+2)^2 grid whose top-left (n_max+1)^2 block is the histogram.
    # The cell index is made per block in intp, since in int16 it could
    # wrap; its buffers are reused, as fresh ones cost a page fault a page.
    side = config.n_max + 2
    flat = np.zeros(side * side, dtype=np.int64)
    cell, column = np.empty((2, min(shots, _BLOCK_SHOTS)), dtype=np.intp)
    for b, n in _blocks(shots):
        np.minimum(m_h[b], side - 1, out=cell[:n], dtype=np.intp)
        cell[:n] *= side
        np.minimum(m_v[b], side - 1, out=column[:n], dtype=np.intp)
        cell[:n] += column[:n]
        flat += np.bincount(cell[:n], minlength=side * side)
    counts = flat.reshape(side, side)[:-1, :-1]
    return counts, shots - int(counts.sum())


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity exists on Linux only
        return os.cpu_count() or 1


def _run_chunks(config: SimConfig, chunks: list[tuple[int, int]]) -> tuple[np.ndarray, int]:
    """The summed ``(counts, overflow)`` of the ``(index, shots)`` chunks."""
    dim = config.n_max + 1
    counts = np.zeros((dim, dim), dtype=np.int64)
    overflow = 0
    for index, shots in chunks:
        chunk_counts, chunk_overflow = _simulate_chunk(config, index, shots)
        counts += chunk_counts
        overflow += chunk_overflow
    return counts, overflow


def _fork_worker(config: SimConfig, chunks: list[tuple[int, int]]):
    """Run ``chunks`` in a forked child; return its pid and the pipe it reports on.

    The child pickles ``(result, None, None)``, or ``(None, error, trace)``
    with the pickled exception (None if it does not pickle) and its
    traceback text, and exits 0 only once that report is written. It leaves
    by ``os._exit`` whatever happens, so it never returns into the caller.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                try:
                    report = (_run_chunks(config, chunks), None, None)
                except BaseException as error:
                    trace = traceback.format_exc()
                    try:
                        report = (None, pickle.dumps(error), trace)
                    except Exception:
                        report = (None, None, trace)
                pickle.dump(report, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _worker_result(pid: int, status: int, report: bytes) -> tuple[np.ndarray, int]:
    """A worker's ``(counts, overflow)`` from its wait status and report, or raise."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RuntimeError(f"Monte Carlo worker process {pid} was killed by signal {-code}")
    if code != 0:
        raise RuntimeError(f"Monte Carlo worker process {pid} exited with status {code}")
    result, error, trace = pickle.loads(report)
    if trace is None:
        return result
    context = RuntimeError(f"in Monte Carlo worker process {pid}:\n{trace}")
    try:
        error = pickle.loads(error)
    except Exception:
        raise context from None
    raise error from context


def simulate(config: SimConfig, workers: int | None = None) -> CountsMatrix:
    """Run a full acquisition and histogram the detected pairs.

    Chunks run in ``workers`` processes, by default one per CPU available
    to the process, and never more than there are chunks. With ``p``
    processes the caller runs chunks ``0, p, 2p, ...`` and forked child
    ``w`` the chunks ``w, w + p, ...``. Where ``os.fork`` does not exist
    the caller runs every chunk. The chunked execution plan is a pure
    function of the config, so the result is byte-identical for any
    ``workers`` value. An exception in a child's chunk is raised here, as
    a ``RuntimeError`` carrying the child's traceback if it does not
    pickle; a child that exits non-zero or dies by a signal raises a
    ``RuntimeError`` naming its status. Whatever raises, every child
    still running is killed and reaped first. Python 3.12 and later warn
    on ``fork`` while other threads exist (OpenBLAS's pool, say); the
    child runs only numpy's random generators and ufuncs and leaves by
    ``os._exit``, so no lock another thread held is ever taken in it.
    """
    if workers is None:
        workers = _available_cpus()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    plan = []
    remaining, index = config.shots, 0
    while remaining > 0:
        step = min(remaining, _CHUNK_SHOTS)
        plan.append((index, step))
        remaining -= step
        index += 1
    processes = min(workers, len(plan)) if hasattr(os, "fork") else 1
    children = {}  # pid -> the pipe its report comes on, until it is reaped
    try:
        for offset in range(1, processes):
            pid, pipe = _fork_worker(config, plan[offset::processes])
            children[pid] = pipe
        counts, overflow = _run_chunks(config, plan[::processes])
        for pid in list(children):
            with children[pid] as pipe:
                report = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            child_counts, child_overflow = _worker_result(pid, status, report)
            counts += child_counts
            overflow += child_overflow
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
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
