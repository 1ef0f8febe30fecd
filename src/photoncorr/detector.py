"""Photon-number-resolving detector forward model.

The detection chain maps a true photon number to a measured count in
three stages, applied in this order:

1. loss - each photon survives independently with probability
   ``efficiency`` (binomial thinning);
2. dark counts - a Poisson number of spurious counts with mean
   ``dark_mean`` is added;
3. crosstalk - every fired cell (photon-induced or dark) independently
   triggers at most one extra neighboring cell with probability
   ``crosstalk``.

Each stage is a transfer matrix ``P(measured m | true n)``, a plain
``(n_out+1, n_in+1)`` array indexed ``[m, n]``; the composed channel for
one mode is their product, and this module is the only place that chain
is built. A column holds only the mass that lands in the output range:
counts beyond it are dropped, never clamped into the top bin, so the
column falls short of 1 by exactly its overflow.

The kernels are evaluated in closed form from cached read-only tables,
one per law, so the module needs only numpy: the Poisson kernel from a
table of log-factorials per dimension, and the two binomial-thinning
kernels, loss and crosstalk, from one table of exact binomial
coefficients per dimension, times powers of the thinning probability
and of its complement (``loss_matrix``). Crosstalk is loss at
efficiency ``crosstalk``, shifted down by the fired cells.

The fit builds no loss matrix: loss maps a thermal mode, and the twin
thermal source, to closed forms (see ``inference``), so it needs only
the after-loss part, which ``_after_loss_pass`` builds for both modes in
one pass over a leading mode axis, from the same closed forms, with the
marginals and the derivatives a fit's Jacobian needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import JointDistribution


@dataclass(frozen=True)
class DetectorParams:
    """Per-mode detector imperfections: efficiency, dark counts, crosstalk."""

    efficiency: float
    dark_mean: float
    crosstalk: float

    def __post_init__(self):
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not (0.0 <= self.dark_mean < math.inf):
            raise ValueError(f"dark_mean must be finite and >= 0, got {self.dark_mean}")
        if not (0.0 <= self.crosstalk < 1.0):
            raise ValueError(f"crosstalk must be in [0, 1), got {self.crosstalk}")

    @classmethod
    def ideal(cls) -> "DetectorParams":
        return cls(efficiency=1.0, dark_mean=0.0, crosstalk=0.0)


@lru_cache(maxsize=32)
def _log_factorial(dim: int) -> np.ndarray:
    """``log k!`` for ``k = 0 .. dim-1``; read-only, shared by every caller."""
    table = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def _binom_table(dim: int) -> np.ndarray:
    """Exact ``C(n, m)`` at ``[m, n]`` for ``0 <= m, n < dim``, 0 where ``m > n``; read-only."""
    table = np.array([[float(math.comb(n, m)) for n in range(dim)] for m in range(dim)])
    table.setflags(write=False)
    return table


def loss_matrix(efficiency: float, n: int) -> np.ndarray:
    """Binomial-thinning loss channel on photon numbers ``0 .. n``.

    ``entry[m, k] = C(k, m) eta^m (1-eta)^(k-m)`` for m <= k, an
    ``(n+1, n+1)`` matrix, built as ``keep[:, None] * lose`` with
    ``keep[m] = eta^m`` and ``lose[m, k] = C(k, m) (1-eta)^(k-m)``: the
    exact binomial table times a Toeplitz matrix in ``k - m``, read as a
    strided view of one padded vector of the powers of ``1-eta``, so the
    matrix costs ``2n + 1`` exps. Every factor but ``C`` is at most 1, so
    nothing overflows, even where ``1-eta`` is tiny. Loss never raises
    the count, so every column sums to 1, and efficiency 1 gives the
    exact identity.
    """
    if not (0.0 < efficiency <= 1.0):
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    # Scalar logs, as in the closed form (numpy's can differ in the last
    # bit). At efficiency 1 every power of 1-eta past the 0th is exp(-inf) = 0.
    log_lose = math.log1p(-efficiency) if efficiency < 1.0 else -math.inf
    keep = np.exp(np.arange(n + 1) * math.log(efficiency))
    # n zeros, then (1-eta)^j for j = 0 .. n. Row m of the view starts m
    # places before the 0th power.
    powers = np.zeros(2 * n + 1)
    powers[n] = 1.0
    powers[n + 1 :] = np.exp(np.arange(1, n + 1) * log_lose)
    step = powers.itemsize
    toeplitz = np.lib.stride_tricks.as_strided(powers[n:], (n + 1, n + 1), (-step, step))
    return keep[:, None] * (_binom_table(n + 1) * toeplitz)


def _poisson_pmf(mean: float, k_max: int) -> np.ndarray:
    """Poisson pmf at ``0 .. k_max``: ``exp(k log mean - mean - log k!)``.

    Mean 0 is the point mass at 0.
    """
    if mean == 0.0:
        return (np.arange(k_max + 1) == 0).astype(float)
    k = np.arange(k_max + 1)
    return np.exp(k * math.log(mean) - mean - _log_factorial(k_max + 1))


def dark_matrix(dark_mean: float, n_in: int, n_out: int | None = None) -> np.ndarray:
    """Additive Poisson dark-count channel.

    ``entry[m, n] = Poisson(dark_mean).pmf(m - n)`` for m >= n.
    """
    if not (0.0 <= dark_mean < math.inf):
        raise ValueError(f"dark_mean must be finite and >= 0, got {dark_mean}")
    if n_out is None:
        n_out = n_in
    pmf = _poisson_pmf(dark_mean, n_out)
    k = np.arange(n_out + 1)[:, None] - np.arange(n_in + 1)
    return np.where(k >= 0, pmf[np.maximum(k, 0)], 0.0)


def crosstalk_matrix(crosstalk: float, n_in: int, n_out: int | None = None) -> np.ndarray:
    """One-generation optical crosstalk channel.

    Each of the ``n`` fired cells independently adds one extra count with
    probability ``eps``, so the number of extras is Binomial(n, eps):
    ``entry[m, n] = C(n, m-n) eps^(m-n) (1-eps)^(2n-m)`` for n <= m <= 2n.
    The extras are the survivors of thinning the fired cells at ``eps``,
    so the matrix is the loss kernel shifted down by the fired cells:
    ``entry[n+k, n] = loss_matrix(eps, N)[k, n]``, with ``N = max(n_in,
    n_out)``. The size is fixed because numpy's ``exp`` of an array can
    differ in the last bit with the array's length.
    """
    if not (0.0 <= crosstalk < 1.0):
        raise ValueError(f"crosstalk must be in [0, 1), got {crosstalk}")
    if n_out is None:
        n_out = n_in
    n = np.arange(n_in + 1)
    k = np.arange(n_out + 1)[:, None] - n
    if crosstalk == 0.0:
        return np.where(k == 0, 1.0, 0.0)
    thinned = loss_matrix(crosstalk, max(n_in, n_out))
    return np.where(k >= 0, thinned[np.maximum(k, 0), n], 0.0)


def after_loss_channel(
    dark_mean: float, crosstalk: float, n_in: int, n_out: int | None = None
) -> np.ndarray:
    """The part of the channel after loss: crosstalk . dark.

    Dark counts are added to the surviving photons and crosstalk acts on
    every fired cell, dark ones included. The intermediate stage is
    truncated at ``n_out``, which is exact for all retained rows because
    dark counts and crosstalk never reduce the count: a short ``n_out``
    gives the top rows of a longer one. For the same reason its columns
    beyond ``n_out`` are exactly zero, so only the top ``n_out+1`` rows of
    the loss matrix before it are ever read. It does not depend on the
    efficiency, so a fit that varies only the efficiency builds it once.
    """
    if n_out is None:
        n_out = n_in
    return crosstalk_matrix(crosstalk, n_out, n_out) @ dark_matrix(dark_mean, n_in, n_out)


# Log 0 in a closed form's powers: 0 times it is 0, and every later power
# is exp of under -1e300, so 0, where log 0 would form 0 * inf.
_LOG_ZERO = -1e300


@lru_cache(maxsize=32)
def _chain_tables(n: int) -> tuple[np.ndarray, ...]:
    """``_after_loss_pass``'s read-only tables: ``k = 0 .. n+1``, ``log k!``
    (``inf`` at ``n + 1``), and at ``[m, c]`` the counts ``m - c`` added to
    ``c`` fired cells (``n + 1`` where ``m < c``), the cells ``2c - m`` that
    add none (clipped into ``0 .. n``), and ``C(c, m - c)``."""
    m, c = np.ogrid[: n + 1, : n + 1]
    added = np.where(m >= c, m - c, n + 1)
    tables = (np.arange(n + 2), np.append(_log_factorial(n + 1), np.inf), added,
              np.clip(2 * c - m, 0, n), _binom_table(n + 2)[added, c])
    for table in tables:
        table.setflags(write=False)
    return tables


def _after_loss_pass(
    detected: np.ndarray, dark: np.ndarray, xtalk: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detected thermal marginals on ``0 .. n``, one per mode along a leading axis.

    Mode ``i`` is a thermal ``t`` of mean ``detected[i] > 0`` (the loss
    absorbed), then dark counts of mean ``dark[i]`` and crosstalk
    ``xtalk[i]``. Returns the after-loss channels ``C = X D`` on ``0 .. n``,
    ``(modes, n+1, n+1)``; the marginals ``C t``, ``(modes, n+1)``; and
    their derivatives in ``(detected, dark, xtalk)``, ``(modes, n+1, 3)``.
    ``D`` and ``X`` are ``dark_matrix``'s and ``crosstalk_matrix``'s closed
    forms, with their scalar logs, for all modes at once. ``t`` has
    derivative ``t_k (k/d - (k+1)/(1+d))``; the Poisson pmf's in its mean is
    ``p(k-1) - p(k)``, so ``D' t`` is ``D t`` one row down less itself; and
    Binomial(c, eps) at ``m - c`` has ``X'[m, c] = c (X[m-2, c-1] -
    X[m-1, c-1])``. Row ``m`` of each reads rows up to ``m`` only, so all are
    exact under the truncation at ``n``, as ``C`` is.
    """
    # Scalar logs, as in the closed forms: numpy's can differ in the last
    # bit, and the powers multiply that by up to n.
    d, dark, ratio, log1p_d, log_dark, log_eps, log_lose = np.array([
        (v, m, math.log(v) - math.log1p(v), math.log1p(v), math.log(m) if m > 0.0 else _LOG_ZERO,
         math.log(e) if e > 0.0 else _LOG_ZERO, math.log1p(-e))
        for v, m, e in zip(detected, dark, xtalk)
    ]).T[..., None]
    k, log_factorial, added, kept, binom = _chain_tables(n)
    t = np.exp(k[:-1] * ratio - log1p_d)
    dt = t * (k[:-1] / d - k[1:] / (1.0 + d))
    dark_k = np.exp(k * log_dark - dark - log_factorial).take(added, axis=1)
    lose = np.exp(k[:-1] * log_lose).take(kept, axis=1)
    xtalk_k = np.exp(k * log_eps).take(added, axis=1) * (binom * lose)
    channel = xtalk_k @ dark_k
    marginal, d_detected = ((channel @ u[..., None])[..., 0] for u in (t, dt))
    # D' t, and the fired cells' count times D t one row up, which X' reads.
    y = (dark_k @ t[..., None])[..., 0]
    v = np.zeros((len(t), n + 1, 2))
    v[:, 1:, 0], v[:, :-1, 1] = y[:, :-1], k[1:-1] * y[:, 1:]
    v[..., 0] -= y
    w = xtalk_k @ v
    jac = np.zeros((len(t), n + 1, 3))
    jac[..., 0], jac[..., 1], jac[:, 2:, 2] = d_detected, w[..., 0], w[:, :-2, 1]
    jac[:, 1:, 2] -= w[:, :-1, 1]
    return channel, marginal, jac


def compose_channel(params: DetectorParams, n_in: int, n_out: int | None = None) -> np.ndarray:
    """Full single-mode channel: ``after_loss_channel`` . loss.

    Loss acts first on the incident photons, then dark counts and
    crosstalk (see ``after_loss_channel``). A short ``n_out`` drops the
    bottom rows of the channel and nothing else.
    """
    after_loss = after_loss_channel(params.dark_mean, params.crosstalk, n_in, n_out)
    return after_loss @ loss_matrix(params.efficiency, n_in)


def apply_two_mode(
    joint: JointDistribution,
    params_h: DetectorParams,
    params_v: DetectorParams,
    n_out: int | None = None,
) -> JointDistribution:
    """Push a two-mode distribution through two independent detectors.

    The two modes hit separate detectors, so the joint channel factorizes
    and the measured matrix is ``C_h @ P @ C_v.T`` - the Kronecker matrix
    of the vectorized form is never materialized. Input tail mass and
    channel overflow both end up in the output ``tail_mass``.
    """
    if n_out is None:
        n_out = joint.n_max
    ch = compose_channel(params_h, joint.n_max, n_out)
    cv = compose_channel(params_v, joint.n_max, n_out)
    measured = ch @ joint.probs @ cv.T
    tail = 1.0 - float(measured.sum())
    return JointDistribution(n_max=n_out, probs=measured, tail_mass=max(tail, 0.0))
