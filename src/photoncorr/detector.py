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

Each stage is a column-stochastic transfer matrix on photon-number
distributions; the composed channel for one mode is their product, and
this module is the only place that chain is built. Counts pushed beyond
the output truncation are recorded per column, not clamped into the top
bin.

The binomial and Poisson kernels are evaluated in closed form from one
cached table of log-factorials per dimension, so the module needs only
numpy.
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
        if not (self.dark_mean >= 0.0):
            raise ValueError(f"dark_mean must be >= 0, got {self.dark_mean}")
        if not (0.0 <= self.crosstalk < 1.0):
            raise ValueError(f"crosstalk must be in [0, 1), got {self.crosstalk}")

    @classmethod
    def ideal(cls) -> "DetectorParams":
        return cls(efficiency=1.0, dark_mean=0.0, crosstalk=0.0)


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Column-stochastic transfer matrix P(measured m | true n).

    ``entries[m, n]`` maps input photon number ``n`` (column) to output
    count ``m`` (row). ``column_truncation[n]`` records the probability
    pushed beyond the output range for that column, so that
    ``entries[:, n].sum() + column_truncation[n] == 1``.
    """

    entries: np.ndarray
    column_truncation: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        trunc = np.array(self.column_truncation, dtype=float)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-d matrix")
        if trunc.shape != (entries.shape[1],):
            raise ValueError("column_truncation must have one entry per input column")
        entries.setflags(write=False)
        trunc.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "column_truncation", trunc)

    @property
    def in_dim(self) -> int:
        return self.entries.shape[1]

    @property
    def out_dim(self) -> int:
        return self.entries.shape[0]


@lru_cache(maxsize=32)
def _log_factorial(dim: int) -> np.ndarray:
    """``log k!`` for ``k = 0 .. dim-1``; read-only, shared by every caller."""
    table = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def _log_binom_table(dim: int) -> np.ndarray:
    """``log C(n, m)`` at ``[m, n]`` for ``0 <= m, n < dim``, ``-inf`` where ``m > n``.

    It depends on neither the efficiency nor the crosstalk, so each
    dimension is built once; the result is read-only.
    """
    log_fact = _log_factorial(dim)
    m = np.arange(dim)[:, None]
    n = np.arange(dim)[None, :]
    table = np.where(
        m <= n, log_fact[n] - log_fact[m] - log_fact[np.maximum(n - m, 0)], -np.inf
    )
    table.setflags(write=False)
    return table


def loss_matrix(efficiency: float, n_in: int, n_out: int | None = None) -> ChannelMatrix:
    """Binomial-thinning loss channel.

    ``entry[m, n] = C(n, m) eta^m (1-eta)^(n-m)`` for m <= n. Output rows
    above ``n_in`` (if ``n_out > n_in``) are unreachable and zero. Loss
    never overflows the output range when ``n_out >= n_in``.

    ``n_in`` and ``n_out`` are inclusive maximum photon numbers; the
    matrix has shape ``(n_out+1, n_in+1)``.
    """
    if not (0.0 < efficiency <= 1.0):
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    if n_out is None:
        n_out = n_in
    m = np.arange(n_out + 1)[:, None]
    n = np.arange(n_in + 1)[None, :]
    if efficiency == 1.0:
        entries = np.where(m == n, 1.0, 0.0)
    else:
        # -inf in the table (m > n) gives exactly zero.
        log_c = _log_binom_table(max(n_in, n_out) + 1)[: n_out + 1, : n_in + 1]
        entries = np.exp(log_c + m * math.log(efficiency) + (n - m) * math.log1p(-efficiency))
    # Output too short: binomial mass at m > n_out is lost.
    if n_out < n_in:
        trunc = 1.0 - entries.sum(axis=0)
        trunc = np.clip(trunc, 0.0, 1.0)
    else:
        trunc = np.zeros(n_in + 1)
    return ChannelMatrix(entries=entries, column_truncation=trunc)


def _poisson_pmf_tail(mean: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Poisson pmf at ``0 .. k_max`` and the tail ``P(K >= k)`` at ``1 .. k_max+1``.

    The pmf is the closed form ``exp(k log mean - mean - log k!)``; mean 0
    is the point mass at 0. The tail is the sum of the upper terms, taken
    smallest first, not ``1 - cdf``, so it keeps its relative accuracy
    where it is tiny (a dark mean of 1e-24 gives a tail of 1e-24, not 0).
    Terms are summed up to ``k = max(k_max + 1, 2 mean) + 60``: past
    ``2 mean`` each term is under half the previous one, so what is left
    out is below ``2**-60`` of the smallest tail returned.
    """
    if mean == 0.0:
        return (np.arange(k_max + 1) == 0).astype(float), np.zeros(k_max + 1)
    top = max(k_max + 1, math.ceil(2.0 * mean)) + 60
    k = np.arange(top + 1)
    pmf = np.exp(k * math.log(mean) - mean - _log_factorial(top + 1))
    tail = np.cumsum(pmf[::-1])[::-1]
    return pmf[: k_max + 1], tail[1 : k_max + 2]


def dark_matrix(dark_mean: float, n_in: int, n_out: int | None = None) -> ChannelMatrix:
    """Additive Poisson dark-count channel.

    ``entry[m, n] = Poisson(dark_mean).pmf(m - n)`` for m >= n. Mass
    pushed beyond ``n_out`` is recorded per column.
    """
    if not (0.0 <= dark_mean < math.inf):
        raise ValueError(f"dark_mean must be finite and >= 0, got {dark_mean}")
    if n_out is None:
        n_out = n_in
    pmf, tail = _poisson_pmf_tail(dark_mean, n_out)
    n = np.arange(n_in + 1)
    k = np.arange(n_out + 1)[:, None] - n
    entries = np.where(k >= 0, pmf[np.maximum(k, 0)], 0.0)
    # Column n keeps Poisson mass up to n_out - n; the rest overflows.
    trunc = np.where(n <= n_out, tail[np.maximum(n_out - n, 0)], 1.0)
    return ChannelMatrix(entries=entries, column_truncation=trunc)


def crosstalk_matrix(crosstalk: float, n_in: int, n_out: int | None = None) -> ChannelMatrix:
    """One-generation optical crosstalk channel.

    Each of the ``n`` fired cells independently adds one extra count with
    probability ``eps``, so the number of extras is Binomial(n, eps):
    ``entry[m, n] = C(n, m-n) eps^(m-n) (1-eps)^(2n-m)`` for n <= m <= 2n.
    """
    if not (0.0 <= crosstalk < 1.0):
        raise ValueError(f"crosstalk must be in [0, 1), got {crosstalk}")
    if n_out is None:
        n_out = n_in
    n = np.arange(n_in + 1)[None, :]
    k = np.arange(n_out + 1)[:, None] - n
    if crosstalk == 0.0:
        entries = np.where(k == 0, 1.0, 0.0)
    else:
        # The table is -inf for k > n; negative k is masked here.
        log_c = np.where(k >= 0, _log_binom_table(max(n_in, n_out) + 1)[k, n], -np.inf)
        entries = np.exp(log_c + k * math.log(crosstalk) + (n - k) * math.log1p(-crosstalk))
    trunc = 1.0 - entries.sum(axis=0)
    return ChannelMatrix(entries=entries, column_truncation=np.clip(trunc, 0.0, 1.0))


def after_loss_channel(
    dark_mean: float, crosstalk: float, n_in: int, n_out: int | None = None
) -> ChannelMatrix:
    """The part of the channel after loss: crosstalk . dark.

    Dark counts are added to the surviving photons and crosstalk acts on
    every fired cell, dark ones included. The intermediate stage is
    truncated at ``n_out``, which is exact for all retained rows because
    dark counts and crosstalk never reduce the count. It does not depend
    on the efficiency, so a fit that varies only the efficiency builds it
    once.
    """
    if n_out is None:
        n_out = n_in
    dark = dark_matrix(dark_mean, n_in, n_out)
    ct = crosstalk_matrix(crosstalk, n_out, n_out)
    entries = ct.entries @ dark.entries
    trunc = np.clip(1.0 - entries.sum(axis=0), 0.0, 1.0)
    return ChannelMatrix(entries=entries, column_truncation=trunc)


def compose_channel(params: DetectorParams, n_in: int, n_out: int | None = None) -> ChannelMatrix:
    """Full single-mode channel: ``after_loss_channel`` . loss.

    Loss acts first on the incident photons, then dark counts and
    crosstalk (see ``after_loss_channel``).
    """
    after_loss = after_loss_channel(params.dark_mean, params.crosstalk, n_in, n_out)
    entries = after_loss.entries @ loss_matrix(params.efficiency, n_in).entries
    trunc = np.clip(1.0 - entries.sum(axis=0), 0.0, 1.0)
    return ChannelMatrix(entries=entries, column_truncation=trunc)


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
    return apply_two_mode_built(joint, ch, cv)


def apply_two_mode_built(
    joint: JointDistribution, channel_h: ChannelMatrix, channel_v: ChannelMatrix
) -> JointDistribution:
    """Apply prebuilt per-mode channels; dimensions must match the joint."""
    dim = joint.n_max + 1
    if channel_h.in_dim != dim or channel_v.in_dim != dim:
        raise ValueError(
            f"channel input dims ({channel_h.in_dim}, {channel_v.in_dim}) "
            f"do not match joint dimension {dim}"
        )
    if channel_h.out_dim != channel_v.out_dim:
        raise ValueError("the two channels must share an output dimension")
    measured = channel_h.entries @ joint.probs @ channel_v.entries.T
    tail = 1.0 - float(measured.sum())
    return JointDistribution(
        n_max=channel_h.out_dim - 1,
        probs=measured,
        tail_mass=max(tail, 0.0),
    )
