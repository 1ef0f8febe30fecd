"""Ideal two-mode photon-number distributions of a pulsed twin-beam source.

The source model is a statistical mixture, weighted by a degree of
correlation ``g``, of a perfectly photon-number-correlated component
(identical thermal photon numbers in both polarization modes) and an
uncorrelated product of two thermal modes with the same mean.

All constructors truncate at a caller-chosen ``n_max`` and record the
truncated probability in ``tail_mass`` instead of renormalizing, so that
downstream detector channels and fits see consistent unnormalized tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODE_H = "H"
MODE_V = "V"


@dataclass(frozen=True)
class SourceParams:
    """Physical parameters of the two-mode source.

    Parameters
    ----------
    mean_photons : float
        Average number of photons per mode per pulse. Must be >= 0.
    correlation : float
        Degree of correlation ``g`` in [0, 1]: mixing weight between the
        perfectly correlated component (g=1) and the thermal product
        state (g=0).
    """

    mean_photons: float
    correlation: float

    def __post_init__(self):
        if not (0.0 <= self.mean_photons < math.inf):
            raise ValueError(f"mean_photons must be finite and >= 0, got {self.mean_photons}")
        if not (0.0 <= self.correlation <= 1.0):
            raise ValueError(f"correlation must be in [0, 1], got {self.correlation}")


@dataclass(frozen=True, eq=False)
class Marginal:
    """Single-mode photon-number distribution truncated at ``n_max``."""

    n_max: int
    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (self.n_max + 1,):
            raise ValueError(f"probs must have shape ({self.n_max + 1},), got {probs.shape}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Two-mode photon-number probability matrix truncated at ``n_max``.

    ``probs[n_h, n_v]`` is the probability of ``n_h`` photons in the
    horizontal and ``n_v`` in the vertical mode. ``tail_mass`` is the
    probability lying outside the grid; ``sum(probs) + tail_mass == 1``
    for every properly constructed distribution.
    """

    n_max: int
    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        dim = self.n_max + 1
        if probs.shape != (dim, dim):
            raise ValueError(f"probs must have shape ({dim}, {dim}), got {probs.shape}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))


@dataclass(frozen=True)
class Moments:
    """Low-order photon-number moments of a two-mode distribution.

    ``cross`` is <n_h * n_v>; ``fact2_h`` and ``fact2_v`` are the
    second factorial moments <n(n-1)> of each mode.
    """

    mean_h: float
    mean_v: float
    cross: float
    fact2_h: float
    fact2_v: float


def _thermal_tail(mean: float, n_max: int) -> float:
    # Geometric tail beyond n_max: (mean/(mean+1))**(n_max+1), exact in logs.
    if mean == 0.0:
        return 0.0
    return math.exp((n_max + 1) * (math.log(mean) - math.log1p(mean)))


def _thermal_probs(mean: float, n_max: int) -> np.ndarray:
    """Thermal probabilities at ``0 .. n_max``, computed in logs; arguments unchecked."""
    if mean == 0.0:
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
        return probs
    log1p = math.log1p(mean)
    return np.exp(np.arange(n_max + 1) * (math.log(mean) - log1p) - log1p)


def thermal_pmf(mean: float, n_max: int) -> Marginal:
    """Thermal (geometric) photon-number distribution truncated at ``n_max``.

    ``P(n) = mean**n / (mean+1)**(n+1)``, the single-mode statistics of a
    pulsed twin-beam source collected in one spatio-spectral mode.

    Parameters
    ----------
    mean : float
        Average photon number, finite and >= 0.
    n_max : int
        Inclusive truncation; probabilities for n > n_max are folded into
        ``tail_mass``.
    """
    if not (0.0 <= mean < math.inf):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    probs = _thermal_probs(mean, n_max)
    return Marginal(n_max=n_max, probs=probs, tail_mass=_thermal_tail(mean, n_max))


def mixture_joint(params: SourceParams, n_max: int) -> JointDistribution:
    """Source model: ``g * correlated + (1 - g) * product``, entrywise.

    Both components share one thermal marginal ``t`` with tail ``tau``, so
    the marginals of the mixture are independent of ``g``: the matrix is
    ``g diag(t) + (1-g) outer(t, t)``, and the tail ``g tau + (1-g)(2 tau
    - tau^2)``, the probability that either mode of the product overflows.
    """
    g = params.correlation
    marg = thermal_pmf(params.mean_photons, n_max)
    t, tau = marg.probs, marg.tail_mass
    probs = g * np.diag(t) + (1.0 - g) * np.outer(t, t)
    tail = g * tau + (1.0 - g) * (2.0 * tau - tau * tau)
    return JointDistribution(n_max=n_max, probs=probs, tail_mass=tail)


def moments(joint: JointDistribution) -> Moments:
    """First, second-factorial, and cross moments over the truncated grid."""
    n = np.arange(joint.n_max + 1, dtype=float)
    p_h = joint.probs.sum(axis=1)
    p_v = joint.probs.sum(axis=0)
    return Moments(
        mean_h=float(n @ p_h),
        mean_v=float(n @ p_v),
        cross=float(n @ joint.probs @ n),
        fact2_h=float((n * (n - 1.0)) @ p_h),
        fact2_v=float((n * (n - 1.0)) @ p_v),
    )
