"""Correlation measures computed directly from two-mode count statistics.

Three raw-data measures quantify how far a joint photon-number matrix is
from the product of its marginals: the entrywise joint/product ratio, the
Frobenius distance to the closest rank-1 (product) matrix obtained from
the singular value decomposition, and a two-mode moment inequality that
witnesses nonclassical photon statistics. The model-based heralded
efficiency (coincidence-to-singles ratio in the vanishing-intensity
limit) connects these measures to the source's degree of correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams, apply_two_mode
from .distributions import (
    MODE_H,
    MODE_V,
    JointDistribution,
    Moments,
    SourceParams,
    mixture_joint,
    moments,
)


@dataclass(frozen=True, eq=False)
class RatioMatrix:
    """Entrywise ratio of a joint distribution to the product of its marginals.

    Cells whose denominator vanishes are undefined and stored as NaN;
    they are never infinite because a zero marginal forces a zero joint
    entry in the same row or column.
    """

    n_max: int
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def defined_mask(self) -> np.ndarray:
        return ~np.isnan(self.values)


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Singular values of a probability matrix, normalized so sum(s_i^2) = 1."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CorrelationReport:
    """Summary of the raw-data correlation measures for one joint matrix."""

    mean_interior_ratio: float
    product_distance: float
    coincidence_ratio: float
    lee_nonclassical: bool
    lee_witness: float


def ratio_matrix(joint: JointDistribution) -> RatioMatrix:
    """Joint probabilities divided by the product of the marginals.

    The matrix is first conditioned on the truncated grid (divided by its
    total), which makes the ratio independent of overall normalization:
    unnormalized model outputs and count histograms give the same result,
    and an exact product matrix gives 1 on every defined cell regardless
    of truncation.
    """
    total = float(joint.probs.sum())
    if total <= 0.0:
        raise ValueError("joint distribution has no probability mass on the grid")
    probs = joint.probs / total
    p_h = probs.sum(axis=1)
    p_v = probs.sum(axis=0)
    den = np.outer(p_h, p_v)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(den > 0.0, probs / np.where(den > 0.0, den, 1.0), np.nan)
    return RatioMatrix(n_max=joint.n_max, values=values)


def mean_interior_ratio(ratio: RatioMatrix, weights: np.ndarray | None = None) -> float:
    """Average ratio over defined cells with at least one photon in each mode.

    The default is the unweighted arithmetic mean. Passing ``weights``
    (same shape as the ratio matrix, e.g. the joint probabilities) gives
    the probability-weighted variant instead.
    """
    interior = ratio.values[1:, 1:]
    mask = ~np.isnan(interior)
    if not mask.any():
        return float("nan")
    if weights is None:
        return float(interior[mask].mean())
    w = np.asarray(weights, dtype=float)[1:, 1:]
    w_sum = w[mask].sum()
    if w_sum <= 0.0:
        return float("nan")
    return float((interior[mask] * w[mask]).sum() / w_sum)


def singular_spectrum(joint: JointDistribution) -> SingularSpectrum:
    """Singular values of the probability matrix, normalized to unit square sum."""
    s = np.linalg.svd(joint.probs, compute_uv=False)
    norm = np.sqrt((s * s).sum())
    if norm == 0.0:
        raise ValueError("cannot normalize the spectrum of a zero matrix")
    return SingularSpectrum(values=s / norm)


def product_distance(spectrum: SingularSpectrum) -> float:
    """Normalized Euclidean distance to the closest product matrix.

    Equals sqrt(s_2^2 + s_3^2 + ... + s_n^2), i.e. sqrt(1 - s_1^2) for a
    normalized spectrum; the explicit sum over the subdominant values is
    numerically robust when s_1 is close to 1.
    """
    tail = spectrum.values[1:]
    return float(np.sqrt((tail * tail).sum()))


def closest_product(joint: JointDistribution) -> JointDistribution:
    """Best rank-1 Frobenius approximation of the joint matrix.

    The dominant singular triple gives the closest product matrix. The
    result can contain small negative entries; these are returned as-is
    (check ``has_negative_entries``), never clipped.
    """
    u, s, vt = np.linalg.svd(joint.probs)
    rank1 = s[0] * np.outer(u[:, 0], vt[0])
    return JointDistribution(
        n_max=joint.n_max, probs=rank1, tail_mass=1.0 - float(rank1.sum())
    )


def lee_criterion(m: Moments) -> tuple[bool, float]:
    """Two-mode nonclassicality witness from normally ordered moments.

    Classical (positive-P) states obey the Cauchy-Schwarz bound
    ``<n_h n_v>^2 <= <n_h(n_h-1)> <n_v(n_v-1)>``; the returned witness is
    ``cross^2 - fact2_h * fact2_v`` and a strictly positive value flags
    nonclassical photon-number correlations.
    """
    witness = m.cross * m.cross - m.fact2_h * m.fact2_v
    return witness > 0.0, float(witness)


def heralded_efficiency(
    source: SourceParams,
    det_h: DetectorParams,
    det_v: DetectorParams,
    herald: str = MODE_H,
    probe_mean: float = 1e-4,
) -> float:
    """Coincidence-to-singles ratio in the vanishing-intensity limit.

    The quantity is defined as an intensity -> 0 limit, so the forward
    model is evaluated at the small probe mean and at half of it and the
    ratio is linearly extrapolated to zero mean; this removes the
    accidental-coincidence contribution, which vanishes only linearly
    and would otherwise dominate the error at small ``g``. Dark counts
    are excluded, matching the background-free construction of the
    experimental ratio. The result equals ``g * efficiency`` of the
    non-heralding detector up to O(probe_mean**2).
    """
    if herald not in (MODE_H, MODE_V):
        raise ValueError(f"herald must be 'H' or 'V', got {herald!r}")
    if probe_mean <= 0.0:
        raise ValueError(f"probe_mean must be > 0, got {probe_mean}")
    # Dark counts would contribute accidental coincidences that the
    # limit-based definition explicitly excludes.
    probe_h = DetectorParams(det_h.efficiency, 0.0, det_h.crosstalk)
    probe_v = DetectorParams(det_v.efficiency, 0.0, det_v.crosstalk)
    n_max = 12  # probe mean is tiny; mass beyond 12 photons is ~1e-48

    def ratio_at(mean: float) -> float:
        probe = SourceParams(mean_photons=mean, correlation=source.correlation)
        measured = apply_two_mode(mixture_joint(probe, n_max), probe_h, probe_v)
        return coincidence_ratio(measured, herald=herald)

    gamma = 2.0 * ratio_at(0.5 * probe_mean) - ratio_at(probe_mean)
    return float(min(max(gamma, 0.0), 1.0))


def coincidence_ratio(joint: JointDistribution, herald: str = MODE_H) -> float:
    """P(at least one count in both modes) / P(at least one in the herald mode).

    Works on probabilities or raw count histograms alike; the overall
    normalization cancels.
    """
    p = joint.probs
    both = float(p[1:, 1:].sum())
    singles = float(p[1:, :].sum()) if herald == MODE_H else float(p[:, 1:].sum())
    if singles <= 0.0:
        return 0.0
    return both / singles


def correlation_report(joint: JointDistribution, herald: str = MODE_H) -> CorrelationReport:
    """Compute every raw-data measure for one joint distribution."""
    nonclassical, witness = lee_criterion(moments(joint))
    return CorrelationReport(
        mean_interior_ratio=mean_interior_ratio(ratio_matrix(joint)),
        product_distance=product_distance(singular_spectrum(joint)),
        coincidence_ratio=coincidence_ratio(joint, herald=herald),
        lee_nonclassical=nonclassical,
        lee_witness=witness,
    )
