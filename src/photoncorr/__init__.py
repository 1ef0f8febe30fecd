"""Two-mode photon-number statistics with imperfect number-resolving detectors.

Forward models for a correlated twin-beam source, detector distortion
channels (loss, dark counts, crosstalk), raw-data correlation measures,
an event-level Monte Carlo oracle, and two-stage least-squares
reconstruction of the source's degree of correlation with bootstrap
uncertainties.
"""

from .distributions import (
    JointDistribution,
    Marginal,
    Moments,
    SourceParams,
    marginal,
    mixture_joint,
    moments,
    pdc_joint,
    product_joint,
    thermal_pmf,
)
from .detector import (
    ChannelMatrix,
    DetectorParams,
    after_loss_channel,
    apply_two_mode,
    compose_channel,
    crosstalk_matrix,
    dark_matrix,
    loss_matrix,
)
from .measures import (
    CorrelationReport,
    RatioMatrix,
    SingularSpectrum,
    closest_product,
    coincidence_ratio,
    correlation_report,
    heralded_efficiency,
    lee_criterion,
    mean_interior_ratio,
    product_distance,
    ratio_matrix,
    singular_spectrum,
)
from .montecarlo import CountsMatrix, SimConfig, detect_count, normalize, sample_pair, simulate
from .inference import (
    FitConfig,
    FitConvergenceError,
    FitResult,
    Stage1Result,
    bootstrap,
    fit_counts,
    fit_stage1,
    fit_stage2,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelMatrix",
    "CorrelationReport",
    "CountsMatrix",
    "DetectorParams",
    "FitConfig",
    "FitConvergenceError",
    "FitResult",
    "JointDistribution",
    "Marginal",
    "Moments",
    "RatioMatrix",
    "SimConfig",
    "SingularSpectrum",
    "SourceParams",
    "Stage1Result",
    "after_loss_channel",
    "apply_two_mode",
    "bootstrap",
    "closest_product",
    "coincidence_ratio",
    "compose_channel",
    "correlation_report",
    "crosstalk_matrix",
    "dark_matrix",
    "detect_count",
    "fit_counts",
    "fit_stage1",
    "fit_stage2",
    "heralded_efficiency",
    "lee_criterion",
    "loss_matrix",
    "marginal",
    "mean_interior_ratio",
    "mixture_joint",
    "moments",
    "normalize",
    "pdc_joint",
    "product_distance",
    "product_joint",
    "ratio_matrix",
    "reconstruct",
    "sample_pair",
    "simulate",
    "singular_spectrum",
    "thermal_pmf",
    "__version__",
]
