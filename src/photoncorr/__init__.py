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
    mixture_joint,
    moments,
    thermal_pmf,
)
from .detector import (
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
    SingularSpectrum,
    coincidence_ratio,
    correlation_report,
    heralded_efficiency,
    lee_criterion,
    mean_interior_ratio,
    product_distance,
    ratio_matrix,
    singular_spectrum,
)
from .montecarlo import CountsMatrix, SimConfig, normalize, simulate
from .inference import (
    FitConfig,
    FitConvergenceError,
    FitResult,
    Stage1Result,
    fit_counts,
    fit_stage1,
    fit_stage2,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationReport",
    "CountsMatrix",
    "DetectorParams",
    "FitConfig",
    "FitConvergenceError",
    "FitResult",
    "JointDistribution",
    "Marginal",
    "Moments",
    "SimConfig",
    "SingularSpectrum",
    "SourceParams",
    "Stage1Result",
    "after_loss_channel",
    "apply_two_mode",
    "coincidence_ratio",
    "compose_channel",
    "correlation_report",
    "crosstalk_matrix",
    "dark_matrix",
    "fit_counts",
    "fit_stage1",
    "fit_stage2",
    "heralded_efficiency",
    "lee_criterion",
    "loss_matrix",
    "mean_interior_ratio",
    "mixture_joint",
    "moments",
    "normalize",
    "product_distance",
    "ratio_matrix",
    "reconstruct",
    "simulate",
    "singular_spectrum",
    "thermal_pmf",
    "__version__",
]
