"""Two-stage least-squares reconstruction of the source state.

Stage 1 fits the product of the empirical marginals with a per-mode
detector model, determining for each mode the detected thermal mean, the
dark-count mean, and the crosstalk probability. Binomial loss acting on
a thermal state is again thermal, with the mean scaled by the
efficiency, so stage 1 can only identify the product
``efficiency * mean_photons`` (the detected mean); the coincidence
structure in stage 2 splits it. It is a small smooth nonlinear
least-squares problem, solved by a bounded trust-region method started
at the empirical marginal means, with no dark counts or crosstalk.

Stage 2 fits the full joint histogram with the degree of correlation and
the source mean as the free parameters, holding the detected means,
darks, and crosstalk from stage 1 fixed (the per-mode efficiency is
``detected_mean / mean_photons``). For a fixed mean the model
``B + g (A - B)`` is linear in ``g`` (``A`` the detected correlated
component, ``B`` the detected product), so ``g`` is profiled out in
closed form and only the mean is searched (variable projection).

Bootstrap uncertainties assume Poissonian counting noise: every cell is
replaced by an independent Poisson draw centered on the observed count
and the stage-2 fit and product distance are recomputed per resample.

``scipy.optimize`` is imported inside the two fit functions, so importing
the package (and running ``simulate`` or ``measure``) loads only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectorParams, after_loss_channel, loss_matrix
from .distributions import JointDistribution, SourceParams, mixture_joint, thermal_pmf
from .measures import product_distance, singular_spectrum
from .montecarlo import CountsMatrix, _stream_rng, normalize

_DARK_MAX = 5.0
_XTALK_MAX = 0.45
# The stage-2 profile over the source mean can have two basins (at the
# reference detectors, one at mean 0.1-1 and one at 4-5, either of which
# may be the deeper), so the mean is first evaluated on this many
# log-spaced points and a bounded search runs around every local minimum.
_MEAN_GRID_POINTS = 12


@dataclass(frozen=True)
class FitConfig:
    """Solver settings shared by both fit stages.

    ``n_max`` is the photon-number truncation of the model distribution
    before the detector channel (the histogram's own range sets the
    output truncation). ``max_iterations`` caps each solver run: the
    stage-1 least-squares steps and the evaluations of each stage-2 mean
    search. ``convergence_tol`` is the relative tolerance at which the
    solvers stop: stage 1 when a step lowers the objective, or moves the
    parameters, by less than this fraction; stage 2 when its bracket on
    ``log(mean)`` is narrower than the square root of it (the objective
    is quadratic near a minimum).
    """

    max_iterations: int = 4000
    convergence_tol: float = 1e-14
    n_max: int = 40

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (self.convergence_tol > 0.0):
            raise ValueError(f"convergence_tol must be > 0, got {self.convergence_tol}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")


@dataclass(frozen=True)
class Stage1Result:
    """Per-mode detector parameters identifiable from the marginals alone."""

    detected_mean_h: float
    detected_mean_v: float
    dark_h: float
    dark_v: float
    xtalk_h: float
    xtalk_v: float
    residual: float


@dataclass(frozen=True)
class FitResult:
    """Full fitted model with optional bootstrap uncertainties.

    ``stage1`` is the stage-1 fit whose detected means, darks and
    crosstalk the model holds fixed.
    """

    source: SourceParams
    det_h: DetectorParams
    det_v: DetectorParams
    residual: float
    stage1: Stage1Result
    g_error: float | None = None
    distance_error: float | None = None


class FitConvergenceError(RuntimeError):
    """Raised when a fit stage exhausts its evaluation budget.

    ``best`` carries the best parameter estimate reached so far (the six
    stage-1 parameters, or ``(g, mean)`` for stage 2), so a caller can
    inspect it.
    """

    def __init__(self, message: str, best=None, objective: float | None = None):
        super().__init__(message)
        self.best = best
        self.objective = objective


def _weights(counts: CountsMatrix) -> np.ndarray:
    # Inverse observed counts (Neyman's chi-squared); empty cells weigh 1.
    return 1.0 / np.maximum(counts.counts, 1)


def _detected_marginal(
    detected_mean: float,
    dark: float,
    xtalk: float,
    n_model: int,
    n_out: int,
) -> np.ndarray:
    """Thermal mode with the loss already absorbed, then darks and crosstalk."""
    t = thermal_pmf(detected_mean, n_model).probs
    return after_loss_channel(dark, xtalk, n_model, n_out) @ t


def _empirical_marginals(counts: CountsMatrix) -> tuple[np.ndarray, np.ndarray]:
    p = counts.counts / counts.shots
    return p.sum(axis=1), p.sum(axis=0)


def fit_stage1(
    counts: CountsMatrix, config: FitConfig | None = None, trace: list | None = None
) -> Stage1Result:
    """Fit the product of the empirical marginals with the detector model.

    Free parameters are, per mode, the detected thermal mean, the dark
    mean, and the crosstalk probability. They are found by one bounded
    trust-region least-squares run on the weighted residuals, started at
    each mode's empirical mean with darks and crosstalk at zero. Raises
    ValueError for a degenerate histogram (fewer than two occupied bins
    in a marginal) and FitConvergenceError if the solver exhausts its
    budget.
    """
    from scipy.optimize import least_squares

    config = config or FitConfig()
    emp_h, emp_v = _empirical_marginals(counts)
    if np.count_nonzero(emp_h) < 2 or np.count_nonzero(emp_v) < 2:
        raise ValueError("marginal with fewer than 2 occupied bins cannot constrain the fit")
    target = np.outer(emp_h, emp_v)
    sqrt_w = np.sqrt(_weights(counts))
    n_out = counts.n_max
    n_model = config.n_max
    best = math.inf

    def residuals(x):
        nonlocal best
        marg_h = _detected_marginal(x[0], x[2], x[4], n_model, n_out)
        marg_v = _detected_marginal(x[1], x[3], x[5], n_model, n_out)
        r = (sqrt_w * (np.outer(marg_h, marg_v) - target)).ravel()
        best = min(best, float(r @ r))
        if trace is not None:
            trace.append(best)
        return r

    mean_h, mean_v = _mean_of(emp_h), _mean_of(emp_v)
    mean_cap = 2.0 * max(mean_h, mean_v) + 1.0
    # Parameter order: detected means, darks, crosstalks, each (h, v).
    lower = np.array([1e-8, 1e-8, 0.0, 0.0, 0.0, 0.0])
    upper = np.array([mean_cap, mean_cap, _DARK_MAX, _DARK_MAX, _XTALK_MAX, _XTALK_MAX])
    x0 = np.array([mean_h, mean_v, 0.0, 0.0, 0.0, 0.0])
    result = least_squares(
        residuals,
        np.clip(x0, lower, upper),
        bounds=(lower, upper),
        # Central differences: the objective is flat along the dark/crosstalk
        # trade-off, where forward-difference error moves the optimum.
        jac="3-point",
        x_scale="jac",
        ftol=config.convergence_tol,
        xtol=config.convergence_tol,
        # The gradient test is absolute, and the objective's scale is set by
        # the number of shots; it would stop at the start.
        gtol=None,
        max_nfev=config.max_iterations,
    )
    x, fval = result.x, float(result.fun @ result.fun)
    if result.status == 0:
        raise FitConvergenceError(
            f"stage 1 did not converge within {config.max_iterations} least-squares steps",
            best=x,
            objective=fval,
        )
    return Stage1Result(
        detected_mean_h=float(x[0]),
        detected_mean_v=float(x[1]),
        dark_h=float(x[2]),
        dark_v=float(x[3]),
        xtalk_h=float(x[4]),
        xtalk_v=float(x[5]),
        residual=fval,
    )


def _mean_of(marginal: np.ndarray) -> float:
    total = marginal.sum()
    if total <= 0.0:
        return 0.0
    return float(np.arange(marginal.size) @ marginal / total)


def fit_stage2(
    counts: CountsMatrix,
    stage1: Stage1Result,
    config: FitConfig | None = None,
    trace: list | None = None,
) -> FitResult:
    """Fit the full joint histogram with (g, mean_photons) free.

    The stage-1 detected means, darks, and crosstalk are held fixed; the
    efficiencies follow from ``detected_mean / mean_photons``, so the
    source mean is bounded below by the larger detected mean. For each
    mean, ``g`` takes its weighted least-squares value clipped to [0, 1].
    The mean is searched in ``log(mean)``: the profile is evaluated on a
    log-spaced grid, and a bounded Brent search runs in the bracket
    around every grid point that is a local minimum; the best point seen
    is kept. Raises FitConvergenceError if a search exhausts its budget.
    """
    from scipy.optimize import minimize_scalar

    config = config or FitConfig()
    emp = counts.counts / counts.shots
    w = _weights(counts)
    n_out = counts.n_max
    n_model = config.n_max

    # Dark counts and crosstalk do not depend on the free parameters.
    after_loss_h = after_loss_channel(stage1.dark_h, stage1.xtalk_h, n_model, n_out)
    after_loss_v = after_loss_channel(stage1.dark_v, stage1.xtalk_v, n_model, n_out)
    best = (math.inf, 0.0, 0.0)  # (objective, g, mean)

    def profile(log_mean: float) -> float:
        """Objective at this mean, minimized over g in closed form."""
        nonlocal best
        mean = math.exp(log_mean)
        ch = after_loss_h @ loss_matrix(min(stage1.detected_mean_h / mean, 1.0), n_model)
        cv = after_loss_v @ loss_matrix(min(stage1.detected_mean_v / mean, 1.0), n_model)
        # Detected product of the thermal marginals, and the correlated
        # (diagonal) source term minus it.
        t = thermal_pmf(mean, n_model).probs
        product = np.outer(ch @ t, cv @ t)
        slope = (ch * t) @ cv.T - product
        curvature = float((w * slope * slope).sum())
        g = float((w * slope * (emp - product)).sum()) / curvature if curvature > 0.0 else 0.0
        g = min(max(g, 0.0), 1.0)
        diff = product + g * slope - emp
        val = float((w * diff * diff).sum())
        if val < best[0]:
            best = (val, g, mean)
        if trace is not None:
            trace.append(best[0])
        return val

    mean_lo = max(stage1.detected_mean_h, stage1.detected_mean_v) * (1.0 + 1e-9)
    mean_hi = max(n_model / 3.0, mean_lo * 2.0)
    grid = np.linspace(math.log(mean_lo), math.log(mean_hi), _MEAN_GRID_POINTS)
    values = [profile(u) for u in grid]
    last = len(grid) - 1
    for k in range(len(grid)):
        lo, hi = max(k - 1, 0), min(k + 1, last)
        if values[k] <= min(values[lo], values[hi]):
            search = minimize_scalar(
                profile,
                bounds=(grid[lo], grid[hi]),
                method="bounded",
                options={
                    "xatol": math.sqrt(config.convergence_tol),
                    "maxiter": config.max_iterations,
                },
            )
            if not search.success:
                raise FitConvergenceError(
                    f"stage-2 mean search did not converge within "
                    f"{config.max_iterations} evaluations",
                    best=np.array(best[1:]),
                    objective=best[0],
                )
    fval, g, mean = best
    return FitResult(
        source=SourceParams(mean_photons=mean, correlation=g),
        det_h=DetectorParams(
            efficiency=min(stage1.detected_mean_h / mean, 1.0),
            dark_mean=stage1.dark_h,
            crosstalk=stage1.xtalk_h,
        ),
        det_v=DetectorParams(
            efficiency=min(stage1.detected_mean_v / mean, 1.0),
            dark_mean=stage1.dark_v,
            crosstalk=stage1.xtalk_v,
        ),
        residual=fval,
        stage1=stage1,
    )


def reconstruct(fit: FitResult, n_max: int) -> JointDistribution:
    """Pre-detector source distribution evaluated at the fitted parameters."""
    return mixture_joint(fit.source, n_max)


def poisson_resample(counts: CountsMatrix, rng: np.random.Generator) -> CountsMatrix:
    """Replace every cell (and the overflow) with a Poisson draw around it.

    The total number of shots is not conserved; it is recomputed from the
    resampled counts, matching the assumption of independent Poissonian
    cell noise.
    """
    for _ in range(100):
        new_counts = rng.poisson(counts.counts)
        new_overflow = int(rng.poisson(counts.overflow))
        total = int(new_counts.sum()) + new_overflow
        if total > 0:
            return CountsMatrix(
                n_max=counts.n_max,
                counts=new_counts,
                shots=total,
                overflow=new_overflow,
            )
    raise ValueError("resampling produced only empty histograms; counts are too sparse")


def bootstrap(
    counts: CountsMatrix,
    n_resamples: int = 100,
    seed: int = 0,
    config: FitConfig | None = None,
    stage1: Stage1Result | None = None,
) -> tuple[float, float]:
    """Bootstrap standard deviations of the fitted g and of the product distance.

    Each resample draws an independent Poisson histogram around the
    observed counts, then recomputes the product distance and the stage-2
    fit. Stage 1 is held at ``stage1``, the caller's fit of the original
    counts; without one it is fit here, once. Resamples use
    independent RNG streams derived from ``(seed, resample_index)``, so
    the result does not depend on execution order. A resample whose fit
    exhausts its budget raises FitConvergenceError.
    """
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be >= 2, got {n_resamples}")
    config = config or FitConfig()
    if stage1 is None:
        stage1 = fit_stage1(counts, config)
    g_samples = np.empty(n_resamples)
    d_samples = np.empty(n_resamples)
    for r in range(n_resamples):
        resampled = poisson_resample(counts, _stream_rng(seed, r))
        d_samples[r] = product_distance(singular_spectrum(normalize(resampled)))
        g_samples[r] = fit_stage2(resampled, stage1, config).source.correlation
    return float(g_samples.std(ddof=1)), float(d_samples.std(ddof=1))


def check_n_bootstrap(n_bootstrap: int) -> None:
    """Reject a resample count that is neither 0 (no bootstrap) nor at least 2."""
    if n_bootstrap != 0 and n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be 0 or >= 2, got {n_bootstrap}")


def fit_counts(
    counts: CountsMatrix,
    config: FitConfig | None = None,
    n_bootstrap: int = 0,
    seed: int = 0,
) -> FitResult:
    """Run both stages, then the bootstrap unless ``n_bootstrap`` is 0.

    An ``n_bootstrap`` of 1 or less than 0 is rejected before any fit.
    """
    check_n_bootstrap(n_bootstrap)
    config = config or FitConfig()
    stage1 = fit_stage1(counts, config)
    result = fit_stage2(counts, stage1, config)
    if n_bootstrap:
        g_err, d_err = bootstrap(counts, n_bootstrap, seed, config, stage1)
        result = replace(result, g_error=g_err, distance_error=d_err)
    return result
