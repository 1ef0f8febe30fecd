"""Two-stage least-squares reconstruction of the source state.

Stage 1 fits the product of the empirical marginals with a per-mode
detector model, determining for each mode the detected thermal mean, the
dark-count mean, and the crosstalk probability. Binomial loss acting on
a thermal state is again thermal, with the mean scaled by the
efficiency, so stage 1 can only identify the product
``efficiency * mean_photons`` (the detected mean); the coincidence
structure in stage 2 splits it. It is a small smooth nonlinear
least-squares problem, solved by a bounded Levenberg-Marquardt loop
started at the empirical marginal means, with no dark counts or
crosstalk. Each evaluation is one pass over both modes
(``detector._after_loss_pass``) that gives their marginals and exact
derivatives; each Jacobian column is the outer product of one mode's
marginal derivative with the other mode's marginal.

Stage 2 fits the full joint histogram with the degree of correlation and
the source mean as the free parameters, holding the detected means,
darks, and crosstalk from stage 1 fixed (the per-mode efficiency is
``detected_mean / mean_photons``). For a fixed mean the model
``B + g (A - B)`` is linear in ``g`` (``A`` the detected correlated
component, ``B`` the detected product), so ``g`` is profiled out in
closed form and only the mean is searched (variable projection): a
12-point log-spaced grid, then one Brent search (parabolic steps, with
golden-section steps as the safeguard) in the bracket around the grid's
lowest point, the first of ties. Where ``g`` clips to 0 at every mean
the profile is flat and every grid point ties, so the search starts on
the lower end. A search whose grid minimum is an end of the range first
probes one point the stop width inside that end and ends on the end if
the probe is no lower. At low efficiency most fits end on an end, and
the probe stands in for their Brent steps, as it does for a flat
profile's whole search: at the benchmark's seed-1 input a
``fit --bootstrap 100`` builds the correlated term at 328 points, against
1,669 for the Brent search alone. Neither term is cut off in photon
number: ``B`` is the outer product of the detected marginals, and the
after-loss channels ``A`` reads come from the same two-mode pass, once
per fit at stage 1's final point; ``A`` is an all-positive recurrence
on the histogram's range (``_correlated_term``).
``A`` does not depend on the histogram, so many histograms with one
stage 1 are fitted in one batch: each step of the search builds it at
the points of all of them in one vectorised pass. A batch takes the
histograms stacked into one ``(rows, n, n)`` array, keeps each search's
state as arrays over the running searches, and returns the best
``(objective, g, log mean)`` of every row as one array. ``fit_counts``
fits the counts and all the bootstrap resamples in one batch, the counts
as row 0; a single fit is the batch of one. A batch's rows are bitwise
their fits alone. At low efficiency the data pin ``nu = g (1 + 1/mean)``
(``FitResult.nu``) far better than ``g`` or the mean, and a fit that
ends on a bound says so (``FitResult.at_bound``).

``fit_counts`` is the one entry to the bootstrap. Its uncertainties
assume Poissonian counting noise: every cell is replaced by an
independent Poisson draw centered on the observed count, and the
stage-2 fit, with the counts' stage 1 held, and the product distance
are recomputed per resample. The resamples are drawn straight into one
stacked array, and their product distances come from one batched SVD through
the spectrum that ``measures`` defines.

Both stages need numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .detector import DetectorParams, _after_loss_pass
from .distributions import JointDistribution, SourceParams, mixture_joint
from .measures import _normalized_spectra, _tail_norms
from .montecarlo import CountsMatrix, _stream_rng, normalize

_DARK_MAX = 5.0
_XTALK_MAX = 0.45
# The stage-2 profile over the source mean is first evaluated on this many
# log-spaced points, and one bounded search runs in the bracket around the
# lowest of them.
_MEAN_GRID_POINTS = 12
# The upper end of the stage-2 search over the source mean, unless twice
# the larger detected mean is higher: a fit at an infinite mean would have
# efficiency 0, which no DetectorParams can hold.
_MEAN_CAP = 40.0 / 3.0


@dataclass(frozen=True)
class FitConfig:
    """Solver settings shared by both fit stages.

    ``max_iterations`` caps each solver run: the stage-1 residual
    evaluations, and the points of a stage-2 mean search after the grid.
    The point that probes inside an end of the range counts like every
    other. In a batch each histogram's search counts its own points, so
    it meets the budget exactly when its fit alone does.
    ``convergence_tol`` is the relative tolerance at which the solvers
    stop: stage 1 when a step lowers the objective, or moves the
    parameters, by less than this fraction, or a rejected step raises
    the objective by no more than it; stage 2 when its bracket on
    ``log(mean)`` is no wider than the square root of it (the objective
    is quadratic near a minimum).
    """

    max_iterations: int = 4000
    convergence_tol: float = 1e-14

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.convergence_tol < math.inf):
            raise ValueError(f"convergence_tol must be finite and > 0, got {self.convergence_tol}")


@dataclass(frozen=True)
class Stage1Result:
    """Per-mode detector parameters identifiable from the marginals alone.

    ``evaluations`` is the number of residual evaluations the fit took,
    and ``at_bound`` names the parameters it held on a bound at the end.
    """

    detected_mean_h: float
    detected_mean_v: float
    dark_h: float
    dark_v: float
    xtalk_h: float
    xtalk_v: float
    residual: float
    evaluations: int = 0
    at_bound: tuple[str, ...] = ()


@dataclass(frozen=True)
class FitResult:
    """Full fitted model with optional bootstrap uncertainties.

    ``stage1`` is the stage-1 fit whose detected means, darks and
    crosstalk the model holds fixed. ``at_bound`` names ``mean_photons``
    at an end of its search range and ``correlation`` at 0 or 1.
    ``evaluations`` is the number of points of the stage-2 profile the fit
    evaluated: the grid, the end probes and the Brent steps.
    """

    source: SourceParams
    det_h: DetectorParams
    det_v: DetectorParams
    residual: float
    stage1: Stage1Result
    g_error: float | None = None
    distance_error: float | None = None
    nu_error: float | None = None
    at_bound: tuple[str, ...] = ()
    evaluations: int = 0

    @property
    def nu(self) -> float:
        """``g (1 + 1/mean)``, the source's ``Cov(n_h, n_v) / (<n_h> <n_v>)``; loss keeps it."""
        return self.source.correlation * (1.0 + 1.0 / self.source.mean_photons)


class FitConvergenceError(RuntimeError):
    """Raised when a fit stage exhausts its evaluation budget.

    ``best`` carries the best parameter estimate reached so far (the six
    stage-1 parameters, or ``(g, mean)`` for stage 2), so a caller can
    inspect it. A stage-2 error names the batch row whose search ran out
    in ``row``: 0 for the counts, ``k`` for resample ``k``; stage 1 has
    none.
    """

    def __init__(
        self, message: str, best=None, objective: float | None = None, row: int | None = None
    ):
        super().__init__(message)
        self.best = best
        self.objective = objective
        self.row = row


def _weights(counts: np.ndarray) -> np.ndarray:
    # Inverse observed counts (Neyman's chi-squared); empty cells weigh 1.
    return 1.0 / np.maximum(counts, 1)


def _levenberg_marquardt(evaluate, x, lower, upper, config: FitConfig):
    """Minimize ``r @ r`` over the box ``[lower, upper]``, starting at ``x``.

    ``evaluate(x)`` returns the residuals ``r`` and their Jacobian ``J``
    together. A step solves the damped normal equations
    ``(JᵀJ + lam diag(JᵀJ)) step = -Jᵀr`` (Marquardt's scaling) in the
    free parameters and is clipped into the box. A parameter on a bound
    whose gradient points out of the box is held there for the step.
    ``lam`` falls tenfold after an accepted step, one that does not raise
    the objective, and rises tenfold after a rejected one. The loop stops
    after an accepted step that lowers the objective by at most
    ``convergence_tol`` relative, or moves ``x`` by at most
    ``convergence_tol (convergence_tol + |x|)``. It also stops, at the
    current ``x``, after a rejected step that raises the objective by at
    most ``convergence_tol`` relative: the objective is then at its
    rounding floor, where retrying with more damping only chases the
    last bits. Returns ``x``, its objective, the number of evaluations,
    and the mask of the parameters held on a bound there. Raises
    FitConvergenceError once ``max_iterations`` evaluations are spent.
    """
    tol = config.convergence_tol
    r, jac = evaluate(x)
    fval, evaluations, damping, converged = float(r @ r), 1, 1e-3, False
    while True:
        grad = jac.T @ r
        held = ((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0))
        if converged:
            return x, fval, evaluations, held
        if evaluations == config.max_iterations:
            raise FitConvergenceError(
                f"stage 1 did not converge within {config.max_iterations} residual evaluations",
                best=x,
                objective=fval,
            )
        free = ~held
        normal = jac[:, free].T @ jac[:, free]
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(normal + damping * np.diag(np.diag(normal)), -grad[free])
        trial = np.clip(x + step, lower, upper)
        r_trial, jac_trial = evaluate(trial)
        evaluations += 1
        f_trial = float(r_trial @ r_trial)
        if f_trial > fval:
            # A rise within the tolerance is rounding noise: x is at the floor.
            converged = f_trial - fval <= tol * fval
            damping *= 10.0
            continue
        converged = (
            fval - f_trial <= tol * fval
            or np.linalg.norm(trial - x) <= tol * (tol + np.linalg.norm(x))
        )
        x, r, jac, fval = trial, r_trial, jac_trial, f_trial
        damping /= 10.0


def fit_stage1(
    counts: CountsMatrix, config: FitConfig | None = None, trace: list | None = None
) -> Stage1Result:
    """Fit the product of the empirical marginals with the detector model.

    Free parameters are, per mode, the detected thermal mean, the dark
    mean, and the crosstalk probability. They are found by a bounded
    Levenberg-Marquardt run (``_levenberg_marquardt``) on the weighted
    residuals and their exact Jacobian, started at each mode's empirical
    mean with darks and crosstalk at zero. ``trace`` gets the best
    objective so far after every residual evaluation. Raises ValueError
    for a degenerate histogram (fewer than two occupied bins in a
    marginal) and FitConvergenceError if the solver exhausts its budget.
    """
    config = config or FitConfig()
    p = normalize(counts).probs
    emp_h, emp_v = p.sum(axis=1), p.sum(axis=0)
    if np.count_nonzero(emp_h) < 2 or np.count_nonzero(emp_v) < 2:
        raise ValueError("marginal with fewer than 2 occupied bins cannot constrain the fit")
    target = np.outer(emp_h, emp_v)
    sqrt_w = np.sqrt(_weights(counts.counts))
    n_out = counts.n_max
    best = math.inf

    def evaluate(x):
        nonlocal best
        # x reshaped is (detected means, darks, crosstalks) by mode (h, v).
        _, (marg_h, marg_v), (jac_h, jac_v) = _after_loss_pass(*x.reshape(3, 2), n_out)
        r = (sqrt_w * (np.outer(marg_h, marg_v) - target)).ravel()
        best = min(best, float(r @ r))
        if trace is not None:
            trace.append(best)
        # A parameter of mode h moves the residual by the outer product of
        # its marginal's derivative with mode v's marginal, and vice versa.
        columns = np.stack(
            [jac_h[:, None, :] * marg_v[None, :, None], marg_h[:, None, None] * jac_v[None]],
            axis=-1,
        )
        # Columns (N, N, 3, 2) flatten to the parameter order of x.
        return r, (sqrt_w[:, :, None, None] * columns).reshape(sqrt_w.size, 6)

    mean_h, mean_v = _mean_of(emp_h), _mean_of(emp_v)
    mean_cap = 2.0 * max(mean_h, mean_v) + 1.0
    # Parameter order: detected means, darks, crosstalks, each (h, v), as
    # the first six fields of Stage1Result.
    lower = np.array([1e-8, 1e-8, 0.0, 0.0, 0.0, 0.0])
    upper = np.array([mean_cap, mean_cap, _DARK_MAX, _DARK_MAX, _XTALK_MAX, _XTALK_MAX])
    x0 = np.array([mean_h, mean_v, 0.0, 0.0, 0.0, 0.0])
    x, fval, evaluations, held = _levenberg_marquardt(
        evaluate, np.clip(x0, lower, upper), lower, upper, config
    )
    return Stage1Result(
        *(float(v) for v in x),
        residual=fval,
        evaluations=evaluations,
        at_bound=tuple(f.name for f, h in zip(fields(Stage1Result), held) if h),
    )


def _mean_of(marginal: np.ndarray) -> float:
    total = marginal.sum()
    if total <= 0.0:
        return 0.0
    return float(np.arange(marginal.size) @ marginal / total)


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # the share of the larger segment a golden step takes


def _log_mean_range(stage1: Stage1Result) -> tuple[float, float]:
    """The ends of the stage-2 search in ``log(mean)``: above both detected means, to the cap."""
    mean_lo = max(stage1.detected_mean_h, stage1.detected_mean_v) * (1.0 + 1e-9)
    return math.log(mean_lo), math.log(max(_MEAN_CAP, mean_lo * 2.0))


def _correlated_term(stage1: Stage1Result, log_means: np.ndarray, after_loss) -> np.ndarray:
    """The detected correlated term ``C_h p C_v.T`` at each mean, stacked.

    ``p``, the twin thermal source of mean ``mu`` after loss, has the
    generating function ``1/(A - B s - C t - E s t)``, with
    ``A = 1 + mu - mu (1-eta_h)(1-eta_v)``, ``B = mu eta_h (1-eta_v)``,
    ``C = mu (1-eta_h) eta_v`` and ``E = mu eta_h eta_v``, written here in
    the detected means ``d = mu eta``. So ``A p[i, j] = B p[i-1, j] +
    C p[i, j-1] + E p[i-1, j-1]`` and ``p[0, 0] = 1/A``: row 0 is
    ``c^j / A``, and row ``i`` is row ``i-1`` times the Toeplitz matrix of
    the series of ``(b + e t) / (1 - c t)`` (lower-case: over ``A``). Every
    term is positive, so nothing cancels. Each step is elementwise or a
    per-point matmul, so a point is bitwise the same in any batch.
    """
    n = after_loss[0].shape[1] - 1
    x = np.array([math.exp(-u) for u in log_means.tolist()])[:, None]  # 1 / mean
    d_h, d_v = stage1.detected_mean_h, stage1.detected_mean_v
    a = 1.0 + d_h + d_v - d_h * d_v * x
    b, c, e = d_h * (1.0 - d_v * x) / a, d_v * (1.0 - d_h * x) / a, d_h * d_v * x / a
    powers = np.ones((x.size, n + 1))
    powers[:, 1:] = c
    np.cumprod(powers, axis=1, out=powers)
    # n zeros, then the series: b, then c^(m-1) (e + b c). Row j of the
    # Toeplitz matrix reads it backwards from term j into the zeros.
    series = np.zeros((x.size, 2 * n + 1))
    series[:, n] = b[:, 0]
    series[:, n + 1 :] = powers[:, :-1] * (e + b * c)
    windows = np.lib.stride_tricks.sliding_window_view(series, n + 1, axis=1)
    toeplitz = np.ascontiguousarray(windows[..., ::-1])
    # p[i] holds row i of every point's p, as a column.
    p = np.empty((n + 1, x.size, n + 1, 1))
    p[0, :, :, 0] = powers / a
    for i in range(1, n + 1):
        np.matmul(toeplitz, p[i - 1], out=p[i])
    ch, cv = after_loss
    return ch @ np.ascontiguousarray(p[..., 0].transpose(1, 0, 2)) @ cv.T


def _keep_first_best(best, rows, values, g, log_means) -> None:
    """Record in ``best`` each point of a pass that beats its row's best.

    A pass holds at most one point per row. A tie keeps the earlier point,
    and NaN never improves a row.
    """
    improve = values < best[0, rows]
    best[:3, rows[improve]] = values[improve], g[improve], log_means[improve]


def _fit_stage2_batch(
    counts: np.ndarray,
    shots: np.ndarray,
    stage1: Stage1Result,
    config: FitConfig,
    trace: list | None = None,
) -> np.ndarray:
    """``fit_stage2`` of every histogram ``counts[k]`` of ``shots[k]`` shots, one stage 1.

    Returns every row's result as a ``(4, rows)`` array: the objective,
    ``g`` and ``log(mean)`` of its best point, and the number of points it
    evaluated. Each pass of the search builds the model terms at one point
    of every row still searching at once. A row's points, and the
    arithmetic on them, do not depend on the others, so each row is
    bitwise its fit alone. With one row, ``trace`` gets its best objective after every
    evaluation. A row whose search has spent its budget and would need
    another point leaves the search. Once the others are done,
    FitConvergenceError names the lowest such row, with its best point,
    as its fit alone would: row 0 is "the counts" and row ``k``
    "resample k", the layout of ``fit_counts``.
    """
    weights = _weights(counts)
    # Loss keeps a mode thermal, so the product term is whatever the mean.
    params = np.array([getattr(stage1, f.name) for f in fields(Stage1Result)[:6]])
    after_loss, marginals, _ = _after_loss_pass(*params.reshape(3, 2), counts.shape[-1] - 1)
    product = np.outer(*marginals)
    # What g times the slope must fit: the data less the product term.
    target = counts / shots[:, None, None] - product
    best = np.full((4, len(counts)), math.inf)  # objective, g, log(mean), evaluations
    best[3] = 0.0

    def evaluate(rows, log_means, slope):
        """The objective at each point, minimized over g in closed form."""
        wr, t = weights[rows], target[rows]
        w_slope = wr * slope
        curvature = (w_slope * slope).sum(axis=(-2, -1))
        g = np.divide(
            (w_slope * t).sum(axis=(-2, -1)), curvature,
            out=np.zeros_like(curvature), where=curvature > 0.0,
        ).clip(0.0, 1.0)
        diff = g[:, None, None] * slope - t
        values = (wr * diff * diff).sum(axis=(-2, -1))
        if trace is not None:
            trace.extend(np.minimum.accumulate(np.append(best[0, 0], values))[1:].tolist())
        _keep_first_best(best, rows, values, g, log_means)
        best[3, rows] += 1
        return values

    def probe(rows, log_means):
        # One pass: one new point of every search still running.
        return evaluate(rows, log_means, _correlated_term(stage1, log_means, after_loss) - product)

    grid = np.linspace(*_log_mean_range(stage1), _MEAN_GRID_POINTS)
    every = np.arange(len(counts))
    values = np.stack([
        evaluate(every, np.full(every.size, u), slope)
        for u, slope in zip(grid, _correlated_term(stage1, grid, after_loss) - product)
    ], axis=1)
    # One Brent search per row in the bracket around its grid minimum (the
    # first, on ties), started there; the rows' searches run in lockstep.
    # x is a search's best point, w its second best and v the previous w;
    # d is its last step and e the one before.
    rows, k = every, values.argmin(axis=1)
    a, b = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, _MEAN_GRID_POINTS - 1)]
    x, fx = grid[k], values[rows, k]
    # Brent's stop test |x - mid| <= 2 tol - (b - a) / 2 implies b - a <= 4 tol.
    tol = math.sqrt(config.convergence_tol) / 4.0
    # A search that starts on an end of the range first probes 4 tol inside
    # it, or half-way into its bracket if that is narrower. If the probe is
    # no lower, the minimum of the bracket lies within the stop width of the
    # end, and the search is done. Otherwise it runs from the end as if there
    # had been no probe; the probe is only a candidate for its row's best.
    end = (k == 0) | (k == _MEAN_GRID_POINTS - 1)
    if end.any():
        step = np.minimum(4.0 * tol, 0.5 * (b[end] - a[end]))
        fu = probe(rows[end], x[end] + np.where(k[end] == 0, step, -step))
        keep = ~end
        keep[end] = fu < fx[end]
        rows, a, b, x, fx = rows[keep], a[keep], b[keep], x[keep], fx[keep]
    w = v = x
    fw = fv = fx
    d = e = np.zeros(rows.size)
    # A row's own budget: the grid, then max_iterations points of its search.
    budget, spent = _MEAN_GRID_POINTS + config.max_iterations, []
    while True:
        mid = 0.5 * (a + b)
        running = np.abs(x - mid) > 2.0 * tol - 0.5 * (b - a)
        over = running & (best[3, rows] >= budget)
        spent += rows[over].tolist()
        running &= ~over
        if not running.any():
            break
        if not running.all():
            rows, a, b, x, w, v, fx, fw, fv, d, e, mid = (
                s[running] for s in (rows, a, b, x, w, v, fx, fw, fv, d, e, mid)
            )
        # The vertex of the parabola through x, w and v is x + p / q. It is
        # taken if it lies inside (a, b) and is under half the step before
        # last; otherwise a golden step goes into the larger segment.
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (np.abs(e) > tol) & (np.abs(p) < np.abs(0.5 * q * e))
        parabolic &= (p > q * (a - x)) & (p < q * (b - x))
        vertex = np.divide(p, q, out=np.zeros_like(p), where=parabolic)
        segment = np.where(x >= mid, a - x, b - x)
        e, d = np.where(parabolic, d, segment), np.where(parabolic, vertex, _GOLDEN * segment)
        # No point within 2 tol of a bracket end, nor within tol of x.
        near_end = parabolic & ((x + d - a < 2.0 * tol) | (b - (x + d) < 2.0 * tol))
        d = np.where(near_end, np.where(mid >= x, tol, -tol), d)
        u = x + np.copysign(np.maximum(np.abs(d), tol), d)
        fu = probe(rows, u)
        # The bracket end on u's side of x moves to x if u is better, else to u.
        better = fu <= fx
        lower, end = better == (u >= x), np.where(better, x, u)
        a, b = np.where(lower, end, a), np.where(lower, b, end)
        new_w = better | (fu <= fw) | (w == x)
        new_v = new_w | (fu <= fv) | (v == x) | (v == w)
        # v is set before w, and w before x, so each reads the other's old value.
        v = np.where(new_w, w, np.where(new_v, u, v))
        fv = np.where(new_w, fw, np.where(new_v, fu, fv))
        w = np.where(better, x, np.where(new_w, u, w))
        fw = np.where(better, fx, np.where(new_w, fu, fw))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
    if spent:
        row = min(spent)
        raise FitConvergenceError(
            f"stage-2 mean search of {'the counts' if row == 0 else f'resample {row}'} "
            f"did not converge within {config.max_iterations} evaluations",
            best=np.array([best[1, row], math.exp(best[2, row])]),
            objective=float(best[0, row]),
            row=row,
        )
    return best


def _stage2_result(stage1: Stage1Result, point: np.ndarray) -> FitResult:
    """The fit at a batch row's ``point``: objective, g, log(mean) and evaluations."""
    fval, g, log_mean, evaluations = point.tolist()
    at_bound = ("mean_photons",) * (log_mean in _log_mean_range(stage1))
    at_bound += ("correlation",) * (g in (0.0, 1.0))
    mean = math.exp(log_mean)
    det_h, det_v = (
        DetectorParams(efficiency=min(detected / mean, 1.0), dark_mean=dark, crosstalk=xtalk)
        for detected, dark, xtalk in (
            (stage1.detected_mean_h, stage1.dark_h, stage1.xtalk_h),
            (stage1.detected_mean_v, stage1.dark_v, stage1.xtalk_v),
        )
    )
    source = SourceParams(mean_photons=mean, correlation=g)
    return FitResult(
        source, det_h, det_v, fval, stage1, at_bound=at_bound, evaluations=int(evaluations)
    )


def fit_stage2(
    counts: CountsMatrix,
    stage1: Stage1Result,
    config: FitConfig | None = None,
    trace: list | None = None,
) -> FitResult:
    """Fit the full joint histogram with (g, mean_photons) free.

    The stage-1 detected means, darks, and crosstalk are held fixed; the
    efficiencies follow from ``detected_mean / mean_photons``, so the
    source mean is bounded below by the larger detected mean, and above
    by ``_MEAN_CAP``. For each mean, ``g`` takes its weighted
    least-squares value clipped to [0, 1].
    The mean is searched in ``log(mean)``: the profile is evaluated on a
    log-spaced grid, and one Brent search starts at its lowest point (the
    first of ties), in the bracket of its two neighbours. It steps to
    the vertex of a parabola through three of its points where that is
    safe, takes a golden-section step otherwise, and stops once its
    bracket is no wider than ``sqrt(convergence_tol)``; the best point
    seen is kept. A search that starts on an end of the range first
    evaluates the point ``sqrt(convergence_tol)`` inside it (half-way to
    the next grid point if that is nearer); if that point is no lower, the
    minimum of the bracket lies within that width of the end, and the
    search ends there with one evaluation. Nothing is cached between
    fits. Raises FitConvergenceError if a search needs more than
    ``max_iterations`` evaluations.
    """
    best = _fit_stage2_batch(
        counts.counts[None], np.array([counts.shots]), stage1, config or FitConfig(), trace
    )
    return _stage2_result(stage1, best[:, 0])


def reconstruct(fit: FitResult, n_max: int) -> JointDistribution:
    """Pre-detector source distribution evaluated at the fitted parameters."""
    return mixture_joint(fit.source, n_max)


def _draw_resamples(
    counts: CountsMatrix, n_resamples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The counts and their bootstrap resamples, stacked, and the resamples' product distances.

    Row 0 of the stacked counts and shots is the counts themselves, and row
    ``r + 1`` the resample drawn from its own stream ``(seed, r)``, so the
    draws do not depend on execution order: every cell and the overflow
    drawn from Poisson around it, and the shots their sum. A draw with every
    in-range cell empty has no spectrum, so it is drawn again, at most 100
    times in all. The distances come from one batched SVD; each is bitwise
    ``product_distance(singular_spectrum(normalize(x)))`` of its resample ``x``.
    """
    stacked = np.empty((n_resamples + 1, *counts.counts.shape), dtype=np.int64)
    overflow = np.empty(n_resamples + 1, dtype=np.int64)
    stacked[0], overflow[0] = counts.counts, counts.overflow
    for r in range(1, n_resamples + 1):
        rng = _stream_rng(seed, r - 1)
        for _ in range(100):
            stacked[r] = rng.poisson(counts.counts)
            overflow[r] = rng.poisson(counts.overflow)
            if stacked[r].any():
                break
        else:
            raise ValueError("resampling produced only empty histograms; counts are too sparse")
    shots = stacked.sum(axis=(1, 2)) + overflow
    distances = _tail_norms(_normalized_spectra(stacked[1:] / shots[1:, None, None]))
    return stacked, shots, distances


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

    The bootstrap draws ``n_bootstrap`` independent Poisson histograms
    around the counts, resample ``r`` from its own RNG stream
    ``(seed, r)`` so the result does not depend on execution order. The
    counts and the resamples are fitted in one stage-2 batch with the
    counts' stage 1, the counts as row 0, and only that row becomes a
    FitResult; a batch's rows are bitwise their fits alone, so the fit is
    that of ``fit_stage2``. ``g_error``, ``nu_error`` and
    ``distance_error`` are the standard deviations of the resamples'
    fitted ``g`` and ``nu`` and of their product distances. A search that
    exhausts its budget raises
    FitConvergenceError naming its row. An ``n_bootstrap`` of 1 or less
    than 0 is rejected before any fit.
    """
    check_n_bootstrap(n_bootstrap)
    config = config or FitConfig()
    stage1 = fit_stage1(counts, config)
    if not n_bootstrap:
        return fit_stage2(counts, stage1, config)
    stacked, shots, distances = _draw_resamples(counts, n_bootstrap, seed)
    best = _fit_stage2_batch(stacked, shots, stage1, config)
    g, log_means = best[1:3, 1:]
    return replace(
        _stage2_result(stage1, best[:, 0]),
        g_error=float(np.std(g, ddof=1)),
        nu_error=float(np.std(g * (1.0 + np.exp(-log_means)), ddof=1)),
        distance_error=float(np.std(distances, ddof=1)),
    )
