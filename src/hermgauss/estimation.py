"""Monte Carlo verification of the Cramer-Rao bounds.

Sampling is by inverse CDF on a tabulated grid (the node structure of the
densities makes rejection envelopes fiddly, while the CDF table reuses the
quadrature truncation window).  Maximum likelihood runs a derivative-free
compass search on (mu, log sigma): gradients of the log-likelihood are
ill-conditioned near density nodes and the problem is only 2-D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .geometry import crb_bound, metric_quadrature
from .models import ModelPoint, StateSpec, kernel
from .quadrature import QuadConfig, QuadratureError, truncation_halfwidth

__all__ = [
    "SampleBatch",
    "CrbReport",
    "sample",
    "mle_fit",
    "crb_experiment",
]

_CDF_NODES = 8192
# Fewest trials (and surviving fits) that make the covariance meaningful.
_MIN_TRIALS = 30


@dataclass(frozen=True)
class SampleBatch:
    spec: StateSpec
    true_point: ModelPoint
    draws: np.ndarray
    rng_seed: int


@dataclass(frozen=True)
class CrbReport:
    bound: np.ndarray
    empirical_cov: np.ndarray
    trials: int
    samples_per_trial: int
    violations: dict
    failed_trials: tuple = ()
    estimates: np.ndarray = field(default=None, repr=False)


class _CdfTable:
    """Monotone piecewise-cubic CDF of the dimensionless variable y."""

    def __init__(self, spec: StateSpec, nodes: int = _CDF_NODES):
        kf = kernel(spec)
        cut = truncation_halfwidth(kf.degree_hint + 2, 1e-14)
        y = np.linspace(-cut, cut, nodes)
        dens = np.maximum(kf.f(y), 0.0)
        pdf_interp = PchipInterpolator(y, dens)
        cdf = pdf_interp.antiderivative()
        vals = cdf(y)
        total = vals[-1]
        if not np.isfinite(total) or total <= 0.0:
            raise QuadratureError("CDF tabulation failed: non-positive mass")
        self.y = y
        self.cdf_vals = vals / total
        self.cdf = cdf
        self.total = total

    def invert(self, u: np.ndarray, iterations: int = 60) -> np.ndarray:
        """Bisection on the interpolated CDF, vectorized over u."""
        idx = np.clip(np.searchsorted(self.cdf_vals, u), 1, self.y.size - 1)
        lo = self.y[idx - 1].copy()
        hi = self.y[idx].copy()
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) / self.total < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def _cdf_table(spec: StateSpec) -> _CdfTable:
    table = spec._kernel_cache.get("cdf")
    if table is None:
        table = _CdfTable(spec)
        spec._kernel_cache["cdf"] = table
    return table


def sample(spec: StateSpec, point: ModelPoint, count: int, seed: int) -> SampleBatch:
    """Draw i.i.d. position samples by inverse-CDF lookup.

    Reproducible: the same (spec, point, count, seed) always yields the
    same draws.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    table = _cdf_table(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = rng.random(count)
    y = table.invert(u)
    x = point.mu + math.sqrt(2.0) * point.sigma * y
    return SampleBatch(spec=spec, true_point=point, draws=x, rng_seed=int(seed))


def log_likelihood(spec: StateSpec, x: np.ndarray, mu: float, sigma: float) -> float:
    """Sum of log P(x_i | mu, sigma); density zeros are nudged, not fatal."""
    kf = kernel(spec)
    y = (x - mu) / (math.sqrt(2.0) * sigma)
    f = kf.f(y)
    bad = f <= 0.0
    if bad.any():
        # A sample sitting exactly on a node of the density; shift it off by
        # one ulp of y rather than returning -inf.
        warnings.warn("sample on a density zero; perturbing by machine epsilon",
                      stacklevel=2)
        yb = y[bad]
        f[bad] = kf.f(yb + np.spacing(np.maximum(np.abs(yb), 1.0)))
        f = np.maximum(f, 1e-300)
    return float(np.sum(np.log(f))) - x.size * math.log(sigma)


def mle_fit(batch: SampleBatch, spec: StateSpec | None = None,
            init: ModelPoint | None = None,
            tol: float = 1e-9, max_iterations: int = 20000) -> ModelPoint:
    """Maximum-likelihood (mu, sigma) by compass search on (mu, log sigma)."""
    if spec is None:
        spec = batch.spec
    x = np.asarray(batch.draws, dtype=float)
    if x.size == 0:
        raise ValueError("empty batch")
    if x.size > 1 and np.ptp(x) == 0.0:
        raise ValueError("degenerate batch: all samples identical")
    if init is None:
        init = _moment_init(spec, x)
    mu, ls = init.mu, math.log(init.sigma)

    def objective(m, l):
        return log_likelihood(spec, x, m, math.exp(l))

    best = objective(mu, ls)
    step_mu = max(0.25 * math.exp(ls), 10.0 * tol)
    step_ls = 0.25
    evals = 0
    while (step_mu > tol or step_ls > tol):
        improved = False
        for dm, dl in ((step_mu, 0.0), (-step_mu, 0.0), (0.0, step_ls), (0.0, -step_ls)):
            cand = objective(mu + dm, ls + dl)
            evals += 1
            if cand > best:
                best, mu, ls = cand, mu + dm, ls + dl
                improved = True
        if not improved:
            step_mu *= 0.5
            step_ls *= 0.5
        if evals > max_iterations:
            raise RuntimeError(
                f"MLE search did not converge within {max_iterations} "
                "objective evaluations")
    return ModelPoint(mu=mu, sigma=math.exp(ls))


def _y_moments(spec: StateSpec):
    """(E[y], Var[y]) under the state's dimensionless kernel."""
    moments = spec._kernel_cache.get("y_moments")
    if moments is None:
        from .quadrature import integrate_real_line
        kf = kernel(spec)
        cfg = QuadConfig(rel_tol=1e-10, abs_tol=1e-12)
        m1 = integrate_real_line(lambda y: y * kf.f(y), cfg, kf.degree_hint + 1)
        m2 = integrate_real_line(lambda y: y * y * kf.f(y), cfg, kf.degree_hint + 2)
        e1 = math.sqrt(2.0) * m1.value
        e2 = math.sqrt(2.0) * m2.value
        moments = (e1, max(e2 - e1 * e1, 1e-12))
        spec._kernel_cache["y_moments"] = moments
    return moments


def _moment_init(spec: StateSpec, x: np.ndarray) -> ModelPoint:
    ey, vy = _y_moments(spec)
    sig = float(np.std(x)) / math.sqrt(2.0 * vy)
    sig = max(sig, 1e-6)
    mu = float(np.mean(x)) - math.sqrt(2.0) * sig * ey
    return ModelPoint(mu=mu, sigma=sig)


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence(entropy=int(seed),
                                      spawn_key=(trial,)).generate_state(1)[0])


def crb_experiment(spec: StateSpec, point: ModelPoint, trials: int,
                   samples_per_trial: int, seed: int) -> CrbReport:
    """Compare the empirical MLE covariance against the Cramer-Rao bound.

    Each trial draws ``samples_per_trial`` positions with its own derived
    seed and fits (mu, sigma) by maximum likelihood.  The covariance of the
    estimates, scaled by ``samples_per_trial``, is matched against the
    inverse Fisher matrix at the true point.  A component is flagged as a
    violation only when it undercuts the bound by more than three standard
    errors of the variance estimate (the MLE is asymptotically efficient,
    so the scaled variances should sit at the bound, never clearly below).
    Failed fits are listed in ``failed_trials``; RuntimeError is raised,
    chained to the first failure, when fewer than 30 fits succeed.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(
            f"need at least {_MIN_TRIALS} trials for a meaningful covariance")
    metric = metric_quadrature(spec, point)
    bound = crb_bound(metric)
    estimates = np.empty((trials, 2))
    failed = []
    first_error = None
    for t in range(trials):
        batch = sample(spec, point, samples_per_trial, _trial_seed(seed, t))
        try:
            fit = mle_fit(batch, spec)
            estimates[t] = (fit.mu, fit.sigma)
        except (RuntimeError, ValueError) as exc:
            estimates[t] = np.nan
            failed.append(t)
            first_error = first_error or exc
    if trials - len(failed) < _MIN_TRIALS:
        raise RuntimeError(
            f"{len(failed)} of {trials} MLE trials failed, leaving fewer "
            f"than {_MIN_TRIALS} estimates") from first_error
    ok = ~np.isnan(estimates[:, 0])
    good = estimates[ok]
    cov = np.cov(good, rowvar=False) * samples_per_trial
    # Relative standard error of a sample variance over T trials.
    se = math.sqrt(2.0 / (good.shape[0] - 1))
    violations = {}
    for idx, name in ((0, "mu"), (1, "sigma")):
        scaled = cov[idx, idx]
        violations[name] = {
            "scaled_variance": float(scaled),
            "bound": float(bound[idx, idx]),
            "margin": 3.0 * se,
            "violated": bool(scaled < bound[idx, idx] * (1.0 - 3.0 * se)),
        }
    return CrbReport(bound=bound, empirical_cov=cov, trials=trials,
                     samples_per_trial=samples_per_trial,
                     violations=violations, failed_trials=tuple(failed),
                     estimates=good)
