"""Monte Carlo verification of the Cramer-Rao bounds.

Sampling is by inverse CDF on a tabulated grid (the node structure of the
densities makes rejection envelopes fiddly, while the CDF table reuses the
quadrature truncation window).  The table's cubic Hermite segments take the
kernel's exact f and f'; each draw's segment is found once and its quartic
CDF is inverted by safeguarded Newton steps.

Maximum likelihood works on (mu, log sigma) from the moment initializer,
whose E[y] and Var y are sums over the state's table.  The log-likelihood is
-inf on every line where a sample sits on a density node, and nearly so
where it sits in a deep dip of f; such lines cut the plane into cells a few
hundredths of sigma wide, and Newton started from the initializer can land
in the wrong cell.  The dips of f sit at the roots of its packets
(``KernelFn.roots``): at the real part z of each, f is locally
f(z) (1 + u^2 / delta^2) with half-width delta = sqrt(2 f(z) / f''(z)).  A
sample in a dip pulls log L by up to 1 / delta per unit of y, against a
pull toward the maximum that grows with the sample count N; so when every
dip is at least 50 sqrt(Var y) / N wide, the batch is shallow: its
likelihood has no barriers on the scale of a fit, and Newton on the analytic
score and observed information runs straight from the initializer.
Otherwise, or when that Newton attempt fails, a compass search first walks
uphill from the initializer until its steps fall to 1e-2, which places it in
the maximum's cell, and Newton then polishes the estimate.  A Newton step
that lowers the likelihood, meets a density zero or sees an indefinite
Hessian hands the fit back to the compass search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import crb_bound, metric_quadrature
from .models import ModelPoint, StateSpec, kernel
from .quadrature import QuadratureError, truncation_halfwidth

__all__ = [
    "SampleBatch",
    "MleFit",
    "CrbReport",
    "sample",
    "mle_fit",
    "crb_experiment",
]

_CDF_NODES = 8192
# Newton steps on a CDF segment stop below this fraction of its width.
_INVERT_TOL = 1e-12
# Compass steps at which the MLE hands over to Newton: relative to sigma for
# mu, absolute for log sigma.
_HANDOFF_STEP = 1e-2
# Step at which the MLE stops: relative to sigma for mu, absolute for log sigma.
_FIT_TOL = 1e-9
# Relative change of log L below which a Newton step's "fall" is rounding.
_LL_ROUNDING = 1e-12
# Fewest trials (and surviving fits) that make the covariance meaningful.
_MIN_TRIALS = 30
# Objective evaluations, Newton passes included, after which a fit fails.
_MAX_EVALUATIONS = 20000
# Narrowest dip half-width of f, relative to sqrt(Var y) and times the
# sample count, of a shallow batch.  Newton from the initializer was seen
# to miss the maximum only below 5.2, from 50 to 100,000 samples.
_SHALLOW_DIP = 50.0


@dataclass(frozen=True)
class SampleBatch:
    spec: StateSpec
    true_point: ModelPoint
    draws: np.ndarray
    rng_seed: int


@dataclass(frozen=True)
class MleFit(ModelPoint):
    """A maximum-likelihood point with the work that found it: the compass
    search's objective evaluations (its start included; 0 when Newton ran
    first and converged) and the Newton passes.  Equality and hashing see
    (mu, sigma) only, but as for any dataclass a fit never equals a plain
    ``ModelPoint``: compare ``(fit.mu, fit.sigma)``."""

    compass_evaluations: int = field(default=0, compare=False)
    newton_passes: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CrbReport:
    bound: np.ndarray
    empirical_cov: np.ndarray
    trials: int
    samples_per_trial: int
    violations: dict
    failed_trials: tuple
    failure_reasons: tuple
    compass_evaluations: int
    newton_passes: int
    estimates: np.ndarray = field(repr=False)


class _CdfTable:
    """CDF of the dimensionless variable y: the piecewise-quartic
    antiderivative of the cubic Hermite interpolant of the kernel's exact f
    and f' (one ``kf.jet(y, 1)`` call) on the nodes.

    ``coeffs`` holds each segment's quartic in t = y - y_k, highest power
    first (the layout of scipy's ``PPoly.c``); its last row is the
    unnormalized CDF at the segment's left end, a running sum of the
    segments' integrals.
    """

    def __init__(self, spec: StateSpec):
        kf = kernel(spec)
        cut = truncation_halfwidth(kf.degree_hint + 2, 1e-14)
        y = np.linspace(-cut, cut, _CDF_NODES)
        dens, d = kf.jet(y, 1)
        h = np.diff(y)
        secant = np.diff(dens) / h
        t = (d[:-1] + d[1:] - 2.0 * secant) / h
        # The cubic Hermite segment's coefficients, each divided by its
        # power + 1: the quartic antiderivative in t, zero at t = 0.
        c = np.empty((5, h.size))
        c[0] = t / h / 4.0
        c[1] = ((secant - d[:-1]) / h - t) / 3.0
        c[2] = d[:-1] / 2.0
        c[3] = dens[:-1]
        mass = (((c[0] * h + c[1]) * h + c[2]) * h + c[3]) * h
        vals = np.concatenate(([0.0], np.cumsum(mass)))
        c[4] = vals[:-1]
        total = vals[-1]
        if not np.isfinite(total) or total <= 0.0:
            raise QuadratureError("CDF tabulation failed: non-positive mass")
        self.y = y
        self.cdf_vals = vals / total
        self.coeffs = c
        self.total = total

    def invert(self, u: np.ndarray) -> np.ndarray:
        """y with CDF(y) = u, vectorized over u.

        Each u's table segment [y_k, y_k + h] is found from ``cdf_vals``, so
        the quartic residual r(t) = CDF(y_k + t) - u has r(0) <= 0 <= r(h).
        Newton runs on r from the linear interpolate of the table, keeping a
        bracket [lo, hi] with that sign change and replacing any iterate
        outside it by the bracket's midpoint.  This needs no monotone cubic:
        one that dips just below zero near a density zero still puts the
        draw in its segment.
        """
        k = np.clip(np.searchsorted(self.cdf_vals, u), 1, self.y.size - 1) - 1
        c4, c3, c2, c1, c0 = self.coeffs[:, k]
        h = self.y[k + 1] - self.y[k]
        target = u * self.total
        lo = np.zeros_like(h)
        hi = h.copy()
        mass = self.cdf_vals[k + 1] - self.cdf_vals[k]
        frac = np.divide(u - self.cdf_vals[k], mass,
                         out=np.full_like(h, 0.5), where=mass > 0.0)
        t = h * np.clip(frac, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Three or four passes in practice; 60 bisections alone would
            # exhaust double precision on any segment.
            for _ in range(60):
                r = (((c4 * t + c3) * t + c2) * t + c1) * t + c0 - target
                d = ((4.0 * c4 * t + 3.0 * c3) * t + 2.0 * c2) * t + c1
                below = r < 0.0
                lo = np.where(below, t, lo)
                hi = np.where(below, hi, t)
                step = t - r / d
                # Closed bracket: a converged iterate sits on an end point.
                step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
                done = np.abs(step - t) <= _INVERT_TOL * h
                t = step
                if done.all():
                    break
        return self.y[k] + t


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
    """Sum of log P(x_i | mu, sigma); -inf when a sample sits on a density zero."""
    y = (x - mu) / (math.sqrt(2.0) * sigma)
    f = kernel(spec).f(y)
    if not np.all(f > 0.0):
        return -math.inf
    return float(np.sum(np.log(f))) - x.size * math.log(sigma)


def mle_fit(batch: SampleBatch) -> MleFit:
    """Maximum-likelihood (mu, sigma) of ``batch.spec`` on (mu, log sigma).

    On a shallow batch (see the module docstring) Newton runs from the
    moment-matching point until a step is below 1e-9 (relative to sigma for
    mu).  Otherwise, or if that Newton attempt fails, a compass search walks
    from the moment-matching point until its steps fall to 1e-2, then Newton
    polishes; if Newton fails again, the compass search resumes and runs its
    steps down to 1e-9.  The fit fails after ``_MAX_EVALUATIONS`` objective
    evaluations, Newton passes included.
    """
    spec = batch.spec
    x = np.asarray(batch.draws, dtype=float)
    if x.size == 0:
        raise ValueError("empty batch")
    if x.size > 1 and np.ptp(x) == 0.0:
        raise ValueError("degenerate batch: all samples identical")
    kf = kernel(spec)
    init = _moment_init(spec, x)
    mu, ls = init.mu, math.log(init.sigma)
    passes = 0
    if _shallow(spec, x.size):
        fit, passes = _newton_polish(kf, x, mu, ls, _MAX_EVALUATIONS)
        if fit is not None:
            return MleFit(fit.mu, fit.sigma, 0, passes)

    def objective(m, l):
        return log_likelihood(spec, x, m, math.exp(l))

    best = objective(mu, ls)
    # Compass steps after the start, which the budget does not count.
    steps = 0
    step_mu = max(0.25 * math.exp(ls), 10.0 * _FIT_TOL)
    step_ls = 0.25
    polish = True
    while step_mu > _FIT_TOL or step_ls > _FIT_TOL:
        if (polish and step_ls <= _HANDOFF_STEP
                and step_mu <= _HANDOFF_STEP * math.exp(ls)):
            polish = False
            fit, used = _newton_polish(kf, x, mu, ls,
                                       _MAX_EVALUATIONS - steps - passes)
            passes += used
            if fit is not None:
                return MleFit(fit.mu, fit.sigma, steps + 1, passes)
        improved = False
        for dm, dl in ((step_mu, 0.0), (-step_mu, 0.0), (0.0, step_ls), (0.0, -step_ls)):
            cand = objective(mu + dm, ls + dl)
            steps += 1
            if cand > best:
                best, mu, ls = cand, mu + dm, ls + dl
                improved = True
        if not improved:
            step_mu *= 0.5
            step_ls *= 0.5
        if steps + passes > _MAX_EVALUATIONS:
            raise RuntimeError(
                f"MLE search did not converge within {_MAX_EVALUATIONS} "
                "objective evaluations")
    return MleFit(mu, math.exp(ls), steps + 1, passes)


def _shallow(spec: StateSpec, count: int) -> bool:
    """Whether every dip of f is at least ``_SHALLOW_DIP`` sqrt(Var y) / count
    wide.

    A dip is the real part z of a packet root where f'' > 0, and its
    half-width is sqrt(2 f(z) / f''(z)).  Testing f(z) > 0 instead would not
    do: f at the nodes of |2> rounds to ~1e-33, not 0.  The narrowest
    half-width over sqrt(Var y) is cached on the spec: inf with no dip, 0
    when a root is not finite.
    """
    narrowest = spec._kernel_cache.get("narrowest_dip")
    if narrowest is None:
        kf = kernel(spec)
        z = np.concatenate(kf.roots())
        narrowest = 0.0
        if np.all(np.isfinite(z)):
            f, _, d2 = kf.jet(z.real, 2)
            dip = d2 > 0.0
            width = np.sqrt(2.0 * f[dip] / d2[dip])
            narrowest = (float(width.min(initial=math.inf))
                         / math.sqrt(_y_moments(spec)[1]))
        spec._kernel_cache["narrowest_dip"] = narrowest
    return narrowest * count >= _SHALLOW_DIP


def _loglik_jet(kf, x, mu, ls):
    """(log L, score, Hessian) on (mu, log sigma); None if some f <= 0.

    With y = (x - mu) / (sqrt(2) sigma), a = 1 / (sqrt(2) sigma),
    r1 = f'/f and q = (log f)'' = f''/f - r1^2 per sample:
    d/dmu = -a sum r1, d/dlog sigma = -sum r1 y - N, and the Hessian is
    a^2 sum q, a sum (q y + r1), sum (q y + r1) y.
    """
    sigma = math.exp(ls)
    a = 1.0 / (math.sqrt(2.0) * sigma)
    y = (x - mu) * a
    f, d1, d2 = kf.jet(y, 2)
    if not np.all(f > 0.0):
        return None
    r1 = d1 / f
    q = d2 / f - r1 * r1
    mixed = q * y + r1
    ll = float(np.sum(np.log(f))) - x.size * ls
    score = np.array([-a * np.sum(r1), -float(r1 @ y) - x.size])
    h_mm = a * a * np.sum(q)
    h_ml = a * np.sum(mixed)
    hess = np.array([[h_mm, h_ml], [h_ml, float(mixed @ y)]])
    return ll, score, hess


def _newton_polish(kf, x, mu, ls, budget):
    """Newton ascent from (mu, log sigma): (ModelPoint or None, passes).

    None when a step would lower log L by more than rounding or meet a
    density zero, when -H is not positive definite, or when ``budget``
    passes run out.
    """
    jet = _loglik_jet(kf, x, mu, ls)
    passes = 1
    while jet is not None and passes < budget:
        ll, score, hess = jet
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
        if not (hess[0, 0] < 0.0 and det > 0.0):
            break
        d_mu, d_ls = -np.linalg.solve(hess, score)
        if abs(d_mu) <= _FIT_TOL * math.exp(ls) and abs(d_ls) <= _FIT_TOL:
            return ModelPoint(mu=mu + d_mu, sigma=math.exp(ls + d_ls)), passes
        jet = _loglik_jet(kf, x, mu + d_mu, ls + d_ls)
        passes += 1
        if jet is None or jet[0] < ll - _LL_ROUNDING * abs(ll):
            break
        mu, ls = mu + d_mu, ls + d_ls
    return None, passes


def _y_moments(spec: StateSpec):
    """(E[y], Var y) from the table: E[y^p] = sum_nm Re(lambda_nm) <n|y^p|m>.

    By the ladder identity y psi_n = sqrt((n+1)/2) psi_{n+1} + sqrt(n/2) psi_{n-1},
    <n|y|m> = sqrt(k/2) for |n - m| = 1, <n|y^2|m> = n + 1/2 for n = m and
    sqrt(k(k-1))/2 for |n - m| = 2 (k = max(n, m)); the rest are zero.
    """
    moments = spec._kernel_cache.get("y_moments")
    if moments is None:
        e1, e2 = [], []
        for (n, m), v in spec.table.items():
            k = max(n, m)
            if n == m:
                e2.append(v.real * (n + 0.5))
            elif abs(n - m) == 1:
                e1.append(v.real * math.sqrt(k / 2.0))
            elif abs(n - m) == 2:
                e2.append(v.real * math.sqrt(k * (k - 1)) / 2.0)
        ey = math.fsum(e1)
        moments = (ey, max(math.fsum(e2) - ey * ey, 1e-12))
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
    Failed fits are listed in ``failed_trials``, with ``"ExcType: message"``
    for each in ``failure_reasons``; RuntimeError is raised,
    chained to the first failure, when fewer than 30 fits succeed.  The
    compass objective evaluations and Newton passes of the fits that
    succeed are summed in ``compass_evaluations`` and ``newton_passes``.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(
            f"need at least {_MIN_TRIALS} trials for a meaningful covariance")
    metric = metric_quadrature(spec, point)
    bound = crb_bound(metric)
    estimates = np.empty((trials, 2))
    failed = []
    reasons = []
    first_error = None
    compass = passes = 0
    for t in range(trials):
        batch = sample(spec, point, samples_per_trial, _trial_seed(seed, t))
        try:
            fit = mle_fit(batch)
            estimates[t] = (fit.mu, fit.sigma)
            compass += fit.compass_evaluations
            passes += fit.newton_passes
        except (RuntimeError, ValueError) as exc:
            estimates[t] = np.nan
            failed.append(t)
            reasons.append(f"{type(exc).__name__}: {exc}")
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
                     failure_reasons=tuple(reasons),
                     compass_evaluations=compass, newton_passes=passes,
                     estimates=good)
