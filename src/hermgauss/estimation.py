"""Monte Carlo verification of the Cramer-Rao bounds.

Sampling is by inverse CDF on a tabulated grid (the node structure of the
densities makes rejection envelopes fiddly, while the CDF table reuses the
quadrature truncation window).  The table's cubic Hermite segments take the
kernel's exact f and f'.  The keys are sorted once for an in-order segment
lookup, each draw's quartic CDF is inverted by safeguarded Newton steps, and
the draws are scattered back: bit for bit those of the unsorted keys.

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

A batch that is not shallow can still start in the maximum's cell.  When
the state is pure with real coefficients (rank one) and its packet's roots
z_k are all real, f(y) = c prod_k (y - z_k)^2 exp(-y^2), so
log L = sum_i [2 sum_k log|y_i - z_k| - y_i^2] - N log sigma + const.  In
(eta_1, eta_2) = (mu / sigma, 1 / sigma) each y_i is affine and every term
concave, so log L is strictly concave inside each cell that the lines
x_i = mu + sqrt(2) sigma z_k cut out, and a Newton run that ends inside one
cell ends at that cell's one maximum; only the cell needs a search.  The
cell start: the samples are sorted, and for each node the widest sample
gap within 4 standard errors, sqrt(2) sigma sqrt(Var y / N) (1 + |z_k|), of
its line at the initializer is taken; when those gaps hold the
initializer's own lines, Newton runs from there.  The certificate: the fit
must end in that cell, and no cell that moves one line past up to three
samples may be predicted, from a second-order model of the rest of log L
and the exact log terms of the samples near the line, to come within 1 of
its log L.  The floor: batches of fewer than 1,000 samples skip the cell
start, which saved little time below that size.

Otherwise, or when a Newton attempt fails or is refused, a compass search
first walks uphill from the initializer until its steps fall to 1e-2, which
places it in the maximum's cell, and Newton then polishes the estimate.  A
Newton step that lowers the likelihood, meets a density zero or sees an
indefinite Hessian hands the fit back to the compass search.
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
# Fewest samples for which the MLE tries Newton in the start's cell.  At
# 200 and 500 samples the attempt saved 9-21% of a fit's time on |1>,
# |2> and 0.6|0> + 0.8|1> but cost 5% on |5>, whose start never qualified
# there; at 1,000 it saved 13-25% on all four.
_CELL_FLOOR = 1000
# Half-width, in standard errors of a node's position, of the window
# searched for the widest sample gap around it.
_CELL_WINDOW = 4.0
# A fit from the start's cell stands only if no nearby cell is predicted
# to reach within this much of its log L.
_CELL_MARGIN = 1.0
# Samples on each side of a node whose log terms the nearby-cell
# prediction keeps exact; farther ones enter to second order.
_NEAR = 16
# Samples a line may move past in the cells the certificate checks.
_REACH = 3
# Newton steps toward the best point of a neighbouring gap; a bound on
# the concave remainder covers what they leave.
_GAP_STEPS = 12


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
    first and converged, from the start of a shallow batch or from the
    start's cell, whose certificate evaluates no objective) and the Newton
    passes.  Equality and hashing see (mu, sigma) only, but as for any
    dataclass a fit never equals a plain ``ModelPoint``: compare
    ``(fit.mu, fit.sigma)``."""

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
        """y with CDF(y) = u, vectorized over a 1-D u.

        Each u's table segment [y_k, y_k + h] is found from ``cdf_vals``, so
        the quartic residual r(t) = CDF(y_k + t) - u has r(0) <= 0 <= r(h).
        Newton runs on r from the linear interpolate of the table, keeping a
        bracket [lo, hi] with that sign change and replacing any iterate
        outside it by the bracket's midpoint.  This needs no monotone cubic:
        one that dips just below zero near a density zero still puts the
        draw in its segment.

        The keys are sorted once, so the segment lookup and the gather walk
        the table in order, and the draws are scattered back.  They are the
        unsorted keys' draws bit for bit: each pass is elementwise IEEE
        arithmetic, the passes stop when the whole batch has converged (so
        their count depends on the set of keys, not its order), and tied
        keys give identical draws.
        """
        order = np.argsort(u)
        u = u[order]
        k = np.clip(np.searchsorted(self.cdf_vals, u), 1, self.y.size - 1) - 1
        c4, c3, c2, c1, c0 = np.take(self.coeffs, k, axis=1)
        d4, d3, d2 = 4.0 * c4, 3.0 * c3, 2.0 * c2
        h = self.y[k + 1] - self.y[k]
        tol = _INVERT_TOL * h
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
                d = ((d4 * t + d3) * t + d2) * t + c1
                below = r < 0.0
                lo = np.where(below, t, lo)
                hi = np.where(below, hi, t)
                step = t - r / d
                # Closed bracket: a converged iterate sits on an end point.
                step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
                done = np.abs(step - t) <= tol
                t = step
                if done.all():
                    break
        out = np.empty_like(t)
        out[order] = self.y[k] + t
        return out


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
    # A float or bool count would reach ``rng.random`` as a shape.
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be an int >= 1, got {count!r}")
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

    A compass search walks from the moment-matching point and hands the fit
    to Newton once its steps fall to each scale in turn: at once on a
    shallow batch or one that starts in a qualifying cell (see the module
    docstring; a fit from the cell stands only if certified), then at 1e-2.
    Newton stops at a step below 1e-9 (relative to sigma for mu); if it
    fails, the compass search resumes and runs its steps down to 1e-9.
    The fit fails after ``_MAX_EVALUATIONS`` objective evaluations, Newton
    passes included, and a batch of fewer than two distinct samples, whose
    likelihood has no maximum, is refused.
    """
    spec = batch.spec
    x = np.asarray(batch.draws, dtype=float)
    if x.size == 0 or np.ptp(x) == 0.0:
        raise ValueError("need at least two distinct samples")
    kf = kernel(spec)
    init = _moment_init(spec, x)
    mu, ls = init.mu, math.log(init.sigma)
    shallow = _shallow(spec, x.size)
    cell = None if shallow else _start_cell(spec, x, init)
    handoffs = ([math.inf, _HANDOFF_STEP] if shallow or cell is not None
                else [_HANDOFF_STEP])

    def objective(m, l):
        return log_likelihood(spec, x, m, math.exp(l))

    # The start's log L, evaluated when the compass search first needs it.
    best = None
    steps = passes = 0
    step_mu = max(0.25 * math.exp(ls), 10.0 * _FIT_TOL)
    step_ls = 0.25
    while step_mu > _FIT_TOL or step_ls > _FIT_TOL:
        if (handoffs and step_ls <= handoffs[0]
                and step_mu <= handoffs[0] * math.exp(ls)):
            handoffs.pop(0)
            fit, used = _newton_polish(kf, x, mu, ls,
                                       _MAX_EVALUATIONS - steps - passes)
            passes += used
            if fit is not None and cell is not None and not _certify(fit, *cell):
                fit = None
            cell = None
            if fit is not None:
                return MleFit(fit.mu, fit.sigma, steps, passes)
        if best is None:
            best, steps = objective(mu, ls), 1
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
    return MleFit(mu, math.exp(ls), steps, passes)


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


def _real_nodes(spec: StateSpec):
    """The sorted packet roots of a rank-one state when all are real and
    finite, else None; cached on the spec.  Each is a node of f."""
    nodes = spec._kernel_cache.get("real_nodes", False)
    if nodes is False:
        kf = kernel(spec)
        nodes = None
        if kf.rank == 1:
            z = kf.roots()[0]
            if np.all(np.isfinite(z)) and np.all(z.imag == 0.0):
                nodes = np.sort(z.real)
        spec._kernel_cache["real_nodes"] = nodes
    return nodes


def _start_cell(spec: StateSpec, x: np.ndarray, start: ModelPoint):
    """(sorted samples xs, nodes, the start's cell) when the start's cell
    is the one the widest nearby sample gaps mark out, else None.  A cell
    holds, per node z, the index j of the gap (xs[j-1], xs[j]) that holds
    the node's line x = mu + sqrt(2) sigma z.

    Only a rank-one state whose roots are all real and finite, and a batch
    of at least ``_CELL_FLOOR`` samples, qualify.  For each node z the window
    is ``_CELL_WINDOW`` standard errors of its line's position at the start,
    sqrt(2) sigma sqrt(Var y / N) (1 + |z|), to either side; a gap that
    meets the window counts, the unbounded end gaps included.
    """
    nodes = _real_nodes(spec)
    if nodes is None or x.size < _CELL_FLOOR:
        return None
    xs = np.sort(x)
    pos = start.mu + math.sqrt(2.0) * start.sigma * nodes
    cell = np.searchsorted(xs, pos)
    gaps = np.diff(xs, prepend=-math.inf, append=math.inf)
    half = (_CELL_WINDOW * math.sqrt(2.0 * _y_moments(spec)[1] / x.size)
            * start.sigma * (1.0 + np.abs(nodes)))
    lo = np.searchsorted(xs, pos - half)
    hi = np.searchsorted(xs, pos + half)
    widest = [a + int(np.argmax(gaps[a:b + 1])) for a, b in zip(lo, hi)]
    if not np.array_equal(widest, cell):
        return None
    return xs, nodes, cell


def _certify(fit, xs, nodes, cell):
    """Whether ``fit``, Newton's end from the start's cell, lies in that
    cell while no cell that moves one line past up to ``_REACH`` samples is
    predicted to come within ``_CELL_MARGIN`` of its log L.

    At rank one with real nodes z_k, log L = sum_k Psi_k(p_k) - sum_i y_i^2
    - (2K + 1) N log sigma + const, where p_k = mu + sqrt(2) sigma z_k is
    node k's line and Psi_k(p) = 2 sum_i log|x_i - p|.  Take out of log L
    the terms of the ``_NEAR`` samples on each side of p_k; to second order
    the rest, at its best (mu, sigma) for a line moved by t, falls by
    stiff t^2 / 2, with stiff = -1 / (a^T H^-1 a) less those terms' share
    of -Psi_k'', for H the Hessian of log L on (mu, sigma) at the fit and
    a = (1, w_k), w_k = sqrt(2) z_k.  So moving p_k into a nearby gap can
    raise log L by about the maximum over it of
    D(t) = 2 sum [log|1 - t/d_i| + t/d_i] - stiff t^2 / 2, d_i the near
    samples' offsets from p_k.  D is concave in the gap; Newton steps
    approach its maximum, and D(t) + D'(t)^2 / (2 m) bounds it from any t,
    with m <= -D'' there.
    """
    n, sigma, root2 = xs.size, fit.sigma, math.sqrt(2.0)
    pos = fit.mu + root2 * sigma * nodes
    if not np.array_equal(np.searchsorted(xs, pos), cell):
        return False
    inv = 1.0 / (xs - pos[:, None])
    curv = 2.0 * np.sum(inv * inv, axis=1)
    # The Hessian of log L on (mu, sigma), where line k moves by (1, w_k).
    w = root2 * nodes
    u = xs - fit.mu
    h00 = -n / sigma ** 2 - curv.sum()
    h01 = -2.0 * u.sum() / sigma ** 3 - curv @ w
    h11 = (((2 * nodes.size + 1) * n - 3.0 * (u @ u) / sigma ** 2) / sigma ** 2
           - curv @ (w * w))
    # The samples near each node, as offsets from its line; window slots
    # past an end of the batch hold an infinity on that side.
    slot = np.arange(-_NEAR, _NEAR)
    idx = cell[:, None] + slot
    d = np.where((idx >= 0) & (idx < n), xs[np.clip(idx, 0, n - 1)] - pos[:, None],
                 np.copysign(math.inf, slot + 0.5))
    spread = (h11 - 2.0 * w * h01 + w * w * h00) / (h00 * h11 - h01 * h01)
    stiff = -1.0 / spread - 2.0 * np.sum(1.0 / (d * d), axis=1)
    if not np.all(stiff > 0.0):
        return False
    # Slot _NEAR holds the first sample right of a line, so the gap s
    # samples over is (d[_NEAR + s - 1], d[_NEAR + s]); one past an end of
    # the batch is open, and is searched as deep as the line's own gap is
    # wide (the bound below covers the rest).
    own = d[:, _NEAR] - d[:, _NEAR - 1]
    shift = _NEAR + np.r_[-_REACH:0, 1:_REACH + 1]
    left, right = d[:, shift - 1], d[:, shift]
    k, s = np.nonzero(np.isfinite(left) | np.isfinite(right))
    left, right, own, stiff, d = left[k, s], right[k, s], own[k], stiff[k], d[k]
    lo = np.where(np.isfinite(left), left, right - own)
    hi = np.where(np.isfinite(right), right, lo + own)
    base = 2.0 * np.sum(1.0 / d, axis=1)
    # Newton on F = D' (t - left) (right - t), over the finite factors:
    # F has no poles and is about quadratic over the gap.
    span = hi - lo
    t = 0.5 * (lo + hi)
    for _ in range(_GAP_STEPS):
        r = 1.0 / (d - t[:, None])
        slope = base - 2.0 * np.sum(r, axis=1) - stiff * t
        bend = -2.0 * np.sum(r * r, axis=1) - stiff
        to_lo, to_hi = np.minimum(t - left, span), np.minimum(right - t, span)
        move = -slope * to_lo * to_hi / (bend * to_lo * to_hi + slope * (to_hi - to_lo))
        if np.all(np.abs(move) <= 1e-6 * span):
            break
        rise = slope > 0.0
        lo, hi = np.where(rise, t, lo), np.where(rise, hi, t)
        t = t + move
        inside = (t >= lo) & (t <= hi) & (t > left) & (t < right)
        t = np.where(inside, t, 0.5 * (lo + hi))
    r = t[:, None] / d
    gain = 2.0 * np.sum(np.log(np.abs(1.0 - r)) + r, axis=1) - 0.5 * stiff * t * t
    slope = base - 2.0 * np.sum(1.0 / (d - t[:, None]), axis=1) - stiff * t
    # The gap's two samples alone make -D'' >= stiff + 16 / width^2.
    gain += 0.5 * slope * slope / (stiff + 16.0 / (right - left) ** 2)
    return bool(np.all(gain < -_CELL_MARGIN))


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
    fits = []
    failed = []
    reasons = []
    first_error = None
    for t in range(trials):
        batch = sample(spec, point, samples_per_trial, _trial_seed(seed, t))
        try:
            fits.append(mle_fit(batch))
        except (RuntimeError, ValueError) as exc:
            failed.append(t)
            reasons.append(f"{type(exc).__name__}: {exc}")
            first_error = first_error or exc
    if len(fits) < _MIN_TRIALS:
        raise RuntimeError(
            f"{len(failed)} of {trials} MLE trials failed, leaving fewer "
            f"than {_MIN_TRIALS} estimates") from first_error
    good = np.array([(fit.mu, fit.sigma) for fit in fits])
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
                     compass_evaluations=sum(f.compass_evaluations for f in fits),
                     newton_passes=sum(f.newton_passes for f in fits),
                     estimates=good)
