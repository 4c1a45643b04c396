"""Monte Carlo verification of the Cramer-Rao bounds.

Sampling is by inverse CDF on a tabulated grid (the node structure of the
densities makes rejection envelopes fiddly, while the CDF table reuses the
quadrature truncation window).  The table's cubic Hermite segments take the
kernel's exact f and f'.  Each key finds its segment through a guide table
(Chen & Asau, 1974), with a binary search where a guide cell spans several
segments and for every key of a small batch drawn before the table's first
large one, fetches the segment's row in one gather, and has its quartic CDF
inverted by safeguarded Newton steps; every pass is elementwise, so a draw
depends on its own key alone.

Maximum likelihood works on (mu, log sigma) from the moment initializer,
whose E[y] and Var y are sums over the state's table.  The log-likelihood is
-inf on every line where a sample sits on a density node, and nearly so
where it sits in a deep dip of f; such lines cut the plane into cells a few
hundredths of sigma wide, and Newton started from the initializer can land
in the wrong cell.  The dips of f sit at the roots of its packets
(``KernelFn.roots``): at the real part z of each, f is locally
f(z) (1 + u^2 / delta^2) with half-width delta = sqrt(2 f(z) / f''(z)), and
delta = 0 at a real root of a rank-one state, a node.  ``models._dips``
lists every dip (z, delta) once per spec.  A sample in a dip pulls log L by
up to 1 / delta per unit of y, against a pull toward the maximum that grows
with the sample count N; so a dip narrower than 50 sqrt(Var y) / N is deep,
a barrier on the scale of a fit, and a wider one is not.

A batch without deep dips has no barrier, and Newton on the analytic score
and observed information runs straight from the initializer.  When every
deep dip is a node, a real root z_k of a rank-one state,
log L = sum_i 2 sum_k log|y_i - z_k| + (the rest of log L).  In
(eta_1, eta_2) = (mu / sigma, 1 / sigma) each y_i is affine and every nodal
term concave, and when all roots are real so is the rest: a Newton run
that ends inside one cell that the lines x = mu + sqrt(2) sigma z_k cut out
ends at that cell's one maximum.  A complex pair too wide to be deep adds
no barrier on the scale of a fit.  So only the cell needs a search.  The
cell start: the samples are sorted, and for each line the widest sample
gap within 4 standard errors, sqrt(2) sigma sqrt(Var y / N) (1 + |z|), of
its position at the initializer is taken; when those gaps hold the
initializer's own lines, Newton runs from there.  The certificate: the fit
must end in that cell, and no cell that moves one line past up to three
samples may be predicted, from a second-order model of the rest of log L
and the exact log terms of the samples near the line, to come within 1 of
its log L.  A deep dip that is not a node (f(z) > 0) leaves no concave
cell, and the compass search goes first.

So ``_start_cell`` sends every batch whose cell qualifies to Newton once,
from the initializer.  Otherwise, or when that fit fails or is refused, a
compass search walks uphill from the initializer until its steps fall to
1e-2 (relative to sigma for mu), which places it in the maximum's cell,
and hands the fit to Newton once; a Newton step that lowers the
likelihood, meets a density zero or sees an indefinite Hessian hands it
back to the search, which runs its steps down to 1e-9.  Every step and
stop is relative to sigma, so the fit does not depend on the length unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import crb_bound, metric_quadrature
from .hermite import _integer
from .models import ModelPoint, StateSpec, _dips, _per_spec, _y_moments, kernel
from .quadrature import QuadConfig, QuadratureError, truncation_halfwidth

__all__ = [
    "SampleBatch",
    "MleFit",
    "CrbReport",
    "sample",
    "mle_fit",
    "crb_experiment",
]

_CDF_NODES = 8192
# Guide-table cells over [0, 1] of the CDF: a power of two, so that u times
# it and the cell bounds are exact.
_GUIDE_CELLS = 8192
# Fewest keys in a batch that builds the guide table: the build costs about
# as much as a thousand binary searches, so smaller batches, such as
# verify's, take those instead until a larger one has built it.
_GUIDE_FLOOR = 1024
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
# Fewest samples per trial whose likelihood can have a maximum.
_MIN_SAMPLES = 2
# Objective evaluations, Newton passes included, after which a fit fails.
_MAX_EVALUATIONS = 20000
# Dip half-width of f, relative to sqrt(Var y) and times the sample count,
# below which a dip is deep and gets a line in the start's cell.  Newton
# from the initializer was seen to miss the maximum only below 5.2, from 50
# to 100,000 samples.
_SHALLOW_DIP = 50.0
# Half-width, in standard errors of a line's position, of the window
# searched for the widest sample gap around it.
_CELL_WINDOW = 4.0
# A fit from the start's cell stands only if no nearby cell is predicted
# to reach within this much of its log L.
_CELL_MARGIN = 1.0
# Samples on each side of a line whose log terms the nearby-cell
# prediction keeps exact; farther ones enter to second order.
_NEAR = 16
# Samples a line may move past in the cells the certificate checks.
_REACH = 3
# Points of a neighbouring gap at which the certificate bounds its best:
# Chebyshev points, as fractions of the gap's width, crowded toward its
# ends, where the samples' log terms bend most.
_GAP_POINTS = 32
_GAP_FRACTIONS = 0.5 - 0.5 * np.cos(np.pi * (np.arange(_GAP_POINTS) + 0.5) / _GAP_POINTS)


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
    first from the start's cell and its fit stood, as the certificate
    evaluates no objective) and the Newton
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
    and f' (one ``kf.jet(y, 1)`` call) on the nodes ``y``.

    ``rows`` holds, per node y_k, the row of the segment [y_k, y_{k+1}]:
    its quartic in t = y - y_k, highest power first (the layout of scipy's
    ``PPoly.c``, ``coeffs`` being a view of these five rows), whose last
    term is the unnormalized CDF at y_k, a running sum of the segments'
    integrals; then the segment's width, its normalized mass, y_k and the
    normalized CDF at y_k (``cdf_vals`` being a view of the last row and
    ``y`` of the one before).  The last node's column has no segment.

    ``guide()`` builds the guide table on its first call, and ``segments``
    on its first batch of at least ``_GUIDE_FLOOR`` keys.
    """

    def __init__(self, spec: StateSpec):
        kf = kernel(spec)
        cut = truncation_halfwidth(kf.degree_hint + 2, 1e-14)
        nodes = np.linspace(-cut, cut, _CDF_NODES)
        dens, d = kf.jet(nodes, 1)
        rows = np.empty((9, _CDF_NODES))
        # The last column holds no segment, and the running sum starts at 0.
        rows[:, -1] = rows[4, 0] = 0.0
        c, h, mass, y, cdf = rows[:5, :-1], rows[5, :-1], rows[6, :-1], rows[7], rows[8]
        y[:] = nodes
        np.subtract(y[1:], y[:-1], out=h)
        secant = np.subtract(dens[1:], dens[:-1])
        secant /= h
        t = np.add(d[:-1], d[1:])
        t -= 2.0 * secant
        t /= h
        # The cubic Hermite segment's coefficients, each divided by its
        # power + 1: the quartic antiderivative in t, zero at t = 0.
        np.divide(t, h, out=c[0])
        c[0] /= 4.0
        np.subtract(secant, d[:-1], out=c[1])
        c[1] /= h
        c[1] -= t
        c[1] /= 3.0
        np.divide(d[:-1], 2.0, out=c[2])
        c[3] = dens[:-1]
        # The segments' integrals, and their running sum.
        _horner(c[:4], h, mass)
        mass *= h
        np.cumsum(mass, out=rows[4, 1:])
        total = rows[4, -1]
        if not np.isfinite(total) or total <= 0.0:
            raise QuadratureError("CDF tabulation failed: non-positive mass")
        np.divide(rows[4], total, out=cdf)
        np.subtract(cdf[1:], cdf[:-1], out=mass)
        self._guide = None
        self.rows = rows
        self.y = y
        self.cdf_vals = cdf
        self.coeffs = c
        self.total = total

    def guide(self) -> np.ndarray:
        """Per cell [j, j + 1) / _GUIDE_CELLS of the CDF, the segment of a
        key at the cell's left end: the number of ``cdf_vals`` below the
        cell, less one.  It is -1 where that cannot place every key of the
        cell: in a cell that holds more than one of the values, in the end
        cells j = 0 and j = _GUIDE_CELLS (which takes every key >= 1), and
        throughout a table that is not monotone.  Built in O(nodes) on the
        first call.
        """
        if self._guide is None:
            # Cell j holds the values v with floor(v * _GUIDE_CELLS) = j.
            guide = np.full(_GUIDE_CELLS + 1, -1)
            if (self.rows[6, :-1] >= 0.0).all():
                held = np.bincount((self.cdf_vals * _GUIDE_CELLS).astype(np.intp),
                                   minlength=_GUIDE_CELLS + 1)
                np.cumsum(held[:-1], out=guide[1:])
                guide -= 1
                np.putmask(guide, held > 1, -1)
                guide[0] = guide[-1] = -1
            self._guide = guide
        return self._guide

    def segments(self, u: np.ndarray) -> np.ndarray:
        """Each key's segment, clip(searchsorted(cdf_vals, u), 1, n - 1) - 1,
        for a 1-D u without NaN.

        A key in a cell whose guide is k >= 0 lies above the k + 1 values
        below the cell and below every value past the one at most in it, so
        its segment is k + (cdf_vals[k + 1] < u); a key in any other cell is
        placed by ``searchsorted``, as is every key of a batch of fewer than
        ``_GUIDE_FLOOR`` before the guide is built.
        """
        if self._guide is None and u.size < _GUIDE_FLOOR:
            return np.clip(np.searchsorted(self.cdf_vals, u), 1, self.y.size - 1) - 1
        cell = np.clip(u * _GUIDE_CELLS, 0.0, _GUIDE_CELLS).astype(np.intp)
        k = self.guide()[cell]
        wide = np.flatnonzero(k < 0)
        k += self.cdf_vals[1:][k] < u
        if wide.size:
            k[wide] = np.clip(np.searchsorted(self.cdf_vals, u[wide]),
                              1, self.y.size - 1) - 1
        return k

    def invert(self, u: np.ndarray) -> np.ndarray:
        """y with CDF(y) = u, vectorized over a 1-D u without NaN.

        Each u's table segment [y_k, y_k + h] is found from ``cdf_vals``, so
        the quartic residual r(t) = CDF(y_k + t) - u has r(0) <= 0 <= r(h).
        Newton runs on r from the linear interpolate of the table, keeping a
        bracket [lo, hi] with that sign change and replacing any iterate
        outside it by the bracket's midpoint.  This needs no monotone cubic:
        one that dips just below zero near a density zero still puts the
        draw in its segment.

        One gather fetches each key's row, and the passes run on reused
        buffers.  Every pass is elementwise IEEE arithmetic and the passes
        stop when the whole batch has converged, so the draws do not depend
        on the keys' order, and tied keys give identical draws.
        """
        c4, c3, c2, c1, c0, h, mass, left, start = np.take(
            self.rows, self.segments(u), axis=1)
        d4, d3, d2 = 4.0 * c4, 3.0 * c3, 2.0 * c2
        tol = _INVERT_TOL * h
        target = u * self.total
        lo = np.zeros_like(h)
        hi = h.copy()
        frac = np.divide(u - start, mass,
                         out=np.full_like(h, 0.5), where=mass > 0.0)
        t = h * np.clip(frac, 0.0, 1.0)
        r, d = np.empty((2, h.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            # Three or four passes in practice; 60 bisections alone would
            # exhaust double precision on any segment.
            for _ in range(60):
                _horner((c4, c3, c2, c1, c0), t, r)
                r -= target
                below = r < 0.0
                lo = np.where(below, t, lo)
                hi = np.where(below, hi, t)
                r /= _horner((d4, d3, d2, c1), t, d)
                step = np.subtract(t, r, out=r)
                # Closed bracket: a converged iterate sits on an end point.
                mid = np.add(lo, hi, out=d)
                mid *= 0.5
                step = np.where((step >= lo) & (step <= hi), step, mid)
                moved = np.abs(np.subtract(step, t, out=t), out=t)
                t = step
                if (moved <= tol).all():
                    break
        t += left
        return t


def _horner(coeffs, t, out):
    """((coeffs[0] t + coeffs[1]) t + ...) t + coeffs[-1], evaluated into
    ``out`` by the same IEEE operations in the same order."""
    np.multiply(coeffs[0], t, out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= t
    out += coeffs[-1]
    return out


@_per_spec
def _cdf_table(spec: StateSpec) -> _CdfTable:
    return _CdfTable(spec)


def sample(spec: StateSpec, point: ModelPoint, count: int, seed: int) -> SampleBatch:
    """Draw i.i.d. position samples by inverse-CDF lookup.

    Reproducible: the same (spec, point, count, seed) always yields the
    same draws.  ``count`` is an integer >= 1 and ``seed`` one >= 0.
    """
    # A float or bool count would reach ``rng.random`` as a shape.
    count, seed = _integer(count, "count", 1), _integer(seed, "seed")
    table = _cdf_table(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = rng.random(count)
    y = table.invert(u)
    x = point.mu + math.sqrt(2.0) * point.sigma * y
    return SampleBatch(spec=spec, true_point=point, draws=x, rng_seed=seed)


def log_likelihood(spec: StateSpec, x: np.ndarray, mu: float, sigma: float) -> float:
    """Sum of log P(x_i | mu, sigma); -inf when a sample sits on a density zero."""
    y = (x - mu) / (math.sqrt(2.0) * sigma)
    f = kernel(spec).f(y)
    if not f.min() > 0.0:
        return -math.inf
    return float(np.log(f, out=f).sum()) - x.size * math.log(sigma)


def mle_fit(batch: SampleBatch) -> MleFit:
    """Maximum-likelihood (mu, sigma) of ``batch.spec`` on (mu, log sigma).

    When ``_start_cell`` gives a cell, one sample gap per deep dip of f
    (none when no dip is deep), Newton runs once from the moment-matching
    point, and its fit stands if it converges and ``_certify`` finds no
    better cell nearby.  Otherwise a compass search walks from that point
    and hands the fit to Newton once its steps fall to 1e-2; if Newton
    fails there, the search runs its steps down to 1e-9 (relative to sigma
    for mu), the step at which Newton also stops.  The fit fails after
    ``_MAX_EVALUATIONS`` objective evaluations, Newton passes included.  A
    batch with a draw that is not finite, or of fewer than two distinct
    samples, whose likelihood has no maximum, is refused.
    """
    spec = batch.spec
    x = np.asarray(batch.draws, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("draws must be finite")
    if x.size == 0 or np.ptp(x) == 0.0:
        raise ValueError("need at least two distinct samples")
    kf = kernel(spec)
    init = _moment_init(spec, x)
    mu, ls = init.mu, math.log(init.sigma)
    cell, passes = _start_cell(spec, x, init), 0
    if cell is not None:
        fit, jet, passes = _newton_polish(kf, x, mu, ls, _MAX_EVALUATIONS)
        if fit is not None and _certify(fit, jet, *cell):
            return MleFit(fit.mu, fit.sigma, 0, passes)
    best, steps = log_likelihood(spec, x, mu, math.exp(ls)), 1
    handed = False
    step_mu, step_ls = 0.25 * math.exp(ls), 0.25
    while step_mu > _FIT_TOL * math.exp(ls) or step_ls > _FIT_TOL:
        if (not handed and step_ls <= _HANDOFF_STEP
                and step_mu <= _HANDOFF_STEP * math.exp(ls)):
            handed = True
            fit, _, used = _newton_polish(kf, x, mu, ls,
                                          _MAX_EVALUATIONS - steps - passes)
            passes += used
            if fit is not None:
                return MleFit(fit.mu, fit.sigma, steps, passes)
        improved = False
        for dm, dl in ((step_mu, 0.0), (-step_mu, 0.0), (0.0, step_ls), (0.0, -step_ls)):
            cand = log_likelihood(spec, x, mu + dm, math.exp(ls + dl))
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


def _start_cell(spec: StateSpec, x: np.ndarray, start: ModelPoint):
    """The MLE's Newton start: (sorted samples xs, nodes z, the start's
    cell) for ``_certify`` when the widest nearby sample gaps mark out the
    start's cell, else None and the compass search goes first.  The lines
    are the deep dips of ``_dips``, those narrower than ``_SHALLOW_DIP``
    sqrt(Var y) / N for N samples; with none the cell is empty (xs is then
    the batch as drawn), and the certificate passes it.  A deep dip that is
    not a node (delta > 0) gives None, as does a root that is not finite.
    A cell holds, per node z, the index j of the gap (xs[j-1], xs[j]) that
    holds its line x = mu + sqrt(2) sigma z.  Node z's window is
    ``_CELL_WINDOW`` standard errors of its line's position at the start,
    sqrt(2) sigma sqrt(Var y / N) (1 + |z|), to either side; a gap that
    meets it counts, the unbounded end gaps too.
    """
    dips, vy = _dips(spec), _y_moments(spec)[1]
    if dips is None:
        return None
    nodes, delta = dips[:, dips[1] / math.sqrt(vy) * x.size < _SHALLOW_DIP]
    if not nodes.size:
        return x, nodes, np.empty(0, dtype=int)
    if delta.any():
        return None
    xs = np.sort(x)
    pos = start.mu + math.sqrt(2.0) * start.sigma * nodes
    cell = np.searchsorted(xs, pos)
    gaps = np.diff(xs, prepend=-math.inf, append=math.inf)
    half = (_CELL_WINDOW * math.sqrt(2.0 * vy / x.size)
            * start.sigma * (1.0 + np.abs(nodes)))
    lo, hi = np.searchsorted(xs, pos - half), np.searchsorted(xs, pos + half)
    widest = [a + int(np.argmax(gaps[a:b + 1])) for a, b in zip(lo, hi)]
    if not np.array_equal(widest, cell):
        return None
    return xs, nodes, cell


def _certify(fit, jet, xs, nodes, cell):
    """Whether ``fit``, Newton's end from the start's cell, lies in that
    cell while no cell that moves one line past up to ``_REACH`` samples is
    predicted to come within ``_CELL_MARGIN`` of its log L.  ``jet`` is
    Newton's last, from ``_newton_polish``.

    At rank one with nodes z_k, log L = sum_k Psi_k(p_k) + (the rest), where
    p_k = mu + sqrt(2) sigma z_k is node k's line and
    Psi_k(p) = 2 sum_i log|x_i - p|.  Take out of log L
    the terms of the ``_NEAR`` samples on each side of p_k; to second order
    the rest, at its best (mu, sigma) for a line moved by t, falls by
    stiff t^2 / 2, with stiff = -1 / (a^T H^-1 a) less those terms' share
    of -Psi_k'', for a = (1, w_k), w_k = sqrt(2) z_k, and H the Hessian of
    log L on (mu, sigma) from Newton's last jet, taken one final step of at
    most 1e-9 sigma before the fit: from the jet's (mu, log sigma) Hessian h
    and score s, H_mu,mu = h_mm, H_mu,sigma = h_ml / sigma and
    H_sigma,sigma = (h_ll - s_ls) / sigma^2.  So moving p_k into a nearby
    gap can raise log L by about the maximum over it of
    D(t) = 2 sum [log|1 - t/d_i| + t/d_i] - stiff t^2 / 2, d_i the near
    samples' offsets from p_k.  D is concave in the gap with -D'' >= m
    there, so D(t) + D'(t)^2 / (2 m) bounds its maximum from any t in it;
    the gap's bound is the least of these at ``_GAP_POINTS`` fixed points.
    A zero-width gap between tied samples refuses the fit.  With no node
    the cell is empty and passes.
    """
    if not nodes.size:
        return True
    n, sigma, root2 = xs.size, fit.sigma, math.sqrt(2.0)
    pos = fit.mu + root2 * sigma * nodes
    if not np.array_equal(np.searchsorted(xs, pos), cell):
        return False
    # Newton's Hessian on (mu, log sigma), taken to (mu, sigma), where line
    # k moves by (1, w_k).
    _, _, s_ls, h00, h_ml, h_ll = jet
    h01, h11 = h_ml / sigma, (h_ll - s_ls) / sigma ** 2
    w = root2 * nodes
    # The samples near each node, as offsets from its line; window slots
    # past an end of the batch hold an infinity on that side.
    slot = np.arange(-_NEAR, _NEAR)
    idx = cell[:, None] + slot
    d = np.where((idx >= 0) & (idx < n), xs[np.clip(idx, 0, n - 1)] - pos[:, None],
                 np.copysign(math.inf, slot + 0.5))
    spread = (h11 - 2.0 * w * h01 + w * w * h00) / (h00 * h11 - h01 * h01)
    stiff = -1.0 / spread - 2.0 * (1.0 / (d * d)).sum(axis=1)
    if not (stiff > 0.0).all():
        return False
    # Slot _NEAR holds the first sample right of a line, so the gap s
    # samples over is (d[_NEAR + s - 1], d[_NEAR + s]); one past an end of
    # the batch is open, and is sampled as deep as the line's own gap is
    # wide (the bound below covers the rest).
    own = d[:, _NEAR] - d[:, _NEAR - 1]
    shift = _NEAR + np.r_[-_REACH:0, 1:_REACH + 1]
    left, right = d[:, shift - 1], d[:, shift]
    k, s = np.nonzero(np.isfinite(left) | np.isfinite(right))
    left, right, own, stiff, d = left[k, s], right[k, s], own[k], stiff[k], d[k]
    lo = np.where(np.isfinite(left), left, right - own)
    hi = np.where(np.isfinite(right), right, lo + own)
    # D and D' at the _GAP_POINTS points t of each gap, summed over the
    # near samples from v = 1 - t/d_i, with 1 / (d_i - t) = (1/d_i) / v.
    # Each point of a zero-width gap between tied samples sits on a
    # sample, where v = 0.
    t = lo[:, None] + (hi - lo)[:, None] * _GAP_FRACTIONS
    v = 1.0 - t[..., None] / d[:, None]
    if not v.all():
        return False
    inv, stiff = 1.0 / d, stiff[:, None]
    base = 2.0 * inv.sum(axis=1)[:, None]
    gain = 2.0 * np.log(np.abs(v)).sum(axis=2) + (base - 0.5 * stiff * t) * t
    slope = base - 2.0 * (inv[:, None] / v).sum(axis=2) - stiff * t
    # The gap's two samples alone make -D'' >= stiff + 16 / width^2.
    gain += 0.5 * slope * slope / (stiff + 16.0 / (right - left)[:, None] ** 2)
    return bool((gain.min(axis=1) < -_CELL_MARGIN).all())


def _loglik_jet(kf, x, mu, ls):
    """(log L, score, Hessian) on (mu, log sigma) as six floats: log L, the
    score's two components and the Hessian's (mu, mu), (mu, log sigma) and
    (log sigma, log sigma) entries; None if some f <= 0.

    With y = (x - mu) / (sqrt(2) sigma), a = 1 / (sqrt(2) sigma),
    r1 = f'/f and q = (log f)'' = f''/f - r1^2 per sample:
    d/dmu = -a sum r1, d/dlog sigma = -sum r1 y - N, and the Hessian is
    a^2 sum q, a sum (q y + r1), sum (q y + r1) y.
    """
    a = 1.0 / (math.sqrt(2.0) * math.exp(ls))
    y = x - mu
    y *= a
    f, d1, d2 = kf.jet(y, 2)
    if not f.min() > 0.0:
        return None
    # Rows log f, r1, q and q y + r1, summed in one reduction.
    terms = np.empty((4, x.size))
    log_f, r1, q, mixed = terms
    np.log(f, out=log_f)
    np.divide(d1, f, out=r1)
    np.divide(d2, f, out=q)
    q -= r1 * r1
    np.multiply(q, y, out=mixed)
    mixed += r1
    s_log, s_r1, s_q, s_mixed = terms.sum(axis=1).tolist()
    n = x.size
    return (s_log - n * ls, -a * s_r1, -float(r1 @ y) - n,
            a * a * s_q, a * s_mixed, float(mixed @ y))


def _newton_polish(kf, x, mu, ls, budget):
    """Newton ascent from (mu, log sigma): (ModelPoint or None, jet, passes),
    the jet being ``_loglik_jet``'s at the point that the final step, of at
    most ``_FIT_TOL`` (relative to sigma for mu), starts from.

    (None, None, passes) when a step would lower log L by more than rounding
    or meet a density zero, when -H is not positive definite, or when
    ``budget`` passes run out.
    """
    jet = _loglik_jet(kf, x, mu, ls)
    passes = 1
    while jet is not None and passes < budget:
        ll, s_mu, s_ls, h_mm, h_ml, h_ll = jet
        if not (h_mm < 0.0 and h_mm * h_ll - h_ml ** 2 > 0.0):
            break
        d_mu, d_ls = -np.linalg.solve([[h_mm, h_ml], [h_ml, h_ll]], [s_mu, s_ls])
        if abs(d_mu) <= _FIT_TOL * math.exp(ls) and abs(d_ls) <= _FIT_TOL:
            return ModelPoint(mu + d_mu, math.exp(ls + d_ls)), jet, passes
        jet = _loglik_jet(kf, x, mu + d_mu, ls + d_ls)
        passes += 1
        if jet is None or jet[0] < ll - _LL_ROUNDING * abs(ll):
            break
        mu, ls = mu + d_mu, ls + d_ls
    return None, None, passes


def _moment_init(spec: StateSpec, x: np.ndarray) -> ModelPoint:
    ey, vy = _y_moments(spec)
    sig = np.std(x) / math.sqrt(2.0 * vy)
    return ModelPoint(np.mean(x) - math.sqrt(2.0) * sig * ey, sig)


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence(entropy=seed,
                                      spawn_key=(trial,)).generate_state(1)[0])


def crb_experiment(spec: StateSpec, point: ModelPoint, trials: int,
                   samples_per_trial: int, seed: int,
                   config: QuadConfig | None = None) -> CrbReport:
    """Compare the empirical MLE covariance against the Cramer-Rao bound.

    Each trial draws ``samples_per_trial`` positions with its own derived
    seed and fits (mu, sigma) by maximum likelihood.  The covariance of the
    estimates, scaled by ``samples_per_trial``, is matched against the
    inverse Fisher matrix at the true point, from ``metric_quadrature``
    under ``config``.  A component is flagged as a
    violation only when it undercuts the bound by more than three standard
    errors of the variance estimate (the MLE is asymptotically efficient,
    so the scaled variances should sit at the bound, never clearly below).
    Failed fits are listed in ``failed_trials``, with ``"ExcType: message"``
    for each in ``failure_reasons``; RuntimeError is raised,
    chained to the first failure, when fewer than 30 fits succeed.  The
    compass objective evaluations and Newton passes of the fits that
    succeed are summed in ``compass_evaluations`` and ``newton_passes``.
    ValueError is raised before any work unless ``trials`` is an integer
    >= 30, ``samples_per_trial`` one >= 2 and ``seed`` one >= 0.
    """
    trials = _integer(trials, "trials", _MIN_TRIALS)
    samples_per_trial = _integer(samples_per_trial, "samples_per_trial",
                                 _MIN_SAMPLES)
    seed = _integer(seed, "seed")
    metric = metric_quadrature(spec, point, config)
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
