"""Fisher-Rao geometry of the (mu, sigma) manifold.

The metric of every state in this family has the reduced structure
I_ab = Itilde_ab / sigma^2 with Itilde constant (independent of mu and sigma),
so the Christoffel symbols are available in closed form in sigma.  Four routes
to the metric are provided: the closed form for number states, the series sums
valid for real superpositions, and two quadratures of the Fisher integrals --
Gauss-Hermite, exact for states whose kernel has rank one, and adaptive
Gauss-Kronrod for any state.  ``metric_quadrature`` takes the exact rule at
rank one and the adaptive integral otherwise.  For a parity-even state (f
even) the off-diagonal is exactly zero, and the adaptive route integrates
the two diagonal components on the half-line y >= 0 and doubles them, unless
``force_offdiagonal`` asks for the off-diagonal integral, which keeps the
full line.  Every route returns a ``MetricTensor2``, which holds only
finite, positive-definite metrics; its consumers (the curvatures, the
geodesics, the Cramer-Rao bound) take one from any route and neither
integrate nor check it.  Two routes lead to the scalar curvature (the
reduced determinant formula and a finite-difference assembly of the full
Riemann tensor, which exists to validate conventions).  With
Itilde = (a, b, c) and v = (a mu + b sigma) / sqrt(ac - b^2) the metric is a
scaled Poincare half-plane in (v, sigma), so geodesics are sampled exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hermite import _flag, _integer, _number, hermite_normalized_all
from .models import InvalidStateError, ModelPoint, StateSpec, _unique, kernel
from .quadrature import QuadConfig, QuadratureError, integrate_real_line

__all__ = [
    "MetricTensor2",
    "CurvatureReport",
    "GeodesicTrace",
    "metric_closed_form",
    "metric_quadrature",
    "metric_gauss_hermite",
    "metric_adaptive",
    "metric_series_real",
    "scalar_curvature_reduced",
    "curvature_finite_difference",
    "geodesic_trace",
    "crb_bound",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MetricTensor2:
    """Symmetric 2x2 Fisher-Rao metric at a point.

    ``reduced`` holds the dimensionless (Itilde_mumu, Itilde_musigma,
    Itilde_sigmasigma) as three floats; the physical components are
    reduced / sigma^2.  The metric is finite and positive definite:
    construction raises ValueError unless each component passes the number
    rule and Itilde_mumu and the determinant lie in (0, inf), so a NaN or
    infinite component, a numerical failure or an invalid state never
    yields one.
    """

    point: ModelPoint
    reduced: tuple
    path: str

    def __post_init__(self):
        a, b, c = self.reduced
        a, b, c = _number(a, "reduced[0]"), _number(b, "reduced[1]"), _number(c, "reduced[2]")
        # The components are finite, but the determinant may overflow to inf,
        # or to NaN (inf - inf), which compares False both ways.
        if not (0.0 < a and 0.0 < a * c - b * b < math.inf):
            raise ValueError(f"metric {(a, b, c)!r} is not positive definite")
        object.__setattr__(self, "reduced", (a, b, c))

    @property
    def i_mumu(self) -> float:
        return self.reduced[0] / self.point.sigma ** 2

    @property
    def i_musigma(self) -> float:
        return self.reduced[1] / self.point.sigma ** 2

    @property
    def i_sigmasigma(self) -> float:
        return self.reduced[2] / self.point.sigma ** 2

    def matrix(self) -> np.ndarray:
        return np.array([[self.i_mumu, self.i_musigma],
                         [self.i_musigma, self.i_sigmasigma]])


@dataclass(frozen=True)
class CurvatureReport:
    scalar_r: float
    christoffel: np.ndarray  # Gamma^k_ij indexed [k, i, j]
    riemann_1212: float
    ricci: np.ndarray
    path: str


@dataclass(frozen=True)
class GeodesicTrace:
    """Sampled geodesic: columns (tau, mu, sigma, dmu/dtau, dsigma/dtau)."""

    samples: np.ndarray
    reduced: tuple
    boundary_hit: bool

    def metric_speeds(self) -> np.ndarray:
        """Metric speed I_ab v^a v^b at every sample; constant on a geodesic."""
        a, b, c = self.reduced
        sig = self.samples[:, 2]
        vm = self.samples[:, 3] / sig
        vs = self.samples[:, 4] / sig
        return a * vm * vm + 2.0 * b * vm * vs + c * vs * vs


def metric_closed_form(spec: StateSpec, point: ModelPoint) -> MetricTensor2:
    """diag((2n+1), 2(n^2+n+1)) / sigma^2, available for number states only."""
    if spec.kind != "eigenstate":
        raise InvalidStateError(f"no closed-form metric for kind {spec.kind!r}")
    (n, _), = spec.table.keys()
    return MetricTensor2(point, (2.0 * n + 1.0, 0.0, 2.0 * (n * n + n + 1.0)),
                         "closed_form")


def metric_quadrature(spec: StateSpec, point: ModelPoint,
                      config: QuadConfig | None = None) -> MetricTensor2:
    """Metric from the Fisher integrals: ``metric_gauss_hermite`` when the
    kernel has rank one, ``metric_adaptive`` otherwise.  ``config`` applies
    only to the adaptive route; the exact rule has no tolerance."""
    if kernel(spec).rank == 1:
        return metric_gauss_hermite(spec, point)
    return metric_adaptive(spec, point, config)


def _fisher_metric(point, path, m0, m1, m2):
    """The metric (M0 / sqrt(2), M1, sqrt(2) M2 - 1) from the Fisher moments
    M_p = int y^p (f')^2/f; M1 is exactly 0 where the caller skips it by parity."""
    return MetricTensor2(point, (m0 / _SQRT2, m1, _SQRT2 * m2 - 1.0), path)


@functools.cache
def _hermite_rule(top):
    """The Gauss-Hermite rule of a rank-one state with top level ``top``:
    its top + 3 nodes y, the weights times exp(y^2), for integrands that
    carry their own exp(-y^2), and the rows psi_0 .. psi_top at the nodes.
    The nodes depend only on ``top``, so the rows are computed once per
    degree; all three are read-only, as they are shared.  The cache holds
    at most one rule per degree 0 .. MAX_DEGREE, (top + 1)(top + 3)
    doubles of rows each.  That worst case, ``metric_gauss_hermite`` on
    |0> .. |200>, raises peak RSS by about 23 MB, against 2 MB for nodes
    and weights alone; the next sweep over them takes 10 ms, not 120.
    """
    # Imported here: numpy.polynomial is not loaded by ``import numpy``.
    from numpy.polynomial.hermite import hermgauss

    y, w = hermgauss(top + 3)
    w = w * np.exp(y * y)
    rows = hermite_normalized_all(top, y)
    for a in (y, w, rows):
        a.flags.writeable = False
    return y, w, rows


def metric_gauss_hermite(spec: StateSpec, point: ModelPoint) -> MetricTensor2:
    """Metric of a rank-one state by Gauss-Hermite quadrature, exact up to
    rounding.

    At rank one (f')^2/f = 4 p g'^2 / sqrt(2 pi) with g of degree
    max_index in the Hermite functions, so y^2 (f')^2/f is exp(-y^2) times
    a polynomial of degree <= 2 max_index + 4.  The rule on
    N = max_index + 3 nodes is exact to degree 2N - 1 (Golub & Welsch
    1969), so the three integrals of ``metric_adaptive`` are sums over the
    nodes.  Itilde_musigma is exactly zero when ``spec.parity_even``.
    Raises InvalidStateError when the kernel's rank is above one.
    """
    kf = kernel(spec)
    if kf.rank > 1:
        raise InvalidStateError(
            f"no exact Gauss-Hermite metric for kernel rank {kf.rank}")
    y, w, rows = _hermite_rule(spec.max_index)
    r = w * kf.fisher_ratio(y, rows)
    return _fisher_metric(point, "gauss_hermite", math.fsum(r),
                          0.0 if spec.parity_even else math.fsum(r * y),
                          math.fsum(r * y * y))


def metric_adaptive(spec: StateSpec, point: ModelPoint,
                    config: QuadConfig | None = None,
                    force_offdiagonal: bool = False) -> MetricTensor2:
    """Metric from the three reduced Fisher integrals, integrated together
    by adaptive Gauss-Kronrod; valid for every state.

    Itilde_mumu = 1/sqrt(2) * int (f')^2/f,
    Itilde_musigma = int y (f')^2/f,
    Itilde_sigmasigma = sqrt(2) * int y^2 (f')^2/f - 1.

    When ``spec.parity_even`` (f is even), the off-diagonal integrand is odd
    and Itilde_musigma is set to exactly zero without integrating, and the
    two diagonal integrands are even: they are integrated on the half-line
    y >= 0 and doubled, for about half the evaluations.  Pass
    ``force_offdiagonal=True`` to evaluate the off-diagonal integral anyway
    (``verify``'s table, ``checks.CHECKS``, uses it to confirm the oddness
    argument numerically); all three are then integrated over the full line.
    """
    kf = kernel(spec)
    skip_offdiagonal = spec.parity_even and not _flag(force_offdiagonal, "force_offdiagonal")

    def integrand(y):
        r = kf.fisher_ratio(y)
        out = np.empty((2 if skip_offdiagonal else 3, y.size))
        out[0] = r
        np.multiply(y, r, out=out[1])  # y r
        np.multiply(y, out[1], out=out[-1])  # y (y r), in place on 2 rows
        return out

    res = integrate_real_line(integrand, config, kf.degree_hint + 6,
                              even=skip_offdiagonal)
    if not res.converged:
        raise QuadratureError(
            f"Fisher integrals did not converge within {res.evaluations} "
            "evaluations")
    return _fisher_metric(point, "quadrature", res.value[0],
                          0.0 if skip_offdiagonal else res.value[1], res.value[-1])


def metric_series_real(coeffs, point: ModelPoint) -> MetricTensor2:
    """Metric of a real-coefficient superposition from the finite series sums.

    ``coeffs`` maps each index n, an integer >= 0 given once, to a real
    coefficient alpha_n (dict or iterable of pairs); coefficients outside
    the table count as zero.  The three components are the closed series in
    the coefficient offsets (0, +-2, +-4 for the diagonal, +-1, +-3 for the
    off-diagonal).
    """
    a = _unique(coeffs, lambda n: _integer(n, "level", error=InvalidStateError),
                "series level", "series coefficient")
    norm2 = math.fsum(v * v for v in a.values())
    if not abs(norm2 - 1.0) <= 1e-12:
        raise InvalidStateError(
            f"coefficients must be normalized, got sum of squares {norm2!r}")

    def al(k):
        return a.get(k, 0.0)

    # For g = sum alpha_n psi_n, sqrt(2 pi) f = g^2.  With d/dy = D =
    # (a - a+)/sqrt(2) and y = Y = (a + a+)/sqrt(2) the Fisher integrals are
    # 2 |D alpha|^2, 2 sqrt(2) <D alpha, Y D alpha> and 4 |Y D alpha|^2 - 1,
    # and normal ordering ([a, a+] = 1) gives the sums below:
    #   2 D+ D = 2N + 1 - a^2 - a+^2,
    #   2 sqrt(2) D+ Y D = (a^2 a+ - a) + (a+^2 a + a+) - a^3 - a+^3,
    #   4 (Y D)+ Y D = 2N^2 + 2N + 3 - a^4 - a+^4.
    ims = math.fsum(
        al(n) * (-al(n - 3) * math.sqrt(n * (n - 1) * (n - 2))
                 + al(n - 1) * n * math.sqrt(n)
                 + al(n + 1) * (n + 1) * math.sqrt(n + 1)
                 - al(n + 3) * math.sqrt((n + 3) * (n + 2) * (n + 1)))
        for n in a)
    imm = math.fsum(
        al(n) * (-al(n - 2) * math.sqrt(n * (n - 1))
                 + al(n) * (2 * n + 1)
                 - al(n + 2) * math.sqrt((n + 2) * (n + 1)))
        for n in a)
    iss = math.fsum(
        al(n) * (-al(n - 4) * math.sqrt(n * (n - 1) * (n - 2) * (n - 3))
                 + al(n) * (2 * n * n + 2 * n + 3)
                 - al(n + 4) * math.sqrt((n + 4) * (n + 3) * (n + 2) * (n + 1)))
        for n in a) - 1.0
    return MetricTensor2(point, (imm, ims, iss), "series")


def christoffel_reduced(reduced, sigma: float) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of a metric A/sigma^2, A constant.

    With coordinates (mu, sigma) = (0, 1), only d_sigma g_ij = -2 A_ij /
    sigma^3 is nonzero, and the Levi-Civita formula reduces to
        Gamma^k_ij = -(d_{j,1} d^k_i + d_{i,1} d^k_j - (A^-1)_{k1} A_ij) / sigma,
    written out below for A = [[a, b], [b, c]], over (ac - b^2) sigma.
    """
    a, b, c = reduced
    scale = (a * c - b * b) * sigma
    return np.array([[[-a * b, -a * c], [-a * c, -b * c]],
                     [[a * a, a * b], [a * b, 2.0 * b * b - a * c]]]) / scale


def scalar_curvature_reduced(metric: MetricTensor2) -> CurvatureReport:
    """R = 2 Itilde_mumu / (Itilde_musigma^2 - Itilde_mumu Itilde_sigmasigma).

    For a diagonal reduced metric this is R = -2 / Itilde_sigmasigma.  The
    Christoffel/Riemann/Ricci components in the report come from the exact
    1/sigma^2 structure of the metric (2D identities: R_1212 = R det(g)/2
    with det(g) = (ac - b^2) / sigma^4, Ric = R g / 2).  ``MetricTensor2``
    guarantees a positive-definite metric, so R is negative.
    """
    a, b, c = metric.reduced
    r = 2.0 * a / (b * b - a * c)
    sigma = metric.point.sigma
    return CurvatureReport(
        scalar_r=r,
        # Before the Christoffel symbols: at a sigma whose fourth power
        # underflows this raises ZeroDivisionError, where their array
        # division would first warn of its overflow.
        riemann_1212=0.5 * r * (a * c - b * b) / sigma ** 4,
        christoffel=christoffel_reduced(metric.reduced, sigma),
        ricci=0.5 * r * metric.matrix(),
        path="reduced_formula",
    )


def curvature_finite_difference(metric: MetricTensor2) -> CurvatureReport:
    """Scalar curvature from finite differences of ``metric``.

    g = Itilde / sigma^2 is evaluated on a 3x3 stencil around
    ``metric.point`` = (mu, sigma) with steps h = 1e-3 * sigma in both
    directions; first and second partials by central differences feed the
    Levi-Civita Christoffel symbols, the lowered Riemann tensor, the Ricci
    contraction and the scalar.  Itilde does not depend on the point, so
    each stencil matrix is ``metric.reduced``, from any route, over that
    point's sigma^2.  The route differentiates g numerically and assembles
    the full tensors generically; it exists to validate that assembly and
    its index conventions against the reduced formula.
    """
    h = 1e-3 * metric.point.sigma
    a, b, c = metric.reduced
    amat = np.array([[a, b], [b, c]])

    def gfun(di, dj):
        # g does not depend on mu, so the mu step di leaves it unchanged.
        return amat / (metric.point.sigma + dj * h) ** 2

    g0 = gfun(0, 0)
    ginv = np.linalg.inv(g0)
    steps = [(1, 0), (0, 1)]
    dg = np.empty((2, 2, 2))
    ddg = np.empty((2, 2, 2, 2))
    for k, (di, dj) in enumerate(steps):
        dg[k] = (gfun(di, dj) - gfun(-di, -dj)) / (2.0 * h)
        ddg[k, k] = (gfun(di, dj) - 2.0 * g0 + gfun(-di, -dj)) / (h * h)
    ddg[0, 1] = (gfun(1, 1) - gfun(1, -1) - gfun(-1, 1) + gfun(-1, -1)) / (4.0 * h * h)
    ddg[1, 0] = ddg[0, 1]

    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                s = 0.0
                for l in range(2):
                    s += ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * s

    def riemann(i, k, l, m):
        term = 0.5 * (ddg[k, l][i, m] + ddg[i, m][k, l]
                      - ddg[k, m][i, l] - ddg[i, l][k, m])
        for n in range(2):
            for p in range(2):
                term += g0[n, p] * (gamma[n, k, l] * gamma[p, i, m]
                                    - gamma[n, k, m] * gamma[p, i, l])
        return term

    ricci = np.zeros((2, 2))
    for i in range(2):
        for k in range(2):
            ricci[i, k] = sum(ginv[l, m] * riemann(l, i, m, k)
                              for l in range(2) for m in range(2))
    scalar_r = float(np.einsum("ik,ik->", ginv, ricci))
    return CurvatureReport(
        scalar_r=scalar_r,
        christoffel=gamma,
        riemann_1212=float(riemann(0, 1, 0, 1)),
        ricci=ricci,
        path="finite_difference",
    )


def geodesic_trace(metric: MetricTensor2, velocity, tau_end: float,
                   steps: int) -> GeodesicTrace:
    """Sample the geodesic from ``metric.point`` with ``velocity`` exactly.

    With (a, b, c) = ``metric.reduced`` and v = (a mu + b sigma) / sqrt(det),
    the metric is (det/a)(dv^2 + dsigma^2)/sigma^2: a scaled Poincare
    half-plane, whose geodesics are the semicircles v - c0 = r tanh(theta),
    sigma = r sech(theta) with theta = theta0 +- s tau, and the vertical
    lines sigma = sigma0 exp(sigma'0 tau / sigma0); s = |(v'0, sigma'0)| / sigma0.
    Written relative to the start, with (p, q) the unit direction of
    (v'0, sigma'0) and E = exp(-s tau), both cases are

        sigma = 2 sigma0 E / d,   v - v0 = sigma0 p (1 - E^2) / d,
        d = (1 - q) + (1 + q) E^2,

    and mu = mu0 + (sqrt(det) (v - v0) - b (sigma - sigma0)) / a.  Samples
    lie at tau = k tau_end / steps, k = 0 .. steps.  A zero velocity gives
    the start point bit for bit.  ``boundary_hit`` is True when sigma
    leaves the normal double range before tau_end: it underflows toward
    sigma = 0 or, going straight up, overflows.  The samples stop there,
    so each one keeps full precision.  Raises ValueError unless ``steps`` is
    an integer >= 1, ``tau_end`` a finite number and ``velocity`` a pair of them.
    """
    # A float steps would space the samples past tau_end.
    steps = _integer(steps, "steps", 1)
    tau_end = _number(tau_end, "tau_end")
    vm0, vs0 = _velocity(velocity)
    start, (a, b, c) = metric.point, metric.reduced
    root_det = math.sqrt(a * c - b * b)
    vv0 = (a * vm0 + b * vs0) / root_det
    w = math.hypot(vv0, vs0)
    # Unit direction (p, q); any one serves at zero speed, where E = 1.
    p, q = (vv0 / w, vs0 / w) if w > 0.0 else (1.0, 0.0)
    # 1 - q and 1 + q without cancellation: their product is p^2.
    big = 1.0 + abs(q)
    lo, hi = (p * p / big, big) if q >= 0.0 else (big, p * p / big)
    sigma0 = start.sigma
    s = w / sigma0
    tau = np.arange(steps + 1) * (tau_end / steps)
    # Rows past the end of the double range are non-finite and cut below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = np.exp(-s * tau)
        e2 = e * e
        d = lo + hi * e2
        sigma = 2.0 * sigma0 * e / d
        dv = sigma0 * p * (1.0 - e2) / d
        ratio = sigma / sigma0
        vv = vv0 * ratio * ratio
        vs = -s * sigma * (lo - hi * e2) / d
        mu = start.mu + (root_det * dv - b * (sigma - sigma0)) / a
        vm = (root_det * vv - b * vs) / a
    samples = np.column_stack([tau, mu, sigma, vm, vs])
    inside = (sigma >= np.finfo(float).tiny) & (sigma < np.inf)
    boundary = not inside.all()
    if boundary:
        samples = samples[:int(np.argmin(inside))]
    return GeodesicTrace(samples=samples, reduced=metric.reduced,
                         boundary_hit=boundary)


def _velocity(velocity):
    """``velocity`` as two floats by the number rule; a pair, else ValueError."""
    try:
        vm, vs = velocity
    except (TypeError, ValueError):
        raise ValueError(f"velocity must be a pair of numbers, got {velocity!r}") from None
    return _number(vm, "velocity[0]"), _number(vs, "velocity[1]")


def crb_bound(metric: MetricTensor2) -> np.ndarray:
    """Inverse Fisher matrix: the covariance lower bound for unbiased
    estimators of (mu, sigma); ``MetricTensor2`` guarantees the metric is
    positive definite, so the inverse exists."""
    return np.linalg.inv(metric.matrix())

