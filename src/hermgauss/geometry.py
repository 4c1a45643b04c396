"""Fisher-Rao geometry of the (mu, sigma) manifold.

The metric of every state in this family has the reduced structure
I_ab = Itilde_ab / sigma^2 with Itilde constant (independent of mu and
sigma), so the Christoffel symbols are available in closed form in sigma.
Three routes to the metric are provided (closed form for number states,
quadrature of the Fisher integrals, and the series sums valid for real
superpositions) together with two routes to the scalar curvature (the
reduced determinant formula and a finite-difference assembly of the full
Riemann tensor, which exists to validate conventions).  With Itilde =
(a, b, c) and v = (a mu + b sigma) / sqrt(ac - b^2) the metric is a scaled
Poincare half-plane in (v, sigma), so geodesics are sampled exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import InvalidStateError, ModelPoint, StateSpec, kernel
from .quadrature import QuadConfig, QuadratureError, integrate_real_line

__all__ = [
    "MetricTensor2",
    "CurvatureReport",
    "GeodesicTrace",
    "metric_closed_form",
    "metric_quadrature",
    "metric_series_real",
    "scalar_curvature_reduced",
    "curvature_finite_difference",
    "geodesic_trace",
    "crb_bound",
    "sigma_variance_bound",
]

_SQRT2 = math.sqrt(2.0)
# The curvature stencil divides metric differences by h^2 = 1e-6 sigma^2,
# so its metrics are integrated far below the default tolerances.
_FD_QUAD = QuadConfig(rel_tol=1e-12, abs_tol=1e-13)


@dataclass(frozen=True)
class MetricTensor2:
    """Symmetric 2x2 Fisher-Rao metric at a point.

    ``reduced`` holds the dimensionless (Itilde_mumu, Itilde_musigma,
    Itilde_sigmasigma); the physical components are reduced / sigma^2.
    """

    point: ModelPoint
    reduced: tuple
    path: str

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


def _validated(point, reduced, path) -> MetricTensor2:
    a, b, c = reduced
    if not (a > 0.0 and a * c - b * b > 0.0):
        raise QuadratureError(
            f"computed metric {reduced!r} is not positive definite; "
            "numerical failure or invalid state")
    return MetricTensor2(point=point, reduced=(float(a), float(b), float(c)),
                         path=path)


def metric_closed_form(spec: StateSpec, point: ModelPoint) -> MetricTensor2:
    """diag((2n+1), 2(n^2+n+1)) / sigma^2, available for number states only."""
    if spec.kind != "eigenstate":
        raise InvalidStateError(f"no closed-form metric for kind {spec.kind!r}")
    (n, _), = spec.table.keys()
    return _validated(point, (2.0 * n + 1.0, 0.0, 2.0 * (n * n + n + 1.0)),
                      "closed_form")


def metric_quadrature(spec: StateSpec, point: ModelPoint,
                      config: QuadConfig | None = None,
                      force_offdiagonal: bool = False) -> MetricTensor2:
    """Metric from the three reduced Fisher integrals, integrated together.

    Itilde_mumu = 1/sqrt(2) * int (f')^2/f,
    Itilde_musigma = int y (f')^2/f,
    Itilde_sigmasigma = sqrt(2) * int y^2 (f')^2/f - 1.

    When ``spec.parity_even`` (f is even), the off-diagonal integrand is odd
    and Itilde_musigma is set to exactly zero without integrating; pass
    ``force_offdiagonal=True`` to evaluate the integral anyway (used by the
    consistency suite to confirm the oddness argument numerically).
    """
    kf = kernel(spec)
    skip_offdiagonal = spec.parity_even and not force_offdiagonal
    powers = np.array([0, 2] if skip_offdiagonal else [0, 1, 2])[:, None]
    res = integrate_real_line(lambda y: y ** powers * kf.fisher_ratio(y),
                              config, kf.degree_hint + 6)
    if not res.converged:
        raise QuadratureError(
            f"Fisher integrals did not converge within {res.evaluations} "
            "evaluations")
    imm = res.value[0] / _SQRT2
    ims = 0.0 if skip_offdiagonal else res.value[1]
    iss = _SQRT2 * res.value[-1] - 1.0
    return _validated(point, (imm, ims, iss), "quadrature")


def metric_series_real(coeffs, point: ModelPoint) -> MetricTensor2:
    """Metric of a real-coefficient superposition from the finite series sums.

    ``coeffs`` maps index n to a real coefficient alpha_n (dict or iterable
    of pairs); coefficients outside the table count as zero.  The three
    components are the closed series in the coefficient offsets
    (0, +-2, +-4 for the diagonal, +-1, +-3 for the off-diagonal).
    """
    a = {int(n): float(v) for n, v in dict(coeffs).items()}
    if any(n < 0 for n in a):
        raise InvalidStateError("coefficient indices must be non-negative")
    norm2 = math.fsum(v * v for v in a.values())
    if abs(norm2 - 1.0) > 1e-12:
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
    return _validated(point, (imm, ims, iss), "series")


def christoffel_reduced(reduced, sigma: float) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of a metric A/sigma^2, A constant.

    With coordinates (mu, sigma) = (0, 1), only d_sigma g_ij = -2 A_ij /
    sigma^3 is nonzero, and the Levi-Civita formula reduces to
        Gamma^k_ij = -(d_{j,1} d^k_i + d_{i,1} d^k_j - (A^-1)_{k1} A_ij) / sigma.
    """
    a, b, c = reduced
    amat = np.array([[a, b], [b, c]])
    ainv = np.linalg.inv(amat)
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                v = 0.0
                if j == 1 and k == i:
                    v += 1.0
                if i == 1 and k == j:
                    v += 1.0
                v -= ainv[k, 1] * amat[i, j]
                gamma[k, i, j] = -v / sigma
    return gamma


def _report_from_reduced(metric: MetricTensor2, scalar_r: float,
                         path: str) -> CurvatureReport:
    sigma = metric.point.sigma
    g = metric.matrix()
    det = float(np.linalg.det(g))
    return CurvatureReport(
        scalar_r=float(scalar_r),
        christoffel=christoffel_reduced(metric.reduced, sigma),
        riemann_1212=0.5 * scalar_r * det,
        ricci=0.5 * scalar_r * g,
        path=path,
    )


def scalar_curvature_reduced(metric: MetricTensor2) -> CurvatureReport:
    """R = 2 Itilde_mumu / (Itilde_musigma^2 - Itilde_mumu Itilde_sigmasigma).

    For a diagonal reduced metric this is R = -2 / Itilde_sigmasigma.  The
    Christoffel/Riemann/Ricci components in the report come from the exact
    1/sigma^2 structure of the metric (2D identities: R_1212 = R det(g)/2,
    Ric = R g / 2).
    """
    a, b, c = metric.reduced
    det = a * c - b * b
    if det <= 0.0 or a <= 0.0:
        raise ValueError(f"degenerate reduced metric {metric.reduced!r}")
    r = 2.0 * a / (b * b - a * c)
    if r >= 0.0:
        warnings.warn(f"non-negative scalar curvature {r!r}; outside the "
                      "families for which negativity is proven", stacklevel=2)
    return _report_from_reduced(metric, r, "reduced_formula")


def curvature_finite_difference(spec: StateSpec, point: ModelPoint) -> CurvatureReport:
    """Scalar curvature from finite differences of the quadrature metric.

    The metric is evaluated on a 3x3 stencil around (mu, sigma) with steps
    h = 1e-3 * sigma in both directions; first and second partials by
    central differences feed the Levi-Civita Christoffel symbols, the
    lowered Riemann tensor, the Ricci contraction and the scalar.  This
    route makes no use of the 1/sigma^2 structure and exists to validate
    the reduced formula and the index conventions.
    """
    h = 1e-3 * point.sigma

    cache = {}

    def gfun(di, dj):
        key = (di, dj)
        if key not in cache:
            p = ModelPoint(point.mu + di * h, point.sigma + dj * h)
            cache[key] = metric_quadrature(spec, p, _FD_QUAD).matrix()
        return cache[key]

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


def geodesic_trace(spec: StateSpec, start: ModelPoint, velocity,
                   tau_end: float, steps: int,
                   config: QuadConfig | None = None) -> GeodesicTrace:
    """Sample the geodesic from ``start`` with initial ``velocity`` exactly.

    With reduced metric (a, b, c) and v = (a mu + b sigma) / sqrt(det), the
    metric is (det/a)(dv^2 + dsigma^2)/sigma^2: a scaled Poincare half-plane,
    whose geodesics are the semicircles v - c0 = r tanh(theta), sigma =
    r sech(theta) with theta = theta0 +- s tau, and the vertical lines sigma =
    sigma0 exp(sigma'0 tau / sigma0); here s = |(v'0, sigma'0)| / sigma0.
    Written relative to the start, with (p, q) the unit direction of
    (v'0, sigma'0) and E = exp(-s tau), both cases are

        sigma = 2 sigma0 E / d,   v - v0 = sigma0 p (1 - E^2) / d,
        d = (1 - q) + (1 + q) E^2,

    and mu = mu0 + (sqrt(det) (v - v0) - b (sigma - sigma0)) / a.  Samples
    lie at tau = k tau_end / steps, k = 0 .. steps.  A zero velocity gives
    the start point bit for bit.  ``boundary_hit`` is True when sigma
    leaves the normal double range before tau_end: it underflows toward
    sigma = 0 or, going straight up, overflows.  The samples stop there,
    so each one keeps full precision.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    reduced = (metric_closed_form(spec, start) if spec.kind == "eigenstate"
               else metric_quadrature(spec, start, config)).reduced
    a, b, c = reduced
    root_det = math.sqrt(a * c - b * b)
    vm0, vs0 = float(velocity[0]), float(velocity[1])
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
    return GeodesicTrace(samples=samples, reduced=reduced,
                         boundary_hit=boundary)


def crb_bound(metric: MetricTensor2) -> np.ndarray:
    """Inverse Fisher matrix: the covariance lower bound for unbiased
    estimators of (mu, sigma)."""
    g = metric.matrix()
    det = float(np.linalg.det(g))
    if det <= 0.0 or g[0, 0] <= 0.0:
        raise ValueError("metric is not positive definite")
    return np.linalg.inv(g)


def sigma_variance_bound(metric: MetricTensor2) -> float:
    """-sigma^2 R / 2: the sigma-estimator variance bound when the metric is
    diagonal (it then coincides with the (sigma, sigma) entry of the CRB)."""
    if abs(metric.reduced[1]) > 1e-12:
        raise ValueError("identity holds for diagonal metrics only")
    r = scalar_curvature_reduced(metric).scalar_r
    return -0.5 * metric.point.sigma ** 2 * r
