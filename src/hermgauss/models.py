"""Statistical models on the (mu, sigma) plane.

A state is described by a coefficient table lambda_{nm} over oscillator
number states; its position distribution is

    P(x) = f(y(x)) / sigma,    y(x) = (x - mu) / (sqrt(2) sigma),

with the dimensionless kernel

    f(y) = sum_{nm} Re(lambda_{nm}) a_n a_m exp(-y^2) H_n(y) H_m(y) / sqrt(2 pi),

which integrates to 1/sqrt(2) over the real line.  All kernel evaluation is
carried on the normalized Hermite functions so large indices stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import MAX_DEGREE, hermite_normalized_all

__all__ = [
    "InvalidStateError",
    "ModelPoint",
    "PhysicalOscillator",
    "StateSpec",
    "KernelFn",
    "pdf",
    "kernel",
    "from_physical",
    "wavefunction",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NORM_TOL = 1e-12


class InvalidStateError(ValueError):
    """The state description violates a normalization or positivity rule."""


def _unit_divisor(total, renormalize, what):
    """The divisor that brings a table's ``what`` = ``total`` to 1: ``total``
    when renormalizing, else 1.0 after checking it is 1 within _NORM_TOL.
    The checks are written so that a NaN ``total`` fails them."""
    if renormalize and not 0.0 < total < math.inf:
        raise InvalidStateError(f"{what} must be positive and finite, got {total!r}")
    if not renormalize and not abs(total - 1.0) <= _NORM_TOL:
        raise InvalidStateError(f"{what} is {total!r}, expected 1 within {_NORM_TOL}")
    return total if renormalize else 1.0


def _check_indices(kind, indices):
    for n in indices:
        if not 0 <= n <= MAX_DEGREE:
            raise InvalidStateError(
                f"{kind} indices must lie in 0..{MAX_DEGREE}, got {n}")


@dataclass(frozen=True)
class ModelPoint:
    """A point (mu, sigma) of the two-parameter manifold, sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def y_of_x(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / (math.sqrt(2.0) * self.sigma)


@dataclass(frozen=True)
class PhysicalOscillator:
    """Oscillator constants (mass, angular frequency, equilibrium position)."""

    mass: float
    omega0: float
    x0: float
    hbar: float = 1.0

    def __post_init__(self):
        if not (all(0.0 < v < math.inf for v in (self.mass, self.omega0, self.hbar))
                and math.isfinite(self.x0)):
            raise ValueError("mass, omega0 and hbar must be positive and "
                             "finite, and x0 finite")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.hbar / (2.0 * self.mass * self.omega0))

    def energy(self, n: int) -> float:
        if n < 0:
            raise ValueError("level index must be non-negative")
        return self.hbar * self.omega0 * (n + 0.5)


def from_physical(osc: PhysicalOscillator) -> ModelPoint:
    """Map oscillator constants to the manifold point (x0, sigma)."""
    return ModelPoint(mu=osc.x0, sigma=osc.sigma)


class StateSpec:
    """Immutable description of an oscillator state.

    Construct through one of the classmethods:

    * :meth:`eigenstate` -- the number state ``|n>``;
    * :meth:`mixture` -- a convex mixture of number states;
    * :meth:`superposition` -- a pure state sum alpha_n |n>;
    * :meth:`density` -- an explicit Hermitian coefficient table lambda_nm.

    Every variant is reduced to a sparse Hermitian table with unit trace,
    which is what the kernel evaluation consumes.
    """

    __slots__ = ("kind", "table", "coeffs", "parity_even", "max_index",
                 "_kernel_cache")

    def __init__(self, kind, table, coeffs=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "table", dict(table))
        object.__setattr__(self, "coeffs", None if coeffs is None else dict(coeffs))
        object.__setattr__(self, "max_index",
                           max((max(n, m) for (n, m) in self.table), default=0))
        parity = all((n - m) % 2 == 0 for (n, m) in self.table)
        object.__setattr__(self, "parity_even", parity)
        object.__setattr__(self, "_kernel_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("StateSpec is immutable")

    def __repr__(self):
        return f"StateSpec(kind={self.kind!r}, max_index={self.max_index})"

    # -- constructors -----------------------------------------------------

    @classmethod
    def eigenstate(cls, n: int) -> "StateSpec":
        n = int(n)
        _check_indices("eigenstate", (n,))
        return cls("eigenstate", {(n, n): 1.0 + 0.0j}, coeffs={n: 1.0 + 0.0j})

    @classmethod
    def mixture(cls, weights, renormalize: bool = False) -> "StateSpec":
        w = {int(n): float(v) for n, v in dict(weights).items()}
        if not w:
            raise InvalidStateError("mixture needs at least one term")
        _check_indices("mixture", w)
        if not all(0.0 <= v < math.inf for v in w.values()):
            raise InvalidStateError("mixture weights must be non-negative and finite")
        total = _unit_divisor(math.fsum(w.values()), renormalize,
                              "mixture weight sum")
        table = {(n, n): complex(v / total) for n, v in w.items() if v != 0.0}
        return cls("mixture", table)

    @classmethod
    def superposition(cls, coeffs, renormalize: bool = False) -> "StateSpec":
        a = {int(n): complex(v) for n, v in dict(coeffs).items()}
        if not a:
            raise InvalidStateError("superposition needs at least one term")
        _check_indices("superposition", a)
        s = math.sqrt(_unit_divisor(math.fsum(abs(v) ** 2 for v in a.values()),
                                    renormalize, "superposition norm"))
        a = {n: v / s for n, v in a.items() if v != 0.0}
        table = {(n, m): an * np.conj(am)
                 for n, an in a.items() for m, am in a.items()}
        return cls("superposition", table, coeffs=a)

    @classmethod
    def density(cls, entries, renormalize: bool = False) -> "StateSpec":
        table = {}
        for (n, m), v in dict(entries).items():
            n, m = int(n), int(m)
            _check_indices("density", (n, m))
            table[(n, m)] = complex(v)
        if not table:
            raise InvalidStateError("density table is empty")
        for (n, m), v in table.items():
            w = table.get((m, n))
            # Not "> tol": a NaN or infinite entry must fail too.
            if w is None or not abs(w.conjugate() - v) <= 1e-10 * max(1.0, abs(v)):
                raise InvalidStateError(
                    f"density table is not Hermitian at ({n}, {m})")
        trace = _unit_divisor(
            math.fsum(v.real for (n, m), v in table.items() if n == m),
            renormalize, "density trace")
        table = {k: v / trace for k, v in table.items()}
        # The indices are capped, so the dense eigenvalue check is cheap.
        dim = max(max(n, m) for (n, m) in table) + 1
        dense = np.zeros((dim, dim), dtype=complex)
        for (n, m), v in table.items():
            dense[n, m] = v
        lo = np.linalg.eigvalsh(dense).min()
        if lo < -1e-10:
            raise InvalidStateError(
                f"density table has negative eigenvalue {lo!r}")
        return cls("density", table)

    # -- structure queries ------------------------------------------------

    def real_superposition_coeffs(self):
        """Real coefficients of a pure state for the series metric route.

        Returns a dict n -> float when the state is a superposition (or an
        eigenstate) whose coefficients are all real or all purely imaginary
        (the imaginary case reduces to the real one with Im(alpha_n)), and
        None otherwise; ``geometry.metric_series_real`` takes the dict.
        """
        if self.coeffs is None:
            return None
        vals = self.coeffs
        if all(abs(v.imag) == 0.0 for v in vals.values()):
            return {n: v.real for n, v in vals.items()}
        if all(abs(v.real) == 0.0 for v in vals.values()):
            return {n: v.imag for n, v in vals.items()}
        return None


@dataclass(frozen=True)
class KernelFn:
    """The dimensionless kernel f of one state and its derivatives.

    ``jet(y, order)`` returns (f, ..., f^(order)) for order 0, 1 or 2 from
    one Hermite recurrence; ``f`` and ``f_prime`` are its first entries.
    ``fisher_ratio(y)`` is (f')^2/f, or its limit where f = 0.  All are
    vectorized over y.  ``degree_hint`` bounds the polynomial degree
    multiplying exp(-y^2).  ``rank`` is the number of wavepackets g_j the
    real table factors into (the eigenvalues ``kernel`` keeps): 1 for a pure
    state with real coefficients up to a global phase, and then (f')^2/f
    is exp(-y^2) times a polynomial.  ``roots()`` locates the dips of f:
    one array per packet g_j holding all its roots, complex ones included,
    computed on the first call.
    """

    f: object
    f_prime: object
    jet: object
    fisher_ratio: object
    degree_hint: int
    rank: int
    roots: object


def kernel(spec: StateSpec) -> KernelFn:
    """Build the kernel of a state; cached on the spec.

    The real table over the occupied levels is factored once as
    L = V diag(p) V^T, keeping p > max(p) levels eps (numpy's matrix_rank
    tolerance: a pure state has rank one, and the density check's slack
    drops out).  With the real normalized wavepackets g_j = sum_k V_kj psi_k,
    sqrt(2 pi) f = p . g^2, g_j' = sum_k V_kj (sqrt(2k) psi_{k-1} - y psi_k)
    and g_j'' = (y^2 - 1) g_j - sum_k 2k V_kj psi_k.  The Fisher integrand
    (f')^2/f is 4 (p . g g')^2 / (sqrt(2 pi) p . g^2); at rank one, and
    where every g_j vanishes, it is 4 p . g'^2 / sqrt(2 pi) (Cauchy-Schwarz).

    The roots of g_j are those of sum_k V_kj a_k H_k, a_k = 1/sqrt(2^k k!),
    from ``hermroots``; components below eps of the packet's largest are
    rounding and are dropped first, so they add no spurious far roots.
    """
    cached = spec._kernel_cache.get("kernel")
    if cached is not None:
        return cached
    top = spec.max_index
    levels = np.array(sorted({k for nm in spec.table for k in nm}))
    # Purely imaginary lambda_nm pairs cancel between (n, m) and (m, n).
    lam = np.zeros((top + 1, top + 1))
    for (n, m), v in spec.table.items():
        lam[n, m] = v.real
    p, vecs = np.linalg.eigh(lam[np.ix_(levels, levels)])
    keep = p > p.max() * levels.size * np.finfo(float).eps
    # h_j = sqrt(p_j / sqrt(2 pi)) g_j; coef's rows give h and h's sums over
    # sqrt(2k) psi_{k-1} and 2k psi_k (k = 0 puts a true zero in column -1).
    vecs = vecs[:, keep] * np.sqrt(p[keep] / _SQRT_2PI)
    rank = vecs.shape[1]
    coef = np.zeros((3, rank, top + 1))
    coef[0][:, levels] = vecs.T
    coef[1][:, levels - 1] = np.sqrt(2.0 * levels) * vecs.T
    coef[2][:, levels] = 2.0 * levels * vecs.T
    low = coef[:2].reshape(2 * rank, top + 1)

    def packets(y, order):
        psi = hermite_normalized_all(top, y)
        # One product for every order keeps h bit-identical across orders.
        rows = low.dot(psi)
        h = rows[:rank]
        out = [h]
        if order >= 1:
            out.append(rows[rank:] - y * h)
        if order >= 2:
            out.append((y * y - 1.0) * h - coef[2].dot(psi))
        return out

    def psum(a, b):
        return np.einsum("jn,jn->n", a, b)

    def jet(y, order):
        y = np.asarray(y, dtype=float)
        h = packets(y.reshape(-1), order)
        out = [psum(h[0], h[0])]
        if order >= 1:
            out.append(2.0 * psum(h[0], h[1]))
        if order >= 2:
            out.append(2.0 * (psum(h[0], h[2]) + psum(h[1], h[1])))
        return tuple(v.reshape(y.shape) for v in out)

    def fisher_ratio(y):
        y = np.asarray(y, dtype=float)
        h, d = packets(y.reshape(-1), 1)
        if rank == 1:
            d = d[0]
            return (4.0 * d * d).reshape(y.shape)
        out = 4.0 * psum(d, d)
        s, t = psum(h, h), psum(h, d)
        np.divide(4.0 * t * t, s, out=out, where=s > 0.0)
        return out.reshape(y.shape)

    found = None

    def roots():
        nonlocal found
        if found is not None:
            return found
        # Imported here: numpy.polynomial is not loaded by ``import numpy``.
        from numpy.polynomial.hermite import hermroots

        # a_k by its recurrence: 2^k k! overflows a float from k = 171.
        a = np.cumprod(np.sqrt(0.5 / np.arange(1.0, top + 1)))
        a = np.concatenate(([1.0], a))
        out = []
        for v in vecs.T:
            big = np.abs(v) > np.abs(v).max() * np.finfo(float).eps
            deg = levels[big]
            c = np.zeros(deg[-1] + 1)
            c[deg] = v[big] * a[deg]
            out.append(hermroots(c))
        found = tuple(out)
        return found

    kf = KernelFn(f=lambda y: jet(y, 0)[0], f_prime=lambda y: jet(y, 1)[1],
                  jet=jet, fisher_ratio=fisher_ratio, degree_hint=2 * top + 2,
                  rank=rank, roots=roots)
    spec._kernel_cache["kernel"] = kf
    return kf


def pdf(spec: StateSpec, point: ModelPoint, x):
    """Position probability density P(x) = f(y(x)) / sigma."""
    kf = kernel(spec)
    x = np.asarray(x, dtype=float)
    v = kf.f(point.y_of_x(x)) / point.sigma
    return v if v.shape else float(v)


def wavefunction(n: int, point: ModelPoint, x):
    """Real position wave function of the number state |n> at (mu, sigma)."""
    x = np.asarray(x, dtype=float)
    y = point.y_of_x(x)
    v = hermite_normalized_all(int(n), y)[-1] / math.sqrt(_SQRT_2PI * point.sigma)
    return v if v.shape else float(v)
