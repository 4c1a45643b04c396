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
        if self.mass <= 0.0 or self.omega0 <= 0.0 or self.hbar <= 0.0:
            raise ValueError("mass, omega0 and hbar must be positive")

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
        if any(v < 0.0 for v in w.values()):
            raise InvalidStateError("mixture weights must be non-negative")
        total = math.fsum(w.values())
        if renormalize:
            if total <= 0.0:
                raise InvalidStateError("mixture weights sum to zero")
            w = {n: v / total for n, v in w.items()}
        elif abs(total - 1.0) > _NORM_TOL:
            raise InvalidStateError(
                f"mixture weights sum to {total!r}, expected 1 within {_NORM_TOL}")
        table = {(n, n): complex(v) for n, v in w.items() if v != 0.0}
        return cls("mixture", table)

    @classmethod
    def superposition(cls, coeffs, renormalize: bool = False) -> "StateSpec":
        a = {int(n): complex(v) for n, v in dict(coeffs).items()}
        if not a:
            raise InvalidStateError("superposition needs at least one term")
        _check_indices("superposition", a)
        norm2 = math.fsum(abs(v) ** 2 for v in a.values())
        if renormalize:
            if norm2 <= 0.0:
                raise InvalidStateError("superposition coefficients are all zero")
            s = math.sqrt(norm2)
            a = {n: v / s for n, v in a.items()}
        elif abs(norm2 - 1.0) > _NORM_TOL:
            raise InvalidStateError(
                f"superposition norm is {norm2!r}, expected 1 within {_NORM_TOL}")
        a = {n: v for n, v in a.items() if v != 0.0}
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
            if w is None or abs(np.conj(w) - v) > 1e-10 * max(1.0, abs(v)):
                raise InvalidStateError(
                    f"density table is not Hermitian at ({n}, {m})")
        trace = math.fsum(v.real for (n, m), v in table.items() if n == m)
        if renormalize:
            if trace <= 0.0:
                raise InvalidStateError("density trace must be positive")
            table = {k: v / trace for k, v in table.items()}
        elif abs(trace - 1.0) > _NORM_TOL:
            raise InvalidStateError(
                f"density trace is {trace!r}, expected 1 within {_NORM_TOL}")
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
        """Coefficients of a pure state on which the factored kernel applies.

        Returns a dict n -> float when the state is a superposition (or an
        eigenstate) whose coefficients are all real or all purely imaginary
        (the imaginary case reduces to the real one with Im(alpha_n)), and
        None otherwise.
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
    All three are vectorized over y.  ``parity`` is "even" when every
    occupied index pair shares evenness (so f is an even function), "none"
    otherwise.  ``degree_hint`` bounds the polynomial degree multiplying
    exp(-y^2).
    """

    f: object
    f_prime: object
    jet: object
    parity: str
    degree_hint: int


def kernel(spec: StateSpec) -> KernelFn:
    """Build the kernel of a state; cached on the spec.

    sqrt(2 pi) f = psi . L psi, L the real table over the occupied levels;
    f' and f'' follow as 2 psi' . L psi and 2 (psi'' . L psi + psi' . L psi')
    with psi_k' = sqrt(2k) psi_{k-1} - y psi_k, psi_k'' = (y^2 - 2k - 1) psi_k.
    """
    cached = spec._kernel_cache.get("kernel")
    if cached is not None:
        return cached
    top = spec.max_index
    levels = sorted({k for nm in spec.table for k in nm})
    slot = {k: i for i, k in enumerate(levels)}
    # Purely imaginary lambda_nm pairs cancel between (n, m) and (m, n).
    lam = np.zeros((len(levels), len(levels)))
    for (n, m), v in spec.table.items():
        lam[slot[n], slot[m]] = v.real
    levels = np.array(levels)
    below = np.maximum(levels - 1, 0)
    root = np.sqrt(2.0 * levels)[:, None]
    shift = -(2.0 * levels + 1.0)[:, None]

    def jet(y, order):
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        rows = hermite_normalized_all(top, flat)
        psi = rows[levels]
        lam_psi = lam.dot(psi)
        out = [np.einsum("kn,kn->n", lam_psi, psi)]
        if order >= 1:
            dpsi = root * rows[below] - flat * psi
            out.append(2.0 * np.einsum("kn,kn->n", lam_psi, dpsi))
        if order >= 2:
            ddpsi = (flat * flat + shift) * psi
            out.append(2.0 * (np.einsum("kn,kn->n", lam_psi, ddpsi)
                              + np.einsum("kn,kn->n", lam.dot(dpsi), dpsi)))
        return tuple((v / _SQRT_2PI).reshape(y.shape) for v in out)

    kf = KernelFn(f=lambda y: jet(y, 0)[0], f_prime=lambda y: jet(y, 1)[1],
                  jet=jet, parity="even" if spec.parity_even else "none",
                  degree_hint=2 * top + 2)
    spec._kernel_cache["kernel"] = kf
    return kf


def fisher_ratio_factored(spec: StateSpec):
    """Vectorized (f')^2/f for a real pure state, via the factored kernel.

    Equal to 4 G'(y)^2 / sqrt(2 pi) with G = sum_n alpha_n psi_n the
    normalized wavepacket profile; manifestly finite everywhere.
    """
    coeffs = spec.real_superposition_coeffs()
    if coeffs is None:
        raise InvalidStateError("factored Fisher ratio needs real coefficients")
    top = spec.max_index
    # G' = sum_n alpha_n (sqrt(2n) psi_{n-1} - y psi_n): row 0 holds alpha_k,
    # row 1 the coefficient of psi_k in the first sum (n = 0 adds zero).
    coef = np.zeros((2, top + 1))
    for n, a in coeffs.items():
        coef[0, n] = a
        coef[1, n - 1] += a * math.sqrt(2.0 * n)

    def ratio(y):
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        psi = hermite_normalized_all(top, flat)
        g, lower = coef @ psi
        g = lower - flat * g
        return (4.0 * g * g / _SQRT_2PI).reshape(y.shape)

    return ratio


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
