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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hermite import MAX_DEGREE, _flag, _integer, _number, hermite_normalized_all

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
_EPS = np.finfo(float).eps


class InvalidStateError(ValueError):
    """The state description violates a normalization or positivity rule."""


def _unit_divisor(terms, renormalize, what):
    """The divisor that brings a table's ``what``, the sum of ``terms``, to 1:
    the sum when renormalizing, else 1.0 after checking it is 1 within
    _NORM_TOL.  A sum or a term that overflows makes the sum infinite; a
    subnormal sum, whose terms have lost their digits, is refused too."""
    renormalize = _flag(renormalize, "renormalize", InvalidStateError)
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if renormalize and not 0.0 < total < math.inf:
        raise InvalidStateError(f"{what} must be positive and finite, got {total!r}")
    if renormalize and total < np.finfo(float).tiny:
        raise InvalidStateError(f"{what} {total!r} is below the normal float range")
    if not renormalize and not abs(total - 1.0) <= _NORM_TOL:
        raise InvalidStateError(f"{what} is {total!r}, expected 1 within {_NORM_TOL}")
    return total if renormalize else 1.0


def _level(n):
    """A state's level ``n`` by the integer rule, in 0..MAX_DEGREE."""
    return _integer(n, "level", 0, MAX_DEGREE, InvalidStateError)


def _entry(nm):
    """A density table key: a pair of levels."""
    try:
        n, m = nm
    except (TypeError, ValueError):
        raise InvalidStateError(
            f"density entry {nm!r} is not a pair of levels") from None
    return _level(n), _level(m)


def _unique(terms, key, what, name, **rule):
    """``terms`` (a mapping or (k, v) pairs) as {key(k): v}, each v a ``name`` by
    the number rule with keywords ``rule``; a key given twice is refused, not kept last."""
    out = {}
    for k, v in terms.items() if hasattr(terms, "items") else terms:
        k = key(k)
        if k in out:
            raise InvalidStateError(f"{what} {k} is given twice")
        out[k] = _number(v, name, error=InvalidStateError, **rule)
    return out


@dataclass(frozen=True)
class ModelPoint:
    """A point (mu, sigma) of the two-parameter manifold, sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _number(self.mu, "mu"))
        object.__setattr__(self, "sigma", _number(self.sigma, "sigma", above=0.0))


@dataclass(frozen=True)
class PhysicalOscillator:
    """Oscillator constants (mass, angular frequency, equilibrium position)."""

    mass: float
    omega0: float
    x0: float
    hbar: float = 1.0

    def __post_init__(self):
        for name, low in (("mass", 0.0), ("omega0", 0.0), ("x0", -math.inf), ("hbar", 0.0)):
            object.__setattr__(self, name, _number(getattr(self, name), name, above=low))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.hbar / (2.0 * self.mass * self.omega0))

    def energy(self, n: int) -> float:
        n = _integer(n, "level")
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

    __slots__ = ("kind", "table", "coeffs", "parity_even", "max_index", "_memo")

    def __init__(self, kind, table, coeffs=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "table", dict(table))
        object.__setattr__(self, "coeffs", None if coeffs is None else dict(coeffs))
        object.__setattr__(self, "max_index",
                           max((max(n, m) for (n, m) in self.table), default=0))
        parity = all((n - m) % 2 == 0 for (n, m) in self.table)
        object.__setattr__(self, "parity_even", parity)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("StateSpec is immutable")

    def __repr__(self):
        return f"StateSpec(kind={self.kind!r}, max_index={self.max_index})"

    # -- constructors -----------------------------------------------------

    @classmethod
    def eigenstate(cls, n: int) -> "StateSpec":
        n = _level(n)
        return cls("eigenstate", {(n, n): 1.0 + 0.0j}, coeffs={n: 1.0 + 0.0j})

    @classmethod
    def mixture(cls, weights, renormalize: bool = False) -> "StateSpec":
        w = _unique(weights, _level, "mixture level", "mixture weight", least=0.0)
        if not w:
            raise InvalidStateError("mixture needs at least one term")
        total = _unit_divisor(w.values(), renormalize, "mixture weight sum")
        table = {(n, n): complex(v / total) for n, v in w.items() if v != 0.0}
        return cls("mixture", table)

    @classmethod
    def superposition(cls, coeffs, renormalize: bool = False) -> "StateSpec":
        a = _unique(coeffs, _level, "superposition level", "superposition coefficient", kind=complex)
        if not a:
            raise InvalidStateError("superposition needs at least one term")
        s = math.sqrt(_unit_divisor((abs(v) ** 2 for v in a.values()), renormalize,
                                    "superposition norm"))
        a = {n: v / s for n, v in a.items() if v != 0.0}
        table = {(n, m): an * am.conjugate()
                 for n, an in a.items() for m, am in a.items()}
        return cls("superposition", table, coeffs=a)

    @classmethod
    def density(cls, entries, renormalize: bool = False) -> "StateSpec":
        table = _unique(entries, _entry, "density entry", "density coefficient", kind=complex)
        if not table:
            raise InvalidStateError("density table is empty")
        for (n, m), v in table.items():
            w = table.get((m, n))
            try:
                if w is None or not abs(w.conjugate() - v) <= 1e-10 * max(1.0, abs(v)):
                    raise InvalidStateError(
                        f"density table is not Hermitian at ({n}, {m})")
            except OverflowError:  # from abs(): finite parts, too large a modulus
                raise InvalidStateError(f"density coefficient at ({n}, {m}) has a "
                                        "modulus past the float range") from None
        trace = _unit_divisor((v.real for (n, m), v in table.items() if n == m),
                              renormalize, "density trace")
        table = {k: v / trace for k, v in table.items()}
        # The indices are capped, so the dense eigenvalue check is cheap.
        dim = max(max(n, m) for (n, m) in table) + 1
        dense = np.zeros((dim, dim), dtype=complex)
        for (n, m), v in table.items():
            dense[n, m] = v
        lo = float(np.linalg.eigvalsh(dense).min())
        # NaN when renormalizing overflowed an entry: no PSD table does that.
        if not lo >= -1e-10:
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

    ``jet(y, order)`` returns (f, ..., f^(order)) for order 0, 1 or 2 (any
    other order raises ValueError) from one Hermite recurrence; ``f`` and
    ``f_prime`` are its first entries.
    ``fisher_ratio(y, rows=None)`` is (f')^2/f, or its limit where f = 0;
    ``rows``, when given, must be ``hermite_normalized_all(top, y)`` for
    the state's top level (shape (top + 1,) + y.shape, else ValueError),
    and is used in place of recomputing the Hermite rows, with the same
    result bit for bit.  All are vectorized over y.  ``degree_hint`` bounds
    the polynomial degree multiplying exp(-y^2).  ``rank`` is the number of wavepackets g_j the
    real table factors into (the eigenvalues ``kernel`` keeps): 1 for a pure
    state with real coefficients up to a global phase, and then (f')^2/f
    is exp(-y^2) times a polynomial.  ``roots()`` locates the dips of f:
    one array per packet g_j holding all its roots, complex ones included,
    computed on every call; ``_dips`` lists the dips once per spec.
    """

    f: object
    f_prime: object
    jet: object
    fisher_ratio: object
    degree_hint: int
    rank: int
    roots: object


def _per_spec(fn):
    """``fn(spec)`` computed once per spec, kept in its memo under ``fn``."""
    @functools.wraps(fn)
    def memoized(spec):
        if fn not in spec._memo:
            spec._memo[fn] = fn(spec)
        return spec._memo[fn]
    return memoized


@_per_spec
def kernel(spec: StateSpec) -> KernelFn:
    """Build the kernel of a state, once per spec.

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
    top = spec.max_index
    levels = sorted({k for nm in spec.table for k in nm})
    at = {k: i for i, k in enumerate(levels)}
    levels = np.array(levels)
    # Purely imaginary lambda_nm pairs cancel between (n, m) and (m, n).
    lam = np.zeros((levels.size, levels.size))
    for (n, m), v in spec.table.items():
        lam[at[n], at[m]] = v.real
    if all(n == m for n, m in spec.table):
        # A diagonal table is its own factorization; eigh would return the
        # same ascending weights and unit vectors (ties aside), slower.
        order = np.argsort(lam.diagonal(), kind="stable")
        p, vecs = lam.diagonal()[order], np.eye(levels.size)[:, order]
    else:
        p, vecs = np.linalg.eigh(lam)
    keep = p > p.max() * levels.size * _EPS
    if not keep.all():
        p, vecs = p[keep], vecs[:, keep]
    # h_j = sqrt(p_j / sqrt(2 pi)) g_j; coef's rows give h and h's sums over
    # sqrt(2k) psi_{k-1} and 2k psi_k (k = 0 puts a true zero in column -1).
    vecs = vecs * np.sqrt(p / _SQRT_2PI)
    rank = vecs.shape[1]
    coef = np.zeros((3, rank, top + 1))
    coef[0][:, levels] = vecs.T
    coef[1][:, levels - 1] = np.sqrt(2.0 * levels) * vecs.T
    coef[2][:, levels] = 2.0 * levels * vecs.T
    low = coef[:2].reshape(2 * rank, top + 1)

    def packets(y, order, psi=None):
        if psi is None:
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
        if rank > 1:
            return np.einsum("jn,jn->n", a, b)
        # einsum's sum of one product: + 0.0 turns a -0.0 into +0.0, which
        # a square never is.
        return a[0] * b[0] if a is b else a[0] * b[0] + 0.0

    def jet(y, order):
        order = _integer(order, "order", 0, 2)
        y = np.asarray(y, dtype=float)
        h = packets(y.reshape(-1), order)
        out = [psum(h[0], h[0])]
        if order >= 1:
            out.append(2.0 * psum(h[0], h[1]))
        if order >= 2:
            out.append(2.0 * (psum(h[0], h[2]) + psum(h[1], h[1])))
        return tuple(v.reshape(y.shape) for v in out)

    def fisher_ratio(y, rows=None):
        y = np.asarray(y, dtype=float)
        if rows is not None:
            if np.shape(rows) != (top + 1,) + y.shape:
                raise ValueError(f"rows must have shape {(top + 1,) + y.shape}, "
                                 f"got {np.shape(rows)}")
            rows = np.reshape(rows, (top + 1, -1))
        h, d = packets(y.reshape(-1), 1, rows)
        if rank == 1:
            d = d[0]
            return (4.0 * d * d).reshape(y.shape)
        out = 4.0 * psum(d, d)
        s, t = psum(h, h), psum(h, d)
        np.divide(4.0 * t * t, s, out=out, where=s > 0.0)
        return out.reshape(y.shape)

    def roots():
        # Imported here: numpy.polynomial is not loaded by ``import numpy``.
        from numpy.polynomial.hermite import hermroots

        # a_k by its recurrence: 2^k k! overflows a float from k = 171.
        a = np.cumprod(np.sqrt(0.5 / np.arange(1.0, top + 1)))
        a = np.concatenate(([1.0], a))
        out = []
        for v in vecs.T:
            big = np.abs(v) > np.abs(v).max() * _EPS
            deg = levels[big]
            c = np.zeros(deg[-1] + 1)
            c[deg] = v[big] * a[deg]
            out.append(hermroots(c))
        return tuple(out)

    return KernelFn(f=lambda y: jet(y, 0)[0], f_prime=lambda y: jet(y, 1)[1],
                    jet=jet, fisher_ratio=fisher_ratio, degree_hint=2 * top + 2,
                    rank=rank, roots=roots)


@_per_spec
def _dips(spec: StateSpec):
    """Every dip of f from one scan of the packet roots: a (2, K) array of
    the dips z, sorted, over their half-widths delta; None when a root is
    not finite, which leaves no width to trust.

    A dip is the real part z of a packet root where f'' > 0 (a conjugate
    pair's two roots give one), and its half-width is
    sqrt(2 f(z) / f''(z)): f is locally f(z) (1 + (y - z)^2 / delta^2).
    At a real root of a rank-one state f has a node, and delta is 0.0
    exactly: f there rounds to ~1e-33 on |2>, not to 0.
    """
    kf = kernel(spec)
    roots = np.concatenate(kf.roots())
    if not np.all(np.isfinite(roots)):
        return None
    roots = roots[np.argsort(roots.real)]
    f, _, d2 = kf.jet(roots.real, 2)
    f[(roots.imag == 0.0) & (kf.rank == 1)] = 0.0
    # One dip per real part: a conjugate pair's second root gives none.
    dip = (d2 > 0.0) & (np.diff(roots.real, prepend=-math.inf) > 0.0)
    return np.array([roots.real[dip], np.sqrt(2.0 * f[dip] / d2[dip])])


@_per_spec
def _y_moments(spec: StateSpec):
    """(E[y], Var y) from the table: E[y^p] = sum_nm Re(lambda_nm) <n|y^p|m>.

    By the ladder identity y psi_n = sqrt((n+1)/2) psi_{n+1} + sqrt(n/2) psi_{n-1},
    <n|y|m> = sqrt(k/2) for |n - m| = 1, <n|y^2|m> = n + 1/2 for n = m and
    sqrt(k(k-1))/2 for |n - m| = 2 (k = max(n, m)); the rest are zero.
    """
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
    return ey, max(math.fsum(e2) - ey * ey, 1e-12)


def pdf(spec: StateSpec, point: ModelPoint, x):
    """Position probability density P(x) = f(y(x)) / sigma."""
    kf = kernel(spec)
    x = np.asarray(x, dtype=float)
    v = kf.f((x - point.mu) / (math.sqrt(2.0) * point.sigma)) / point.sigma
    return v if v.shape else float(v)


def wavefunction(n: int, point: ModelPoint, x):
    """Real position wave function of the number state |n> at (mu, sigma)."""
    x = np.asarray(x, dtype=float)
    y = (x - point.mu) / (math.sqrt(2.0) * point.sigma)
    v = hermite_normalized_all(_level(n), y)[-1] / math.sqrt(_SQRT_2PI * point.sigma)
    return v if v.shape else float(v)
