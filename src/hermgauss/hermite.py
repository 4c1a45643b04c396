"""Gaussian-normalized Hermite functions.

Raw H_n grows like (2y)^n and overflows quickly, so every probability
density in this package is built on the normalized functions
psi_n(y) = a_n * H_n(y) * exp(-y^2/2) with a_n = 1/sqrt(2^n n!), whose
three-term recurrence multiplies by bounded factors and never overflows
for n <= 200 and |y| <= 40.

The recurrence starts from psi_0 = exp(-y^2/2), which is subnormal, with
fewer significant digits, from |y| ~ 37.6 and exactly 0 from |y| ~ 38.6;
there every row is exactly 0 too, although the true psi_200(39) is
3.4e-173.  This is harmless: the truncation windows reach |y| ~ 50 for
n = 200, but the mass of psi_200^2 beyond |y| = 38.6 is below 1e-300.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "hermite_normalized_all",
]

# Hard cap on the polynomial degree.  All worked cases in this problem
# domain use small n; the cap keeps the overflow envelope auditable.
MAX_DEGREE = 200

# sqrt(2/(k+1)) and sqrt(k/(k+1)) of the recurrence below, k = 0 .. 199.
_UP = [math.sqrt(2.0 / (k + 1)) for k in range(MAX_DEGREE)]
_DOWN = [math.sqrt(k / (k + 1.0)) for k in range(MAX_DEGREE)]


def _integer(value, what, least=0, most=None, error=ValueError):
    """``value`` as an int by the package's one rule for levels, degrees,
    counts, seeds and budgets, kept here as this module imports nothing
    from the package.  Numpy integers pass; bools, whatever
    ``operator.index`` refuses (2.7, 3.0, "2", None) and values outside
    ``least`` .. ``most`` (no cap when None) raise ``error``."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        n = operator.index(value)
        if least <= n and (most is None or n <= most):
            return n
    except TypeError:
        pass
    bound = f">= {least}" if most is None else f"in {least}..{most}"
    raise error(f"{what} must be an integer {bound}, got {value!r}")


# Each form's scalar types: numpy's bool is no np.number, Python's is an int.
_SCALARS = {float: (int, float, np.integer, np.floating),
            complex: (int, float, complex, np.number)}


def _number(value, what, least=-math.inf, error=ValueError, *,
            above=-math.inf, kind=float):
    """``value`` as a float by the package's one rule for reals, or as a
    complex by its form for coefficients (``kind=complex``).  Python and numpy
    scalars pass, integers too; bools, strings, None, arrays, a complex for a
    real, NaN, +-inf and reals below ``least`` or not above ``above`` raise
    ``error``, naming ``what`` (None: the caller names it, as the CLI does)."""
    need = "a number"
    if isinstance(value, _SCALARS[kind]) and not isinstance(value, bool):
        try:
            v = kind(value)
        except OverflowError:  # an int past the float range
            v = math.inf
        if cmath.isfinite(v) and (kind is complex or least <= v and above < v):
            return v
        need = ("a finite number" + f" >= {least:g}" * (least > -math.inf)
                + f" > {above:g}" * (above > -math.inf))
    raise error(f"{what} must be {need}, got {value!r}" if what
                else f"expected {need}, got {value!r}")


def _flag(value, what, error=ValueError):
    """``value`` as a bool by the package's one rule for flags: bools only."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise error(f"{what} must be a boolean, got {value!r}")


def hermite_normalized_all(n: int, y):
    """psi_0(y) .. psi_n(y), psi_k = a_k H_k(y) exp(-y^2/2), along axis 0.

    The recurrence is carried directly on psi_k:
        psi_{k+1} = sqrt(2/(k+1)) * y * psi_k - sqrt(k/(k+1)) * psi_{k-1},
    so each step multiplies by bounded factors and nothing overflows in the
    stated envelope (n <= 200, |y| <= 40).
    """
    n = _integer(n, "degree", 0, MAX_DEGREE)
    y = np.asarray(y, dtype=float)
    out = np.empty((n + 1, y.size))
    flat = y.reshape(-1)
    # In place, in the operation order above, with one row of scratch.
    np.exp(-0.5 * flat * flat, out=out[0])
    if n >= 1:
        np.multiply(flat, _UP[0], out=out[1])
        out[1] *= out[0]
    down = np.empty_like(flat)
    for k, (prev, cur, nxt) in enumerate(zip(out, out[1:], out[2:]), 1):
        np.multiply(flat, _UP[k], out=nxt)
        nxt *= cur
        np.multiply(prev, _DOWN[k], out=down)
        nxt -= down
    return out.reshape((n + 1,) + y.shape)
