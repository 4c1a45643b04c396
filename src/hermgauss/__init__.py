"""Information geometry of the Hermite-Gaussian family of distributions.

The library models position distributions of quantum harmonic oscillator
states over the (mu, sigma) parameter plane and computes their Fisher-Rao
metric, scalar curvature, geodesics and Cramer-Rao bounds through several
mutually cross-validating routes (closed form, exact Gauss-Hermite and
adaptive quadrature, series sums, finite differences), plus a Monte Carlo
estimation harness.
"""

from . import models, quadrature, geometry, estimation
from .models import *
from .quadrature import *
from .geometry import *
from .estimation import *

__all__ = [*models.__all__, *quadrature.__all__, *geometry.__all__,
           *estimation.__all__]

__version__ = "0.1.0"
