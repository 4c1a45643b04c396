"""Information geometry of the Hermite-Gaussian family of distributions.

The library models position distributions of quantum harmonic oscillator
states over the (mu, sigma) parameter plane and computes their Fisher-Rao
metric, scalar curvature, geodesics and Cramer-Rao bounds through several
mutually cross-validating routes (closed form, exact Gauss-Hermite and
adaptive quadrature, series sums, finite differences), plus a Monte Carlo
estimation harness.
"""

from .hermite import orthogonality_residual
from .models import (
    ModelPoint,
    PhysicalOscillator,
    StateSpec,
    KernelFn,
    InvalidStateError,
    pdf,
    kernel,
    from_physical,
    wavefunction,
)
from .quadrature import (
    QuadConfig,
    QuadResult,
    QuadratureError,
    IntegrandError,
    integrate_real_line,
)
from .geometry import (
    MetricTensor2,
    CurvatureReport,
    GeodesicTrace,
    metric_closed_form,
    metric_quadrature,
    metric_gauss_hermite,
    metric_adaptive,
    metric_series_real,
    scalar_curvature_reduced,
    curvature_finite_difference,
    geodesic_trace,
    crb_bound,
    sigma_variance_bound,
)
from .estimation import (
    SampleBatch,
    CrbReport,
    sample,
    mle_fit,
    crb_experiment,
)

__all__ = [
    "orthogonality_residual",
    "ModelPoint",
    "PhysicalOscillator",
    "StateSpec",
    "KernelFn",
    "InvalidStateError",
    "pdf",
    "kernel",
    "from_physical",
    "wavefunction",
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "IntegrandError",
    "integrate_real_line",
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
    "sigma_variance_bound",
    "SampleBatch",
    "CrbReport",
    "sample",
    "mle_fit",
    "crb_experiment",
]

__version__ = "0.1.0"
