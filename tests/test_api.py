import importlib

import pytest

import hermgauss

# The package's public names, by the module that defines each.
PUBLIC = {
    "models": ["ModelPoint", "PhysicalOscillator", "StateSpec", "KernelFn",
               "InvalidStateError", "pdf", "kernel", "from_physical",
               "wavefunction"],
    "quadrature": ["QuadConfig", "QuadResult", "QuadratureError",
                   "IntegrandError", "integrate_real_line"],
    "geometry": ["MetricTensor2", "CurvatureReport", "GeodesicTrace",
                 "metric_closed_form", "metric_quadrature",
                 "metric_gauss_hermite", "metric_adaptive",
                 "metric_series_real", "scalar_curvature_reduced",
                 "curvature_finite_difference", "geodesic_trace", "crb_bound"],
    "estimation": ["SampleBatch", "MleFit", "CrbReport", "sample", "mle_fit",
                   "crb_experiment"],
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_lists_the_public_names():
    assert len(DEFINED_IN) == 32
    assert len(hermgauss.__all__) == 32
    assert set(hermgauss.__all__) == set(DEFINED_IN)


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"hermgauss.{DEFINED_IN[name]}")
    obj = getattr(hermgauss, name)
    assert obj is getattr(module, name)
    assert obj.__module__ == module.__name__


@pytest.mark.parametrize("name", ["truncation_halfwidth", "hermite_all"])
def test_internal_helpers_stay_unexported(name):
    assert not hasattr(hermgauss, name)
