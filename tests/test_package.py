import taylorzeros
from taylorzeros import coeffs, diagnostics, experiments, gauss, roots, sampling


def test_package_exports_every_module_list():
    modules = (coeffs, sampling, roots, gauss, diagnostics, experiments)
    assert taylorzeros.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    for m in modules:
        for name in m.__all__:
            assert getattr(taylorzeros, name) is getattr(m, name)


def test_package_exports_its_exceptions():
    from taylorzeros import CovarianceConditioningError, EvaluationError, TruncationError

    # runtime failures, which the CLI reports with exit status 1
    for exc in (CovarianceConditioningError, EvaluationError, TruncationError):
        assert issubclass(exc, RuntimeError)
