"""The public API is declared once: each module's ``__all__`` lists every
public function and class it defines, and the package re-exports the lists
of the eight numerical modules and nothing else.  A result has one report
type per shape: ``TestReport`` for one statistic, ``BlockReport`` for a
block.  An estimate has one type, ``CovMatrixEstimate``, whose 1x1 case is
the scalar variance estimate."""

import ast
import inspect
from pathlib import Path

import pytest

import orthosample
from orthosample import (distributions, equality, experiments, htests, models, selection,
                         spectral, variance, whittle)

NUMERICAL = (distributions, equality, htests, models, selection, spectral, variance, whittle)

# the package's exports before they were built from the module lists, less
# VarianceEstimate, folded into CovMatrixEstimate as its 1x1 case
FROZEN_EXPORTS = (
    "Dist", "normal", "student_t", "chi_square", "f_dist", "hotelling_t2",
    "KernelSpec", "beta_hat", "equality_test",
    "EmpiricalNull", "TestReport", "portmanteau_test",
    "goodness_of_fit_test", "box_pierce", "robust_portmanteau",
    "MODEL_REGISTRY", "ModelSpec", "generate", "generate_batch", "generate_bivariate",
    "generate_bivariate_batch",
    "SelectionResult", "select_M",
    "DegenerateDataError", "DftGrid", "InvalidInputError", "ShiftRangeError", "WeightFunction",
    "OrthogonalSample", "dft", "grid_frequencies", "ar_transfer",
    "ar_spectral_density", "weighted_average",
    "weighted_average_run", "orthogonal_sample", "lag_weight",
    "CovMatrixEstimate", "variance_estimate", "studentize",
    "covariance_matrix_estimate", "hotelling_test",
    "ARModel", "WhittleFit", "ar_model", "whittle_fit", "whittle_score_variance",
    "__version__",
)


@pytest.mark.parametrize("module", [orthosample, *NUMERICAL, experiments],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


@pytest.mark.parametrize("module", [*NUMERICAL, experiments], ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined, module.__name__
    assert not defined - set(module.__all__), (
        f"{module.__name__} defines {sorted(defined - set(module.__all__))} "
        f"outside its __all__")


def test_package_exports_exactly_the_module_lists():
    declared = [name for module in NUMERICAL for name in module.__all__] + ["__version__"]
    assert len(set(declared)) == len(declared), "a name is declared by two modules"
    assert sorted(orthosample.__all__) == sorted(declared)


def test_earlier_exports_are_kept():
    assert not set(FROZEN_EXPORTS) - set(orthosample.__all__)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from orthosample import *", namespace)
    assert not set(orthosample.__all__) - set(namespace)
    for name in orthosample.__all__:
        assert namespace[name] is getattr(orthosample, name)


REPORT_TYPES = {"TestReport", "BlockReport"}
ESTIMATE_TYPES = {"CovMatrixEstimate"}
SOURCES = sorted(Path(orthosample.__file__).parent.glob("*.py"))


def classes_ending(source: str, suffix: str) -> list[str]:
    """The names of the classes ``source`` defines, at any depth, that end in
    ``suffix``."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith(suffix)]


@pytest.mark.parametrize("module", NUMERICAL, ids=lambda m: m.__name__)
def test_no_report_type_beyond_the_two(module):
    found = classes_ending(Path(module.__file__).read_text(encoding="utf-8"), "Report")
    assert not set(found) - REPORT_TYPES, f"{module.__name__} defines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_estimate_type_beyond_the_one(path):
    found = classes_ending(path.read_text(encoding="utf-8"), "Estimate")
    assert not set(found) - ESTIMATE_TYPES, f"{path.name} defines {found}"


@pytest.mark.parametrize("source, names", [
    ("class TestReport:\n    pass\n", ["TestReport"]),
    ("class Reporter:\n    pass\nclass R:\n    pass\n", []),
    ("def f():\n    class LocalReport:\n        pass\n", ["LocalReport"]),
])
def test_report_scan_finds_what_it_should(source, names):
    assert classes_ending(source, "Report") == names


@pytest.mark.parametrize("source, names", [
    ("class VarianceEstimate:\n    pass\nclass CovMatrixEstimate:\n    pass\n",
     ["VarianceEstimate", "CovMatrixEstimate"]),
    ("class Estimator:\n    pass\n", []),
])
def test_estimate_scan_finds_what_it_should(source, names):
    assert classes_ending(source, "Estimate") == names
