"""The public API is declared once: each module's ``__all__`` lists every
public function and class it defines, and the package re-exports the lists
of the eight numerical modules and nothing else.  A result has one report
type per shape: ``TestReport`` for one statistic, ``BlockReport`` for a
block, and a block's row becomes a ``TestReport`` only through
``BlockReport.report``.  An estimate has one type, ``CovMatrixEstimate``, whose 1x1 case is
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
# VarianceEstimate, folded into CovMatrixEstimate as its 1x1 case, and
# normal, a law no statistic is calibrated against
FROZEN_EXPORTS = (
    "Dist", "student_t", "chi_square", "f_dist", "hotelling_t2",
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


# the places that build a TestReport: a block's row, and the two tests of
# the variance layer, which have no block kernel
REPORT_BUILDERS = ["BlockReport.report", "hotelling_test", "studentize"]


def report_builders(source: str) -> list[str]:
    """The dotted name of the function or class around each call of a
    ``TestReport`` in ``source``, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and "TestReport" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_test_reports_are_built_in_the_named_places():
    found = sorted(name for path in SOURCES
                   for name in report_builders(path.read_text(encoding="utf-8")))
    assert found == REPORT_BUILDERS


@pytest.mark.parametrize("source, names", [
    ("def f():\n    return TestReport(1, 2)\n", ["f"]),
    ("class B:\n    def report(self):\n        return htests.TestReport(x)\n",
     ["B.report"]),
    ("r = TestReport(1)\ndef g(x):\n    return [TestReport(y) for y in x]\n", ["", "g"]),
    ("def f():\n    return TestReports(1), report(2)\n", []),
])
def test_builder_scan_finds_what_it_should(source, names):
    assert report_builders(source) == names


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


def _series():
    return models.generate(models.MODEL_REGISTRY["ar_g_0.6"], 128, seed=3).series


def _spec():
    spec = models.MODEL_REGISTRY["ar_g_0.6"]
    return models.ModelSpec(spec.tag, spec.params)


# each frozen type built twice from the same inputs: a ModelSpec compares by
# value and hashes by its tag; the types that hold arrays compare by identity,
# and a TestReport, whose tuning is a dict, compares through them
@pytest.mark.parametrize("build, by_value", [
    (_spec, True),
    (lambda: spectral.dft(_series()), False),
    (lambda: spectral.orthogonal_sample(spectral.dft(_series()), spectral.lag_weight(1), 10),
     False),
    (lambda: whittle.whittle_fit(spectral.dft(_series()), whittle.ar_model(1)), False),
    (lambda: models.generate(models.MODEL_REGISTRY["normal"], 64, seed=1), False),
    (lambda: htests.portmanteau_test(_series()).null_ref, False),
    (lambda: htests.portmanteau_block(_series()[None]), False),
    (lambda: variance.variance_estimate(spectral.orthogonal_sample(
        spectral.dft(_series()), spectral.lag_weight(1), 10)), False),
    (lambda: htests.portmanteau_test(_series()), False),
], ids=["ModelSpec", "DftGrid", "OrthogonalSample", "WhittleFit", "SimOutput",
        "EmpiricalNull", "BlockReport", "CovMatrixEstimate", "TestReport"])
def test_frozen_values_compare_and_hash_without_raising(build, by_value):
    a, b = build(), build()
    assert a == a and (a == b) is by_value and (a != b) is not by_value
    if isinstance(a, htests.TestReport):
        return
    assert len({a, b}) == (1 if by_value else 2)
    if by_value:  # "normal" and "pivot_i" are one spec
        assert hash(a) == hash(b)
        assert len(set(models.MODEL_REGISTRY.values())) == 16
