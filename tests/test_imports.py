"""Every top-level import of the package is used: a name a module imports
appears in its code or in its ``__all__``.  And every private name one module
imports from another is a named one: a new cross-module private import fails
until it is added to ``PRIVATE_IMPORTS``."""

import ast
from pathlib import Path

import pytest

import orthosample

SOURCES = sorted(Path(orthosample.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the top-level imports of ``source`` that no other
    node of it reads; star and ``__future__`` imports bind none."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # a literal __all__ re-exports what it lists
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c, d\nd()\n", ["c"]),
    ("from a import *\nfrom __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b\ndef f(x: b): pass\n", []),
    ("import numpy as np\ndef f():\n    import json\n", ["np"]),
])
def test_scan_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused


# (importing module, "module._name") for every ``from .module import _name``
PRIVATE_IMPORTS = sorted([
    # the input rules, checked where the input arrives
    *[(m, "spectral._integer") for m in ("distributions", "experiments", "htests", "models",
                                          "selection", "whittle")],
    *[(m, "spectral._check_shift") for m in ("equality", "experiments", "htests", "whittle")],
    *[(m, "spectral._real") for m in ("distributions", "equality", "experiments", "models",
                                       "variance")],
    *[(m, "spectral._density_values") for m in ("htests", "whittle")],
    ("experiments", "equality._check_beta"),
    ("experiments", "models._check_bivariate"),
    ("experiments", "selection._search_set"),
    ("htests", "selection._feasible"),
    ("htests", "selection._select_block"),
    # the shared kernels
    ("equality", "spectral._circular_convolve"),
    ("equality", "spectral._dft_into"),
    ("equality", "spectral._shift_chunks"),
    ("experiments", "htests._lag_rows"),
    ("whittle", "spectral._ar_density"),
    ("whittle", "variance._covariance_block"),
    # the pieces the CLI composes
    ("cli", "experiments._apply"),
    ("cli", "htests._goodness_of_fit_coeffs"),
    ("cli", "htests._orthogonal_report"),
])


def private_imports(source: str) -> list[str]:
    """"module._name" for every relative import of a private name in
    ``source``, at any depth."""
    return [f"{node.module or ''}.{a.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names if a.name.startswith("_")]


def test_private_imports_are_the_named_ones():
    found = sorted((path.stem, name) for path in SOURCES
                   for name in private_imports(path.read_text(encoding="utf-8")))
    assert found == PRIVATE_IMPORTS


@pytest.mark.parametrize("source, names", [
    ("from .spectral import _integer, dft\n", ["spectral._integer"]),
    ("from .a import (b, _c as d)\nfrom . import _e\n", ["a._c", "._e"]),
    ("def f():\n    from .a import _b\n", ["a._b"]),
    ("from a import _b\nimport _c\nfrom .a import b\n", []),
])
def test_private_scan_finds_what_it_should(source, names):
    assert private_imports(source) == names
