"""Every top-level import of the package is used: a name a module imports
appears in its code or in its ``__all__``."""

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
