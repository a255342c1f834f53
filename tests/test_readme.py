"""The README's library quick tour runs as written, its API table lists the
package's exports, its error lists name every exception the package
defines, and each dotted name it gives resolves in the package."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import orthosample

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert 10 <= namespace["sel"].chosen_M <= 30
    assert not namespace["fit"].on_boundary
    for name in ("pt", "gof", "eq"):
        assert 0.0 <= namespace[name].p_value <= 1.0


def test_api_table_lists_every_export_under_its_module():
    section = README.read_text(encoding="utf-8").split("## API\n", 1)[1].split("\n## ", 1)[0]
    listed, module = {}, None
    for line in section.splitlines():
        if line.startswith("### "):
            module = line.strip("# `")
        elif line.startswith("| `"):
            listed.setdefault(module, []).append(line.split("`")[1])
    names = [name for rows in listed.values() for name in rows]
    # both ways, and each name once
    assert sorted(names) == sorted(set(orthosample.__all__) - {"__version__"})
    for module, rows in listed.items():
        assert set(rows) == set(getattr(orthosample, module).__all__), module


def test_every_exception_class_is_documented():
    text = README.read_text(encoding="utf-8")
    defined = [name for info in pkgutil.iter_modules(orthosample.__path__)
               if not info.name.startswith("_")
               for name, obj in vars(importlib.import_module(f"orthosample.{info.name}")).items()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == f"orthosample.{info.name}"]
    assert {"DataError", "ConfigError", "DegenerateDataError"} <= set(defined)
    assert not [name for name in defined if f"`{name}`" not in text]


def test_models_table_names_every_registry_spec():
    # each row's registry names share the row's tag and parameter names
    from orthosample.models import _PARAMS, MODEL_REGISTRY

    section = README.read_text(encoding="utf-8").split("## Models\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| `")]
    listed = {}
    for names, tag, params, _ in rows:
        for name in re.findall(r"`([^`]+)`", names):
            listed[name] = (tag.strip().strip("`"), set(re.findall(r"`([^`]+)`", params)))
    assert sorted(listed) == sorted(MODEL_REGISTRY)
    assert {tag for tag, _ in listed.values()} == set(_PARAMS)
    for name, spec in MODEL_REGISTRY.items():
        assert listed[name] == (spec.tag, set(spec.params)), name
    namespace = {}
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, str(README), "exec"), namespace)
    assert namespace["x"].shape == (200,)


def test_dotted_names_resolve():
    # every backticked `module.name` or `Class.field` whose head is a module
    # or class of the package names something it has
    owners = {"orthosample": orthosample}
    for info in pkgutil.iter_modules(orthosample.__path__):
        if not info.name.startswith("_"):
            owners[info.name] = importlib.import_module(f"orthosample.{info.name}")
    owners |= {name: obj for module in list(owners.values()) for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__.startswith("orthosample")}
    text = README.read_text(encoding="utf-8")
    checked = [(head, name) for head, name in re.findall(r"`(\w+)\.(\w+)`", text)
               if head in owners]
    for head, name in checked:
        owner = owners[head]
        fields = {f.name for f in dataclasses.fields(owner)} if (
            inspect.isclass(owner) and dataclasses.is_dataclass(owner)) else set()
        assert hasattr(owner, name) or name in fields, f"`{head}.{name}` does not resolve"
    assert len(checked) >= 10
