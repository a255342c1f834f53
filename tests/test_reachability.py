"""Every function defined in ``src/orthosample`` runs from a user surface,
or is named in ``REASONS`` with the reason it stays.

One fresh interpreter (``python -W error``, warnings are errors as in the
rest of the suite) installs a profile hook before ``import orthosample`` and
drives the surfaces a user has: every config under ``configs/``, ``run
--json``, a config written as JSON, every ``orthosample test`` kind with and
without ``--M``, ``selectM``, the README's python blocks and a few bad
inputs.  It writes the (file, first line) of every package code object it
entered; an AST walk of ``src/`` maps those to qualified names by the ``def``
line or the first decorator's line, as ``co_firstlineno`` gives it.

Run as a script (``python -W error tests/test_reachability.py OUT.json``)
it drives the surfaces and writes OUT.json itself.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orthosample"

_ITEM_3 = "ROADMAP item 3 wires it or deletes it"
_BIVARIATE = ("the public block of one of generate_bivariate_batch, as generate is of "
              "generate_batch; criterion 7 of tests/test_acceptance.py draws through it")
# qualified name (module.Class.function) -> why it stays unreached
REASONS = {
    "whittle.whittle_score_variance": _ITEM_3,
    "whittle.ARModel.gradient": _ITEM_3,
    "whittle.ARModel.density_on_grid": _ITEM_3,
    "variance.covariance_matrix_estimate": _ITEM_3,
    "variance._covariance_block": _ITEM_3,
    "variance.hotelling_test": _ITEM_3,
    "distributions.hotelling_t2": _ITEM_3,
    "distributions.f_dist": _ITEM_3,
    "models.generate_bivariate": _BIVARIATE,
}


def _drive(out_path: str) -> None:
    """Run every surface under a profile hook and write the exit codes and
    the package code objects entered to ``out_path`` as JSON."""
    import contextlib
    import io
    import re
    import threading

    import numpy as np

    entered = set()
    src = str(SRC)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    threading.setprofile(hook)  # the process pool pickles its jobs in a thread
    from orthosample import cli

    rng = np.random.default_rng(38)
    x = rng.standard_normal(512)
    for t in range(1, 512):
        x[t] += 0.6 * x[t - 1]
    files = {"one.csv": x[:, None], "two.csv": rng.standard_normal((256, 2)),
             "huge.csv": 1e200 * x[:, None]}
    for name, data in files.items():
        Path(name).write_text("\n".join(",".join(map(repr, row.tolist())) for row in data))
    Path("bad.csv").write_text("0.5\n1.5\nnot-a-number\n2.5\n")
    Path("json.cfg").write_text(json.dumps({"experiment": "table_uncorrelated_null",
                                            "models": ["normal"], "T": [100], "nrep": 5}))
    Path("qq_method.cfg").write_text("experiment = table_uncorrelated_null\nmethods = qq_t10\n")

    configs = ROOT / "configs"
    surfaces = [(f"run {cfg.name}", ["run", str(cfg), "--nrep", "20", "--out", f"out/{cfg.stem}"],
                 0, {}) for cfg in sorted(configs.glob("*.cfg"))]
    Path("out").mkdir()
    surfaces += [
        # a block of one ARCH replication runs the full ARCH loop
        ("run with --nrep 1", ["run", str(configs / "uncorrelated_null_T100.cfg"),
                               "--nrep", "1", "--out", "out/one"], 0, {}),
        ("run with ORTHOSAMPLE_WORKERS=2", ["run", str(configs / "gof_null_ar06_chi.cfg"),
                                            "--nrep", "20", "--out", "out/pool"],
         0, {"ORTHOSAMPLE_WORKERS": "2"}),
        ("run --json", ["run", str(configs / "qq_t10.cfg"), "--nrep", "5", "--out", "out/json",
                        "--json"], 0, {}),
        ("a config written as a JSON object", ["run", "json.cfg", "--out", "out/json_cfg"],
         0, {}),
    ]
    for kind, (columns, options, _) in cli.TESTS.items():
        data = "one.csv" if columns == 1 else "two.csv"
        surfaces.append((f"test {kind}", ["test", kind, data], 0, {}))
        if "M" in options:
            surfaces.append((f"test {kind} --M 10", ["test", kind, data, "--M", "10"], 0, {}))
    surfaces += [
        ("selectM", ["selectM", "one.csv"], 0, {}),
        ("a CSV with an unparsable line", ["test", "portmanteau", "bad.csv"], 3, {}),
        ("gof_ar1 on data scaled by 1e200", ["test", "gof_ar1", "huge.csv"], 3, {}),
        ("an option before the kind", ["test", "--M", "10", "portmanteau", "one.csv"], 2, {}),
        ("the qq_t10 method with no M", ["run", "qq_method.cfg", "--out", "out/qq"], 2, {}),
    ]
    exits = []
    with contextlib.redirect_stdout(io.StringIO()):
        for label, argv, want, env in surfaces:
            os.environ.update(env)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                exits.append((label, want, cli.main(argv), err.getvalue()))
            for key in env:
                del os.environ[key]
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for block in re.findall(r"```python\n(.*?)```", readme, re.S):
            exec(compile(block, str(ROOT / "README.md"), "exec"), {})
    sys.setprofile(None)
    threading.setprofile(None)
    Path(out_path).write_text(json.dumps({"exits": exits, "entered": sorted(entered)}))


@functools.cache
def _definitions() -> dict:
    """module.Class.function -> (file, {def line, decorator lines}) for every
    function definition in the package, nested ones included."""
    defs = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    assert name not in defs, f"{name} is defined twice"
                    defs[name] = (str(path), {child.lineno,
                                              *(d.lineno for d in child.decorator_list)})
            walk(child, name, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return defs


def _unreached(scan: dict) -> dict:
    """module.Class.function -> file:line for each definition never entered."""
    entered = {tuple(e) for e in scan["entered"]}
    return {name: f"{Path(file).relative_to(ROOT)}:{min(lines)}"
            for name, (file, lines) in _definitions().items()
            if not any((file, line) in entered for line in lines)}


def _scan(tmp_path: Path) -> dict:
    out = tmp_path / "scan.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    env.pop("ORTHOSAMPLE_WORKERS", None)
    proc = subprocess.run([sys.executable, "-W", "error", __file__, str(out)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, f"the surfaces stopped early:\n{proc.stderr}"
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    return _scan(tmp_path_factory.mktemp("reachability"))


def test_every_surface_exits_as_expected(scan):
    wrong = [f"{label}: exit {got}, expected {want}; stderr:\n{err}"
             for label, want, got, err in scan["exits"] if got != want]
    assert not wrong, "\n".join(wrong)


def test_every_function_is_reached_or_has_a_reason(scan):
    missing = sorted(f"{where}: {name}" for name, where in _unreached(scan).items()
                     if name not in REASONS)
    assert not missing, "reached from no user surface and not in REASONS:\n" + "\n".join(missing)


def test_every_reason_names_an_unreached_function(scan):
    defined, unreached = _definitions(), _unreached(scan)
    stale = [f"{name}: no longer defined" for name in REASONS if name not in defined]
    stale += [f"{name}: now reached from a user surface" for name in REASONS
              if name in defined and name not in unreached]
    assert not stale, "stale REASONS entries:\n" + "\n".join(stale)


if __name__ == "__main__":
    _drive(sys.argv[1])
