"""The README's library quick tour runs as written."""

import re
from pathlib import Path

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
