"""Every exported name exists: a stale entry in ``__all__`` breaks
``from orthosample import *``."""

import pytest

import orthosample
from orthosample import equality, htests


@pytest.mark.parametrize("module", [orthosample, htests, equality],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"
