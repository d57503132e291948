"""Every exported name resolves: the package's __all__ and each module's."""

import importlib
import pkgutil

import pytest

import bfvlab

MODULES = ["bfvlab", *(f"bfvlab.{info.name}" for info in pkgutil.iter_modules(bfvlab.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
