import importlib
import pkgutil

import pytest

import pllab

MODULES = sorted(m.name for m in pkgutil.iter_modules(pllab.__path__, "pllab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(set(exported)) == sorted(exported), "a name is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []
