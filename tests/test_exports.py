"""Every name in ``__all__`` resolves, in the package root and in each
module that declares one."""

import importlib
import pkgutil

import pytest

import colordecode

MODULES = [colordecode] + [
    importlib.import_module(f"colordecode.{m.name}")
    for m in pkgutil.iter_modules(colordecode.__path__)
]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_names_resolve(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
