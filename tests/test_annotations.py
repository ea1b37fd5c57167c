"""Every annotation in the package names something the module can resolve.

``from __future__ import annotations`` keeps annotations as strings, so a name
used only in an annotation and never imported goes unnoticed until something
evaluates it. ``typing.get_type_hints`` evaluates them all.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import kgrag

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(kgrag.__path__, prefix="kgrag.")
    if info.name != "kgrag.__main__"
)


def _defined_functions(module):
    """(qualified name, function) for each function and method written in ``module``'s source."""

    def written_here(fn) -> bool:
        return inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__

    for name, obj in vars(module).items():
        if written_here(obj):
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if written_here(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_every_annotation_resolves(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for name, fn in _defined_functions(module):
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
