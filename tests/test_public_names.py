"""Every name a `repro` module lists in `__all__` resolves.

`from repro.x import *` and the docs rely on `__all__`; a name left there
after its definition is deleted only fails when someone star-imports it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro"]
    + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
