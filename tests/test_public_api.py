"""Every name a module exports in __all__ resolves on that module, so a
stale export fails here and not first in ``from module import *``."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import epilab

PUBLIC_MODULES = sorted(m.name for m in pkgutil.iter_modules(epilab.__path__, "epilab.")
                        if not m.name.rpartition(".")[2].startswith("_"))


def test_public_modules_found():
    assert "epilab.oracle" in PUBLIC_MODULES and "epilab.bignum" in PUBLIC_MODULES


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
