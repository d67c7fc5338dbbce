"""Every public export resolves.

Each name in the ``__all__`` of the public packages must be importable
— ``repro``'s own names are mostly lazy (``_LAZY_ATTRS``), so a
dangling entry only fails when someone touches it.
"""

import importlib

import pytest

import repro

PACKAGES = ("repro", "repro.obs", "repro.runtime", "repro.service")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_lazy_attribute_resolves_and_is_exported():
    for name, (module_name, attr) in repro._LAZY_ATTRS.items():
        target = getattr(importlib.import_module(module_name), attr)
        assert getattr(repro, name) is target
        assert name in repro.__all__


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
