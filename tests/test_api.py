"""The public surface: every exported name resolves to a package attribute."""

import importlib

import pytest

import roadcorr

MODULES = ("model", "specfun", "analytic", "sim")


def test_package_exports_resolve():
    missing = [name for name in roadcorr.__all__ if not hasattr(roadcorr, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve_and_are_reexported(module):
    mod = importlib.import_module(f"roadcorr.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert set(mod.__all__) <= set(roadcorr.__all__)
