"""The docstring examples of every spinlaw module, run as tests."""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = ("weightlattice", "polyring", "spinalg", "richardson", "charseries", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(f"spinlaw.{name}"))
    assert result.attempted > 0, "no examples ran"
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
