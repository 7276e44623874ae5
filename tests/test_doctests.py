"""Checks that walk every spinlaw module: its docstring examples and its caches."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import spinlaw

MODULES = tuple(info.name for info in pkgutil.iter_modules(spinlaw.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(f"spinlaw.{name}"))
    assert result.attempted > 0, "no examples ran"
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_every_cache_is_bounded():
    # a cache keyed by its caller's input must not grow with the input, and
    # the caches are the ones the README names: a new one is named there too
    caches = {
        f"{info.name}.{attr}": fn
        for info in pkgutil.iter_modules(spinlaw.__path__)
        for attr, fn in vars(importlib.import_module(f"spinlaw.{info.name}")).items()
        if hasattr(fn, "cache_parameters")
    }
    assert sorted(caches) == [
        "charseries._fraction",
        "spinalg.automorphism_u",
        "spinalg.fierz_identities",
        "spinalg.gamma_affine",
        "spinalg.gamma_quadrics",
    ]
    unbounded = [k for k, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
