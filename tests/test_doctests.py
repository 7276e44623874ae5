"""Checks that walk every spinlaw module: its docstring examples, its caches
and which of them reads the packed character kernel."""

from __future__ import annotations

import ast
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_only_charseries_reads_packed_keys():
    # characters are rendered where they are packed: no other module reads
    # a kernel dict, unpacks a key or sorts a character's terms to print them
    import spinlaw.cli as cli

    src = Path(spinlaw.__file__).parent
    readers = {
        path.name: hits
        for path in sorted(src.glob("*.py"))
        if path.name != "charseries.py"
        if (hits := re.findall(r"\.sorted_terms\(|\._terms|_unpack", path.read_text()))
    }
    assert readers == {}
    moved = ("format_mono", "format_laurent", "format_denominator", "MONO_VARS", "MONO_VARS_TEX")
    assert [name for name in moved if hasattr(cli, name)] == []


def test_only_packing_sizes_polyring_fields():
    # one monomial layout: polyring takes a field width from a bit length only
    # in _Packing, and reads other bit lengths only off packed monomials
    # (unpacking, and the reducer's scan of a monomial's fields)
    tree = ast.parse((Path(spinlaw.__file__).parent / "polyring.py").read_text())
    sites = {}
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            name = getattr(fn, "name", "")
            if fn is not node:
                name = f"{node.name}.{name}"
            if calls := [ast.unparse(n.value) for n in ast.walk(fn)
                         if isinstance(n, ast.Attribute) and n.attr == "bit_length"]:
                sites[name] = calls
    assert sites == {
        "_Packing.__init__": ["degree"],
        "_Packing.unpack": ["low"],
        "_Reducer._run": ["low"],
    }
