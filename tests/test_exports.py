"""Export integrity: every name a module lists in __all__, and every name the
package imports into haarweight, resolves; and the operators built on a
reducing family or a stopping tree take no exponent, weight or family beside
it.

perfbench/layers.py wraps each layer's public functions by looking up the
names of __all__ with a default, so a stale name there would silently drop
its span rather than fail. A fresh import also loads no scipy module.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import haarweight
from haarweight.reducing import ReducingFamily
from haarweight.stopping import GenerationTree, StoppingConfig

MODULES = sorted(m.name for m in pkgutil.iter_modules(haarweight.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"haarweight.{name}")
    exported = list(getattr(mod, "__all__", ()))
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_names_resolve():
    tree = ast.parse(Path(haarweight.__file__).read_text())
    imported = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"haarweight.{module}"), name)
        assert hasattr(haarweight, name), name


def test_import_leaves_scipy_unloaded():
    """scipy costs about 0.3 s and 30 MiB at import; the package fits its
    lines and finds its eigenvalues without it."""
    src = str(Path(haarweight.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import haarweight, sys; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@pytest.mark.parametrize("name", ["analysis", "multipliers", "stopping"])
def test_exponent_comes_from_the_family_or_tree(name):
    """A family holds its weight and exponent p, and the tree built from it
    holds the family; a second copy of either passed beside them could
    disagree with it unnoticed. So no public operator takes p or weight
    beside a family or tree, or a family beside a tree, and neither class
    keeps its own copy of what it reads through the other."""
    mod = importlib.import_module(f"haarweight.{name}")
    for fname in mod.__all__:
        obj = getattr(mod, fname)
        if inspect.isfunction(obj):
            params = set(inspect.signature(obj).parameters)
            if params & {"family", "tree"}:
                assert not params & {"p", "weight"}, fname
            assert not {"family", "tree"} <= params, fname
    assert "p" not in {f.name for f in dataclasses.fields(StoppingConfig)}
    assert not {"d", "n", "level"} & {f.name for f in dataclasses.fields(ReducingFamily)}
    assert not {"p", "d", "level"} & {f.name for f in dataclasses.fields(GenerationTree)}
