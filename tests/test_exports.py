"""Export integrity: every name a module lists in __all__, and every name the
package imports into haarweight, resolves; the operators built on a
reducing family or a stopping tree take no exponent, weight or family beside
it; and per-cube data lives on the level-row axis only.

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

import numpy as np

import haarweight
from haarweight.dyadic import HaarCoefficients, _cube_count
from haarweight.reducing import ReducingFamily, build_reducing_family
from haarweight.stopping import GenerationTree, StoppingConfig, build_generations
from haarweight.weights import WeightSpec, make_weight

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


def test_per_cube_data_lives_on_the_level_row_axis():
    """Each class stores its per-cube data once, as row arrays with the cubes
    of every level on one axis, and offers no per-level list views of it:
    code that needs a level's grid cuts it with dyadic._levels. The method
    codes' views are the one exception; perfbench/layers.py, their only
    reader, sums them level by level."""
    d, level = 2, 3
    weight = make_weight(WeightSpec("w", "rotating", d=d, n=2, level=level,
                                    params={"alpha": 0.5}, seed=1))
    fam = build_reducing_family(weight, 3.0)
    tree = build_generations(fam, StoppingConfig(lambda1=1.5, lambda2=1.5))
    coeffs = HaarCoefficients.zeros(d, 2, level)
    cubes = _cube_count(d, level + 1)
    rows = {
        (fam, "operators"): (2, cubes, 2, 2), (fam, "kappas"): (2, cubes),
        (fam, "methods"): (2, cubes), (fam, "inverses"): (cubes, 2, 2),
        (coeffs, "rows"): (_cube_count(d, level), 3, 2),
        (tree, "labels"): (cubes,), (tree, "fired"): (cubes,), (tree, "tests"): (2, cubes),
    }
    for (obj, name), shape in rows.items():
        assert getattr(obj, name).shape == shape, name
    views = {}
    for obj in (fam, coeffs, tree):
        for name in dir(type(obj)):
            attr = getattr(type(obj), name)
            if isinstance(attr, property) and not name.startswith("_"):
                value = getattr(obj, name)
                if isinstance(value, list) and all(isinstance(a, np.ndarray) for a in value):
                    views[type(obj).__name__, name] = len(value)
    assert views == {("ReducingFamily", "method"): level + 1,
                     ("ReducingFamily", "method_dual"): level + 1}, (
        "per-level views other than ReducingFamily.method and method_dual, "
        "which perfbench/layers.py reads")
