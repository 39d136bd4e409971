"""Haar multipliers and the weighted synthesis operator T.

A multiplier acts coefficient-wise (apply_symbols): the detail coefficient at
(I, eps) is multiplied by one matrix per cube, V_I in the square function and
V_I^{-1} in T, in one apply_cells call over the level-row axis (see dyadic)
that symbols and coefficients share; the root scaling term passes through
untouched. T composes the inverse multiplier with Haar synthesis and a
pointwise W^{1/p} factor,

    T f = W^{1/p} sum_{I, eps} V_I^{-1} f_I^eps h_I^eps,

with W the weight of the reducing family and p its exponent, realized
coefficient-side then cellwise, never as a dense matrix. The blocks T_j f
take the family from their stopping tree, apply V_I^{-1} once, split the
result along the stopping generations, and synthesize every piece at once;
the pieces partition the detail coefficients, so the blocks sum back to T f.
Both require mean-zero f.

Batches ride in the value axis. A batch of k functions carries a trailing
axis of length k after the n value components (see dyadic), and the
generation pieces add one more: the symbols act on each column alike, and
one Haar synthesis covers every function and every generation.
"""
from __future__ import annotations

import numpy as np

from .dyadic import GridFunction, HaarCoefficients, _cube_count, haar_reconstruct
from .errors import CoverageError, ParameterError, ShapeError
from .reducing import ReducingFamily
from .stopping import GenerationTree, split_generations
from .weights import apply_cells, check_grid

__all__ = [
    "apply_symbols",
    "t_operator",
    "t_blocks",
]


def check_coverage(symbols: np.ndarray, d: int, levels: int):
    """CoverageError unless symbols, rows on the level-row axis in dimension
    d, has a row for every cube of levels 0..levels-1."""
    need = _cube_count(d, levels)
    if symbols.shape[0] < need:
        raise CoverageError(
            f"coefficients need symbols to level {levels - 1}, {need} rows; "
            f"the family has {symbols.shape[0]}"
        )


def check_dims(f: HaarCoefficients, family: ReducingFamily):
    """ShapeError unless the coefficients f and the family share (d, n)."""
    if (f.d, f.n) != (family.d, family.n):
        raise ShapeError(
            f"coefficients (d={f.d}, n={f.n}) do not match family "
            f"(d={family.d}, n={family.n})"
        )


def apply_symbols(symbols: np.ndarray, f: HaarCoefficients) -> np.ndarray:
    """Each cube's symbol applied to every detail coefficient of that cube,
    as rows like f.rows: symbols has shape (cubes, n, n) on the level-row
    axis, one apply_cells call over all of f's rows. Rows of symbols beyond
    f's levels go unused; fewer raise CoverageError (check_coverage)."""
    check_coverage(symbols, f.d, f.level)
    return apply_cells(symbols[: f.rows.shape[0], None], f.rows)


def _require_mean_zero(f: HaarCoefficients):
    scale = max(1.0, float(np.abs(f.rows).max(initial=0.0)))
    if float(np.linalg.norm(f.root_scaling)) > 1e-9 * scale:
        raise ParameterError(
            "operator is defined on mean-zero input; root scaling is not zero"
        )


def _reduced(family: ReducingFamily, f: HaarCoefficients) -> HaarCoefficients:
    """f, on the grid of the family's weight, with V_I^{-1} applied to every
    detail coefficient."""
    check_grid(f, family.weight)
    return HaarCoefficients(f.d, f.n, f.level, f.root_scaling, apply_symbols(family.inverses, f))


def _synthesize(family: ReducingFamily, c: HaarCoefficients) -> GridFunction:
    """W^{1/p} times the Haar synthesis of c, W and p the family's."""
    g = haar_reconstruct(c)
    vals = apply_cells(family.weight.power_cells(1.0 / family.p), g.values)
    return GridFunction(g.d, g.n, g.level, vals)


def t_operator(family: ReducingFamily, f: HaarCoefficients) -> GridFunction:
    """T f = W^{1/p} M^{-1} f as a grid function, W and p the family's;
    requires mean-zero f."""
    _require_mean_zero(f)
    return _synthesize(family, _reduced(family, f))


def t_blocks(tree: GenerationTree, f: HaarCoefficients) -> GridFunction:
    """The generation pieces T_1 f, ..., T_G f as one batch, T that of the
    tree's family: the last axis of the values holds T_j f at index j - 1,
    and they sum to T f. Requires mean-zero f, as T does."""
    _require_mean_zero(f)
    pieces = split_generations(_reduced(tree.family, f), tree)
    return _synthesize(tree.family, pieces)
