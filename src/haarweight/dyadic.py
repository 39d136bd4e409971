"""The tensor-product Haar system on the dyadic cubes of [0,1)^d.

Functions live on the finest dyadic grid (level L): a grid function stores one
vector value per cell, understood as the cell average of an L^2 function that
is constant on cells. On that space the truncated Haar system (all cubes of
level < L) plus the unit scaling function is an orthonormal basis, and the
pyramid transform below realizes analysis/synthesis exactly (machine
precision, scalings are powers of 2).

The pyramid. Analysis is the tensor-product 1-D butterfly: on each level it
maps the even and odd cells (x0, x1) of grid axis 0 to (x0 - x1, x0 + x1),
then does the same on axis 1 to each result, and so on to axis d - 1.
Difference on axis i means eps_i = 0, and sum means eps_i = 1. The outputs
are the 2^d - 1 detail signatures, in order, then the all-sums parent. Sums
stay unnormalized up the pyramid; at the end one product with per-row
factors (a power of 2 times 2^{-l d / 2}) turns them into coefficients.
Synthesis runs the inverse butterfly (total + diff, total - diff) on axis
d - 1 first and axis 0 last. Both cores, _analyze and _synthesize, act on
plain arrays, with the details on the level-row axis (below).
haar_transform and haar_reconstruct wrap them. At d = 1 each coefficient is
one rounded two-term difference. At d >= 2 the 2^d-term sums are
associated pairwise, axis by axis.

Batches. k functions on one grid travel together as one object with a
trailing batch axis: values (2^L,)*d + (n, k), details (cubes, 2^d - 1, n,
k). The butterflies act on each value component and column on its own, so a
batch column is transformed bit for bit as it is alone, and every L^p
quantity is one sum per column (_lp_integrals) over that column's contiguous
row (_column_rows). Any number of batch axes may follow n. Per-cube data
(Haar details, cube averages, reducing operators, W = s A flags, stopping
labels and tests) is stored and passed only on the level-row axis, every
cube level by level, each level in index order: a cube-by-cube operation is
one array operation on it, a per-level factor one value per row
(_level_factors), and a pass down the levels cuts level views (_levels).

Conventions. A cube at level l has sidelength 2^-l and index in {0..2^l-1}^d;
child gamma in {0,1}^d selects the left (0) or right (1) half per axis. A Haar
signature eps in {0,1}^d \\ {(1,..,1)} marks coordinate i as oscillating
(eps_i = 0, sign (-1)^{gamma_i}) or scaling (eps_i = 1, sign +1); the function
h_I^eps takes the values sign * 2^{l d / 2} on the children of I. For d = 1
this is |I|^{-1/2} (chi_left - chi_right).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = [
    "GridFunction",
    "HaarCoefficients",
    "haar_transform",
    "haar_reconstruct",
    "haar_exactness_errors",
    "lp_norm",
    "detail_signatures",
    "mean_pyramid",
    "refine_to_cells",
]


# ---------------------------------------------------------------------------
# signatures


def detail_signatures(d: int) -> tuple:
    """All 2^d - 1 detail signatures in lexicographic order."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    full = (1,) * d
    return tuple(e for e in itertools.product((0, 1), repeat=d) if e != full)


# ---------------------------------------------------------------------------
# block reshaping and the level-row axis (shared across the modules)


def _blocks(a: np.ndarray, d: int, b: int) -> np.ndarray:
    """Reshape a (h b,)*d + tail array to (h,)*d + (b^d,) + tail blocks.

    The block axis enumerates the cells of each block in lexicographic
    order; for b = 2 these are the children gamma.
    """
    h = a.shape[0] // b
    tail = a.shape[d:]
    a = a.reshape((h, b) * d + tail)
    order = (*range(0, 2 * d, 2), *range(1, 2 * d, 2), *range(2 * d, a.ndim))
    return a.transpose(order).reshape((h,) * d + (b**d,) + tail)


def _cube_blocks(cells: np.ndarray, d: int, l: int) -> np.ndarray:
    """(2^L,)*d + tail -> (cubes at level l, cells per cube) + tail."""
    b = _blocks(cells, d, cells.shape[0] >> l)
    return b.reshape((1 << l * d,) + b.shape[d:])


def _cube_count(d: int, levels: int) -> int:
    """Rows of the level-row axis that levels 0..levels-1 fill."""
    return ((1 << levels * d) - 1) // ((1 << d) - 1)


def _levels(rows: np.ndarray, d: int) -> list:
    """Cut a (cubes,) + tail row array into per-level (2^l,)*d + tail views,
    as many levels as the rows fill."""
    out, start = [], 0
    while start < rows.shape[0]:
        size = 1 << (len(out) * d)
        shape = ((1 << len(out)),) * d + rows.shape[1:]
        out.append(rows[start : start + size].reshape(shape))
        start += size
    return out


@functools.cache
def _level_factors(d: int, per_level: tuple) -> np.ndarray:
    """per_level[l] on every row of level l of the level-row axis, levels
    0..len(per_level) - 1, as a read-only (rows,) array."""
    f = np.repeat(np.array(per_level, dtype=float),
                  [1 << l * d for l in range(len(per_level))])
    f.flags.writeable = False
    return f


# the working-set budget of the batched paths, in float64 entries (1 MiB):
# each walks one axis (directions, function columns, cubes, quadrature rows)
# in blocks of _spans, so a call's temporaries no longer grow with how many
# items it handles. Every item of such an axis is computed on its own, so the
# blocks leave the outputs unchanged
_BLOCK_ENTRIES = 1 << 17


def _even_slices(count: int, limit: int) -> list:
    """range(count) cut into the fewest even blocks of at most limit items,
    as slices; one empty slice when count is 0."""
    blocks = max(1, -(-count // max(1, limit)))
    edges = [count * i // blocks for i in range(blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _spans(count: int, per_item: int) -> list:
    """Blocks of count items that hold per_item entries each, within
    _BLOCK_ENTRIES per block (at least one item per block)."""
    return _even_slices(count, _BLOCK_ENTRIES // max(1, per_item))


def _column_blocks(f: "HaarCoefficients", per_column: int):
    """(index, coefficients) per block of the columns of a batch with one
    batch axis (_spans; the coefficients are views); a single function, or a
    batch of several axes, is one block with index Ellipsis."""
    if len(f.batch) != 1:
        yield Ellipsis, f
        return
    for cols in _spans(f.batch[0], per_column):
        yield cols, HaarCoefficients(f.d, f.n, f.level, f.root_scaling[..., cols],
                                     f.rows[..., cols])


def mean_pyramid(cells: np.ndarray, d: int, depth: int) -> np.ndarray:
    """Averages over the cubes of levels 0..depth, as (cubes,) + tail rows
    of the level-row axis, from cells, a (2^L,)*d + tail array of finest-cell
    values (copied at depth L). Each coarser level is the mean of its
    children, written into its rows, so no level depends on depth. Averages
    of equal-measure cells are exact integrals.
    """
    levels = int(round(np.log2(cells.shape[0]))) if cells.shape[0] > 1 else 0
    if cells.shape[:d] != ((1 << levels),) * d:
        raise ShapeError(f"cell array shape {cells.shape} is not a dyadic {d}-grid")
    if not 0 <= depth <= levels:
        raise ParameterError(f"pyramid depth {depth} outside [0, {levels}]")
    out = np.empty((_cube_count(d, depth + 1),) + cells.shape[d:])
    views = _levels(out, d)
    if depth == levels:
        views[levels][...] = cells
    a = cells
    for lvl in range(levels - 1, -1, -1):
        a = _blocks(a, d, 2).mean(axis=d, out=views[lvl] if lvl <= depth else None)
    return out


def refine_to_cells(arr: np.ndarray, d: int, k: int) -> np.ndarray:
    """Repeat each entry over a 2^k block per axis (piecewise-constant refine)."""
    for axis in range(d):
        arr = np.repeat(arr, 1 << k, axis=axis)
    return arr


# ---------------------------------------------------------------------------
# grid functions and coefficients


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A function on [0,1)^d constant on level-L cells, with values in R^n.

    values has shape (2^L,)*d + (n,); axis j indexes coordinate x_j. A batch
    of functions appends its batch axes: (2^L,)*d + (n,) + batch.
    """

    d: int
    n: int
    level: int
    values: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.level < 0:
            raise ParameterError(
                f"invalid grid function dims d={self.d} n={self.n} L={self.level}"
            )
        v = np.asarray(self.values, dtype=float)
        want = ((1 << self.level),) * self.d + (self.n,)
        if v.shape[: len(want)] != want:
            raise ShapeError(f"values shape {v.shape}, expected {want} + batch")
        if not np.all(np.isfinite(v)):
            raise ShapeError("values contain non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def batch(self) -> tuple:
        """Shape of the batch axes after n; () for a single function."""
        return self.values.shape[self.d + 1 :]


@dataclass(eq=False)
class HaarCoefficients:
    """Haar analysis data: root scaling coefficient plus details on the
    level-row axis.

    rows has shape (cubes of level < L, 2^d - 1, n), signature axis ordered
    as detail_signatures(d). A batch appends its batch axes to root_scaling
    (n,) and to rows.
    """

    d: int
    n: int
    level: int
    root_scaling: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        rs = np.asarray(self.root_scaling, dtype=float)
        if rs.shape[:1] != (self.n,):
            raise ShapeError(
                f"root scaling shape {rs.shape}, expected ({self.n},) + batch"
            )
        rows = np.asarray(self.rows, dtype=float)
        want = (_cube_count(self.d, self.level), (1 << self.d) - 1, self.n) + rs.shape[1:]
        if rows.shape != want:
            raise ShapeError(f"detail rows shape {rows.shape}, expected {want}")
        self.root_scaling, self.rows = rs, rows

    @classmethod
    def zeros(cls, d: int, n: int, level: int) -> "HaarCoefficients":
        return cls(d, n, level, np.zeros(n), np.zeros((_cube_count(d, level), (1 << d) - 1, n)))

    @classmethod
    def stack(cls, coeffs: list) -> "HaarCoefficients":
        """One batch of equal-shape coefficients, a new last batch axis."""
        first = coeffs[0]
        return cls(
            first.d, first.n, first.level,
            np.stack([c.root_scaling for c in coeffs], axis=-1),
            np.stack([c.rows for c in coeffs], axis=-1),
        )

    @property
    def batch(self) -> tuple:
        """Shape of the batch axes after n; () for a single function."""
        return self.root_scaling.shape[1:]


# ---------------------------------------------------------------------------
# transforms


def _row_scales(d: int, level: int, synthesis: bool) -> np.ndarray:
    """One factor per row of the level-row axis of a level-`level` grid, as a
    read-only (rows, 1) column. For synthesis, 2^(l d / 2) takes a level-l
    Haar coefficient to the difference of cell averages it spans; for
    analysis, 2^(-l d / 2) 2^(-d (level - l)) takes a butterfly of
    unnormalized cell sums to the coefficient."""
    return _level_factors(d, tuple(2.0 ** (l * d / 2.0) if synthesis
                                   else 2.0 ** (-l * d / 2.0) * 2.0 ** (-d * (level - l))
                                   for l in range(level)))[:, None]


def _halves(a: np.ndarray, axis: int) -> tuple:
    """The even and the odd cells of a along one grid axis: strided views."""
    lead = (slice(None),) * axis
    return a[lead + (slice(0, None, 2),)], a[lead + (slice(1, None, 2),)]


def _split(parts: list, axis: int, out: list = None) -> list:
    """One analysis butterfly along axis: each part x gives (x0 - x1, x0 + x1)
    from its even and odd halves, in order, into out's arrays if given."""
    res = []
    for i, x in enumerate(parts):
        x0, x1 = _halves(x, axis)
        lo, hi = (None, None) if out is None else out[2 * i : 2 * i + 2]
        res += [np.subtract(x0, x1, out=lo), np.add(x0, x1, out=hi)]
    return res


def _merge(parts: list, axis: int) -> list:
    """Inverse of _split up to a factor 2: each pair (diff, total) of parts
    gives one array twice as long along axis, total + diff on the even cells
    and total - diff on the odd ones."""
    res = []
    for diff, total in zip(parts[::2], parts[1::2]):
        shape = list(total.shape)
        shape[axis] *= 2
        a = np.empty(shape)
        even, odd = _halves(a, axis)
        np.add(diff, total, out=even)
        np.subtract(total, diff, out=odd)
        res.append(a)
    return res


def _signatures(block: np.ndarray, d: int) -> list:
    """The signature slots of a (2^l,)*d + (2^d - 1,) + tail detail block:
    one (2^l,)*d + tail view per signature."""
    return [block[(slice(None),) * d + (e,)] for e in range(block.shape[d])]


def _analyze(values: np.ndarray, d: int, level: int) -> tuple:
    """(root, rows): exact Haar analysis of a (2^level,)*d + tail array,
    acting on every tail entry on its own.

    Each level runs the 1-D butterfly (x0 - x1, x0 + x1) on the even and odd
    halves of one grid axis after another. The sums of the last axis feed the
    next coarser level, and every other output is written straight into its
    signature slot of rows, the details on the level-row axis with shape
    (cubes, 2^d - 1) + tail. Sums stay unnormalized up the pyramid, and one
    product with the power-of-2-exact row factors scales every level at the
    end, so rounding is that of the sums alone: at d = 1, exactly the two
    terms of each coefficient.
    """
    nsig = (1 << d) - 1
    tail = values.shape[d:]
    rows = np.empty((_cube_count(d, level), nsig) + tail)
    a = values
    for block in reversed(_levels(rows, d)):
        coarse = np.empty(block.shape[:d] + tail)
        parts = [a]
        for axis in range(d - 1):
            parts = _split(parts, axis)
        _split(parts, d - 1, _signatures(block, d) + [coarse])
        a = coarse
    flat = rows.reshape(rows.shape[0], math.prod(rows.shape[1:]))
    flat *= _row_scales(d, level, False)
    return a.reshape(tail) * 2.0 ** (-d * level), rows


def _synthesize(root: np.ndarray, detail: np.ndarray, d: int) -> np.ndarray:
    """Exact Haar synthesis, the inverse of _analyze: root is the tail-shaped
    scaling coefficient and detail the level-row array (cubes, 2^d - 1) +
    tail, as many levels as it fills; returns (2^level,)*d + tail values.
    detail is the caller's scratch: a contiguous one is scaled in place to
    differences of cell averages.

    Each level merges its detail slots with the parent averages by the
    inverse butterflies (total + diff, total - diff), axis d - 1 first and
    axis 0 last, whose one merge gives the next level's averages.
    """
    flat = detail.reshape(detail.shape[0], math.prod(detail.shape[1:]))
    blocks = _levels(flat.reshape(detail.shape), d)
    flat *= _row_scales(d, len(blocks), True)
    a = root.reshape((1,) * d + root.shape)
    for block in blocks:
        parts = _signatures(block, d) + [a]
        for axis in range(d - 1, -1, -1):
            parts = _merge(parts, axis)
        (a,) = parts
    return a


def haar_transform(f: GridFunction) -> HaarCoefficients:
    """Exact Haar analysis of a grid function via the dyadic pyramid
    (_analyze); a batch is analyzed entry by entry, every column alone."""
    return HaarCoefficients(f.d, f.n, f.level, *_analyze(f.values, f.d, f.level))


def haar_reconstruct(coeffs: HaarCoefficients) -> GridFunction:
    """Exact Haar synthesis (_synthesize) of a copy of the rows, which it
    scales in place; inverse of haar_transform, every column alone."""
    values = _synthesize(coeffs.root_scaling, coeffs.rows.copy(), coeffs.d)
    return GridFunction(coeffs.d, coeffs.n, coeffs.level, values)


def _random_grid_batch(d: int, n: int, level: int, tags: list) -> GridFunction:
    """One function per tag as a batch: column i holds standard normal values
    on every cell and component, drawn from default_rng(tags[i])."""
    return GridFunction(d, n, level, np.stack([
        np.random.default_rng(tag).standard_normal(((1 << level),) * d + (n,))
        for tag in tags
    ], axis=-1))


def _random_exactness_errors(d: int, n: int, level: int, tags: list) -> tuple:
    """haar_exactness_errors of _random_grid_batch(d, n, level, tags), one
    error of each kind per tag, drawn and checked in blocks of tags (_spans,
    cells x n values per tag): memory does not grow with the number of tags,
    and each column is transformed as it is alone."""
    errors = np.empty((2, len(tags)))
    for block in _spans(len(tags), (1 << level * d) * n):
        errors[:, block] = haar_exactness_errors(_random_grid_batch(d, n, level, tags[block]))
    return errors[0], errors[1]


def haar_exactness_errors(f: GridFunction) -> tuple:
    """(round-trip error max |f - H^{-1} H f|, Parseval error
    | ||f||_2 - ||H f||_2 |) of the pyramid transform H on f: arrays of the
    batch shape, one error of each kind per column."""
    coeffs = haar_transform(f)
    back = haar_reconstruct(coeffs).values
    roundtrip = np.abs(back - f.values).reshape(-1, math.prod(f.batch)).max(axis=0)
    root, detail = (np.sum(_column_rows(a * a, f.batch), axis=-1)
                    for a in (coeffs.root_scaling, coeffs.rows))
    parseval = np.abs(lp_norm(f, 2.0) - np.sqrt(root + detail))
    return roundtrip.reshape(f.batch), parseval.reshape(f.batch)


def check_exponent(p: float) -> None:
    """ParameterError unless the exponent p is finite and exceeds 1."""
    if not 1.0 < p < np.inf:
        raise ParameterError(f"exponent must satisfy 1 < p < inf, got {p}")


def _column_rows(a: np.ndarray, batch: tuple) -> np.ndarray:
    """(columns, entries): each column of a's trailing batch axes as one row."""
    return np.ascontiguousarray(a.reshape(-1, math.prod(batch)).T)


def _lp_integrals(mag: np.ndarray, d: int, p: float):
    """The integral over [0,1)^d of mag^p, mag one magnitude per finest cell
    ((2^L,)*d + batch): a float for batch (), else one per column, each
    summed as its contiguous row (_column_rows), so the same bits as alone."""
    batch = mag.shape[d:]
    rows = _column_rows(mag**p, batch)
    means = np.sum(rows, axis=-1) * rows.shape[1] ** -1.0
    return float(means[0]) if not batch else means.reshape(batch)


def lp_norm(f: GridFunction, p: float):
    """L^p norm of the piecewise-constant function, exact cell sum
    (_lp_integrals): a float for one function, one per column of a batch."""
    check_exponent(p)
    return _lp_integrals(np.linalg.norm(f.values, axis=f.d), f.d, p) ** (1.0 / p)
