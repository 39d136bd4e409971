"""The tensor-product Haar system on the dyadic cubes of [0,1)^d.

Functions live on the finest dyadic grid (level L): a grid function stores one
vector value per cell, understood as the cell average of an L^2 function that
is constant on cells. On that space the truncated Haar system (all cubes of
level < L) plus the unit scaling function is an orthonormal basis, and the
pyramid transform below realizes analysis/synthesis exactly (machine
precision, scalings are powers of 2).

Batches. k functions on one grid travel together as one object with a
trailing batch axis: values (2^L,)*d + (n, k), detail blocks (2^l,)*d +
(2^d - 1, n, k). The pyramids act on each value component on its own, so a
batch is synthesized as one function with values in R^{n k}, and lp_norm
returns one norm per column. Any number of batch axes may follow n.

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
from dataclasses import dataclass, field

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


@functools.cache
def sign_matrix(d: int) -> np.ndarray:
    """(2^d, 2^d) sign table, the d-th Kronecker power of [[1, -1], [1, 1]]:
    rows are the detail signatures then all-ones, columns the children gamma
    in lexicographic order. Entry (eps, gamma) is -1 to the number of axes
    with eps_i = 0 and gamma_i = 1. Read-only, one array per d."""
    s = functools.reduce(np.kron, [np.array([[1.0, -1.0], [1.0, 1.0]])] * d)
    s.flags.writeable = False
    return s


# ---------------------------------------------------------------------------
# block reshaping and the level-row axis (shared across the modules)


def _blocks(a: np.ndarray, d: int, b: int) -> np.ndarray:
    """Reshape a (h b,)*d + tail array to (h,)*d + (b^d,) + tail blocks.

    The block axis enumerates the cells of each block in lexicographic
    order; for b = 2 these are the children gamma, matching sign_matrix
    columns.
    """
    h = a.shape[0] // b
    tail = a.shape[d:]
    a = a.reshape((h, b) * d + tail)
    order = (*range(0, 2 * d, 2), *range(1, 2 * d, 2), *range(2 * d, a.ndim))
    return a.transpose(order).reshape((h,) * d + (b**d,) + tail)


def _merge_blocks(b: np.ndarray, d: int) -> np.ndarray:
    """Inverse of _blocks(a, d, 2)."""
    m, tail = b.shape[0], b.shape[d + 1 :]
    b = b.reshape((m,) * d + (2,) * d + tail)
    order = (*(i for k in range(d) for i in (k, d + k)), *range(2 * d, b.ndim))
    return b.transpose(order).reshape((2 * m,) * d + tail)


def _cube_blocks(cells: np.ndarray, d: int, l: int) -> np.ndarray:
    """(2^L,)*d + tail -> (cubes at level l, cells per cube) + tail."""
    b = _blocks(cells, d, cells.shape[0] >> l)
    return b.reshape((1 << l * d,) + b.shape[d:])


def _rows(levels: list, d: int) -> np.ndarray:
    """The level-row axis: per-level arrays (2^l,)*d + tail stacked on one
    row axis, level by level, each level in index order."""
    return np.concatenate([a.reshape((-1,) + a.shape[d:]) for a in levels])


def _levels(rows: np.ndarray, d: int) -> list:
    """Cut a (cubes,) + tail row array back into per-level (2^l,)*d + tail
    views, as many levels as the rows fill: the inverse of _rows."""
    out, start = [], 0
    while start < rows.shape[0]:
        size = 1 << (len(out) * d)
        shape = ((1 << len(out)),) * d + rows.shape[1:]
        out.append(rows[start : start + size].reshape(shape))
        start += size
    return out


def mean_pyramid(cells: np.ndarray, d: int) -> list:
    """Per-level averages over cubes: out[l] has shape (2^l,)*d + tail.

    cells is a (2^L,)*d + tail array of finest-cell values; out[L] is cells
    itself. Averages of equal-measure cells are exact integrals.
    """
    levels = int(round(np.log2(cells.shape[0]))) if cells.shape[0] > 1 else 0
    if cells.shape[:d] != ((1 << levels),) * d:
        raise ShapeError(f"cell array shape {cells.shape} is not a dyadic {d}-grid")
    out = [None] * (levels + 1)
    out[levels] = cells
    a = cells
    for lvl in range(levels - 1, -1, -1):
        a = _blocks(a, d, 2).mean(axis=d)
        out[lvl] = a
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
    """Haar analysis data: root scaling coefficient plus per-level details.

    detail[l] has shape (2^l,)*d + (2^d - 1, n): one block of coefficients per
    level-l cube, signature axis ordered as detail_signatures(d). A batch
    appends its batch axes to root_scaling (n,) and to every detail block.
    """

    d: int
    n: int
    level: int
    root_scaling: np.ndarray
    detail: list = field(default_factory=list)

    def __post_init__(self):
        rs = np.asarray(self.root_scaling, dtype=float)
        if rs.shape[:1] != (self.n,):
            raise ShapeError(
                f"root scaling shape {rs.shape}, expected ({self.n},) + batch"
            )
        self.root_scaling = rs
        batch = rs.shape[1:]
        if len(self.detail) != self.level:
            raise ShapeError(
                f"{len(self.detail)} detail levels for finest level {self.level}"
            )
        nsig = (1 << self.d) - 1
        clean = []
        for lvl, arr in enumerate(self.detail):
            arr = np.asarray(arr, dtype=float)
            want = ((1 << lvl),) * self.d + (nsig, self.n) + batch
            if arr.shape != want:
                raise ShapeError(f"detail[{lvl}] shape {arr.shape}, expected {want}")
            clean.append(arr)
        self.detail = clean

    @classmethod
    def zeros(cls, d: int, n: int, level: int) -> "HaarCoefficients":
        nsig = (1 << d) - 1
        detail = [np.zeros(((1 << l),) * d + (nsig, n)) for l in range(level)]
        return cls(d, n, level, np.zeros(n), detail)

    @classmethod
    def stack(cls, coeffs: list) -> "HaarCoefficients":
        """One batch of equal-shape coefficients, a new last batch axis."""
        first = coeffs[0]
        return cls(
            first.d, first.n, first.level,
            np.stack([c.root_scaling for c in coeffs], axis=-1),
            [np.stack(arrs, axis=-1) for arrs in zip(*(c.detail for c in coeffs))],
        )

    @property
    def batch(self) -> tuple:
        """Shape of the batch axes after n; () for a single function."""
        return self.root_scaling.shape[1:]

    def detail_l2(self):
        """l2 norm of all detail coefficients (excludes root scaling): a float
        for one function, one norm per column of a batch, each column summed
        as one contiguous row."""
        k = math.prod(self.batch)
        norms = np.sqrt(sum(
            (np.sum(np.ascontiguousarray((a * a).reshape(-1, k).T), axis=-1)
             for a in self.detail),
            np.zeros(k),
        ))
        return float(norms[0]) if not self.batch else norms.reshape(self.batch)


# ---------------------------------------------------------------------------
# transforms


def haar_transform(f: GridFunction) -> HaarCoefficients:
    """Exact Haar analysis of a grid function via the dyadic pyramid; a batch
    is analyzed as one function with its batch axes folded into the values."""
    d, L = f.d, f.level
    s = sign_matrix(d)
    tail = (f.n,) + f.batch
    a = f.values.reshape(f.values.shape[:d] + (math.prod(tail),))
    detail = [None] * L
    inv = 1.0 / (1 << d)
    for lvl in range(L - 1, -1, -1):
        blocks = _blocks(a, d, 2)
        b = np.einsum("ec,...cn->...en", s, blocks) * inv
        coarse = np.ascontiguousarray(b[..., :-1, :]) * 2.0 ** (-lvl * d / 2.0)
        detail[lvl] = coarse.reshape(coarse.shape[:-1] + tail)
        a = np.ascontiguousarray(b[..., -1, :])
    return HaarCoefficients(d, f.n, L, a.reshape(tail), detail)


def haar_reconstruct(coeffs: HaarCoefficients) -> GridFunction:
    """Exact Haar synthesis; inverse of haar_transform. A batch of k functions
    with values in R^n is synthesized as one function with values in R^{n k}."""
    d, L = coeffs.d, coeffs.level
    s = sign_matrix(d)
    tail = coeffs.root_scaling.shape
    m = math.prod(tail)
    a = coeffs.root_scaling.reshape((1,) * d + (m,))
    nsig = (1 << d) - 1
    for lvl in range(L):
        b = np.empty(((1 << lvl),) * d + (nsig + 1, m))
        b[..., :-1, :] = coeffs.detail[lvl].reshape(b.shape[:-2] + (nsig, m)) * (
            2.0 ** (lvl * d / 2.0)
        )
        b[..., -1, :] = a
        blocks = np.einsum("ec,...en->...cn", s, b)
        a = _merge_blocks(blocks, d)
    return GridFunction(d, coeffs.n, L, a.reshape(a.shape[:d] + tail))


def _random_grid_batch(d: int, n: int, level: int, tags: list) -> GridFunction:
    """One function per tag as a batch: column i holds standard normal values
    on every cell and component, drawn from default_rng(tags[i])."""
    return GridFunction(d, n, level, np.stack([
        np.random.default_rng(tag).standard_normal(((1 << level),) * d + (n,))
        for tag in tags
    ], axis=-1))


def haar_exactness_errors(f: GridFunction) -> tuple:
    """(round-trip error max |f - H^{-1} H f|, Parseval error
    | ||f||_2 - ||H f||_2 |) of the pyramid transform H on f: arrays of the
    batch shape, one error of each kind per column."""
    coeffs = haar_transform(f)
    back = haar_reconstruct(coeffs).values
    k = math.prod(f.batch)
    roundtrip = np.abs(back - f.values).reshape(-1, k).max(axis=0)
    root = coeffs.root_scaling.reshape(f.n, k)
    energy = np.sqrt(np.sum(root * root, axis=0) + coeffs.detail_l2() ** 2)
    parseval = np.abs(lp_norm(f, 2.0) - energy)
    return roundtrip.reshape(f.batch), parseval.reshape(f.batch)


def check_exponent(p: float) -> None:
    """ParameterError unless the exponent p is finite and exceeds 1."""
    if not 1.0 < p < np.inf:
        raise ParameterError(f"exponent must satisfy 1 < p < inf, got {p}")


def lp_norm(f: GridFunction, p: float):
    """L^p norm of the piecewise-constant function, exact cell sum.

    A float for one function; for a batch, an array of the batch shape with
    one norm per column. Each column's cells are summed as one contiguous
    row, so a column's norm is summed in the same order as alone.
    """
    check_exponent(p)
    mag = np.linalg.norm(f.values, axis=f.d) ** p
    cells = mag.reshape(-1, math.prod(f.batch))
    rows = np.ascontiguousarray(cells.T)
    means = np.sum(rows, axis=-1) * cells.shape[0] ** -1.0
    if not f.batch:
        return float(means[0]) ** (1.0 / p)
    return (means ** (1.0 / p)).reshape(f.batch)
