"""Matrix weights on the finest dyadic grid.

A weight is one SPD n x n matrix per finest cell (the cell sample or exact
cell average, depending on the family); it caches only the cellwise powers
W^s asked of it. Coarser cube averages are taken over cells by the code that
reads them (dyadic.mean_pyramid, as rows of the level-row axis), so they are
exact integrals of the piecewise-constant realization. Validation is strict:
symmetry to 1e-12 (relative to the largest entry) and eigenvalues >=
EIGEN_FLOOR, else MatrixDomainError; nothing is clamped or repaired.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .dyadic import GridFunction, _even_slices, _lp_integrals, _spans, check_exponent
from .errors import MatrixDomainError, ParameterError, ShapeError

__all__ = [
    "EIGEN_FLOOR",
    "MatrixWeight",
    "WeightFamily",
    "spd_power_stack",
    "apply_cells",
    "weighted_lp_norm",
    "make_weight",
]

EIGEN_FLOOR = 1e-12


def _check_spd_stack(mats: np.ndarray, what: str) -> None:
    scale = max(1.0, float(np.max(np.abs(mats))) if mats.size else 1.0)
    asym = float(np.max(np.abs(mats - np.swapaxes(mats, -1, -2))))
    if asym > 1e-12 * scale:
        raise MatrixDomainError(f"{what}: asymmetry {asym:.3e} exceeds tolerance")
    vals = np.linalg.eigvalsh(mats)
    lo = float(vals.min())
    if not np.isfinite(vals).all() or lo < EIGEN_FLOOR:
        raise MatrixDomainError(
            f"{what}: eigenvalue {lo:.3e} below floor {EIGEN_FLOOR:.0e}"
        )


def spd_power_stack(mats: np.ndarray, s: float) -> np.ndarray:
    """Symmetric power A^s on a (..., n, n) stack via eigendecomposition; for
    n = 1 the entrywise power, which is what the 1 x 1 eigh path returns bit
    for bit (the entry as eigenvalue, a +-1 eigenvector)."""
    if mats.shape[-1] == 1:
        return mats**s
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    powered = vals**s
    out = np.einsum("...ik,...k,...jk->...ij", vecs, powered, vecs)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def apply_cells(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Cellwise matrix-vector product: cells + (n, n) applied to cells + (n,)
    + batch, every batch column by the same cell matrix. A length-1 axis of
    mats broadcasts, so cubes + (1, n, n) applies one matrix per cube to
    every Haar signature of cubes + (2^d - 1, n) + batch."""
    cols = vecs.reshape(vecs.shape[: mats.ndim - 1] + (-1,))
    return np.einsum("...ij,...jk->...ik", mats, cols).reshape(vecs.shape)


# OpenBLAS runs a GEMM of m n k multiply-adds on one thread up to
# SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4 (interface/gemm.c),
# and a GEMV on an m x n matrix below m n = 2304 * 4 (interface/gemv.c; 0.3.31
# raised that to 115200 * 4, and the lower bound holds for both)
_SERIAL_GEMM = 1 << 18
_SERIAL_GEMV = 2304 * 4


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (..., rows, k) and b (..., k, cols), as BLAS calls that
    OpenBLAS keeps on the calling thread.

    The rows of a go in the fewest blocks of at most
    max(1, _SERIAL_GEMM // (k cols)) rows, spread evenly, so each GEMM has at
    most _SERIAL_GEMM multiply-adds and no ragged one-row tail is left. A block
    still has one row when rows is 1 or the limit allows at most two rows;
    numpy runs it as a GEMV on b, so it goes in column chunks of fewer than
    _SERIAL_GEMV entries of b. A b of one column would make every block a
    GEMV on a; criterion 3 has one on an R^1 weight, where it multiplies by
    e e^T = 1, which no split can round differently.

    On the calling thread the product does not depend on the BLAS thread
    count, and no worker thread spins between the calls. A larger call would
    go to the workers, whose split changes the rounding and whose wake-up can
    stall the first call of a process.
    """
    rows, k = a.shape[-2:]
    cols = b.shape[-1]
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty(stack + (rows, cols), dtype=np.result_type(a, b))
    for block in _even_slices(rows, _SERIAL_GEMM // (k * cols)):
        step = cols if block.stop - block.start > 1 else max(1, (_SERIAL_GEMV - 1) // k)
        for c in range(0, cols, step):
            np.matmul(a[..., block, :], b[..., c : c + step],
                      out=out[..., block, c : c + step])
    return out


@dataclass(frozen=True, eq=False)
class WeightFamily:
    """Recipe for a weight: family name, grid dims, parameters, seed."""

    family: str
    d: int
    n: int
    level: int
    params: dict = field(default_factory=dict)
    seed: int = 0

    def rng(self) -> np.random.Generator:
        if self.seed < 0:
            raise ParameterError(f"weight seed must be non-negative, got {self.seed}")
        return np.random.default_rng([zlib.crc32(self.family.encode()), self.seed])


@dataclass(eq=False)
class MatrixWeight:
    """SPD matrix field on the finest grid; cells shape (2^L,)*d + (n, n).
    It holds its cells and the powers that power_cells caches, nothing else:
    cube averages and per-cube decisions belong to the code that reads them."""

    d: int
    n: int
    level: int
    cells: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=float)
        want = ((1 << self.level),) * self.d + (self.n, self.n)
        if c.shape != want:
            raise ShapeError(f"weight cells shape {c.shape}, expected {want}")
        _check_spd_stack(c, "weight cells")
        c = 0.5 * (c + np.swapaxes(c, -1, -2))
        c.flags.writeable = False
        self.cells = c
        self._powers = {}

    def power_cells(self, s: float) -> np.ndarray:
        """Cellwise power W^s, cached by s rounded to 12 decimals; s = 1 is
        the cells themselves."""
        key = round(float(s), 12)
        if key == 1.0:
            return self.cells
        if key not in self._powers:
            out = spd_power_stack(self.cells, float(s))
            out.flags.writeable = False
            self._powers[key] = out
        return self._powers[key]


def check_grid(f, weight: MatrixWeight) -> None:
    """ShapeError unless f, a grid function or its Haar coefficients, lives
    on the weight's grid (d, n, L)."""
    if (f.d, f.n, f.level) != (weight.d, weight.n, weight.level):
        raise ShapeError("function and weight live on different grids")


def weighted_lp_norm(f: GridFunction, weight: MatrixWeight, p: float):
    """L^p norm of W^{1/p} f (the natural weighted norm); one per column of a
    batch, as alone. The exponent is checked before W^{1/p} is formed."""
    check_exponent(p)
    check_grid(f, weight)
    g = apply_cells(weight.power_cells(1.0 / p), f.values)
    return _lp_integrals(np.linalg.norm(g, axis=f.d), f.d, p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# weight families


def _axis_midpoints(level: int, oversample: int = 1) -> np.ndarray:
    h = 1 << level
    return (np.arange(h * oversample) + 0.5) / (h * oversample)


def _alpha(fam: WeightFamily) -> float:
    """The exponent alpha of a power-type family: 0.0 (power) or 0.5
    (rotating) unless its params set it."""
    return float(fam.params.get("alpha", 0.5 if fam.family == "rotating" else 0.0))


def _x0(fam: WeightFamily, default) -> np.ndarray:
    """The centre x0 of a power-type family, default when its params leave it
    out; ShapeError unless it has shape (d,), ParameterError if it is
    required (default None) and missing."""
    if "x0" not in fam.params and default is None:
        raise ParameterError(
            f"{fam.family} family at d={fam.d} needs x0 of shape ({fam.d},)")
    x0 = np.asarray(fam.params.get("x0", default), dtype=float)
    if x0.shape != (fam.d,):
        raise ShapeError(f"x0 shape {x0.shape}, expected ({fam.d},)")
    return x0


def _power_cells(fam: WeightFamily) -> np.ndarray:
    """|x - x0|^alpha I_n, averaged over each cell: exactly from the
    antiderivative at d = 1, and at d >= 2 by the midpoint rule on a grid
    16 times finer per axis.

    The fine grid is never built whole: an open grid (np.meshgrid with
    sparse=True) gives one axis of offsets per dimension, and blocks of
    coarse rows along axis 0 (dyadic._spans: one row holds 16 (16 2^L)^(d-1)
    fine points) take |x - x0|^alpha in place and average it, axis by axis,
    before the next block. Each cell's average is summed in the same order as
    on the whole grid.
    """
    alpha = _alpha(fam)
    if alpha <= -1.0:
        raise ParameterError(f"power exponent alpha must exceed -1, got {alpha}")
    x0 = _x0(fam, (0.0,) * fam.d)
    h = 1 << fam.level
    if fam.d == 1:
        # exact cell averages from the antiderivative of |x - x0|^alpha
        edges = np.arange(h + 1) / h - x0[0]
        anti = np.sign(edges) * np.abs(edges) ** (alpha + 1.0) / (alpha + 1.0)
        scalar = (anti[1:] - anti[:-1]) * h
    else:
        q = 16
        mids = _axis_midpoints(fam.level, q)
        axes = np.meshgrid(*[mids - x0[i] for i in range(fam.d)], indexing="ij",
                           sparse=True)
        scalar = np.empty((h,) * fam.d)
        for rows in _spans(h, q * (h * q) ** (fam.d - 1)):
            fine = slice(rows.start * q, rows.stop * q)
            vals = sum(g**2 for g in (axes[0][fine], *axes[1:]))
            np.sqrt(vals, out=vals)
            np.power(vals, alpha, out=vals)
            for axis in range(fam.d):
                vals = vals.reshape(
                    vals.shape[:axis] + (-1, q) + vals.shape[axis + 1 :]
                ).mean(axis=axis + 1)
            scalar[rows] = vals
    return scalar.reshape((h,) * fam.d + (1, 1)) * np.eye(fam.n)


def _rotating_cells(fam: WeightFamily) -> np.ndarray:
    if fam.n != 2:
        raise ParameterError("rotating family requires n = 2")
    alpha = _alpha(fam)
    omega = float(fam.params.get("omega", np.pi))
    phase = float(fam.params.get("phase", 0.0))
    x0 = _x0(fam, {1: (0.31,), 2: (0.31, 0.17)}.get(fam.d))
    mids = _axis_midpoints(fam.level)
    grids = np.meshgrid(*([mids] * fam.d), indexing="ij")
    r = np.sqrt(sum((g - x0[i]) ** 2 for i, g in enumerate(grids)))
    theta = omega * grids[0] + phase
    c, s = np.cos(theta), np.sin(theta)
    lam = r**alpha
    # R(theta) diag(r^alpha, 1) R(theta)^T assembled entrywise
    w = np.empty(r.shape + (2, 2))
    w[..., 0, 0] = lam * c**2 + s**2
    w[..., 1, 1] = lam * s**2 + c**2
    w[..., 0, 1] = (lam - 1.0) * c * s
    w[..., 1, 0] = w[..., 0, 1]
    return w


def _logbrownian_cells(fam: WeightFamily) -> np.ndarray:
    sigma = float(fam.params.get("sigma", 0.3))
    rng = fam.rng()
    h = 1 << fam.level
    count = h**fam.d
    n = fam.n
    iu = np.triu_indices(n)
    incr = rng.standard_normal((count, len(iu[0]))) / np.sqrt(count)
    path = np.cumsum(incr, axis=0)
    b = np.zeros((count, n, n))
    b[:, iu[0], iu[1]] = path
    b = b + np.swapaxes(b, 1, 2)
    b[:, np.arange(n), np.arange(n)] *= 0.5
    vals, vecs = np.linalg.eigh(sigma * b)
    w = np.einsum("kij,kj,klj->kil", vecs, np.exp(vals), vecs)
    return w.reshape((h,) * fam.d + (n, n))


def _constant_cells(fam: WeightFamily) -> np.ndarray:
    if "matrix" in fam.params:
        m = np.asarray(fam.params["matrix"], dtype=float)
        if m.shape != (fam.n, fam.n):
            raise ShapeError(f"constant matrix shape {m.shape}, expected square n={fam.n}")
    else:
        # random SPD with controlled condition number
        cond = float(fam.params.get("cond", 10.0))
        rng = fam.rng()
        q, _ = np.linalg.qr(rng.standard_normal((fam.n, fam.n)))
        lam = np.exp(np.linspace(0.0, np.log(cond), fam.n))
        m = (q * lam) @ q.T
    h = 1 << fam.level
    return np.broadcast_to(m, (h,) * fam.d + (fam.n, fam.n)).copy()


# family name -> (cell builder, the params keys it reads)
_FAMILIES = {
    "power": (_power_cells, {"alpha", "x0", "p_range"}),
    "rotating": (_rotating_cells, {"alpha", "omega", "phase", "x0", "p_range"}),
    "logbrownian": (_logbrownian_cells, {"sigma"}),
    "constant": (_constant_cells, {"matrix", "cond"}),
}


def _check_family(family: str, params: dict) -> None:
    """ParameterError for an unknown family or a params key it does not read."""
    if family not in _FAMILIES:
        raise ParameterError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    known = _FAMILIES[family][1]
    unknown = set(params) - known
    if unknown:
        raise ParameterError(
            f"unknown {family} parameter(s) {sorted(unknown)}; known: {sorted(known)}"
        )


def make_weight(fam: WeightFamily) -> MatrixWeight:
    """Realize a weight family on its grid; deterministic in (family, seed).

    Power-type exponents outside (-1, p_range - 1) are allowed (the discrete
    realization is still SPD) but flagged in meta["warning"]: continuum
    guarantees tied to the documented exponent range no longer apply.
    """
    _check_family(fam.family, fam.params)
    if fam.d < 1 or fam.n < 1 or fam.level < 0:
        raise ParameterError(f"bad dims d={fam.d} n={fam.n} L={fam.level}")
    cells = _FAMILIES[fam.family][0](fam)
    warning = None
    if fam.family in ("power", "rotating"):
        alpha = _alpha(fam)
        p_range = float(fam.params.get("p_range", 2.0))
        if not -1.0 < alpha < p_range - 1.0:
            warning = (
                f"alpha={alpha} outside the documented range (-1, {p_range - 1}) "
                f"for exponent p={p_range}"
            )
    meta = {
        "family": fam.family,
        "d": fam.d,
        "n": fam.n,
        "level": fam.level,
        "params": dict(fam.params),
        "seed": fam.seed,
        "warning": warning,
    }
    return MatrixWeight(fam.d, fam.n, fam.level, cells, meta)
