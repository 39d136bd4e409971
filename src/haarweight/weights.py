"""Matrix weights on the finest dyadic grid.

A weight is one SPD n x n matrix per finest cell (the cell sample or exact
cell average, depending on the family); it caches only the cellwise powers
W^s asked of it. Coarser cube averages are taken over cells by the code that
reads them (dyadic.mean_pyramid, as rows of the level-row axis), so they are
exact integrals of the piecewise-constant realization. Validation is strict:
symmetry to 1e-12 (relative to the largest entry) and eigenvalues >=
EIGEN_FLOOR, else MatrixDomainError; nothing is clamped or repaired.

Every weight the lab builds comes from one recipe, a WeightSpec; make_weight
checks it (_check_spec, which a config's weights pass too: the types of its
fields and parameters, and its family's rules) and builds it, so the cell
builders raise no recipe error of their own.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .dyadic import GridFunction, _even_slices, _lp_integrals, _spans, check_exponent
from .errors import MatrixDomainError, ParameterError, ShapeError

__all__ = [
    "EIGEN_FLOOR",
    "MatrixWeight",
    "WeightSpec",
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


def _is(*types):
    """The test isinstance(v, types), which a bool fails: true is not 1."""
    return lambda v: isinstance(v, types) and not isinstance(v, bool)


_int, _num, _str, _obj = _is(int), _is(int, float), _is(str), _is(dict)


def _at_least(low: int):
    return lambda v: _int(v) and v >= low


def _list_of(check):
    return lambda v: isinstance(v, (list, tuple)) and all(check(x) for x in v)


def _or_null(check):
    return lambda v: v is None or check(v)


def _finite(v) -> bool:
    return _num(v) and math.isfinite(v)


def _array(v) -> bool:
    """A list of finite numbers, or a list of equal-length lists of them;
    its shape is the family's to check."""
    return _list_of(_finite)(v) or (_list_of(_list_of(_finite))(v)
                                    and len({len(row) for row in v}) <= 1)


def _check_types(values: dict, types: dict, error) -> None:
    """error naming the first key of values whose value fails its test in
    types, a dict key -> (test, what the value must be)."""
    for key, value in values.items():
        check, want = types[key]
        if not check(value):
            raise error(f"{key!r} must be {want}, got {value!r}")


def _floats(v):
    """v with each number in it a float, lists and tuples entry by entry,
    and an array as the nested list of its entries."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return type(v)(map(_floats, v))
    return float(v) if _num(v) else v


@dataclass(frozen=True)
class WeightSpec:
    """One named weight: a family on the grid (d, n, level) with its params
    and seed, which make_weight generates, or a file to load; realize()
    gives either."""

    name: str
    family: str = "constant"
    d: int = 1
    n: int = 1
    level: int = 4
    seed: int = 7
    params: dict = field(default_factory=dict)
    file: str | None = None

    def __post_init__(self):
        # 9, 9.0 and array(9.0) are one parameter: the same weight meta and
        # config hash
        if _obj(self.params):
            object.__setattr__(self, "params", {k: _floats(v) for k, v in self.params.items()})

    def realize(self) -> MatrixWeight:
        if self.file is None:
            return make_weight(self)
        from .serialization import load_weight

        return load_weight(self.file)


def _rng(spec: WeightSpec) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(spec.family.encode()), spec.seed])


def _axis_midpoints(level: int, oversample: int = 1) -> np.ndarray:
    h = 1 << level
    return (np.arange(h * oversample) + 0.5) / (h * oversample)


def _alpha(spec: WeightSpec) -> float:
    """The exponent alpha of a power-type family: 0.0 (power) or 0.5
    (rotating) unless its params set it."""
    return float(spec.params.get("alpha", 0.5 if spec.family == "rotating" else 0.0))


def _x0(spec: WeightSpec) -> np.ndarray:
    """The centre x0 of a power-type family: the origin (power), or (0.31,)
    and (0.31, 0.17) at d = 1 and 2 (rotating), unless its params set it."""
    default = (0.0,) * spec.d if spec.family == "power" else (0.31, 0.17)[: spec.d]
    return np.asarray(spec.params.get("x0", default), dtype=float)


def _power_cells(spec: WeightSpec) -> np.ndarray:
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
    alpha = _alpha(spec)
    x0 = _x0(spec)
    h = 1 << spec.level
    if spec.d == 1:
        # exact cell averages from the antiderivative of |x - x0|^alpha
        edges = np.arange(h + 1) / h - x0[0]
        anti = np.sign(edges) * np.abs(edges) ** (alpha + 1.0) / (alpha + 1.0)
        scalar = (anti[1:] - anti[:-1]) * h
    else:
        q = 16
        mids = _axis_midpoints(spec.level, q)
        axes = np.meshgrid(*[mids - x0[i] for i in range(spec.d)], indexing="ij",
                           sparse=True)
        scalar = np.empty((h,) * spec.d)
        for rows in _spans(h, q * (h * q) ** (spec.d - 1)):
            fine = slice(rows.start * q, rows.stop * q)
            vals = sum(g**2 for g in (axes[0][fine], *axes[1:]))
            np.sqrt(vals, out=vals)
            np.power(vals, alpha, out=vals)
            for axis in range(spec.d):
                vals = vals.reshape(
                    vals.shape[:axis] + (-1, q) + vals.shape[axis + 1 :]
                ).mean(axis=axis + 1)
            scalar[rows] = vals
    return scalar.reshape((h,) * spec.d + (1, 1)) * np.eye(spec.n)


def _rotating_cells(spec: WeightSpec) -> np.ndarray:
    alpha = _alpha(spec)
    omega = float(spec.params.get("omega", np.pi))
    phase = float(spec.params.get("phase", 0.0))
    x0 = _x0(spec)
    mids = _axis_midpoints(spec.level)
    grids = np.meshgrid(*([mids] * spec.d), indexing="ij")
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


def _logbrownian_cells(spec: WeightSpec) -> np.ndarray:
    sigma = float(spec.params.get("sigma", 0.3))
    rng = _rng(spec)
    h = 1 << spec.level
    count = h**spec.d
    n = spec.n
    iu = np.triu_indices(n)
    incr = rng.standard_normal((count, len(iu[0]))) / np.sqrt(count)
    path = np.cumsum(incr, axis=0)
    b = np.zeros((count, n, n))
    b[:, iu[0], iu[1]] = path
    b = b + np.swapaxes(b, 1, 2)
    b[:, np.arange(n), np.arange(n)] *= 0.5
    vals, vecs = np.linalg.eigh(sigma * b)
    w = np.einsum("kij,kj,klj->kil", vecs, np.exp(vals), vecs)
    return w.reshape((h,) * spec.d + (n, n))


def _constant_cells(spec: WeightSpec) -> np.ndarray:
    if "matrix" in spec.params:
        m = np.asarray(spec.params["matrix"], dtype=float)
    else:
        # random SPD with controlled condition number
        cond = float(spec.params.get("cond", 10.0))
        rng = _rng(spec)
        q, _ = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))
        lam = np.exp(np.linspace(0.0, np.log(cond), spec.n))
        m = (q * lam) @ q.T
    h = 1 << spec.level
    return np.broadcast_to(m, (h,) * spec.d + (spec.n, spec.n)).copy()


# family name -> (cell builder, the params keys it reads)
_FAMILIES = {
    "power": (_power_cells, {"alpha", "x0", "p_range"}),
    "rotating": (_rotating_cells, {"alpha", "omega", "phase", "x0", "p_range"}),
    "logbrownian": (_logbrownian_cells, {"sigma"}),
    "constant": (_constant_cells, {"matrix", "cond"}),
}
# the type of every WeightSpec field, and of every family parameter: (test,
# what the value must be); a JSON config is held to these by the constructor
_WEIGHT_TYPES = {
    "name": (_str, "a string"),
    "family": (_str, "a string"),
    "d": (_at_least(1), "an integer >= 1"),
    "n": (_at_least(1), "an integer >= 1"),
    "level": (_at_least(0), "an integer >= 0"),
    "seed": (_at_least(0), "an integer >= 0"),
    "params": (_obj, "an object"),
    "file": (_or_null(_str), "a string or null"),
}
_PARAM_TYPES = {
    **dict.fromkeys(("alpha", "omega", "phase", "p_range", "sigma", "cond"),
                    (_finite, "a finite number")),
    **dict.fromkeys(("x0", "matrix"),
                    (_array, "a list of finite numbers or of equal-length lists of them")),
}

assert list(_WEIGHT_TYPES) == [f.name for f in fields(WeightSpec)]
assert set(_PARAM_TYPES) == set().union(*(keys for _, keys in _FAMILIES.values()))


def _check_spec(spec: WeightSpec) -> None:
    """ParameterError, or ShapeError for an x0 or matrix of the wrong shape,
    unless spec is a recipe its family can generate: every field and
    parameter of its type in _WEIGHT_TYPES and _PARAM_TYPES (integers not
    bool, d >= 1, n >= 1, level >= 0, seed >= 0, every number in a parameter
    finite), a known family, only parameters it reads, and the family rules:
    rotating needs n = 2 and, at d >= 3, an x0; power needs alpha > -1; x0
    has shape (d,) and a constant matrix shape (n, n). A file spec keeps the
    defaults, which pass."""
    _check_types(vars(spec), _WEIGHT_TYPES, ParameterError)
    if spec.family not in _FAMILIES:
        raise ParameterError(f"unknown family {spec.family!r}; known: {sorted(_FAMILIES)}")
    known = _FAMILIES[spec.family][1]
    unknown = set(spec.params) - known
    if unknown:
        raise ParameterError(
            f"unknown {spec.family} parameter(s) {sorted(unknown)}; known: {sorted(known)}"
        )
    _check_types(spec.params, _PARAM_TYPES, ParameterError)
    if spec.family == "rotating" and spec.n != 2:
        raise ParameterError("rotating family requires n = 2")
    if spec.family == "power" and _alpha(spec) <= -1.0:
        raise ParameterError(f"power exponent alpha must exceed -1, got {_alpha(spec)}")
    for key, shape in (("x0", (spec.d,)), ("matrix", (spec.n, spec.n))):
        if key in spec.params and np.shape(spec.params[key]) != shape:
            raise ShapeError(f"{key} shape {np.shape(spec.params[key])}, expected {shape}")
    if spec.family == "rotating" and spec.d >= 3 and "x0" not in spec.params:
        raise ParameterError(
            f"rotating family at d={spec.d} needs x0 of shape ({spec.d},)")


def make_weight(spec: WeightSpec) -> MatrixWeight:
    """Generate the weight of a checked spec; deterministic in (family, seed).

    Power-type exponents outside (-1, p_range - 1) are allowed (the discrete
    realization is still SPD) but flagged in meta["warning"]: continuum
    guarantees tied to the documented exponent range no longer apply.
    """
    if spec.file is not None:
        raise ParameterError(f"weight {spec.name!r} is read from {spec.file!r}; "
                             "realize() loads it")
    _check_spec(spec)
    cells = _FAMILIES[spec.family][0](spec)
    warning = None
    if spec.family in ("power", "rotating"):
        alpha = _alpha(spec)
        p_range = float(spec.params.get("p_range", 2.0))
        if not -1.0 < alpha < p_range - 1.0:
            warning = (
                f"alpha={alpha} outside the documented range (-1, {p_range - 1}) "
                f"for exponent p={p_range}"
            )
    meta = dict(family=spec.family, d=spec.d, n=spec.n, level=spec.level,
                params=dict(spec.params), seed=spec.seed, warning=warning)
    return MatrixWeight(spec.d, spec.n, spec.level, cells, meta)
