"""Square functions and the norm-equivalence experiments built on them.

The square function aggregates reduced detail coefficients pointwise,

    S f(x) = (sum_{I contains x, eps} |V_I f_I^eps|^2 / |I| chi_I(x))^{1/2},

and its L^p norm is compared against the weighted norm ||f||_{L^p(W)} over
batches of random mean-zero test functions. Ratios are normalized by powers
of the measured characteristic with exponents (1+ceil(p))/p and
(2+ceil(p'))/p; at p = 2 the extremal ratios over all f are generalized
eigenvalues, found by Lanczos on exact matrix-free pyramid operators.

A batch of test functions is one HaarCoefficients whose function axis rides
after the n value components, and the generation pieces of a stopping tree
add one more axis after it. Each batch takes one Haar synthesis, and each
L^p quantity one per-column reduction (dyadic._lp_integrals) of its cell
array, so no loop runs over the functions or the generations of a cell.

Test functions are mean zero, so root scaling terms never enter them: every
sum below runs over detail cubes only.
"""
from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    GridFunction,
    HaarCoefficients,
    _analyze,
    _column_blocks,
    _column_rows,
    _cube_count,
    _level_factors,
    _levels,
    _lp_integrals,
    _synthesize,
    haar_reconstruct,
    refine_to_cells,
)
from .errors import (
    EigenConvergenceError,
    HaarweightError,
    ParameterError,
    ShapeError,
)
from .reducing import ReducingFamily, conjugate_exponent
from .stopping import GenerationTree, split_generations
from .multipliers import apply_symbols, check_coverage, check_dims, t_blocks
from .weights import MatrixWeight, weighted_lp_norm

__all__ = [
    "SPECTRA",
    "random_mean_zero_batch",
    "square_function",
    "square_norm",
    "dual_square_norm",
    "EquivalenceReport",
    "equivalence_ratios",
    "block_partition_constant",
    "CrossTermReport",
    "cross_term_rate",
    "SharpnessProbe",
    "sharpness_probe",
    "sharpness_probes",
    "loglog_slope",
]

SPECTRA = ("flat", "geometric", "spike")

_log = logging.getLogger(__name__)


def _draw_detail(rows: np.ndarray, d: int, level: int, rng: np.random.Generator,
                 spectrum: str):
    """Fill one function's zeroed detail rows (cubes, 2^d - 1, n) in place
    from rng.

    flat: iid normal at every slot. geometric: level l scaled by 2^{-l}.
    spike: a single random slot (one cube, one signature). The rows hold the
    levels in order, so one draw fills every level as level-by-level draws
    would.
    """
    if spectrum in ("flat", "geometric"):
        rng.standard_normal(out=rows)
        if spectrum == "geometric":
            rows *= _level_factors(d, tuple(2.0 ** -l for l in range(level)))[:, None, None]
    elif spectrum == "spike":
        l = int(rng.integers(level))
        flat = rows[_cube_count(d, l) : _cube_count(d, l + 1)].reshape(-1, rows.shape[-1])
        flat[int(rng.integers(flat.shape[0]))] = rng.standard_normal(flat.shape[1])
    else:
        raise ParameterError(f"unknown spectrum {spectrum!r}, options {SPECTRA}")


def random_mean_zero_batch(
    weight: MatrixWeight, count: int, tag: list, spectra: tuple = ("flat",)
) -> HaarCoefficients:
    """count random mean-zero functions on the weight's grid as one batch:
    function i draws from default_rng(tag + [i]), spectra cycled, into slot i
    of one function-leading detail-row array, laid out batch-last at the end.

    The arrays are read-only and depend on the weight only through its grid
    (d, n, L). The last draw is kept (_draw_batch), so a repeated request
    returns the same arrays; run_experiments clears it, so every run draws
    its own batches. ParameterError for count < 1 or no spectra: every
    batched measurement draws its functions here.
    """
    if count < 1 or not spectra:
        raise ParameterError(
            f"a batch needs count >= 1 and a spectrum, got {count}, {spectra!r}")
    root, rows = _draw_batch(weight.d, weight.n, weight.level, count,
                             tuple(tag), tuple(spectra))
    return HaarCoefficients(weight.d, weight.n, weight.level, root, rows)


@functools.lru_cache(maxsize=1)
def _draw_batch(d: int, n: int, level: int, count: int, tag: tuple,
                spectra: tuple) -> tuple:
    """(root, rows) arrays of random_mean_zero_batch, read-only."""
    rows = np.zeros((count, _cube_count(d, level), (1 << d) - 1, n))
    for i in range(count):
        _draw_detail(rows[i], d, level, np.random.default_rng([*tag, i]),
                     spectra[i % len(spectra)])
    out = (np.zeros((n, count)), np.ascontiguousarray(np.moveaxis(rows, 0, -1)))
    for a in out:
        a.flags.writeable = False
    return out


def _square_values(f: HaarCoefficients, family: ReducingFamily, symbols: np.ndarray):
    """(sum_{I contains x, eps} |S_I f_I^eps|^2 / |I|)^{1/2} on each cell x, S_I
    symbol rows of the family: shape (2^L,)*d + batch, one per cell and column."""
    check_dims(f, family)
    d, L = f.d, f.level
    acc = np.zeros(((1 << L),) * d + f.batch)
    for l, y in enumerate(_levels(apply_symbols(symbols, f), d)):
        s = np.sum(y * y, axis=(d, d + 1)) * 2.0 ** (l * d)
        acc += refine_to_cells(s, d, L - l)
    return np.sqrt(acc)


def square_function(f: HaarCoefficients, family: ReducingFamily) -> GridFunction:
    """Pointwise square function with the family's V_I symbols, exact on cells."""
    values = _square_values(f, family, family.operators[0])
    return GridFunction(f.d, 1, f.level, np.expand_dims(values, f.d))


def square_norm(f: HaarCoefficients, family: ReducingFamily):
    """||S f||_p, p the family's exponent; one per column of a batch, as alone."""
    p = family.p
    return _lp_integrals(_square_values(f, family, family.operators[0]), f.d, p) ** (1.0 / p)


def dual_square_norm(f: HaarCoefficients, family: ReducingFamily):
    """Square norm with inverse symbols V_I^{-1}, measured at the conjugate
    p' of the family's exponent; one per column of a batch, as alone."""
    q = conjugate_exponent(family.p)
    return _lp_integrals(_square_values(f, family, family.inverses), f.d, q) ** (1.0 / q)


# ---------------------------------------------------------------------------
# equivalence-ratio experiments


@dataclass(eq=False)
class EquivalenceReport:
    """Ratios r(f) = ||f||_{L^p(W)} / ||Sf||_p over a batch of random f."""

    p: float
    char: float
    count: int
    seed: int
    spectra: tuple
    ratios: np.ndarray
    spectrum_of: list
    skipped: int
    weight_meta: dict = field(default_factory=dict)

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())

    @property
    def max_inverse_ratio(self) -> float:
        return float((1.0 / self.ratios).max())

    @property
    def exponent_upper(self) -> float:
        return (1.0 + math.ceil(self.p)) / self.p

    @property
    def exponent_lower(self) -> float:
        return (2.0 + math.ceil(conjugate_exponent(self.p))) / self.p

    @property
    def c1_emp(self) -> float:
        """max r(f) normalized by char^{(1+ceil p)/p}."""
        return self.max_ratio / self.char**self.exponent_upper

    @property
    def c2_emp(self) -> float:
        """max 1/r(f) normalized by char^{(2+ceil p')/p}."""
        return self.max_inverse_ratio / self.char**self.exponent_lower

    def quantiles(self) -> dict:
        qs = (0.0, 0.25, 0.5, 0.75, 1.0)
        vals = _linear_quantiles(self.ratios, qs)
        return {f"q{int(100 * q)}": v for q, v in zip(qs, vals)}


def _linear_quantiles(values: np.ndarray, qs) -> list:
    """np.quantile(values, qs) of the default linear method, bit for bit, from
    one sort: the virtual index n q + (1 - q) - 1 and numpy's two-sided lerp
    (from the upper neighbour when the fraction is >= 1/2). np.quantile
    itself imports numpy.ma on its first call, about 10 ms per process."""
    s = np.sort(values, axis=None)
    top = s.size - 1
    vals = []
    for q in qs:
        v = s.size * q + (1.0 - q) - 1.0
        lo = min(math.floor(v), top)
        a, b = float(s[lo]), float(s[min(lo + 1, top)])
        g = v - lo
        vals.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return vals


def equivalence_ratios(family: ReducingFamily, count: int, seed: int = 0,
                       spectra: tuple = SPECTRA) -> EquivalenceReport:
    """Measure r(f) over count random mean-zero f, spectra cycled, against
    the family's weight W at its exponent p.

    Each function draws from its own generator seeded by (seed, index), so
    reports are reproducible regardless of evaluation order; the draws are
    then measured as one batch. Degenerate draws (zero norm on either side)
    are skipped and counted.
    """
    weight = family.weight
    char = family.characteristic()
    f = random_mean_zero_batch(weight, count, [seed], spectra)
    wn = weighted_lp_norm(haar_reconstruct(f), weight, family.p)
    sn = square_norm(f, family)
    kept = np.flatnonzero((wn != 0.0) & (sn != 0.0))
    if not kept.size:
        raise ParameterError("all test functions degenerated to zero")
    return EquivalenceReport(
        p=family.p,
        char=char,
        count=count,
        seed=seed,
        spectra=tuple(spectra),
        ratios=wn[kept] / sn[kept],
        spectrum_of=[spectra[i % len(spectra)] for i in kept],
        skipped=count - kept.size,
        weight_meta=dict(weight.meta),
    )


def block_partition_constant(f: HaarCoefficients, tree: GenerationTree) -> tuple:
    """(sum_j ||Delta_j f||_p^p / ||f||_p^p, ||Delta_j f||_p^p per generation
    on a last axis) for mean-zero f, p the tree's exponent, each p-th power
    an integral (dyadic._lp_integrals) with no root; one constant per column
    of a batch. The columns go in blocks (dyadic._column_blocks), each split
    into its generation pieces and synthesized, cells x n x generations
    values per column, before the next; every column as it is alone."""
    p, d = tree.p, f.d

    def integrals(g: GridFunction):
        return _lp_integrals(np.linalg.norm(g.values, axis=d), d, p)

    denom = integrals(haar_reconstruct(f))
    if np.any(denom == 0.0):
        raise ParameterError("zero function has no partition constant")
    per_column = (1 << f.level * d) * f.n * tree.generation_count()
    parts = np.concatenate([integrals(haar_reconstruct(split_generations(part, tree)))
                            for _, part in _column_blocks(f, per_column)])
    return parts.sum(axis=-1) / denom, parts


# ---------------------------------------------------------------------------
# least squares and the cross-term geometric rate


@dataclass(frozen=True)
class _Line:
    slope: float
    intercept: float
    rvalue: float
    stderr: float


def _linregress(x, y) -> _Line:
    """Least-squares line through (x, y), by scipy.stats.linregress's own
    formulas: the same slope, intercept, r and slope stderr, and the same
    special case for two points (stderr 0)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.max() == x.min():
        raise ParameterError("a line fit needs at least two distinct x values")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0.0 else 0.0
    else:
        r = min(max(ssxym / math.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    df = x.size - 2
    stderr = math.sqrt((1.0 - r**2) * ssym / ssxm / df) if df else 0.0
    return _Line(float(slope), float(np.mean(y) - slope * np.mean(x)), float(r), stderr)


@dataclass(frozen=True)
class CrossTermReport:
    """Pooled log-linear fit of normalized cross terms against |j - k|."""

    p: float
    count: int
    seed: int
    slope: float
    stderr: float
    rate: float
    rate_ci95: float
    intercept: float
    n_points: int
    max_separation: int

    @property
    def passed(self) -> bool:
        return self.rate_ci95 < 1.0


def cross_term_rate(tree: GenerationTree, count: int, seed: int = 0) -> CrossTermReport:
    """Fit log of diagonal-normalized cross terms vs generation separation,
    on the weight of the tree's family at its exponent p.

    The blocks T_j f of the count random f are formed in blocks of function
    columns (dyadic._column_blocks), cells x n x generations values per
    column, each column as it is alone; off-diagonal terms
    int |T_j|^{p/2}|T_k|^{p/2} are divided by the diagonal geometric mean,
    so the j = k value is exactly 1 and the pooled regression needs no
    per-f scale. Test functions cycle through SPECTRA. Points are pooled in
    (f, j, k) order. Requires at least two populated generations.
    """
    p, weight = tree.p, tree.family.weight
    f = random_mean_zero_batch(weight, count, [seed], SPECTRA)
    gens = tree.generation_count()
    diag = np.empty((count, gens))
    raw = np.zeros((count, gens, gens))  # raw[:, j, k], filled for j < k
    cells = 1 << weight.level * weight.d
    for cols, part in _column_blocks(f, cells * weight.n * gens):
        # |T_j f| as one contiguous row of cells per (function, generation)
        norms = np.linalg.norm(t_blocks(tree, part).values, axis=weight.d)
        norms = _column_rows(norms, norms.shape[weight.d:]).reshape(-1, gens, cells)
        diag[cols] = np.mean(norms**p, axis=-1)
        for sep in range(1, gens):
            rows = np.arange(gens - sep)
            cross = (norms[:, :-sep] * norms[:, sep:]) ** (p / 2.0)
            raw[cols, rows, rows + sep] = np.mean(cross, axis=-1)
        del norms  # freed before the next block is formed
    kept = (diag[:, :, None] != 0.0) & (diag[:, None, :] != 0.0) & (raw != 0.0)
    i, j, k = np.nonzero(kept)
    xs = k - j
    # fewer than two distinct separations (np.unique imports numpy.ma)
    if np.count_nonzero(np.bincount(xs)) < 2:
        raise ParameterError(
            "cross-term fit needs at least two distinct generation separations"
        )
    ys = np.log(raw[i, j, k] / np.sqrt(diag[i, j] * diag[i, k]))
    fit = _linregress(xs, ys)
    return CrossTermReport(
        p=p,
        count=count,
        seed=seed,
        slope=float(fit.slope),
        stderr=float(fit.stderr),
        rate=math.exp(fit.slope),
        rate_ci95=math.exp(fit.slope + 1.96 * fit.stderr),
        intercept=float(fit.intercept),
        n_points=int(xs.size),
        max_separation=int(xs.max()),
    )


# ---------------------------------------------------------------------------
# p=2 extremal ratios (Lanczos on exact pyramid operators)


@dataclass(frozen=True)
class SharpnessProbe:
    """Extremal p=2 ratios for one weight: exact over all mean-zero f."""

    max_ratio: float
    max_inverse_ratio: float
    size: int


def _columnwise(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Column c of vecs times matrix c of mats: mats has shape
    cubes + (n, n, k), vecs cubes + (..., n, k), and each middle axis of vecs
    (the Haar signatures of a detail block) meets the same matrices. Unlike
    weights.apply_cells, which applies one shared matrix per cube to every
    column, each column here has its own matrix: one per probed weight."""
    mats = mats.reshape(mats.shape[:-3] + (1,) * (vecs.ndim - mats.ndim + 1)
                        + mats.shape[-3:])
    return np.einsum("...ijk,...jk->...ik", mats, vecs)


def _check_probe_family(family: ReducingFamily, grid):
    """ShapeError for the family of a level-0 weight or of one off the grid
    (d, n, L) (None: any grid); ParameterError unless p = 2; CoverageError
    (check_coverage) if the family stops short of level L - 1."""
    d, n, level = family.d, family.n, family.level
    if level < 1:
        raise ShapeError("a level-0 weight has no detail coefficients to probe")
    if grid not in (None, (d, n, level)):
        raise ShapeError(f"weight on (d, n, L) = {d, n, level}, probe grid {grid}")
    if family.p != 2.0:
        raise ParameterError(f"the probe needs a p=2 family, got p={family.p}")
    check_coverage(family.operators[0], d, level)


def _probe_operators(columns):
    """(forward, inverse, size): C = S H^T W_c H S and C^{-1} for columns on
    one grid, as O(size) pyramid matvecs on (size, k) column blocks.

    columns lists (weight, v, v_inv) on one grid (d, n, L), L >= 1: v holds
    one symmetric positive definite symbol V_I per cube on the level-row
    axis, (cubes, n, n), and v_inv its inverse; rows past the detail levels
    l < L go unused. For one column, G = H^T W_c H is the Gram matrix
    of ||f||_{L^2(W)}^2 on the grid (cells W_c, H detail-only synthesis) and
    S = blockdiag(V_I^{-1}), so the eigenvalues of C are those of the pencil
    (G, blockdiag(V_I^2)). The Schur complement over the constant
    function gives G^{-1} = H^T W_c^{-1} H - Z M0^{-1} Z^T, M0 = <W_c^{-1}>,
    Z the details of W_c^{-1} e_j (one column per component j), W_c^{-1}
    being the weight's cached power_cells(-1.0). So both directions are one
    pencil pass, synthesis with a symbol per cube, a cellwise product and
    analysis with the same symbols: forward on (W_c, V_I^{-1}), inverse on
    (W_c^{-1}, V_I), where the analysis of W_c^{-1} h also gives its root
    <W_c^{-1} h> and the pass takes off the rank-n correction
    Z M0^{-1} <W_c^{-1} h> before the last symbol product.

    Each direction stacks column i's cells and its symbols at index i of a
    trailing axis; the inverse also stacks M0 and Z, both from one _analyze
    of the stacked W_c^{-1} cells. The symbols lie on the level-row axis,
    the same rows as the block x and as Z. forward(x, cols) and inverse(x,
    cols) take a (size, len(cols)) block of the columns numbered cols. A
    matvec is one _columnwise product with the symbols, _synthesize, the
    cellwise product, _analyze (and the correction) and one more _columnwise
    product. The pyramid cores run the butterflies on plain arrays, every
    column on its own, and the correction's solve and sum run per column
    too, so a column's result does not depend on the others in the block.
    Each direction cuts its stacks to cols once per active set, which
    changes only when a column converges; with every column active the cut
    is a view, not a copy.
    """
    weight = columns[0][0]
    d, n, level = weight.d, weight.n, weight.level
    everyone = tuple(range(len(columns)))

    def pencil(mats, symbols, quotient):
        cells = np.stack(mats, axis=-1)
        stacks = [cells, np.stack([s[: _cube_count(d, level)] for s in symbols], axis=-1)]
        if quotient:
            stacks += _analyze(cells, d, level)  # M0 and Z

        @functools.lru_cache(maxsize=1)
        def take(cols):
            idx = slice(None) if cols == everyone else list(cols)
            return [a[..., idx] for a in stacks]

        def op(x, cols):
            a, s, *schur = take(tuple(cols))
            k = x.shape[-1]
            detail = _columnwise(s, x.reshape(-1, (1 << d) - 1, n, k))
            h = _synthesize(np.zeros((n, k)), detail, d)
            mean, detail = _analyze(_columnwise(a, h), d, level)
            if schur:
                m0, z = schur
                c = np.linalg.solve(np.moveaxis(m0, -1, 0), mean.T[..., None])[..., 0].T
                detail -= np.einsum("...ijk,jk->...ik", z, c)
            return _columnwise(s, detail).reshape(-1, k)

        return op

    forward = pencil([w.cells for w, _, _ in columns], [vi for _, _, vi in columns], False)
    inverse = pencil([w.power_cells(-1.0) for w, _, _ in columns],
                     [v for _, v, _ in columns], True)
    return forward, inverse, n * ((1 << level * d) - 1)


_BASIS = 20  # Lanczos vectors per cycle: ARPACK's default ncv for one eigenvalue
_KEEP = 8  # top Ritz vectors carried across a restart
_MAX_MATVECS = 5000  # cap per eigenvalue; a clustered top spectrum takes ~1,400
_EPS = float(np.finfo(float).eps)


def _largest_eigenvalues(op, size: int, k: int) -> list:
    """Largest eigenvalue of each of k symmetric positive operators on
    R^size, by k thick-restart Lanczos recurrences (Wu & Simon 2000) run in
    lock step: op(x, cols) applies operators cols to the columns of the
    (size, len(cols)) block x, so one call serves every active recurrence.

    Each recurrence is the single-vector method on its own column. Its basis
    holds up to _BASIS vectors in one preallocated array and is
    reorthogonalized fully (classical Gram-Schmidt, twice) at every step.
    When it fills, the iteration restarts from the top _KEEP Ritz vectors
    plus the residual direction, so the projected matrix is an arrowhead.
    A column stops as soon as its top Ritz pair's residual |beta_k s_k| is
    at most eps * theta, eps the float64 machine epsilon, or when the basis
    spans the whole space; it then leaves the active set. The start vector
    is always np.ones(size), normalized, so repeated calls agree bit for bit.
    The reorthogonalization, the projected eigenproblems and the restarts
    run as one batch over the active columns, and a column's arithmetic does
    not depend on the other columns of the batch.

    Returns k entries in column order: the eigenvalue, or an
    EigenConvergenceError for a column still active after _MAX_MATVECS
    applications of op. One DEBUG record on the haarweight logger per
    converged column gives the size, its matvecs and restarts, the final
    residual and top Ritz value theta, and the seconds until it converged.
    """
    start = time.perf_counter()
    m = min(_BASIS, size)
    active = np.arange(k)
    out = [None] * k
    basis = np.empty((k, m + 1, size))
    t = np.zeros((k, m, m))
    basis[:, 0] = 1.0 / math.sqrt(size)
    j = matvecs = restarts = 0
    while active.size:
        w = np.ascontiguousarray(op(basis[:, j].T, active).T)
        matvecs += 1
        q = basis[:, : j + 1]
        h = (q @ w[..., None])[..., 0]
        w -= (h[:, None] @ q)[:, 0]
        h2 = (q @ w[..., None])[..., 0]
        w -= (h2[:, None] @ q)[:, 0]
        t[:, j, j] = h[:, j] + h2[:, j]
        # one dot per column: the rounding of a lone vector's np.linalg.norm
        beta = np.sqrt((w[:, None] @ w[..., None])[:, 0, 0])
        theta, y = np.linalg.eigh(t[:, : j + 1, : j + 1])
        top, residual = theta[:, -1], beta * np.abs(y[:, j, -1])
        done = (residual <= _EPS * np.abs(top)) | (j + 1 == size)
        for c in np.flatnonzero(done):
            _log.debug(
                "lanczos: size=%d matvecs=%d restarts=%d residual=%.3g "
                "theta=%.17g seconds=%.3f",
                size, matvecs, restarts, residual[c], top[c],
                time.perf_counter() - start,
            )
            out[active[c]] = float(top[c])
        if matvecs >= _MAX_MATVECS:
            for c in np.flatnonzero(~done):
                out[active[c]] = EigenConvergenceError(
                    f"Lanczos stopped at the cap of {_MAX_MATVECS} matvecs: top "
                    f"Ritz value {float(top[c])!r}, residual {residual[c]:.3e}"
                )
            break
        if done.any():
            keep = np.flatnonzero(~done)
            if not keep.size:
                break
            # compact the survivors to the front, one column at a time, so
            # the basis is never copied whole
            for new, old in enumerate(keep):
                basis[new] = basis[old]
            basis, t = basis[: keep.size], t[keep]
            active, w, beta, theta, y = (a[keep] for a in (active, w, beta, theta, y))
        basis[:, j + 1] = w / beta[:, None]
        if j + 1 < m:
            t[:, j, j + 1] = t[:, j + 1, j] = beta
            j += 1
            continue
        # thick restart: the top Ritz vectors, then the residual direction
        top_y = y[:, :, -_KEEP:]
        basis[:, :_KEEP] = np.swapaxes(top_y, 1, 2) @ basis[:, :m]
        basis[:, _KEEP] = basis[:, m]
        t[:] = 0.0
        rows = np.arange(_KEEP)
        t[:, rows, rows] = theta[:, -_KEEP:]
        t[:, :_KEEP, _KEEP] = t[:, _KEEP, :_KEEP] = beta[:, None] * top_y[:, m - 1]
        j = _KEEP
        restarts += 1
    return out


def sharpness_probes(families) -> list:
    """Solve the p=2 generalized Rayleigh problem exactly, matrix-free, for
    the weight of every p=2 reducing family of one grid.

    With G the Gram matrix of ||f||_{L^2(W)}^2 in coefficient coordinates and
    B the block diagonal of m_I W, the extreme eigenvalues of (G, B) are the
    squared extremal ratios in both directions. B^{1/2} = blockdiag(V_I) and
    its inverse come from the family, which holds W: a family at another p
    gives ParameterError, one that stops short of level L - 1 gives
    CoverageError, and one of a level-0 weight gives ShapeError. The first
    family that passes these checks fixes the grid (d, n, L), and a later
    family off that grid gives ShapeError too.

    The checked families take two `_largest_eigenvalues` runs (thick-restart
    Lanczos from the fixed start np.ones(size)) on `_probe_operators`, one
    column (weight, V_I rows, V_I^{-1} rows) per family, all in lock step:
    first the largest eigenvalues of B^{-1/2} G B^{-1/2}, then those of
    its inverse for the families whose forward run converged. A column that
    has not converged after _MAX_MATVECS (5000) operator applications gives
    EigenConvergenceError.

    Returns one entry per family, in input order: its SharpnessProbe, or the
    exception that stopped it. Any other exception raised while probing (a
    LinAlgError, a MemoryError) takes the place of every checked family. The
    sweeps record such an entry as a failed point.
    """
    out, checked, grid = [None] * len(families), [], None
    for i, family in enumerate(families):
        try:
            _check_probe_family(family, grid)
        except HaarweightError as exc:
            out[i] = exc
            continue
        grid = (family.d, family.n, family.level)
        checked.append(i)
    if not checked:
        return out
    try:
        forward, inverse, size = _probe_operators(
            [(f.weight, f.operators[0], f.inverses) for f in (families[i] for i in checked)])
        tops = _largest_eigenvalues(forward, size, len(checked))
        alive = np.array([c for c, top in enumerate(tops)
                          if not isinstance(top, Exception)], dtype=int)
        inverse_tops = _largest_eigenvalues(
            lambda x, cols: inverse(x, alive[cols]), size, alive.size)
        for c, top in zip(alive, inverse_tops):
            tops[c] = top if isinstance(top, Exception) else SharpnessProbe(
                math.sqrt(tops[c]), math.sqrt(top), size)
    except Exception as exc:  # e.g. LinAlgError, MemoryError: every checked family
        tops = [exc] * len(checked)
    for i, probe in zip(checked, tops):
        out[i] = probe
    return out


def sharpness_probe(family: ReducingFamily) -> SharpnessProbe:
    """The exact extremal p=2 ratios of the family's weight over all
    mean-zero f.

    This is `sharpness_probes` on the one family, one column: the same
    operators, Lanczos rules and cap. Where the list entry returns an error
    in place, this raises it: ShapeError for the family of a level-0 weight,
    ParameterError for a family at p != 2, CoverageError for a family short
    of level L - 1, and EigenConvergenceError for a direction that hits
    _MAX_MATVECS.
    """
    (probe,) = sharpness_probes([family])
    if isinstance(probe, Exception):
        raise probe
    return probe


def loglog_slope(chars, values) -> dict:
    """Least-squares slope of log(values) against log(chars)."""
    chars = np.asarray(chars, dtype=float)
    values = np.asarray(values, dtype=float)
    if chars.shape != values.shape or chars.size < 3:
        raise ParameterError("slope fit needs at least three (char, value) pairs")
    fit = _linregress(np.log(chars), np.log(values))
    return {
        "slope": float(fit.slope),
        "stderr": float(fit.stderr),
        "intercept": float(fit.intercept),
        "rvalue": float(fit.rvalue),
        "n_points": int(chars.size),
    }
