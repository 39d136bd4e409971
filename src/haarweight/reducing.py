"""Reducing operators and matrix Muckenhoupt characteristics.

For a weight W, exponent p, and cube I, the direction norm

    rho_I(e) = ( |I|^{-1} int_I |W(x)^{1/p} e|^p dx )^{1/p}

is a norm on R^n. A reducing operator V_I is a single SPD matrix with
rho_I(e) <= |V_I e| <= kappa * rho_I(e): the ellipsoid {|V_I e| <= 1} squeezed
between the norm ball and its John dilate. The dual operator V'_I plays the
same role for rho'_I built from W^{-1/p} at the conjugate exponent. At p = 2
both are exact matrix square roots of cube averages (kappa = 1). On a cube
where W(x) = s(x) A, rho_I(e) = <s>_I^{1/p} |A^{1/p} e|, so V_I and V'_I are
exact closed forms too (kappa = 1). Every other cube gets a primal-dual Newton
minimum-volume-ellipsoid fit on a deterministic direction set. A family is
built on one row axis that holds every level of both sides, so each route
(square root, closed form, batched fit) runs once per family, and the family
keeps those rows. The cube averages, W = s A flags and direction norms are
the build's own, on the same row axis, from the weight's cells and cached
powers; the weight keeps none of them.

The characteristic sup_I ||V_I V'_I||^p is the operator-weight analogue of the
scalar A_p product <w>_I <w^{1-p'}>_I^{p-1}; it is >= 1 up to fit slack.
"""
from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .dyadic import _blocks, _cube_count, _levels, _spans, check_exponent, mean_pyramid
from .errors import (
    CoverageError,
    EllipsoidFitError,
    ParameterError,
)
from .weights import MatrixWeight, _serial_matmul, spd_power_stack

__all__ = [
    "ReducingFamily",
    "METHOD_NAMES",
    "quasi_uniform_directions",
    "build_reducing_family",
    "scan_depth",
    "duality_check",
    "DualityReport",
    "op_norm_stack",
    "conjugate_exponent",
]

METHOD_NAMES = ("exact-p2", "exact-scalar", "ellipsoid")
_M_P2, _M_SCALAR, _M_ELL = range(3)

_log = logging.getLogger(__name__)

_GOLDEN = 0.6180339887498949
# kappa is certified on the fit directions plus _CAL_FACTOR times as many
# calibration directions, a second quasi-uniform grid offset by _CAL_OFFSET
_CAL_FACTOR = 4
_CAL_OFFSET = 0.37
# the primal and the dual step of the ellipsoid fit go this fraction of the
# way to the nearest zero slack or zero dual. On the 50 fits of the
# rotating-fit sweep in tests/test_reducing.py (pytest -m slow), fractions
# 0.9, 0.95, 0.98 and 0.99 took 59,382, 54,681, 51,626 and 51,823
# row-steps, and no fit raised; 0.95 keeps a wider margin against rounding
# near the boundary for 6% more steps than 0.98
_STEP_FRACTION = 0.95
# Mehrotra's centring parameter sigma = (mu_aff / mu)^_SIGMA_POWER; on the
# same sweep, powers 3 and 2 took 54,681 and 57,778 row-steps
_SIGMA_POWER = 3
# the primal step goes at most this fraction of the way to the SPD boundary,
# so A shrinks by at most a factor 4 along any direction per step: there the
# linear model of A^{-1} is poor, and full steps let a row cycle between
# near-singular and doubling A. On 600 one-row fits of rotated l1, l1.5, l2,
# l3 and box norms in R^2 and R^3 with axis ratios 10 to 1e4, fractions
# 0.5, 0.75 and 0.95 raised on 55, 50 and 63 (the barrier path: 74); on the
# sweep they take the same steps
_SPD_FRACTION = 0.75
# the fit stops a row once its certified duality gap is <= n _TOL; a row
# still uncertified after _MAX_STEPS Newton steps raises
_TOL = 1e-6
_MAX_STEPS = 80
# a row's least-squares start is divided by 1 + _START_MARGIN past its
# farthest fit point, so every point lies strictly inside. On the 50 fits of
# the rotating-fit sweep in tests/test_reducing.py (pytest -m slow), margins
# 1e-6, 1e-5, 1e-4, 1e-3 and 1e-2 took 86,109, 60,600, 54,681, 59,149 and
# 67,687 row-steps, and no fit raised
_START_MARGIN = 1e-4


def conjugate_exponent(p: float) -> float:
    check_exponent(p)
    return p / (p - 1.0)


def fit_count(n: int) -> int:
    """Default number of ellipsoid fit directions in R^n."""
    return max(500, 50 * n * n)


def quasi_uniform_directions(n: int, m: int, offset: float = 0.0) -> np.ndarray:
    """m deterministic well-spread unit directions (up to sign) in R^n."""
    if n == 1:
        return np.ones((1, 1))
    if m < 2 * n:
        raise ParameterError(f"need at least {2 * n} directions, got {m}")
    if n == 2:
        th = (np.arange(m) + 0.5 + offset) * np.pi / m
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if n == 3:
        k = np.arange(m)
        z = (k + 0.5 + offset) / m
        phi = 2.0 * np.pi * (k * _GOLDEN + offset)
        r = np.sqrt(1.0 - z**2)
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rng = np.random.default_rng([n, m, int(offset * 1e6)])
    v = rng.standard_normal((m, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _extreme_singular_values(mats: np.ndarray) -> tuple:
    """(sigma_max, sigma_min) of every matrix of a (..., n, n) stack.

    n = 1: both are |M|. n = 2: with M = [[a, b], [c, d]], sigma_max and
    sigma_min are (hypot(a + d, c - b) +- hypot(a - d, b + c)) / 2 (the
    difference taken in absolute value, for det M < 0). Nothing is squared,
    so nothing overflows, and a stack scaled by 2^k gives values scaled by
    2^k exactly; sigma_min, a difference, holds to about eps * kappa
    relative. n >= 3: one SVD without vectors gives both.
    """
    n = mats.shape[-1]
    if n == 1:
        s = np.abs(mats[..., 0, 0])
        return s, s
    if n == 2:
        a, b, c, d = (mats[..., i, j] for i in range(2) for j in range(2))
        plus, minus = np.hypot(a + d, c - b), np.hypot(a - d, b + c)
        return (plus + minus) / 2, np.abs(plus - minus) / 2
    s = np.linalg.svd(mats, compute_uv=False)
    return s[..., 0], s[..., -1]


def op_norm_stack(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a (..., n, n) stack: sigma_max of
    _extreme_singular_values, the routine the stopping tests read too."""
    return _extreme_singular_values(mats)[0]


# ---------------------------------------------------------------------------
# direction norms


def _outer_products(x: np.ndarray) -> np.ndarray:
    """Row-wise outer products x_m x_m^T of an (m, k) array, flattened to (m, k^2)."""
    return (x[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)


def _rho_blocks(weight: MatrixWeight, p: float, dirs: np.ndarray, todo: np.ndarray,
                out: np.ndarray | None = None):
    """(directions, rho) per block of dirs: rho holds rho_I, then rho'_I, of
    the cubes that the level-row mask todo selects on the block's
    directions, (2 rows, k). Given out, the (2 rows, M) array of every
    direction, rho is the block's view of it.

    |W^s e|^q = (e^T W^{2s} e)^{q/2}, so the (cells, n^2) @ (n^2, k) product
    of the flattened W^{2s} = W^s W^s against the outer products of the
    block's k directions gives the integrand on every cell, then
    mean_pyramid averages it down to the deepest selected level: no finest
    one in a family build (a cell is W = s A), so the pyramid holds no copy
    of the integrand. The blocks come from dyadic._spans with cells + 2 rows
    entries per direction, so neither the integrand nor rho ever holds all
    of dirs, and a caller that keeps only a running reduction of rho holds
    one block. The product runs as serial GEMMs over blocks of cells
    (weights._serial_matmul), so it stays on the calling thread and its
    rounding does not depend on the BLAS thread count. Only the selected
    rows take the 1/q-th power.
    """
    rows = int(todo.sum())
    depth = max(l for l, picks in enumerate(_levels(todo, weight.d)) if picks.any())
    todo = todo[: _cube_count(weight.d, depth + 1)]
    cells = weight.cells.shape[: weight.d]
    squares = [((wp @ wp).reshape(-1, weight.n**2), q) for wp, q in (
        (weight.power_cells(1.0 / p), p),
        (weight.power_cells(-1.0 / p), conjugate_exponent(p)))]
    for block in _spans(dirs.shape[0], math.prod(cells) + 2 * rows):
        ee = _outer_products(dirs[block]).T
        rho = np.empty((2 * rows, ee.shape[1])) if out is None else out[:, block]
        for side, (w2, q) in zip(np.split(rho, 2), squares):
            g = _serial_matmul(w2, ee)
            np.power(g, 0.5 * q, out=g)
            pyr = mean_pyramid(g.reshape(cells + (-1,)), weight.d, depth)
            del g
            np.compress(todo, pyr, axis=0, out=side)
            del pyr
            np.power(side, 1.0 / q, out=side)
        yield dirs[block], rho


def _rho_rows(weight: MatrixWeight, p: float, dirs: np.ndarray,
              todo: np.ndarray) -> np.ndarray:
    """rho then rho' on every direction, (2 rows, M), for a direction set the
    caller keeps whole: _rho_blocks writes each block into one array."""
    out = np.empty((2 * int(todo.sum()), dirs.shape[0]))
    for _ in _rho_blocks(weight, p, dirs, todo, out):
        pass
    return out


# ---------------------------------------------------------------------------
# ellipsoid fit (primal-dual Newton, batched over cubes)


def _boundary_step(worst: np.ndarray, fraction: float) -> np.ndarray:
    """min(1, fraction / -worst) per row: the step length that goes fraction
    of the way to the nearest boundary, for each row's most negative change
    per unit step relative to its distance from that boundary (1 when it is
    >= -fraction)."""
    return fraction / np.maximum(fraction, -worst)


def _symmetric(x: np.ndarray, n: int) -> np.ndarray:
    """The symmetric parts of a (rows, n^2) stack of flattened n x n matrices."""
    x = x.reshape(-1, n, n)
    return (0.5 * (x + x.swapaxes(1, 2))).reshape(-1, n * n)


def _least_squares_start(w2: np.ndarray, pe: np.ndarray) -> np.ndarray:
    """Each row's least-squares ellipse, shrunk so that every fit point lies
    strictly inside it: (rows, n^2) flattened A.

    The points x_m have x_m^T A x_m = w2_m e_m^T A e_m, which is linear in
    the n(n+1)/2 symmetric coordinates A_ij, i <= j (an off-diagonal one
    counts twice). One (rows, m) @ (m, k^2) product of w2^2 against the
    coordinate outer products gives each row's k x k normal matrix of the
    fit of x_m^T A x_m = 1, one (rows, m) @ (m, k) product its right-hand
    side, and one k x k solve per row the fit. The fit is then divided by
    (1 + _START_MARGIN) max_m x_m^T A x_m.

    A row whose fit is indefinite starts from the isotropic ellipse through
    its nearest point, which alone would serve every row but nearly doubles
    the work. Row-steps from this start, then with all rows isotropic (no fit
    raised on either): the suite's three p=3 fits 2,783 and 5,210 (0.07 and
    0.10 s on a 2-core host); in tests/test_reducing.py, the 50-fit rotating
    sweep 54,681 and 110,688, the 216-build frame grid 1,131,684 and 1,882,613."""
    n = math.isqrt(pe.shape[1])
    i, j = np.triu_indices(n)
    coords = pe[:, i * n + j] * np.where(i == j, 1.0, 2.0)
    k = i.size
    normal = _serial_matmul(np.square(w2), _outer_products(coords)).reshape(-1, k, k)
    c = np.linalg.solve(normal, _serial_matmul(w2, coords)[..., None])[..., 0]
    a = np.empty((w2.shape[0], n, n))
    a[:, i, j] = c
    a[:, j, i] = c
    indefinite = ~(np.linalg.eigvalsh(a)[:, 0] > 0.0)
    a[indefinite] = np.eye(n) / w2[indefinite].max(axis=1)[:, None, None]
    a = a.reshape(-1, n * n)
    g = _serial_matmul(a, pe.T)
    g *= w2
    return a / ((1.0 + _START_MARGIN) * g.max(axis=1))[:, None]


def _quartic_monomials(pe: np.ndarray):
    """The C(n+3, 4) distinct products x_i x_j x_k x_l, i <= j <= k <= l, of
    each direction, (m, C), and for each entry of the flattened n^2 x n^2
    matrix vec(x x^T) vec(x x^T)^T the column that holds its product."""
    n = math.isqrt(pe.shape[1])
    quads = np.sort(np.indices((n,) * 4).reshape(4, -1).T, axis=1)
    quads, where = np.unique(quads, axis=0, return_inverse=True)
    mono = pe[:, quads[:, 0] * n + quads[:, 1]] * pe[:, quads[:, 2] * n + quads[:, 3]]
    return mono, where.reshape(-1)


def _mvee_batch(rho: np.ndarray, dirs: np.ndarray):
    """Minimum-volume ellipsoids around the symmetric point sets {dirs_m / rho_bm}.

    Solves, batched over rows b (cubes of any level and side),

        minimize -log det A   s.t.   x_m^T A x_m <= 1,  x_m = dirs_m / rho_bm,

    by primal-dual path following with Mehrotra's predictor-corrector steps
    (Mehrotra, SIAM J. Optim. 2 (1992); for minimum-volume ellipsoids, Sun &
    Freund, Oper. Res. 52 (2004)). The returned A are strictly feasible (all
    points inside {x : x^T A x <= 1}) and within n _TOL of the optimal
    -log det A; tests check the John-type certificate A^{-1} = sum_m c_m x_m
    x_m^T with c_m >= 0 and sum c_m <= n (1 + _TOL) on the suite's norms, and
    the gap against an independent dual on eccentric ones.

    Each row is rescaled by the geometric mean g of its rho, undone at exit,
    so its constraints read <E_m, A> <= r_m with E_m = e_m e_m^T, e_m =
    dirs_m, and r_m = (rho_m / g)^2. A row carries A, its slacks s_m = r_m -
    <E_m, A> > 0 and a dual u > 0. The optimum has A^{-1} = M = sum_m u_m E_m
    and u_m s_m = 0; the central path has u_m s_m = mu for all m.

    Start: A from _least_squares_start, every point strictly inside; its dual
    is u_0 = mu_0 / s_0, with mu_0 = G_0 / m for the start's duality gap G_0.

    Stop: for any u > 0, u scaled by n / sum_m u_m r_m is dual feasible with
    value log det M + n log(n / sum_m u_m r_m), so by weak duality the gap

        G = -log det A - log det M - n log(n / sum_m u_m r_m),

    with sum_m u_m r_m = u^T s + tr(A M), bounds -log det A minus its optimum
    for a strictly feasible A. The rescale leaves G unchanged, and G does not
    depend on the scale of u. A row leaves the batch once its G <= n _TOL,
    before its Newton matrix is built. A row still uncertified after
    _MAX_STEPS (80) Newton steps raises EllipsoidFitError with its gap. So
    does a start, Cholesky factor or Newton system that is singular in
    floats, where numpy raises LinAlgError, with the last gap of the rows
    left (infinite before the first step).

    Step: linearizing A^{-1} = M and u_m s_m = sigma mu gives, for the step
    Delta of A, the Newton matrix H = A^{-1} (x) A^{-1} + sum_m (u_m / s_m)
    vec(E_m) vec(E_m)^T and the right-hand side vec(A^{-1}) - sum_m c_m
    vec(E_m), after which du_m = c_m - u_m (1 - <E_m, Delta> / s_m). The
    predictor takes c = 0 (the affine-scaling step, sigma = 0) and gives
    mu_aff, the mean of u s after its steps; the corrector, on the same H,
    takes sigma = (mu_aff / mu)^_SIGMA_POWER and c_m = (sigma max(mu, G / m)
    - ds_aff_m du_aff_m) / s_m. The primal step goes _STEP_FRACTION of the
    way to the nearest zero slack and at most _SPD_FRACTION of the way to
    the SPD margin, read from the eigenvalues of the pencil L^{-1} Delta
    L^{-T} of A = L L^T; the dual step goes _STEP_FRACTION of the way to
    u = 0 (_boundary_step). Each row keeps its own mu = u^T s / m, G and
    step lengths, so its iterates do not depend on the batch beyond
    rounding. The slacks follow the step, s <- s (1 - alpha <E, Delta> / s),
    and are not recomputed from A.

    Each step takes one Cholesky factor A = L L^T, which gives A^{-1} and the
    log det A of the gap. H's barrier term comes from the weights u / s
    against the C(n+3, 4) distinct quartic monomials of each direction
    (_quartic_monomials; 5 columns at n = 2, 15 at n = 3). The rows go in
    blocks of dyadic._spans, within _BLOCK_ENTRIES entries for the four
    (rows, m) arrays a step holds (s, u and two work arrays); the blocks run
    one after another in this one call, each from step 0, so the step cap
    does not depend on how the rows are cut. The (rows, m) products of the start
    and of a step (M, H's barrier term, the two constraint changes and the
    corrector's right-hand side) run as serial GEMMs over blocks of rows
    (weights._serial_matmul): each block stays on the calling thread, so no
    BLAS worker wakes up or spins between the many small products of a fit,
    and the result does not depend on the BLAS thread count.

    One DEBUG record on the haarweight logger per call, also when it raises,
    gives the rows, n, m, the batch Newton steps, the largest final gap (on
    a raise, the failing residual), the seconds and the row-steps (Newton
    steps summed over rows).
    """
    start = time.perf_counter()
    b, m = rho.shape
    n = dirs.shape[1]
    q = n * n
    gm = np.empty(b)  # each row's rescale g, undone at exit
    pe = _outer_products(dirs)
    mono, quartic = _quartic_monomials(pe)
    a = np.empty((b, q))
    residual = np.full(b, np.inf)  # each row's last duality gap
    live = np.arange(b)
    steps = row_steps = 0

    def report(worst):
        _log.debug(
            "ellipsoid fit: rows=%d n=%d m=%d newton_steps=%d final_gap=%.3g "
            "seconds=%.3f row_steps=%d",
            b, n, m, steps, worst, time.perf_counter() - start, row_steps,
        )

    def failure(what):
        worst = float(residual[live].max())
        report(worst)
        return EllipsoidFitError(f"ellipsoid fit: {what}", residual=worst)

    def newton(hess, rhs):
        try:
            return _symmetric(np.linalg.solve(hess, rhs[..., None])[..., 0], n)
        except np.linalg.LinAlgError as exc:
            # a system singular in floats (an eccentric norm) fails like a stall
            raise failure(f"singular Newton system ({exc})") from exc

    # one step holds four (rows, m) arrays: s, u and two work arrays
    for block in _spans(b, 4 * m):
        live = np.arange(block.start, block.stop)
        r = np.log(rho[block])
        gm[block] = np.exp(r.mean(axis=1))
        np.divide(rho[block], gm[block, None], out=r)
        np.square(r, out=r)  # the constraints e_m^T A e_m <= r_m
        try:
            al = _least_squares_start(1.0 / r, pe)
        except np.linalg.LinAlgError as exc:
            raise failure(f"singular least-squares start ({exc})") from exc
        s = r - _serial_matmul(al, pe.T)
        del r
        u = 1.0 / s  # u_0 = mu_0 / s_0 once the start's gap gives mu_0
        for k in range(_MAX_STEPS + 1):
            try:
                linv = np.linalg.inv(np.linalg.cholesky(al.reshape(-1, n, n)))
            except np.linalg.LinAlgError as exc:
                raise failure(f"singular Cholesky factor ({exc})") from exc
            moment = _serial_matmul(u, pe)  # M = sum_m u_m e_m e_m^T
            us = np.einsum("ij,ij->i", u, s)
            # sum_m u_m r_m = sum_m u_m s_m + tr(A M)
            gap = (2.0 * np.log(np.diagonal(linv, axis1=1, axis2=2)).sum(axis=1)
                   - np.linalg.slogdet(moment.reshape(-1, n, n))[1]
                   + n * np.log((us + np.einsum("ij,ij->i", al, moment)) / n))
            residual[live] = gap
            if k == 0:
                # the start's margin keeps its gap >= n log(1 + _START_MARGIN) > 0
                u *= (gap / m)[:, None]
                us *= gap / m
            done = gap <= n * _TOL
            if done.any():
                a[live[done]] = al[done]
                keep = ~done
                live, al, linv, us, gap = live[keep], al[keep], linv[keep], us[keep], gap[keep]
                s = s[keep]
                u = u[keep]
            if not live.size:
                break
            if k == _MAX_STEPS:
                raise failure(f"{live.size} rows not certified in {_MAX_STEPS} Newton steps")
            steps += 1
            row_steps += live.size
            linv_t = linv.swapaxes(1, 2)
            ainv = linv_t @ linv
            work = u / s  # the Newton matrix's barrier weights
            hess = np.einsum("bik,bjl->bijkl", ainv, ainv).reshape(-1, q, q)
            hess += _serial_matmul(work, mono)[:, quartic].reshape(-1, q, q)
            ainv = ainv.reshape(-1, q)
            # predictor: the affine-scaling step, on the right-hand side
            # vec(A^{-1}); grow = -ds / s, each constraint's growth over its
            # slack, gives ds_aff = -s grow and du_aff = u (grow - 1). ap and
            # ad are the primal and dual step lengths
            grow = _serial_matmul(newton(hess, ainv), pe.T)
            grow /= s
            ap = _boundary_step(-grow.max(axis=1), _STEP_FRACTION)
            ad = _boundary_step(grow.min(axis=1) - 1.0, _STEP_FRACTION)
            # with v = u s grow, mu_aff m = sum_m (s + ap ds)(u + ad du) =
            # (1 - ad) sum u s + (ad - ap (1 - ad)) sum v - ap ad sum v grow
            np.multiply(u, s, out=work)
            work *= grow
            mu_aff = ((1.0 - ad) * us + (ad - ap * (1.0 - ad)) * work.sum(axis=1)
                      - ap * ad * np.einsum("ij,ij->i", work, grow))
            # the target never falls below sigma G / m: complementarity that
            # runs ahead of the gap strands a row near the boundary (without
            # the floor, 108 of the 600 fits of _SPD_FRACTION's note raised,
            # against 50)
            sigma_mu = (mu_aff / us) ** _SIGMA_POWER * np.maximum(us, gap) / m
            # corrector: c = (sigma mu - ds_aff du_aff) / s = (sigma mu + v (grow - 1)) / s
            grow -= 1.0
            work *= grow
            del grow
            work += sigma_mu[:, None]
            work /= s
            delta = newton(hess, ainv - _serial_matmul(work, pe))
            grow = _serial_matmul(delta, pe.T)
            grow /= s
            lam = np.linalg.eigvalsh(linv @ delta.reshape(-1, n, n) @ linv_t)[:, 0]
            ap = np.minimum(_boundary_step(-grow.max(axis=1), _STEP_FRACTION),
                            _boundary_step(lam, _SPD_FRACTION))[:, None]
            # du = c - u (1 - grow): u + ad du = u ((1 - ad) + ad (c / u + grow))
            work /= u
            work += grow
            ad = _boundary_step(work.min(axis=1) - 1.0, _STEP_FRACTION)[:, None]
            al = al + ap * delta
            grow *= -ap
            grow += 1.0
            s *= grow
            del grow
            work *= ad
            work += 1.0 - ad
            u *= work
            del work
    a = a.reshape(b, n, n) * (gm**2)[:, None, None]
    report(float(residual.max()))
    return a


def _fit_operators(rho_fit, dirs_fit, calibration):
    """V = c A^{1/2} from the MVEE shapes A of one _mvee_batch call over all
    rows, rescaled so |V e| >= rho on the calibration set; kappa = guaranteed
    upper slack on that set.

    The calibration set is the fit directions plus the (directions, rho)
    blocks that calibration yields. Each block keeps only a running max and
    min of rho / |A^{1/2} e| per row, which give c and kappa = c / min exactly,
    so no (rows, directions) array outlives its block. |A^{1/2} e|^2 =
    e^T A e comes from the (B, n^2) @ (n^2, k) product against the block's
    direction outer products, run as serial GEMMs over blocks of rows
    (weights._serial_matmul) so that it stays on the calling thread."""
    a = _mvee_batch(rho_fit, dirs_fit)
    flat = a.reshape(a.shape[0], -1)
    c = np.zeros(a.shape[0])
    low = np.full(a.shape[0], np.inf)
    for dirs, rho in itertools.chain([(dirs_fit, rho_fit)], calibration):
        g = _serial_matmul(flat, _outer_products(dirs).T)
        np.sqrt(g, out=g)
        np.divide(rho, g, out=g)
        np.maximum(c, g.max(axis=1), out=c)
        np.minimum(low, g.min(axis=1), out=low)
        del g, rho  # freed before the next block is computed
    v = spd_power_stack(a, 0.5) * c[:, None, None]
    return v, c / low


# ---------------------------------------------------------------------------
# reducing family over the dyadic tree


@dataclass(eq=False)
class ReducingFamily:
    """Reducing operators V_I, V'_I of one weight for every cube of level <=
    max_depth, on the level-row axis (see dyadic), primal side then dual:
    operators (2, cubes, n, n), kappas and method codes (2, cubes), which
    index METHOD_NAMES. The grid is the weight's.
    """

    weight: MatrixWeight
    p: float
    max_depth: int
    operators: np.ndarray
    kappas: np.ndarray
    methods: np.ndarray

    d = property(lambda self: self.weight.d)
    n = property(lambda self: self.weight.n)
    level = property(lambda self: self.weight.level)
    # per-level views of the primal method codes, read by perfbench/layers.py
    method = property(lambda self: _levels(self.methods[0], self.d))
    # the same of the dual side's codes, read there beside method
    method_dual = property(lambda self: _levels(self.methods[1], self.d))

    def __post_init__(self):
        self._cache = {}

    @property
    def inverses(self) -> np.ndarray:
        """V_I^{-1} on the level-row axis, (cubes, n, n), computed once."""
        if "inverses" not in self._cache:
            self._cache["inverses"] = spd_power_stack(self.operators[0], -1.0)
        return self._cache["inverses"]

    def _pair_rows(self, depth: int, dual: bool = False) -> np.ndarray:
        """||V_I V'_I|| (dual: ||V'_I V_I||) of each cube of level <= depth."""
        first, second = self.operators[:, : _cube_count(self.d, depth + 1)]
        return op_norm_stack(second @ first if dual else first @ second)

    def max_kappa(self, depth: int | None = None) -> float:
        depth = self.max_depth if depth is None else min(depth, self.max_depth)
        return float(self.kappas[:, : _cube_count(self.d, depth + 1)].max())

    def min_pair_norm(self) -> float:
        return float(self._pair_rows(self.max_depth).min())

    def characteristic(self, depth: int | None = None) -> float:
        """sup over cubes of level <= depth (default scan_depth) of
        ||V_I V'_I||^p."""
        depth = scan_depth(self.level) if depth is None else depth
        if depth > self.max_depth:
            raise CoverageError(
                f"scan depth {depth} beyond family depth {self.max_depth}"
            )
        return float(self._pair_rows(depth).max()) ** self.p


def _proportionality(weight: MatrixWeight) -> tuple:
    """(flags, shapes) on the level-row axis of levels 0..L: whether W(x) =
    s(x) A exactly on the cube (s = W_00; always on a single cell), and that
    A. Cells divided by W_00 compare by exact equality, so a cube is never
    flagged wrongly; at worst it is missed and fitted."""
    d, level = weight.d, weight.level
    rows = _cube_count(d, level + 1)
    flags, shapes = np.ones(rows, dtype=bool), np.empty((rows,) + weight.cells.shape[d:])
    flag, rep = _levels(flags, d), _levels(shapes, d)
    np.divide(weight.cells, weight.cells[..., :1, :1], out=rep[level])
    for lvl in range(level - 1, -1, -1):
        blocks = _blocks(rep[lvl + 1], d, 2)
        flag[lvl][...] = (np.all(_blocks(flag[lvl + 1], d, 2), axis=d)
                          & np.all(blocks == blocks[..., :1, :, :], axis=(d, -1, -2)))
        rep[lvl][...] = blocks[..., 0, :, :]
    return flags, shapes


def build_reducing_family(
    weight: MatrixWeight,
    p: float,
    max_depth: int | None = None,
    directions: int | None = None,
) -> ReducingFamily:
    """Reducing operators for every cube of level <= max_depth (default: all);
    ellipsoid fits use `directions` directions (default fit_count(n)).

    Rows are the primal cubes level by level, each level in index order, then
    the dual cubes. At p = 2 one spd_power_stack takes the square roots of
    the stacked averages of W and W^{-1} (mean_pyramid of power_cells(+-1));
    otherwise _proportionality flags the rows where W = s A, the closed form
    fills them on both sides, and one _fit_operators call the rest. The
    family keeps these (2, cubes) rows as they are built.

    The fit sees rho on the m fit directions only (_rho_rows). The
    _CAL_FACTOR m calibration directions are then streamed in blocks
    (_rho_blocks), each reduced to a running max and min per row by
    _fit_operators, so no (rows, directions) array of them is ever held.
    """
    q = conjugate_exponent(p)  # checks the exponent
    m_fit = fit_count(weight.n) if directions is None else int(directions)
    max_depth = weight.level if max_depth is None else int(max_depth)
    if not 0 <= max_depth <= weight.level:
        raise ParameterError(f"max_depth {max_depth} outside [0, {weight.level}]")
    d, n = weight.d, weight.n
    if p == 2.0:
        v = spd_power_stack(np.stack([mean_pyramid(weight.power_cells(s), d, max_depth)
                                      for s in (1.0, -1.0)]), 0.5)
        kappa = np.ones(v.shape[:2])
        method = np.full(v.shape[:2], _M_P2, dtype=np.int8)
    else:
        rows = _cube_count(d, max_depth + 1)
        flags, shapes = (a[:rows] for a in _proportionality(weight))
        shapes = shapes[flags]
        # W = s A: V = <s>^{1/p} A^{1/p}, V' = <s^{1-p'}>^{1/p'} A^{-1/p}
        s = weight.cells[..., 0, 0]
        v = np.empty((2, rows, n, n))
        v[:, flags] = [
            mean_pyramid(w, d, max_depth)[flags, None, None] ** (1.0 / r)
            * spd_power_stack(shapes, e)
            for w, r, e in ((s, p, 1.0 / p), (s ** (1.0 - q), q, -1.0 / p))
        ]
        kappa = np.ones((2, rows))
        todo = ~flags
        if todo.any():
            dirs_fit = quasi_uniform_directions(n, m_fit)
            dirs_cal = quasi_uniform_directions(n, m_fit * _CAL_FACTOR, offset=_CAL_OFFSET)
            v_fit, kappa_fit = _fit_operators(_rho_rows(weight, p, dirs_fit, todo), dirs_fit,
                                              _rho_blocks(weight, p, dirs_cal, todo))
            v[:, todo] = v_fit.reshape(2, -1, n, n)
            kappa[:, todo] = kappa_fit.reshape(2, -1)
        method = np.stack([np.where(todo, _M_ELL, _M_SCALAR).astype(np.int8)] * 2)
    return ReducingFamily(weight, float(p), max_depth, v, kappa, method)


# ---------------------------------------------------------------------------
# characteristics


def scan_depth(level: int) -> int:
    """Default scan depth of the characteristic on a level-L grid,
    max(L - 2, 0): every scanned cube spans at least 4 cells per axis."""
    return max(level - 2, 0)


@dataclass(frozen=True)
class DualityReport:
    """Comparison of the characteristic of W at p with W^{1-p'} at p'."""

    p: float
    p_dual: float
    char: float
    char_dual: float
    predicted_dual: float
    log_gap: float
    kappa_max: float
    log_bound: float
    passed: bool


def duality_check(
    weight: MatrixWeight,
    p: float,
    family: ReducingFamily | None = None,
) -> DualityReport:
    """Check ||W^{1-p'}||_{A_p'} = ||W||_{A_p}^{p'/p} on the family of W at p.

    The family of W^{1-p'} at p' is not fitted. (W^{1-p'})^{1/p'} = W^{-1/p},
    so its direction norm is the dual norm rho'_I of W at p and its dual
    norm is rho_I: its operators are V'_I and V_I, and its characteristic is
    max_I ||V'_I V_I||^{p'} on the family of W at p. The two characteristics
    agree up to rounding and no second family is built. log_bound =
    log(kappa_max^4) is the slack an independent refit of W^{1-p'} may show;
    acceptance criterion 5 makes that refit. Both characteristics scan to
    scan_depth(L).
    """
    q = conjugate_exponent(p)
    depth = scan_depth(weight.level)
    if family is None:
        family = build_reducing_family(weight, p, max_depth=depth)
    elif family.weight is not weight or family.p != p:
        raise ParameterError(f"family at p={family.p} is not this weight's family at p={p}")
    char = family.characteristic(depth)
    char_dual = float(family._pair_rows(depth, dual=True).max()) ** q
    predicted = char ** (q / p)
    kappa = family.max_kappa(depth)
    log_gap = abs(math.log(char_dual) - math.log(predicted))
    log_bound = 4.0 * math.log(kappa)
    return DualityReport(
        p=float(p),
        p_dual=q,
        char=char,
        char_dual=char_dual,
        predicted_dual=predicted,
        log_gap=log_gap,
        kappa_max=kappa,
        log_bound=log_bound,
        passed=log_gap <= log_bound + 1e-9,
    )
