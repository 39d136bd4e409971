"""Reducing operators and matrix Muckenhoupt characteristics.

For a weight W, exponent p, and cube I, the direction norm

    rho_I(e) = ( |I|^{-1} int_I |W(x)^{1/p} e|^p dx )^{1/p}

is a norm on R^n. A reducing operator V_I is a single SPD matrix with
rho_I(e) <= |V_I e| <= kappa * rho_I(e): the ellipsoid {|V_I e| <= 1} squeezed
between the norm ball and its John dilate. The dual operator V'_I plays the
same role for rho'_I built from W^{-1/p} at the conjugate exponent. At p = 2
both are exact matrix square roots of cube averages (kappa = 1). On a cube
where W(x) = s(x) A, rho_I(e) = <s>_I^{1/p} |A^{1/p} e|, so V_I and V'_I are
exact closed forms too (kappa = 1). Every other cube gets a log-barrier Newton
minimum-volume-ellipsoid fit on a deterministic direction set. A family is
built on one row axis that holds every level of both sides, so each route
(square root, closed form, batched fit) runs once per family.

The characteristic sup_I ||V_I V'_I||^p is the operator-weight analogue of the
scalar A_p product <w>_I <w^{1-p'}>_I^{p-1}; it is >= 1 up to fit slack.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dyadic import _levels, _rows, check_exponent, mean_pyramid
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
# barrier parameter multiplier per stage of the ellipsoid fit; with the
# tangent step between stages, x10, x20 and x40 take row-steps within 5% of
# each other on the default suite, and x100 stalls 17 of 40 rotating-weight
# fits at p in {1.25, 1.5, 3, 4} that x10 to x40 all centre
_T_FACTOR = 20.0
# Newton's quadratic region: a row with decrement <= _NEAR_CENTRE takes the
# capped step with no Armijo search, and a barrier stage before the last is
# centred once the row's decrement is <= _NEAR_CENTRE
_NEAR_CENTRE = 0.25
# the last stage stops a row at duality gap <= n _TOL, about twice the gap of
# the exact centre at t_final = 2m / (n _TOL) for m fit directions; _MAX_ITER
# caps the batch Newton steps over all barrier stages
_TOL = 1e-6
_MAX_ITER = 200_000
# a row's least-squares start is divided by 1 + _START_MARGIN past its
# farthest fit point, so every point lies strictly inside. On the 50 fits of
# the rotating-fit sweep in tests/test_reducing.py (pytest -m slow), margins
# 1e-6, 1e-5, 1e-4, 1e-3 and 1e-2 took 298,230, 238,646, 210,087, 233,606
# and 245,543 row-steps, and no fit raised
_START_MARGIN = 1e-4
# a row's first barrier parameter is t_0 = _T0_FACTOR m / G_0, clipped to
# [m, t_final], for the certified duality gap G_0 of its start: the exact
# centre at t_0 has gap m / t_0 = G_0 / _T0_FACTOR. On the same sweep,
# factors 3, 10, 30 and 100 raised on no fit and took 283,973, 256,654,
# 233,388 and 210,087 row-steps; factor 1 raised on 1 fit, and 300, 1000
# and 3000 on 1, 3 and 12
_T0_FACTOR = 100.0


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


def op_norm_stack(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a (..., n, n) stack."""
    if mats.shape[-1] == 1:
        return np.abs(mats[..., 0, 0])
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


# ---------------------------------------------------------------------------
# direction norms


def _outer_products(x: np.ndarray) -> np.ndarray:
    """Row-wise outer products x_m x_m^T of an (m, k) array, flattened to (m, k^2)."""
    return (x[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)


def _rho_rows(weight: MatrixWeight, p: float, dirs: np.ndarray, dual: bool,
              todo: np.ndarray) -> np.ndarray:
    """rho_I (dual: rho'_I) on every direction, (rows, M), for the cubes that
    the row mask todo selects.

    |W^s e|^q = (e^T W^{2s} e)^{q/2}, so the (cells, n^2) @ (n^2, M) product
    of the flattened W^{2s} = W^s W^s against the direction outer products
    gives the integrand on every cell, then mean_pyramid averages it. The
    product runs as serial GEMMs over blocks of cells (weights._serial_matmul),
    so it stays on the calling thread and its rounding does not depend on the
    BLAS thread count. Only the selected rows take the 1/q-th power.
    """
    s = -1.0 / p if dual else 1.0 / p
    q = conjugate_exponent(p) if dual else p
    wp = weight.power_cells(s)
    g = _serial_matmul((wp @ wp).reshape(-1, weight.n**2), _outer_products(dirs).T)
    np.power(g, 0.5 * q, out=g)
    pyr = mean_pyramid(g.reshape(wp.shape[:-2] + (-1,)), weight.d)
    rho = np.concatenate([a[t] for a, t in zip(pyr, _levels(todo, weight.d))])
    return np.power(rho, 1.0 / q, out=rho)


# ---------------------------------------------------------------------------
# ellipsoid fit (log-barrier Newton, batched over cubes)


def _step_length(delta, r, linv, linv_t, pe):
    """The largest alpha <= 1 that keeps 2% of the constraint slack and of the
    SPD margin along the steps delta from A = L L^T, with the (rows, m) u,
    each constraint's change per unit step over its slack, and the ascending
    eigenvalues lam of the pencil L^{-1} delta L^{-T}.

    r = w2 / slack are the weights the step has already formed, so u is one
    (rows, m) product scaled by r in place. The explicit caps guard against
    rounding: the slack cap is 0.98 / max_m u_m, the SPD cap
    -0.98 / min_i lam_i."""
    n = linv.shape[-1]
    u = _serial_matmul(delta, pe.T)
    u *= r
    top = u.max(axis=1)
    lam = np.linalg.eigvalsh(linv @ delta.reshape(-1, n, n) @ linv_t)
    with np.errstate(divide="ignore"):
        cap = np.where(top > 0.0, 0.98 / top, np.inf)
        spd = np.where(lam[:, 0] < 0.0, -0.98 / lam[:, 0], np.inf)
    return np.minimum(np.minimum(1.0, cap), spd), u, lam


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
    (1 + _START_MARGIN) max_m x_m^T A x_m."""
    n = math.isqrt(pe.shape[1])
    i, j = np.triu_indices(n)
    coords = pe[:, i * n + j] * np.where(i == j, 1.0, 2.0)
    k = i.size
    normal = _serial_matmul(np.square(w2), _outer_products(coords)).reshape(-1, k, k)
    c = np.linalg.solve(normal, _serial_matmul(w2, coords)[..., None])[..., 0]
    a = np.empty((w2.shape[0], n, n))
    a[:, i, j] = c
    a[:, j, i] = c
    # on a norm far from any ellipse the fit can be indefinite: such a row
    # starts from the isotropic ellipse through its nearest point instead
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


def _mvee_batch(rho: np.ndarray, dirs: np.ndarray, tol: float, max_iter: int):
    """Minimum-volume ellipsoids around the symmetric point sets {dirs_m / rho_bm}.

    Solves, batched over rows b (cubes of any level and side),

        minimize -log det A   s.t.   x_m^T A x_m <= 1,  x_m = dirs_m / rho_bm,

    by primal log-barrier Newton path following (the constraints are linear in
    A and the objective is self-concordant, so a handful of Newton steps per
    barrier stage reaches high accuracy; multiplicative-update schemes are far
    too slow at this tolerance). The returned A are strictly feasible (all
    points inside {x : x^T A x <= 1}) and within n tol of the optimal
    -log det A; tests check the John-type certificate A^{-1} =
    sum_m c_m x_m x_m^T with c_m >= 0 and sum c_m <= n (1 + tol) on them.
    max_iter caps the total batch Newton steps.

    Start: each row starts at its least-squares ellipse, shrunk so that every
    point lies strictly inside (_least_squares_start), or at the isotropic
    ellipse through its nearest point where that fit is indefinite.

    Barrier schedule (Boyd & Vandenberghe, Convex Optimization, 11.3): each
    row runs its own path. Its first barrier parameter is t_0 = _T0_FACTOR m
    / G_0, clipped to [m, t_final], for the duality gap G_0 of its start, and
    its t grows by _T_FACTOR per stage up to t_final = 2m / (n tol). Before
    t_final a row is centred once it is in Newton's quadratic region
    (decrement <= _NEAR_CENTRE); it then takes one tangent (predictor) step
    to t' = min(_T_FACTOR t, t_final) and goes on at t' on the next step.
    Along the central path dA/d(1/t) = -t H_t^{-1} vec(A^{-1}) for the
    Hessian H_t of the t-normalized barrier, so the step is (1 - t/t')
    H_t^{-1} vec(A^{-1}), symmetrized, on the Hessian of the row's last
    Newton step. At t_final a row stops once its duality gap is <= n tol
    (8.4), before its Hessian is built: u_m = 1 / (t slack_m) scaled by n /
    sum u is dual feasible with value log det M + n log(n / sum u), M =
    sum_m u_m x_m x_m^T, so the gap -log det A - log det M - n log(n / sum u),
    which the conditioning rescale leaves unchanged, bounds -log det A minus
    its optimum. An exact t_final centre has M = A^{-1} and sum u = n + m / t,
    so its gap n log(1 + tol / 2) leaves the stop a factor-2 margin. The gap
    is the same for every t once M is scaled by t, so the same formula gives
    G_0. A row that is not centred after 80 steps at one t raises
    EllipsoidFitError with its residual (the decrement, or the gap at
    t_final). A row leaves the batch when it stops, so its steps and result
    do not depend on the batch beyond rounding.

    Each step takes one Cholesky factor A = L L^T: L^{-1} gives A^{-1} =
    L^{-T} L^{-1}, the log det A of the gap, and the pencil L^{-1} Delta
    L^{-T}, whose eigenvalues lam_i are the generalized eigenvalues of
    (Delta, A). The weights r = w2 / slack are formed once per step: r
    against the direction outer products gives t M, the barrier gradient
    M - A^{-1} and sum u = tr(A M) + m / t (as u_m slack_m = 1 / t); r
    squared against the C(n+3, 4) distinct quartic monomials of each
    direction (_quartic_monomials; 5 columns at n = 2, 15 at n = 3) gives
    the Hessian's barrier term, and r itself gives u below. One solve with
    two right-hand sides gives the Newton step and the tangent direction.
    Newton and tangent steps alike start at the largest alpha <= 1 that keeps
    2% of the constraint slack and of the SPD margin (_step_length); u, one
    (rows, m) pass, is each constraint's change per unit step over its
    slack. On a Newton step, rows with decrement > _NEAR_CENTRE then halve
    alpha until the t-normalized barrier meets the Armijo condition; each row
    leaves the search once its step passes, and the other rows keep the
    capped step. The trial values need no factorization:
    log det(A + alpha Delta) - log det A = sum_i log(1 + alpha lam_i), and
    the barrier term is sum_m log(1 - alpha u_m) on the same u. The (rows, m)
    products of the start and of a step (the constraint values, the
    gradient, the Hessian and u) run as serial GEMMs over blocks of rows
    (weights._serial_matmul): each block stays on the calling thread, so no
    BLAS worker wakes up or spins between the many small products of a fit,
    and the result does not depend on the BLAS thread count.

    One DEBUG record on the haarweight logger per call, also when it raises,
    gives the batch Newton steps, the most barrier stages any row ran, the
    largest final gap (on a raise, the failing residual), the seconds, the
    row-steps and the search steps (Newton steps and Armijo halvings summed
    over rows).
    """
    start = time.perf_counter()
    b, m = rho.shape
    n = dirs.shape[1]
    q = n * n
    gm = np.exp(np.mean(np.log(rho), axis=1))  # conditioning rescale, undone at exit
    invr2 = (gm[:, None] / rho) ** 2
    pe = _outer_products(dirs)
    mono, quartic = _quartic_monomials(pe)
    a = _least_squares_start(invr2, pe)
    t_final = 2.0 * m / (n * tol)
    t = None  # each row's barrier parameter, set from its start's gap on the first step
    stage_steps = np.zeros(b, dtype=np.int64)  # each row's Newton steps at its t
    stages = np.ones(b, dtype=np.int64)
    # each row's stop measure: its Newton decrement, and its gap at t_final
    residual = np.full(b, np.inf)
    iters = row_steps = search_steps = 0

    def report(worst):
        _log.debug(
            "ellipsoid fit: rows=%d n=%d m=%d newton_steps=%d stages=%d "
            "final_gap=%.3g seconds=%.3f row_steps=%d search_steps=%d",
            b, n, m, iters, int(stages.max()), worst,
            time.perf_counter() - start, row_steps, search_steps,
        )

    live, w2 = np.arange(b), invr2
    while True:
        if iters >= max_iter:
            worst = float(residual[live].max())
            report(worst)
            raise EllipsoidFitError(
                f"ellipsoid fit exceeded {max_iter} Newton iterations", residual=worst)
        iters += 1
        row_steps += live.size
        al = a[live]
        linv = np.linalg.inv(np.linalg.cholesky(al.reshape(-1, n, n)))
        linv_t = linv.swapaxes(1, 2)
        ainv = linv_t @ linv
        r = _serial_matmul(al, pe.T)  # becomes w2 / slack in place
        r *= w2
        np.subtract(1.0, r, out=r)
        np.divide(w2, r, out=r)
        tm = _serial_matmul(r, pe)  # t M, M = sum_m u_m x_m x_m^T
        gap = (2.0 * np.log(np.diagonal(linv, axis1=1, axis2=2)).sum(axis=1)
               - np.linalg.slogdet(tm.reshape(-1, n, n))[1]
               + n * np.log(((al * tm).sum(axis=1) + m) / n))
        if t is None:
            # the start's margin keeps its gap >= n log(1 + _START_MARGIN) > 0
            t = np.clip(_T0_FACTOR * m / gap, m, t_final)
        tl = t[live]
        last = tl >= t_final
        residual[live[last]] = gap[last]
        done = last & (gap <= n * tol)
        if done.all():
            break
        if done.any():
            keep = ~done
            live, w2, al, linv, linv_t, ainv, r, tm, tl, last = (
                x[keep] for x in (live, w2, al, linv, linv_t, ainv, r, tm, tl, last))
        # Newton step on the t-normalized objective -logdet A - (1/t) sum ln(1-g):
        # the same centre and step as the barrier's, with O(1) gradients at large t
        grad = tm / tl[:, None] - ainv.reshape(-1, q)
        hess = np.einsum("bik,bjl->bijkl", ainv, ainv).reshape(-1, q, q)
        sq = np.square(r)
        hess += _serial_matmul(sq, mono)[:, quartic].reshape(-1, q, q) / tl[:, None, None]
        del sq
        # the Newton step and the tangent direction H^{-1} vec(A^{-1}), one solve
        sol = np.linalg.solve(hess, np.stack([-grad, ainv.reshape(-1, q)], axis=2))
        delta = _symmetric(sol[..., 0], n)
        # Newton decrement of the un-normalized barrier: sqrt(t) * phi-decrement
        dec = np.sqrt(tl * np.maximum(-np.sum(grad * delta, axis=1), 0.0))
        residual[live[~last]] = dec[~last]
        centred = ~last & (dec <= _NEAR_CENTRE)
        stage_steps[live] += 1
        stuck = ~centred & (stage_steps[live] >= 80)
        if stuck.any():
            worst = float(residual[live[stuck]].max())
            report(worst)
            raise EllipsoidFitError(
                f"ellipsoid fit: {int(stuck.sum())} rows not centred in 80 steps",
                residual=worst)
        # a centred row takes the tangent step toward its next t instead
        t_next = np.minimum(tl * _T_FACTOR, t_final)
        tangent = (1.0 - tl / t_next)[:, None] * _symmetric(sol[..., 1], n)
        step = np.where(centred[:, None], tangent, delta)
        alpha, u, lam = _step_length(step, r, linv, linv_t, pe)
        del r
        # Armijo backtracking (c = 1/4) on the t-normalized barrier, only on
        # the rows outside Newton's quadratic region; the others keep the
        # capped step. A row leaves the search once its step passes. The
        # damped step 1/(1 + decrement) always passes in exact arithmetic,
        # so a row needs about log2(1 + decrement) halvings.
        slope = dec**2 / tl
        seek = np.flatnonzero(dec > _NEAR_CENTRE)
        lam_s, u_s, t_s = lam[seek], u[seek], tl[seek]
        del u
        for _ in range(60):
            if not seek.size:
                break
            trial = alpha[seek, None]
            barrier = u_s * -trial
            change = -np.log1p(trial * lam_s).sum(axis=1) - np.log1p(
                barrier, out=barrier
            ).sum(axis=1) / t_s
            del barrier  # one (rows, m) temporary per trial, freed before the next
            short = change > -0.25 * alpha[seek] * slope[seek]
            seek, lam_s, u_s, t_s = seek[short], lam_s[short], u_s[short], t_s[short]
            alpha[seek] *= 0.5
            search_steps += seek.size
        a[live] = al + alpha[:, None] * step
        moved = live[centred]
        t[moved] = t_next[centred]
        stage_steps[moved] = 0
        stages[moved] += 1
    a = a.reshape(b, n, n) * (gm**2)[:, None, None]
    report(float(residual.max()))
    return a


def _fit_operators(rho_fit, rho_all, dirs_fit, dirs_all):
    """V = c A^{1/2} from the MVEE shapes A of one _mvee_batch call over all
    rows, rescaled so |V e| >= rho on the calibration set; kappa = guaranteed
    upper slack on that set. |A^{1/2} e|^2 = e^T A e comes from the
    (B, n^2) @ (n^2, M_all) product against the direction outer products,
    run as serial GEMMs over blocks of rows (weights._serial_matmul) so that
    it stays on the calling thread."""
    a = _mvee_batch(rho_fit, dirs_fit, _TOL, _MAX_ITER)
    g = _serial_matmul(a.reshape(a.shape[0], -1), _outer_products(dirs_all).T)
    np.sqrt(g, out=g)
    np.divide(rho_all, g, out=g)
    c = g.max(axis=1)
    kappa = c / g.min(axis=1)
    v = spd_power_stack(a, 0.5) * c[:, None, None]
    return v, kappa


# ---------------------------------------------------------------------------
# reducing family over the dyadic tree


@dataclass(eq=False)
class ReducingFamily:
    """Reducing operators V_I, V'_I for every cube of level <= max_depth.

    Arrays are per level: v[l] has shape (2^l,)*d + (n, n); kappa and method
    are (2^l,)*d. Method codes index METHOD_NAMES.
    """

    p: float
    d: int
    n: int
    level: int
    max_depth: int
    v: list
    v_dual: list
    kappa: list
    kappa_dual: list
    method: list
    method_dual: list

    def __post_init__(self):
        self._cache = {}

    @property
    def v_inv(self) -> list:
        if "v_inv" not in self._cache:
            self._cache["v_inv"] = [spd_power_stack(a, -1.0) for a in self.v]
        return self._cache["v_inv"]

    def max_kappa(self, depth: int | None = None) -> float:
        depth = self.max_depth if depth is None else min(depth, self.max_depth)
        vals = [self.kappa[l].max() for l in range(depth + 1)]
        vals += [self.kappa_dual[l].max() for l in range(depth + 1)]
        return float(max(vals))

    def pair_norms(self, level: int) -> np.ndarray:
        """||V_I V'_I|| for all cubes of one level."""
        return op_norm_stack(self.v[level] @ self.v_dual[level])

    def min_pair_norm(self) -> float:
        return float(min(self.pair_norms(l).min() for l in range(self.max_depth + 1)))

    def characteristic(self, depth: int | None = None) -> float:
        """sup over cubes of level <= depth (default scan_depth) of
        ||V_I V'_I||^p."""
        depth = scan_depth(self.level) if depth is None else depth
        if depth > self.max_depth:
            raise CoverageError(
                f"scan depth {depth} beyond family depth {self.max_depth}"
            )
        best = max(float(self.pair_norms(l).max()) for l in range(depth + 1))
        return best**self.p

    def swapped(self) -> ReducingFamily:
        """The family of W^{1-p'} at p'.

        (W^{1-p'})^{1/p'} = W^{-1/p}, so the direction norm of W^{1-p'} at p'
        is the dual norm rho'_I of W at p, and its dual norm is rho_I: the two
        sides trade places, with their kappas and methods.
        """
        return replace(
            self,
            p=conjugate_exponent(self.p),
            v=self.v_dual,
            v_dual=self.v,
            kappa=self.kappa_dual,
            kappa_dual=self.kappa,
            method=self.method_dual,
            method_dual=self.method,
        )


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
    the stacked averages of W and W^{-1}; otherwise the closed form fills the
    rows of both sides where W = s A, and one _fit_operators call the rest.
    The (2, cubes, n, n) result is cut into per-level arrays at the end.
    """
    q = conjugate_exponent(p)  # checks the exponent
    m_fit = fit_count(weight.n) if directions is None else int(directions)
    max_depth = weight.level if max_depth is None else int(max_depth)
    if not 0 <= max_depth <= weight.level:
        raise ParameterError(f"max_depth {max_depth} outside [0, {weight.level}]")
    d, n = weight.d, weight.n
    if p == 2.0:
        v = spd_power_stack(np.stack([
            _rows(weight.mean_pyramid_of(s)[: max_depth + 1], d) for s in (1.0, -1.0)
        ]), 0.5)
        kappa = np.ones(v.shape[:2])
        method = np.full(v.shape[:2], _M_P2, dtype=np.int8)
    else:
        prop = weight.proportionality_pyramid()[: max_depth + 1]
        flags = _rows([flag for flag, _ in prop], d)
        reps = _rows([rep for _, rep in prop], d)[flags]
        # W = s A: V = <s>^{1/p} A^{1/p}, V' = <s^{1-p'}>^{1/p'} A^{-1/p}
        s = weight.cells[..., 0, 0]
        v = np.empty((2, flags.size, n, n))
        v[:, flags] = [
            _rows(mean_pyramid(w, d)[: max_depth + 1], d)[flags, None, None] ** (1.0 / r)
            * spd_power_stack(reps, e)
            for w, r, e in ((s, p, 1.0 / p), (s ** (1.0 - q), q, -1.0 / p))
        ]
        kappa = np.ones((2, flags.size))
        todo = ~flags
        if todo.any():
            dirs_fit = quasi_uniform_directions(n, m_fit)
            extra = quasi_uniform_directions(n, m_fit * _CAL_FACTOR, offset=_CAL_OFFSET)
            dirs_all = np.concatenate([dirs_fit, extra], axis=0)
            rho = np.concatenate([_rho_rows(weight, p, dirs_all, dual, todo)
                                  for dual in (False, True)])
            v_fit, kappa_fit = _fit_operators(rho[:, :m_fit], rho, dirs_fit, dirs_all)
            v[:, todo] = v_fit.reshape(2, -1, n, n)
            kappa[:, todo] = kappa_fit.reshape(2, -1)
        method = np.stack([np.where(todo, _M_ELL, _M_SCALAR).astype(np.int8)] * 2)
    v, v_dual, kappa, kappa_dual, method, method_dual = (
        _levels(side, d) for rows in (v, kappa, method) for side in rows
    )
    return ReducingFamily(
        p=float(p), d=d, n=n, level=weight.level, max_depth=max_depth,
        v=v, v_dual=v_dual, kappa=kappa, kappa_dual=kappa_dual,
        method=method, method_dual=method_dual,
    )


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

    The family of W^{1-p'} at p' is not fitted: it is the family of W at p
    with its sides swapped (ReducingFamily.swapped), so the two
    characteristics agree up to rounding and no second family is built.
    log_bound = log(kappa_max^4) is the slack an independent refit of
    W^{1-p'} may show; acceptance criterion 5 makes that refit. Both
    characteristics scan to scan_depth(L).
    """
    q = conjugate_exponent(p)
    depth = scan_depth(weight.level)
    if family is None:
        family = build_reducing_family(weight, p, max_depth=depth)
    elif family.p != p:
        raise ParameterError(f"family exponent {family.p} != requested {p}")
    char = family.characteristic(depth)
    char_dual = family.swapped().characteristic(depth)
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
