"""Reducing-operator tests: exact routes against scipy oracles, ellipsoid
fits against the norm they must sandwich, and the duality identity."""

import decimal
import itertools
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from cubes import Cube, stack_levels
import haarweight
from haarweight import (
    CoverageError,
    EllipsoidFitError,
    MatrixWeight,
    ParameterError,
    WeightFamily,
    build_reducing_family,
    conjugate_exponent,
    duality_check,
    make_weight,
    op_norm_stack,
    quasi_uniform_directions,
    suite_weight_specs,
)
import haarweight.dyadic as dyadic
import haarweight.reducing as reducing
from haarweight.dyadic import _levels, mean_pyramid
from haarweight.multipliers import apply_symbols, t_operator
from haarweight.reducing import (
    _CAL_FACTOR,
    _CAL_OFFSET,
    METHOD_NAMES,
    _TOL,
    _extreme_singular_values,
    _fit_operators,
    _least_squares_start,
    _outer_products,
    _proportionality,
    _rho_rows,
    fit_count,
    scan_depth,
)


def _rho_block(wp_cells, p, dirs, d):
    """rho over one cube: wp_cells are the W^{1/p} cells inside it."""
    x = np.einsum("...ij,mj->...mi", wp_cells, dirs)
    g = np.linalg.norm(x, axis=-1) ** p
    return g.mean(axis=tuple(range(d))) ** (1.0 / p)


def direction_norm(weight, cube, p, e, dual=False):
    """rho_I(e), or the dual norm rho'_I(e) (W^{-1/p}, conjugate exponent),
    straight from the cells of one cube: the oracle for _rho_rows."""
    e = np.asarray(e, dtype=float).reshape(1, -1)
    if dual:
        cells = weight.power_cells(-1.0 / p)[cube.cell_slices(weight.level)]
        q = conjugate_exponent(p)
    else:
        cells = weight.power_cells(1.0 / p)[cube.cell_slices(weight.level)]
        q = p
    return float(_rho_block(cells, q, e, weight.d)[0])


def scalar_ap_characteristic(weight, e, p):
    """Scalar characteristic sup_I <w>_I <w^{1-p'}>_I^{p-1} of
    w(x) = |W(x)^{1/p} e|^p over the cubes the matrix characteristic scans:
    the n = 1 oracle for ReducingFamily.characteristic."""
    x = np.einsum("...ij,j->...i", weight.power_cells(1.0 / p), np.asarray(e, float))
    w = np.linalg.norm(x, axis=-1) ** p
    depth = scan_depth(weight.level)
    pyr_w = mean_pyramid(w, weight.d, depth)
    pyr_s = mean_pyramid(w ** (1.0 - conjugate_exponent(p)), weight.d, depth)
    return float((pyr_w * pyr_s ** (p - 1.0)).max())


def method_at(codes, cube):
    """The method name of one cube from a side's method-code rows."""
    return METHOD_NAMES[int(_levels(codes, cube.d)[cube.level][cube.index])]


def level_rows(d, depth, levels):
    """Row mask of a depth-`depth` family that selects the cubes of `levels`."""
    return stack_levels([np.full(((1 << l),) * d, l in levels) for l in range(depth + 1)], d)


def side_rows(w, p, dirs, todo, dual):
    """The rows of one side of _rho_rows: rho (dual False) or rho' (True)."""
    return np.split(_rho_rows(w, p, dirs, todo), 2)[dual]


def fit_directions(n):
    """The fit count and the fit and fit-plus-calibration directions of a family build."""
    m_fit = fit_count(n)
    dirs_fit = quasi_uniform_directions(n, m_fit)
    extra = quasi_uniform_directions(n, m_fit * _CAL_FACTOR, offset=_CAL_OFFSET)
    return m_fit, dirs_fit, np.concatenate([dirs_fit, extra], axis=0)


def two_cell_weight(a=1.0, b=4.0):
    cells = np.array([[[a]], [[b]]])
    return MatrixWeight(d=1, n=1, level=1, cells=cells)


def rotating_weight(level=4, seed=3):
    fam = WeightFamily("rotating", d=1, n=2, level=level,
                       params={"alpha": 0.6}, seed=seed)
    return make_weight(fam)


def frame_cascade(m, phi, k, level):
    """d=1, n=2: W = R(theta) diag(m, 1/m) R(theta)^T with theta = phi times
    the sum of the first k Rademacher functions r_j(x) = sign of the j-th
    binary digit of x (+1 for a 0 digit), on the cell centres of level
    `level`."""
    x = (np.arange(1 << level) + 0.5) / (1 << level)
    theta = phi * sum(
        np.where(np.floor(x * 2 ** (j + 1)) % 2 == 0, 1.0, -1.0) for j in range(k)
    )
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    cells = rot @ np.diag([m, 1.0 / m]) @ np.swapaxes(rot, -1, -2)
    return MatrixWeight(d=1, n=2, level=level, cells=cells)


def test_direction_norm_two_cell():
    w = two_cell_weight()
    root = Cube.root(1)
    # rho(e)^2 = mean(1, 4) = 2.5; dual uses W^{-1}: mean(1, 1/4) = 0.625
    assert direction_norm(w, root, 2.0, [1.0]) == pytest.approx(math.sqrt(2.5), rel=1e-14)
    assert direction_norm(w, root, 2.0, [1.0], dual=True) == pytest.approx(
        math.sqrt(0.625), rel=1e-14
    )
    # scalar weight: |w^{1/p} e|^p = w|e|^p, so rho = (mean w)^{1/p} for any p
    assert direction_norm(w, root, 4.0, [1.0]) == pytest.approx(
        2.5**0.25, rel=1e-14
    )


def test_p2_family_matches_sqrtm():
    w = rotating_weight(level=3)
    fam = build_reducing_family(w, 2.0)
    assert fam.max_depth == 3
    pyr = mean_pyramid(w.power_cells(1.0), w.d, 3)
    inv_pyr = mean_pyramid(w.power_cells(-1.0), w.d, 3)
    assert fam.operators.shape == (2, pyr.shape[0], 2, 2)
    for k in range(pyr.shape[0]):
        np.testing.assert_allclose(fam.operators[0, k], scipy.linalg.sqrtm(pyr[k]), atol=1e-12)
        np.testing.assert_allclose(fam.operators[1, k], scipy.linalg.sqrtm(inv_pyr[k]),
                                   atol=1e-12)
    for lvl in range(4):
        assert method_at(fam.methods[0], Cube(lvl, (0,))) == "exact-p2"
    assert fam.max_kappa() == 1.0


def test_ap_characteristic_two_cell_frozen():
    w = two_cell_weight()
    # level 0: ||V V'||^2 = 2.5 * 0.625 = 1.5625; level 1 cubes are constant
    char = build_reducing_family(w, 2.0).characteristic(1)
    assert char == pytest.approx(1.5625, rel=1e-13)


def test_scalar_route_matches_matrix_route():
    fam = WeightFamily("power", d=1, n=1, level=6, params={"alpha": 0.6}, seed=0)
    w = make_weight(fam)
    redfam = build_reducing_family(w, 3.0)
    assert method_at(redfam.methods[0], Cube(2, (1,))) == "exact-scalar"
    char = redfam.characteristic()
    schar = scalar_ap_characteristic(w, [1.0], 3.0)
    np.testing.assert_allclose(char, schar, rtol=1e-12)
    assert redfam.max_kappa() == 1.0


def test_identity_weight_fixed_point():
    fam = WeightFamily("constant", d=1, n=2, level=4, params={"matrix": np.eye(2)})
    w = make_weight(fam)
    for p in (2.0, 3.0, 1.5):
        redfam = build_reducing_family(w, p)
        assert redfam.operators.shape == (2, 31, 2, 2)  # both sides, levels 0..4
        np.testing.assert_array_equal(
            redfam.operators, np.broadcast_to(np.eye(2), redfam.operators.shape))
        assert redfam.characteristic(4) == 1.0
    assert method_at(redfam.methods[0], Cube(1, (0,))) == "exact-scalar"


def test_scalar_times_matrix_weight_is_exact_everywhere():
    # power weight |x - x0|^alpha I_3: W = s(x) A on every cube
    fam = WeightFamily("power", d=1, n=3, level=4, params={"alpha": 0.6}, seed=0)
    w = make_weight(fam)
    redfam = build_reducing_family(w, 3.0)
    assert (redfam.methods == METHOD_NAMES.index("exact-scalar")).all()
    assert redfam.max_kappa() == 1.0


def test_proportionality_pyramid_scaled_cell():
    cells = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
    cells[5] = 2.0 * np.eye(2)  # W = s(x) I still holds
    w = MatrixWeight(1, 2, 3, cells)
    flags, reps = _proportionality(w)
    assert flags.shape == (15,) and reps.shape == (15, 2, 2)  # levels 0..3
    assert flags.all()
    np.testing.assert_array_equal(reps, np.broadcast_to(np.eye(2), reps.shape))


def test_proportionality_pyramid_shape_change():
    cells = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
    cells[5] = np.diag([2.0, 1.0])
    w = MatrixWeight(1, 2, 3, cells)
    flags, reps = _proportionality(w)
    flag, rep = _levels(flags, 1), _levels(reps, 1)
    assert flag[1][0] and not flag[1][1]
    assert list(flag[2]) == [True, True, False, True]
    np.testing.assert_array_equal(rep[2][0], np.eye(2))
    assert not flag[0].any()
    assert flag[3].all()


def test_proportionality_pyramid_rotating_finest_only():
    w = make_weight(WeightFamily("rotating", 1, 2, 4, {"alpha": 0.6}, seed=3))
    flags, _ = _proportionality(w)
    levels = _levels(flags, 1)
    assert len(levels) == 5 and levels[4].all()
    assert not flags[:15].any()


def test_proportionality_pyramid_constant_family():
    m = [[2.0, 0.5], [0.5, 1.0]]
    w = make_weight(WeightFamily("constant", 1, 2, 3, {"matrix": m}))
    flags, reps = _proportionality(w)
    assert flags.all()
    np.testing.assert_array_equal(reps[0], np.asarray(m) / m[0][0])


def test_family_builds_leave_only_cell_powers_on_the_weight(monkeypatch):
    # the p = 2 cube averages and the p != 2 proportionality flags belong to
    # the build that reads them; the weight keeps its cells and their powers
    w = rotating_weight()
    asked = set()
    power_cells = MatrixWeight.power_cells

    def recording(self, s):
        asked.add(round(float(s), 12))
        return power_cells(self, s)

    monkeypatch.setattr(MatrixWeight, "power_cells", recording)
    build_reducing_family(w, 2.0)
    build_reducing_family(w, 3.0)
    (memo,) = (v for k, v in vars(w).items() if k not in ("d", "n", "level", "cells", "meta"))
    assert set(memo) == asked - {1.0}
    assert {-1.0, round(1.0 / 3.0, 12), round(-1.0 / 3.0, 12)} <= asked
    assert all(cells.shape == w.cells.shape for cells in memo.values())


def test_closed_form_matches_fit_on_power_weight():
    fam = WeightFamily("power", d=1, n=2, level=4, params={"alpha": 0.6}, seed=0)
    w = make_weight(fam)
    p = 3.0
    redfam = build_reducing_family(w, p)
    m_fit, dirs_fit, dirs_all = fit_directions(2)
    for dual, closed in enumerate(redfam.operators):
        for lvl in (0, 2, 4):
            rho = side_rows(w, p, dirs_all, level_rows(1, lvl, [lvl]), dual)
            v_fit, _ = _fit_operators(rho[:, :m_fit], dirs_fit,
                                      [(dirs_all[m_fit:], rho[:, m_fit:])])
            np.testing.assert_allclose(
                v_fit, _levels(closed, 1)[lvl], rtol=0, atol=1e-10
            )


def test_ellipsoid_sandwich_fresh_directions():
    w = rotating_weight(level=4)
    p = 3.0
    fam = build_reducing_family(w, p)
    assert method_at(fam.methods[0], Cube.root(1)) == "ellipsoid"
    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((64, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for lvl in (0, 2, 4):
        for idx in [(0,), ((1 << lvl) - 1,)]:
            cube = Cube(lvl, idx)
            v = _levels(fam.operators[0], 1)[lvl][idx]
            for e in dirs:
                rho = direction_norm(w, cube, p, e)
                ve = float(np.linalg.norm(v @ e))
                assert rho <= ve * (1.0 + 1e-3)
                assert ve <= math.sqrt(2.0) * rho * (1.0 + 1e-3)


def test_kappa_within_john_bound():
    w = rotating_weight(level=4)
    fam = build_reducing_family(w, 3.0)
    assert fam.max_kappa() <= math.sqrt(2.0) * (1.0 + 1e-3)


def test_dual_weight_family_is_the_primal_swapped():
    # (W^{1-p'})^{1/p'} = W^{-1/p}: the family of W^{1-p'} at p' holds the
    # family of W at p with its sides traded, kappas and methods too
    w = rotating_weight(level=4)
    p, q = 3.0, conjugate_exponent(3.0)
    fam = build_reducing_family(w, p)
    dual = MatrixWeight(w.d, w.n, w.level, w.power_cells(1.0 - q))
    fresh = build_reducing_family(dual, q)
    assert fresh.p == q
    for mine, theirs in ((fam.operators, fresh.operators), (fam.kappas, fresh.kappas)):
        np.testing.assert_allclose(mine, theirs[::-1], rtol=1e-10, atol=1e-10)
    np.testing.assert_array_equal(fam.methods, fresh.methods[::-1])
    assert fresh.methods[0, 0] == METHOD_NAMES.index("ellipsoid")


def test_duality_identity(monkeypatch):
    w = rotating_weight(level=4)
    rep2 = duality_check(w, 2.0)
    assert rep2.passed and abs(rep2.log_gap) <= 1e-12
    rep3 = duality_check(w, 3.0)
    assert rep3.passed
    assert abs(rep3.log_gap) <= 1e-12
    assert rep3.p_dual == pytest.approx(1.5)
    # the dual side comes from the given family: no family is built. The
    # family has duality_check's depth: a fitted row matches to rounding only
    # within a batch of the same rows
    fam = build_reducing_family(w, 3.0, max_depth=scan_depth(w.level))
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return build_reducing_family(*args, **kwargs)

    monkeypatch.setattr(reducing, "build_reducing_family", counting)
    rep = duality_check(w, 3.0, family=fam)
    assert builds == []
    assert rep.log_gap == rep3.log_gap and rep.log_bound == rep3.log_bound
    # the family belongs to its own weight and exponent
    with pytest.raises(ParameterError, match="not this weight's family"):
        duality_check(rotating_weight(level=4), 3.0, family=fam)
    with pytest.raises(ParameterError, match="not this weight's family"):
        duality_check(w, 2.0, family=fam)


def test_pair_norms_at_least_one():
    w = rotating_weight(level=4)
    for p in (2.0, 3.0):
        fam = build_reducing_family(w, p)
        assert fam.min_pair_norm() >= 1.0 - 1e-8


def fit_inputs(n, level, m=60):
    """rho of a p=3 weight on the cubes of one level, and the m directions;
    level None stacks levels 0-2 of both sides, as a family's one fit does."""
    if n == 2:
        w = rotating_weight(level=3)
    else:
        w = make_weight(WeightFamily("logbrownian", d=1, n=3, level=3,
                                     params={"sigma": 0.4}, seed=5))
    dirs = quasi_uniform_directions(n, m)
    if level is None:
        todo = level_rows(1, 2, range(3))
        return _rho_rows(w, 3.0, dirs, todo), dirs
    return side_rows(w, 3.0, dirs, level_rows(1, level, [level]), False), dirs


def john_weight_sum(a_b, rho_b, dirs):
    """The least sum c over c >= 0 with A^{-1} = sum_m c_m x_m x_m^T, for the
    points x_m = dirs_m / rho_m, which must lie strictly inside A."""
    n = a_b.shape[0]
    # x_m^T A x_m <= 1, recomputed from A
    x = dirs / rho_b[:, None]
    assert np.einsum("mi,ij,mj->m", x, a_b, x).max() < 1.0
    # smallest sum c >= 0 with A^{-1} = sum_m c_m x_m x_m^T
    outer = np.einsum("mi,mj->ijm", x, x).reshape(n * n, -1)
    lp = scipy.optimize.linprog(
        np.ones(x.shape[0]), A_eq=outer, b_eq=np.linalg.inv(a_b).ravel(),
        bounds=(0, None), method="highs",
    )
    assert lp.status == 0
    np.testing.assert_allclose(outer @ lp.x, np.linalg.inv(a_b).ravel(),
                               rtol=0, atol=1e-8)
    return lp.fun


def assert_john_certificate(a_b, rho_b, dirs):
    """A is strictly feasible for the points x_m = dirs_m / rho_m and
    A^{-1} = sum_m c_m x_m x_m^T with c >= 0 and sum c <= n (1 + _TOL)."""
    assert john_weight_sum(a_b, rho_b, dirs) <= a_b.shape[0] * (1.0 + _TOL)


@pytest.mark.parametrize("n, level", [(2, 0), (2, 2), (3, 0), (3, 2), (2, None), (3, None)])
def test_mvee_batch_feasible_with_john_certificate(n, level):
    rho, dirs = fit_inputs(n, level)
    a = reducing._mvee_batch(rho, dirs)
    assert a.shape == (rho.shape[0], n, n)
    for a_b, rho_b in zip(a, rho):
        assert_john_certificate(a_b, rho_b, dirs)


def duality_gap(a_b, rho_b, dirs):
    """-log det A minus the Lagrange dual value of the fit for the points
    x_m = dirs_m / rho_m, formed from A alone. The dual point is the least
    sum c of john_weight_sum: sum_m c_m x_m x_m^T = A^{-1}, so its dual value
    log det A^{-1} + n log(n / sum c) leaves the gap n log(sum c / n). Any
    strictly feasible A has such a point; a dual formed from the slacks
    alone, u ~ 1 / slack, certifies only points on the log barrier's
    central path."""
    n = a_b.shape[0]
    return n * math.log(john_weight_sum(a_b, rho_b, dirs) / n)


@pytest.mark.parametrize("n", [2, 3])
def test_mvee_batch_certifies_its_duality_gap(n):
    # every returned A is within n _TOL of the optimal -log det A, read from
    # A, rho and the directions alone; the same A scaled by 0.99 are not
    rho, dirs = fit_inputs(n, None)
    a = reducing._mvee_batch(rho, dirs)
    gaps = [duality_gap(a_b, rho_b, dirs) for a_b, rho_b in zip(a, rho)]
    assert len(gaps) == 14 and max(gaps) <= n * _TOL
    shrunk = [duality_gap(0.99 * a_b, rho_b, dirs) for a_b, rho_b in zip(a, rho)]
    assert min(shrunk) > n * _TOL


def assert_strictly_feasible_start(a, rho, dirs):
    """Each start A is SPD with every point x_m = dirs_m / rho_m strictly inside."""
    n = dirs.shape[1]
    a = a.reshape(-1, n, n)
    assert (np.linalg.eigvalsh(a)[:, 0] > 0.0).all()
    x = dirs / rho[:, :, None]
    assert np.einsum("bmi,bij,bmj->bm", x, a, x).max() < 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_least_squares_start_is_strictly_feasible(n):
    rho, dirs = fit_inputs(n, None)
    a = _least_squares_start(rho**-2.0, _outer_products(dirs))
    assert a.shape == (14, n * n)
    assert_strictly_feasible_start(a, rho, dirs)


def test_indefinite_least_squares_fit_starts_isotropic():
    # the box norm max_i s_i |e_i|, s = (1, 10, 100): its least-squares
    # quadric has eigenvalue -0.37, so its row starts from the isotropic
    # ellipse through its nearest point, and the fit still ends certified
    dirs = quasi_uniform_directions(3, 60)
    rho = np.abs(dirs * [1.0, 10.0, 100.0]).max(axis=1)[None]
    a = _least_squares_start(rho**-2.0, _outer_products(dirs))
    assert_strictly_feasible_start(a, rho, dirs)
    np.testing.assert_allclose(a.reshape(3, 3), a[0, 0] * np.eye(3), rtol=0, atol=0)
    (fit,) = reducing._mvee_batch(rho, dirs)
    assert duality_gap(fit, rho[0], dirs) <= 3 * _TOL


def design_dual_value(x, tol=1e-9):
    """A lower bound on the optimal -log det A over x_m^T A x_m <= 1: the
    dual value log det(n M) of the design u >= 0, sum u = 1, M = sum_m u_m
    x_m x_m^T, that Todd and Yildirim's Frank-Wolfe steps with away steps
    (Discrete Appl. Math. 155 (2007)) reach once max_m x_m^T M^{-1} x_m <= n
    (1 + tol), which puts it within n log(1 + tol) of that optimum."""
    m, n = x.shape
    u = np.full(m, 1.0 / m)
    for _ in range(100_000):
        moment = (x.T * u) @ x
        g = np.einsum("mi,ij,mj->m", x, np.linalg.inv(moment), x)
        j = int(np.argmax(g))
        if g[j] <= n * (1.0 + tol):
            return np.linalg.slogdet(n * moment)[1]
        support = np.flatnonzero(u > 0.0)
        k = support[np.argmin(g[support])]
        if g[j] - n >= n - g[k]:  # toward x_j
            lam = (g[j] / n - 1.0) / (g[j] - 1.0)
            u *= 1.0 - lam
            u[j] += lam
        else:  # away from x_k, at most until u_k = 0
            lam = u[k] / (1.0 - u[k])
            if g[k] > 1.0:
                lam = min(lam, (1.0 - g[k] / n) / (g[k] - 1.0))
            u *= 1.0 + lam
            u[k] = max(u[k] - lam, 0.0)
    raise AssertionError("design iteration did not converge")


def euler_rotation(a, b, c):
    """The 3-D rotation R_z(a) R_y(b) R_x(c)."""
    ca, sa, cb, sb, cc, sc = (f(t) for t in (a, b, c) for f in (math.cos, math.sin))
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


def test_eccentric_3d_norms_fit_certified():
    # rotated l1 and box norms of R e with axis scales (1, sqrt(k), k), k =
    # 300 and 500, in one batch. A log-barrier path per row raised on two box
    # norms (singular Newton systems). Mehrotra steps with a centring target
    # sigma u^T s / m that may fall below sigma G / m, and a primal step
    # 0.95 of the way to the SPD boundary, raised on five: three singular
    # Newton systems (box norms) and two l1 norms still uncertified after 80
    # steps, cycling near the SPD boundary. The fit's gap is checked against
    # an independent dual. On these norms the John LP of john_weight_sum
    # reads n log(sum c / n) = 1.6e-5 and 2.5e-5 on two box norms whose
    # -log det A is within 1.3e-7 of the optimum, and below zero, which no
    # feasible A allows, on two others
    dirs = quasi_uniform_directions(3, 500)
    rho = []
    for k in (300.0, 500.0):
        for angles in ((0.3, 0.5, 0.7), (0.6, 0.2, 1.1), (1.0, 0.4, 0.3)):
            y = np.abs(dirs @ euler_rotation(*angles) * [1.0, math.sqrt(k), k])
            rho += [y.sum(axis=1), y.max(axis=1)]
    rho = np.array(rho)
    a = reducing._mvee_batch(rho, dirs)
    for a_b, rho_b in zip(a, rho):
        x = dirs / rho_b[:, None]
        assert np.einsum("mi,ij,mj->m", x, a_b, x).max() < 1.0
        assert -np.linalg.slogdet(a_b)[1] - design_dual_value(x) <= 3 * _TOL


def test_mvee_batch_logs_one_debug_record(monkeypatch, caplog):
    rho, dirs = fit_inputs(2, 2)
    monkeypatch.setattr(reducing, "_TOL", 1e-4)
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        reducing._mvee_batch(rho, dirs)
    records = [r for r in caplog.records if r.name == "haarweight.reducing"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    rows, n, m, steps, gap, seconds, row_steps = records[0].args
    assert (rows, n, m) == (4, 2, 60)
    assert steps >= 1
    assert gap <= n * 1e-4
    assert steps <= row_steps <= rows * steps
    assert seconds > 0.0
    assert "newton_steps=" in records[0].getMessage()
    assert "seconds=" in records[0].getMessage()
    assert "row_steps=" in records[0].getMessage()


def _fit_record(caplog, rho, dirs, full=False):
    """The DEBUG record args of one _mvee_batch call at the default _TOL:
    rows, n, m, newton_steps, final_gap, and with full=True also seconds and
    row_steps."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        reducing._mvee_batch(rho, dirs)
    (record,) = [r for r in caplog.records if r.name == "haarweight.reducing"]
    return record.args if full else record.args[:5]


def test_centred_rows_leave_the_stage(caplog):
    # a circle (rho = 1) centres in fewer steps than a rotating-weight cube;
    # in one batch it stops stepping when its own fit is centred
    rho, dirs = fit_inputs(2, 0)
    easy = np.ones_like(rho)
    both = np.concatenate([easy, rho])
    rows, _, _, steps, _, _, row_steps = _fit_record(caplog, both, dirs, full=True)
    assert row_steps < rows * steps
    # each row takes the steps of its solo fit
    assert row_steps == _fit_record(caplog, easy, dirs)[3] + _fit_record(caplog, rho, dirs)[3]
    a_both = reducing._mvee_batch(both, dirs)
    a_easy = reducing._mvee_batch(easy, dirs)
    scale = np.abs(a_easy[0]).max()  # relative to the matrix: off-diagonals are ~1e-17
    np.testing.assert_allclose(a_both[0], a_easy[0], rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("n, level", [(2, 0), (2, 2), (3, 0), (3, 2)])
def test_mvee_batch_centres_every_stage(monkeypatch, caplog, n, level):
    rho, dirs = fit_inputs(n, level)
    _, _, _, steps, gap = _fit_record(caplog, rho, dirs)
    assert gap <= n * _TOL
    # negative control: one step fewer than the fit needs must not pass, and
    # the fit logs its one record, with the failing residual, before it raises
    caplog.clear()
    monkeypatch.setattr(reducing, "_MAX_STEPS", steps - 1)
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        with pytest.raises(EllipsoidFitError) as raised:
            reducing._mvee_batch(rho, dirs)
    (record,) = [r for r in caplog.records if r.name == "haarweight.reducing"]
    assert record.args[3] == steps - 1
    assert record.args[4] == raised.value.residual > n * _TOL


def test_step_cap_holds_per_row_block(monkeypatch, caplog):
    # the cap counts each row's steps, so cutting a fit into row blocks moves
    # no outcome: at a cap of the most steps any one block takes, the cut fit
    # certifies, although its blocks' steps sum past that cap
    rho, dirs = fit_inputs(2, None)
    whole = reducing._mvee_batch(rho, dirs)
    rows, m = rho.shape
    monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", 4 * m * 5)
    blocks = dyadic._spans(rows, 4 * m)
    assert len(blocks) >= 3
    most = max(_fit_record(caplog, rho[b], dirs)[3] for b in blocks)
    assert _fit_record(caplog, rho, dirs)[3] > most
    monkeypatch.setattr(reducing, "_MAX_STEPS", most)
    np.testing.assert_allclose(reducing._mvee_batch(rho, dirs), whole, rtol=0,
                               atol=1e-12 * np.abs(whole).max())


@pytest.mark.parametrize("n", [2, 3])
def test_mvee_batch_step_budget(caplog, n):
    # measured 6 (n = 2) and 7 (n = 3) Newton steps; 32 leaves room for
    # rounding to shift a stop by a few steps. A log-barrier path per row
    # from the same start took 24 and 23 (counting each row's last gap check
    # as a step); from one isotropic ellipse and t = m, 35 and 37
    rho, dirs = fit_inputs(n, 2)
    steps = _fit_record(caplog, rho, dirs)[3]
    assert steps <= 32


def record_fits(monkeypatch):
    """A list that receives (rho, dirs, A) of every _mvee_batch call from now on."""
    fits = []
    mvee = reducing._mvee_batch

    def recording(rho, dirs, *args):
        a = mvee(rho, dirs, *args)
        fits.append((rho, dirs, a))
        return a

    monkeypatch.setattr(reducing, "_mvee_batch", recording)
    return fits


def test_rotating_cube_fit_below_p_two(monkeypatch, caplog):
    # with every stage started cold at the last centre, the t ~ 1.6e5 stage
    # hit the 80-step cap at decrement 2.19 and the build raised
    # EllipsoidFitError
    w = make_weight(WeightFamily("rotating", 2, 2, 4, params={"alpha": 0.9}))
    fits = record_fits(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        build_reducing_family(w, 1.5)
    (record,) = [r for r in caplog.records if r.name == "haarweight.reducing"]
    assert record.args[4] <= 2 * _TOL  # the final gap
    ((rho, dirs, a),) = fits
    # the four most eccentric direction norms
    for row in np.argsort(rho.max(axis=1) / rho.min(axis=1))[-4:]:
        assert_john_certificate(a[row], rho[row], dirs)


@pytest.mark.parametrize("p, m, phi, k", [
    (3.0, 8.0, 0.6, 8), (3.0, 12.0, 0.6, 8), (4.0, 16.0, 0.6, 8), (1.5, 4.0, 1.0, 8),
])
def test_frame_cascade_fit_ends_certified(monkeypatch, p, m, phi, k):
    # a log-barrier path per row, started at t_0 = 100 m / G_0 for the gap G_0
    # of its least-squares start, left 2-12 rows of each of these builds
    # uncentred after 80 steps at t_0 (decrements 0.45-9.35), and the build
    # raised EllipsoidFitError. The norms are mild (max/min rho <= 1.39 on the
    # first); a start close in -log det was far from that path's centre
    fits = record_fits(monkeypatch)
    build_reducing_family(frame_cascade(m, phi, k, 10), p)
    ((rho, dirs, a),) = fits
    # the ten most eccentric direction norms
    for row in np.argsort(rho.max(axis=1) / rho.min(axis=1))[-10:]:
        assert_john_certificate(a[row], rho[row], dirs)


@pytest.mark.slow
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_frame_cascade_grid_fits(p):
    # the frame-cascade grid behind the fit's start and step rules: 72 builds
    # per exponent, none of which may raise EllipsoidFitError
    for m, phi, k in itertools.product((2.0, 4.0, 8.0, 12.0, 16.0, 32.0),
                                       (0.3, 0.6, 0.785, 1.0), (4, 8, 10)):
        build_reducing_family(frame_cascade(m, phi, k, 10), p)


def _family_fit_records(caplog, weight, p):
    """The DEBUG record args of every _mvee_batch call of one family build:
    rows, n, m, newton_steps, final_gap, seconds, row_steps."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        build_reducing_family(weight, p)
    return [r.args for r in caplog.records if r.name == "haarweight.reducing"]


@pytest.mark.parametrize("alpha", [0.9, 0.95])
def test_rotating_fit_below_p_two_ends_certified(caplog, alpha):
    # a last stage that stopped on the Newton decrement ended the p = 1.25
    # fits at its 80-step cap (decrements 8.8e-5 and 8.2e-5), passed by a
    # 1e-4 bound. From the least-squares start, one t_0 = t_final / 100 for
    # the whole batch raises EllipsoidFitError at p = 1.25 and 1.5 for both
    # alphas
    w = make_weight(WeightFamily("rotating", 1, 2, 7, params={"alpha": alpha}))
    for p in (1.25, 1.5, 4.0, 6.0):
        ((*_, gap, _, _),) = _family_fit_records(caplog, w, p)
        assert gap <= 2e-6


def test_suite_p3_fits_end_certified(caplog):
    # the genuinely matrix weights of the benchmarked suite: every fit ends
    # certified within n 1e-6. Measured 2,783 row-steps over the three from
    # the least-squares start, and 5,210 with every row started from the
    # isotropic ellipse through its nearest point (_least_squares_start)
    specs = {s.name: s for s in suite_weight_specs()}
    row_steps = 0
    for name in ("rot-a06", "logb3-s04", "rot2d-a05"):
        records = _family_fit_records(caplog, specs[name].realize(), 3.0)
        assert records
        for _, n, _, _, gap, _, steps in records:
            assert gap <= n * 1e-6
            row_steps += steps
    assert row_steps <= 11_000


@pytest.mark.slow
@pytest.mark.parametrize("d, level", [(1, 7), (2, 4)])
def test_rotating_fit_sweep_ends_certified(caplog, d, level):
    # the robustness sweep behind the fit's start and barrier schedule: 25
    # rotating fits per grid, each returning with its gap within n _TOL
    for alpha in (0.3, 0.6, 0.8, 0.9, 0.95):
        w = make_weight(WeightFamily("rotating", d, 2, level, params={"alpha": alpha}))
        for p in (1.25, 1.5, 3.0, 4.0, 6.0):
            records = _family_fit_records(caplog, w, p)
            assert records
            for _, n, _, _, gap, *_ in records:
                assert gap <= n * _TOL


def test_one_fit_per_family_matches_per_level_fits(monkeypatch):
    w = rotating_weight(level=4)
    p = 3.0
    calls = []
    mvee = reducing._mvee_batch

    def counting(rho, *args):
        calls.append(rho.shape[0])
        return mvee(rho, *args)

    monkeypatch.setattr(reducing, "_mvee_batch", counting)
    fam = build_reducing_family(w, p)
    # every cube of levels 0-3 on both sides; a level-4 cube is one cell, W = s A
    assert calls == [2 * (2**4 - 1)]
    assert (_levels(fam.methods[0], 1)[4] == METHOD_NAMES.index("exact-scalar")).all()
    m_fit, dirs_fit, dirs_all = fit_directions(2)
    for dual, (vs, kappas) in enumerate(zip(fam.operators, fam.kappas)):
        for lvl in range(4):
            rho = side_rows(w, p, dirs_all, level_rows(1, lvl, [lvl]), dual)
            v, kappa = _fit_operators(rho[:, :m_fit], dirs_fit,
                                      [(dirs_all[m_fit:], rho[:, m_fit:])])
            np.testing.assert_allclose(_levels(vs, 1)[lvl], v, rtol=1e-12, atol=0)
            np.testing.assert_allclose(_levels(kappas, 1)[lvl], kappa, rtol=1e-12, atol=0)
    assert len(calls) == 1 + 2 * 4


def test_rho_rows_matches_direction_norm():
    w = rotating_weight(level=4)
    p = 3.0
    dirs = quasi_uniform_directions(2, 12)
    todo = level_rows(1, 4, range(5))
    todo[[2, 9]] = False  # level 1 index 1, level 3 index 2
    for dual in (False, True):
        rho = side_rows(w, p, dirs, todo, dual)
        assert rho.shape == (29, 12)
        full = np.zeros((31, 12))
        full[todo] = rho
        pyr = _levels(full, 1)
        for lvl in (0, 2, 4):
            for idx in [(0,), ((1 << lvl) - 1,)]:
                cube = Cube(lvl, idx)
                want = [direction_norm(w, cube, p, e, dual=dual) for e in dirs]
                np.testing.assert_allclose(pyr[lvl][idx], want, rtol=1e-12)


def test_rho_blocks_match_one_block(monkeypatch):
    # the direction blocks of _rho_blocks cover dirs in order, and each block
    # is within its budget of cells + rows entries per direction
    w = rotating_weight(level=4)
    dirs = quasi_uniform_directions(2, 40)
    todo = level_rows(1, 3, range(4))
    whole = _rho_rows(w, 3.0, dirs, todo)
    monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", 16 * (16 + 2 * 15))
    blocks = list(reducing._rho_blocks(w, 3.0, dirs, todo))
    assert [len(part) for part, _ in blocks] == [13, 13, 14]
    np.testing.assert_array_equal(np.concatenate([part for part, _ in blocks]), dirs)
    np.testing.assert_allclose(np.concatenate([rho for _, rho in blocks], axis=1), whole,
                               rtol=1e-14, atol=0)


def test_family_build_memory_is_bounded():
    # the fit sees rho on its 500 fit directions, and the 2,000 calibration
    # directions stream in blocks: traced peak 16.2 MiB, most of it the
    # ellipsoid fit. With rho held on all 2,500 directions at once, and its
    # integrand and pyramid over every cell, the same build peaked at 50.7 MiB
    w = make_weight(WeightFamily("rotating", 2, 2, 5, params={"alpha": 0.5}, seed=1))
    tracemalloc.start()
    try:
        build_reducing_family(w, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_family_build_fit_memory_is_blocked():
    # the fit takes its 682 rows in blocks of the working-set budget: traced
    # peak 5.6 MiB, of which 1.1 MiB above what the fit starts with. With all
    # rows in one batch the same build peaked at 16.3 MiB, 13.4 MiB of it in
    # the fit
    w = make_weight(WeightFamily("rotating", 2, 2, 5, params={"alpha": 0.5}, seed=1))
    tracemalloc.start()
    try:
        build_reducing_family(w, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_rho_rows_memory_is_the_result_and_one_block():
    # each direction block is written straight into the result, and each
    # side's pyramid is freed before the next side's integrand: traced peak
    # 1.54x the 2.6 MiB result (682 rows x 500 directions, 7 blocks). Joining
    # a list of blocks with np.concatenate held both: 2.03x
    w = make_weight(WeightFamily("rotating", 2, 2, 5, params={"alpha": 0.5}, seed=1))
    dirs = quasi_uniform_directions(2, fit_count(2))
    tracemalloc.start()
    try:
        rho = _rho_rows(w, 3.0, dirs, level_rows(2, 5, range(5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.shape == (682, 500)
    assert peak <= 1.6 * rho.nbytes


def test_singular_newton_system_raises_ellipsoid_fit_error(caplog):
    # a rotated l1 norm with axis ratio 1e5: the fit's Newton system goes
    # singular in floats, which used to escape as numpy's LinAlgError. At
    # axis ratio 1e3 the primal-dual fit ends certified
    dirs = quasi_uniform_directions(2, 500)
    c, s = math.cos(0.3), math.sin(0.3)
    rho = np.abs(dirs @ np.array([[c, s], [-s, c]]) * [1.0, 1e5]).sum(axis=1)[None]
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        with pytest.raises(EllipsoidFitError, match="singular") as raised:
            reducing._mvee_batch(rho, dirs)
    assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)
    assert 0.0 < raised.value.residual < math.inf
    (record,) = [r for r in caplog.records if r.name == "haarweight.reducing"]
    assert record.args[4] == raised.value.residual


def test_singular_least_squares_start_raises_ellipsoid_fit_error():
    # points on the two axes only: the start's normal matrix has no
    # off-diagonal coordinate, so its solve is singular before any step
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
    with pytest.raises(EllipsoidFitError, match="least-squares start") as raised:
        reducing._mvee_batch(np.ones((1, 6)), dirs)
    assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)
    assert raised.value.residual == math.inf


_FAMILY_ARRAYS = """
import sys
import numpy as np
from haarweight import WeightFamily, build_reducing_family, make_weight
from haarweight.dyadic import _levels
arrays = {}
for fam in (WeightFamily("rotating", 1, 2, 7, {"alpha": 0.6}, 3),
            WeightFamily("logbrownian", 1, 3, 6, {"sigma": 0.4}, 5)):
    family = build_reducing_family(make_weight(fam), 3.0)
    sides = {"v": family.operators[0], "v_dual": family.operators[1],
             "kappa": family.kappas[0]}
    for side, rows in sides.items():
        for lvl, a in enumerate(_levels(rows, 1)):
            arrays[f"{fam.family}/{side}/{lvl}"] = a
np.savez(sys.argv[1], **arrays)
"""


def test_p3_family_does_not_depend_on_blas_thread_count(tmp_path):
    """The same p=3 families built with one and with two OpenBLAS threads
    are byte-identical: every product of the fit runs as GEMMs small enough
    for OpenBLAS to keep on one thread. On a one-core machine both children
    run serially and the test cannot tell."""
    src = str(Path(haarweight.__file__).resolve().parent.parent)
    path = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", _FAMILY_ARRAYS, str(out)],
                       env=env, check=True, timeout=120)
        with np.load(out) as arrays:
            runs.append({k: arrays[k] for k in arrays.files})
    one, two = runs
    assert one.keys() == two.keys()
    assert len(one) == 3 * (8 + 7)  # three arrays on levels 0-7 and 0-6
    moved = [k for k in one if one[k].tobytes() != two[k].tobytes()]
    assert moved == []


def test_fit_failure_raises(monkeypatch):
    w = rotating_weight(level=2)
    monkeypatch.setattr(reducing, "_MAX_STEPS", 3)
    with pytest.raises(EllipsoidFitError):
        build_reducing_family(w, 3.0)


def test_coverage_error_beyond_depth():
    w = rotating_weight(level=3)
    fam = build_reducing_family(w, 3.0, max_depth=1)
    assert fam.characteristic() == fam.characteristic(1)  # scan depth L - 2 = 1
    with pytest.raises(CoverageError):
        fam.characteristic(2)
    deep = build_reducing_family(rotating_weight(level=5), 2.0, max_depth=2)
    with pytest.raises(CoverageError):
        deep.characteristic()  # scan depth 3


@pytest.mark.parametrize("d, level", [(1, 4), (2, 3)])
def test_shallow_family_keeps_the_exact_rows(d, level):
    # W = s(x) A on the first half (d=1) or quadrant (d=2) of a rotating
    # weight: exact-scalar and ellipsoid cubes side by side on one level
    w = make_weight(WeightFamily("rotating", d=d, n=2, level=level,
                                 params={"alpha": 0.6}, seed=3))
    cells = np.array(w.cells)
    half = (slice(0, 1 << (level - 1)),) * d
    s = 1.0 + np.arange(2 ** (d * (level - 1))).reshape(cells[half].shape[:-2])
    cells[half] = s[..., None, None] * np.array([[2.0, 0.5], [0.5, 1.0]])
    w = MatrixWeight(d, 2, level, cells)
    depth = level - 2
    ell = METHOD_NAMES.index("ellipsoid")
    for p in (2.0, 3.0):
        full = build_reducing_family(w, p)
        shallow = build_reducing_family(w, p, max_depth=depth)
        rows = sum(1 << (l * d) for l in range(depth + 1))
        assert shallow.operators.shape[1] == rows
        codes = shallow.methods[0]
        assert (codes == ell).any() == (p != 2.0) and not (codes == ell).all()
        np.testing.assert_array_equal(shallow.methods, full.methods[:, :rows])
        exact = full.methods[0, :rows] != ell
        for mine, theirs in ((shallow.operators, full.operators),
                             (shallow.kappas, full.kappas)):
            np.testing.assert_array_equal(mine[:, exact], theirs[:, :rows][:, exact])


@pytest.mark.parametrize("d, level", [(1, 4), (2, 3)])
def test_family_levels_are_views_of_its_rows(d, level):
    # a family stores each side once on the level-row axis, and a shallow
    # family holds exactly the rows of its levels; _levels cuts them into
    # per-level views, and the per-level method views are views of the
    # method rows of their side
    w = make_weight(WeightFamily("rotating", d=d, n=2, level=level,
                                 params={"alpha": 0.6}, seed=3))
    for depth in (level, level - 2):
        fam = build_reducing_family(w, 3.0, max_depth=depth)
        cubes = sum(1 << (l * d) for l in range(depth + 1))
        assert fam.operators.shape == (2, cubes, 2, 2)
        assert fam.kappas.shape == fam.methods.shape == (2, cubes)
        assert fam.inverses.shape == (cubes, 2, 2)
        levels = _levels(fam.operators[0], d)
        assert len(levels) == len(fam.method) == len(fam.method_dual) == depth + 1
        for l in range(depth + 1):
            assert levels[l].shape == ((1 << l),) * d + (2, 2)
            assert np.shares_memory(levels[l], fam.operators[0])
            for side, view in enumerate((fam.method[l], fam.method_dual[l])):
                assert view.shape == ((1 << l),) * d
                assert np.shares_memory(view, fam.methods[side])
                assert not np.shares_memory(view, fam.methods[1 - side])
    # the depth level - 2 family stops short of the coefficients' last
    # detail level, level - 1
    f = dyadic.HaarCoefficients.zeros(d, 2, level)
    need, have = (sum(1 << (l * d) for l in range(k)) for k in (level, level - 1))
    with pytest.raises(CoverageError,
                       match=f"to level {level - 1}, {need} rows; the family has {have}$"):
        apply_symbols(fam.inverses, f)
    with pytest.raises(CoverageError):
        t_operator(fam, f)


@pytest.mark.parametrize("d", [1, 2])
def test_rows_split_round_trip(d):
    rng = np.random.default_rng(d)
    pyr = [rng.standard_normal(((1 << l),) * d + (2, 3)) for l in range(4)]
    rows = stack_levels(pyr, d)
    assert rows.shape == (sum(1 << (l * d) for l in range(4)), 2, 3)
    # level by level, each level in index order
    np.testing.assert_array_equal(rows[1 : 1 + (1 << d)], pyr[1].reshape(-1, 2, 3))
    back = _levels(rows, d)
    assert [a.shape for a in back] == [a.shape for a in pyr]
    for got, want in zip(back, pyr):
        np.testing.assert_array_equal(got, want)
    flags = [a[..., 0, 0] > 0.0 for a in pyr]
    for got, want in zip(_levels(stack_levels(flags, d), d), flags):
        np.testing.assert_array_equal(got, want)


def _singular_values_50_digits(m):
    """(sigma_max, sigma_min) of a 2x2 float matrix in 50-digit decimals:
    sigma_max^2 + sigma_min^2 = |M|_F^2 and sigma_max sigma_min = |det M|."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b, c, d = (decimal.Decimal(float(x)) for x in m.ravel())
        frob, det = a * a + b * b + c * c + d * d, abs(a * d - b * c)
        big = ((frob + (frob * frob - 4 * det * det).sqrt()) / 2).sqrt()
        return float(big), float(det / big)


def test_op_norm_stack_oracle():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((7, 3, 3))
    got = op_norm_stack(mats)
    want = [np.linalg.norm(m, 2) for m in mats]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    one = rng.standard_normal((4, 1, 1))
    np.testing.assert_allclose(op_norm_stack(one), np.abs(one[:, 0, 0]))
    for stack in (mats, one):
        big, small = _extreme_singular_values(stack)
        np.testing.assert_array_equal(big, op_norm_stack(stack))
        np.testing.assert_allclose(small, np.linalg.svd(stack, compute_uv=False)[:, -1],
                                   rtol=1e-12)
    # 2x2 is a closed form. Exact multiples of the identity: both singular
    # values are exactly |c|
    c = np.array([1.0, -3.0, 0.1, 2.0**-40, 7e5])
    for got in _extreme_singular_values(c[:, None, None] * np.eye(2)):
        np.testing.assert_array_equal(got, np.abs(c))
    # rotation x diag(1, 1/kappa) x rotation, kappa up to 1e8: sigma_max to a
    # few ulps, sigma_min to 2e-15 kappa relative, against 50-digit values
    kappa = np.logspace(0.0, 8.0, 33)
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, (2, kappa.size))
    rot = lambda t: np.stack([np.stack([np.cos(t), -np.sin(t)], -1),
                              np.stack([np.sin(t), np.cos(t)], -1)], -2)
    diag = np.zeros((kappa.size, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = 1.0, 1.0 / kappa
    mats = rot(t1) @ diag @ rot(t2)
    big, small = _extreme_singular_values(mats)
    want = np.array([_singular_values_50_digits(m) for m in mats])
    np.testing.assert_allclose(big, want[:, 0], rtol=1e-15, atol=0)
    assert (np.abs(small - want[:, 1]) <= 2e-15 * kappa * want[:, 1]).all()
    # a 2^k scale comes out exactly, far past where squares over/underflow
    for k in (600, -600):
        for got, base in zip(_extreme_singular_values(mats * 2.0**k), (big, small)):
            np.testing.assert_array_equal(got, base * 2.0**k)


def test_quasi_uniform_directions():
    d2 = quasi_uniform_directions(2, 10)
    np.testing.assert_allclose(np.linalg.norm(d2, axis=1), 1.0, rtol=1e-14)
    # equiangular half circle: second moment is exactly balanced
    np.testing.assert_allclose(d2.T @ d2, 5.0 * np.eye(2), atol=1e-12)
    d3 = quasi_uniform_directions(3, 40)
    np.testing.assert_allclose(np.linalg.norm(d3, axis=1), 1.0, rtol=1e-13)
    np.testing.assert_array_equal(d3, quasi_uniform_directions(3, 40))
    gram = np.abs(d3 @ d3.T) - np.eye(40)
    assert gram.max() < 1.0 - 1e-4  # no duplicated or antipodal pair
    assert quasi_uniform_directions(1, 1).tolist() == [[1.0]]
    with pytest.raises(ParameterError):
        quasi_uniform_directions(3, 4)


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    with pytest.raises(ParameterError):
        conjugate_exponent(1.0)
