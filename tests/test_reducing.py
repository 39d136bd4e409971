"""Reducing-operator tests: exact routes against scipy oracles, ellipsoid
fits against the norm they must sandwich, and the duality identity."""

import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from cubes import Cube
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
import haarweight.reducing as reducing
from haarweight.dyadic import _levels, _rows, mean_pyramid
from haarweight.reducing import (
    _CAL_FACTOR,
    _CAL_OFFSET,
    METHOD_NAMES,
    _TOL,
    _fit_operators,
    _least_squares_start,
    _outer_products,
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
    pyr_w = mean_pyramid(w, weight.d)
    pyr_s = mean_pyramid(w ** (1.0 - conjugate_exponent(p)), weight.d)
    return max(
        float((pyr_w[l] * pyr_s[l] ** (p - 1.0)).max())
        for l in range(scan_depth(weight.level) + 1)
    )


def method_at(codes, cube):
    return METHOD_NAMES[int(codes[cube.level][cube.index])]


def level_rows(d, depth, levels):
    """Row mask of a depth-`depth` family that selects the cubes of `levels`."""
    return _rows([np.full(((1 << l),) * d, l in levels) for l in range(depth + 1)], d)


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
    pyr = w.mean_pyramid_of(1.0)
    inv_pyr = w.mean_pyramid_of(-1.0)
    for lvl in range(4):
        flat = pyr[lvl].reshape(-1, 2, 2)
        flat_inv = inv_pyr[lvl].reshape(-1, 2, 2)
        v = fam.v[lvl].reshape(-1, 2, 2)
        vd = fam.v_dual[lvl].reshape(-1, 2, 2)
        for k in range(flat.shape[0]):
            np.testing.assert_allclose(v[k], scipy.linalg.sqrtm(flat[k]), atol=1e-12)
            np.testing.assert_allclose(vd[k], scipy.linalg.sqrtm(flat_inv[k]), atol=1e-12)
        assert method_at(fam.method, Cube(lvl, (0,))) == "exact-p2"
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
    assert method_at(redfam.method, Cube(2, (1,))) == "exact-scalar"
    char = redfam.characteristic()
    schar = scalar_ap_characteristic(w, [1.0], 3.0)
    np.testing.assert_allclose(char, schar, rtol=1e-12)
    assert redfam.max_kappa() == 1.0


def test_identity_weight_fixed_point():
    fam = WeightFamily("constant", d=1, n=2, level=4, params={"matrix": np.eye(2)})
    w = make_weight(fam)
    for p in (2.0, 3.0, 1.5):
        redfam = build_reducing_family(w, p)
        for lvl in range(5):
            np.testing.assert_array_equal(
                redfam.v[lvl], np.broadcast_to(np.eye(2), redfam.v[lvl].shape)
            )
            np.testing.assert_array_equal(
                redfam.v_dual[lvl], np.broadcast_to(np.eye(2), redfam.v[lvl].shape)
            )
        assert redfam.characteristic(4) == 1.0
    assert method_at(redfam.method, Cube(1, (0,))) == "exact-scalar"


def test_scalar_times_matrix_weight_is_exact_everywhere():
    # power weight |x - x0|^alpha I_3: W = s(x) A on every cube
    fam = WeightFamily("power", d=1, n=3, level=4, params={"alpha": 0.6}, seed=0)
    w = make_weight(fam)
    redfam = build_reducing_family(w, 3.0)
    for codes in redfam.method + redfam.method_dual:
        assert (codes == METHOD_NAMES.index("exact-scalar")).all()
    assert redfam.max_kappa() == 1.0


def test_closed_form_matches_fit_on_power_weight():
    fam = WeightFamily("power", d=1, n=2, level=4, params={"alpha": 0.6}, seed=0)
    w = make_weight(fam)
    p = 3.0
    redfam = build_reducing_family(w, p)
    m_fit, dirs_fit, dirs_all = fit_directions(2)
    for dual, closed in ((False, redfam.v), (True, redfam.v_dual)):
        for lvl in (0, 2, 4):
            rho = _rho_rows(w, p, dirs_all, dual, level_rows(1, lvl, [lvl]))
            v_fit, _ = _fit_operators(rho[:, :m_fit], rho, dirs_fit, dirs_all)
            np.testing.assert_allclose(
                v_fit, closed[lvl].reshape(-1, 2, 2), rtol=0, atol=1e-10
            )


def test_ellipsoid_sandwich_fresh_directions():
    w = rotating_weight(level=4)
    p = 3.0
    fam = build_reducing_family(w, p)
    assert method_at(fam.method, Cube.root(1)) == "ellipsoid"
    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((64, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for lvl in (0, 2, 4):
        for idx in [(0,), ((1 << lvl) - 1,)]:
            cube = Cube(lvl, idx)
            v = fam.v[lvl][idx]
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
    w = rotating_weight(level=4)
    p, q = 3.0, conjugate_exponent(3.0)
    fam = build_reducing_family(w, p)
    dual = MatrixWeight(w.d, w.n, w.level, w.power_cells(1.0 - q))
    fresh = build_reducing_family(dual, q)
    swapped = fam.swapped()
    assert swapped.p == fresh.p
    for side in ("v", "v_dual", "kappa", "kappa_dual"):
        for got, want in zip(getattr(swapped, side), getattr(fresh, side)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
    for side in ("method", "method_dual"):
        for got, want in zip(getattr(swapped, side), getattr(fresh, side)):
            np.testing.assert_array_equal(got, want)
    assert (fresh.method[0] == METHOD_NAMES.index("ellipsoid")).all()


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
        return np.concatenate([_rho_rows(w, 3.0, dirs, dual, todo) for dual in (False, True)]), dirs
    return _rho_rows(w, 3.0, dirs, False, level_rows(1, level, [level])), dirs


def assert_john_certificate(a_b, rho_b, dirs):
    """A is strictly feasible for the points x_m = dirs_m / rho_m and
    A^{-1} = sum_m c_m x_m x_m^T with c >= 0 and sum c <= n (1 + _TOL)."""
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
    assert lp.fun <= n * (1.0 + _TOL)


@pytest.mark.parametrize("n, level", [(2, 0), (2, 2), (3, 0), (3, 2), (2, None), (3, None)])
def test_mvee_batch_feasible_with_john_certificate(n, level):
    rho, dirs = fit_inputs(n, level)
    a = reducing._mvee_batch(rho, dirs, _TOL, 200_000)
    assert a.shape == (rho.shape[0], n, n)
    for a_b, rho_b in zip(a, rho):
        assert_john_certificate(a_b, rho_b, dirs)


def duality_gap(a_b, rho_b, dirs):
    """-log det A minus the Lagrange dual value of the fit for the points
    x_m = dirs_m / rho_m, formed from A alone: the dual point u_m = 1 / (t
    slack_m) scaled by n / sum u is u_m = n / (slack_m sum_k 1 / slack_k),
    whatever t, with dual value log det sum_m u_m x_m x_m^T. A must be
    strictly feasible, so that u >= 0."""
    n = a_b.shape[0]
    x = dirs / rho_b[:, None]
    slack = 1.0 - np.einsum("mi,ij,mj->m", x, a_b, x)
    assert slack.min() > 0.0
    u = n / (slack * (1.0 / slack).sum())
    moment = np.einsum("m,mi,mj->ij", u, x, x)
    return -np.linalg.slogdet(a_b)[1] - np.linalg.slogdet(moment)[1]


@pytest.mark.parametrize("n", [2, 3])
def test_mvee_batch_certifies_its_duality_gap(n):
    # every returned A is within n _TOL of the optimal -log det A, read from
    # A, rho and the directions alone; the same A scaled by 0.99 are not
    rho, dirs = fit_inputs(n, None)
    a = reducing._mvee_batch(rho, dirs, _TOL, 200_000)
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
    (fit,) = reducing._mvee_batch(rho, dirs, _TOL, 200_000)
    assert duality_gap(fit, rho[0], dirs) <= 3 * _TOL


def test_mvee_batch_logs_one_debug_record(caplog):
    rho, dirs = fit_inputs(2, 2)
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        reducing._mvee_batch(rho, dirs, 1e-4, 200_000)
    records = [r for r in caplog.records if r.name == "haarweight.reducing"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    rows, n, m, steps, stages, gap, seconds, row_steps, search_steps = records[0].args
    assert (rows, n, m) == (4, 2, 60)
    assert steps >= stages >= 1
    assert gap <= n * 1e-4
    assert steps <= row_steps <= rows * steps
    assert seconds > 0.0
    assert 0 <= search_steps <= 60 * row_steps
    assert "newton_steps=" in records[0].getMessage()
    assert "seconds=" in records[0].getMessage()
    assert "search_steps=" in records[0].getMessage()


def _fit_record(caplog, rho, dirs, full=False):
    """The DEBUG record args of one _mvee_batch call at the default _TOL:
    rows, n, m, newton_steps, stages, final_gap, and with full=True also
    seconds, row_steps and search_steps."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        reducing._mvee_batch(rho, dirs, _TOL, 200_000)
    (record,) = [r for r in caplog.records if r.name == "haarweight.reducing"]
    return record.args if full else record.args[:6]


def test_centred_rows_leave_the_stage(caplog):
    # a circle (rho = 1) centres in fewer steps than a rotating-weight cube;
    # in one batch it stops stepping when its own fit is centred
    rho, dirs = fit_inputs(2, 0)
    easy = np.ones_like(rho)
    both = np.concatenate([easy, rho])
    rows, _, _, steps, _, _, _, row_steps, _ = _fit_record(caplog, both, dirs, full=True)
    assert row_steps < rows * steps
    # each row takes the steps of its solo fit
    assert row_steps == _fit_record(caplog, easy, dirs)[3] + _fit_record(caplog, rho, dirs)[3]
    a_both = reducing._mvee_batch(both, dirs, _TOL, 200_000)
    a_easy = reducing._mvee_batch(easy, dirs, _TOL, 200_000)
    scale = np.abs(a_easy[0]).max()  # relative to the matrix: off-diagonals are ~1e-17
    np.testing.assert_allclose(a_both[0], a_easy[0], rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("n, level", [(2, 0), (2, 2), (3, 0), (3, 2)])
def test_mvee_batch_centres_every_stage(caplog, n, level):
    rho, dirs = fit_inputs(n, level)
    _, _, _, steps, _, gap = _fit_record(caplog, rho, dirs)
    assert gap <= n * _TOL
    # negative control: one step fewer than the fit needs must not pass, and
    # the fit logs its one record, with the failing residual, before it raises
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        with pytest.raises(EllipsoidFitError) as raised:
            reducing._mvee_batch(rho, dirs, _TOL, steps - 1)
    (record,) = [r for r in caplog.records if r.name == "haarweight.reducing"]
    assert record.args[3] == steps - 1
    assert record.args[5] == raised.value.residual > n * _TOL


@pytest.mark.parametrize("n", [2, 3])
def test_mvee_batch_step_budget(caplog, n):
    # measured 24 (n = 2) and 23 (n = 3) Newton steps; 32 leaves room for
    # rounding to shift a stop by a few steps. Starting every row at the same
    # isotropic ellipse and t = m takes 35 and 37; starting every stage at
    # t = 1 and centring it to 1e-7 with no tangent step takes 73 for both n,
    # and a x4 t-schedule takes 45
    rho, dirs = fit_inputs(n, 2)
    steps = _fit_record(caplog, rho, dirs)[3]
    assert steps <= 32


def test_rotating_cube_fit_below_p_two(monkeypatch, caplog):
    # with every stage started cold at the last centre, the t ~ 1.6e5 stage
    # hit the 80-step cap at decrement 2.19 and the build raised
    # EllipsoidFitError
    w = make_weight(WeightFamily("rotating", 2, 2, 4, params={"alpha": 0.9}))
    fits = []
    mvee = reducing._mvee_batch

    def recording(rho, dirs, *args):
        a = mvee(rho, dirs, *args)
        fits.append((rho, dirs, a))
        return a

    monkeypatch.setattr(reducing, "_mvee_batch", recording)
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        build_reducing_family(w, 1.5)
    (record,) = [r for r in caplog.records if r.name == "haarweight.reducing"]
    assert record.args[5] <= 2 * _TOL  # the final gap
    ((rho, dirs, a),) = fits
    # the four most eccentric direction norms
    for row in np.argsort(rho.max(axis=1) / rho.min(axis=1))[-4:]:
        assert_john_certificate(a[row], rho[row], dirs)


def _family_fit_records(caplog, weight, p):
    """The DEBUG record args of every _mvee_batch call of one family build:
    rows, n, m, newton_steps, stages, final_gap, seconds, row_steps,
    search_steps."""
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
        ((*_, gap, _, _, _),) = _family_fit_records(caplog, w, p)
        assert gap <= 2e-6


def test_suite_p3_fits_end_certified(caplog):
    # the genuinely matrix weights of the benchmarked suite: every fit ends
    # its last stage certified within n 1e-6. Measured 9,706 row-steps over
    # the three; every row starting at one isotropic ellipse and t = m took
    # 16,607
    specs = {s.name: s for s in suite_weight_specs()}
    row_steps = 0
    for name in ("rot-a06", "logb3-s04", "rot2d-a05"):
        records = _family_fit_records(caplog, specs[name].realize(), 3.0)
        assert records
        for _, n, _, _, _, gap, _, steps, _ in records:
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
            for _, n, _, _, _, gap, *_ in records:
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
    assert (fam.method[4] == METHOD_NAMES.index("exact-scalar")).all()
    m_fit, dirs_fit, dirs_all = fit_directions(2)
    for dual, vs, kappas in ((False, fam.v, fam.kappa), (True, fam.v_dual, fam.kappa_dual)):
        for lvl in range(4):
            rho = _rho_rows(w, p, dirs_all, dual, level_rows(1, lvl, [lvl]))
            v, kappa = _fit_operators(rho[:, :m_fit], rho, dirs_fit, dirs_all)
            np.testing.assert_allclose(vs[lvl].reshape(-1, 2, 2), v, rtol=1e-12, atol=0)
            np.testing.assert_allclose(kappas[lvl].reshape(-1), kappa, rtol=1e-12, atol=0)
    assert len(calls) == 1 + 2 * 4


def test_rho_rows_matches_direction_norm():
    w = rotating_weight(level=4)
    p = 3.0
    dirs = quasi_uniform_directions(2, 12)
    todo = level_rows(1, 4, range(5))
    todo[[2, 9]] = False  # level 1 index 1, level 3 index 2
    for dual in (False, True):
        rho = _rho_rows(w, p, dirs, dual, todo)
        assert rho.shape == (29, 12)
        full = np.zeros((31, 12))
        full[todo] = rho
        pyr = _levels(full, 1)
        for lvl in (0, 2, 4):
            for idx in [(0,), ((1 << lvl) - 1,)]:
                cube = Cube(lvl, idx)
                want = [direction_norm(w, cube, p, e, dual=dual) for e in dirs]
                np.testing.assert_allclose(pyr[lvl][idx], want, rtol=1e-12)


_FAMILY_ARRAYS = """
import sys
import numpy as np
from haarweight import WeightFamily, build_reducing_family, make_weight
arrays = {}
for fam in (WeightFamily("rotating", 1, 2, 7, {"alpha": 0.6}, 3),
            WeightFamily("logbrownian", 1, 3, 6, {"sigma": 0.4}, 5)):
    family = build_reducing_family(make_weight(fam), 3.0)
    for side in ("v", "v_dual", "kappa"):
        for lvl, a in enumerate(getattr(family, side)):
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
    monkeypatch.setattr(reducing, "_MAX_ITER", 3)
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
        assert len(shallow.v) == depth + 1
        codes = np.concatenate([c.reshape(-1) for c in shallow.method[: depth + 1]])
        assert (codes == ell).any() == (p != 2.0) and not (codes == ell).all()
        for l in range(depth + 1):
            exact = full.method[l] != ell
            for side in ("method", "method_dual"):
                np.testing.assert_array_equal(getattr(shallow, side)[l], getattr(full, side)[l])
            for side in ("v", "v_dual", "kappa", "kappa_dual"):
                np.testing.assert_array_equal(getattr(shallow, side)[l][exact],
                                              getattr(full, side)[l][exact])


@pytest.mark.parametrize("d", [1, 2])
def test_rows_split_round_trip(d):
    rng = np.random.default_rng(d)
    pyr = [rng.standard_normal(((1 << l),) * d + (2, 3)) for l in range(4)]
    rows = _rows(pyr, d)
    assert rows.shape == (sum(1 << (l * d) for l in range(4)), 2, 3)
    # level by level, each level in index order
    np.testing.assert_array_equal(rows[1 : 1 + (1 << d)], pyr[1].reshape(-1, 2, 3))
    back = _levels(rows, d)
    assert [a.shape for a in back] == [a.shape for a in pyr]
    for got, want in zip(back, pyr):
        np.testing.assert_array_equal(got, want)
    flags = [a[..., 0, 0] > 0.0 for a in pyr]
    for got, want in zip(_levels(_rows(flags, d), d), flags):
        np.testing.assert_array_equal(got, want)


def test_op_norm_stack_oracle():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((7, 3, 3))
    got = op_norm_stack(mats)
    want = [np.linalg.norm(m, 2) for m in mats]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    one = rng.standard_normal((4, 1, 1))
    np.testing.assert_allclose(op_norm_stack(one), np.abs(one[:, 0, 0]))


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
