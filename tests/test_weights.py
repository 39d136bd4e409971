"""Weight model checks: SPD powers, cell averages, families, validation."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.linalg

from haarweight import GridFunction, MatrixDomainError, ParameterError, ShapeError, dyadic
from haarweight.weights import (
    EIGEN_FLOOR,
    MatrixWeight,
    WeightFamily,
    _SERIAL_GEMM,
    _SERIAL_GEMV,
    _serial_matmul,
    make_weight,
    spd_power_stack,
    weighted_lp_norm,
)


def random_spd(n, rng, cond=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(-np.log(cond) / 2, np.log(cond) / 2, n))
    return (q * lam) @ q.T


# ---------------------------------------------------------------------------
# spd powers


def test_spd_power_diagonal():
    a = np.diag([4.0, 9.0])
    npt.assert_allclose(spd_power_stack(a, 0.5), np.diag([2.0, 3.0]))
    npt.assert_allclose(spd_power_stack(a, -1.0), np.diag([0.25, 1 / 9]))


def test_spd_power_against_scipy():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        a = random_spd(n, rng)
        npt.assert_allclose(spd_power_stack(a, 0.5), scipy.linalg.sqrtm(a), atol=1e-11)
        npt.assert_allclose(
            spd_power_stack(a, 1.0 / 3.0),
            scipy.linalg.fractional_matrix_power(a, 1.0 / 3.0),
            atol=1e-11,
        )


def test_scalar_spd_power_is_the_eigh_power_bit_for_bit():
    # n = 1 skips eigh: the 1 x 1 eigendecomposition is the entry and +-1
    rng = np.random.default_rng(8)
    mats = np.exp(3.0 * rng.standard_normal((64, 1, 1)))
    vals, vecs = np.linalg.eigh(mats)
    for s in (0.5, -0.5, -1.0, 1.0 / 3.0, -1.0 / 3.0, 2.0):
        eig = np.einsum("...ik,...k,...jk->...ij", vecs, vals**s, vecs)
        npt.assert_array_equal(spd_power_stack(mats, s), eig)
        npt.assert_array_equal(spd_power_stack(mats[::2], s), eig[::2])


def test_spd_power_group_law():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a = random_spd(n, rng)
        s, t = rng.uniform(-1.5, 1.5, 2)
        lhs = spd_power_stack(a, s) @ spd_power_stack(a, t)
        npt.assert_allclose(lhs, spd_power_stack(a, s + t), atol=1e-10)
        npt.assert_allclose(spd_power_stack(a, 0.0), np.eye(n), atol=1e-13)


def test_spd_power_rejects_bad_input():
    # spd_power_stack does not validate; a weight checks its cells before any
    # power of them is taken
    for bad in ([[1.0, 0.5], [0.0, 1.0]], np.diag([1.0, -0.1]), np.diag([1.0, 1e-13])):
        with pytest.raises(MatrixDomainError):
            MatrixWeight(1, 2, 0, np.asarray(bad)[None])


def test_spd_power_stack_matches_loop():
    rng = np.random.default_rng(7)
    mats = np.stack([random_spd(2, rng) for _ in range(8)])
    out = spd_power_stack(mats, 0.25)
    for k in range(8):
        npt.assert_allclose(
            out[k], scipy.linalg.fractional_matrix_power(mats[k], 0.25), atol=1e-12
        )


class _GemmLog(np.ndarray):
    """ndarray view that records (m, k, n) of every matmul it takes part in,
    per matrix: a stacked matmul issues one BLAS call per matrix."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _GemmLog) else x for x in inputs]
        if ufunc is np.matmul:
            a, b = plain
            _GemmLog.shapes.append((a.shape[-2], a.shape[-1], b.shape[-1]))
        if "out" in kwargs:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((64, 64), (64, 64)),          # one block exactly at the limit
    ((209, 64), (64, 64)),         # 64-row limit: 4 blocks of 52-53 rows
    ((300, 500), (500, 81)),       # the n = 3 Hessian product: 6-row blocks
    ((301, 500), (500, 81)),       # rows = 1 mod 6: no one-row tail
    ((1, 500), (500, 81)),         # one live row: a GEMV in column chunks
    ((1024, 9), (9, 2500)),        # n = 3 direction norms, 1024 = 1 mod 11
    ((3, 300), (300, 400)),        # 2-row limit: blocks of 1 and 2 rows
    ((5, 300, 9), (5, 9, 1000)),   # stacked cubes against their directions
    ((7, 1, 4), (7, 4, 1000)),     # stacked rows: one small GEMV each
    ((3, 1, 16), (3, 16, 1000)),   # stacked rows over the GEMV limit
    ((2, 1), (1, 3)),
], ids=["at-limit", "ragged", "hessian", "hessian-tail", "hessian-one-row",
        "rho-tail", "one-row-block", "stacked", "stacked-rows",
        "stacked-rows-chunked", "tiny"])
def test_serial_matmul_matches_matmul_in_serial_blocks(a_shape, b_shape):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape)
    want = a @ b
    _GemmLog.shapes = []
    got = _serial_matmul(a.view(_GemmLog), b.view(_GemmLog))
    assert type(got) is np.ndarray and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    shapes = _GemmLog.shapes
    assert shapes
    for m, k, n in shapes:
        # a one-row product is a GEMV on the (k, n) matrix
        assert m * k * n <= _SERIAL_GEMM and (m > 1 or k * n < _SERIAL_GEMV)
    rows = [m for m, _, _ in shapes]
    assert max(rows) - min(rows) <= 1
    if a_shape == (64, 64):
        assert shapes == [(64, 64, 64)]
    if a_shape[-2] > 2 and a_shape[-2] % 2 and b_shape == (500, 81):
        assert min(rows) == 5


# ---------------------------------------------------------------------------
# weight container


def test_weight_validation():
    cells = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    w = MatrixWeight(1, 2, 2, cells)
    npt.assert_allclose(np.linalg.eigvalsh(w.cells), 1.0)
    bad = cells.copy()
    bad[0] = [[1.0, 0.3], [0.0, 1.0]]
    with pytest.raises(MatrixDomainError):
        MatrixWeight(1, 2, 2, bad)
    low = cells.copy()
    low[1] = np.diag([1.0, 5e-13])
    with pytest.raises(MatrixDomainError):
        MatrixWeight(1, 2, 2, low)


def test_power_cells_cache_consistency(monkeypatch):
    import haarweight.weights as weights

    rng = np.random.default_rng(8)
    cells = np.stack([random_spd(2, rng) for _ in range(4)])
    w = MatrixWeight(1, 2, 2, cells)

    def broken(*args):
        raise MatrixDomainError("injected")

    with monkeypatch.context() as m:  # a failed build is not cached
        m.setattr(weights, "spd_power_stack", broken)
        with pytest.raises(MatrixDomainError):
            w.power_cells(0.5)
    half = w.power_cells(0.5)
    npt.assert_allclose(
        np.einsum("kij,kjl->kil", half, half), w.cells, atol=1e-11
    )
    assert w.power_cells(0.5) is half  # cached


def test_weighted_lp_norm_diagonal():
    w = MatrixWeight(1, 2, 1, np.broadcast_to(np.diag([1.0, 16.0]), (2, 2, 2)).copy())
    f = GridFunction(1, 2, 1, np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert weighted_lp_norm(f, w, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert weighted_lp_norm(f, w, 4.0) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, np.inf])
def test_weighted_lp_norm_checks_the_exponent_first(p):
    # an exponent outside (1, inf) is refused before W^{1/p} is formed and cached
    w = MatrixWeight(1, 2, 1, np.broadcast_to(np.diag([1.0, 16.0]), (2, 2, 2)).copy())
    f = GridFunction(1, 2, 1, np.ones((2, 2)))
    with pytest.raises(ParameterError, match="exponent"):
        weighted_lp_norm(f, w, p)
    assert w._powers == {}


# ---------------------------------------------------------------------------
# families


def test_power_family_exact_averages_1d():
    fam = WeightFamily("power", 1, 1, 6, {"alpha": 1.0})
    w = make_weight(fam)
    mids = (np.arange(64) + 0.5) / 64
    npt.assert_allclose(w.cells[:, 0, 0], mids, rtol=1e-13)

    fam = WeightFamily("power", 1, 1, 4, {"alpha": 0.6})
    w = make_weight(fam)
    for k in (0, 7, 15):
        val, _ = scipy.integrate.quad(
            lambda x: x**0.6, k / 16.0, (k + 1) / 16.0, epsabs=1e-14
        )
        npt.assert_allclose(w.cells[k, 0, 0], val * 16.0, rtol=1e-10)


def test_power_family_negative_alpha_integrable():
    w = make_weight(WeightFamily("power", 1, 1, 5, {"alpha": -0.5}))
    val, _ = scipy.integrate.quad(lambda x: x**-0.5, 0.0, 1 / 32.0)
    npt.assert_allclose(w.cells[0, 0, 0], val * 32.0, rtol=1e-9)
    assert w.meta["warning"] is None


def test_power_family_warning_flag():
    w = make_weight(WeightFamily("power", 1, 1, 4, {"alpha": 1.4}))
    assert "outside the documented range" in w.meta["warning"]
    w = make_weight(WeightFamily("power", 1, 1, 4, {"alpha": 1.4, "p_range": 3.0}))
    assert w.meta["warning"] is None
    with pytest.raises(ParameterError):
        make_weight(WeightFamily("power", 1, 1, 4, {"alpha": -1.0}))


def test_default_alpha_is_the_one_the_cells_use():
    # p_range 1.25 documents alpha in (-1, 0.25): the rotating default 0.5 is
    # outside it and the power default 0.0 inside
    w = make_weight(WeightFamily("rotating", 1, 2, 3, {"p_range": 1.25}))
    assert "alpha=0.5 outside" in w.meta["warning"]
    assert w.cells.tobytes() == make_weight(
        WeightFamily("rotating", 1, 2, 3, {"alpha": 0.5})).cells.tobytes()
    w = make_weight(WeightFamily("power", 1, 1, 3, {"p_range": 1.25}))
    assert w.meta["warning"] is None


def test_power_family_2d_matches_radial_average():
    w = make_weight(WeightFamily("power", 2, 2, 3, {"alpha": 0.5}))
    # oversampled reference for one off-corner cell
    q = 64
    xs = (3 * q + np.arange(q) + 0.5) / (8 * q)
    ys = (5 * q + np.arange(q) + 0.5) / (8 * q)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    ref = np.mean(np.sqrt(gx**2 + gy**2) ** 0.5)
    npt.assert_allclose(w.cells[3, 5, 0, 0], ref, rtol=1e-4)
    npt.assert_allclose(w.cells[3, 5], w.cells[3, 5, 0, 0] * np.eye(2), rtol=1e-13)


@pytest.mark.parametrize("d, level", [(2, 5), (3, 2)])
def test_power_family_row_blocks_match_the_dense_grid(monkeypatch, d, level):
    # the quadrature walks blocks of coarse rows on an open grid; with one
    # coarse row per block it equals the average over the whole dense
    # meshgrid byte for byte
    monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", 1)
    alpha, x0 = -0.5, (0.3,) * d
    w = make_weight(WeightFamily("power", d, 1, level, {"alpha": alpha, "x0": x0}))
    h, q = 1 << level, 16
    mids = (np.arange(h * q) + 0.5) / (h * q)
    grids = np.meshgrid(*[mids - c for c in x0], indexing="ij")
    vals = np.sqrt(sum(g**2 for g in grids)) ** alpha
    for axis in range(d):
        vals = vals.reshape(vals.shape[:axis] + (h, q) + vals.shape[axis + 1 :]).mean(
            axis=axis + 1)
    assert w.cells[..., 0, 0].tobytes() == vals.tobytes()


def test_rotating_family_structure():
    fam = WeightFamily("rotating", 1, 2, 4, {"alpha": 0.6, "omega": np.pi})
    w = make_weight(fam)
    x0 = 0.31
    k = 9
    x = (k + 0.5) / 16
    r = abs(x - x0)
    th = np.pi * x
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    ref = rot @ np.diag([r**0.6, 1.0]) @ rot.T
    npt.assert_allclose(w.cells[k], ref, atol=1e-13)
    vals = np.linalg.eigvalsh(w.cells)
    npt.assert_allclose(vals[:, 1], 1.0, atol=1e-12)  # larger eigenvalue is 1
    with pytest.raises(ParameterError):
        make_weight(WeightFamily("rotating", 1, 3, 2))


@pytest.mark.parametrize("family, n", [("power", 1), ("rotating", 2)])
@pytest.mark.parametrize("d, x0", [(2, [0.1]), (1, [0.1, 0.2, 0.3]), (2, [[0.1, 0.2]])])
def test_x0_must_have_shape_d(family, n, d, x0):
    # a short x0 used to raise a raw IndexError and a long one was truncated
    with pytest.raises(ShapeError, match=r"x0 shape"):
        make_weight(WeightFamily(family, d, n, 2, {"x0": x0}))


def test_rotating_family_needs_x0_from_d3():
    with pytest.raises(ParameterError, match="needs x0"):
        make_weight(WeightFamily("rotating", 3, 2, 2, {"alpha": 0.5}))
    w = make_weight(WeightFamily("rotating", 3, 2, 2, {"x0": [0.3, 0.2, 0.1]}))
    assert w.cells.shape == (4, 4, 4, 2, 2)
    assert np.linalg.eigvalsh(w.cells).min() > 0.0


def test_logbrownian_family_spd_and_deterministic():
    fam = WeightFamily("logbrownian", 1, 3, 5, {"sigma": 0.4}, seed=21)
    w1 = make_weight(fam)
    w2 = make_weight(WeightFamily("logbrownian", 1, 3, 5, {"sigma": 0.4}, seed=21))
    npt.assert_array_equal(w1.cells, w2.cells)
    w3 = make_weight(WeightFamily("logbrownian", 1, 3, 5, {"sigma": 0.4}, seed=22))
    assert np.max(np.abs(w1.cells - w3.cells)) > 1e-3
    vals = np.linalg.eigvalsh(w1.cells)
    assert vals.min() > EIGEN_FLOOR and np.isfinite(vals).all()


def test_weight_seeds_do_not_wrap_at_32_bits():
    def cells(seed):
        fam = WeightFamily("logbrownian", 1, 3, 6, {"sigma": 0.4}, seed=seed)
        return make_weight(fam).cells

    assert np.max(np.abs(cells(7) - cells(2**32 + 7))) > 1e-3
    with pytest.raises(ParameterError):
        cells(-1)


def test_constant_family():
    m = [[2.0, 0.5], [0.5, 1.0]]
    w = make_weight(WeightFamily("constant", 1, 2, 3, {"matrix": m}))
    npt.assert_allclose(w.cells[4], m)
    with pytest.raises(ParameterError):
        make_weight(WeightFamily("nosuch", 1, 1, 2))


@pytest.mark.parametrize("family, n", [
    ("power", 1), ("rotating", 2), ("logbrownian", 2), ("constant", 2),
])
def test_unknown_family_param_rejected(family, n):
    # a misspelt key used to be ignored: the cells came out as for the default
    with pytest.raises(ParameterError, match="alpah"):
        make_weight(WeightFamily(family, 1, n, 3, params={"alpah": 0.3}))
