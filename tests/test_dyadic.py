"""Dyadic grid and Haar transform checks.

Covers: signature enumeration, the pointwise Haar oracle
against hand-computed cases, exactness of the pyramid transform (round trip
and Parseval), orthonormality of the synthesized basis, and the L^p cell sums.
"""

import functools
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from cubes import Cube, stack_levels
from haarweight import (
    GridFunction,
    HaarCoefficients,
    ParameterError,
    ShapeError,
    haar_reconstruct,
    haar_transform,
    lp_norm,
)
from haarweight import dyadic
from haarweight.dyadic import (
    _blocks,
    _cube_blocks,
    _random_exactness_errors,
    _levels,
    _random_grid_batch,
    detail_signatures,
    haar_exactness_errors,
    mean_pyramid,
    refine_to_cells,
)


def random_grid(d, n, L, rng):
    return GridFunction(d, n, L, rng.standard_normal(((1 << L),) * d + (n,)))


def haar_eval(cube, eps, point):
    """Pointwise value of h_cube^eps at a point of [0,1)^d (0 off the cube),
    from the definition: the oracle for the pyramid transform."""
    x = np.asarray(point, dtype=float) * (1 << cube.level)  # in units of the side
    cell = np.floor(x)
    if tuple(int(i) for i in cell) != cube.index:
        return 0.0
    upper = x - cell >= 0.5
    flips = sum(1 for e, u in zip(eps, upper) if e == 0 and u)
    return (-1.0) ** flips * 2.0 ** (cube.level * cube.d / 2.0)


@functools.cache
def sign_matrix(d):
    """(2^d, 2^d) sign table, the d-th Kronecker power of [[1, -1], [1, 1]]:
    rows are the detail signatures then all-ones, columns the children gamma
    in lexicographic order. Read-only, one array per d."""
    s = functools.reduce(np.kron, [np.array([[1.0, -1.0], [1.0, 1.0]])] * d)
    s.flags.writeable = False
    return s


def merge_blocks(b, d):
    """Inverse of _blocks(a, d, 2)."""
    m, tail = b.shape[0], b.shape[d + 1:]
    b = b.reshape((m,) * d + (2,) * d + tail)
    order = (*(i for k in range(d) for i in (k, d + k)), *range(2 * d, b.ndim))
    return b.transpose(order).reshape((2 * m,) * d + tail)


def einsum_transform(f):
    """(root, detail) of f by the reference pyramid: each level one einsum of
    the children blocks against sign_matrix, with the value and batch axes
    folded into one."""
    d, L = f.d, f.level
    s = sign_matrix(d)
    tail = (f.n,) + f.batch
    a = f.values.reshape(f.values.shape[:d] + (int(np.prod(tail)),))
    detail = [None] * L
    for lvl in range(L - 1, -1, -1):
        b = np.einsum("ec,...cn->...en", s, _blocks(a, d, 2)) * (1.0 / (1 << d))
        coarse = np.ascontiguousarray(b[..., :-1, :]) * 2.0 ** (-lvl * d / 2.0)
        detail[lvl] = coarse.reshape(coarse.shape[:-1] + tail)
        a = np.ascontiguousarray(b[..., -1, :])
    return a.reshape(tail), detail


def einsum_reconstruct(c):
    """Grid values of c by the reference pyramid, the inverse of
    einsum_transform."""
    d, L = c.d, c.level
    s = sign_matrix(d)
    tail = c.root_scaling.shape
    m = int(np.prod(tail))
    a = c.root_scaling.reshape((1,) * d + (m,))
    nsig = (1 << d) - 1
    for lvl in range(L):
        b = np.empty(((1 << lvl),) * d + (nsig + 1, m))
        b[..., :-1, :] = _levels(c.rows, d)[lvl].reshape(b.shape[:-2] + (nsig, m)) * (
            2.0 ** (lvl * d / 2.0))
        b[..., -1, :] = a
        a = merge_blocks(np.einsum("ec,...en->...cn", s, b), d)
    return a.reshape(a.shape[:d] + tail)


def assert_within_ulps(got, want, ulps):
    """|got - want| at most ulps units in the last place of max |want|."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want).max()))


# ---------------------------------------------------------------------------
# signatures


def test_signature_enumeration():
    assert detail_signatures(1) == ((0,),)
    assert detail_signatures(2) == ((0, 0), (0, 1), (1, 0))
    assert len(detail_signatures(3)) == 7
    with pytest.raises(ParameterError):
        detail_signatures(0)


def test_sign_matrix_hadamard():
    # the reference pyramid's sign table.
    # rows are mutually orthogonal with squared norm 2^d: exact inversion.
    # Entry by entry, against the reference: (eps, gamma) flips sign on each
    # axis with eps_i = 0 and gamma_i = 1; rows are the detail signatures
    # then all-ones, columns gamma in lexicographic order
    for d in (1, 2, 3, 4):
        s = sign_matrix(d)
        npt.assert_array_equal(s.T @ s, (1 << d) * np.eye(1 << d))
        npt.assert_array_equal(s @ s.T, (1 << d) * np.eye(1 << d))
        rows = list(detail_signatures(d)) + [(1,) * d]
        corners = list(itertools.product((0, 1), repeat=d))
        ref = np.empty((len(rows), len(corners)))
        for r, eps in enumerate(rows):
            for c, gamma in enumerate(corners):
                sign = 1
                for e, g in zip(eps, gamma):
                    if e == 0 and g == 1:
                        sign = -sign
                ref[r, c] = sign
        npt.assert_array_equal(s, ref)
        assert s is sign_matrix(d) and not s.flags.writeable


# ---------------------------------------------------------------------------
# pointwise evaluation


def test_haar_eval_1d():
    root = Cube.root(1)
    assert haar_eval(root, (0,), [0.2]) == 1.0
    assert haar_eval(root, (0,), [0.5]) == -1.0
    assert haar_eval(root, (0,), [0.99]) == -1.0
    half = Cube(1, (1,))
    assert haar_eval(half, (0,), [0.6]) == pytest.approx(np.sqrt(2.0))
    assert haar_eval(half, (0,), [0.8]) == pytest.approx(-np.sqrt(2.0))
    assert haar_eval(half, (0,), [0.2]) == 0.0


def test_haar_eval_2d_mixed_signature():
    # oscillates in x1 only; (0.7, 0.2) sits in the right half in x1
    root = Cube.root(2)
    assert haar_eval(root, (0, 1), [0.7, 0.2]) == -1.0
    assert haar_eval(root, (1, 0), [0.7, 0.2]) == 1.0
    assert haar_eval(root, (0, 0), [0.7, 0.2]) == -1.0
    sub = Cube(1, (1, 0))
    assert haar_eval(sub, (0, 0), [0.7, 0.2]) == 2.0


def test_haar_eval_l2_normalized():
    # cell sums of h^2 equal 1 for every cube/signature at several scales
    L = 5
    for d in (1, 2):
        for lvl in range(0, 3):
            for idx in [(0,) * d, ((1 << lvl) - 1,) * d]:
                cube = Cube(lvl, idx)
                for sig in detail_signatures(d):
                    h = 1 << L
                    pts = (np.arange(h) + 0.5) / h
                    grids = np.meshgrid(*([pts] * d), indexing="ij")
                    vals = np.zeros_like(grids[0])
                    it = np.nditer(grids[0], flags=["multi_index"])
                    for _ in it:
                        x = [g[it.multi_index] for g in grids]
                        vals[it.multi_index] = haar_eval(cube, sig, x)
                    npt.assert_allclose(np.sum(vals**2) / h**d, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# transform exactness


def test_transform_two_cells():
    # f = (1, 3) on [0,1): mean 2, root detail <f, h> = (1-3)/2 = -1
    f = GridFunction(1, 1, 1, np.array([[1.0], [3.0]]))
    c = haar_transform(f)
    npt.assert_allclose(c.root_scaling, [2.0], atol=1e-15)
    npt.assert_allclose(c.rows, [[[-1.0]]], atol=1e-15)
    g = haar_reconstruct(c)
    npt.assert_allclose(g.values, f.values, atol=1e-15)


def test_transform_linear_function_root_detail():
    # cell averages of f(x) = x give root Haar coefficient exactly -1/4
    for L in (1, 3, 6, 10):
        h = 2.0**-L
        avg = (np.arange(1 << L) + 0.5) * h
        f = GridFunction(1, 1, L, avg[:, None])
        c = haar_transform(f)
        assert abs(c.rows[0, 0, 0] + 0.25) <= 2.0**-L
        assert abs(c.rows[0, 0, 0] + 0.25) <= 1e-12


def test_round_trip_and_parseval():
    rng = np.random.default_rng(7)
    cases = [(1, 1, 8), (1, 3, 6), (2, 1, 4), (2, 2, 5), (3, 2, 2)]
    for d, n, L in cases:
        for _ in range(5):
            f = random_grid(d, n, L, rng)
            c = haar_transform(f)
            g = haar_reconstruct(c)
            npt.assert_allclose(g.values, f.values, atol=1e-12)
            lhs = lp_norm(f, 2.0) ** 2
            rhs = float(np.sum(c.root_scaling**2)) + float(np.sum(c.rows**2))
            npt.assert_allclose(lhs, rhs, rtol=1e-12)


def test_single_coefficient_synthesis_matches_eval():
    # synthesizing one unit coefficient reproduces haar_eval on every cell
    rng = np.random.default_rng(3)
    for d, L in ((1, 4), (2, 3)):
        for _ in range(6):
            lvl = int(rng.integers(0, L))
            idx = tuple(int(rng.integers(0, 1 << lvl)) for _ in range(d))
            cube = Cube(lvl, idx)
            pos = int(rng.integers(0, (1 << d) - 1))
            sig = detail_signatures(d)[pos]
            c = HaarCoefficients.zeros(d, 1, L)
            _levels(c.rows, d)[lvl][idx + (pos,)] = 1.0
            g = haar_reconstruct(c)
            h = 1 << L
            pts = (np.arange(h) + 0.5) / h
            for _ in range(20):
                cell = tuple(int(rng.integers(0, h)) for _ in range(d))
                x = [pts[i] for i in cell]
                assert g.values[cell + (0,)] == pytest.approx(
                    haar_eval(cube, sig, x), abs=1e-12
                )


def test_basis_orthonormality_gram():
    # full Gram of synthesized basis vectors (detail slots plus scaling)
    for d, L in ((1, 6), (2, 3)):
        cols = []
        c = HaarCoefficients.zeros(d, 1, L)
        c.root_scaling[0] = 1.0
        cols.append(haar_reconstruct(c).values.reshape(-1))
        for lvl in range(L):
            for idx in np.ndindex(*((1 << lvl),) * d):
                for pos in range((1 << d) - 1):
                    c = HaarCoefficients.zeros(d, 1, L)
                    _levels(c.rows, d)[lvl][idx + (pos,)] = 1.0
                    cols.append(haar_reconstruct(c).values.reshape(-1))
        h = np.stack(cols, axis=1)
        gram = h.T @ h / h.shape[0]
        npt.assert_allclose(gram, np.eye(h.shape[1]), atol=1e-12)


# ---------------------------------------------------------------------------
# norms and pyramid helpers


def test_lp_norm_examples():
    f = GridFunction(1, 1, 1, np.array([[1.0], [3.0]]))
    assert lp_norm(f, 3.0) == pytest.approx(14.0 ** (1.0 / 3.0), rel=1e-14)
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(5.0), rel=1e-14)
    g = GridFunction(2, 2, 1, np.full((2, 2, 2), 1.0))
    assert lp_norm(g, 2.5) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    with pytest.raises(ParameterError):
        lp_norm(f, 1.0)


def test_mean_pyramid_exact():
    # the row pyramid of levels 0..depth, at every depth: each level against
    # the mean over its cubes' cells, and bit for bit against the per-level
    # chain of child means it is filled from; the finest level is the cells
    rng = np.random.default_rng(11)
    for d, L in ((1, 5), (2, 3), (3, 2)):
        cells = rng.standard_normal(((1 << L),) * d + (3, 2))
        chain = [cells]
        for _ in range(L):
            chain.insert(0, _blocks(chain[0], d, 2).mean(axis=d))
        for depth in range(L + 1):
            pyr = mean_pyramid(cells, d, depth)
            assert pyr.shape == (sum(1 << (l * d) for l in range(depth + 1)), 3, 2)
            levels = _levels(pyr, d)
            assert len(levels) == depth + 1
            for l, got in enumerate(levels):
                want = _cube_blocks(cells, d, l).mean(axis=1)
                npt.assert_allclose(got.reshape(want.shape), want, rtol=1e-14, atol=1e-14)
                assert got.tobytes() == chain[l].tobytes()
        with pytest.raises(ParameterError):
            mean_pyramid(cells, d, L + 1)
        with pytest.raises(ShapeError):
            mean_pyramid(cells[:3], d, 0)


def test_coarsen_refine():
    arr = np.arange(16, dtype=float).reshape(4, 4)
    # block sums: one row of cells per level-1 cube, cubes in C order
    s = _cube_blocks(arr, 2, 1).sum(axis=1).reshape(2, 2)
    assert s[0, 0] == arr[:2, :2].sum()
    assert s[0, 1] == arr[:2, 2:].sum()
    r = refine_to_cells(np.array([[1.0, 2.0], [3.0, 4.0]]), 2, 2)
    assert r.shape == (8, 8)
    assert np.all(r[0:4, 4:8] == 2.0)


def test_grid_function_validation():
    with pytest.raises(ShapeError):
        GridFunction(1, 1, 2, np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        GridFunction(1, 1, 1, np.array([[np.nan], [0.0]]))
    with pytest.raises(ParameterError):
        GridFunction(0, 1, 1, np.zeros((2, 1)))


def test_batch_transforms_and_norms_act_per_column():
    rng = np.random.default_rng(21)
    for d, n, L in ((1, 3, 4), (2, 2, 3), (2, 1, 3)):
        fs = [random_grid(d, n, L, rng) for _ in range(4)]
        batch = GridFunction(d, n, L, np.stack([f.values for f in fs], axis=-1))
        assert batch.batch == (4,)
        coeffs = haar_transform(batch)
        assert coeffs.batch == (4,)
        for i, f in enumerate(fs):
            single = haar_transform(f)
            np.testing.assert_array_equal(coeffs.root_scaling[..., i], single.root_scaling)
            np.testing.assert_array_equal(coeffs.rows[..., i], single.rows)
            np.testing.assert_array_equal(haar_reconstruct(coeffs).values[..., i],
                                          haar_reconstruct(single).values)
        back = haar_reconstruct(coeffs)
        np.testing.assert_allclose(back.values, batch.values, atol=1e-12)
        for p in (1.5, 2.0, 3.0):
            np.testing.assert_array_equal(lp_norm(batch, p), [lp_norm(f, p) for f in fs])
        stacked = HaarCoefficients.stack([haar_transform(f) for f in fs])
        assert stacked.batch == (4,)
        np.testing.assert_allclose(np.sum(stacked.rows**2, axis=(0, 1, 2)),
                                   [np.sum(haar_transform(f).rows**2) for f in fs],
                                   rtol=1e-14)
        rt, pv = haar_exactness_errors(batch)
        assert rt.shape == pv.shape == (4,)
        singles = np.array([haar_exactness_errors(f) for f in fs])
        np.testing.assert_array_equal(np.stack([rt, pv], axis=-1), singles)
        assert max(rt.max(), pv.max(), singles.max()) <= 1e-12
        np.testing.assert_allclose(haar_reconstruct(stacked).values, batch.values,
                                   atol=1e-12)


def test_random_exactness_errors_in_blocks_match_one_batch(monkeypatch):
    # drawn and checked one tag per block, the errors are those of the one
    # batch of every tag, byte for byte
    tags = [[4, i] for i in range(5)]
    want = haar_exactness_errors(_random_grid_batch(2, 3, 3, tags))
    monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", 1)
    assert dyadic._spans(len(tags), 64 * 3) == [slice(i, i + 1) for i in range(5)]
    got = _random_exactness_errors(2, 3, 3, tags)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_detail_levels_are_views_of_the_rows():
    # the coefficients are stored once on the level-row axis; _levels cuts
    # level l's rows as a view, so a write through it lands in them
    rng = np.random.default_rng(12)
    for d, L in ((1, 4), (2, 3)):
        c = HaarCoefficients.zeros(d, 2, L)
        assert c.rows.shape == (sum(1 << (l * d) for l in range(L)), (1 << d) - 1, 2)
        _levels(c.rows, d)[L - 1][(1,) * d + (0, 1)] = 5.0
        row = sum(1 << (l * d) for l in range(L - 1))
        row += int(np.ravel_multi_index((1,) * d, ((1 << (L - 1)),) * d))
        assert c.rows[row, 0, 1] == 5.0 and np.count_nonzero(c.rows) == 1
        f = haar_transform(GridFunction(d, 2, L, rng.standard_normal(((1 << L),) * d + (2, 3))))
        levels = _levels(f.rows, d)
        assert len(levels) == L
        for l, a in enumerate(levels):
            assert a.shape == ((1 << l),) * d + ((1 << d) - 1, 2, 3)
            assert np.shares_memory(a, f.rows)


def test_reconstruct_leaves_its_input_unchanged(monkeypatch):
    # _synthesize scales the rows it is given in place; haar_reconstruct
    # hands it a copy, so the coefficients, a whole batch or a view of some
    # of its columns (_column_blocks), stay as they were and a second call
    # gives the same values
    rng = np.random.default_rng(13)
    monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", 1)  # one column per block
    for d, n, L in ((1, 2, 4), (2, 1, 3)):
        batch = haar_transform(
            GridFunction(d, n, L, rng.standard_normal(((1 << L),) * d + (n, 3))))
        whole = haar_reconstruct(batch).values
        parts = [part for _, part in dyadic._column_blocks(batch, 1)]
        assert len(parts) == 3
        assert all(np.shares_memory(part.rows, batch.rows) for part in parts)
        for i, c in enumerate([batch] + parts):
            before = (c.root_scaling.copy(), c.rows.copy())
            first = haar_reconstruct(c).values
            assert haar_reconstruct(c).values.tobytes() == first.tobytes()
            assert c.root_scaling.tobytes() == before[0].tobytes()
            assert c.rows.tobytes() == before[1].tobytes()
            want = whole if i == 0 else whole[..., i - 1 : i]
            assert first.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_butterfly_pyramid_matches_the_sign_matrix_einsum(d):
    # d = 1: the same two-term sums, bit for bit; d = 2: the four-term sums
    # associate pairwise per axis, a few units in the last place apart
    rng = np.random.default_rng(40 + d)
    L = 5 if d == 1 else 3
    for n in (1, 2, 3):
        for batch in ((), (1,), (7,), (3, 4)):
            f = GridFunction(d, n, L, rng.standard_normal(((1 << L),) * d + (n,) + batch))
            root, detail = einsum_transform(f)
            c = haar_transform(f)
            want = HaarCoefficients(d, n, L, root, stack_levels(detail, d))
            pairs = [(c.root_scaling, root), *zip(_levels(c.rows, d), detail),
                     (haar_reconstruct(want).values, einsum_reconstruct(want))]
            for got, ref in pairs:
                if d == 1:
                    npt.assert_array_equal(got, ref)
                else:
                    assert_within_ulps(got, ref, 4)
