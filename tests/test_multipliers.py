"""Multiplier and T-operator tests: coefficient-wise action, the scalar
oracle, block telescoping, and the exact single-coefficient isometry."""

import math

import numpy as np
import pytest

from cubes import Cube, stack_levels
from sample_weights import rotating_setup, two_cell_weight
from haarweight import (
    CoverageError,
    HaarCoefficients,
    ParameterError,
    StoppingConfig,
    WeightSpec,
    build_generations,
    build_reducing_family,
    lp_norm,
    make_weight,
    weighted_lp_norm,
)
from haarweight.analysis import square_norm
from haarweight.dyadic import _levels, haar_reconstruct
from haarweight.multipliers import apply_symbols, t_blocks, t_operator
from haarweight.weights import apply_cells
from test_analysis import suite_weight
from test_dyadic import haar_eval


def random_mean_zero(d, n, level, seed):
    rng = np.random.default_rng(seed)
    c = HaarCoefficients.zeros(d, n, level)
    for a in _levels(c.rows, d):
        a[...] = rng.standard_normal(a.shape)
    return c


def identity_setup(level=4, n=2, p=3.0):
    spec = WeightSpec("w", "constant", d=1, n=n, level=level, params={"matrix": np.eye(n)})
    w = make_weight(spec)
    return w, build_reducing_family(w, p)


def test_identity_weight_is_reconstruction():
    w, fam = identity_setup()
    f = random_mean_zero(1, 2, 4, seed=0)
    out = t_operator(fam, f)
    np.testing.assert_allclose(out.values, haar_reconstruct(f).values, atol=1e-13)


def test_forward_inverse_roundtrip():
    w, fam = rotating_setup()
    v = fam.operators[0]
    np.testing.assert_allclose(fam.inverses @ v, np.broadcast_to(np.eye(2), v.shape),
                               atol=1e-9)
    f = random_mean_zero(1, 2, 4, seed=1)
    g = HaarCoefficients(f.d, f.n, f.level, f.root_scaling, apply_symbols(fam.operators[0], f))
    np.testing.assert_allclose(apply_symbols(fam.inverses, g), f.rows, atol=1e-9)


def test_scalar_symbol_oracle():
    w = two_cell_weight()
    fam = build_reducing_family(w, 2.0)
    f = HaarCoefficients.zeros(1, 1, 1)
    f.rows[0, 0] = 1.0
    out = apply_symbols(fam.operators[0], f)
    assert out[0, 0, 0] == pytest.approx(math.sqrt(2.5), rel=1e-14)

    tf = t_operator(fam, f)
    mids = (np.arange(2) + 0.5) / 2
    expect = [
        math.sqrt(w.cells[i, 0, 0]) / math.sqrt(2.5)
        * haar_eval(Cube.root(1), (0,), (x,))
        for i, x in enumerate(mids)
    ]
    np.testing.assert_allclose(tf.values[:, 0], expect, rtol=1e-13)
    # exact p=2 isometry for a single coefficient: V^2 = m_I W
    assert lp_norm(tf, 2.0) == pytest.approx(1.0, rel=1e-13)


def test_block_sum_equals_t():
    w, fam = rotating_setup()
    tree = build_generations(fam, StoppingConfig(lambda1=1.3, lambda2=1.3))
    f = random_mean_zero(1, 2, 4, seed=2)
    blocks = t_blocks(tree, f)
    assert blocks.batch == (tree.generation_count(),)
    total = blocks.values.sum(axis=-1)
    tf = t_operator(fam, f)
    np.testing.assert_allclose(total, tf.values, atol=1e-9)


def test_mean_zero_required():
    w, fam = rotating_setup()
    f = random_mean_zero(1, 2, 4, seed=5)
    f.root_scaling[:] = [1.0, 0.0]
    with pytest.raises(ParameterError):
        t_operator(fam, f)
    # the blocks sum to T f, so they take mean-zero f only too
    tree = build_generations(fam, StoppingConfig(lambda1=1.3, lambda2=1.3))
    with pytest.raises(ParameterError, match="mean-zero"):
        t_blocks(tree, f)


def test_validation_errors():
    w, fam = rotating_setup()
    f = random_mean_zero(1, 2, 4, seed=6)
    shallow = build_reducing_family(w, 3.0, max_depth=1)
    with pytest.raises(CoverageError):
        t_operator(shallow, f)
    with pytest.raises(CoverageError):
        square_norm(f, shallow)
    # symbol rows beyond the detail levels (31 cubes to level 4 against 15
    # to level 3) go unused; a level fewer (7 cubes) raises
    assert fam.operators.shape[1] == 31
    assert apply_symbols(fam.operators[0], f).shape == f.rows.shape == (15, 1, 2)
    with pytest.raises(CoverageError, match="to level 3, 15 rows; the family has 7$"):
        apply_symbols(fam.operators[0, :7], f)


def test_symbols_ending_inside_a_level_raise_coverage_error():
    # the message counts rows, so symbols that stop partway through a level
    # (5 rows: level 1 complete, 2 of level 2's 4) raise CoverageError too
    f = HaarCoefficients.zeros(1, 1, 3)
    for rows in (3, 5, 6):
        with pytest.raises(CoverageError, match=f"to level 2, 7 rows; the family has {rows}$"):
            apply_symbols(np.ones((rows, 1, 1)), f)
    assert apply_symbols(np.ones((7, 1, 1)), f).shape == f.rows.shape


# ---------------------------------------------------------------------------
# batched blocks against a per-function, per-generation loop


@pytest.mark.parametrize("name", ["rot-a06", "rot2d-a05"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_batched_t_blocks_match_a_per_function_loop(name, p):
    w = suite_weight(name)
    fam = build_reducing_family(w, p)
    tree = build_generations(fam, StoppingConfig(lambda1=1.3, lambda2=1.3))
    gens = tree.generation_count()
    assert gens >= 2
    fs = [random_mean_zero(w.d, w.n, w.level, seed=s) for s in range(3)]
    blocks = t_blocks(tree, HaarCoefficients.stack(fs))
    assert blocks.batch == (3, gens)
    got = lp_norm(blocks, p) ** p
    for f, row in zip(fs, got):
        want = []
        for j in range(1, gens + 1):
            # V_I^{-1} f_I on the cubes labelled j, cube by cube
            detail = [
                np.einsum("...ij,...ej->...ei", v, a) * (lab == j)[..., None, None]
                for v, a, lab in zip(*(_levels(rows, w.d)
                                       for rows in (fam.inverses, f.rows, tree.labels)))
            ]
            piece = HaarCoefficients(w.d, w.n, w.level, np.zeros(w.n),
                                     stack_levels(detail, w.d))
            want.append(weighted_lp_norm(haar_reconstruct(piece), w, p) ** p)
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=0)
    tf = t_operator(fam, HaarCoefficients.stack(fs))
    np.testing.assert_allclose(blocks.values.sum(axis=-1), tf.values, atol=1e-12)


def test_single_function_symbols_are_the_per_cube_product():
    w = suite_weight("rot2d-a05")
    fam = build_reducing_family(w, 2.0)
    f = random_mean_zero(w.d, w.n, w.level, seed=9)
    out = apply_symbols(fam.operators[0], f)
    one = apply_symbols(fam.operators[0], HaarCoefficients.stack([f]))  # a batch of 1
    np.testing.assert_array_equal(one[..., 0], out)
    for v, a, y in zip(*(_levels(rows, w.d) for rows in (fam.operators[0], f.rows, out))):
        assert y.shape == a.shape
        for cube in np.ndindex(v.shape[:-2]):
            for e in range(a.shape[-2]):
                np.testing.assert_allclose(y[cube][e], v[cube] @ a[cube][e],
                                           rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("d, level", [(1, 5), (2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbols_on_the_rows_match_the_per_level_products(d, level, n):
    # one apply_cells call over the level-row axis gives the bytes of the
    # per-level calls it replaced, for one function and for a batch
    rng = np.random.default_rng(10 * d + n)
    symbols = rng.standard_normal((sum(1 << (l * d) for l in range(level + 1)), n, n))
    for batch in ((), (4,)):
        f = HaarCoefficients(d, n, level, np.zeros((n,) + batch), rng.standard_normal(
            (sum(1 << (l * d) for l in range(level)), (1 << d) - 1, n) + batch))
        want = stack_levels([apply_cells(s[..., None, :, :], a)
                             for s, a in zip(_levels(symbols, d), _levels(f.rows, d))], d)
        assert apply_symbols(symbols, f).tobytes() == want.tobytes()
