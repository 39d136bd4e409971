"""Acceptance gate: the thirteen criteria on the canonical weight suite.

One test per criterion; each prints the measured line and asserts the
criterion's verdict. Criterion 11 asserts the scalar sharpness windows,
which are structurally out of reach at truncation depth 10 (the max-ratio
direction is capped at sqrt(levels) for every scalar weight, and the power
family's inverse direction follows an exact char^(1/2) law); it is
expected to fail until a weight family with a steeper inverse mechanism
is added. The measured slopes stay recorded in the failure message.
"""

import csv
import dataclasses
import time

import numpy as np
import pytest

import haarweight.acceptance as acc
import haarweight.analysis as analysis
import haarweight.dyadic as dyadic
import haarweight.experiments as experiments
from haarweight import ExperimentConfig, HaarCoefficients, WeightSpec
from haarweight.dyadic import _cube_blocks, _levels


@pytest.fixture(scope="module")
def ctx():
    return acc.AcceptanceContext()


def check(fn, ctx):
    res = fn(ctx)
    print(res.line())
    assert res.passed, res.line()
    return res


def test_criterion_01_haar_exactness(ctx):
    check(acc.c01_haar_exactness, ctx)


def test_criterion_02_p2_reducing_oracle(ctx):
    check(acc.c02_p2_oracle, ctx)


def test_criterion_03_john_sandwich_p3(ctx):
    check(acc.c03_john_sandwich, ctx)


def test_criterion_04_pair_lower_bound(ctx):
    check(acc.c04_pair_lower_bound, ctx)


def test_criterion_05_characteristic_duality(ctx):
    check(acc.c05_duality, ctx)


def test_criterion_06_stopping_decay(ctx):
    check(acc.c06_stopping_decay, ctx)


def test_criterion_07_block_partition_bound(ctx):
    check(acc.c07_block_partition, ctx)


def test_criterion_08_block_identities(ctx):
    check(acc.c08_block_identities, ctx)


def test_criterion_09_cross_term_decay(ctx):
    check(acc.c09_cross_term_decay, ctx)


def test_criterion_10_equivalence_uniform(ctx):
    check(acc.c10_equivalence_uniform, ctx)


def test_criterion_11_slope_and_sharpness(ctx):
    check(acc.c11_slopes_and_sharpness, ctx)


def test_criterion_12_dual_square_bound(ctx):
    check(acc.c12_dual_square_bound, ctx)


def test_criterion_13_determinism(ctx):
    check(acc.c13_determinism, ctx)


# ---------------------------------------------------------------------------
# gate plumbing


def tiny_context():
    cfg = ExperimentConfig(
        experiments=("haar",),
        seed=3,
        ps=(2.0,),
        count=5,
        grids=((1, 1, 3),),
        weights=(
            WeightSpec("wa", family="power", d=1, n=1, level=4,
                       params={"alpha": -0.5}),
            WeightSpec("wb", family="rotating", d=1, n=2, level=3,
                       params={"alpha": 0.4}, seed=2),
        ),
        sweep_alphas=(0.5, -0.5, -0.8),
        sweep_level=5,
    )
    return acc.AcceptanceContext(cfg)


def test_registry_shape():
    assert len(acc.CRITERIA) == 13


def test_run_all_emits_one_line_per_criterion():
    lines = []
    results = acc.run_all(tiny_context(), printer=lines.append)
    assert len(results) == len(lines) == 13
    assert [r.cid for r in results] == list(range(1, 14))
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"criterion {i:02d} ")
        assert ": PASS (" in line or ": FAIL (" in line


def test_run_all_times_each_criterion(monkeypatch):
    def c01_quick(ctx):
        return acc.CriterionResult(1, "quick", True, "x=1")

    def c02_slow(ctx):
        time.sleep(0.05)
        return acc.CriterionResult(2, "slow", False, "x=2")

    monkeypatch.setattr(acc, "CRITERIA", (c01_quick, c02_slow))
    lines = []
    results = acc.run_all(ctx=object(), printer=lines.append)
    assert [r.details for r in results] == ["x=1", "x=2"]
    assert [r.passed for r in results] == [True, False]
    assert 0.0 <= results[0].seconds < 0.05 <= results[1].seconds
    for res, line in zip(results, lines):
        assert line == f"{res.line()} [{res.seconds:.2f} s]"


def test_duality_criterion_fails_on_a_perturbed_family():
    cfg = dataclasses.replace(
        tiny_context().config,
        ps=(3.0,),
        weights=(
            WeightSpec("rot", family="rotating", d=1, n=2, level=4,
                       params={"alpha": 0.6}, seed=3),
        ),
    )
    ctx = acc.AcceptanceContext(cfg)
    assert acc.c05_duality(ctx).passed
    fam = ctx.family("rot", 3.0)
    operators = fam.operators.copy()
    operators[1] *= 1.05  # every V'_I
    bad = dataclasses.replace(fam, operators=operators)
    ctx = acc.AcceptanceContext(cfg)
    ctx._families["rot", 3.0] = bad
    res = acc.c05_duality(ctx)
    print(res.line())
    assert not res.passed


def _rot_p3_config():
    return dataclasses.replace(
        tiny_context().config,
        ps=(3.0,),
        weights=(
            WeightSpec("rot", family="rotating", d=1, n=2, level=4,
                       params={"alpha": 0.6}, seed=3),
        ),
    )


def test_john_sandwich_fails_on_a_shrunk_operator():
    cfg = _rot_p3_config()
    ctx = acc.AcceptanceContext(cfg)
    assert acc.c03_john_sandwich(ctx).passed
    fam = ctx.family("rot", 3.0)
    bad = dataclasses.replace(fam, operators=fam.operators.copy())
    # a level view of the copied rows: a write through it changes the copy
    dyadic._levels(bad.operators[0], 1)[2][1] *= 0.99  # |V_I e| < rho_I(e) on one cube
    ctx = acc.AcceptanceContext(cfg)
    ctx._families["rot", 3.0] = bad
    res = acc.c03_john_sandwich(ctx)
    print(res.line())
    assert not res.passed


def test_john_sandwich_fails_on_a_shrunk_dual_operator():
    # the dual side rho'_I(e) <= |V'_I e| at p' = 3/2 is checked too
    cfg = _rot_p3_config()
    ctx = acc.AcceptanceContext(cfg)
    assert acc.c03_john_sandwich(ctx).passed
    fam = ctx.family("rot", 3.0)
    bad = dataclasses.replace(fam, operators=fam.operators.copy())
    dyadic._levels(bad.operators[1], 1)[2][1] *= 0.99  # |V'_I e| < rho'_I(e) on one cube
    ctx = acc.AcceptanceContext(cfg)
    ctx._families["rot", 3.0] = bad
    res = acc.c03_john_sandwich(ctx)
    print(res.line())
    assert not res.passed


def test_john_sandwich_fails_on_a_shrunk_finest_cube_in_2d():
    # d = 2: rho_I comes from the cube means of the cell integrand
    cfg = dataclasses.replace(
        _rot_p3_config(),
        weights=(
            WeightSpec("rot", family="rotating", d=2, n=2, level=3,
                       params={"alpha": 0.5}),
        ),
    )
    ctx = acc.AcceptanceContext(cfg)
    assert acc.c03_john_sandwich(ctx).passed
    fam = ctx.family("rot", 3.0)
    bad = dataclasses.replace(fam, operators=fam.operators.copy())
    dyadic._levels(bad.operators[0], 2)[3][5, 2] *= 0.99  # one cube of the finest level
    ctx = acc.AcceptanceContext(cfg)
    ctx._families["rot", 3.0] = bad
    res = acc.c03_john_sandwich(ctx)
    print(res.line())
    assert not res.passed


@pytest.mark.parametrize("n", [2, 3])
def test_unit_outer_products_match_the_norm_reference(n):
    # c03's directions, bit for bit, against normalising the draw with
    # np.linalg.norm and taking the outer products on the swapped axes
    got = acc._unit_outer_products(np.random.default_rng(5), 1000, n)
    dirs = np.random.default_rng(5).standard_normal((1000, n))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    cols = dirs.T
    want = (cols[:, None] * cols[None]).reshape(n * n, 1000)
    assert got.tobytes() == want.tobytes()


def test_john_sandwich_line_does_not_depend_on_the_direction_blocks(monkeypatch):
    ctx = tiny_context()
    want = acc.c03_john_sandwich(ctx).line()
    monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", 1)  # one direction per block
    assert acc.c03_john_sandwich(ctx).line() == want


def _power_p3_config():
    return dataclasses.replace(
        tiny_context().config,
        ps=(3.0,),
        weights=(
            WeightSpec("pow", family="power", d=1, n=1, level=6,
                       params={"alpha": 0.3}),
        ),
    )


def test_john_sandwich_fails_on_a_shrunk_scalar_operator():
    # an R^1 weight is checked on its one unit direction; that check can fail
    cfg = _power_p3_config()
    ctx = acc.AcceptanceContext(cfg)
    assert acc.c03_john_sandwich(ctx).passed
    fam = ctx.family("pow", 3.0)
    bad = dataclasses.replace(fam, operators=fam.operators.copy())
    dyadic._levels(bad.operators[0], 1)[3][5] *= 0.99  # |V_I e| < rho_I(e) on one cube
    ctx = acc.AcceptanceContext(cfg)
    ctx._families["pow", 3.0] = bad
    res = acc.c03_john_sandwich(ctx)
    print(res.line())
    assert not res.passed


def test_one_direction_sandwich_matches_random_directions():
    # in R^1 each of 1000 random unit directions gives the rho and |Ve| of e = 1
    ctx = acc.AcceptanceContext(_power_p3_config())
    weight, fam = ctx.weight("pow"), ctx.family("pow", 3.0)
    wp = weight.power_cells(1.0 / 3.0)
    quad = (wp @ wp).reshape(-1, 1)  # 64 cells
    rho1, ve1 = acc._sandwich_norms(quad, fam.operators[0], np.ones((1, 1)), 3.0)
    dirs = np.random.default_rng(0).standard_normal((1000, 1))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    assert set(np.unique(dirs)) == {-1.0, 1.0}
    rho, ve = acc._sandwich_norms(quad, fam.operators[0], (dirs * dirs).reshape(1, 1000), 3.0)
    cubes = (1 << (fam.max_depth + 1)) - 1  # every row of levels 0..6
    assert rho1.shape == ve1.shape == (cubes, 1)
    assert rho.shape == ve.shape == (cubes, 1000)
    for got, want in ((rho, rho1), (ve, ve1)):
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                                   rtol=1e-15, atol=0)


def test_block_sum_identity_fails_on_a_mislabelled_tree(tmp_path):
    cfg = dataclasses.replace(
        tiny_context().config,
        experiments=("multiplier",),
        ps=(3.0,),
        weights=(
            WeightSpec("rot", family="rotating", d=1, n=2, level=4,
                       params={"alpha": 0.6}, seed=3),
        ),
    )
    ctx = acc.AcceptanceContext(cfg)
    assert acc.c08_block_identities(ctx).passed
    tree = ctx.tree("rot", 3.0)
    labels = tree.labels.copy()
    _levels(labels, tree.d)[1][1] = 0  # one detail cube now belongs to no generation
    bad = dataclasses.replace(tree, labels=labels)

    ctx = acc.AcceptanceContext(cfg)
    ctx._trees["rot", 3.0] = bad
    res = acc.c08_block_identities(ctx)
    print(res.line())
    assert not res.passed

    result = experiments.RunResult(out_dir=tmp_path)
    experiments._run_multiplier(ctx, result)
    assert result.ok
    with open(tmp_path / "multiplier_bounds.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["sum_identity_error"]) > 1e-9


def test_block_partition_fails_at_p2_on_a_duplicated_piece(monkeypatch):
    ctx = tiny_context()  # p = 2 only
    assert acc.c07_block_partition(ctx).passed
    split = analysis.split_generations

    def duplicated(coeffs, tree):
        # the first generation's piece twice: the pieces no longer partition f
        pieces = split(coeffs, tree)
        return HaarCoefficients(
            pieces.d, pieces.n, pieces.level,
            np.concatenate([pieces.root_scaling, pieces.root_scaling[..., :1]], axis=-1),
            np.concatenate([pieces.rows, pieces.rows[..., :1]], axis=-1),
        )

    monkeypatch.setattr(analysis, "split_generations", duplicated)
    res = acc.c07_block_partition(tiny_context())
    print(res.line())
    assert not res.passed  # a one-generation tree reads C = 2, which _C7_CAP admits


def test_block_reshape_helper():
    rng = np.random.default_rng(0)
    cells = rng.standard_normal((4, 4, 2, 2))  # d=2, L=2, matrix tail
    out = _cube_blocks(cells, d=2, l=1)
    assert out.shape == (4, 4, 2, 2)
    # cube (0, 1) at level 1 covers cells [0:2, 2:4]
    np.testing.assert_array_equal(
        out[1], cells[0:2, 2:4].reshape(4, 2, 2)
    )
    # averaging the blocks equals the exact pyramid average
    np.testing.assert_allclose(
        out.mean(axis=1).reshape(2, 2, 2, 2),
        cells.reshape(2, 2, 2, 2, 2, 2).mean(axis=(1, 3)),
    )
