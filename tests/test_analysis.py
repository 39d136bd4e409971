"""Square-function and equivalence tests: single-coefficient oracles, the
exact p=2 identities, and dense and brute-force checks of the matrix-free
extremal eigensolve."""

import logging
import math

import numpy as np
import pytest
import scipy.linalg

from cubes import Cube, stack_levels
from sample_weights import rotating_weight, two_cell_weight
from haarweight import (
    CoverageError,
    EigenConvergenceError,
    HaarCoefficients,
    MatrixWeight,
    ParameterError,
    ShapeError,
    StoppingConfig,
    WeightSpec,
    build_generations,
    RunContext,
    build_reducing_family,
    default_config,
    lp_norm,
    make_weight,
    weighted_lp_norm,
)
from haarweight import analysis, dyadic
from haarweight.analysis import (
    SPECTRA,
    block_partition_constant,
    cross_term_rate,
    dual_square_norm,
    equivalence_ratios,
    loglog_slope,
    _probe_operators,
    random_mean_zero_batch,
    sharpness_probe,
    sharpness_probes,
    square_function,
    square_norm,
)
from haarweight.dyadic import haar_reconstruct
from haarweight.multipliers import t_blocks
from haarweight.weights import spd_power_stack
from test_dyadic import haar_eval
from test_reducing import frame_cascade


def random_mean_zero_coefficients(d, n, level, rng, spectrum="flat"):
    """Random detail coefficients, zero root scaling, drawn by _draw_detail."""
    c = HaarCoefficients.zeros(d, n, level)
    analysis._draw_detail(c.rows, d, level, rng, spectrum)
    return c


def identity_weight(level=4, n=2):
    spec = WeightSpec("w", "constant", d=1, n=n, level=level, params={"matrix": np.eye(n)})
    return make_weight(spec)


def test_square_function_single_coefficient():
    w = two_cell_weight()
    fam = build_reducing_family(w, 2.0)
    f = HaarCoefficients.zeros(1, 1, 1)
    f.rows[0, 0] = 1.0
    s = square_function(f, fam)
    np.testing.assert_allclose(s.values[:, 0], math.sqrt(2.5), rtol=1e-14)
    # at any p the scalar V_I is <w>_I^{1/p}, so S f is 2.5^{1/p} on [0, 1)
    for p in (2.0, 3.0):
        assert square_norm(f, build_reducing_family(w, p)) == pytest.approx(
            2.5 ** (1.0 / p), rel=1e-13)
    # support: a child-cube coefficient spreads over that child only
    w4 = MatrixWeight(d=1, n=1, level=2, cells=np.ones((4, 1, 1)))
    fam4 = build_reducing_family(w4, 2.0)
    g = HaarCoefficients.zeros(1, 1, 2)
    g.rows[2, 0] = 3.0  # level 1, index 1
    sv = square_function(g, fam4).values[:, 0]
    np.testing.assert_allclose(sv, [0.0, 0.0, 3.0 * math.sqrt(2.0), 3.0 * math.sqrt(2.0)])


def test_identity_weight_parseval():
    w = identity_weight()
    fam = build_reducing_family(w, 2.0)
    rng = np.random.default_rng(0)
    f = random_mean_zero_coefficients(1, 2, 4, rng, "flat")
    assert square_norm(f, fam) == pytest.approx(np.sqrt(np.sum(f.rows**2)), rel=1e-12)


def test_dual_square_norm_oracles():
    w = two_cell_weight()
    fam = build_reducing_family(w, 2.0)
    f = HaarCoefficients.zeros(1, 1, 1)
    f.rows[0, 0] = 1.0
    assert dual_square_norm(f, fam) == pytest.approx(1 / math.sqrt(2.5), rel=1e-13)

    wid = identity_weight()
    famid = build_reducing_family(wid, 3.0)
    rng = np.random.default_rng(1)
    g = random_mean_zero_coefficients(1, 2, 4, rng, "flat")
    un = lp_norm(square_function(g, famid), 1.5)
    assert dual_square_norm(g, famid) == pytest.approx(un, rel=1e-13)


def p2_sequence_norm(f, weight):
    """(sum_{I,eps} |(m_I W)^{1/2} f_I^eps|^2)^{1/2}, the discrete p=2 form."""
    pyr = dyadic.mean_pyramid(weight.power_cells(1.0), weight.d, f.level - 1)
    y = np.einsum("cij,cej->cei", spd_power_stack(pyr, 0.5), f.rows)
    return math.sqrt(float(np.sum(y * y)))


def test_p2_sequence_norm():
    spec = WeightSpec("w", "constant", d=1, n=2, level=3,
                      params={"matrix": np.diag([1.0, 9.0])})
    w = make_weight(spec)
    f = HaarCoefficients.zeros(1, 2, 3)
    f.rows[0, 0] = [0.0, 1.0]
    assert p2_sequence_norm(f, w) == pytest.approx(3.0, rel=1e-14)

    wr = rotating_weight()
    famr = build_reducing_family(wr, 2.0)
    rng = np.random.default_rng(2)
    g = random_mean_zero_coefficients(1, 2, 4, rng, "flat")
    np.testing.assert_allclose(
        p2_sequence_norm(g, wr), square_norm(g, famr), rtol=1e-10
    )


def test_generator_spectra():
    rng = np.random.default_rng(3)
    spike = random_mean_zero_coefficients(1, 2, 5, rng, "spike")
    nz = int(np.count_nonzero(spike.rows))
    assert nz == 2  # one slot, two components
    assert np.all(spike.root_scaling == 0.0)

    geo = random_mean_zero_coefficients(1, 1, 6, rng, "geometric")
    scales = [float(np.abs(a).max()) for a in dyadic._levels(geo.rows, 1)]
    assert scales[5] < scales[0]
    with pytest.raises(ParameterError):
        random_mean_zero_coefficients(1, 1, 3, rng, "violet")


def _draw_per_level(d, n, level, rng, spectrum):
    """Reference draws: one fresh array per level, in level order."""
    nsig = (1 << d) - 1
    shapes = [((1 << l),) * d + (nsig, n) for l in range(level)]
    if spectrum == "spike":
        detail = [np.zeros(s) for s in shapes]
        l = int(rng.integers(level))
        flat = detail[l].reshape(-1, n)
        flat[int(rng.integers(flat.shape[0]))] = rng.standard_normal(n)
        return detail
    scale = (lambda l: 2.0 ** (-l)) if spectrum == "geometric" else (lambda l: 1.0)
    return [rng.standard_normal(s) * scale(l) for l, s in enumerate(shapes)]


@pytest.mark.parametrize("spectra", [("flat",), SPECTRA], ids=["flat", "cycled"])
def test_batch_draws_match_per_level_draws(spectra):
    w = make_weight(WeightSpec("w", "rotating", d=2, n=2, level=3,
                               params={"alpha": 0.5}, seed=1))
    batch = random_mean_zero_batch(w, 7, [4, 2], spectra)
    assert batch.batch == (7,)
    assert batch.rows.flags.c_contiguous
    np.testing.assert_array_equal(batch.root_scaling, 0.0)
    for i in range(7):
        spectrum = spectra[i % len(spectra)]
        one = random_mean_zero_coefficients(2, 2, 3, np.random.default_rng([4, 2, i]),
                                            spectrum)
        want = _draw_per_level(2, 2, 3, np.random.default_rng([4, 2, i]), spectrum)
        for got, single, ref in zip(dyadic._levels(batch.rows, 2), dyadic._levels(one.rows, 2),
                                    want, strict=True):
            np.testing.assert_array_equal(got[..., i], ref)
            np.testing.assert_array_equal(single, ref)


def test_equivalence_ratios_identity_weight():
    w = identity_weight()
    fam = build_reducing_family(w, 2.0)
    rep = equivalence_ratios(fam, count=12, seed=9)
    np.testing.assert_allclose(rep.ratios, 1.0, atol=1e-10)
    assert rep.char == pytest.approx(1.0)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-10)
    assert rep.c1_emp == pytest.approx(1.0, abs=1e-9)
    assert rep.exponent_upper == pytest.approx(1.5)
    assert rep.exponent_lower == pytest.approx(2.0)
    assert rep.skipped == 0
    assert set(rep.spectrum_of) == set(SPECTRA)
    assert rep.quantiles()["q50"] == pytest.approx(1.0, abs=1e-10)

    again = equivalence_ratios(fam, count=12, seed=9)
    np.testing.assert_array_equal(rep.ratios, again.ratios)


def test_quantiles_match_numpy_bit_for_bit():
    # np.quantile (linear method) is the reference for the report's own sort
    rng = np.random.default_rng(11)
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    for size in [*range(1, 40), 97, 500, 1001]:
        x = rng.lognormal(size=size)
        assert analysis._linear_quantiles(x, qs) == [float(v) for v in np.quantile(x, qs)]


def test_equivalence_exponents_p3():
    w = rotating_weight()
    fam = build_reducing_family(w, 3.0)
    rep = equivalence_ratios(fam, count=6, seed=1)
    assert rep.exponent_upper == pytest.approx(4.0 / 3.0)
    assert rep.exponent_lower == pytest.approx(4.0 / 3.0)  # ceil(1.5) = 2
    assert np.all(rep.ratios > 0)


def test_block_partition_single_generation():
    w = identity_weight()
    fam = build_reducing_family(w, 3.0)
    tree = build_generations(fam, StoppingConfig(lambda1=2.0, lambda2=2.0))
    rng = np.random.default_rng(4)
    f = random_mean_zero_coefficients(1, 2, 4, rng, "flat")
    assert tree.generation_count() == 1
    const, delta_norms = block_partition_constant(f, tree)
    assert const == pytest.approx(1.0, rel=1e-12)
    assert len(delta_norms) == 1
    assert delta_norms[0] == pytest.approx(lp_norm(haar_reconstruct(f), 3.0) ** 3,
                                           rel=1e-12)
    t1 = t_blocks(tree, f)
    assert t1.batch == (1,)
    # T = identity here
    assert lp_norm(t1, 3.0)[0] ** 3 / delta_norms[0] == pytest.approx(1.0, rel=1e-12)


def test_cross_term_rate_smoke():
    spec = WeightSpec("w", "power", d=1, n=1, level=8, params={"alpha": 0.6}, seed=0)
    w = make_weight(spec)
    red = build_reducing_family(w, 2.0)
    tree = build_generations(red, StoppingConfig(lambda1=1.2, lambda2=1.2))
    assert tree.generation_count() >= 3
    rep = cross_term_rate(tree, count=6, seed=0)
    assert rep.n_points > 0 and rep.max_separation >= 2
    assert rep.rate > 0.0
    assert rep.rate_ci95 >= rep.rate

    # a single-generation tree has no separations to fit
    wid = identity_weight()
    famid = build_reducing_family(wid, 3.0)
    t1 = build_generations(famid, StoppingConfig(lambda1=2.0, lambda2=2.0))
    with pytest.raises(ParameterError):
        cross_term_rate(t1, count=2, seed=0)


def test_cross_term_rate_needs_a_function():
    w = rotating_weight()
    tree = build_generations(build_reducing_family(w, 2.0),
                             StoppingConfig(lambda1=1.3, lambda2=1.3))
    with pytest.raises(ParameterError, match="count >= 1"):
        cross_term_rate(tree, count=0)
    with pytest.raises(ParameterError, match="count >= 1"):
        random_mean_zero_batch(w, 0, [1])


def test_equivalence_ratios_need_a_spectrum():
    fam = build_reducing_family(rotating_weight(), 2.0)
    with pytest.raises(ParameterError, match="a spectrum"):
        equivalence_ratios(fam, 3, spectra=())
    with pytest.raises(ParameterError, match="count >= 1"):
        equivalence_ratios(fam, 0)


def test_sharpness_identity():
    w = identity_weight(level=3, n=1)
    probe = sharpness_probe(build_reducing_family(w, 2.0))
    assert probe.max_ratio == pytest.approx(1.0, abs=1e-10)
    assert probe.max_inverse_ratio == pytest.approx(1.0, abs=1e-10)
    assert probe.size == 7


def test_sharpness_brute_force_oracle():
    cells = np.array([1.0, 4.0, 9.0, 16.0]).reshape(4, 1, 1)
    w = MatrixWeight(d=1, n=1, level=2, cells=cells)
    # independent construction of the two quadratic forms via haar_eval
    mids = (np.arange(4) + 0.5) / 4
    cols = []
    for cube in (Cube.root(1), Cube(1, (0,)), Cube(1, (1,))):
        cols.append([haar_eval(cube, (0,), (x,)) for x in mids])
    h = np.array(cols).T
    g = h.T @ np.diag(cells[:, 0, 0]) @ h / 4
    b = np.diag([cells.mean(), cells[:2].mean(), cells[2:].mean()])
    vals = scipy.linalg.eigh(g, b, eigvals_only=True)

    probe = sharpness_probe(build_reducing_family(w, 2.0))
    assert probe.max_ratio == pytest.approx(math.sqrt(vals[-1]), rel=1e-12)
    assert probe.max_inverse_ratio == pytest.approx(1 / math.sqrt(vals[0]), rel=1e-12)


def dense_pencil(weight, blocks):
    """Every eigenvalue, ascending, of scipy.linalg.eigh(G, B): G the Gram
    matrix of ||f||_{L^2(W)}^2 on the detail coefficients, built from the
    dense synthesis matrix, and B the block diagonal with the row of blocks
    of cube I (level-row axis, (cubes, n, n)) on every coefficient of I."""
    d, n, level = weight.d, weight.n, weight.level
    cells = (1 << level) ** d
    cols = []
    for l in range(level):
        f = HaarCoefficients.zeros(d, 1, level)
        flat = dyadic._levels(f.rows, d)[l].reshape(-1)
        for idx in range(flat.size):
            flat[idx] = 1.0
            cols.append(haar_reconstruct(f).values.reshape(cells))
            flat[idx] = 0.0
    h = np.stack(cols, axis=1)
    m = h.shape[1]
    wc = weight.power_cells(1.0).reshape(cells, n, n)
    # G[a i, b j] = sum_c h[c, a] W_c[i, j] h[c, b], one matmul per (i, j)
    g = np.array([[(h.T * wc[:, i, j]) @ h for j in range(n)] for i in range(n)])
    g = g.transpose(2, 0, 3, 1).reshape(m * n, m * n) / cells
    b = np.zeros((m, n, m, n))
    diag = np.repeat(blocks[: m // ((1 << d) - 1)], (1 << d) - 1, axis=0)
    for col, blk in enumerate(diag):
        b[col, :, col, :] = blk
    return scipy.linalg.eigh(g, b.reshape(m * n, m * n), eigvals_only=True)


def dense_probe(weight):
    """Reference (max ratio, max inverse ratio): eigh(G, B) with B the block
    diagonal of the cube averages m_I W."""
    vals = dense_pencil(weight, dyadic.mean_pyramid(weight.power_cells(1.0), weight.d,
                                                    weight.level - 1))
    return math.sqrt(vals[-1]), 1.0 / math.sqrt(vals[0])


def random_symbols(d, n, level, seed):
    """(v, v_inv): one random SPD matrix per cube of level < level, drawn
    level by level, and its inverse, on the level-row axis: symbols that
    come from no reducing family."""
    rng = np.random.default_rng(seed)
    v = []
    for l in range(level):
        a = rng.standard_normal(((1 << l),) * d + (n, n))
        v.append(a @ np.swapaxes(a, -1, -2) + np.eye(n))
    v = stack_levels(v, d)
    return v, np.linalg.inv(v)


def p2_column(w):
    """The probe column of w with the symbols of its own p=2 family."""
    fam = build_reducing_family(w, 2.0)
    return w, fam.operators[0], fam.inverses


def power_weight(alpha, level, d=1, n=1):
    return make_weight(WeightSpec("w", "power", d, n, level, params={"alpha": alpha}, seed=7))


ORACLE_CASES = {
    "power-a05": (lambda: power_weight(0.5, 8), None),
    "power-am09": (lambda: power_weight(-0.9, 8), None),
    "power-am099": (lambda: power_weight(-0.99, 8), None),
    "rotating-n2": (lambda: rotating_weight(level=6), None),
    "logbrownian-d2n2": (
        lambda: make_weight(WeightSpec("w", "logbrownian", 2, 2, 4,
                                       params={"sigma": 0.4}, seed=5)),
        None,
    ),
    "rotating-coarse": (lambda: rotating_weight(level=7), 5),
}


def coarsened(w, level):
    """w averaged down to a level-`level` grid. mean_pyramid averages level by
    level, so the coarse weight's pyramid is bit-identical to w's below it."""
    pyr = dyadic.mean_pyramid(w.power_cells(1.0), w.d, level)
    return MatrixWeight(w.d, w.n, level, dyadic._levels(pyr, w.d)[level])


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_sharpness_probe_matches_dense_oracle(case):
    make, level = ORACLE_CASES[case]
    w = make()
    if level is not None:
        w = coarsened(w, level)
    ratio, inverse = dense_probe(w)
    probe = sharpness_probe(build_reducing_family(w, 2.0))
    assert probe.max_ratio == pytest.approx(ratio, rel=1e-12)
    assert probe.max_inverse_ratio == pytest.approx(inverse, rel=1e-12)


@pytest.mark.parametrize(
    "d, n, grid, level, symbols",
    [(1, 1, 6, 6, "family"), (1, 1, 6, 3, "family"), (2, 2, 4, 4, "family"),
     (2, 2, 4, 2, "family"), (1, 2, 6, 6, "random"), (1, 3, 5, 5, "family")],
    ids=["1-1-6-6", "1-1-6-3", "2-2-4-4", "2-2-4-2", "1-2-6-6-random", "1-3-5-5"],
)
def test_probe_inverse_is_exact(d, n, grid, level, symbols):
    w = make_weight(WeightSpec("w", "logbrownian", d, n, grid, params={"sigma": 0.8}, seed=2))
    w = coarsened(w, level)
    column = (w, *random_symbols(d, n, level, 1)) if symbols == "random" else p2_column(w)
    forward, inverse, size = _probe_operators([column])
    assert size == ((1 << level) ** d - 1) * n
    rng = np.random.default_rng(0)
    col = np.array([0])
    for _ in range(3):
        x = rng.standard_normal((size, 1))
        np.testing.assert_allclose(inverse(forward(x, col), col), x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(forward(inverse(x, col), col), x, rtol=0, atol=1e-12)


def test_probe_operators_take_symbols_from_no_family():
    w = rotating_weight(level=6)
    v, v_inv = random_symbols(1, 2, 6, 4)
    forward, inverse, size = _probe_operators([(w, v, v_inv)])
    assert size == 126
    vals = dense_pencil(w, v @ v)
    (top,) = analysis._largest_eigenvalues(forward, size, 1)
    (inverse_top,) = analysis._largest_eigenvalues(inverse, size, 1)
    assert top == pytest.approx(vals[-1], rel=1e-12)
    assert inverse_top == pytest.approx(1.0 / vals[0], rel=1e-12)


def test_inverse_direction_on_the_inverse_weight_is_the_p2_dual_square_sup():
    # sup_f ||S_{V^{-1}} f||_2 / ||f||_{L^2(W^{-1})}, the ratio criterion 12
    # samples at p = 2: the inverse direction on (W^{-1}, V^{-1}, V)
    ctx = RunContext(default_config())
    w, fam = ctx.weight("pow-am08"), ctx.family("pow-am08", 2.0)
    dual = MatrixWeight(w.d, w.n, w.level, w.power_cells(-1.0))
    _, inverse, size = _probe_operators([(dual, fam.inverses, fam.operators[0])])
    (top,) = analysis._largest_eigenvalues(inverse, size, 1)
    assert size == 1023
    vals = dense_pencil(dual, fam.inverses @ fam.inverses)
    assert math.sqrt(top) == pytest.approx(1.0 / math.sqrt(vals[0]), rel=1e-12)
    f = random_mean_zero_batch(w, 50, [ctx.config.seed, 12])
    ratios = dual_square_norm(f, fam) / weighted_lp_norm(haar_reconstruct(f), dual, 2.0)
    assert ratios.max() <= math.sqrt(top) * (1 + 1e-12)


def clustered_weight(level):
    """d=1, n=2: the frame cascade (m, phi, k) = (8, 0.785, 8). Both probe
    operators have a top eigenvalue of multiplicity >= 3."""
    return frame_cascade(8.0, 0.785, 8, level)


def test_sharpness_probe_converges_on_a_repeated_top_eigenvalue():
    w = clustered_weight(9)
    ratio, inverse = dense_probe(w)
    probe = sharpness_probe(build_reducing_family(w, 2.0))
    assert probe.size == 1022
    assert probe.max_ratio == pytest.approx(ratio, rel=1e-12)
    assert probe.max_inverse_ratio == pytest.approx(inverse, rel=1e-12)


def test_lanczos_cap_raises(monkeypatch):
    monkeypatch.setattr(analysis, "_MAX_MATVECS", 2)
    with pytest.raises(EigenConvergenceError, match="cap of 2 matvecs"):
        w = clustered_weight(9)
        sharpness_probe(build_reducing_family(w, 2.0))


def test_sharpness_single_coefficient():
    w = two_cell_weight()  # G = 2.5 = B, so both ratios are 1
    probe = sharpness_probe(build_reducing_family(w, 2.0))
    assert probe.size == 1
    assert probe.max_ratio == pytest.approx(1.0, rel=1e-15)
    assert probe.max_inverse_ratio == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ShapeError):
        w0 = MatrixWeight(d=1, n=1, level=0, cells=np.ones((1, 1, 1)))
        sharpness_probe(build_reducing_family(w0, 2.0))


def test_sharpness_deep_grid_bounds_rayleigh_quotients():
    w = power_weight(-0.9, 13)  # 8192 cells
    probe = sharpness_probe(build_reducing_family(w, 2.0))
    assert probe.size == 8191
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_mean_zero_coefficients(1, 1, 13, rng, "flat")
        r = weighted_lp_norm(haar_reconstruct(f), w, 2.0) / p2_sequence_norm(f, w)
        assert 1.0 / probe.max_inverse_ratio <= r * (1 + 1e-12)
        assert r <= probe.max_ratio * (1 + 1e-12)
    again = sharpness_probe(build_reducing_family(w, 2.0))
    assert (again.max_ratio, again.max_inverse_ratio) == (
        probe.max_ratio, probe.max_inverse_ratio)


def test_probe_needs_the_p2_family_of_its_own_weight():
    w = rotating_weight(level=5)
    with pytest.raises(ParameterError, match="p=2 family"):
        sharpness_probe(build_reducing_family(w, 3.0))
    # the details run to level L - 1 = 4: a family to depth 3 falls short
    with pytest.raises(CoverageError, match="to level 4, 31 rows; the family has 15$"):
        sharpness_probe(build_reducing_family(w, 2.0, max_depth=3))
    assert sharpness_probe(build_reducing_family(w, 2.0, max_depth=4)) == \
        sharpness_probe(build_reducing_family(w, 2.0))


def test_lanczos_logs_one_debug_record(caplog):
    weights = [rotating_weight(level=6),
               make_weight(WeightSpec("w", "logbrownian", 1, 2, 6,
                                      params={"sigma": 0.4}, seed=5))]
    forward, _, size = _probe_operators([p2_column(w) for w in weights])
    with caplog.at_level(logging.DEBUG, logger="haarweight"):
        tops = analysis._largest_eigenvalues(forward, size, len(weights))
    records = [r for r in caplog.records if r.name == "haarweight.analysis"]
    # one record per converged column, written when that column converges
    assert len(records) == len(weights)
    assert sorted(r.args[4] for r in records) == sorted(tops)
    assert len({r.args[1] for r in records}) == len(weights)
    for record in records:
        assert record.levelno == logging.DEBUG
        rec_size, matvecs, restarts, residual, theta, seconds = record.args
        assert rec_size == size == 126
        assert residual <= analysis._EPS * theta
        # the first cycle fills the basis, every later one adds _BASIS - _KEEP
        assert restarts >= 1
        grown = analysis._BASIS - analysis._KEEP
        assert analysis._BASIS + (restarts - 1) * grown < matvecs
        assert matvecs <= analysis._BASIS + restarts * grown
        assert seconds > 0.0
        for key in ("matvecs=", "restarts=", "residual=", "theta=", "seconds="):
            assert key in record.getMessage()


@pytest.mark.parametrize("weights", [
    lambda: [power_weight(a, 8) for a in (0.5, -0.9, -0.99)],
    lambda: [rotating_weight(level=6),
             make_weight(WeightSpec("w", "rotating", 1, 2, 6, params={"alpha": 0.9}))],
], ids=["power", "rotating"])
def test_grouped_probes_match_single_pair_probes_in_input_order(weights):
    families = [build_reducing_family(w, 2.0) for w in weights()]
    probes = sharpness_probes(families)
    assert len(probes) == len(families)
    for fam, probe in zip(families, probes):
        w = fam.weight
        alone = sharpness_probe(fam)
        assert probe.size == alone.size == (1 << w.level) * w.n - w.n
        assert probe.max_ratio == pytest.approx(alone.max_ratio, rel=1e-14)
        assert probe.max_inverse_ratio == pytest.approx(alone.max_inverse_ratio,
                                                        rel=1e-14)
        ratio, inverse = dense_probe(w)
        assert probe.max_ratio == pytest.approx(ratio, rel=1e-12)
        assert probe.max_inverse_ratio == pytest.approx(inverse, rel=1e-12)


def test_a_scalar_d2_probe_reads_the_same_alone_and_in_a_group():
    # the pyramid treats each column alone, so a one-column batch and a
    # three-column batch give the same bits (a folded value axis of length
    # one once took another einsum summation path: 1.1652408079523253 alone
    # against ...255 in the group for alpha = 0.9)
    weights = [make_weight(WeightSpec("w", "power", 2, 1, 5, params={"alpha": a}, seed=1))
               for a in (0.5, -0.5, 0.9)]
    families = [build_reducing_family(w, 2.0) for w in weights]
    for fam, probe in zip(families, sharpness_probes(families)):
        assert sharpness_probe(fam) == probe


def test_level_one_weights_probe_inside_a_group():
    flat = MatrixWeight(d=1, n=1, level=1, cells=np.array([[[3.0]], [[5.0]]]))
    w0 = MatrixWeight(d=1, n=1, level=0, cells=np.ones((1, 1, 1)))
    weights = [two_cell_weight(), w0, flat]
    probes = sharpness_probes([build_reducing_family(w, 2.0) for w in weights])
    assert isinstance(probes[1], ShapeError)
    for probe in (probes[0], probes[2]):  # one coefficient: G = B, both ratios 1
        assert probe.size == 1
        assert probe.max_ratio == pytest.approx(1.0, rel=1e-15)
        assert probe.max_inverse_ratio == pytest.approx(1.0, rel=1e-15)


def test_a_capped_column_fails_only_its_own_pair(monkeypatch):
    fast, slow = rotating_weight(level=8), clustered_weight(8)
    families = [build_reducing_family(w, 2.0) for w in (slow, fast)]
    alone = sharpness_probe(families[1])
    # rotating_weight(8) converges in 29 / 16 matvecs, clustered_weight(8)
    # needs 901 / 1356
    monkeypatch.setattr(analysis, "_MAX_MATVECS", 100)
    capped, probe = sharpness_probes(families)
    assert isinstance(capped, EigenConvergenceError)
    assert "cap of 100 matvecs" in str(capped)
    assert probe.size == alone.size
    assert probe.max_ratio == pytest.approx(alone.max_ratio, rel=1e-14)
    assert probe.max_inverse_ratio == pytest.approx(alone.max_inverse_ratio, rel=1e-14)


def test_a_pair_off_the_grid_fails_only_itself():
    weights = [power_weight(0.5, 6), rotating_weight(level=6), power_weight(-0.9, 6),
               power_weight(-0.5, 5)]
    families = [build_reducing_family(w, 2.0) for w in weights]
    alone = [sharpness_probe(fam) for fam in families[::2]]
    probes = sharpness_probes(families)
    # the first family fixes the grid (1, 1, 6): n = 2 and L = 5 are off it
    assert [type(p) for p in probes[1::2]] == [ShapeError] * 2
    assert "(1, 2, 6)" in str(probes[1]) and "(1, 1, 5)" in str(probes[3])
    for probe, ref in zip(probes[::2], alone):
        assert probe == ref


def test_a_call_that_raises_fails_every_checked_pair(monkeypatch):
    w0 = MatrixWeight(d=1, n=1, level=0, cells=np.ones((1, 1, 1)))
    weights = [w0, power_weight(0.5, 6), power_weight(-0.9, 6)]
    families = [build_reducing_family(w, 2.0) for w in weights]

    def singular(group):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(analysis, "_probe_operators", singular)
    probes = sharpness_probes(families)
    assert isinstance(probes[0], ShapeError)
    assert [type(p) for p in probes[1:]] == [np.linalg.LinAlgError] * 2
    with pytest.raises(np.linalg.LinAlgError):
        sharpness_probe(families[1])


def test_loglog_slope_recovers_power_law():
    chars = np.array([2.0, 10.0, 80.0, 500.0])
    fit = loglog_slope(chars, 3.0 * chars**0.7)
    assert fit["slope"] == pytest.approx(0.7, rel=1e-12)
    assert fit["stderr"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# batched evaluation against a per-function loop


def suite_weight(name):
    from haarweight import suite_weight_specs

    (spec,) = [s for s in suite_weight_specs() if s.name == name]
    return spec.realize()


def oracle_pieces(f, tree):
    """Delta_j f, j = 1..G, each masked on its own from the tree's labels."""
    return [
        HaarCoefficients(
            f.d, f.n, f.level, np.zeros(f.n),
            stack_levels([a * (lab == j)[..., None, None]
                          for a, lab in zip(*(dyadic._levels(rows, f.d)
                                              for rows in (f.rows, tree.labels)))], f.d),
        )
        for j in range(1, tree.generation_count() + 1)
    ]


@pytest.fixture(scope="module", params=[
    ("rot-a06", 2.0), ("rot-a06", 3.0), ("rot2d-a05", 2.0), ("rot2d-a05", 3.0),
])
def suite_case(request):
    name, p = request.param
    w = suite_weight(name)
    fam = build_reducing_family(w, p)
    tree = build_generations(fam, StoppingConfig(lambda1=1.3, lambda2=1.3))
    assert tree.generation_count() >= 2
    return w, fam, tree, p


def test_batched_ratios_match_a_per_function_loop(suite_case):
    w, fam, _, p = suite_case
    rep = equivalence_ratios(fam, count=9, seed=4)
    want = []
    for i in range(9):
        rng = np.random.default_rng([4, i])
        f = random_mean_zero_coefficients(w.d, w.n, w.level, rng, SPECTRA[i % 3])
        want.append(weighted_lp_norm(haar_reconstruct(f), w, p) / square_norm(f, fam))
    assert rep.skipped == 0
    np.testing.assert_allclose(rep.ratios, want, rtol=1e-13, atol=0)


def test_batched_partition_constants_match_a_per_function_loop(suite_case):
    w, _, tree, p = suite_case
    rng = np.random.default_rng(5)
    fs = [random_mean_zero_coefficients(w.d, w.n, w.level, rng, s) for s in SPECTRA]
    consts, parts = block_partition_constant(HaarCoefficients.stack(fs), tree)
    assert parts.shape == (3, tree.generation_count())
    for f, const, row in zip(fs, consts, parts):
        want = [lp_norm(haar_reconstruct(c), p) ** p for c in oracle_pieces(f, tree)]
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=0)
        denom = lp_norm(haar_reconstruct(f), p) ** p
        assert const == pytest.approx(sum(want) / denom, rel=1e-13)
        single, single_parts = block_partition_constant(f, tree)
        assert single == pytest.approx(const, rel=1e-13)
        np.testing.assert_allclose(single_parts, row, rtol=1e-13, atol=0)


def test_column_blocks_match_one_batch(suite_case, monkeypatch):
    # block_partition_constant and cross_term_rate stream the function
    # columns in blocks; one column per block gives the one-batch values
    # byte for byte, since every column is computed as it is alone
    w, fam, tree, p = suite_case
    f = random_mean_zero_batch(w, 7, [9], SPECTRA)
    whole = block_partition_constant(f, tree)
    rate = cross_term_rate(tree, count=7, seed=9)
    monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", 1)
    assert len(list(dyadic._column_blocks(f, 1))) == 7
    for got, want in zip(block_partition_constant(f, tree), whole):
        assert got.tobytes() == want.tobytes()
    assert cross_term_rate(tree, count=7, seed=9) == rate


def test_batched_dual_square_norm_matches_single_calls(suite_case):
    # and the other L^p readers: each column of a batch reads the same bits
    # as that function alone
    w, fam, _, p = suite_case
    rng = np.random.default_rng(6)
    fs = [random_mean_zero_coefficients(w.d, w.n, w.level, rng) for _ in range(4)]
    batch = HaarCoefficients.stack(fs)
    for norm in (square_norm, dual_square_norm):
        np.testing.assert_array_equal(norm(batch, fam), [norm(f, fam) for f in fs])
    np.testing.assert_array_equal(
        weighted_lp_norm(haar_reconstruct(batch), w, p),
        [weighted_lp_norm(haar_reconstruct(f), w, p) for f in fs])


def test_equivalence_seed_is_not_truncated_to_32_bits():
    w = suite_weight("pow-a03")
    fam = build_reducing_family(w, 2.0)
    low = equivalence_ratios(fam, count=5, seed=7)
    high = equivalence_ratios(fam, count=5, seed=2**32 + 7)
    assert not np.array_equal(low.ratios, high.ratios)


# ---------------------------------------------------------------------------
# the least-squares helper, against scipy.stats.linregress


def test_line_fit_equals_linregress():
    import scipy.stats

    from haarweight.analysis import _linregress

    rng = np.random.default_rng(12)
    cases = [([0.0, 1.0], [2.0, 5.0]), ([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])]
    for n in (3, 4, 7, 30, 200):
        x = rng.standard_normal(n)
        cases.append((x, 0.3 * x + rng.standard_normal(n)))
        cases.append((rng.integers(1, 6, n).astype(float), rng.standard_normal(n)))
    for x, y in cases:
        if np.ptp(x) == 0.0:
            continue
        with np.errstate(invalid="ignore"):
            want = scipy.stats.linregress(x, y)
        got = _linregress(x, y)
        for field in ("slope", "intercept", "rvalue", "stderr"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    with pytest.raises(ParameterError):
        _linregress([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
