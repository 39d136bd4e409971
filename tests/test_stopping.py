"""Stopping-time tests: a fully hand-checked two-cell tree, partition and
admissibility invariants on a rotating weight, the labelling pass against the
per-root block scan it replaced, the row arrays (fired flags and exact decay
sums) against per-level labels, per-cube pair tables, and threshold
calibration against an independent per-pair decay and log-scale bisection."""

import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

from cubes import Cube, stack_levels
from haarweight import (
    CoverageError,
    MatrixWeight,
    ParameterError,
    RunContext,
    ShapeError,
    StoppingConfig,
    WeightFamily,
    build_generations,
    build_reducing_family,
    calibrate_lambdas,
    decay_ratio,
    default_config,
    make_weight,
    split_generations,
    suite_weight_specs,
)
from haarweight.dyadic import (
    GridFunction,
    _levels,
    haar_reconstruct,
    haar_transform,
    refine_to_cells,
)
from haarweight import stopping
from haarweight.reducing import _extreme_singular_values, conjugate_exponent
from haarweight.serialization import tree_to_dict
from haarweight.stopping import (
    _coverage_maxima,
    _covered,
    _least_multipliers,
    _least_threshold,
    _pair_tables,
)


def _pair_table(fam, test, li, lj):
    """Test 1 or 2 of every level-lj cube against its level-li ancestor."""
    return _pair_tables(fam, lj)[test - 1, ..., li]


def two_cell_weight():
    return MatrixWeight(d=1, n=1, level=1, cells=np.array([[[1.0]], [[4.0]]]))


def rotating_setup(level=4, p=3.0):
    fam = WeightFamily("rotating", d=1, n=2, level=level,
                       params={"alpha": 0.6}, seed=3)
    w = make_weight(fam)
    return w, build_reducing_family(w, p)


def test_two_cell_tree_hand_checked():
    w = two_cell_weight()
    fam = build_reducing_family(w, 2.0)
    cfg = StoppingConfig(lambda1=1.2, lambda2=1.2)
    tree = build_generations(fam, cfg)

    # generation 1: the root block; both children fire, for different reasons
    assert tree.generation_count() == 2
    g1, g2 = tree_to_dict(tree)["generations"]
    assert g1["roots"] == [{"level": 0, "index": [0]}]
    fired = {tuple(c["index"]): c for c in g1["stopping"]}
    assert set(fired) == {(0,), (1,)}
    np.testing.assert_array_equal(tree.stopping_masks(1), [False, True, True])
    # left child: weight shrank; ||V_J^{-1} V_I||^2 = 2.5
    assert fired[(0,)]["test2"] == pytest.approx(2.5, rel=1e-12)
    assert fired[(0,)]["test2"] > cfg.lambda2 and fired[(0,)]["test1"] <= cfg.lambda1
    assert fired[(0,)]["reason"] == "shrink"
    assert fired[(0,)]["test1"] == pytest.approx(0.4, rel=1e-12)
    # right child: weight grew; ||V_J V_I^{-1}||^2 = 4/2.5
    assert fired[(1,)]["test1"] == pytest.approx(1.6, rel=1e-12)
    assert fired[(1,)]["test1"] > cfg.lambda1 and fired[(1,)]["test2"] <= cfg.lambda2
    assert fired[(1,)]["reason"] == "growth"

    # generation 2: the fired floor cubes become roots with nothing below
    assert [tuple(c["index"]) for c in g2["roots"]] == [(0,), (1,)]
    assert g2["stopping"] == []
    assert not tree.stopping_masks(2).any()
    assert not g1["floor_hit"] and g2["floor_hit"]
    assert (tree.floor_hit(1), tree.floor_hit(2)) == (False, True)

    assert decay_ratio(tree, 1) == pytest.approx(1.0)
    assert decay_ratio(tree, 2) == 0.0
    assert decay_ratio(tree, 5) == 0.0
    # the rows: the root, then the two level-1 cubes
    np.testing.assert_array_equal(tree.labels, [1, 2, 2])
    np.testing.assert_array_equal(tree.fired, [False, True, True])
    np.testing.assert_allclose(tree.tests, [[0.0, 0.4, 1.6], [0.0, 2.5, 0.625]],
                               rtol=1e-12, atol=0)


def test_constant_weight_single_generation():
    fam = WeightFamily("constant", d=1, n=2, level=4, params={"matrix": np.eye(2)})
    w = make_weight(fam)
    red = build_reducing_family(w, 3.0)
    tree = build_generations(red, StoppingConfig(lambda1=1.5, lambda2=1.5))
    assert tree.generation_count() == 1
    assert tree.floor_hit(1)  # block reaches the floor untruncated
    assert tree.labels.shape == (31,)  # levels 0..4
    np.testing.assert_array_equal(tree.labels, 1)
    assert not tree.fired.any()
    assert decay_ratio(tree, 1) == 0.0


def test_negative_control_tiny_thresholds():
    # lambda barely above 1: every nonconstant child fires immediately
    w, fam = rotating_setup()
    lam = 1.0 + 1e-6
    tree = build_generations(fam, StoppingConfig(lambda1=lam, lambda2=lam))
    assert decay_ratio(tree, 1) == pytest.approx(1.0)


def test_generations_bounded_by_floor_depth():
    # each generation's roots lie strictly below the last, so even thresholds
    # barely above 1 give at most floor + 1 generations
    lam = 1.0 + 1e-6
    for spec in suite_weight_specs():
        fam = build_reducing_family(spec.realize(), 2.0)
        tree = build_generations(fam, StoppingConfig(lambda1=lam, lambda2=lam))
        assert tree.level == spec.level
        assert 1 <= tree.generation_count() <= tree.level + 1
        gens = tree_to_dict(tree)["generations"]
        for prev, rec in zip(gens, gens[1:]):
            assert (min(r["level"] for r in rec["roots"])
                    > min(r["level"] for r in prev["roots"]))


def test_partition_and_admissibility_invariants():
    w, fam = rotating_setup(level=5)
    cfg = StoppingConfig(lambda1=1.4, lambda2=1.4)
    tree = build_generations(fam, cfg)

    # every cube in the truncated tree carries exactly one block label
    labels = _levels(tree.labels, tree.d)
    assert len(labels) == tree.level + 1
    assert tree.labels.min() >= 1 and tree.labels.max() <= tree.generation_count()

    for rec in tree_to_dict(tree)["generations"]:
        j = rec["index"]
        root_at = {}
        for r in (Cube(r["level"], tuple(r["index"])) for r in rec["roots"]):
            for lvl in range(r.level, tree.level + 1):
                mask = np.zeros_like(labels[lvl], dtype=bool)
                sl = r.cell_slices(lvl)
                mask[sl] = True
                root_at.setdefault(lvl, {})[r] = mask
        # kept cubes satisfy both tests against their own block root
        for lvl in range(tree.level + 1):
            in_block = labels[lvl] == j
            for r, mask in root_at.get(lvl, {}).items():
                if r.level == lvl:
                    continue
                sel = in_block & mask
                if not sel.any():
                    continue
                t1 = _pair_table(fam, 1, r.level, lvl)[sel]
                t2 = _pair_table(fam, 2, r.level, lvl)[sel]
                assert (t1 <= cfg.lambda1).all()
                assert (t2 <= cfg.lambda2).all()
        # fired cubes are maximal: the parent stayed in the block
        for c in rec["stopping"]:
            assert c["test1"] > cfg.lambda1 or c["test2"] > cfg.lambda2
            parent = tuple(i >> 1 for i in c["index"])
            assert labels[c["level"] - 1][parent] == j


def test_telescoping_sum_recovers_function():
    w, fam = rotating_setup(level=4)
    tree = build_generations(fam, StoppingConfig(lambda1=1.3, lambda2=1.3))
    assert tree.generation_count() >= 2
    rng = np.random.default_rng(7)
    f = GridFunction(1, 2, 4, rng.standard_normal((16, 2)))
    coeffs = haar_transform(f)
    pieces = split_generations(coeffs, tree)
    assert pieces.batch == (tree.generation_count(),)
    np.testing.assert_array_equal(pieces.root_scaling, 0.0)
    total = haar_reconstruct(pieces).values.sum(axis=-1)
    mean = f.values.mean(axis=0)
    np.testing.assert_allclose(total + mean, f.values, atol=1e-12)

    # every detail coefficient lies in exactly one piece, and the pieces add
    # up to f's details bit for bit
    held = pieces.rows
    assert held.shape == coeffs.rows.shape + pieces.batch
    assert (coeffs.rows != 0.0).all()
    np.testing.assert_array_equal((held != 0.0).sum(axis=-1), 1)
    np.testing.assert_array_equal(held.sum(axis=-1), coeffs.rows)


def test_split_rejects_coefficients_off_the_tree_level():
    w, fam = rotating_setup(level=4)
    tree = build_generations(fam, StoppingConfig(lambda1=1.3, lambda2=1.3))
    rng = np.random.default_rng(8)
    # a finer grid has detail cubes below the floor that carry no label
    for level in (3, 5, 6):
        f = GridFunction(1, 2, level, rng.standard_normal((1 << level, 2)))
        with pytest.raises(ShapeError):
            split_generations(haar_transform(f), tree)


def test_calibration_two_cell_frozen():
    w = two_cell_weight()
    fam = build_reducing_family(w, 2.0)
    res = calibrate_lambdas([("w14", w, fam)], target=0.5)
    # mode 1 must pass 1.6 (right child), mode 2 must pass 2.5 = c * char
    assert res.c1_hat == pytest.approx(1.6, rel=1e-8)
    assert res.lambda1 == pytest.approx(6.4, rel=1e-8)
    assert res.chars["w14"] == pytest.approx(1.5625, rel=1e-12)
    assert res.c2_hat == pytest.approx(2.5 / 1.5625, rel=1e-8)
    assert res.lambda2_by_weight["w14"] == pytest.approx(10.0, rel=1e-8)
    assert res.achieved["w14"] == 0.0

    tree = build_generations(
        fam, StoppingConfig(lambda1=res.lambda1,
                            lambda2=res.lambda2_by_weight["w14"])
    )
    assert decay_ratio(tree, 1) <= res.target


def test_calibration_decay_bound_holds():
    w, fam = rotating_setup(level=4)
    res = calibrate_lambdas([("rot", w, fam)], target=0.5)
    tree = build_generations(
        fam, StoppingConfig(lambda1=res.lambda1,
                            lambda2=res.lambda2_by_weight["rot"])
    )
    for j in range(1, tree.generation_count() + 1):
        assert decay_ratio(tree, j) <= res.target ** j * (1 + 1e-12)
    assert res.achieved["rot"] <= res.target


# Oracle: the per-pair sup decay, and a 60-step log-scale bisection over it.
# They share only the pair tables with the code under test.


def _block_sums(a, d, k):
    """Sums over 2^k x ... x 2^k blocks of a (2^l,)*d array."""
    shape = sum(((s >> k, 1 << k) for s in a.shape), ())
    return a.reshape(shape).sum(axis=tuple(range(1, 2 * d, 2)))


def _sup_decay_per_pair(d, floor, hit):
    worst = 0.0
    for li in range(floor):
        acc = np.zeros(((1 << li),) * d)
        alive = np.ones(((1 << (li + 1)),) * d, dtype=bool)
        for lj in range(li + 1, floor + 1):
            h = hit(li, lj)
            fire = alive & h
            acc += _block_sums(fire.astype(float), d, lj - li) * 2.0 ** (-lj * d)
            if lj < floor:
                alive = refine_to_cells(alive & ~h, d, 1)
        worst = max(worst, float(acc.max()) * 2.0 ** (li * d))
    return worst


def _bisect_log(predicate, lo=1.0, hi=1e6, steps=60):
    if predicate(lo):
        return lo
    assert predicate(hi)
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(steps):
        mid = 0.5 * (llo + lhi)
        if predicate(math.exp(mid)):
            lhi = mid
        else:
            llo = mid
    return math.exp(lhi)


def _oracle_passes(entries, p, target, mode, c):
    """Whether threshold c (times char^{p'/p} for test 2) keeps every
    entry's per-pair sup decay <= target/2."""
    q = conjugate_exponent(p)
    for _, _, fam in entries:
        lam = c * fam.characteristic() ** (q / p) if mode == 2 else c
        hit = lambda li, lj: _pair_table(fam, mode, li, lj) > lam
        if _sup_decay_per_pair(fam.d, fam.level, hit) > target / 2:
            return False
    return True


def _bisected_c_hats(entries, p, target):
    return tuple(_bisect_log(lambda c: _oracle_passes(entries, p, target, mode, c))
                 for mode in (1, 2))


def _suite_entries(names, p):
    specs = {s.name: s for s in suite_weight_specs()}
    out = []
    for name in names:
        w = specs[name].realize()
        out.append((name, w, build_reducing_family(w, p)))
    return out


_D1N2 = ("id2-const", "pow2-a06", "rot-a06", "const-diag19")


@pytest.mark.parametrize(
    "names",
    [
        None,  # the two-cell weight
        _D1N2,
        ("rot2d-a05",),  # plain t/s there misses an ulp-level jump of test 2
        ("pow2d-a05",),
    ],
)
def test_calibration_matches_log_bisection_bit_for_bit(names):
    for p, target in ((2.0, 0.5), (3.0, 0.1), (3.0, 0.9)):
        if names is None:
            w = two_cell_weight()
            entries = [("w14", w, build_reducing_family(w, p))]
        else:
            entries = _suite_entries(names, p)
        res = calibrate_lambdas(entries, target=target)
        c1, c2 = _bisected_c_hats(entries, p, target)
        assert (res.c1_hat, res.c2_hat) == (c1, c2), (p, target)
        assert res.lambda1 == 4.0 * c1


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("names", [_D1N2, ("pow-a03", "pow-am08"), ("pow2d-a05",)],
                         ids=["d1n2", "d1n1", "d2n1"])
def test_calibrated_multipliers_are_least(names, p):
    # each c passes the oracle, and the next double below it fails
    entries = _suite_entries(names, p)
    for target in (0.1, 0.5, 0.9):
        res = calibrate_lambdas(entries, target=target)
        for mode, c in ((1, res.c1_hat), (2, res.c2_hat)):
            assert _oracle_passes(entries, p, target, mode, c)
            if c > 1.0:
                assert not _oracle_passes(entries, p, target, mode,
                                          np.nextafter(c, -np.inf))


def test_least_multipliers_are_least():
    # t / s alone is an ulp off, in either direction, for many of these t
    t = np.exp(np.random.default_rng(5).uniform(-3.0, 3.0, 20000))
    for s in (1.0, 3.0, 1.2025, 0.9):
        c = _least_multipliers(t, s)
        assert (c * s >= t).all()
        assert (np.nextafter(c, -np.inf) * s < t).all()


def _random_table_family(d, floor, rng):
    """A family whose cached pair tables hold uniform random test values; its
    real tables, on constant cells, would hold 1 everywhere."""
    cells = np.ones(((1 << floor),) * d + (1, 1))
    fam = build_reducing_family(MatrixWeight(d=d, n=1, level=floor, cells=cells), 2.0)
    tables = [[rng.random(((1 << lj),) * d + (lj,)) for lj in range(1, floor + 1)]
              for _ in range(2)]
    for lj, both in enumerate(zip(*tables), 1):
        fam._cache["pairs", lj] = np.stack(both)
    return fam


@pytest.mark.parametrize("d", [1, 2])
def test_sup_decay_matches_per_pair_sums(d):
    # the coverage-maxima decay, and the least threshold read from it, against
    # the per-pair sums on random tables; density is the share that fires
    floor = 6 if d == 1 else 4
    fam = _random_table_family(d, floor, np.random.default_rng(11 + d))
    maxima = _coverage_maxima(fam)
    assert [m.shape for m in maxima] == [(2, 1 << (li * d), 1 << ((floor - li) * d))
                                         for li in range(floor)]

    def decay(lam1, lam2):
        return _sup_decay_per_pair(d, floor, lambda li, lj: (
            (_pair_table(fam, 1, li, lj) > lam1) | (_pair_table(fam, 2, li, lj) > lam2)))

    # thresholds equal to coverage maxima, so ties with them are tested too
    values1, values2 = (np.sort(np.concatenate([m[test].ravel() for m in maxima]))
                        for test in (0, 1))
    # the maxima are the injected values of their test, none of the real
    # tables' ones
    for test, values in enumerate((values1, values2)):
        injected = np.concatenate([_pair_tables(fam, lj)[test].ravel()
                                   for lj in range(1, floor + 1)])
        assert np.isin(values, injected).all() and (values < 1.0).all()
    for density in (0.02, 0.1, 0.3, 0.7):
        lam1 = values1[int((1.0 - density) * values1.size)]
        lam2 = values2[int((1.0 - density / 2) * values2.size)]
        for lams in ((lam1, lam2), (lam1, np.inf), (np.inf, lam2)):
            assert _covered(maxima, *lams) == decay(*lams)
    # the least threshold passes each test alone, and the next double below fails
    for target in (0.1, 0.3, 0.5, 0.9):
        least1, least2 = _least_threshold(maxima, target)
        for least, lams in ((least1, lambda lam: (lam, np.inf)),
                            (least2, lambda lam: (np.inf, lam))):
            assert decay(*lams(least)) <= target / 2
            assert decay(*lams(np.nextafter(least, -np.inf))) > target / 2


def test_config_validation():
    with pytest.raises(ParameterError):
        StoppingConfig(lambda1=1.0, lambda2=2.0)
    w, fam = rotating_setup(level=3)
    # the tree takes its exponent from the family it is built from
    assert build_generations(fam, StoppingConfig(lambda1=2.0, lambda2=2.0)).p == 3.0
    shallow = build_reducing_family(w, 3.0, max_depth=1)
    with pytest.raises(CoverageError):
        build_generations(shallow, StoppingConfig(lambda1=2.0, lambda2=2.0))


def test_nan_thresholds_rejected():
    # NaN would compare false everywhere, so nothing would fire; infinity
    # switches a test off and stays allowed
    nan, inf = float("nan"), float("inf")
    for lams in ((nan, 2.0), (2.0, nan), (nan, nan)):
        with pytest.raises(ParameterError, match="exceed 1"):
            StoppingConfig(*lams)
    w, fam = rotating_setup(level=3)
    assert build_generations(fam, StoppingConfig(inf, inf)).generation_count() == 1


# Oracle: the per-root block scan that the single labelling pass replaced.
# Each generation scans below each of its roots in turn; it shares only the
# pair tables with the code under test.


def _scan_block(fam, cfg, root, floor):
    d = fam.d
    fired, kept = [], []
    if root.level >= floor:
        return fired, kept, False
    alive = np.zeros(((1 << (root.level + 1)),) * d, dtype=bool)
    alive[root.cell_slices(root.level + 1)] = True
    floor_hit = False
    for lj in range(root.level + 1, floor + 1):
        t1 = _pair_table(fam, 1, root.level, lj)
        t2 = _pair_table(fam, 2, root.level, lj)
        hit = (t1 > cfg.lambda1) | (t2 > cfg.lambda2)
        keep = alive & ~hit
        for idx in np.argwhere(alive & hit):
            idx = tuple(int(i) for i in idx)
            fired.append((Cube(lj, idx), (float(t1[idx]), float(t2[idx]))))
        kept.append((lj, keep))
        if lj == floor:
            floor_hit = bool(keep.any())
        else:
            alive = refine_to_cells(keep, d, 1)
    return fired, kept, floor_hit


def _per_root_generations(fam, cfg):
    floor, d = fam.level, fam.d
    gen_label = [np.zeros(((1 << l),) * d, dtype=np.int32) for l in range(floor + 1)]
    generations = []  # (roots, {cube: (test1, test2)}, floor_hit)
    roots = [Cube.root(d)]
    j = 0
    while roots:
        j += 1
        stopping, floor_hit = [], False
        for r in roots:
            gen_label[r.level][r.index] = j
            fired, kept, fh = _scan_block(fam, cfg, r, floor)
            stopping.extend(fired)
            floor_hit = floor_hit or fh or r.level == floor
            for lvl, mask in kept:
                gen_label[lvl][mask] = j
        generations.append((set(roots), dict(stopping), floor_hit))
        roots = [c for c, _ in stopping]
    return gen_label, generations


@pytest.fixture(scope="module")
def suite_ctx():
    return RunContext(default_config())


@pytest.mark.parametrize("lam", [1.0 + 1e-6, 1.3, 2.0, None],
                         ids=["1+1e-6", "1.3", "2.0", "calibrated"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_labelling_pass_matches_per_root_scan(suite_ctx, p, lam):
    for spec in suite_ctx.config.weights:
        fam = suite_ctx.family(spec.name, p)
        if lam is None:
            cfg = suite_ctx.stopping_config(spec.name, p)
        else:
            cfg = StoppingConfig(lambda1=lam, lambda2=lam)
        tree = build_generations(fam, cfg)
        gen_label, generations = _per_root_generations(fam, cfg)

        assert tree.labels.dtype == np.int32
        np.testing.assert_array_equal(tree.labels, stack_levels(gen_label, fam.d))
        gens = tree_to_dict(tree)["generations"]
        assert tree.generation_count() == len(generations) == len(gens)
        for rec, (roots, stopping, floor_hit) in zip(gens, generations):
            assert {Cube(r["level"], tuple(r["index"])) for r in rec["roots"]} == roots
            assert {Cube(c["level"], tuple(c["index"])): (c["test1"], c["test2"])
                    for c in rec["stopping"]} == stopping
            assert rec["floor_hit"] == floor_hit
            order = [(c["level"], c["index"]) for c in rec["stopping"]]
            assert order == sorted(order)
            # the mask sum is the per-cube sum of measures, exactly
            assert decay_ratio(tree, rec["index"]) == sum(c.measure for c in stopping)


def test_one_pair_table_per_test_and_level(monkeypatch):
    # calibration and labelling share the tables of a level, and both tests
    # of a level come from one singular-value pass: L passes, not one per
    # test and level (2L) or per (root level, level) pair
    w, fam = rotating_setup(level=6)
    shapes = []

    def counted(mats):
        shapes.append(mats.shape)
        return _extreme_singular_values(mats)

    monkeypatch.setattr(stopping, "_extreme_singular_values", counted)
    res = calibrate_lambdas([("rot", w, fam)])
    build_generations(fam, StoppingConfig(lambda1=res.lambda1,
                                          lambda2=res.lambda2_by_weight["rot"]))
    assert len(shapes) == fam.level == 6
    assert shapes == [(1 << lj, lj, 2, 2) for lj in range(1, 7)]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("name", [s.name for s in suite_weight_specs()])
def test_pair_table_per_cube(suite_ctx, name, p):
    # every suite weight (n = 1, 2, 3; d = 1, 2) against per-pair SVD norms:
    # one read-only table per level, test 1 then test 2
    q = conjugate_exponent(p)
    fam = suite_ctx.family(name, p)
    v = _levels(fam.operators[0], fam.d)
    for lj in range(1, fam.level + 1):
        js = np.indices(((1 << lj),) * fam.d)
        vj = v[lj][tuple(js)]
        tables = _pair_tables(fam, lj)
        assert tables.shape == (2,) + ((1 << lj),) * fam.d + (lj,)
        assert not tables.flags.writeable
        for li in range(lj):
            t1, t2 = tables[..., li]
            vi = v[li][tuple(js >> (lj - li))]
            want1 = np.linalg.norm(vj @ np.linalg.inv(vi), 2, axis=(-2, -1)) ** p
            want2 = np.linalg.norm(np.linalg.inv(vj) @ vi, 2, axis=(-2, -1)) ** q
            np.testing.assert_allclose(t1, want1, rtol=1e-12, atol=0)
            np.testing.assert_allclose(t2, want2, rtol=1e-12, atol=0)


def test_suite_generation_labels_pinned(suite_ctx):
    # one crc32 over the labels of every suite tree at p in {2, 3} on the
    # default config: a change to how the test values are computed must move
    # no stopping decision
    assert len(suite_ctx.cells()) == 18
    crc = 0
    for name, p in suite_ctx.cells():
        labels = suite_ctx.tree(name, p).labels
        crc = zlib.crc32(np.ascontiguousarray(labels, dtype="<i4").tobytes(), crc)
    assert crc == 0x8D77D749


def _suite_and_control_trees(ctx):
    """The 18 suite trees (p in {2, 3}) and, as criterion 6 builds them, the
    negative-control trees at thresholds 1 + 1e-6 and p = 2."""
    control = StoppingConfig(lambda1=1.0 + 1e-6, lambda2=1.0 + 1e-6)
    return ([ctx.tree(name, p) for name, p in ctx.cells()]
            + [build_generations(ctx.family(w.name, 2.0), control)
               for w in ctx.config.weights])


def test_fired_rows_are_the_label_steps(suite_ctx):
    # a cube fired exactly when its label is above its parent's; the root
    # row never fires and carries no test values
    for tree in _suite_and_control_trees(suite_ctx):
        labels, fired = _levels(tree.labels, tree.d), _levels(tree.fired, tree.d)
        assert not fired[0].any() and (tree.tests[:, 0] == 0.0).all()
        for parent, lab, hit in zip(labels, labels[1:], fired[1:]):
            np.testing.assert_array_equal(hit, lab > refine_to_cells(parent, tree.d, 1))


def test_decay_ratio_is_the_exact_measure_sum(suite_ctx):
    # the masked row sum against exact rationals: per level l, the count of
    # cubes labelled j + 1 above their parent's label, times 2^{-l d}
    for tree in _suite_and_control_trees(suite_ctx):
        labels = _levels(tree.labels, tree.d)
        for j in range(1, 6):
            want = sum(Fraction(int(((lab == j + 1)
                                     & (lab > refine_to_cells(parent, tree.d, 1))).sum()),
                                2 ** (lvl * tree.d))
                       for lvl, (parent, lab) in enumerate(zip(labels, labels[1:]), 1))
            assert Fraction(decay_ratio(tree, j)) == want
