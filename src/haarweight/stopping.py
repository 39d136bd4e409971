"""Stopping-time decomposition of the dyadic tree driven by reducing operators.

Inside a block rooted at I, a descendant J is a stopping cube when the
reducing operators drift too far apart:

    ||V_J V_I^{-1}||^p  > lambda1    (test 1: the weight grew)
    ||V_J^{-1} V_I||^p' > lambda2    (test 2: the weight shrank)

The maximal such J (first hit on the way down) form the next generation of
block roots; the cubes visited before any hit form the block F(I). One pass
down the levels labels every cube with its generation: each cube is tested
against its parent's block root; a cube that fires takes its parent's label
+ 1 and roots its own block, and any other cube inherits both. Blocks
partition the tree down to the floor, the grid level L; cubes at the floor may
fire but are never split further, and a generation with a floor cube is
flagged, since its subtree was truncated rather than exhausted. Each
generation's roots lie strictly below the last, so there are at most L + 1
generations.

Both passes read one table per level (_pair_tables): both tests of every
level-lj cube against each of its lj ancestors, from one product per pair,
M = V_J V_I^{-1} (test 1 is sigma_max(M)^p, test 2 sigma_min(M)^{-p'}). The
labelling pass picks each cube's two values at its root level, and
calibration folds the tables into running maxima.

The tree is its family and three row arrays on the level-row axis of
levels 0..floor (see dyadic): each cube's label, whether it fired, and its
two test values; no per-cube records are built. Generation j's stopping
cubes are the fired cubes labelled j + 1, and generation j + 1's roots are
the same cubes.

The same labels split a function and the operators built on it:
split_generations cuts f's detail coefficients into one piece per block,
stacked on a trailing generation axis, and the pieces Delta_j f add up to f
minus its mean.

Thresholds are calibrated against the measured per-cube decay of the fired
region, separately per test (each to half the target, so the union meets the
target), then returned with a 4x margin; lambda2 additionally scales with the
characteristic to the power p'/p. Below a root cube I, the maximal fired
cubes cover exactly the floor cells whose coverage maximum, the largest test
value over the cubes between the cell and I, exceeds the threshold. So the
smallest passing threshold is read exactly as an order statistic: the
(k+1)-th largest maximum in I, k = floor(target/2 * |I| in floor cells),
largest over all I.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import (
    HaarCoefficients,
    _cube_blocks,
    _cube_count,
    _level_factors,
    _levels,
    refine_to_cells,
)
from .errors import CoverageError, ParameterError, ShapeError
from .reducing import ReducingFamily, _extreme_singular_values, conjugate_exponent

__all__ = [
    "StoppingConfig",
    "GenerationTree",
    "build_generations",
    "decay_ratio",
    "split_generations",
    "calibrate_lambdas",
    "CalibrationResult",
]


@dataclass(frozen=True)
class StoppingConfig:
    """Thresholds for one decomposition; the exponent is the family's."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        # written so that NaN fails, and infinity (a test that never fires) passes
        if not self.lambda1 > 1.0 or not self.lambda2 > 1.0:
            raise ParameterError(
                f"thresholds must exceed 1, got {self.lambda1}, {self.lambda2}"
            )


@dataclass(eq=False)
class GenerationTree:
    """A stopping tree is its reducing family and three row arrays on the
    level-row axis of levels 0..floor.

    labels holds each cube's generation label, fired whether the cube fired
    a test against its parent's block root, and tests[0] and tests[1] the
    two test values there (0.0 on the root row, which never fires). The
    exponent p and the grid (d, L) are the family's, so the tree reaches W
    through the family. Only this module reads the label encoding;
    stopping_masks and floor_hit give the generations it stands for.
    """

    config: StoppingConfig
    family: ReducingFamily  # the family the tree was built from
    labels: np.ndarray  # (cubes,) int32 generation labels
    fired: np.ndarray  # (cubes,) bool: the cube opened a generation
    tests: np.ndarray  # (2, cubes): test 1 and test 2 against the parent's root

    p = property(lambda self: self.family.p)
    d = property(lambda self: self.family.d)
    level = property(lambda self: self.family.level)

    def generation_count(self) -> int:
        """The largest floor label: labels never drop down the tree."""
        return int(self.labels[_cube_count(self.d, self.level):].max())

    def stopping_masks(self, j: int) -> np.ndarray:
        """Generation j's stopping cubes as one row mask: the fired cubes
        labelled j + 1."""
        return self.fired & (self.labels == j + 1)

    def floor_hit(self, j: int) -> bool:
        """Whether generation j reaches the floor: a floor cube is labelled j."""
        return bool((self.labels[_cube_count(self.d, self.level):] == j).any())


def _pair_tables(family: ReducingFamily, lj: int) -> np.ndarray:
    """Both test values of every level-lj cube J against each of its
    ancestors, a read-only (2,) + (2^lj,)*d + (lj,) array: at li, index 0
    holds ||V_J V_I^{-1}||^p (test 1) and index 1 ||V_J^{-1} V_I||^{p'}
    (test 2), I the level-li ancestor of J.

    Both come from one stacked product per pair, M = V_J V_I^{-1}, each
    computed as it is alone: test 1 is sigma_max(M)^p, and since the
    operators are symmetric, V_J^{-1} V_I is the transpose of M^{-1}, so
    test 2 is sigma_min(M)^{-p'}. The transient product stack holds
    lj 2^{lj d} n^2 floats and the table 2 lj 2^{lj d}, so the peak is at
    the floor, lj = L. Cached on the family."""
    key = ("pairs", lj)
    if key not in family._cache:
        d = family.d
        # allocated before the transient stacks it is made from, so that they are
        # freed above it on the heap
        tables = np.empty((2,) + ((1 << lj),) * d + (lj,))
        v, inv = (_levels(a, d) for a in (family.operators[0], family.inverses))
        ancestors = np.stack([refine_to_cells(inv[li], d, lj - li) for li in range(lj)],
                             axis=d)
        tables[0], tables[1] = _extreme_singular_values(v[lj][..., None, :, :] @ ancestors)
        tables[0] **= family.p
        tables[1] **= -conjugate_exponent(family.p)
        tables.flags.writeable = False
        family._cache[key] = tables
    return family._cache[key]


def _floor(family: ReducingFamily) -> int:
    """The floor is the grid level; the family must reach it."""
    if family.level > family.max_depth:
        raise CoverageError(
            f"floor {family.level} beyond family depth {family.max_depth}"
        )
    return family.level


def build_generations(family: ReducingFamily, cfg: StoppingConfig) -> GenerationTree:
    """Label every cube in one pass down the levels (see the module
    docstring), keeping each cube's two test values; the tests use the
    family's exponent."""
    floor = _floor(family)
    d = family.d
    rows = _cube_count(d, floor + 1)
    labels, fired, tests = np.ones(rows, np.int32), np.zeros(rows, bool), np.zeros((2, rows))
    label, hit = _levels(labels, d), _levels(fired, d)
    lams = np.reshape([cfg.lambda1, cfg.lambda2], (2,) + (1,) * d)
    root_at = np.zeros((1,) * d, dtype=np.int32)  # level of each cube's block root
    for lj in range(1, floor + 1):
        root_at = refine_to_cells(root_at, d, 1)
        t = np.take_along_axis(_pair_tables(family, lj), root_at[None, ..., None],
                               axis=-1)[..., 0]
        tests[:, _cube_count(d, lj) : _cube_count(d, lj + 1)] = t.reshape(2, -1)
        hit[lj][...] = (t > lams).any(axis=0)
        label[lj][...] = refine_to_cells(label[lj - 1], d, 1) + hit[lj]
        root_at = np.where(hit[lj], lj, root_at)
    return GenerationTree(config=cfg, family=family, labels=labels, fired=fired,
                          tests=tests)


def decay_ratio(tree: GenerationTree, j: int) -> float:
    """Relative measure of the union of generation-j stopping cubes: one
    masked sum of the cube measures 2^{-l d}. The cubes are disjoint, so
    every term and partial sum is a multiple of 2^{-L d} no larger than 1,
    and the sum is exact."""
    if j < 1:
        raise ParameterError(f"generation index must be >= 1, got {j}")
    d = tree.d
    measure = _level_factors(d, tuple(2.0 ** (-l * d) for l in range(tree.level + 1)))
    return float(measure[tree.stopping_masks(j)].sum())


def split_generations(
    coeffs: HaarCoefficients, tree: GenerationTree
) -> HaarCoefficients:
    """Split f into its generation pieces, one batch with a new last axis.

    Index j-1 of that axis keeps the detail coefficients on the cubes
    labelled j; the root scaling is zero, so haar_reconstruct of it is
    Delta_j f. Every detail cube carries exactly one label, so the pieces
    add up to f minus its mean. A batch f gets the generation axis after its
    own batch axes. One mask on the level-row axis covers every level.
    """
    if (coeffs.d, coeffs.level) != (tree.d, tree.level):
        raise ShapeError(
            f"coefficients (d={coeffs.d}, level {coeffs.level}) do not match "
            f"the tree (d={tree.d}, level {tree.level})"
        )
    gens = np.arange(1, tree.generation_count() + 1)
    labels = tree.labels[: coeffs.rows.shape[0]]
    mask = labels.reshape(labels.shape + (1,) * coeffs.rows.ndim) == gens
    root = np.zeros(coeffs.root_scaling.shape + gens.shape)
    return HaarCoefficients(coeffs.d, coeffs.n, coeffs.level, root,
                            coeffs.rows[..., None] * mask)


# ---------------------------------------------------------------------------
# threshold calibration


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated thresholds: lambda1 fixed, lambda2 scales with the weight."""

    p: float
    target: float
    c1_hat: float
    c2_hat: float
    lambda1: float
    chars: dict
    lambda2_by_weight: dict
    achieved: dict  # weight name -> measured combined sup decay at the margins


def _coverage_maxima(family: ReducingFamily) -> list:
    """Per root level li < floor, the coverage maxima of both tests, as a
    (2 tests, level-li cubes I, floor cells per I) array: for each floor
    cell x in I, the largest test value over the cubes J with x in J
    strictly inside I.

    The maximal cubes J inside I with test value above lam cover exactly the
    floor cells whose maximum is above lam. One pass down the levels carries
    each test's running maxima of every root level li < lj on a last axis;
    level lj adds its table against each ancestor and opens the column of
    root level lj - 1.
    """
    floor, d = _floor(family), family.d
    tops = [np.zeros((1,) * d + (0,))] * 2
    for lj in range(1, floor + 1):
        tops = [np.concatenate([np.maximum(refine_to_cells(top, d, 1), t[..., :-1]),
                                t[..., -1:]], axis=-1)
                for top, t in zip(tops, _pair_tables(family, lj))]
    return [np.stack([_cube_blocks(top[..., li], d, li) for top in tops]) for li in range(floor)]


def _least_threshold(maxima: list, target: float) -> np.ndarray:
    """Least lam of each test whose fired cubes cover at most target/2 of
    every cube I, as a (2,) array.

    A cube of N floor cells passes when at most k = floor(target/2 * N) of
    its maxima exceed lam (N is a power of two, so the product is exact),
    that is when lam is at least its (k+1)-th largest maximum. 0 when the
    floor is the root: nothing can fire there.
    """
    least = np.zeros(2)
    for top in maxima:
        cells = top.shape[-1]
        rank = cells - 1 - int(target / 2 * cells)
        least = np.maximum(least, np.partition(top, rank, axis=-1)[..., rank].max(axis=-1))
    return least


def _least_multipliers(t: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """Elementwise least double c with c * s >= t (in floating point)."""
    c = t / s
    while (low := c * s < t).any():
        c = np.where(low, np.nextafter(c, np.inf), c)
    while (high := np.nextafter(c, -np.inf) * s >= t).any():
        c = np.where(high, np.nextafter(c, -np.inf), c)
    return c


def _covered(maxima: list, lambda1: float, lambda2: float) -> float:
    """sup over cubes I of the share of I covered by the maximal cubes that
    fire either test. Each share is a count over a power of two, so exact."""
    lams = np.reshape([lambda1, lambda2], (2, 1, 1))
    return max((float((top > lams).any(axis=0).sum(axis=1).max()) / top.shape[-1]
                for top in maxima), default=0.0)


def calibrate_lambdas(
    weights_and_families: list,
    target: float = 0.5,
) -> CalibrationResult:
    """Calibrate (lambda1, lambda2) so every weight's stopping tree decays.

    weights_and_families: list of (name, weight, family) with a common
    exponent. Each test gets the smallest threshold with per-cube sup decay
    <= target/2 (the union of the two fired regions then stays <= target):
    an order statistic of each weight's coverage maxima, then the least
    double multiplier c >= 1 that reaches it for every weight. The returned
    thresholds carry a 4x margin; by monotonicity the measured decay at the
    margins can only shrink. lambda2 is per weight: 4 c2 char^{p'/p}.
    """
    if not weights_and_families:
        raise ParameterError("need at least one weight to calibrate")
    ps = {fam.p for _, _, fam in weights_and_families}
    if len(ps) != 1:
        raise ParameterError(f"mixed exponents in calibration suite: {sorted(ps)}")
    p = ps.pop()
    q = conjugate_exponent(p)
    if not 0.0 < target < 1.0:
        raise ParameterError(f"target decay must lie in (0,1), got {target}")
    maxima, chars = {}, {}
    for name, _, fam in weights_and_families:
        maxima[name] = _coverage_maxima(fam)
        chars[name] = fam.characteristic()
    least = np.array([_least_threshold(m, target) for m in maxima.values()])
    # per weight, test 1's threshold is c1 and test 2's c2 char^{p'/p}
    scale = np.array([(1.0, char ** (q / p)) for char in chars.values()])
    c1, c2 = (max(1.0, float(c)) for c in _least_multipliers(least, scale).max(axis=0))
    lambda1 = 4.0 * c1
    lambda2s = {name: 4.0 * c2 * char ** (q / p) for name, char in chars.items()}
    achieved = {name: _covered(maxima[name], lambda1, lambda2s[name]) for name in chars}
    return CalibrationResult(
        p=p,
        target=target,
        c1_hat=c1,
        c2_hat=c2,
        lambda1=lambda1,
        chars=chars,
        lambda2_by_weight=lambda2s,
        achieved=achieved,
    )
