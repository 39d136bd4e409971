"""The thirteen acceptance checks, one function per criterion.

Each check returns a CriterionResult with the measured quantities in its
details string; run_all prints one pass/fail line per criterion, followed by
the seconds the check took. Empirical caps are frozen here with the
measurements that motivated them; they are reported, never tuned per weight.
"""

from __future__ import annotations

import math
import tempfile
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    block_partition_constant,
    cross_term_rate,
    dual_square_norm,
    equivalence_ratios,
    random_mean_zero_batch,
)
from .config import ExperimentConfig, default_config
from .dyadic import _cube_blocks, _levels, _random_exactness_errors, _spans, haar_reconstruct
from .errors import HaarweightError
from .experiments import RunContext, alpha_sweep_report, run_experiments
from .multipliers import t_blocks, t_operator
from .reducing import build_reducing_family, conjugate_exponent, fit_count, scan_depth
from .stopping import (
    StoppingConfig,
    build_generations,
    calibrate_lambdas,
    decay_ratio,
)
from .weights import (
    MatrixWeight,
    WeightFamily,
    _serial_matmul,
    make_weight,
    spd_power_stack,
    weighted_lp_norm,
)

__all__ = ["CriterionResult", "AcceptanceContext", "CRITERIA", "run_all"]

# frozen empirical caps (suite measurements in parentheses)
_C7_CAP = 2.0  # block partition constant at p != 2: measured max 1.002 over the suite
_C10_CAP = 4.0  # normalized equivalence constants: measured max 1.13
_C12_CAP = 10.0  # dual square bound: measured max 1.09; documented anchor 10
_SHARP_RATIO_WINDOW = (0.35, 0.65)  # scalar sharp 1/2 +- 0.15
_SHARP_INVERSE_WINDOW = (0.85, 1.15)  # scalar sharp 1 +- 0.15


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str
    seconds: float = 0.0  # wall time of the check; run_all measures it

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:02d} {self.name}: {mark} ({self.details})"


class AcceptanceContext(RunContext):
    """The RunContext the criteria share, on the default config unless one
    is given."""

    def __init__(self, config: ExperimentConfig | None = None):
        super().__init__(config or default_config())


# ---------------------------------------------------------------------------
# criteria


def c01_haar_exactness(ctx: AcceptanceContext) -> CriterionResult:
    """Round-trip and Parseval errors <= 1e-10, 100 functions per (d, L);
    the functions of one (d, n, L) are drawn and checked in blocks of columns
    (dyadic._random_exactness_errors), each column as it is alone."""
    worst_rt = worst_pv = 0.0
    grids = [(1, level) for level in range(1, 11)] + [(2, level) for level in range(1, 7)]
    for d, level in grids:
        for n in (1, 2, 3):
            rt, pv = _random_exactness_errors(d, n, level, [[ctx.config.seed, 1, d, level, i]
                                                            for i in range(n - 1, 100, 3)])
            worst_rt = max(worst_rt, float(rt.max()))
            worst_pv = max(worst_pv, float(pv.max()))
    passed = worst_rt <= 1e-10 and worst_pv <= 1e-10
    return CriterionResult(
        1, "haar-exactness", passed,
        f"max roundtrip {worst_rt:.2e}, max parseval {worst_pv:.2e}, "
        f"{len(grids)} (d,L) cells x 100 fn",
    )


def c02_p2_oracle(ctx: AcceptanceContext) -> CriterionResult:
    """p=2 operators equal exact square roots of cube averages everywhere, the
    averages taken over each cube's cells (_cube_blocks), laid out as rows."""
    worst = 0.0
    for w in ctx.config.weights:
        weight = ctx.weight(w.name)
        fam = ctx.family(w.name, 2.0)
        for sign, got in zip((1.0, -1.0), fam.operators):
            cells = weight.power_cells(sign)
            avg = np.concatenate([_cube_blocks(cells, weight.d, l).mean(axis=1)
                                  for l in range(fam.max_depth + 1)])
            worst = max(worst, float(np.abs(got - spd_power_stack(avg, 0.5)).max()))
    return CriterionResult(
        2, "p2-reducing-oracle", worst <= 1e-10,
        f"max |V - (m_I W)^(1/2)| = {worst:.2e} over every cube, both sides",
    )


def _unit_outer_products(rng, m: int, n: int) -> np.ndarray:
    """e e^T of m fresh unit directions, flattened to (n^2, m): e = g / |g|
    for one (m, n) standard normal draw g. The components of g are copied
    into contiguous rows, and |g| is the square root of their
    left-associated sum of squares, which is np.linalg.norm(g, axis=-1) bit
    for bit."""
    comps = rng.standard_normal((m, n)).T.copy()
    norm = comps[0] ** 2
    for c in comps[1:]:
        norm += c**2
    comps /= np.sqrt(norm)
    return (comps[:, None] * comps).reshape(n * n, m)


def _sandwich_norms(quad: np.ndarray, v: np.ndarray, ee: np.ndarray, q: float) -> tuple:
    """(rho_I(e), |V_I e|), each (cubes, k), on the k directions of ee,
    (n^2, k). quad is W^{2s} on the cells, (2^L,)*d + (n^2,), and v the
    operators of the same side on the level-row axis, (cubes, n, n).

    The cell integrand |W^s e|^q = (e^T W^{2s} e)^{q/2} is formed once;
    rho_I(e) is the q-th root of its mean over the cells of I
    (dyadic._cube_blocks, not the fit's mean pyramid), and |V_I e| is
    sqrt(e^T V^T V e). The products run as serial GEMMs
    (weights._serial_matmul): the cells against many directions would
    otherwise go to the BLAS worker threads.
    """
    nn, d = ee.shape[0], quad.ndim - 1
    g = _serial_matmul(quad.reshape(-1, nn), ee) ** (q / 2)
    g = g.reshape(quad.shape[:-1] + (-1,))
    rho = np.concatenate([_cube_blocks(g, d, l).mean(axis=1) for l in range(len(_levels(v, d)))])
    rho **= 1.0 / q
    ve = _serial_matmul((np.swapaxes(v, -1, -2) @ v).reshape(-1, nn), ee)
    return rho, np.sqrt(ve, out=ve)


def c03_john_sandwich(ctx: AcceptanceContext) -> CriterionResult:
    """The John sandwich rho_I(e) <= |V_I e| <= sqrt(n) rho_I(e) at p=3 and
    rho'_I(e) <= |V'_I e| <= sqrt(n) rho'_I(e) at p'=3/2, slack 1 + 1e-3,
    on every cube; rho from the W^{1/p} integrand and rho' from the W^{-1/p}
    one (_sandwich_norms).

    Each weight draws one set of 1000 fresh unit directions from its own
    generator, independently of the fit's quasi-uniform grids, and checks
    every cube on all of them, the directions in blocks (dyadic._spans,
    cells + 4 x cubes entries each: the integrand, then rho, |Ve| and two
    temporaries of their ratios). An R^1 weight is checked on its one unit
    direction e = 1, with no draw: every unit direction of R^1 is +-1, so
    e e^T = 1 and all of them give the same rho and |Ve|."""
    p, m, slack = 3.0, 1000, 1.0 + 1e-3
    worst = np.zeros((2, 2))  # per side, max violations of the two inequalities
    for w in ctx.config.weights:
        weight, fam = ctx.weight(w.name), ctx.family(w.name, p)
        n = weight.n
        rng = np.random.default_rng([ctx.config.seed, 3, zlib.crc32(w.name.encode())])
        ee = np.ones((1, 1)) if n == 1 else _unit_outer_products(rng, m, n)
        cubes = fam.operators.shape[1]
        sides = ((1.0 / p, p), (-1.0 / p, conjugate_exponent(p)))
        for side, ((s, q), v) in enumerate(zip(sides, fam.operators)):
            ws = weight.power_cells(s)
            quad = (ws @ ws).reshape(ws.shape[:-2] + (n * n,))
            for block in _spans(ee.shape[1], quad.size // (n * n) + 4 * cubes):
                rho, ve = _sandwich_norms(quad, v, ee[:, block], q)
                worst[side] = np.maximum(worst[side], (
                    (rho / (ve * slack)).max(),
                    (ve / (math.sqrt(n) * rho * slack)).max()))
    (lo, hi), (lo_dual, hi_dual) = worst
    return CriterionResult(
        3, "john-sandwich-p3", bool((worst <= 1.0).all()),
        f"max rho/(|Ve|(1+1e-3)) = {lo:.6f}, "
        f"max |Ve|/(sqrt(n) rho (1+1e-3)) = {hi:.6f}; dual at p'=1.5: "
        f"max rho'/(|V'e|(1+1e-3)) = {lo_dual:.6f}, "
        f"max |V'e|/(sqrt(n) rho' (1+1e-3)) = {hi_dual:.6f}",
    )


def c04_pair_lower_bound(ctx: AcceptanceContext) -> CriterionResult:
    worst = math.inf
    for name, p in ctx.cells():
        worst = min(worst, ctx.family(name, p).min_pair_norm())
    return CriterionResult(
        4, "pair-lower-bound", worst >= 1.0 - 1e-8,
        f"min ||V_I V'_I|| = {worst:.12f} over all cubes, weights, exponents",
    )


def _dual_weight(weight: MatrixWeight, p: float) -> MatrixWeight:
    """W^{1-p'}, the weight of the dual side at the conjugate exponent, on
    the weight's cached cell power, which c05 and c12 share."""
    q = conjugate_exponent(p)
    return MatrixWeight(
        weight.d, weight.n, weight.level,
        weight.power_cells(1.0 - q),
        {"family": "derived", "base": dict(weight.meta), "exponent": 1.0 - q},
    )


def c05_duality(ctx: AcceptanceContext) -> CriterionResult:
    """||W^{1-p'}||_{A_p'} = ||W||_{A_p}^{p'/p} by an independent refit.

    Per cell, W^{1-p'} is fitted afresh at p' on m+1 quasi-uniform directions
    where the cached family of W at p used m (for n = 2, 3 the two grids
    share no direction), and its characteristic is compared with char^{p'/p}
    from the cached family. Both families reduce the same two norms, each
    side within kappa: rho' <= |V' e|, |U e| <= kappa rho' and likewise V, U'
    for rho. So ||U U'|| is within kappa^2 of ||V V'|| on every cube, and the
    log gap of the p'-th powers is at most 2 p' log kappa <= 4 log kappa for
    p >= 2, which holds for every exponent of the suite.
    """
    worst = (0.0, "", 0.0)  # largest gap: (gap, cell, bound)
    worst_margin = 0.0
    ok = True
    for name, p in ctx.cells():
        weight = ctx.weight(name)
        fam = ctx.family(name, p)
        q = conjugate_exponent(p)
        depth = scan_depth(weight.level)
        refit = build_reducing_family(_dual_weight(weight, p), q, depth,
                                      directions=fit_count(weight.n) + 1)
        predicted = fam.characteristic(depth) ** (q / p)
        gap = abs(math.log(refit.characteristic(depth)) - math.log(predicted))
        bound = 4.0 * math.log(max(fam.max_kappa(depth), refit.max_kappa(depth)))
        ok = ok and gap <= bound + 1e-9
        worst = max(worst, (gap, f"{name} p={p:g}", bound))
        worst_margin = max(worst_margin, gap - bound)
    return CriterionResult(
        5, "characteristic-duality", ok,
        f"refit of W^(1-p') on disjoint directions: max |log gap| = "
        f"{worst[0]:.2e} ({worst[1]}, log(kappa^4) = {worst[2]:.2e}), "
        f"max excess over log(kappa^4) = {worst_margin:.2e}",
    )


def c06_stopping_decay(ctx: AcceptanceContext) -> CriterionResult:
    worst = ("", 0, 0.0)
    ok = True
    for name, p in ctx.cells():
        tree = ctx.tree(name, p)
        for j in range(1, 6):
            ratio = decay_ratio(tree, j)
            if ratio > 2.0 ** (-j) * 1.05:
                ok = False
            if ratio * 2.0**j > worst[2] * 2.0 ** worst[1]:
                worst = (f"{name} p={p:g}", j, ratio)
    # negative control: thresholds barely above 1 must break the bound
    violated = False
    for w in ctx.config.weights:
        cfg = StoppingConfig(lambda1=1.0 + 1e-6, lambda2=1.0 + 1e-6)
        tree = build_generations(ctx.family(w.name, 2.0), cfg)
        if any(
            decay_ratio(tree, j) > 2.0 ** (-j) * 1.05 for j in range(1, 6)
        ):
            violated = True
            break
    return CriterionResult(
        6, "stopping-decay", ok and violated,
        f"worst decay {worst[2]:.4f} at j={worst[1]} ({worst[0]}), "
        f"bound {2.0 ** -max(worst[1], 1) * 1.05:.4f}; negative control "
        f"violates: {violated}",
    )


def c07_block_partition(ctx: AcceptanceContext) -> CriterionResult:
    """Block partition constants C = sum_j ||Delta_j f||_p^p / ||f||_p^p of
    100 random f per (weight, p) cell, under two seeds. At p = 2 the
    Delta_j f split the Haar coefficients of f, so C = 1 by Parseval and
    every constant must satisfy |C - 1| <= 1e-12; at other p the largest
    stays within _C7_CAP and moves by at most 20% on the reseed."""
    caps, errors = {}, {}
    for seed_tag in (0, 1):
        for name, p in ctx.cells():
            w = ctx.weight(name)
            f = random_mean_zero_batch(w, 100, [ctx.config.seed + seed_tag, 7])
            c = block_partition_constant(f, ctx.tree(name, p))[0]
            caps[(p, seed_tag)] = max(caps.get((p, seed_tag), 0.0), float(c.max()))
            errors[p] = max(errors.get(p, 0.0), float(np.abs(c - 1.0).max()))
    ok = True
    parts = []
    for p in ctx.config.ps:
        if p == 2.0:
            ok = ok and errors[p] <= 1e-12
            parts.append(f"p=2: max |C-1| = {errors[p]:.1e} (Parseval, bound 1e-12)")
            continue
        a, b = caps[(p, 0)], caps[(p, 1)]
        drift = abs(b - a) / a
        ok = ok and a <= _C7_CAP and drift <= 0.20
        parts.append(f"p={p:g}: C_emp={a:.4f} (reseed {b:.4f}, drift {drift:.2%})")
    return CriterionResult(
        7, "block-partition-bound", ok,
        "; ".join(parts) + f"; cap {_C7_CAP}",
    )


def c08_block_identities(ctx: AcceptanceContext) -> CriterionResult:
    worst = 0.0
    for name, p in ctx.cells():
        tree = ctx.tree(name, p)
        f = random_mean_zero_batch(ctx.weight(name), 10, [ctx.config.seed, 8])
        total = t_blocks(tree, f).values.sum(axis=-1)
        tf = t_operator(tree.family, f)
        worst = max(worst, float(np.abs(total - tf.values).max()))
    return CriterionResult(
        8, "block-identities", worst <= 1e-9,
        f"max |sum T_j f - Tf| = {worst:.2e}",
    )


def c09_cross_term_decay(ctx: AcceptanceContext) -> CriterionResult:
    ok = True
    parts = []
    for alpha in (0.3, 0.6):
        w = make_weight(
            WeightFamily("power", 1, 1, 10, params={"alpha": alpha},
                         seed=ctx.config.seed)
        )
        for p in ctx.config.ps:
            fam = build_reducing_family(w, p)
            cal = calibrate_lambdas([(f"a{alpha}", w, fam)],
                                    target=ctx.config.calibration_target)
            q = conjugate_exponent(p)
            cfg = StoppingConfig(
                lambda1=max(cal.c1_hat, 1.0 + 1e-9),
                lambda2=max(cal.c2_hat * cal.chars[f"a{alpha}"] ** (q / p),
                            1.0 + 1e-9),
            )
            tree = build_generations(fam, cfg)
            rep = cross_term_rate(tree, count=50, seed=ctx.config.seed)
            ok = ok and rep.passed
            parts.append(
                f"alpha={alpha} p={p:g}: rate {rep.rate:.3f} ci95 {rep.rate_ci95:.3f}"
            )
    return CriterionResult(
        9, "cross-term-decay", ok, "; ".join(parts),
    )


def c10_equivalence_uniform(ctx: AcceptanceContext) -> CriterionResult:
    # the exponents inside the weights, so each weight's batch of test
    # functions is drawn once and reused at every p
    c1 = dict.fromkeys(ctx.config.ps, 0.0)
    c2 = dict.fromkeys(ctx.config.ps, 0.0)
    for w in ctx.config.weights:
        for p in ctx.config.ps:
            rep = equivalence_ratios(ctx.family(w.name, p), count=50,
                                     seed=ctx.config.seed)
            c1[p] = max(c1[p], rep.c1_emp)
            c2[p] = max(c2[p], rep.c2_emp)
    ok = True
    parts = []
    for p in ctx.config.ps:
        ok = ok and c1[p] <= _C10_CAP and c2[p] <= _C10_CAP
        parts.append(f"p={p:g}: C1_emp={c1[p]:.4f} C2_emp={c2[p]:.4f}")
    # Parseval case: identity weight at p=2 has ratio exactly 1
    ident = make_weight(
        WeightFamily("constant", 1, 2, 6, params={"matrix": np.eye(2)})
    )
    idrep = equivalence_ratios(build_reducing_family(ident, 2.0), count=50,
                               seed=ctx.config.seed)
    parseval = float(np.abs(idrep.ratios - 1.0).max())
    ok = ok and parseval <= 1e-10
    return CriterionResult(
        10, "equivalence-uniform", ok,
        "; ".join(parts) + f"; cap {_C10_CAP}; Id p=2 max|r-1| = {parseval:.2e}",
    )


def c11_slopes_and_sharpness(ctx: AcceptanceContext) -> CriterionResult:
    """Sweep slope upper bounds, then the scalar sharpness windows.

    The probe solves the extremal problem exactly, so the measured slopes
    are facts about the weight family at this depth, not about the search:
    the max-ratio direction is capped at sqrt(L+1) uniformly in the weight
    (triangle inequality across levels), and the power family's inverse
    direction grows like char^(1/2). Neither window is reachable on a
    two-decade sweep at L=10; the result records this run's measurements.
    """
    rep = alpha_sweep_report(ctx.config)
    decades = rep["char_decades"]
    eq1 = rep["eq_ratio_slope"]["slope"]
    eq2 = rep["eq_inverse_slope"]["slope"]
    pr1 = rep["probe_ratio_slope"]["slope"]
    pr2 = rep["probe_inverse_slope"]["slope"]
    span_ok = decades >= 2.0
    upper_ok = eq1 <= 1.5 + 0.1 and eq2 <= 2.0 + 0.1
    sharp1 = _SHARP_RATIO_WINDOW[0] <= pr1 <= _SHARP_RATIO_WINDOW[1]
    sharp2 = _SHARP_INVERSE_WINDOW[0] <= pr2 <= _SHARP_INVERSE_WINDOW[1]
    details = (
        f"span {decades:.2f} decades; eq slopes {eq1:.3f} <= 1.6, "
        f"{eq2:.3f} <= 2.1; probe slopes {pr1:.3f} vs window "
        f"{_SHARP_RATIO_WINDOW}, {pr2:.3f} vs window {_SHARP_INVERSE_WINDOW}"
    )
    if not (sharp1 and sharp2):
        low = rep.get("probe_ratio_slope_lowchar")
        details += (
            "; sharpness windows unreachable at this depth: max-ratio is capped at "
            f"sqrt(levels) (local low-char slope "
            f"{low['slope'] if low else float('nan'):.3f} shows the sqrt "
            "mechanism), and the power family's inverse direction is an exact "
            f"char^(1/2) law (eigenvalue-level slope "
            f"{rep['probe_eigen_inverse_slope']:.3f}); deeper grids and a "
            "cascade family miss both windows too (tables in the README, "
            "Acceptance status)"
        )
    return CriterionResult(
        11, "slope-and-sharpness",
        span_ok and upper_ok and sharp1 and sharp2, details,
    )


def c12_dual_square_bound(ctx: AcceptanceContext) -> CriterionResult:
    # the exponents inside the weights: one batch and one synthesis per weight
    caps = dict.fromkeys(ctx.config.ps, 0.0)
    for w in ctx.config.weights:
        weight = ctx.weight(w.name)
        f = random_mean_zero_batch(weight, 50, [ctx.config.seed, 12])
        g = haar_reconstruct(f)
        for p in ctx.config.ps:
            rhs = weighted_lp_norm(g, _dual_weight(weight, p), conjugate_exponent(p))
            ratio = dual_square_norm(f, ctx.family(w.name, p)) / rhs
            caps[p] = max(caps[p], float(ratio.max()))
    ok = True
    parts = []
    for p in ctx.config.ps:
        ok = ok and caps[p] <= _C12_CAP
        parts.append(f"p={p:g}: C_emp={caps[p]:.4f}")
    return CriterionResult(
        12, "dual-square-bound", ok, "; ".join(parts) + f"; cap {_C12_CAP}",
    )


def c13_determinism(ctx: AcceptanceContext) -> CriterionResult:
    # the first two weights in (d, level) order; on the default suite these are
    # logb3-s04 and const-diag19, so the rerun also covers the costliest fit
    chosen = sorted(ctx.config.weights, key=lambda w: (w.d, w.level))[:2]
    cfg = replace(
        ctx.config,
        weights=tuple(chosen),
        experiments=("stopping", "equivalence"),
        count=20,
    )
    bodies = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            run_experiments(replace(cfg, out_dir=str(Path(tmp) / tag)))
            csvs = sorted(Path(tmp, tag).glob("*.csv"))
            bodies.append({f.name: f.read_bytes() for f in csvs})
    same = set(bodies[0]) == set(bodies[1]) and all(
        bodies[0][k] == bodies[1][k] for k in bodies[0]
    )
    return CriterionResult(
        13, "determinism", same,
        f"{len(bodies[0])} CSV bodies compared byte for byte: "
        + ("identical" if same else "MISMATCH"),
    )


CRITERIA = (
    c01_haar_exactness,
    c02_p2_oracle,
    c03_john_sandwich,
    c04_pair_lower_bound,
    c05_duality,
    c06_stopping_decay,
    c07_block_partition,
    c08_block_identities,
    c09_cross_term_decay,
    c10_equivalence_uniform,
    c11_slopes_and_sharpness,
    c12_dual_square_bound,
    c13_determinism,
)


def run_all(ctx: AcceptanceContext | None = None, printer=print) -> list:
    ctx = ctx or AcceptanceContext()
    results = []
    for crit in CRITERIA:
        start = time.perf_counter()
        try:
            res = crit(ctx)
        except HaarweightError as exc:  # a criterion crash is a failure, not an abort
            res = CriterionResult(
                len(results) + 1,
                crit.__name__[4:].replace("_", "-"),
                False,
                f"raised {exc!r}",
            )
        res = replace(res, seconds=time.perf_counter() - start)
        results.append(res)
        printer(f"{res.line()} [{res.seconds:.2f} s]")
    return results
