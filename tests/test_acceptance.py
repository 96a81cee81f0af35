"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures always show theirs).  Criterion 4 is split: the sign structure
beyond x_max (4a) and where delta changes sign relative to the separability
threshold (4b).  For {a, b} = {0.6, 0.8}, 4b requires the roots of delta
located by find_delta_roots to equal, within 1e-8, the real roots in (0, 1)
of an independent quartic (tests/oracles.py), every root to lie below
x_max = 0.5102, and the generic pipeline to confirm the sign pattern
+ / - / + at the interval midpoints, matching the closed form to 1e-10.
"""

import math
import time

import numpy as np

from oracles import (
    gisin_delta_quartic_roots,
    index_block_sum,
    index_block_trace,
    jacobi_eigenvalues,
    one_state_values,
    one_x_entries,
    random_hermitian,
)
from puritylab.density import (
    BlockShape,
    random_density,
    reduced_blocks,
)
from puritylab.inequalities import audit_reports, delta, find_delta_roots, purity_set
from puritylab.linalg import hermitian_eig
from puritylab.prng import child_seed
from puritylab.states import (
    _gisin_closed,
    beta_entries,
    gisin_entries,
    gisin_x_max,
    ppt_entangled,
    werner_entries,
    x_state,
    x_state_purities,
)
from puritylab.sweep import SweepSpec, run_sweep, scan_conjecture, scan_state

SHAPE22 = BlockShape(2, 2)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_werner_closed_forms():
    t0 = time.perf_counter()
    worst_purities = 0.0
    worst_mt = 0.0
    for p in np.linspace(-1 / 3, 1.0, 200):
        ps = one_state_values(purity_set(x_state(werner_entries(float(p)))))
        worst_purities = max(
            worst_purities,
            abs(ps.mu12 - (3 * p * p + 1) / 4),
            abs(ps.mu1 - 0.5),
            abs(ps.mu2 - 0.5),
        )
        worst_mt = max(worst_mt, abs(ps.mu_tilde - 3 * p * p))
    elapsed = time.perf_counter() - t0
    ok = worst_purities <= 1e-12 and worst_mt <= 1e-10 and elapsed < 1.0
    report(
        "criterion 1 (Werner closed forms)", ok,
        f"200 points: purity dev {worst_purities:.2e} (tol 1e-12), "
        f"mu_tilde dev {worst_mt:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_werner_threshold_coincidence():
    roots = find_delta_roots(
        lambda ps: np.array([delta(x_state(werner_entries(p))).item() for p in ps]),
        1e-6, 1.0, grid=512, tol=1e-8)
    lo, hi = 0.2, 0.6
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if ppt_entangled(x_state(werner_entries(mid))).item():
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    ok = (len(roots) == 1
          and abs(roots[0] - 1 / 3) <= 1e-8
          and abs(flip - 1 / 3) <= 1e-8)
    report(
        "criterion 2 (Werner threshold)", ok,
        f"delta root {roots[0]:.10f}, ppt flip {flip:.10f}, both at 1/3 +- 1e-8",
    )


CAPTION_SETS = [
    # (a, b, caption x_max, tolerance on x_max)
    (1.0, 0.0, 1.0, 1e-12),
    (0.2, math.sqrt(1 - 0.04), 0.718, 1e-3),
    (0.6, 0.8, 0.51, 5e-3),
]
RAW_SET = (0.07, 0.99, 0.87, 1e-2)


def test_criterion_3_gisin_closed_forms():
    worst = 0.0
    for a, b, caption, cap_tol in CAPTION_SETS:
        x_max = gisin_x_max(a, b)
        assert abs(x_max - caption) <= cap_tol, (a, b, x_max, caption)
        top = min(x_max, 0.99)
        for x in np.linspace(0.01, top, 50):
            lhs5, mt, mu12 = _gisin_closed(float(x), a * a, b * b)
            ps = one_state_values(purity_set(x_state(gisin_entries(float(x), a, b))))
            worst = max(worst,
                        abs(ps.mu12 - mu12),
                        abs(ps.mu_tilde - mt),
                        abs(ps.mu1 + ps.mu2 - 1 - lhs5))
    a, b, caption, cap_tol = RAW_SET
    raw_x_max = gisin_x_max(a, b)
    raw_ok = abs(raw_x_max - caption) <= cap_tol
    ok = worst <= 1e-10 and raw_ok
    report(
        "criterion 3 (Gisin closed forms)", ok,
        f"3 normalized sets x 50 points: max dev {worst:.2e} (tol 1e-10); "
        f"raw {{0.07, 0.99}} x_max {raw_x_max:.4f} vs 0.87 +- 0.01",
    )


def test_criterion_4a_gisin_delta_positive_beyond_x_max():
    a, b = 0.6, 0.8
    x_max = gisin_x_max(a, b)
    table = run_sweep(SweepSpec(family="gisin", start=0.005, stop=0.995,
                                count=199, a=a, b=b))
    beyond = table.delta[table.param > x_max].tolist()
    ok = bool(beyond) and all(delta > 0 for delta in beyond)
    worst = min(beyond)
    report(
        "criterion 4a (Gisin delta > 0 beyond x_max)", ok,
        f"{len(beyond)} grid points above x_max {x_max:.4f}, "
        f"min delta {worst:.4f}",
    )


def test_criterion_4b_gisin_delta_root_near_x_max():
    a, b = 0.6, 0.8
    x_max = gisin_x_max(a, b)

    def closed_delta(x):
        _, mt, mu12 = _gisin_closed(x, a * a, b * b)
        return mt - mu12

    roots = find_delta_roots(closed_delta, 0.001, 0.999, grid=4096, tol=1e-10)
    quartic = gisin_delta_quartic_roots(a, b)
    root_dev = max((abs(r - q) for r, q in zip(roots, quartic)),
                   default=float("inf"))
    roots_ok = len(roots) == len(quartic) == 2 and root_dev <= 1e-8
    below_ok = all(r < x_max for r in roots)

    # One midpoint per interval cut by the roots; the last lies above x_max.
    ends = [0.0, *roots, 1.0]
    mids = [0.5 * (lo + hi) for lo, hi in zip(ends, ends[1:])]
    signs = []
    worst = 0.0
    for x in mids:
        rho = x_state(gisin_entries(x, a, b))
        d = purity_set(rho).delta.item()
        signs.append(1 if d > 0 else -1)
        worst = max(worst, abs(d - closed_delta(x)))
    signs_ok = signs == [1, -1, 1] and worst <= 1e-10

    report(
        "criterion 4b (Gisin delta roots: quartic, below x_max, + / - / +)",
        roots_ok and below_ok and signs_ok,
        f"roots {[f'{r:.6f}' for r in roots]} vs quartic "
        f"{[f'{q:.6f}' for q in quartic]}: dev {root_dev:.2e} (tol 1e-8), "
        f"all below x_max {x_max:.4f}: {below_ok}, "
        f"pipeline signs {signs} at {[f'{x:.4f}' for x in mids]} "
        f"(closed-form dev {worst:.2e}, tol 1e-10)",
    )


def test_criterion_5_beta_family():
    worst = 0.0
    min_delta = float("inf")
    grid = list(np.linspace(0.0, 1.0, 200)) + [0.5]
    for beta in grid:
        ps = one_state_values(purity_set(x_state(beta_entries(float(beta)))))
        worst = max(worst,
                    abs(ps.mu_tilde - (8 * beta * beta - 8 * beta + 3)),
                    abs(ps.mu12 - (2 * beta * beta - 2 * beta + 1)))
        min_delta = min(min_delta, ps.delta)
    ok = worst <= 1e-12 and min_delta >= 0.5 - 1e-12
    report(
        "criterion 5 (beta state)", ok,
        f"200 points + rank-deficient beta=1/2: max closed-form dev {worst:.2e} "
        f"(tol 1e-12), min delta {min_delta:.6f} (>= 1/2)",
    )


def test_criterion_6_inequality_audit():
    t0 = time.perf_counter()
    worst: dict[str, float] = {}
    plans = [(BlockShape(2, 2), 10_000, 60), (BlockShape(2, 3), 1_000, 61)]
    for shape, samples, base_seed in plans:
        for k in range(samples):
            rho = random_density(shape.n, shape.m, k % shape.dim + 1,
                                 child_seed(base_seed, k))
            for rep in map(one_state_values, audit_reports(rho, tol=1e-9)):
                if rep.name not in worst or rep.margin < worst[rep.name]:
                    worst[rep.name] = rep.margin
    elapsed = time.perf_counter() - t0
    ok = all(margin >= -1e-9 for margin in worst.values()) and elapsed < 30.0
    margins = ", ".join(f"{name} {margin:.2e}" for name, margin in sorted(worst.items()))
    report(
        "criterion 6 (inequality audit)", ok,
        f"11000 states: min margins {margins} (tol -1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_7_oracle_equivalence():
    worst_closed = 0.0
    for k in range(10_000):
        params = one_x_entries(k + 1)
        closed = x_state_purities(params)
        rho = x_state(params)
        reports = {rep.name: one_state_values(rep) for rep in audit_reports(rho, tol=1e-9)}
        generic = one_state_values(purity_set(rho))
        worst_closed = max(
            worst_closed,
            abs(closed.mu12 - generic.mu12),
            abs(closed.mu1 - generic.mu1),
            abs(closed.mu2 - generic.mu2),
            abs(closed.mu_tilde - generic.mu_tilde),
        )
        # the paper's X-state eq11 and eq12 are eq5 and eq10 with the lhs
        # mu1 + mu2 - 1 of the closed forms
        lhs = closed.mu1 + closed.mu2 - 1.0
        worst_closed = max(
            worst_closed,
            abs(closed.mu12 - lhs - reports["eq5"].margin),
            abs(closed.mu_tilde - lhs - reports["eq10"].margin),
        )
    worst_traces = 0.0
    for shape in [BlockShape(2, 2), BlockShape(2, 3), BlockShape(3, 2), BlockShape(4, 2)]:
        for k in range(250):
            rho = random_density(shape.n, shape.m, k % shape.dim + 1,
                                 child_seed(70 + shape.n * 10 + shape.m, k))
            bt = index_block_trace(rho.mat, shape.n, shape.m)
            bs = index_block_sum(rho.mat, shape.n, shape.m)
            reduced_n, reduced_m = reduced_blocks(rho)
            worst_traces = max(
                worst_traces,
                float(np.abs(reduced_n[0] - bt).max()),
                float(np.abs(reduced_m[0] - bs).max()),
            )
    ok = worst_closed <= 1e-12 and worst_traces <= 1e-14
    report(
        "criterion 7 (oracle equivalence)", ok,
        f"10^4 X-states closed-vs-generic dev {worst_closed:.2e} (tol 1e-12); "
        f"10^3 partial traces vs index oracle dev {worst_traces:.2e} (tol 1e-14)",
    )


def test_criterion_8_conjecture_scan():
    first = scan_conjecture(SHAPE22, samples=10_000, seed=2024)
    second = scan_conjecture(SHAPE22, samples=10_000, seed=2024)
    deterministic = first == second
    labeled_ok = all(s.entangled and s.kind == "ginibre"
                     for s in first.counterexamples)
    rederived_ok = True
    for sample in first.counterexamples:
        rho = scan_state(SHAPE22, sample.kind, sample.size, sample.seed)
        rederived_ok &= delta(rho).item() == sample.delta
        rederived_ok &= ppt_entangled(rho).item() == sample.entangled
    ok = deterministic and labeled_ok and rederived_ok
    report(
        "criterion 8 (conjecture scan)", ok,
        f"10^4 samples seed 2024: {len(first.counterexamples)} counterexample(s), "
        f"deterministic={deterministic}, separable subset "
        f"{first.separable_stats.count} states (min delta "
        f"{first.separable_stats.min_delta:.2e}), entangled subset "
        f"{first.entangled_stats.count} states (min delta "
        f"{first.entangled_stats.min_delta:.2e})",
    )


def test_criterion_9_eigensolver_quality():
    worst = 0.0
    count = 0
    for dim in range(2, 9):
        for k in range(143):
            h = random_hermitian(dim, 9000 * dim + k)
            h /= np.linalg.norm(h)  # unit Frobenius scale
            error = np.abs(hermitian_eig(h).values - jacobi_eigenvalues(h)).max()
            worst = max(worst, float(error))
            count += 1
    ok = worst <= 1e-10
    report(
        "criterion 9 (eigensolver quality)", ok,
        f"{count} matrices dims 2-8: eigenvalues within {worst:.2e} of the "
        f"Jacobi oracle (tol 1e-10)",
    )
