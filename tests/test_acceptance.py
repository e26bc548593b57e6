"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned: rate slopes carry the stated
absolute windows, statistical checks use four standard errors, and the
bit-exact identities use equality of floats.
"""

import math

import numpy as np
import pytest

from stratmc.lattice import GridSpec, Stream, centre_array, substream_id
from stratmc.stencil import derivative_grid, error_constant
from stratmc.estimators import (
    crude_mc,
    estimate_analytic_cv,
    estimate_paired_cv,
    estimate_single_cv,
    estimate_vanishing,
    haber1,
    haber2,
    shifted_stratum_mean,
    vanishing_margin,
)
from stratmc.replicate import select_order, tail_bound, variance_estimate
from stratmc.bench import test_function as product_family, wrapped_gaussian

from polyutils import random_poly


F1 = product_family(1)
F1_NORM3 = 4.0 * math.e          # sup of the third derivative (3 + u) e^u


def _f1_oracle(alpha, pts):
    a = alpha[0]
    u = pts[:, 0]
    return (a + u) * np.exp(u)


def _report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def _mse_ladder(make_report, ks, reps, seed, exact):
    ns, mses = [], []
    for k in ks:
        vals = np.empty(reps)
        n_evals = np.empty(reps)
        for rep in range(reps):
            report = make_report(k, Stream(seed, substream_id(seed, k, rep)))
            vals[rep] = report.value
            n_evals[rep] = report.n_in_domain
        ns.append(np.mean(n_evals))
        mses.append(np.mean((vals - exact) ** 2))
    return float(np.polyfit(np.log(ns), np.log(mses), 1)[0])


def test_criterion_01_polynomial_exactness():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for s in (1, 2, 3):
        for r in (2, 3, 4, 6):
            k = max(r, 4)
            grid = GridSpec(s, k, 0)
            for trial in range(100):
                poly = random_poly(s, r - 1, rng)
                exact = poly.integral()
                scale = max(1.0, abs(exact))
                stream = Stream(1, substream_id("c1", s, r, trial))
                for est in (
                    estimate_analytic_cv(poly, poly.oracle(), r, grid, stream),
                    estimate_paired_cv(poly, r, grid, stream),
                    estimate_single_cv(poly, r, grid, stream),
                ):
                    worst = max(worst, abs(est.value - exact) / scale)
    _report(1, "polynomial exactness", worst < 1e-9,
            f"worst relative deviation {worst:.2e} over 1200 cases x 3 estimators")


def test_criterion_02_stencil_order():
    ks = (8, 16, 32, 64)
    fails = []
    details = []
    for r in (3, 4):
        for a in (1, 2):
            errs = []
            for k in ks:
                grid = GridSpec(1, k, 0)
                c = centre_array(grid)[:, 0]
                d = derivative_grid(np.exp(c), (a,), grid, r)
                errs.append(np.max(np.abs(d - np.exp(c))))
            slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
            details.append(f"r={r},|a|={a}: {slope:+.2f} vs {-(r - a)}")
            if abs(slope + (r - a)) > 0.3:
                fails.append(details[-1])
    _report(2, "stencil order", not fails, "; ".join(details))


def test_criterion_03_rmse_rates():
    ks = (4, 8, 16, 32, 64, 128, 256)
    slope_h1 = _mse_ladder(
        lambda k, st: haber1(F1.fn, GridSpec(1, k, 0), st), ks, 50, 31, 1.0)
    slope_hat = _mse_ladder(
        lambda k, st: estimate_paired_cv(F1.fn, 4, GridSpec(1, k, 0), st), ks, 50, 32, 1.0)
    gauss = wrapped_gaussian(1)
    m3 = vanishing_margin(3)
    slope_van = _mse_ladder(
        lambda k, st: estimate_vanishing(gauss.fn, 3, GridSpec(1, k, m3), st),
        (8, 16, 32, 64, 128, 256), 50, 33, 1.0)
    ok = (abs(slope_h1 + 3) <= 0.45 and abs(slope_hat + 9) <= 1.35
          and abs(slope_van + 7) <= 1.1)
    _report(3, "RMSE rates", ok,
            f"haber1 {slope_h1:+.2f} (-3+-0.45), paired r=4 {slope_hat:+.2f} (-9+-1.35), "
            f"vanishing r=3 {slope_van:+.2f} (-7+-1.1)")


def test_criterion_04_unbiasedness():
    n_rep = 10_000
    bump_exact = math.gamma(5.0) ** 2 / math.gamma(10.0)   # integral of (u(1-u))^4

    def bump(pts):
        pts = np.atleast_2d(pts)
        return np.prod((pts * (1.0 - pts)) ** 4, axis=1)

    def values(reports):
        return [report.value for report in reports]

    # each case takes its n_rep streams as one sequence; shifted_stratum_mean
    # takes one Stream at a time
    cases = {
        "crude": (1.0, lambda sts: values(crude_mc(F1.fn, 1, 16, sts))),
        "haber1": (1.0, lambda sts: values(haber1(F1.fn, GridSpec(1, 4, 0), sts))),
        "haber2": (1.0, lambda sts: values(haber2(F1.fn, GridSpec(1, 4, 0), sts))),
        "analytic_cv r=4": (1.0, lambda sts: values(estimate_analytic_cv(
            F1.fn, _f1_oracle, 4, GridSpec(1, 4, 0), sts))),
        "paired r=3": (1.0, lambda sts: values(estimate_paired_cv(
            F1.fn, 3, GridSpec(1, 4, 0), sts))),
        "single r=3": (1.0, lambda sts: values(estimate_single_cv(
            F1.fn, 3, GridSpec(1, 4, 0), sts))),
        "vanishing r=3": (bump_exact, lambda sts: values(estimate_vanishing(
            bump, 3, GridSpec(1, 4, 3), sts))),
        "dilated mean shift=3": (1.0, lambda sts: [shifted_stratum_mean(
            lambda p: np.ones(len(p)), 3, GridSpec(1, 4, 1), st) for st in sts]),
    }
    details = []
    ok = True
    for name, (exact, fn) in cases.items():
        vals = np.array(fn([Stream(41, substream_id("c4", name, rep)) for rep in range(n_rep)]))
        se = vals.std(ddof=1) / math.sqrt(n_rep)
        dev = abs(vals.mean() - exact)
        details.append(f"{name}: |bias|={dev:.1e} <= 4se={4 * se:.1e}")
        ok = ok and dev <= 4 * se
    _report(4, "unbiasedness", ok, "; ".join(details))


def test_criterion_05_variant_equivalences():
    checks = []
    for s in (1, 2):
        f = product_family(s)
        k = 6
        g0 = GridSpec(s, k, 0)
        g1 = GridSpec(s, k, 1)
        for rep in range(10):
            st = Stream(57, substream_id("c5", s, rep))
            checks.append(estimate_vanishing(f.fn, 1, g1, st).value
                          == haber1(f.fn, g0, st).value)
            checks.append(estimate_vanishing(f.fn, 2, g1, st).value
                          == haber2(f.fn, g0, st).value)
            checks.append(estimate_single_cv(f.fn, 1, g0, st).value
                          == haber1(f.fn, g0, st).value)
            for q in (1, 2):
                checks.append(estimate_paired_cv(f.fn, 2 * q, g0, st).value
                              == estimate_paired_cv(f.fn, 2 * q - 1, g0, st).value)
    _report(5, "variant equivalences (bit-exact)", all(checks),
            f"{sum(checks)}/{len(checks)} identities hold to the bit")


def test_criterion_06_variance_estimator():
    grid = GridSpec(1, 4, 0)
    l = 3
    outer_n = 1000
    v_hats = np.empty(outer_n)
    all_values = []
    for outer in range(outer_n):
        reports = [
            haber1(F1.fn, grid, Stream(73, substream_id("c6", outer, j)), keep_terms=True)
            for j in range(l)
        ]
        v_hats[outer] = variance_estimate(reports)
        all_values.extend(rep.value for rep in reports)
    empirical = float(np.var(all_values, ddof=1))
    rel_bias = abs(v_hats.mean() - empirical) / empirical

    # second part: the relative noise of the estimate shrinks with k
    rel_sd = {}
    for k in (4, 16):
        vs = np.empty(300)
        for outer in range(300):
            reports = [
                haber1(F1.fn, GridSpec(1, k, 0), Stream(74, substream_id("c6b", k, outer, j)),
                       keep_terms=True)
                for j in range(l)
            ]
            vs[outer] = variance_estimate(reports)
        rel_sd[k] = vs.std(ddof=1) / vs.mean()
    ok = rel_bias < 0.05 and rel_sd[16] < rel_sd[4]
    _report(6, "replicate variance estimator", ok,
            f"relative bias {rel_bias:.3f} < 0.05; rel sd k=4 {rel_sd[4]:.3f} "
            f"-> k=16 {rel_sd[16]:.3f}")


def test_criterion_07_almost_sure_bound():
    c_hat = error_constant(1, 3, family="paired")
    grid = GridSpec(1, 8, 0)
    n = 3 * grid.k
    bound = c_hat * F1_NORM3 * float(n) ** (-3.0)
    errs = np.array([
        abs(estimate_paired_cv(F1.fn, 3, grid, Stream(81, rep)).value - 1.0)
        for rep in range(1000)
    ])
    ok = bool(np.all(errs <= bound))
    _report(7, "almost-sure error bound", ok,
            f"max |error| {errs.max():.2e} <= C*||f||*n^-r/s = {bound:.2e} over 1000 runs")


def test_criterion_08_tail_bound_coverage():
    c_hat = error_constant(1, 3, family="paired")
    grid = GridSpec(1, 8, 0)
    n = 3 * grid.k
    errs = np.array([
        abs(estimate_paired_cv(F1.fn, 3, grid, Stream(91, rep)).value - 1.0)
        for rep in range(1000)
    ])
    details = []
    ok = True
    for delta in (0.1, 0.01):
        radius = tail_bound(delta, c_hat, F1_NORM3, n, 3, 1)
        coverage = float(np.mean(errs <= radius))
        details.append(f"delta={delta}: coverage {coverage:.3f} >= {1 - delta}")
        ok = ok and coverage >= 1 - delta
    _report(8, "tail-bound coverage", ok, "; ".join(details))


def test_criterion_09_transform():
    from stratmc.transform import jacobian_factor, psi

    details = []
    ok = True
    # wrapped standard Gaussian integrates to one, s = 1 and 2
    for s, k, reps in ((1, 16, 400), (2, 10, 300)):
        gauss = wrapped_gaussian(s)
        vals = np.array([
            estimate_vanishing(gauss.fn, 3, GridSpec(s, k, 3),
                               Stream(95, substream_id("c9", s, rep))).value
            for rep in range(reps)
        ])
        se = vals.std(ddof=1) / math.sqrt(reps)
        dev = abs(vals.mean() - 1.0)
        details.append(f"s={s}: |mean-1|={dev:.1e} <= 4se={4 * se:.1e}")
        ok = ok and dev <= 4 * se

    # Jacobian factor against finite differences of the map
    tau, h = 1.5, 1e-5
    fd_ok = True
    for u in (0.15, 0.4, 0.73):
        fd = (psi(np.array([u + h]), tau)[0] - psi(np.array([u - h]), tau)[0]) / (2 * h)
        got = jacobian_factor(np.array([[u]]), tau)[0]
        fd_ok = fd_ok and abs(got - fd) / abs(fd) < 1e-6
    details.append(f"jacobian matches finite differences to 1e-6: {fd_ok}")
    ok = ok and fd_ok

    # decay near the boundary
    g1 = wrapped_gaussian(1)
    near, mid = g1.fn(np.array([[1e-3]]))[0], g1.fn(np.array([[0.5]]))[0]
    decay_ok = near < 1e-6 * mid
    details.append(f"boundary decay {near:.1e} < 1e-6 * {mid:.2f}: {decay_ok}")
    _report(9, "unbounded-domain transform", ok and decay_ok, "; ".join(details))


def test_criterion_10_order_selection():
    def smooth_bump(pts):
        pts = np.atleast_2d(pts)
        return np.prod((pts * (1.0 - pts)) ** 6, axis=1)

    r_max, k, l = 4, 16, 4
    grid = GridSpec(1, k, vanishing_margin(r_max))
    base = Stream(97, 500)

    calls = {"n": 0}

    def counting(pts):
        calls["n"] += len(np.atleast_2d(pts))
        return smooth_bump(pts)

    best, summaries = select_order(counting, r_max, grid, l, base)
    shared_cost = calls["n"]

    # selected order minimizes the estimated variance by construction
    min_ok = summaries[best].v_hat == min(s.v_hat for s in summaries.values())

    # per-order values equal standalone runs on the same streams, bit for bit
    bit_ok = True
    for r_prime in range(1, r_max + 1):
        sg = GridSpec(1, k, vanishing_margin(r_prime))
        for j in range(l):
            standalone = estimate_vanishing(smooth_bump, r_prime, sg,
                                            Stream(97, 500 + j)).value
            bit_ok = bit_ok and summaries[r_prime].values[j] == standalone

    calls["n"] = 0
    for j in range(l):
        estimate_vanishing(counting, r_max, grid, Stream(97, 500 + j))
    top_cost = calls["n"]
    cost_ok = shared_cost <= 1.05 * top_cost

    _report(10, "order selection", min_ok and bit_ok and cost_ok,
            f"selected r'={best}; per-order values bit-exact: {bit_ok}; "
            f"evaluations {shared_cost} <= 1.05 x {top_cost}")


def test_criterion_11_asymptotic_variance():
    from stratmc.estimators import asymptotic_variance_estimate

    sigma2 = asymptotic_variance_estimate(_f1_oracle, 1, 2, budget=20_000, seed=111)
    k = 64
    # one call for all replicates: each report is its single-stream report
    streams = [Stream(113, rep) for rep in range(10_000)]
    vals = np.array([
        report.value
        for report in estimate_paired_cv(F1.fn, 2, GridSpec(1, k, 0), streams, mode="block")
    ])
    empirical = float(np.var(vals, ddof=1)) * float(k) ** 5  # k^(s + 2r)
    rel = abs(empirical - sigma2) / sigma2
    _report(11, "asymptotic variance limit", rel < 0.20,
            f"k^(s+2r) Var = {empirical:.4e} vs estimate {sigma2:.4e} "
            f"(relative gap {rel:.3f} < 0.20)")


def _exp_sum(pts):
    return np.exp(pts[:, 0] + pts[:, 1])


def test_criterion_12_rmse_rates_s2():
    # the paper's MSE rate n^(-1-2r/s) at s=2, where the mixed multi-indices
    # of the control variates first count; windows are +-15% of the rate
    ks = (8, 16, 32)
    exact = (math.e - 1.0) ** 2
    slope_hat = _mse_ladder(
        lambda k, st: estimate_paired_cv(_exp_sum, 4, GridSpec(2, k, 0), st), ks, 50, 34, exact)
    slope_tilde = _mse_ladder(
        lambda k, st: estimate_single_cv(_exp_sum, 3, GridSpec(2, k, 0), st), ks, 50, 35, exact)
    ok = abs(slope_hat + 5) <= 0.75 and abs(slope_tilde + 4) <= 0.6
    _report(12, "RMSE rates at s=2", ok,
            f"paired r=4 {slope_hat:+.2f} (-5+-0.75), single r=3 {slope_tilde:+.2f} (-4+-0.6)")


def _bump6(pts):
    return np.prod((pts * (1.0 - pts)) ** 6, axis=1)


def test_criterion_13_rmse_rates_s2_haber1_vanishing():
    # the MSE rate n^(-1-2r/s) at s=2 for the one-point rule (r=1) and the
    # dilation estimator (r=3) on a boundary-vanishing product; windows are
    # +-15% of the rate
    slope_h1 = _mse_ladder(
        lambda k, st: haber1(_exp_sum, GridSpec(2, k, 0), st), (8, 16, 32), 50, 36,
        (math.e - 1.0) ** 2)
    m3 = vanishing_margin(3)
    slope_van = _mse_ladder(
        lambda k, st: estimate_vanishing(_bump6, 3, GridSpec(2, k, m3), st),
        (8, 16, 32, 64, 128), 40, 37, (math.factorial(6) ** 2 / math.factorial(13)) ** 2)
    ok = abs(slope_h1 + 2) <= 0.3 and abs(slope_van + 4) <= 0.6
    _report(13, "RMSE rates at s=2, haber1 and vanishing", ok,
            f"haber1 {slope_h1:+.2f} (-2+-0.3), vanishing r=3 {slope_van:+.2f} (-4+-0.6)")


def test_criterion_14_bounds_s2():
    # the almost-sure bound C ||f||_r n^(-r/s) and the tail bound's coverage
    # at s=2, on exp(u1 + u2), whose every order-r derivative is at most e^2;
    # n = 3k^2 for the paired family and 2k^2 for the single one
    exact, norm = (math.e - 1.0) ** 2, math.e ** 2
    details = []
    ok = True
    for family, estimate, per_cell in (("paired", estimate_paired_cv, 3),
                                       ("single", estimate_single_cv, 2)):
        for r in (2, 3):
            c_hat = error_constant(2, r, family=family)
            for k in (4, 8):
                n = per_cell * k * k
                streams = [Stream(14, substream_id(family, r, k, rep)) for rep in range(1000)]
                errs = np.array([abs(rep.value - exact) for rep in
                                 estimate(_exp_sum, r, GridSpec(2, k, 0), streams)])
                bound = c_hat * norm * float(n) ** (-r / 2.0)
                cover = [float(np.mean(errs <= tail_bound(delta, c_hat, norm, n, r, 2)))
                         for delta in (0.1, 0.01)]
                ok = ok and bool(np.all(errs <= bound)) and cover[0] >= 0.9 and cover[1] >= 0.99
                details.append(f"{family} r={r} k={k}: max {errs.max():.1e} <= {bound:.1e}, "
                               f"coverage {cover[0]:.3f}/{cover[1]:.3f}")
    _report(14, "almost-sure and tail bounds at s=2", ok, "; ".join(details))


def _exp_sum3(pts):
    return np.exp(pts[:, 0] + pts[:, 1] + pts[:, 2])


def test_criterion_15_rmse_rates_s3():
    # the paper's MSE rate k^(-s-2r) at s=3, where the multi-indices mixing
    # three axes first count: -11 for the paired family at r=4 and -9 for
    # the single one at r=3, windows +-15%; 50 streams per cell in one call
    ks = (4, 5, 6, 7, 8)
    exact = (math.e - 1.0) ** 3
    details, ok = [], True
    for label, estimate, r, seed, paper in (("paired", estimate_paired_cv, 4, 151, -11.0),
                                            ("single", estimate_single_cv, 3, 152, -9.0)):
        mses = []
        for k in ks:
            streams = [Stream(seed, substream_id(label, k, rep)) for rep in range(50)]
            vals = np.array([rep.value for rep in
                             estimate(_exp_sum3, r, GridSpec(3, k, 0), streams)])
            mses.append(np.mean((vals - exact) ** 2))
        slope = float(np.polyfit(np.log(ks), np.log(mses), 1)[0])
        ok = ok and abs(slope - paper) <= 0.15 * abs(paper)
        details.append(f"{label} r={r} {slope:+.2f} vs paper {paper:+.0f} "
                       f"(+-{0.15 * abs(paper):.2f})")
    _report(15, "MSE-vs-k rates at s=3", ok, "; ".join(details))
