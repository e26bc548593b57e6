import math

import numpy as np
import pytest

from stratmc.errors import IntegrandError, OrderError, ResolutionError
from stratmc.lattice import GridSpec, Stream, centre_array, index_array
from stratmc.estimators import (
    asymptotic_variance_estimate,
    crude_mc,
    estimate_analytic_cv,
    estimate_paired_cv,
    estimate_single_cv,
    estimate_vanishing,
    haber1,
    haber2,
    offset_moment,
    shift_coefficients,
    shift_coefficients_exact,
    shifted_stratum_mean,
    vanishing_margin,
)
from stratmc.bench import test_function as product_family

from polyutils import random_poly


F1 = product_family(1)


def _streams(tag, n):
    return [Stream(0, 1_000_000 * tag + i) for i in range(n)]


# ---------------------------------------------------------------------------
# moments and shift coefficients

def test_offset_moment_odd_zero():
    assert offset_moment(1, 3) == 0.0
    assert offset_moment(5, 7) == 0.0


def test_offset_moment_values():
    assert offset_moment(2, 1) == pytest.approx(1 / 12)
    assert offset_moment(2, 2) == pytest.approx(1 / 48)
    assert offset_moment(0, 9) == 1.0


def test_shift_coefficients_r1():
    c = shift_coefficients(1)
    assert c.shifts == (1,) and c.weights == (1.0,) and c.margin == 1


def test_shift_coefficients_r2():
    c = shift_coefficients(2)
    assert c.shifts == (1, -1)
    assert c.weights == (0.5, 0.5)
    assert c.margin == 1


def test_shift_coefficients_r4():
    # frozen from the exact rational solve of the 4x4 moment system
    c = shift_coefficients(4)
    assert c.shifts == (1, -1, 3, -3)
    assert c.weights == (9 / 16, 9 / 16, -1 / 16, -1 / 16)
    assert c.margin == 3


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 8])
def test_shift_coefficient_identities(r):
    c = shift_coefficients(r)
    assert sum(c.weights) == pytest.approx(1.0, abs=1e-12)
    for i in range(1, r):
        moment = sum(w * lam ** i for w, lam in zip(c.weights, c.shifts))
        assert abs(moment) <= 1e-12 * max(1.0, sum(abs(w * lam ** i) for w, lam in zip(c.weights, c.shifts)))
    # exact-rational identity
    exact = shift_coefficients_exact(r)
    assert sum(exact) == 1
    for i in range(1, r):
        assert sum(w * lam ** i for w, lam in zip(exact, c.shifts)) == 0
    assert all(lam % 2 for lam in c.shifts)
    assert len(set(c.shifts)) == r
    assert c.margin == (r if r % 2 else r - 1)


# ---------------------------------------------------------------------------
# crude MC

def test_crude_constant_exact():
    rep = crude_mc(lambda p: np.ones(len(p)), 2, 1000, Stream(0, 0))
    assert rep.value == 1.0
    assert rep.n_random == 1000


def test_crude_f1_unbiased():
    rep = crude_mc(F1.fn, 1, 100_000, Stream(1, 0), keep_terms=True)
    se = rep.per_stratum_terms.std(ddof=1) / math.sqrt(rep.n_random)
    assert abs(rep.value - 1.0) <= 4 * se


def test_crude_stderr_scaling():
    # sd of the estimator shrinks like n^-1/2: two-point slope
    sds = []
    for n in (1_000, 100_000):
        vals = [crude_mc(F1.fn, 1, n, st).value for st in _streams(3, 60)]
        sds.append(np.std(vals, ddof=1))
    slope = (math.log(sds[1]) - math.log(sds[0])) / (math.log(100_000) - math.log(1_000))
    assert slope == pytest.approx(-0.5, abs=0.15)


# ---------------------------------------------------------------------------
# Haber rules

def test_haber_constant_exact():
    const = lambda p: np.full(len(p), 2.5)
    g = GridSpec(2, 4, 0)
    assert haber1(const, g, Stream(0, 0)).value == 2.5
    assert haber2(const, g, Stream(0, 0)).value == 2.5


def test_haber2_affine_exact_every_run():
    aff = lambda p: 1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1]
    exact = 1.0 + 1.0 - 0.25
    g = GridSpec(2, 3, 0)
    for st in _streams(4, 20):
        assert haber2(aff, g, st).value == pytest.approx(exact, rel=1e-12)


def test_haber1_counts():
    g = GridSpec(2, 4, 0)
    rep = haber1(lambda p: p[:, 0], g, Stream(0, 0))
    assert (rep.n_deterministic, rep.n_random, rep.n_in_domain) == (0, 16, 16)


def test_haber_margin_rejected():
    with pytest.raises(ValueError):
        haber1(F1.fn, GridSpec(1, 4, 1), Stream(0, 0))


# ---------------------------------------------------------------------------
# control-variate estimators

def test_analytic_cv_polynomial_exact():
    rng = np.random.default_rng(0)
    for s, r in [(1, 4), (2, 4), (2, 3)]:
        poly = random_poly(s, r - 1, rng)
        g = GridSpec(s, max(r, 4), 0)
        for st in _streams(5, 5):
            rep = estimate_analytic_cv(poly, poly.oracle(), r, g, st)
            assert rep.value == pytest.approx(poly.integral(), rel=1e-9, abs=1e-9)


def test_analytic_cv_zero_oracle_is_haber2():
    zero = lambda alpha, pts: np.zeros(len(pts))
    g = GridSpec(2, 5, 0)
    st = Stream(9, 9)
    assert estimate_analytic_cv(F1_2D.fn, zero, 4, g, st).value == haber2(F1_2D.fn, g, st).value


F1_2D = product_family(2)


def test_analytic_cv_beats_haber2():
    # paired comparison on shared streams, f1, r=4
    g = GridSpec(1, 8, 0)
    d_star, d_h2 = [], []
    for st in _streams(6, 1000):
        d_star.append(estimate_analytic_cv(F1.fn, _f1_oracle, 4, g, st).value - 1.0)
        d_h2.append(haber2(F1.fn, g, st).value - 1.0)
    assert np.var(d_star) < np.var(d_h2)


def _f1_oracle(alpha, pts):
    # D^a (u e^u) = (a + u) e^u
    a = alpha[0]
    u = pts[:, 0]
    return (a + u) * np.exp(u)


@pytest.mark.parametrize("estimator", [estimate_paired_cv, estimate_single_cv])
def test_cv_polynomial_exact(estimator):
    rng = np.random.default_rng(7)
    for s, r in [(1, 3), (2, 4), (3, 3)]:
        poly = random_poly(s, r - 1, rng)
        g = GridSpec(s, max(r, 4), 0)
        for st in _streams(7, 3):
            rep = estimator(poly, r, g, st)
            assert rep.value == pytest.approx(poly.integral(), rel=1e-9, abs=1e-9)


def test_paired_counts():
    g = GridSpec(1, 8, 0)
    rep = estimate_paired_cv(F1.fn, 3, g, Stream(0, 0))
    assert (rep.n_deterministic, rep.n_random) == (8, 16)
    assert rep.n_in_domain == 24  # 3 k^s


def test_single_counts():
    g = GridSpec(1, 8, 0)
    rep = estimate_single_cv(F1.fn, 3, g, Stream(0, 0))
    assert (rep.n_deterministic, rep.n_random) == (8, 8)
    assert rep.n_in_domain == 16  # 2 k^s


def test_paired_even_odd_identity():
    g = GridSpec(1, 8, 0)
    for st in _streams(8, 5):
        for q in (1, 2):
            lo = estimate_paired_cv(F1.fn, 2 * q - 1, g, st).value
            hi = estimate_paired_cv(F1.fn, 2 * q, g, st).value
            assert lo == hi


def test_single_r1_is_haber1():
    g = GridSpec(2, 4, 0)
    st = Stream(30, 2)
    assert estimate_single_cv(F1_2D.fn, 1, g, st).value == haber1(F1_2D.fn, g, st).value


def test_cv_resolution_error():
    with pytest.raises(ResolutionError):
        estimate_paired_cv(F1.fn, 4, GridSpec(1, 3, 0), Stream(0, 0))
    with pytest.raises(ResolutionError):
        estimate_single_cv(F1.fn, 4, GridSpec(1, 3, 0), Stream(0, 0))


def test_cv_block_mode_runs():
    g = GridSpec(1, 7, 0)
    rep = estimate_paired_cv(F1.fn, 3, g, Stream(3, 3), mode="block")
    assert abs(rep.value - 1.0) < 0.01


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        estimate_paired_cv(F1.fn, 3, GridSpec(1, 8, 0), Stream(0, 0), mode="diagonal")


# ---------------------------------------------------------------------------
# vanishing estimator

def _bump(power=4):
    def fn(pts):
        pts = np.atleast_2d(pts)
        return np.prod((pts * (1.0 - pts)) ** power, axis=1)
    # integral of (u(1-u))^p over [0,1] is B(p+1, p+1)
    from math import gamma
    one_d = gamma(power + 1) ** 2 / gamma(2 * power + 2)
    return fn, one_d


def test_vanishing_equals_haber_rules():
    g0 = GridSpec(2, 6, 0)
    g1 = GridSpec(2, 6, 1)
    st = Stream(11, 4)
    assert estimate_vanishing(F1_2D.fn, 1, g1, st).value == haber1(F1_2D.fn, g0, st).value
    assert estimate_vanishing(F1_2D.fn, 2, g1, st).value == haber2(F1_2D.fn, g0, st).value


def test_vanishing_margin_mismatch():
    with pytest.raises(ValueError):
        estimate_vanishing(F1.fn, 3, GridSpec(1, 8, 1), Stream(0, 0))


def test_vanishing_unbiased_indicator():
    # constant inside a sub-box, zero near the boundary: mean over many
    # replicates within 4 standard errors of the exact mass
    def f(pts):
        pts = np.atleast_2d(pts)
        inside = np.all((pts >= 0.25) & (pts <= 0.75), axis=1)
        return np.where(inside, 2.0, 0.0)

    exact = 2.0 * 0.5  # s = 1
    vals = np.array([
        estimate_vanishing(f, 3, GridSpec(1, 4, 3), st).value
        for st in _streams(12, 10_000)
    ])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 4 * se


def test_vanishing_never_calls_outside():
    seen = []

    def f(pts):
        seen.append(np.atleast_2d(pts))
        return np.zeros(len(pts))

    estimate_vanishing(f, 3, GridSpec(1, 8, 3), Stream(5, 5))
    allpts = np.vstack(seen)
    assert np.all(allpts >= 0.0) and np.all(allpts <= 1.0)


def test_vanishing_in_domain_bounds():
    bump, _ = _bump()
    r, k, s = 3, 8, 1
    m = vanishing_margin(r)
    for st in _streams(13, 20):
        rep = estimate_vanishing(bump, r, GridSpec(s, k, m), st)
        assert r * (k - 2 * m) ** s <= rep.n_in_domain <= r * (k + 2 * m) ** s
        assert rep.n_random == r * (k + 2 * m) ** s
    # expectation of the in-domain count is r k^s
    counts = [estimate_vanishing(bump, r, GridSpec(s, k, m), st).n_in_domain
              for st in _streams(14, 4000)]
    assert np.mean(counts) == pytest.approx(r * k ** s, rel=0.02)


def test_vanishing_shift_averages_reassemble():
    bump, _ = _bump()
    st = Stream(15, 3)
    rep = estimate_vanishing(bump, 4, GridSpec(1, 8, 3), st)
    coeff = shift_coefficients(4)
    acc = 0.0
    for w, a in zip(coeff.weights, rep.shift_averages):
        acc += w * a
    assert acc == rep.value


# ---------------------------------------------------------------------------
# dilated stratum means

def test_shifted_mean_identity_shift():
    ones = lambda p: np.ones(len(p))
    val = shifted_stratum_mean(ones, 1, GridSpec(1, 4, 0), Stream(0, 0))
    assert val == 1.0


def test_shifted_mean_dilated_unbiased():
    ones = lambda p: np.ones(len(p))
    vals = np.array([
        shifted_stratum_mean(ones, 3, GridSpec(1, 4, 1), st)
        for st in _streams(16, 10_000)
    ])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.std() > 0  # genuinely random: boundary cubes partially covered
    assert abs(vals.mean() - 1.0) <= 4 * se


def test_shifted_mean_preconditions():
    ones = lambda p: np.ones(len(p))
    with pytest.raises(ValueError):
        shifted_stratum_mean(ones, 3, GridSpec(1, 4, 0), Stream(0, 0))  # margin too small
    with pytest.raises(ValueError):
        shifted_stratum_mean(ones, 2, GridSpec(1, 4, 1), Stream(0, 0))  # even dilation


# ---------------------------------------------------------------------------
# asymptotic variance diagnostic

def test_asymptotic_variance_zero_for_low_degree():
    # degree < r polynomial: all order-r derivatives vanish
    rng = np.random.default_rng(1)
    poly = random_poly(1, 1, rng)
    val = asymptotic_variance_estimate(poly.oracle(), 1, 2, budget=200, seed=0)
    assert val == pytest.approx(0.0, abs=1e-20)


def test_asymptotic_variance_symmetric_and_positive():
    val = asymptotic_variance_estimate(_f1_oracle, 1, 2, budget=2000, seed=1)
    # closed form for this integrand: int (f'')^2 / 720, with
    # int_0^1 (2 + u)^2 e^(2u) du = 13 e^2 / 4 - 5 / 4
    closed = (3.25 * math.exp(2.0) - 1.25) / 720.0
    assert val == pytest.approx(closed, rel=0.15)


def test_order_validation():
    with pytest.raises(OrderError):
        estimate_paired_cv(F1.fn, 0, GridSpec(1, 4, 0), Stream(0, 0))
    with pytest.raises(OrderError):
        shift_coefficients(0)


def test_single_cv_rate():
    # f1, r=3: MSE against n decays at roughly the -(1 + 2r/s) = -7 rate
    ns, mses = [], []
    for k in (8, 16, 32, 64):
        vals = np.array([
            estimate_single_cv(F1.fn, 3, GridSpec(1, k, 0), st).value
            for st in _streams(50 + k, 40)
        ])
        ns.append(2 * k)
        mses.append(np.mean((vals - 1.0) ** 2))
    slope = np.polyfit(np.log(ns), np.log(mses), 1)[0]
    assert slope == pytest.approx(-7.0, abs=1.1)


# ---------------------------------------------------------------------------
# integrand contract

def test_scalar_integrand_rejected():
    # a scalar result used to broadcast into shape-() terms and a wrong variance
    with pytest.raises(IntegrandError, match=r"shape \(\)"):
        haber2(lambda p: 1.0, GridSpec(2, 4, 0), Stream(0, 0), keep_terms=True)
    with pytest.raises(IntegrandError, match="shape"):
        crude_mc(lambda p: np.ones((len(p), 1)), 2, 16, Stream(0, 0))


def test_nonfinite_integrand_rejected():
    # one NaN at a single random point of the pair, named in the error
    def f(pts):
        out = np.ones(len(pts))
        out[np.flatnonzero(pts[:, 0] > 0.9)[:1]] = np.nan
        return out

    with pytest.raises(IntegrandError, match=r"nan at point \d+ \[0\.9"):
        estimate_paired_cv(f, 4, GridSpec(1, 8, 0), Stream(1, 0))


def test_scalar_derivative_oracle_rejected():
    # a scalar oracle used to broadcast: 1.718119 against e - 1 for exp at r=4
    with pytest.raises(IntegrandError, match=r"derivative oracle at alpha=\(2,\) returned shape \(\)"):
        estimate_analytic_cv(lambda p: np.exp(p[:, 0]), lambda a, p: 1.0, 4,
                             GridSpec(1, 8, 0), Stream(0, 0))


def test_nonfinite_derivative_oracle_rejected():
    # a NaN oracle used to turn the estimate into nan with no error
    def oracle(alpha, pts):
        out = np.exp(pts[:, 0])
        out[3] = np.nan
        return out

    with pytest.raises(IntegrandError,
                       match=r"derivative oracle at alpha=\(2,\) returned nan at point 3 "
                             r"\[0\.4375\] in stratum \(3,\)"):
        estimate_analytic_cv(lambda p: np.exp(p[:, 0]), oracle, 4, GridSpec(1, 8, 0), Stream(0, 0))


def test_guarded_nonfinite_names_the_stratum():
    # under the zero-extension guard only in-domain points reach f, so the
    # offending row of that subset must be mapped back to its stratum
    grid = GridSpec(2, 4, 1)
    stream = Stream(5, 2)

    def f(pts):
        out = np.prod(pts * (1.0 - pts), axis=1)
        out[np.flatnonzero((pts[:, 0] > 0.75) & (pts[:, 1] > 0.75))[:1]] = np.nan
        return out

    # the first shift is +1, so the first bad point is the first in-domain
    # point c + U_c in the top corner cell
    pts = centre_array(grid) + stream.offsets(grid)
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    row = np.flatnonzero(inside & (pts[:, 0] > 0.75) & (pts[:, 1] > 0.75))[0]
    stratum = tuple(index_array(grid)[row].tolist())
    assert row != np.flatnonzero(np.flatnonzero(inside) == row)[0]  # the subset row differs
    message = rf"at point {row} \[.*\] in stratum \({stratum[0]}, {stratum[1]}\)"
    with pytest.raises(IntegrandError, match=message):
        estimate_vanishing(f, 2, grid, stream)
    with pytest.raises(IntegrandError, match=message):
        shifted_stratum_mean(f, 1, grid, stream)
