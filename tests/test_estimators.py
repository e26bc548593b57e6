import itertools
import math
import re
import weakref

import numpy as np
import pytest

import stratmc.estimators as estimators
import stratmc.lattice as lattice

from stratmc.errors import IntegrandError, OrderError, ResolutionError
from stratmc.lattice import GridSpec, Stream, centre_array, index_array
from stratmc.stencil import derivative_grid, multi_indices
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
from stratmc.transform import laplace_reparametrize, wrap

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
    assert c.shifts == (1,) and c.weights == (1.0,) and vanishing_margin(1) == 0


def test_shift_coefficients_r2():
    c = shift_coefficients(2)
    assert c.shifts == (1, -1)
    assert c.weights == (0.5, 0.5)
    assert vanishing_margin(2) == 0


def test_shift_coefficients_r4():
    # frozen from the exact rational solve of the 4x4 moment system
    c = shift_coefficients(4)
    assert c.shifts == (1, -1, 3, -3)
    assert c.weights == (9 / 16, 9 / 16, -1 / 16, -1 / 16)
    assert vanishing_margin(4) == 1


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
    # the margin is the reach of the widest dilation, (max |shift| - 1) // 2
    assert vanishing_margin(r) == (max(map(abs, c.shifts)) - 1) // 2 == (r - 1) // 2


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


@pytest.mark.parametrize("mode", ["free", "block"])
@pytest.mark.parametrize("estimator", [estimate_paired_cv, estimate_single_cv])
def test_cv_polynomial_exact_s4(estimator, mode):
    # s=4 runs the last-axis passes on the transposed view; k = r + 1 puts an
    # overlapping block on every axis in block mode
    rng = np.random.default_rng(11)
    for r in (2, 3, 4):
        poly = random_poly(4, r - 1, rng)
        g = GridSpec(4, r + 1, 0)
        for st in _streams(11, 2):
            rep = estimator(poly, r, g, st, mode=mode)
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


@pytest.mark.parametrize("estimator", [estimate_paired_cv, estimate_single_cv])
def test_block_mode_fails_on_the_grid_rule_first(estimator):
    # a grid that block mode's stencils would also reject fails with the
    # plan's grid rule, checked first
    for r, grid, error, message in (
            (3, GridSpec(1, 8, 1), ValueError, "this estimator runs on margin-free grids (m = 0)"),
            (5, GridSpec(1, 4, 0), ResolutionError, "need k >= r, got k=4, r=5"),
            (0, GridSpec(1, 4, 0), OrderError, "order must be >= 1, got 0")):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            estimator(F1.fn, r, grid, Stream(0, 0), mode="block")


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_block_mode_at_k_equal_r_is_free_mode(r, s):
    # with one block per axis the block-local windows are the free ones
    grid = GridSpec(s, r, 0)
    fvals = np.random.default_rng(10 * r + s).normal(size=grid.n_centres)
    alphas = [a for total in range(r) for a in multi_indices(s, total)]
    free = derivative_grid(fvals, alphas, grid, r, mode="free")
    block = derivative_grid(fvals, alphas, grid, r, mode="block")
    assert [d.tobytes() for d in block] == [d.tobytes() for d in free]

    def f(x):
        return np.exp(0.7 * x.sum(axis=1)) + np.cos(3.0 * x[:, 0])
    for estimator in (estimate_paired_cv, estimate_single_cv):
        free, block = (estimator(f, r, grid, Stream(7, r), mode=mode, keep_terms=True)
                       for mode in ("free", "block"))
        assert block.value == free.value
        assert block.per_stratum_terms.tobytes() == free.per_stratum_terms.tobytes()


def test_unknown_mode_rejected():
    # an unhashable mode cannot key the plan cache; it fails as any unknown mode
    for estimator in (estimate_paired_cv, estimate_single_cv):
        for mode in ("diagonal", ["free"]):
            with pytest.raises(ValueError, match=re.escape(f"unknown stencil mode {mode!r}")):
                estimator(F1.fn, 3, GridSpec(1, 8, 0), Stream(0, 0), mode=mode)


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
    # dilation 3 reaches one cell beyond the cube, so m = 0 is too small
    with pytest.raises(ValueError, match="need at least 1"):
        estimate_vanishing(F1.fn, 3, GridSpec(1, 8, 0), Stream(0, 0))


def test_margin_message_shared_by_every_guarded_estimator():
    # one grid rule: the dilated mean and the vanishing estimator (alone or
    # at every order) reject a short margin with the same message
    grid = GridSpec(2, 4, 0)
    messages = set()
    for call in (lambda: shifted_stratum_mean(F1_2D.fn, -3, grid, Stream(0, 0)),
                 lambda: estimate_vanishing(F1_2D.fn, 4, grid, Stream(0, 0)),
                 lambda: estimators.vanishing_orders(F1_2D.fn, 3, grid, [Stream(0, 0)])):
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError
        messages.add(str(err.value))
    assert messages == {"margin 0 is below the reach 1 of the dilations; need at least 1"}


def test_vanishing_unbiased_indicator():
    # constant inside a sub-box, zero near the boundary: mean over many
    # replicates within 4 standard errors of the exact mass
    def f(pts):
        pts = np.atleast_2d(pts)
        inside = np.all((pts >= 0.25) & (pts <= 0.75), axis=1)
        return np.where(inside, 2.0, 0.0)

    exact = 2.0 * 0.5  # s = 1
    # one call for all replicates: each report is its single-stream report
    vals = np.array([
        report.value
        for report in estimate_vanishing(f, 3, GridSpec(1, 4, 3), _streams(12, 10_000))
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


def test_asymptotic_variance_returns_python_float():
    val = asymptotic_variance_estimate(_f1_oracle, 1, 2, budget=20, seed=2)
    assert type(val) is float and val > 0.0


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


def test_non_integer_order_is_a_type_error_naming_it():
    # 2.5 used to run the vanishing estimator at order 3 while reporting r = 2.5,
    # vanishing_margin(2.5) gave 1, and 4.0 died in range() without naming r
    st, f2 = Stream(0, 0), product_family(2).fn
    calls = {
        "vanishing": lambda r: estimate_vanishing(f2, r, GridSpec(2, 8, 1), st),
        "vanishing_margin": vanishing_margin,
        "shift_coefficients": shift_coefficients,
        "orders": lambda r: estimators.vanishing_orders(f2, r, GridSpec(2, 8, 1), [st]),
        "paired": lambda r: estimate_paired_cv(F1.fn, r, GridSpec(1, 8, 0), st),
        "single": lambda r: estimate_single_cv(F1.fn, r, GridSpec(1, 8, 0), st, mode="block"),
        "analytic": lambda r: estimate_analytic_cv(F1.fn, _f1_oracle, r, GridSpec(1, 8, 0), st),
    }
    for call in calls.values():
        for r in (2.5, 4.0, np.float64(3.0), "3", None):
            with pytest.raises(TypeError, match=re.escape(f"order must be an integer, got {r!r}")):
                call(r)
    with pytest.raises(TypeError, match=r"^dilation must be an integer, got 3\.0$"):
        shifted_stratum_mean(F1.fn, 3.0, GridSpec(1, 8, 1), st)


def test_numpy_integer_order_shares_the_int_plan():
    grid = GridSpec(1, 8, 0)
    for variant, mode, m in (("paired_cv", "free", 0), ("single_cv", "block", 0),
                             ("vanishing", "free", 1)):
        assert estimators._plan(variant, np.int64(3), GridSpec(1, 8, m), mode) is \
            estimators._plan(variant, 3, GridSpec(1, 8, m), mode)
    rep = estimate_paired_cv(F1.fn, np.int64(3), grid, Stream(0, 0))
    assert type(rep.config.r) is int
    assert rep == estimate_paired_cv(F1.fn, 3, grid, Stream(0, 0))
    assert vanishing_margin(np.int64(5)) == 2
    assert list(estimators.vanishing_orders(F1.fn, np.int64(2), GridSpec(1, 8, 0),
                                            [Stream(0, 0)])) == [1, 2]


def test_numpy_integer_grid_gives_the_int_grid_report():
    # a report's config holds the grid of the cached plan, which equal grids
    # share: a numpy-integer grid must not show up in the report of an int one
    f, st = product_family(2).fn, Stream(4, 1)
    first = estimate_single_cv(f, 3, GridSpec(np.int64(2), np.int64(8)), st)
    second = estimate_single_cv(f, 3, GridSpec(2, 8), st)
    for rep in (first, second):
        assert repr(rep.config.grid) == "GridSpec(s=2, k=8, m=0)"
        assert type(rep.normalizer) is int
    assert first.value == second.value


def test_plan_cache_does_not_keep_the_derivative_oracle_alive():
    class Oracle:
        def __call__(self, alpha, pts):
            return _exp_oracle(alpha, pts)

    oracle = Oracle()
    ref = weakref.ref(oracle)
    f = lambda p: np.exp(0.5 * np.sum(p, axis=1))
    estimate_analytic_cv(f, oracle, 4, GridSpec(2, 4, 0), [Stream(0, 0), Stream(0, 1)])
    del oracle
    assert ref() is None


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


@pytest.mark.parametrize("values, dtype", [
    (lambda p: p[:, 0] + 1j, r"complex128"),
    (lambda p: np.array(["0.5"] * len(p)), r"<U3"),
    (lambda p: np.array([0.5] * len(p), dtype=object), r"object"),
], ids=["complex", "string", "object"])
def test_non_real_integrand_rejected(values, dtype):
    # complex output used to lose its imaginary part with only a
    # ComplexWarning; strings and objects raised a bare ValueError / TypeError
    with pytest.raises(IntegrandError, match=rf"^integrand returned values of dtype {dtype};"):
        haber1(values, GridSpec(2, 4), Stream(1))
    with pytest.raises(IntegrandError,
                       match=rf"^derivative oracle at alpha=\(2,\) returned values of dtype {dtype};"):
        estimate_analytic_cv(lambda p: np.exp(p[:, 0]), lambda a, p: values(p), 4,
                             GridSpec(1, 8, 0), Stream(0, 0))


def test_boolean_and_integer_integrands_are_real():
    # kinds b, i, u and f are converted to float64, as before
    grid, st = GridSpec(2, 4), Stream(1)
    step = lambda p: p[:, 0] > 0.5
    want = haber1(lambda p: step(p).astype(float), grid, st).value
    for f in (step, lambda p: step(p).astype(np.int32), lambda p: step(p).astype(np.uint8),
              lambda p: step(p).astype(np.float32)):
        assert haber1(f, grid, st).value == want


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

    # the same on 3 axes with a margin wider than the dilations reach: the
    # bad point lies in the top corner cell, row 2 + m of each axis
    grid = GridSpec(3, 3, 2)
    stream = Stream(8, 1)

    def g(pts):
        out = np.prod(pts * (1.0 - pts), axis=1)
        out[np.flatnonzero(np.all(pts > 2.0 / 3.0, axis=1))[:1]] = np.inf
        return out

    pts = centre_array(grid) + stream.offsets(grid)
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    row = np.flatnonzero(inside & np.all(pts > 2.0 / 3.0, axis=1))[0]
    assert row == np.ravel_multi_index((4, 4, 4), (7, 7, 7))
    message = rf"returned inf at point {row} \[.*\] in stratum \(2, 2, 2\)"
    for r in (1, 3):
        with pytest.raises(IntegrandError, match=message):
            estimate_vanishing(g, r, grid, stream)


# the check folded into the batch sum: a plain float64 (n,) batch with a
# finite sum is accepted from its sum; both branches of the shifted sums

def _branch(guarded):
    """The grid and estimator of one branch; the first dilation is +1 on both."""
    if guarded:
        grid = GridSpec(2, 4, 1)
        return grid, lambda f, st: estimate_vanishing(f, 1, grid, st)
    grid = GridSpec(2, 4, 0)
    return grid, lambda f, st: haber1(f, grid, st)


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_folded_check_nonfinite_names_the_stratum(guarded, bad):
    grid, estimate = _branch(guarded)
    stream = Stream(3, 7)
    pts = centre_array(grid) + stream.offsets(grid)
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    hot = inside & (pts[:, 0] > 0.5) & (pts[:, 1] > 0.5)
    row = np.flatnonzero(hot)[0]
    stratum = tuple(index_array(grid)[row].tolist())

    def f(p):
        return np.where((p[:, 0] > 0.5) & (p[:, 1] > 0.5), bad, 1.0)

    message = (rf"^integrand returned {bad} at point {row} \[.*\] in stratum "
               rf"\({stratum[0]}, {stratum[1]}\) \({hot.sum()} non-finite values in total\)$")
    with pytest.raises(IntegrandError, match=message):
        estimate(f, stream)


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
def test_folded_check_converts_bool_and_int(guarded):
    _grid, estimate = _branch(guarded)
    stream = Stream(3, 8)
    step = lambda p: p[:, 0] > 0.5
    want = estimate(lambda p: step(p).astype(np.float64), stream)
    for f in (step, lambda p: step(p).astype(np.int64)):
        got = estimate(f, stream)
        assert got.value == want.value and got.shift_averages == want.shift_averages


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
def test_folded_check_masked_array_is_checked_by_its_data(guarded):
    # a masked array's sum skips its masked entries, so its NaN data must
    # still be found by the element check
    _grid, estimate = _branch(guarded)

    def f(p):
        high = p[:, 0] > 0.5
        return np.ma.masked_array(np.where(high, np.nan, 1.0), mask=high)

    with pytest.raises(IntegrandError, match=r"^integrand returned nan at point \d+ "):
        estimate(f, Stream(3, 9))


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
def test_folded_check_accepts_finite_values_whose_sum_overflows(guarded):
    # the values are finite, so the batch is valid; only its sum overflows
    _grid, estimate = _branch(guarded)
    with np.errstate(over="ignore"):
        report = estimate(lambda p: np.full(len(p), 1e308), Stream(3, 10))
    assert report.value == math.inf


# one contract for every source: the integrand on each path to f, the
# derivative oracles, the wrapped g and the log-density h

def _after(calls, out):
    """f that answers exp(x_0) to its first ``calls`` calls and ``out(n)`` after."""
    seen = []

    def f(p):
        seen.append(None)
        return np.exp(p[:, 0]) if len(seen) <= calls else out(len(p))
    return f


_WRAP_POINTS = np.array([[0.3, 0.4], [0.0, 0.5], [0.6, 0.7]])  # row 1 never reaches g
_SOURCES = {
    "haber1": ("integrand", lambda out: haber1(_after(0, out), GridSpec(2, 4), Stream(1)).value),
    "vanishing-guarded": ("integrand", lambda out: estimate_vanishing(
        _after(0, out), 2, GridSpec(2, 4, 1), Stream(1)).value),
    "crude_mc": ("integrand", lambda out: crude_mc(_after(0, out), 2, 16, Stream(1)).value),
    # the pair's two dilations first, then the centre pass
    "paired-centres": ("integrand", lambda out: estimate_paired_cv(
        _after(2, out), 4, GridSpec(1, 8, 0), Stream(1)).value),
    "analytic-oracle": ("derivative oracle at alpha=(2,)", lambda out: estimate_analytic_cv(
        lambda p: np.exp(p[:, 0]), lambda a, p: out(len(p)), 4, GridSpec(1, 8, 0),
        Stream(1)).value),
    "variance-oracle": ("derivative oracle at alpha=(2,)", lambda out: asymptotic_variance_estimate(
        lambda a, p: out(len(p)), 1, 2, 4)),
    "wrap-g": ("wrapped integrand", lambda out: wrap(lambda y: out(len(y)), 2, 1.5)(
        _WRAP_POINTS).tolist()),
    "laplace-h": ("log-density", lambda out: laplace_reparametrize(
        lambda b: out(len(b)), np.zeros(2), scale="hessian").mode.tolist()),
}
_DTYPE = r"returned values of dtype {}; expected real numbers$"
_NONFINITE = (r"returned {} at point \d+ \[.*\]( in stratum \(.*\))? "
              r"\(\d+ non-finite values in total\)$")
_BAD = {
    "complex": (lambda n: np.ones(n) + 1j, _DTYPE.format("complex128")),
    "string": (lambda n: np.array(["0.5"] * n), _DTYPE.format("<U3")),
    "object": (lambda n: np.array([0.5] * n, dtype=object), _DTYPE.format("object")),
    "column": (lambda n: np.ones((n, 1)),
               r"returned shape \((\d+), 1\) for \1 points; expected \(\1,\)$"),
    "scalar": (lambda n: 1.0, r"returned shape \(\) for (\d+) points; expected \(\1,\)$"),
    "nan": (lambda n: np.where(np.arange(n) % 2, np.nan, 1.0), _NONFINITE.format("nan")),
    "inf": (lambda n: np.where(np.arange(n) % 2, np.inf, 1.0), _NONFINITE.format("inf")),
}


@pytest.mark.parametrize("bad", list(_BAD))
@pytest.mark.parametrize("source", list(_SOURCES))
def test_every_source_is_held_to_the_contract(source, bad):
    name, run = _SOURCES[source]
    out, tail = _BAD[bad]
    with pytest.raises(IntegrandError, match="^" + re.escape(name) + " " + tail):
        run(out)


def _outcome(run, out):
    try:
        return run(out)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("source", list(_SOURCES))
def test_every_source_takes_bool_and_int_as_float64(source):
    _name, run = _SOURCES[source]
    step = lambda n: np.arange(n) % 3 == 0
    want = _outcome(run, lambda n: step(n).astype(np.float64))
    assert _outcome(run, step) == want
    assert _outcome(run, lambda n: step(n).astype(np.int64)) == want


# ---------------------------------------------------------------------------
# the sequence form of ``stream``

def _exp_oracle(alpha, pts):
    return 0.5 ** sum(alpha) * np.exp(0.5 * np.sum(pts, axis=1))


# name -> call(f, s, k, r, stream, keep_terms), for every public estimator
_BATCHED = {
    "crude": lambda f, s, k, r, st, keep: crude_mc(f, s, k ** s, st, keep_terms=keep),
    "haber1": lambda f, s, k, r, st, keep: haber1(f, GridSpec(s, k, 0), st, keep_terms=keep),
    "haber2": lambda f, s, k, r, st, keep: haber2(f, GridSpec(s, k, 0), st, keep_terms=keep),
    "analytic": lambda f, s, k, r, st, keep: estimate_analytic_cv(
        lambda p: np.exp(0.5 * np.sum(p, axis=1)), _exp_oracle, r, GridSpec(s, k, 0), st,
        keep_terms=keep),
    "paired-free": lambda f, s, k, r, st, keep: estimate_paired_cv(
        f, r, GridSpec(s, k, 0), st, keep_terms=keep),
    "paired-block": lambda f, s, k, r, st, keep: estimate_paired_cv(
        f, r, GridSpec(s, k, 0), st, mode="block", keep_terms=keep),
    "single-free": lambda f, s, k, r, st, keep: estimate_single_cv(
        f, r, GridSpec(s, k, 0), st, keep_terms=keep),
    "single-block": lambda f, s, k, r, st, keep: estimate_single_cv(
        f, r, GridSpec(s, k, 0), st, mode="block", keep_terms=keep),
    "vanishing": lambda f, s, k, r, st, keep: estimate_vanishing(
        f, r, GridSpec(s, k, vanishing_margin(r)), st, keep_terms=keep),
}


def _fields(rep):
    terms = None if rep.per_stratum_terms is None else rep.per_stratum_terms.tobytes()
    return (rep.value, terms, rep.n_deterministic, rep.n_random, rep.n_in_domain,
            rep.normalizer, rep.shift_averages, rep.config, rep.stream)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(_BATCHED))
def test_stream_sequence_equals_single_calls(name, s):
    call = _BATCHED[name]
    f = product_family(s).fn
    k, r = {1: (7, 5), 2: (5, 4), 3: (4, 3), 4: (3, 3)}[s]
    for keep in (False, True):
        for l in range(1, 6):
            streams = [Stream(s, 10 * l + j) for j in range(l)]
            batch = call(f, s, k, r, streams, keep)
            assert isinstance(batch, list) and len(batch) == l
            for st, rep in zip(streams, batch):
                assert _fields(rep) == _fields(call(f, s, k, r, st, keep))


def test_stream_sequence_evaluates_centres_once():
    points = []

    def f(pts):
        points.append(len(pts))
        return np.exp(pts[:, 0] * pts[:, 1])

    grid = GridSpec(2, 5, 0)
    reports = estimate_single_cv(f, 3, grid, (Stream(0, 0), Stream(0, 1)))
    assert sum(points) == 3 * grid.n_centres  # not 4 k^s: one centre pass for both
    # each report still counts its own k^s centre evaluations
    assert [rep.n_in_domain for rep in reports] == [2 * grid.n_centres] * 2


def test_stream_sequence_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        haber1(F1.fn, GridSpec(1, 4, 0), [])
    with pytest.raises(ValueError, match="empty"):
        crude_mc(F1.fn, 1, 4, ())


def test_stream_sequence_rejects_non_stream():
    with pytest.raises(TypeError, match="stream 1 of the sequence is not a Stream: 7"):
        estimate_paired_cv(F1.fn, 3, GridSpec(1, 4, 0), [Stream(0, 0), 7])
    with pytest.raises(TypeError, match=r"stream 0 of the sequence is not a Stream: \(0, 1\)"):
        crude_mc(F1.fn, 1, 4, [(0, 1)])


@pytest.mark.parametrize("s", [1, 2, 3])
def test_guard_mask_is_closed_cube(s, monkeypatch):
    # offsets of -0.0 make c + 3U exactly c, and at lam = 3 on GridSpec(s, 1, 1)
    # the reach equals the margin, so the mask runs on the rows as given;
    # patched centres put every edge value on every axis (no lattice point
    # is -0.0 or a subnormal next to 0), other axes at 1/2: the closed cube
    # [0, 1]^s reaches f
    edges = [0.0, -0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
             np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    ctr = np.full((len(edges) * s, s), 0.5)
    for axis in range(s):
        ctr[axis * len(edges):(axis + 1) * len(edges), axis] = edges
    monkeypatch.setattr(estimators, "centre_array", lambda grid: ctr)
    seen = []

    def f(pts):
        seen.append(pts.copy())
        return np.ones(len(pts))

    inside = np.all((ctr >= 0.0) & (ctr <= 1.0), axis=1)
    assert inside.sum() == 5 * s
    u = np.full(ctr.shape, -0.0)
    means, rows, counts = estimators._shift_parts(f, GridSpec(s, 1, 1), (3,), u, True)
    assert counts == [5 * s] and means == [5.0 * s]
    assert np.array_equal(rows[0] != 0.0, inside)
    assert np.array_equal(seen[0], ctr[inside])
    assert np.array_equal(np.signbit(seen[0]), np.signbit(ctr[inside]))


# the guarded pass visits only each dilation's reach box; an oracle of the
# full-grid column mask pins its batches and results bit for bit

def _full_grid_pass(f, grid, shifts, stream, ctr=None):
    """Per dilation: the batch of every in-cube point of the whole grid, the
    grid rows it came from, its mean, its value row and its count.
    ``stream`` may be the offsets themselves, and ``ctr`` given centres."""
    ctr = centre_array(grid) if ctr is None else ctr
    u = stream.offsets(grid) if isinstance(stream, Stream) else stream
    out = []
    for lam in shifts:
        pts = ctr + u if lam == 1 else ctr - u if lam == -1 else ctr + lam * u
        mask = np.ones(len(pts), dtype=bool)
        for col in pts.T:
            mask &= col >= 0.0
            mask &= col <= 1.0
        batch, vals, total = pts.compress(mask, axis=0), np.zeros(len(pts)), 0.0
        if len(batch):
            inside = np.asarray(f(batch), dtype=float)
            total = float(np.sum(inside))
            vals[mask] = inside
        out.append((batch, np.flatnonzero(mask), total / float(grid.k) ** grid.s, vals,
                    int(mask.sum())))
    return out


def _assert_oracle_report(rep, parts, weights):
    """value, shift_averages, n_in_domain and per_stratum_terms at these weights."""
    parts = parts[:len(weights)]
    value, terms = 0.0, np.zeros_like(parts[0][3])
    for w, (_batch, _rows, mean, vals, _count) in zip(weights, parts):
        value += w * mean
        terms += w * vals
    assert rep.value == value
    assert rep.shift_averages == tuple(p[2] for p in parts)
    assert rep.n_in_domain == sum(p[4] for p in parts)
    if rep.per_stratum_terms is not None:
        assert rep.per_stratum_terms.tobytes() == terms.tobytes()


def _signed(y):
    # values of both signs, and -0.0 on part of the cube
    return np.where(y[:, 0] < 0.25, -0.0, np.prod(np.sin(3.0 * y) + 0.5, axis=1))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_guarded_pass_matches_the_full_grid_mask(s):
    k = {1: 3, 2: 3, 3: 2, 4: 2}[s]
    for r in range(1, 7):
        coeff = shift_coefficients(r)
        for m in (vanishing_margin(r), vanishing_margin(r) + 2):
            grid = GridSpec(s, k, m)
            streams = [Stream(s, 10 * r + m + j) for j in range(3)]
            oracle = [_full_grid_pass(_signed, grid, coeff.shifts, st) for st in streams]
            seen = []

            def f(y):
                seen.append(y)
                return _signed(y)

            # f gets the full grid's batches: rows, order, values, signs of
            # zero, C-contiguous
            estimate_vanishing(f, r, grid, streams[0])
            want = [p[0] for p in oracle[0] if len(p[0])]
            assert len(seen) == len(want)
            for got, batch in zip(seen, want):
                assert got.flags.c_contiguous and got.tobytes() == batch.tobytes()
            for keep, batched in ((False, streams[:1]), (True, streams[:1]), (False, streams),
                                  (True, streams)):
                reports = estimate_vanishing(_signed, r, grid, batched, keep_terms=keep)
                for rep, parts in zip(reports, oracle):
                    assert (rep.per_stratum_terms is not None) == keep
                    _assert_oracle_report(rep, parts, coeff.weights)
            for r_prime, reports in estimators.vanishing_orders(_signed, r, grid, streams).items():
                for rep, parts in zip(reports, oracle):
                    assert rep.per_stratum_terms is not None
                    _assert_oracle_report(rep, parts, shift_coefficients(r_prime).weights)
            for lam in (1, -1, 3, -3, 5, -5):
                if (abs(lam) - 1) // 2 <= m:
                    want = _full_grid_pass(_signed, grid, (lam,), streams[1])[0][2]
                    assert shifted_stratum_mean(_signed, lam, grid, streams[1]) == want


def _zeros(y):
    return np.zeros(len(y))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _unit_dilations_keep(s, k, ctr, margin=None):
    """The +-1 dilations of the unit cells' centres ``ctr`` at a lane's
    lowest and highest draw, (m - 2^52) / (k 2^53) at m = 0 and 2^53 - 1, in
    every sign pattern: the full-grid mask keeps every point, and
    ``_dilated_points`` gives its batch untested, on the margin-free grid and
    on ``margin``, a ``(grid, centres, unit-cell rows)`` with margin.  The
    mask runs on the unit cells alone: at these draws a margin cell's point
    can touch a face exactly, and the reach box leaves it out."""
    div = float(k) * 2.0 ** 53
    for pattern in itertools.product((-2.0 ** 52 / div, (2.0 ** 52 - 1.0) / div), repeat=s):
        u = np.tile(pattern, (len(ctr), 1))
        for lam in (1, -1):
            batch, kept = _full_grid_pass(_zeros, GridSpec(s, k), (lam,), u, ctr)[0][:2]
            assert len(kept) == len(ctr)
            pts, rows = estimators._dilated_points(GridSpec(s, k), lam, ctr, u)
            assert _same_bits(pts, batch) and rows is None
            if margin is not None:
                grid, grid_ctr, unit = margin
                pts, rows = estimators._dilated_points(
                    grid, lam, grid_ctr, np.tile(pattern, (len(grid_ctr), 1)))
                assert _same_bits(pts, batch) and np.array_equal(rows, unit)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_unit_dilations_keep_every_cell(s):
    # no +-1 point of a unit cell leaves the closed cube, whatever k, margin
    # or draw; the lattice's own arrays, built outside its cache
    grid_arrays = lattice._grid_arrays.__wrapped__
    for k in list(range(1, 65)) + ([2 ** 20, 3 ** 13, 10 ** 6] if s == 1 else []):
        idx, ctr = grid_arrays(GridSpec(s, k, 2))
        unit = np.flatnonzero(np.all((idx >= 0) & (idx < k), axis=1))
        _unit_dilations_keep(s, k, grid_arrays(GridSpec(s, k))[1],
                             (GridSpec(s, k, 2), ctr, unit))
    if s == 1:
        # 2^31 - 1 cells are too many to build: the two cells at each face,
        # by the lattice's formula, which its grid at k = 2^20 reproduces
        for k in (2 ** 20, 2 ** 31 - 1):
            j = np.array([0, 1, k - 2, k - 1])
            ctr = ((2.0 * j + 1.0) / (2.0 * k))[:, None]
            if k == 2 ** 20:
                assert _same_bits(ctr, grid_arrays(GridSpec(1, k))[1].take(j, axis=0))
            _unit_dilations_keep(1, k, ctr)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_guarded_nonfinite_names_the_full_grid_row_under_every_dilation(s):
    # a NaN in the batch of dilation j names the caller's full-grid row and
    # its stratum, from the batch of its reach box
    grid = GridSpec(s, 2, vanishing_margin(6) + 1)
    stream = Stream(4, s)
    oracle = _full_grid_pass(_signed, grid, shift_coefficients(6).shifts, stream)
    for j, (batch, rows, _mean, _vals, _n) in enumerate(oracle):
        i = len(batch) // 2
        calls = []

        def f(y):
            calls.append(len(y))
            out = _signed(y)
            if len(calls) == j + 1:
                out[i] = np.nan
            return out

        stratum = re.escape(str(tuple(int(v) for v in index_array(grid)[rows[i]])))
        message = (rf"^integrand returned nan at point {rows[i]} \[.*\] in stratum {stratum} "
                   r"\(1 non-finite")
        with pytest.raises(IntegrandError, match=message):
            estimate_vanishing(f, 6, grid, stream)
