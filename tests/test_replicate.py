import math

import numpy as np
import pytest

from stratmc.errors import AlignmentError, DomainError
from stratmc.lattice import GridSpec, Stream
from stratmc.estimators import (
    EstimateReport,
    EstimatorConfig,
    estimate_vanishing,
    haber1,
    vanishing_margin,
)
from stratmc.replicate import pooled, select_order, tail_bound, variance_estimate
from stratmc.bench import test_function as product_family


F1 = product_family(1)


def _report(terms, normalizer=1, variant="haber1", r=1):
    terms = np.asarray(terms, dtype=float)
    return EstimateReport(
        value=float(terms.sum()) / normalizer,
        config=EstimatorConfig(variant, r, GridSpec(1, 4, 0)),
        n_deterministic=0,
        n_random=len(terms),
        n_in_domain=len(terms),
        normalizer=normalizer,
        per_stratum_terms=terms,
    )


def test_variance_identical_replicates_zero():
    reps = [_report([1.0, 2.0, 3.0]), _report([1.0, 2.0, 3.0])]
    assert variance_estimate(reps) == 0.0


def test_variance_hand_value():
    # one stratum, two replicates with terms 0 and 2: (1/1)((0-1)^2+(2-1)^2)/1 = 2
    reps = [_report([0.0]), _report([2.0])]
    assert variance_estimate(reps) == 2.0


def test_variance_unbiased_small():
    # quick sanity on the full pipeline; the tight 5% check is in acceptance
    grid = GridSpec(1, 4, 0)
    outer = []
    all_vals = []
    for outer_rep in range(300):
        reports = [
            haber1(F1.fn, grid, Stream(2, 3 * outer_rep + j), keep_terms=True)
            for j in range(3)
        ]
        outer.append(variance_estimate(reports))
        all_vals.extend(r.value for r in reports)
    emp = np.var(all_vals, ddof=1)
    assert np.mean(outer) == pytest.approx(emp, rel=0.2)


def test_variance_requires_terms():
    grid = GridSpec(1, 4, 0)
    reports = [haber1(F1.fn, grid, Stream(0, j)) for j in range(2)]
    with pytest.raises(AlignmentError):
        variance_estimate(reports)


def test_variance_rejects_mismatched_configs():
    reps = [_report([0.0, 1.0]), _report([0.0, 1.0], variant="haber2", r=2)]
    with pytest.raises(AlignmentError):
        variance_estimate(reps)


def test_pooling_rejects_repeated_stream():
    # three runs on one stream would pool to v_hat ~ 1e-34: a zero-width interval
    reports = haber1(product_family(2).fn, GridSpec(2, 8, 0), [Stream(0)] * 3, keep_terms=True)
    for pool in (variance_estimate, pooled):
        with pytest.raises(AlignmentError, match=r"share Stream\(seed=0, replicate=0\)"):
            pool(reports)
    distinct = haber1(product_family(2).fn, GridSpec(2, 8, 0), [Stream(0, j) for j in range(3)],
                      keep_terms=True)
    assert pooled(distinct).v_hat > 1e-12


def test_variance_rejects_different_stratum_counts():
    # one config and normalizer, but terms over 4 and 5 strata
    reps = [_report([0.0, 1.0, 2.0, 3.0]), _report([0.0, 1.0, 2.0, 3.0, 4.0])]
    with pytest.raises(AlignmentError, match=r"^replicates have different stratum counts$"):
        variance_estimate(reps)


def test_variance_rejects_single():
    with pytest.raises(AlignmentError):
        variance_estimate([_report([1.0])])


def test_variance_label_permutation_invariant():
    reps = [_report([0.0, 1.0]), _report([2.0, -1.0]), _report([0.5, 0.5])]
    assert variance_estimate(reps) == variance_estimate(list(reversed(reps)))


def test_pooled_identical():
    reps = [_report([1.0, 3.0]), _report([1.0, 3.0])]
    summary = pooled(reps)
    assert summary.pooled_mean == 4.0
    assert summary.pooled_variance == 0.0


def test_pooled_hand_mean():
    reps = [_report([1.0]), _report([3.0])]
    assert pooled(reps).pooled_mean == 2.0


def test_pooled_variance_shrinks_as_one_over_l():
    grid = GridSpec(1, 4, 0)
    sizes = (2, 4, 8)
    got = []
    for l in sizes:
        vals = []
        for outer in range(200):
            reports = [
                haber1(F1.fn, grid, Stream(4, 10_000 * l + l * outer + j), keep_terms=True)
                for j in range(l)
            ]
            vals.append(pooled(reports).pooled_variance)
        got.append(np.mean(vals))
    assert got[0] / got[1] == pytest.approx(2.0, rel=0.35)
    assert got[1] / got[2] == pytest.approx(2.0, rel=0.35)


# ---------------------------------------------------------------------------
# tail bound

def test_tail_bound_formula_limit():
    rad = tail_bound(0.999999, c_hat=2.0, norm_r=3.0, n=100, r=2, s=1)
    target = 100 ** (-2.5) * 6.0 * math.sqrt(2 * math.log(2 / 0.999999))
    assert rad == pytest.approx(target, rel=1e-9)


def test_tail_bound_zero_norm():
    assert tail_bound(0.1, c_hat=5.0, norm_r=0.0, n=64, r=3, s=2) == 0.0


def test_tail_bound_domain():
    with pytest.raises(DomainError):
        tail_bound(0.0, 1.0, 1.0, 10, 1, 1)
    with pytest.raises(DomainError):
        tail_bound(1.0, 1.0, 1.0, 10, 1, 1)
    # no evaluations, or no dimension: n^(-1/2 - r/s) is undefined
    with pytest.raises(DomainError):
        tail_bound(0.1, 1.0, 1.0, 0, 2, 1)
    with pytest.raises(DomainError):
        tail_bound(0.1, 1.0, 1.0, 10, 2, 0)


# ---------------------------------------------------------------------------
# order selection

def _smooth_bump(pts):
    pts = np.atleast_2d(pts)
    return np.prod((pts * (1.0 - pts)) ** 6, axis=1)


def test_select_order_rmax_one():
    grid = GridSpec(1, 8, vanishing_margin(1))
    best, summaries = select_order(_smooth_bump, 1, grid, 3, Stream(0, 0))
    assert best == 1 and set(summaries) == {1}


def test_select_order_matches_standalone_bitexact():
    r_max, k, l = 4, 8, 4
    grid = GridSpec(1, k, vanishing_margin(r_max))
    base = Stream(6, 100)
    best, summaries = select_order(_smooth_bump, r_max, grid, l, base)
    for r_prime in range(1, r_max + 1):
        stand_grid = GridSpec(1, k, vanishing_margin(r_prime))
        for j in range(l):
            rep = estimate_vanishing(_smooth_bump, r_prime, stand_grid, Stream(6, 100 + j))
            assert summaries[r_prime].values[j] == rep.value


def test_select_order_evaluation_sharing():
    calls = {"n": 0}

    def counting(pts):
        calls["n"] += len(np.atleast_2d(pts))
        return _smooth_bump(pts)

    r_max, k, l = 4, 8, 3
    grid = GridSpec(1, k, vanishing_margin(r_max))
    select_order(counting, r_max, grid, l, Stream(7, 0))
    shared = calls["n"]

    calls["n"] = 0
    for j in range(l):
        estimate_vanishing(counting, r_max, grid, Stream(7, j))
    top_alone = calls["n"]
    assert shared <= 1.05 * top_alone


def test_select_order_prefers_higher_order_on_smooth_bump():
    grid = GridSpec(1, 64, vanishing_margin(4))
    best, summaries = select_order(_smooth_bump, 4, grid, 8, Stream(8, 0))
    assert best > 1
    assert summaries[best].v_hat == min(s.v_hat for s in summaries.values())


def test_select_order_tie_breaks_low():
    # a constant-zero integrand gives V_hat = 0 at every order
    zero = lambda pts: np.zeros(len(np.atleast_2d(pts)))
    grid = GridSpec(1, 8, vanishing_margin(3))
    best, summaries = select_order(zero, 3, grid, 2, Stream(9, 0))
    assert best == 1
    assert all(s.v_hat == 0.0 for s in summaries.values())


def test_select_order_validation():
    grid = GridSpec(1, 8, vanishing_margin(2))
    with pytest.raises(ValueError):
        select_order(_smooth_bump, 2, grid, 1, Stream(0, 0))
    # a bad grid fails as it does for the vanishing estimator at the top order
    for r_max, bad in ((2, GridSpec(1, 1, vanishing_margin(2))),  # k = 1
                       (3, grid)):                                # wrong margin
        with pytest.raises(ValueError) as standalone:
            estimate_vanishing(_smooth_bump, r_max, bad, Stream(0, 0))
        with pytest.raises(ValueError) as selected:
            select_order(_smooth_bump, r_max, bad, 2, Stream(0, 0))
        assert type(selected.value) is type(standalone.value)
        assert str(selected.value) == str(standalone.value)


def test_select_order_pools_each_order_like_standalone_runs():
    r_max, k, l = 5, 6, 3
    grid = GridSpec(2, k, vanishing_margin(r_max))
    base = Stream(4, 20)
    _best, summaries = select_order(_smooth_bump, r_max, grid, l, base)
    assert list(summaries) == list(range(1, r_max + 1))
    for r_prime, summary in summaries.items():
        # the standalone grids have fewer margin cells, so the per-stratum
        # terms (and their summation order) differ: equal to rounding only
        alone = pooled([estimate_vanishing(_smooth_bump, r_prime,
                                           GridSpec(2, k, vanishing_margin(r_prime)),
                                           Stream(base.seed, base.replicate + j), keep_terms=True)
                        for j in range(l)])
        assert summary.v_hat == pytest.approx(alone.v_hat, rel=1e-12, abs=0.0)
        assert summary.pooled_variance == pytest.approx(alone.pooled_variance, rel=1e-12, abs=0.0)
