"""Property tests over random grids, orders and seeds (skipped without hypothesis).

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratmc.bench import test_function as product_family  # noqa: E402
from stratmc.estimators import (  # noqa: E402
    estimate_paired_cv,
    estimate_single_cv,
    estimate_vanishing,
    haber1,
    haber2,
    shifted_stratum_mean,
    vanishing_margin,
    vanishing_orders,
)
from stratmc.lattice import GridSpec, Stream, centre_array, index_array  # noqa: E402
from stratmc.stencil import (  # noqa: E402
    apply_stencil,
    derivative_grid,
    derivative_stencil,
    multi_indices,
)

from polyutils import random_poly  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def stencil_cases(draw):
    """(grid, r, mode, fvals, alphas): a free, margin or block grid and some
    multi-indices with |alpha| < r, duplicates and |alpha| = 0 allowed."""
    s = draw(st.integers(1, 4))
    r = draw(st.integers(1, 5 if s < 3 else 4))
    # s=4 grids stay small: k <= r + 1
    k = draw(st.integers(max(r, 2), r + 3 if s < 4 else r + 1))
    kind = draw(st.sampled_from(["free", "margin", "block"]))
    grid = GridSpec(s, k, draw(st.integers(1, 2)) if kind == "margin" else 0)
    mode = "block" if kind == "block" else "free"
    every = [a for total in range(r) for a in multi_indices(s, total)]
    alphas = draw(st.lists(st.sampled_from(every), min_size=1, max_size=12))
    fvals = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(size=grid.n_centres)
    return grid, r, mode, fvals, alphas


@SETTINGS
@given(stencil_cases())
def test_multi_index_call_matches_single_calls(case):
    grid, r, mode, fvals, alphas = case
    got = derivative_grid(fvals, alphas, grid, r, mode)
    assert len(got) == len(alphas)
    for alpha, d in zip(alphas, got):
        assert d.tobytes() == derivative_grid(fvals, alpha, grid, r, mode).tobytes()
    # a one-shot iterator is read once, not probed and then walked
    from_iter = derivative_grid(fvals, iter(alphas), grid, r, mode)
    assert [d.tobytes() for d in from_iter] == [d.tobytes() for d in got]
    assert derivative_grid(fvals, [], grid, r, mode) == []


@SETTINGS
@given(stencil_cases(), st.data())
def test_multi_index_call_matches_apply_stencil(case, data):
    grid, r, mode, fvals, alphas = case
    idx = index_array(grid)
    values = {tuple(j): v for j, v in zip(idx.tolist(), fvals)}
    rows = data.draw(st.lists(st.integers(0, grid.n_centres - 1), min_size=1, max_size=6))
    for alpha, d in zip(alphas, derivative_grid(fvals, alphas, grid, r, mode)):
        for row in rows:
            stencil = derivative_stencil(alpha, idx[row], grid, r, mode)
            assert d[row] == pytest.approx(apply_stencil(stencil, values), rel=1e-12, abs=1e-12)


@SETTINGS
@given(stencil_cases(), st.integers(0, 2 ** 32 - 1))
def test_multi_index_call_exact_on_polynomials(case, seed):
    # total degree < r: every D^alpha is reproduced at every centre, margin
    # and boundary-shifted windows included
    grid, r, mode, _fvals, alphas = case
    poly = random_poly(grid.s, r - 1, np.random.default_rng(seed))
    ctr = centre_array(grid)
    for alpha, d in zip(alphas, derivative_grid(poly(ctr), alphas, grid, r, mode)):
        want = poly.derivative(alpha, ctr)
        assert np.max(np.abs(d - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(st.integers(1, 3), st.integers(2, 7), st.integers(0, 2 ** 32 - 1), st.integers(0, 99))
def test_readme_identities_bit_for_bit(s, k, seed, replicate):
    f = product_family(s).fn
    g0, g1 = GridSpec(s, k, 0), GridSpec(s, k, 1)
    stream = Stream(seed, replicate)
    h1 = haber1(f, g0, stream).value
    h2 = haber2(f, g0, stream).value
    assert estimate_vanishing(f, 1, g1, stream).value == h1
    assert estimate_vanishing(f, 2, g1, stream).value == h2
    assert estimate_single_cv(f, 1, g0, stream).value == h1
    for q in range(1, k // 2 + 1):
        assert (estimate_paired_cv(f, 2 * q, g0, stream).value
                == estimate_paired_cv(f, 2 * q - 1, g0, stream).value)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 6), st.sampled_from([1, -1, 3, -3, 5]),
       st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_dilated_mean_margin_invariant_bit_for_bit(s, k, shift, extra, seed):
    # margin layers beyond the dilation's reach change no in-domain point,
    # so the guarded mean is the same floating-point sum
    f = product_family(s).fn
    m = (abs(shift) - 1) // 2
    stream = Stream(seed, 0)
    assert (shifted_stratum_mean(f, shift, GridSpec(s, k, m), stream)
            == shifted_stratum_mean(f, shift, GridSpec(s, k, m + extra), stream))


@SETTINGS
@given(st.integers(1, 3), st.integers(2, 6), st.integers(1, 6), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_vanishing_margin_invariant_bit_for_bit(s, k, r, extra, seed):
    # vanishing_margin(r) is the smallest margin; every larger one gives the
    # same value, shift averages and in-domain count, alone and at every
    # order.  extra <= 3 reaches r or r - 1 layers, the margin of older releases
    f = product_family(s).fn
    streams = [Stream(seed, 0), Stream(seed, 1)]
    small = GridSpec(s, k, vanishing_margin(r))
    large = GridSpec(s, k, vanishing_margin(r) + extra)

    def key(rep):
        return rep.value, rep.shift_averages, rep.n_in_domain

    assert ([key(rep) for rep in estimate_vanishing(f, r, small, streams)]
            == [key(rep) for rep in estimate_vanishing(f, r, large, streams)])
    on_small, on_large = vanishing_orders(f, r, small, streams), vanishing_orders(f, r, large, streams)
    for r_prime in range(1, r + 1):
        assert [key(rep) for rep in on_small[r_prime]] == [key(rep) for rep in on_large[r_prime]]


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.sampled_from(["free", "block"]), st.integers(0, 2 ** 32 - 1))
def test_stream_sequence_equals_single_calls(s, extra_k, r, l, mode, seed):
    # every report of a batched call is the single-stream report, bit for bit
    f = product_family(s).fn
    grid = GridSpec(s, r + extra_k - 1, 0)
    streams = [Stream(seed, j) for j in range(l)]
    for est in (estimate_paired_cv, estimate_single_cv):
        for st_, rep in zip(streams, est(f, r, grid, streams, mode=mode, keep_terms=True)):
            one = est(f, r, grid, st_, mode=mode, keep_terms=True)
            assert rep.value == one.value
            assert rep.per_stratum_terms.tobytes() == one.per_stratum_terms.tobytes()
    vgrid = GridSpec(s, max(grid.k, 2), vanishing_margin(r))
    for st_, rep in zip(streams, estimate_vanishing(f, r, vgrid, streams)):
        assert rep.shift_averages == estimate_vanishing(f, r, vgrid, st_).shift_averages
