import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stratmc.errors import (
    DomainError,
    IncompleteEvaluationError,
    OrderError,
    ResolutionError,
    StencilError,
)
from stratmc.estimators import _shifts
from stratmc.lattice import GridSpec, centre_array, index_array
from stratmc.stencil import (
    _abs_order,
    _family_stencils,
    _lagrange_coeff_exact,
    _multi_factorial,
    apply_stencil,
    derivative_grid,
    derivative_stencil,
    error_constant,
    multi_indices,
    univariate_weights,
    univariate_weights_exact,
)

from polyutils import random_poly


def test_multi_index_helpers():
    assert _abs_order((2, 0, 1)) == 3
    assert _multi_factorial((3, 0, 2)) == 12
    assert list(multi_indices(2, 2)) == [(0, 2), (1, 1), (2, 0)]


# ---------------------------------------------------------------------------
# univariate weights

def test_forward_second_derivative():
    w = univariate_weights((0, 1, 2), 2)
    assert np.allclose(w, [1.0, -2.0, 1.0])


def test_central_second_derivative():
    w = univariate_weights((-1, 0, 1), 2)
    assert np.allclose(w, [1.0, -2.0, 1.0])


def test_central_first_derivative():
    # frozen from the exact rational solve of the 3x3 moment system
    w = univariate_weights((-1, 0, 1), 1)
    assert np.allclose(w, [-0.5, 0.0, 0.5])
    exact = univariate_weights_exact((-1, 0, 1), 1)
    assert [str(w) for w in exact] == ["-1/2", "0", "1/2"]


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 8, 10])
def test_moment_conditions(l):
    # Sum w k^i = a! at i = a and 0 at other i < l; float error measured
    # relative to the term magnitude (the identity is exact in rationals)
    rng = np.random.default_rng(l)
    for a in range(1, l):
        nodes = tuple(sorted(rng.choice(np.arange(-(l - 1), l), size=l, replace=False)))
        w = univariate_weights(nodes, a)
        kappas = np.array(nodes, dtype=float)
        for i in range(l):
            moment = float(np.sum(w * kappas ** i))
            target = float(math.factorial(a)) if i == a else 0.0
            scale = max(1.0, float(np.sum(np.abs(w * kappas ** i))))
            assert abs(moment - target) <= 1e-12 * scale


@pytest.mark.parametrize("l,a", [(4, 1), (6, 3), (10, 5)])
def test_moment_conditions_exact(l, a):
    # the rational weights satisfy the moment system with zero error
    nodes = tuple(range(-(l // 2), l - l // 2))
    exact = univariate_weights_exact(nodes, a)
    for i in range(l):
        moment = sum(w * k ** i for w, k in zip(exact, nodes))
        assert moment == (math.factorial(a) if i == a else 0)


def _fraction_lagrange(kappa, a):
    # the x^a coefficient of each Lagrange basis polynomial, expanded in
    # Fraction arithmetic throughout: the reference for the integer expansion
    weights = []
    for j in range(len(kappa)):
        num, den = [Fraction(1)], Fraction(1)
        for i in range(len(kappa)):
            if i == j:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for p, c in enumerate(num):
                nxt[p] += c * (-kappa[i])
                nxt[p + 1] += c
            num = nxt
            den *= kappa[j] - kappa[i]
        weights.append(num[a] / den * math.factorial(a))
    return tuple(weights)


def test_exact_weights_match_fraction_expansion():
    # every window 2-8 at every start the axis tables use, -(w-1)..0, and
    # every derivative order; then the dilation sets of r <= 8 at order 0
    cases = [(tuple(range(p, p + w)), a) for w in range(2, 9) for p in range(-(w - 1), 1)
             for a in range(1, w)]
    cases += [(_shifts(r), 0) for r in range(1, 9)]
    for kappa, a in cases:
        got = _lagrange_coeff_exact(kappa, a)
        assert got == _fraction_lagrange(kappa, a), (kappa, a)
        assert all(type(w) is Fraction for w in got)


def test_duplicate_nodes_rejected():
    with pytest.raises(StencilError):
        univariate_weights((0, 0, 1), 1)


def test_order_too_high_rejected():
    with pytest.raises(OrderError):
        univariate_weights((0, 1, 2), 3)


def test_non_integer_nodes_rejected():
    # 1.5 is not truncated to 1: the first non-integer node is named by its position
    message = r"^stencil nodes\[{}\]: node must be an integer, got {}$"
    for weights in (univariate_weights, univariate_weights_exact):
        with pytest.raises(TypeError, match=message.format(1, r"1\.5")):
            weights((0, 1.5, 2.0), 1)
        with pytest.raises(TypeError, match=message.format(2, r"2\.0")):
            weights((0, 1, 2.0), 1)
    # numpy integers are integers
    assert univariate_weights((0, np.int64(1), np.int32(2)), 1).tolist() == [-1.5, 2.0, -0.5]


def test_block_partition_rejects_side_below_one():
    # block mode's side is the order r, so a side below one fails as an order
    for r in (0, -1):
        with pytest.raises(OrderError, match=f"r={r}"):
            derivative_stencil((0,), (0,), GridSpec(1, 4), r, mode="block")


# ---------------------------------------------------------------------------
# node selection

def _window(j, k, window):
    """Offsets of the window at axis index j on a margin-free 1-d grid."""
    return tuple(derivative_stencil((1,), (j,), GridSpec(1, k, 0), window).offsets[:, 0].tolist())


def test_axis_nodes_interior():
    assert _window(4, 10, 3) == (-1, 0, 1)


def test_axis_nodes_left_boundary():
    assert _window(0, 10, 3) == (0, 1, 2)


def test_axis_nodes_right_boundary():
    assert _window(9, 10, 3) == (-2, -1, 0)


def test_axis_nodes_even_window_leans_negative():
    assert _window(5, 10, 4) == (-2, -1, 0, 1)


def test_axis_nodes_resolution_error():
    with pytest.raises(ResolutionError):
        _window(0, 2, 3)  # k=2, window 3


def test_select_axis_nodes_block_mode():
    grid = GridSpec(1, 6, 0)
    # centre at index 2 sits at the top of block {0,1,2}: window must shift
    assert tuple(derivative_stencil((1,), (2,), grid, 3, "block").offsets[:, 0]) == (-2, -1, 0)
    assert tuple(derivative_stencil((1,), (3,), grid, 3, "block").offsets[:, 0]) == (0, 1, 2)


@pytest.mark.parametrize("grid,block", [
    (GridSpec(1, 6, 0), False),
    (GridSpec(1, 6, 2), False),
    (GridSpec(1, 6, 0), True),
    (GridSpec(1, 7, 0), True),
], ids=["free", "margin", "block-6", "block-7"])
def test_stencil_windows_match_scalar_rule_and_exact_weights(grid, block):
    r = 3
    mode = "block" if block else "free"
    for j in grid.index_range():
        if block:
            lo = min(j // r * r, grid.k - r)
            hi = lo + r - 1
        else:
            lo, hi = -grid.m, grid.k + grid.m - 1
        # the window rule, written out: centred, an even window leaning
        # negative, shifted minimally to stay inside [lo, hi]
        start = max(lo - j, min(-(r // 2), hi - j - (r - 1)))
        want = tuple(range(start, start + r))
        for a in range(1, r):
            st = derivative_stencil((a,), (j,), grid, r, mode)
            assert tuple(st.offsets[:, 0].tolist()) == want
            assert st.weights.tolist() == [float(w) for w in univariate_weights_exact(want, a)]


def test_stencil_rejects_centre_outside_grid():
    grid = GridSpec(1, 9, 0)
    # a negative index must not wrap round to the last block
    with pytest.raises(DomainError):
        derivative_stencil((1,), (-1,), grid, 3, mode="block")
    # past the upper edge a free window would extrapolate from (6, 7, 8)
    with pytest.raises(DomainError):
        derivative_stencil((1,), (12,), grid, 3)


# ---------------------------------------------------------------------------
# multivariate stencils

def test_zero_alpha_stencil():
    grid = GridSpec(2, 4, 0)
    st = derivative_stencil((0, 0), (1, 1), grid, 3)
    assert len(st.weights) == 1 and st.weights[0] == 1.0 and st.scale == 1.0
    assert st.nodes.tolist() == [[1, 1]]


def test_mixed_alpha_node_count():
    grid = GridSpec(2, 4, 0)
    st = derivative_stencil((1, 1), (2, 2), grid, 3)
    assert len(st.weights) == 6  # 3 * 2 per the shrinking-window rule


def test_pure_axis_stencil_collinear():
    grid = GridSpec(2, 4, 0)
    st = derivative_stencil((2, 0), (2, 1), grid, 4)
    assert len(st.weights) == 4
    assert np.all(st.nodes[:, 1] == 1)  # inactive axis pinned to the centre
    assert len(set(st.nodes[:, 0].tolist())) == 4


def test_stencil_reach_bound():
    grid = GridSpec(2, 8, 0)
    for alpha in [(1, 0), (0, 2), (1, 1), (2, 1)]:
        for centre in [(0, 0), (3, 4), (7, 7)]:
            st = derivative_stencil(alpha, centre, grid, 4)
            assert np.max(np.abs(st.offsets)) <= 3  # (r-1)/k in index units


def test_order_error():
    grid = GridSpec(1, 8, 0)
    with pytest.raises(OrderError):
        derivative_stencil((3,), (4,), grid, 3)


def test_resolution_error():
    grid = GridSpec(1, 2, 0)
    with pytest.raises(ResolutionError):
        derivative_stencil((1,), (0,), grid, 3)


def test_weights_independent_of_k():
    sts = [derivative_stencil((1, 1), (4, 4), GridSpec(2, k, 0), 3) for k in (8, 32, 128)]
    for other in sts[1:]:
        assert np.array_equal(sts[0].weights, other.weights)
        assert np.array_equal(sts[0].offsets, other.offsets)


def test_apply_quadratic_exact():
    grid = GridSpec(1, 8, 0)
    values = {tuple(idx): float(c[0] ** 2) for idx, c in
              zip(index_array(grid).tolist(), centre_array(grid))}
    values = {(j,): v for (j,), v in zip(index_array(grid).tolist(), values.values())}
    for centre in [(0,), (3,), (7,)]:
        st = derivative_stencil((2,), centre, grid, 3)
        assert apply_stencil(st, values) == pytest.approx(2.0, abs=1e-10)


def test_apply_constant_zero():
    grid = GridSpec(2, 5, 0)
    values = {tuple(idx): 3.25 for idx in index_array(grid).tolist()}
    st = derivative_stencil((1, 1), (2, 2), grid, 3)
    assert apply_stencil(st, values) == pytest.approx(0.0, abs=1e-12)


def test_apply_missing_node():
    grid = GridSpec(1, 8, 0)
    st = derivative_stencil((1,), (4,), grid, 3)
    with pytest.raises(IncompleteEvaluationError):
        apply_stencil(st, {(4,): 1.0})


def test_apply_exp_order():
    # analytic-derivative oracle: error at a fixed interior centre decays
    # like k^-(r-|alpha|) for first derivatives (r=3)
    errs = []
    ks = [4, 8, 16, 32]
    for k in ks:
        grid = GridSpec(1, k, 0)
        c = centre_array(grid)[:, 0]
        d = derivative_grid(np.exp(c), [(1,)], grid, 3)[0]
        mid = k // 2
        errs.append(abs(d[mid] - np.exp(c[mid])))
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.4)


@pytest.mark.parametrize("s,r", [(1, 3), (2, 3), (2, 4), (3, 4)])
def test_polynomial_exactness_everywhere(s, r):
    # random polynomials of total degree < r: D^alpha reproduced at every
    # centre, boundary-shifted stencils included
    rng = np.random.default_rng(100 * s + r)
    k = max(r, 4)
    grid = GridSpec(s, k, 0)
    ctr = centre_array(grid)
    for trial in range(5):
        poly = random_poly(s, r - 1, rng)
        fvals = poly(ctr)
        for total in range(1, r):
            for alpha in multi_indices(s, total):
                got = derivative_grid(fvals, [alpha], grid, r)[0]
                want = poly.derivative(alpha, ctr)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) / scale < 1e-9


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("k,m,block", [(5, 0, False), (4, 1, False), (7, 0, True)],
                         ids=["free", "margin", "block"])
def test_derivative_grid_matches_apply(s, k, m, block):
    # the vectorized whole-grid path agrees with per-centre stencils on free,
    # margin and block grids, for every alpha the smoothness admits
    r = 3
    rng = np.random.default_rng(2)
    grid = GridSpec(s, k, m)
    mode = "block" if block else "free"
    fvals = rng.normal(size=grid.n_centres)
    values = {tuple(idx): v for idx, v in zip(index_array(grid).tolist(), fvals)}
    for total in range(r):
        for alpha in multi_indices(s, total):
            got = derivative_grid(fvals, [alpha], grid, r, mode)[0]
            for pos, idx in enumerate(index_array(grid).tolist()):
                st = derivative_stencil(alpha, idx, grid, r, mode)
                assert got[pos] == pytest.approx(apply_stencil(st, values), rel=1e-12, abs=1e-12)


def test_derivative_grid_multi_index_form():
    # one call over several multi-indices: one array per entry, in input
    # order, bit for bit the results of one-entry calls, duplicates included
    grid = GridSpec(2, 6, 0)
    fvals = np.random.default_rng(3).normal(size=grid.n_centres)
    alphas = [(1, 2), (0, 0), (2, 0), (1, 2), (0, 3), (1, 0)]
    got = derivative_grid(fvals, alphas, grid, 4)
    assert len(got) == len(alphas)
    for alpha, d in zip(alphas, got):
        assert d.tobytes() == derivative_grid(fvals, [alpha], grid, 4)[0].tobytes()
    assert got[0] is not got[3] and not np.shares_memory(got[1], fvals)


def _per_centre(fvals, alpha, grid, r, mode="free"):
    values = {tuple(idx): v for idx, v in zip(index_array(grid).tolist(), fvals)}
    return np.array([apply_stencil(derivative_stencil(alpha, idx, grid, r, mode), values)
                     for idx in index_array(grid).tolist()])


def test_derivative_grid_cached_programs_stay_apart():
    # the walk is planned once per (alphas, grid, r, mode): alternating calls
    # that differ in one of them each match their own per-centre stencils
    alphas = [(1, 0), (0, 2), (1, 1), (0, 0)]
    grid = GridSpec(2, 7, 0)
    fvals = np.random.default_rng(4).normal(size=grid.n_centres)
    want = {b: [_per_centre(fvals, a, grid, 3, b) for a in alphas] for b in ("free", "block")}
    assert not np.allclose(want["free"][0], want["block"][0])
    for b in ("free", "block", "free", "block"):
        for d, w in zip(derivative_grid(fvals, alphas, grid, 3, b), want[b]):
            np.testing.assert_allclose(d, w, rtol=1e-12, atol=1e-12)

    # the same side, 8, with and without a margin: only the scale k^|alpha| differs
    fv = np.random.default_rng(5).normal(size=8)
    grids = (GridSpec(1, 6, 1), GridSpec(1, 8, 0))
    want_1d = {g: [_per_centre(fv, a, g, 3) for a in [(1,), (2,)]] for g in grids}
    for g in grids + grids:
        for d, w in zip(derivative_grid(fv, [(1,), (2,)], g, 3), want_1d[g]):
            np.testing.assert_allclose(d, w, rtol=1e-12, atol=1e-12)

    # a returned array is the caller's: mutating it changes no later result
    before = fvals.copy()
    first = derivative_grid(fvals, alphas, grid, 3)
    kept = [d.copy() for d in first]
    for d in first:
        d += 1.0
    assert fvals.tobytes() == before.tobytes()
    for d, k in zip(derivative_grid(fvals, alphas, grid, 3), kept):
        assert d.tobytes() == k.tobytes()

    # an exception is not cached: block mode on a margin grid raises every time
    margin = GridSpec(2, 5, 1)
    for _ in range(3):
        with pytest.raises(ValueError, match="margin-free grid"):
            derivative_grid(fvals, alphas, margin, 3, mode="block")


@pytest.mark.parametrize("alpha", [(1,), (0, 1, 0), (-1, 1), ((1, 0), (1,))],
                         ids=["short", "long", "negative", "in-sequence"])
def test_malformed_multi_index_rejected(alpha):
    # a wrong length used to read as another multi-index, a negative entry
    # used to fail as an OrderError from the weight solve
    grid = GridSpec(2, 5, 0)
    single = np.ndim(alpha[0]) == 0
    with pytest.raises(ValueError, match="bad multi-index"):
        derivative_grid(np.zeros(grid.n_centres), [alpha] if single else alpha, grid, 3)
    if single:
        with pytest.raises(ValueError, match="bad multi-index"):
            derivative_stencil(alpha, (2, 2), grid, 3)


def test_unknown_mode_rejected():
    # checked before the plan cache, so an unhashable mode or an empty set
    # of multi-indices fails like any unknown mode
    grid = GridSpec(1, 8, 0)
    for mode in ("diagonal", ["block"]):
        message = re.escape(f"unknown stencil mode {mode!r}")
        for alphas in ([(1,)], []):
            with pytest.raises(ValueError, match=message):
                derivative_grid(np.zeros(8), alphas, grid, 3, mode)
        with pytest.raises(ValueError, match=message):
            derivative_stencil((1,), (2,), grid, 3, mode)


def test_derivative_grid_rejects_wrong_fvals_size():
    grid = GridSpec(2, 5, 0)
    with pytest.raises(ValueError, match="24 values.*25 centres"):
        derivative_grid(np.zeros(24), [(1, 0), (0, 1)], grid, 3)


def test_derivative_grid_memory_bounded():
    # s=1, k=2^16: a dense side x side axis operator would need 32 GiB; the
    # window tables keep the peak to a few arrays of side * window floats,
    # one multi-index at a time or all in one call
    grid = GridSpec(1, 2 ** 16, 0)
    fvals = np.exp(centre_array(grid)[:, 0])
    alphas = [(1,), (2,), (3,)]
    for call in (lambda: [derivative_grid(fvals, [alpha], grid, 4) for alpha in alphas],
                 lambda: derivative_grid(fvals, alphas, grid, 4)):
        tracemalloc.start()
        try:
            derivs = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        # rounding grows like eps * k^|alpha|, so only the first derivative is sharp
        assert np.max(np.abs(derivs[0] - fvals)) < 1e-8


# ---------------------------------------------------------------------------
# blocks

def _block_windows(k, r, alpha=(1,)):
    """Per axis index j of a 1-d k grid: the set of nodes of j's block-mode stencil."""
    grid = GridSpec(1, k, 0)
    return [tuple(derivative_stencil(alpha, (j,), grid, r, "block").nodes[:, 0].tolist())
            for j in range(k)]


def test_block_partition_exact_tiling():
    # k=6, r=3: the windows are exactly the two blocks
    assert set(_block_windows(6, 3)) == {(0, 1, 2), (3, 4, 5)}


def test_block_partition_overlap():
    # k=7, r=3: the last block is anchored at the boundary, {4,5,6}, and
    # overlaps its neighbour; only index 6 reads it
    windows = _block_windows(7, 3)
    assert windows[6] == (4, 5, 6)
    assert set(windows) == {(0, 1, 2), (3, 4, 5), (4, 5, 6)}


def test_block_partition_tensor():
    # s=2, k=6, r=3: 4 blocks of 9 cells; a mixed stencil stays in its
    # centre's block on both axes
    grid = GridSpec(2, 6, 0)
    homes = set()
    for idx in index_array(grid).tolist():
        nodes = derivative_stencil((1, 1), idx, grid, 3, "block").nodes
        home = tuple(3 * (j // 3) for j in idx)
        assert (nodes.min(axis=0) >= home).all() and (nodes.max(axis=0) <= np.add(home, 2)).all()
        homes.add(home)
    assert homes == {(0, 0), (0, 3), (3, 0), (3, 3)}


def test_block_mode_windows_lie_in_their_block():
    # the block of j starts at min(j // r * r, k - r), on every grid it tiles
    for r in range(1, 7):
        for k in range(r, 4 * r + 2):
            for j, window in enumerate(_block_windows(k, r, (r - 1,))):
                lo = min(j // r * r, k - r)
                assert lo <= min(window) and max(window) <= lo + r - 1, (r, k, j)


def test_block_partition_resolution():
    with pytest.raises(ResolutionError):
        derivative_stencil((1,), (0,), GridSpec(1, 2, 0), 3, mode="block")


def test_block_mode_nodes_stay_in_block():
    grid = GridSpec(2, 7, 0)
    for idx in index_array(grid).tolist():
        lo = [min(j // 3 * 3, 4) for j in idx]
        for alpha in [(1, 0), (0, 2), (1, 1)]:
            st = derivative_stencil(alpha, idx, grid, 3, "block")
            for node in st.nodes.tolist():
                assert lo[0] <= node[0] <= lo[0] + 2 and lo[1] <= node[1] <= lo[1] + 2


def test_block_mode_polynomial_exactness():
    rng = np.random.default_rng(8)
    grid = GridSpec(1, 7, 0)
    poly = random_poly(1, 2, rng)
    fvals = poly(centre_array(grid))
    for alpha in [(1,), (2,)]:
        got = derivative_grid(fvals, [alpha], grid, 3, "block")[0]
        want = poly.derivative(alpha, centre_array(grid))
        assert np.max(np.abs(got - want)) < 1e-9


# ---------------------------------------------------------------------------
# error constant

def test_error_constant_positive():
    for s, r in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        assert error_constant(s, r) > 0.0
        assert error_constant(s, r, family="paired") > 0.0


def test_error_constant_rejects_dimension_zero():
    # s = 0 is a typed error, not an endless recursion
    with pytest.raises(ValueError):
        error_constant(0, 2)
    with pytest.raises(ValueError):
        list(multi_indices(0, 1))


def test_error_constant_r_too_small():
    with pytest.raises(OrderError):
        error_constant(1, 1)


# repr(error_constant(s, r, family)) for r = 2..8, pinned when the family
# table and the boundary-shift moments moved into ``_family_stencils`` and
# ``_axis_table``: the constant is the same double as before
_ERROR_CONSTANTS = {
    ("single", 1): ("2.25", "30.041666666666668", "500.0052083333333", "12402.500520833335",
                    "327814.66671006946", "11474164.600003101", "451437644.02116424"),
    ("single", 2): ("5.0", "80.33333333333333", "5866.75", "1225800.016666667",
                    "500501496.00277793", "263840512046.22275", "216334257361275.53"),
    ("single", 3): ("8.25", "151.125", "13200.421875", "11308312.626562497",
                    "39049154820.03163", "319659504327924.5", "3.971649802397511e+18"),
    ("single", 4): ("12.0", "242.66666666666666", "24934.666666666668", "24516667.20000001",
                    "338246472933.511", "2.319902154038228e+16", "4.4776152581375593e+21"),
    ("paired", 1): ("0.25", "192.04166666666666", "500.0052083333333", "82656.00052083333",
                    "327814.66671006946", "72524925.15555866", "395620553.33333355"),
    ("paired", 2): ("1.0", "800.3333333333334", "3520.083333333334", "39826944.01666668",
                    "500501496.00277793", "7039314686976.004", "180326488365173.4"),
    ("paired", 3): ("2.25", "1501.125", "7920.421875", "1270038960.126562",
                    "39049154820.03163", "3.966204248249299e+16", "3.971649802397511e+18"),
    ("paired", 4): ("4.0", "2402.6666666666665", "14961.333333333334", "4130208267.2000012",
                    "202947883760.17767", "1.4048720365699518e+19", "4.4776152581375593e+21"),
}


@pytest.mark.parametrize("family, s", sorted(_ERROR_CONSTANTS))
def test_error_constant_golden(family, s):
    got = tuple(repr(error_constant(s, r, family)) for r in range(2, 9))
    assert got == _ERROR_CONSTANTS[family, s]


def test_family_stencils_table():
    # single: every order below r at order r; paired: even orders below r,
    # widened to r + r % 2 when that many cells fit in the room given
    assert _family_stencils("single", 2, 3) == (((0, 1), (1, 0), (0, 2), (1, 1), (2, 0)), 3)
    assert _family_stencils("paired", 2, 3) == (((0, 2), (1, 1), (2, 0)), 4)
    assert _family_stencils("paired", 2, 3, 4) == (((0, 2), (1, 1), (2, 0)), 4)
    assert _family_stencils("paired", 2, 3, 3) == (((0, 2), (1, 1), (2, 0)), 3)
    assert _family_stencils("paired", 1, 4, 4) == (((2,),), 4)
    assert _family_stencils("paired", 1, 2) == ((), 2)
    # the family is checked on entry, by the argument table
    with pytest.raises(ValueError, match="unknown stencil family 'bogus'"):
        error_constant(2, 3, family="bogus")


@pytest.mark.parametrize("family", ["single", "paired"])
def test_family_stencils_lower_orders_lead(family):
    # one pass at order r can serve every order r' <= r: the multi-indices
    # of r' are the leading entries of those of r
    for s in range(1, 5):
        for r in range(1, 8):
            top = _family_stencils(family, s, r)[0]
            for r_low in range(1, r + 1):
                low = _family_stencils(family, s, r_low)[0]
                assert top[:len(low)] == low, (s, r_low, r)
