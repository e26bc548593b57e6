import math
import re

import numpy as np
import pytest

from stratmc import lattice, stencil
from stratmc.errors import ResolutionError
from stratmc.estimators import estimate_paired_cv, estimate_single_cv, haber1
from stratmc.stencil import derivative_stencil
from stratmc.lattice import (
    _BLOCK,
    GridSpec,
    Stream,
    centre_array,
    index_array,
    substream_id,
)


def _centre_tuples(grid):
    return [tuple(c) for c in centre_array(grid).tolist()]


def test_centres_1d_no_margin():
    got = _centre_tuples(GridSpec(1, 2, 0))
    assert got == [(0.25,), (0.75,)]


def test_centres_1d_margin():
    got = _centre_tuples(GridSpec(1, 2, 1))
    assert got == [(-0.25,), (0.25,), (0.75,), (1.25,)]


def test_centres_2d_tensor():
    got = _centre_tuples(GridSpec(2, 2, 0))
    assert len(got) == 4
    assert set(got) == {(a, b) for a in (0.25, 0.75) for b in (0.25, 0.75)}
    # lexicographic in the index vector
    assert got[0] == (0.25, 0.25) and got[-1] == (0.75, 0.75)


@pytest.mark.parametrize("s,k,m", [(1, 5, 0), (2, 3, 1), (3, 2, 2)])
def test_centre_count_and_coords(s, k, m):
    grid = GridSpec(s, k, m)
    idx = index_array(grid)
    ctr = centre_array(grid)
    assert len(idx) == (k + 2 * m) ** s
    assert np.allclose(ctr, (2 * idx + 1) / (2 * k))
    assert idx.min() == -m and idx.max() == k + m - 1


def test_volume_partition():
    # total stratum volume equals the covered box volume exactly
    for s, k, m in [(1, 4, 0), (2, 5, 1), (3, 3, 2)]:
        grid = GridSpec(s, k, m)
        assert grid.n_centres * (1.0 / k) ** s == pytest.approx((1 + 2 * m / k) ** s, rel=1e-12)


def test_offset_support_bound():
    grid = GridSpec(3, 4, 0)
    u = Stream(123, 0).offsets(grid)
    assert u.shape == (64, 3)
    assert np.max(np.abs(u)) <= 1.0 / (2 * grid.k)


def test_offsets_deterministic():
    grid = GridSpec(2, 6, 1)
    a = Stream(9, 4).offsets(grid)
    b = Stream(9, 4).offsets(grid)
    assert np.array_equal(a, b)
    c = Stream(9, 5).offsets(grid)
    assert not np.array_equal(a, c)


def test_offsets_keyed_by_index_not_position():
    # the same centre index gets the same draw on grids of different margin
    st = Stream(7, 1)
    small = GridSpec(1, 8, 0)
    big = GridSpec(1, 8, 2)
    u_small = st.offsets(small)
    u_big = st.offsets(big)
    assert np.array_equal(u_small, u_big[2:-2])


def test_offset_empirical_mean():
    # CLT check: per-component mean of 1e5 draws within 4 standard errors
    grid = GridSpec(1, 1, 0)
    draws = np.array([
        Stream(0, rep).offsets(grid)[0, 0] for rep in range(100_000)
    ])
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean()) <= 4 * se


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 2, 0)
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0)
    with pytest.raises(ValueError):
        GridSpec(1, 2, -1)


def test_grid_rejects_non_integer_fields():
    for args, field in [((1, 4.0), "k"), ((1, 2.5), "k"), ((1.0, 4), "s"), ((1, 4, 0.0), "m")]:
        with pytest.raises(TypeError, match=f"GridSpec.{field} "):
            GridSpec(*args)
    # numpy integers are integers, and the grid they make is the same grid
    assert GridSpec(1, np.int64(4)) == GridSpec(1, 4)
    assert hash(GridSpec(1, np.int64(4))) == hash(GridSpec(1, 4))


def test_grid_stores_numpy_integers_as_int():
    grid = GridSpec(np.int64(2), np.int32(8), np.uint8(1))
    assert [type(v) for v in (grid.s, grid.k, grid.m)] == [int, int, int]
    assert repr(grid) == "GridSpec(s=2, k=8, m=1)"
    assert type(grid.side) is int and type(grid.n_centres) is int


def test_whole_grid_arrays_must_be_indexable(monkeypatch):
    # (n_centres, s) float64 arrays of more than np.intp's bytes are refused
    # before any array is built, naming the grid; numpy itself would fail
    # with "Unable to allocate 6.94 EiB" at s = 3, k = 10^6
    class Reached(Exception):
        pass

    def meshgrid(*args, **kw):
        raise Reached

    monkeypatch.setattr(np, "meshgrid", meshgrid)
    limit = np.iinfo(np.intp).max
    for s, m in ((1, 0), (3, 0), (3, 2), (6, 1)):
        k = int(round((limit / (8 * s)) ** (1 / s))) - 2 * m + 2
        while (k - 1 + 2 * m) ** s * s * 8 > limit:
            k -= 1
        # k is the first resolution past the limit, k - 1 the last within it
        assert (k + 2 * m) ** s * s * 8 > limit >= (k - 1 + 2 * m) ** s * s * 8
        grid = GridSpec(s, k, m)
        with pytest.raises(ResolutionError, match=re.escape(f"{grid} is too fine")):
            lattice._grid_arrays.__wrapped__(grid)
        if s > 1:
            with pytest.raises(Reached):
                lattice._grid_arrays.__wrapped__(GridSpec(s, k - 1, m))
    monkeypatch.undo()
    calls = []
    with pytest.raises(ResolutionError, match=r"GridSpec\(s=3, k=1000000, m=0\)"):
        haber1(lambda p: calls.append(p) or p[:, 0], GridSpec(3, 10 ** 6), Stream(0))
    assert not calls
    # a stencil on one centre of such a grid builds no whole-grid array
    assert derivative_stencil((1, 0, 0), (0, 0, 0), GridSpec(3, 10 ** 6), 3).scale == 1e6
    # and a plan with stencils builds none of its axis tables, which at
    # s = 2, k = 10^9 would take tens of GB
    monkeypatch.setattr(stencil, "_axis_table", meshgrid)
    for estimator in (estimate_paired_cv, estimate_single_cv):
        with pytest.raises(ResolutionError, match=r"GridSpec\(s=2, k=1000000000, m=0\) is too"):
            estimator(lambda p: calls.append(p) or p[:, 0], 4, GridSpec(2, 10 ** 9), Stream(0))
    assert not calls


def test_substream_id_stable():
    a = substream_id("hat", 3, 16, 0)
    b = substream_id("hat", 3, 16, 0)
    assert a == b
    assert a != substream_id("hat", 3, 16, 1)
    assert 0 <= a < 2 ** 63


# ---------------------------------------------------------------------------
# the counter-based generator

_M64 = (1 << 64) - 1


def _splitmix_finaliser(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _reference_uniforms(seed, replicate, row):
    # the hash chain one row at a time in Python ints
    h = _splitmix_finaliser(_splitmix_finaliser((seed + 0x9E3779B97F4A7C15) & _M64) ^ (replicate & _M64))
    for j in row:
        h = _splitmix_finaliser((h + j) & _M64)
    lanes = [_splitmix_finaliser((h + a * 0xD6E8FEB86659FD93) & _M64) for a in range(1, len(row) + 1)]
    return [(z >> 11) * 2.0 ** -53 for z in lanes]


def _reference_offsets(seed, replicate, rows, k):
    return (np.array([_reference_uniforms(seed, replicate, row) for row in rows.tolist()]) - 0.5) / k


# whole grids per dimension: margins 0-3 up to s = 4, where GridSpec(1, 37, 3)
# covers indices -3..39; at s = 5-9 the smallest grids without and with
# margin, so the reference pins the lane constants (a * _LANE) mod 2^64 of
# every s up to 9
_REFERENCE_GRIDS = {s: [GridSpec(s, k, m) for m in range(4)] for s, k in [(1, 37), (2, 5), (3, 3), (4, 2)]}
_REFERENCE_GRIDS.update({s: [GridSpec(s, 2, 0), GridSpec(s, 1, 1)] for s in range(5, 10)})


@pytest.mark.parametrize("s", sorted(_REFERENCE_GRIDS))
def test_offsets_match_python_reference(s):
    # the numpy chain wraps exactly like Python ints masked to 64 bits,
    # including negative margin indices and keys past 2^63; the result is a
    # C-contiguous (n, s) float64 array
    for seed, rep in [(0, 0), (7, 3), (2 ** 63 + 5, 2 ** 62 - 1), (-1, 11)]:
        st = Stream(seed, rep)
        for grid in _REFERENCE_GRIDS[s]:
            u = st.offsets(grid)
            assert np.array_equal(u, _reference_offsets(seed, rep, index_array(grid), grid.k))
            assert u.dtype == np.float64 and u.flags.c_contiguous and u.shape == (grid.n_centres, s)


@pytest.mark.parametrize("grid", [GridSpec(2, 200), GridSpec(3, 33, 2), GridSpec(4, 12),
                                  GridSpec(5, 6, 1), GridSpec(6, 4)], ids=str)
def test_whole_grid_prefixes_and_blocks_match_row_chain(grid):
    # a whole grid absorbs each index prefix once and fans out in blocks of
    # _BLOCK // s rows; all but GridSpec(6, 4) span several blocks, the last
    # one partial.  The draw equals the Python row chain on a sample of rows
    # that holds the first and last row of every block, so the seams are seen
    idx = index_array(grid)
    rows = _BLOCK // grid.s
    assert (grid.n_centres > rows) == (grid.s < 6)
    assert grid.n_centres % rows != 0
    starts = np.arange(0, len(idx), rows)
    seams = np.concatenate([starts, np.minimum(starts + rows, len(idx)) - 1])
    sample = np.random.default_rng(grid.s).choice(len(idx), size=200, replace=False)
    sample = np.union1d(sample, seams)
    for seed, rep in [(0, 0), (7, 3), (2 ** 63 + 5, 2 ** 62 - 1), (-1, 11)]:
        u = Stream(seed, rep).offsets(grid)
        assert np.array_equal(u[sample], _reference_offsets(seed, rep, idx[sample], grid.k))
        assert u.dtype == np.float64 and u.flags.c_contiguous and u.shape == idx.shape


def test_stream_rejects_non_integer_fields():
    for args, field in [((1.5,), "seed"), ((3.0,), "seed"), (("3",), "seed"),
                        ((3, 0.5), "replicate"), ((3, None), "replicate")]:
        with pytest.raises(TypeError, match=f"Stream.{field} "):
            Stream(*args)


def test_stream_stores_numpy_integers_as_ints():
    # numpy integers key the same stream as Python ints, past int64 too
    grid = GridSpec(2, 3, 1)
    for seed, rep in [(np.int64(3), np.int32(2)), (np.uint64(2 ** 63 + 5), np.int64(-1))]:
        st = Stream(seed, rep)
        plain = Stream(int(seed), int(rep))
        assert st == plain and hash(st) == hash(plain)
        assert type(st.seed) is int and type(st.replicate) is int
        assert np.array_equal(st.offsets(grid), plain.offsets(grid))


@pytest.mark.parametrize("s", [9, 12])
def test_wide_rows_keyed_by_index(s):
    # rows wider than 8 axes: whole grids match the Python reference, every
    # draw stays in its stratum and no two axes coincide; at s = 9 the same
    # index gets the same draw on a grid with margin (which the reference
    # test checks whole).  Three streams on the 2^s grid, so s = 12 checks
    # 12 288 rows (GridSpec(12, 2, 1) would have 16.7M rows)
    small = GridSpec(s, 2, 0)
    uniforms = []  # each draw times its k: centred uniforms in [-1/2, 1/2)
    for rep in (4, 5, 6):
        u = Stream(21, rep).offsets(small)
        assert np.array_equal(u, _reference_offsets(21, rep, index_array(small), small.k))
        uniforms.append(u * small.k)
    if s == 9:
        big = GridSpec(s, 1, 1)
        u = Stream(21, 4).offsets(big)
        inner = ((index_array(big) >= 0) & (index_array(big) <= 1)).all(axis=1)
        assert np.array_equal(u[inner] * big.k, uniforms[0])
        uniforms.append(u * big.k)
    for z in uniforms:
        assert np.max(np.abs(z)) <= 0.5
        for a in range(s):
            for b in range(a + 1, s):
                assert not np.any(z[:, a] == z[:, b]), (a, b)


def _chi2_z(counts):
    # Wilson-Hilferty: a chi-square statistic mapped to a standard normal z
    expected = counts.sum() / len(counts)
    stat = float(np.sum((counts - expected) ** 2 / expected))
    df = len(counts) - 1
    return ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


def _corr_z(x, y):
    # Pearson correlation in standard errors under independence
    return float(np.corrcoef(x, y)[0, 1]) * math.sqrt(len(x))


def test_offsets_bulk_quality():
    # one bulk draw of 46^3 ~ 1e5 cells, bounds at 5 sigma: per-axis binned
    # uniformity, no correlation between axes, between neighbouring cells
    # along each axis, or between neighbouring replicates and seeds
    k, s = 46, 3
    grid = GridSpec(s, k, 0)
    u = Stream(2024, 0).offsets(grid) * k + 0.5
    assert u.min() >= 0.0 and u.max() < 1.0
    for a in range(s):
        counts = np.bincount((u[:, a] * 32).astype(int), minlength=32)
        assert _chi2_z(counts) <= 5, a
        for b in range(a + 1, s):
            assert abs(_corr_z(u[:, a], u[:, b])) <= 5, (a, b)
    cube = u.reshape(k, k, k, s)
    for d in range(s):
        lo = np.take(cube, range(k - 1), axis=d).reshape(-1, s)
        hi = np.take(cube, range(1, k), axis=d).reshape(-1, s)
        for a in range(s):
            assert abs(_corr_z(lo[:, a], hi[:, a])) <= 5, (d, a)
    for other in (Stream(2024, 1), Stream(2025, 0)):
        v = other.offsets(grid) * k + 0.5
        for a in range(s):
            assert abs(_corr_z(u[:, a], v[:, a])) <= 5, (other, a)
