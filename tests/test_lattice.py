import numpy as np
import pytest

from stratmc.errors import DomainError
from stratmc.lattice import (
    GridSpec,
    Stream,
    centre_array,
    centres,
    containing_centre,
    index_array,
    sample_offset,
    substream_id,
)


def test_centres_1d_no_margin():
    got = list(centres(GridSpec(1, 2, 0)))
    assert got == [(0.25,), (0.75,)]


def test_centres_1d_margin():
    got = list(centres(GridSpec(1, 2, 1)))
    assert got == [(-0.25,), (0.25,), (0.75,), (1.25,)]


def test_centres_2d_tensor():
    got = list(centres(GridSpec(2, 2, 0)))
    assert len(got) == 4
    assert set(got) == {(a, b) for a in (0.25, 0.75) for b in (0.25, 0.75)}
    # lexicographic in the index vector
    assert got[0] == (0.25, 0.25) and got[-1] == (0.75, 0.75)


def test_centres_lazy():
    big = GridSpec(6, 100, 0)  # 10^12 centres; must not materialize
    it = centres(big)
    assert not isinstance(it, list)
    first = next(iter(it))
    assert first == tuple([0.005] * 6)


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


def test_offsets_order_invariant():
    grid = GridSpec(2, 4, 0)
    st = Stream(3, 2)
    idx = index_array(grid)
    perm = np.random.default_rng(0).permutation(len(idx))
    shuffled = st.offsets(grid, idx[perm])
    straight = st.offsets(grid)
    assert np.array_equal(shuffled, straight[perm])


def test_sample_offset_single():
    grid = GridSpec(2, 4, 0)
    st = Stream(11, 0)
    one = sample_offset(grid, (1, 2), st)
    batch = st.offsets(grid)
    pos = np.flatnonzero((index_array(grid) == (1, 2)).all(axis=1))[0]
    assert one.shape == (2,)
    assert np.array_equal(one, batch[pos])


def test_offset_empirical_mean():
    # CLT check: per-component mean of 1e5 draws within 4 standard errors
    grid = GridSpec(1, 1, 0)
    draws = np.array([
        Stream(0, rep).offsets(grid)[0, 0] for rep in range(100_000)
    ])
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean()) <= 4 * se


def test_containing_centre_examples():
    grid = GridSpec(1, 2, 0)
    assert containing_centre([0.3], grid).tolist() == [0]
    assert containing_centre([0.5], grid).tolist() == [0]  # tie goes low
    with pytest.raises(DomainError):
        containing_centre([1.2], grid)


def test_containing_centre_roundtrip():
    rng = np.random.default_rng(5)
    grid = GridSpec(2, 7, 1)
    for _ in range(200):
        j = rng.integers(-1, 8, size=2)
        point = (2 * j + 1) / 14 + rng.uniform(-1 / 14, 1 / 14, size=2) * 0.999
        assert containing_centre(point, grid).tolist() == j.tolist()


def test_containing_centre_margin_boundary():
    grid = GridSpec(1, 4, 1)
    assert containing_centre([-0.25], grid).tolist() == [-1]
    assert containing_centre([1.25], grid).tolist() == [4]
    with pytest.raises(DomainError):
        containing_centre([-0.26], grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 2, 0)
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0)
    with pytest.raises(ValueError):
        GridSpec(1, 2, -1)


def test_substream_id_stable():
    a = substream_id("hat", 3, 16, 0)
    b = substream_id("hat", 3, 16, 0)
    assert a == b
    assert a != substream_id("hat", 3, 16, 1)
    assert 0 <= a < 2 ** 63
