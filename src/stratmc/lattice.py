"""Stratification geometry and reproducible per-stratum sampling.

The unit cube is split into ``k^s`` congruent closed hypercubes of side
``1/k``.  A grid may carry ``m`` extra layers of hypercubes on every side
(used by the boundary-vanishing estimator), so the full centre set has
``(k + 2m)^s`` elements indexed by integer vectors ``j`` with components in
``{-m, ..., k+m-1}``; the centre attached to ``j`` is ``(2j+1)/(2k)``
componentwise.

Per-stratum offsets are uniform on ``[-1/2k, 1/2k]^s`` and are produced by a
counter-based scheme: the draw for a centre is a pure function of
``(seed, replicate, index vector)``, so results do not depend on evaluation
order, on the margin of the enclosing grid, or on any shared generator
state.  Two grids that contain the same index receive bit-identical offsets
for it, which is what makes the estimator-equivalence identities in
:mod:`stratmc.estimators` exact rather than merely distributional.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import DomainError

__all__ = [
    "GridSpec",
    "Stream",
    "centres",
    "centre_array",
    "index_array",
    "sample_offset",
    "containing_centre",
    "substream_id",
]

_U53 = 2.0 ** -53


@dataclass(frozen=True)
class GridSpec:
    """Cubic stratification of ``[-m/k, 1+m/k]^s`` into cells of side 1/k.

    Attributes:
        s: dimension, >= 1.
        k: strata per axis inside the unit cube, >= 1.
        m: margin layers outside the unit cube on each side, >= 0.
    """

    s: int
    k: int
    m: int = 0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"dimension must be >= 1, got {self.s}")
        if self.k < 1:
            raise ValueError(f"resolution must be >= 1, got {self.k}")
        if self.m < 0:
            raise ValueError(f"margin must be >= 0, got {self.m}")

    @property
    def side(self) -> int:
        """Number of strata per axis including margins."""
        return self.k + 2 * self.m

    @property
    def n_centres(self) -> int:
        return self.side ** self.s

    @property
    def half_width(self) -> float:
        """Max-norm radius of one stratum."""
        return 0.5 / self.k

    def index_range(self) -> range:
        """Valid index values per axis."""
        return range(-self.m, self.k + self.m)

    def centre_of(self, index) -> np.ndarray:
        idx = np.asarray(index, dtype=np.int64)
        return (2.0 * idx + 1.0) / (2.0 * self.k)


def centres(grid: GridSpec) -> Iterator[tuple[float, ...]]:
    """Yield all centre points in lexicographic order of the index vector.

    Lazy by contract: for large ``side**s`` nothing is materialized.
    """
    axis = [(2 * j + 1) / (2 * grid.k) for j in grid.index_range()]
    return itertools.product(axis, repeat=grid.s)


@lru_cache(maxsize=128)
def _grid_arrays(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    idx_axis = np.array(list(grid.index_range()), dtype=np.int64)
    mesh = np.meshgrid(*([idx_axis] * grid.s), indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    ctr = (2.0 * idx + 1.0) / (2.0 * grid.k)
    idx.setflags(write=False)
    ctr.setflags(write=False)
    return idx, ctr


def index_array(grid: GridSpec) -> np.ndarray:
    """(n_centres, s) int64 array of index vectors, lexicographic order."""
    return _grid_arrays(grid)[0]


def centre_array(grid: GridSpec) -> np.ndarray:
    """(n_centres, s) float array of centres, same order as index_array."""
    return _grid_arrays(grid)[1]


def containing_centre(point, grid: GridSpec) -> np.ndarray:
    """Index vector of the closed stratum containing ``point``.

    Points on a shared face are assigned to the lower-indexed stratum.
    Raises DomainError if the point lies outside the stratified region.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (grid.s,):
        raise ValueError(f"expected a point of dimension {grid.s}, got shape {p.shape}")
    lo = -grid.m / grid.k
    hi = 1.0 + grid.m / grid.k
    if np.any(p < lo) or np.any(p > hi):
        raise DomainError(f"point {p} outside [{lo}, {hi}]^{grid.s}")
    raw = np.ceil(grid.k * p).astype(np.int64) - 1
    # the lower-face tie rule pushes the global lower boundary one cell out
    return np.maximum(raw, -grid.m)


@dataclass(frozen=True)
class Stream:
    """Identifies one replicate's randomness; cheap to create and hash.

    All draws derived from a Stream are pure functions of
    ``(seed, replicate)`` plus the request (centre index or bulk tag), so
    replicates with distinct ids are independent and any single draw is
    reproducible in isolation.
    """

    seed: int
    replicate: int = 0

    def offsets(self, grid: GridSpec, indices: np.ndarray | None = None) -> np.ndarray:
        """Stratum offsets for every listed centre index (default: whole grid).

        Returns an (n, s) array, row order matching ``indices``.
        """
        if indices is None:
            indices = index_array(grid)
        u = _hashed_uniforms(self.seed, self.replicate, indices)
        return (u - 0.5) / grid.k

    def bulk_uniform(self, tag: int, shape) -> np.ndarray:
        """Vectorized iid uniforms for non-stratified use (e.g. crude MC)."""
        ss = np.random.SeedSequence(entropy=(self.seed & _MASK64, self.replicate & _MASK64, tag & _MASK64))
        return np.random.default_rng(ss).random(shape)


_MASK64 = (1 << 64) - 1


def _hashed_uniforms(seed: int, replicate: int, indices: np.ndarray) -> np.ndarray:
    """One BLAKE2 digest per index row -> s uniforms in [0, 1)."""
    indices = np.asarray(indices, dtype=np.int64)
    n, s = indices.shape
    # 8 bytes of digest per axis; BLAKE2b caps at 64, so chunk wide rows
    out = np.empty((n, s), dtype=np.float64)
    head = struct.pack("<QQ", seed & _MASK64, replicate & _MASK64)
    for lo in range(0, s, 8):
        hi = min(lo + 8, s)
        width = hi - lo
        packer = struct.Struct(f"<q{s}q")
        dsize = 8 * width
        rows = indices.tolist()
        for i, row in enumerate(rows):
            msg = head + packer.pack(lo, *row)
            dig = hashlib.blake2b(msg, digest_size=dsize).digest()
            words = np.frombuffer(dig, dtype="<u8")
            out[i, lo:hi] = (words >> 11) * _U53
    return out


def sample_offset(grid: GridSpec, centre_index, stream: Stream) -> np.ndarray:
    """(s,) offset for a single stratum, components in [-1/2k, 1/2k]; see Stream.offsets."""
    idx = np.asarray(centre_index, dtype=np.int64).reshape(1, grid.s)
    return stream.offsets(grid, idx)[0]


def substream_id(*parts) -> int:
    """Stable 63-bit id for deriving replicate keys from labels and ints."""
    msg = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little") >> 1
