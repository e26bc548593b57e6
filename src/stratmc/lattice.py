"""Stratification geometry and reproducible per-stratum sampling.

The unit cube is split into ``k^s`` congruent closed hypercubes of side
``1/k``.  A grid may carry ``m`` extra layers of hypercubes on every side
(used by the boundary-vanishing estimator), so the full centre set has
``(k + 2m)^s`` elements indexed by integer vectors ``j`` with components in
``{-m, ..., k+m-1}``; the centre attached to ``j`` is ``(2j+1)/(2k)``
componentwise.

Per-stratum offsets are uniform on ``[-1/2k, 1/2k]^s`` and are produced by a
counter-based generator (in the sense of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): a hash chain of SplitMix64 finalisers
(Steele, Lea & Flood, OOPSLA'14) on ``uint64``, vectorised over index rows.
A draw is always a whole grid: it absorbs each distinct index prefix once,
read from the lexicographic rows of ``index_array``.  The chain fans out
lane-major, one lane per axis, in ``(s, rows)`` blocks of a fixed element
budget, so every step runs along the long cell axis in cache; each lane's
top 53 bits are centred exactly in integers and divided once by
``k * 2^53`` into the output.  Neither changes a draw.  The draw for a
centre is a pure function of ``(seed, replicate, index vector)``, so
results do not depend on evaluation order, on the margin of the enclosing
grid, or on any shared generator state.  Two grids that contain the same
index receive bit-identical offsets for it, which is what makes the
estimator-equivalence identities in :mod:`stratmc.estimators` exact rather
than merely distributional.  Crude Monte Carlo takes iid uniforms from
``Stream._bulk_uniform(shape)``, numpy's generator keyed by the stream.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .errors import OrderError, ResolutionError

__all__ = [
    "GridSpec",
    "Stream",
    "centre_array",
    "index_array",
    "substream_id",
]


# ---------------------------------------------------------------------------
# argument classes: each rule on a public argument, stated once

def _a(kind: type) -> str:
    return ("an " if kind.__name__[0] in "AEIOU" else "a ") + kind.__name__


class _Arg(NamedTuple):
    """An argument class and the label its errors name.

    ``check(value, label)`` returns the value normalised (an int, a tuple, a
    float64 array), or raises ``TypeError`` for the wrong type and ``error``
    (a ``ValueError``) for a value out of range, naming ``label``.  A bool
    is neither an integer nor a real number.  ``bound`` is an integer's
    floor, a choice's options, an instance's type, or a sequence's entry
    class, which checks each entry (an error names its position); ``one``
    also takes one instance of that entry class, ``nonempty`` refuses an
    empty sequence.
    """

    kind: str
    label: str
    bound: object = None
    error: type = ValueError
    one: bool = False
    nonempty: bool = False

    def named(self, label: str) -> _Arg:
        return self._replace(label=label)

    def check(self, value, what: str):
        kind, bound = self.kind, self.bound
        if kind == "instance":
            if not isinstance(value, bound):
                raise TypeError(f"{what} must be {_a(bound)}, got {value!r}")
        elif kind == "integer":
            # the exact-type test first: the ABC check costs ten times more
            if type(value) is not int:
                if not isinstance(value, Integral) or isinstance(value, bool):
                    raise TypeError(f"{what} must be an integer, got {value!r}")
                value = int(value)
            if bound is not None and value < bound:
                raise self.error(f"{what} must be >= {bound}, got {value}")
        elif kind == "callable":
            if not callable(value):
                raise TypeError(f"{what} must be callable, got {value!r}")
        elif kind == "sequence":
            if self.one and isinstance(value, bound.bound):
                return value
            # hasattr, not the Iterable ABC: a quarter of the cost per call;
            # a 0-d array has __iter__ but raises on iteration
            if (isinstance(value, str) or not hasattr(value, "__iter__")
                    or isinstance(value, np.ndarray) and value.ndim == 0):
                wanted = (f"{_a(bound.bound)} or a sequence of {bound.bound.__name__}s"
                          if self.one else "a sequence")
                raise TypeError(f"{what} must be {wanted}, got {value!r}")
            items, value = value, []
            for item in items:
                try:
                    value.append(bound.check(item, bound.label))
                except (TypeError, ValueError) as exc:
                    raise type(exc)(f"{what}[{len(value)}]: {exc}") from None
            value = tuple(value)
        elif kind == "choice":
            if not isinstance(value, str) or value not in bound:
                raise ValueError(f"unknown {what} {value!r}; choose from {bound}")
        elif kind in ("real", "positive"):
            if not isinstance(value, Real) or isinstance(value, bool):
                raise TypeError(f"{what} must be a real number, got {value!r}")
            # tau: psi maps (0, 1) onto the real line only for tau > 0
            if kind == "positive" and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{what} must be a finite number > 0, got {value}")
        elif kind == "array":
            try:
                value = np.asarray(value)
            except ValueError as exc:   # ragged nesting
                raise ValueError(f"{what} must be an array of real numbers: {exc}") from None
            if value.dtype.kind not in "biuf":
                raise TypeError(f"{what} must be an array of real numbers, "
                                f"got dtype {value.dtype}")
            value = value.astype(np.float64, copy=False)
        elif kind == "path":     # an int would open that file descriptor
            if not isinstance(value, (str, os.PathLike)):
                raise TypeError(f"{what} must be a path, got {value!r}")
        if self.nonempty and not value:
            raise ValueError(f"{what} must not be empty")
        return value


_INTEGER, _DIMENSION = _Arg("integer", "integer"), _Arg("integer", "dimension", 1)
_ORDER = _Arg("integer", "order", 1, OrderError)
_REAL, _POSITIVE = _Arg("real", "real"), _Arg("positive", "tau")
_CALLABLE, _PATH = _Arg("callable", "integrand"), _Arg("path", "path")
_ARRAY = _Arg("array", "array")
_MODE = _Arg("choice", "stencil mode", ("free", "block"))
_FAMILY = _Arg("choice", "stencil family", ("single", "paired"))
_MULTI_INDEX = _Arg("sequence", "multi-index", _INTEGER.named("derivative order"))

# public name -> {parameter or field: its argument class}
_ARGUMENTS: dict[str, dict[str, _Arg]] = {}


def _checked(**classes: _Arg):
    """Declare the class of each named parameter of a public callable in
    ``_ARGUMENTS`` and check them on entry, in parameter order, through a
    position map built here once; the callable runs on the checked values.
    A dataclass checks its fields so before its own ``__post_init__``; a
    plain record (no classes) is only declared."""
    def declare(obj):
        _ARGUMENTS[obj.__qualname__] = classes
        if not classes:
            return obj
        if isinstance(obj, type):
            post = getattr(obj, "__post_init__", lambda self: None)

            def __post_init__(self):
                for name, arg in classes.items():
                    object.__setattr__(self, name, arg.check(getattr(self, name), arg.label))
                post(self)
            obj.__post_init__ = __post_init__
            return obj
        names = list(inspect.signature(obj).parameters)
        at = sorted((names.index(name), name, arg.check, arg.label)
                    for name, arg in classes.items())

        @functools.wraps(obj)
        def checked(*args, **kwargs):
            args, n = list(args), len(args)
            for i, name, check, label in at:
                if i < n:
                    args[i] = check(args[i], label)
                elif name in kwargs:
                    kwargs[name] = check(kwargs[name], label)
            return obj(*args, **kwargs)
        return checked
    return declare


@dataclass(frozen=True)
@_checked(s=_DIMENSION.named("GridSpec.s"), k=_Arg("integer", "GridSpec.k", 1),
          m=_Arg("integer", "GridSpec.m", 0))
class GridSpec:
    """Cubic stratification of ``[-m/k, 1+m/k]^s`` into cells of side 1/k.

    Attributes (integers, stored as Python ints so that equal grids are
    alike as cache keys and in reports):
        s: dimension, >= 1.
        k: strata per axis inside the unit cube, >= 1.
        m: margin layers outside the unit cube on each side, >= 0.
    """

    s: int
    k: int
    m: int = 0

    @property
    def side(self) -> int:
        """Number of strata per axis including margins."""
        return self.k + 2 * self.m

    @property
    def n_centres(self) -> int:
        return self.side ** self.s

    def index_range(self) -> range:
        """Valid index values per axis."""
        return range(-self.m, self.k + self.m)


_GRID = _Arg("instance", "grid", GridSpec)


@lru_cache(maxsize=128)
def _grid_arrays(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    # checked before any array is built: numpy cannot index more bytes
    if grid.n_centres * grid.s * 8 > np.iinfo(np.intp).max:
        raise ResolutionError(f"{grid} is too fine for whole-grid arrays: {grid.n_centres} "
                              f"cells x {grid.s} axes x 8 bytes exceeds {np.iinfo(np.intp).max}")
    idx_axis = np.array(list(grid.index_range()), dtype=np.int64)
    mesh = np.meshgrid(*([idx_axis] * grid.s), indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    ctr = (2.0 * idx + 1.0) / (2.0 * grid.k)
    idx.setflags(write=False)
    ctr.setflags(write=False)
    return idx, ctr


@_checked(grid=_GRID)
def index_array(grid: GridSpec) -> np.ndarray:
    """(n_centres, s) int64 array of index vectors, lexicographic order."""
    return _grid_arrays(grid)[0]


@_checked(grid=_GRID)
def centre_array(grid: GridSpec) -> np.ndarray:
    """(n_centres, s) float array of centres, same order as index_array."""
    return _grid_arrays(grid)[1]


@dataclass(frozen=True)
@_checked(seed=_INTEGER.named("Stream.seed"), replicate=_INTEGER.named("Stream.replicate"))
class Stream:
    """Identifies one replicate's randomness; cheap to create and hash.

    All draws derived from a Stream are pure functions of
    ``(seed, replicate)`` plus the request (a grid or a bulk shape), so
    replicates with distinct ids are independent and any single draw is
    reproducible in isolation.  Stratum offsets come from the SplitMix64
    hash chain of ``_hashed_offsets``, keyed by ``(seed, replicate)``, and
    are always drawn for a whole grid: each index prefix is absorbed once,
    read from the rows of ``index_array``; the chain fans out lane-major
    into one lane per axis, in blocks, and centres each lane's top 53 bits
    in integers before one division by ``k * 2^53``.  ``_bulk_uniform(shape)``
    uses numpy's ``SeedSequence`` on ``(seed, replicate)`` and one fixed tag.

    The fields are stored as Python ints, so ``Stream(np.int64(3)) ==
    Stream(3)`` with the same draws (the key is mixed in Python ints, where
    ``seed + _GOLDEN`` must not overflow int64).
    """

    seed: int
    replicate: int = 0

    @_checked(grid=_GRID)
    def offsets(self, grid: GridSpec) -> np.ndarray:
        """Stratum offsets for every centre of ``grid``.

        Returns an (n_centres, s) array, row order matching ``index_array``.
        """
        return _hashed_offsets(self.seed, self.replicate, grid)

    def _bulk_uniform(self, shape) -> np.ndarray:
        """Vectorized iid uniforms for non-stratified use (crude MC)."""
        ss = np.random.SeedSequence(entropy=(self.seed & _MASK64, self.replicate & _MASK64, _BULK_TAG))
        return np.random.default_rng(ss).random(shape)


_STREAM = _Arg("instance", "stream", Stream)
_STREAMS = _Arg("sequence", "streams", _STREAM, nonempty=True)
# an estimator's stream: one Stream, or a sequence of them giving one report each
_STREAM_OR_STREAMS = _Arg("sequence", "stream", _STREAM, one=True, nonempty=True)


_MASK64 = (1 << 64) - 1
_BULK_TAG = 0x611B  # the third entropy word of every _bulk_uniform draw
# SplitMix64 (Steele, Lea & Flood, OOPSLA'14): the Weyl increment and the
# two multipliers of the finaliser, plus one more odd constant for axis lanes
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_LANE = 0xD6E8FEB86659FD93

# numpy scalars of the array's own dtype: a uint64 array with a uint64
# scalar (an int64 one with an int64 scalar) stays in that dtype and wraps
# under both the legacy value-based and the NEP 50 promotion rules
_C_MUL1, _C_MUL2 = np.uint64(_MUL1), np.uint64(_MUL2)
_C_30, _C_27, _C_31, _C_11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
_C_HALF = np.int64(1 << 52)
# uint64 elements per (s, rows) fan-out block: the block and its scratch
# stay in cache, and a grid below the budget is drawn in one block
_BLOCK = 1 << 15


def _mix_int(z: int) -> int:
    """The SplitMix64 finaliser on a Python int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """The SplitMix64 finaliser, in place on a uint64 array; ``t`` is scratch of its shape."""
    np.right_shift(z, _C_30, out=t)
    z ^= t
    z *= _C_MUL1
    np.right_shift(z, _C_27, out=t)
    z ^= t
    z *= _C_MUL2
    np.right_shift(z, _C_31, out=t)
    z ^= t


def _hashed_offsets(seed: int, replicate: int, grid: GridSpec) -> np.ndarray:
    """Offsets in [-1/2k, 1/2k)^s per grid row from one SplitMix64 hash chain.

    The chain starts from a key mixed from ``(seed, replicate)`` in Python
    ints and absorbs the index components one at a time (wrapping add, then
    the finaliser).  A draw is always a whole grid: the rows of its
    ``index_array``, lexicographic with ``side`` values per axis.  The
    distinct prefixes over axes ``0..a`` are every ``side^(s-1-a)``-th row,
    so each prefix is absorbed once: from the key alone, each level is the
    outer sum of the last level's states with the next axis's ``side``
    values read from those rows; that is about ``n (1 + 1/side + ...)``
    finalisers instead of ``s n``.  The chain state then fans out
    lane-major, one lane per axis, in ``(s, rows)`` blocks of at most
    ``_BLOCK`` elements, finalised in place with one reused scratch buffer,
    which no call keeps.  Each lane's top 53 bits ``m`` are centred in
    integers, ``m - 2^52``, and divided once by ``k * 2^53`` straight into
    the output: the same real number as ``(m * 2^-53 - 1/2) / k``, whose
    steps before the division are exact, so it rounds to the same double.
    Every step is a function of one row's index vector alone, so a draw
    depends on nothing but ``(seed, replicate, index vector)``, whichever
    block computed it.  Returns a C-contiguous (n, s) float64 array.
    """
    idx = index_array(grid).view(np.uint64)
    n, s = idx.shape
    key = np.uint64(_mix_int(_mix_int((seed + _GOLDEN) & _MASK64) ^ (replicate & _MASK64)))
    # the output before the temporaries: on the s=4, k=12 block estimate
    # this cut the page faults inside this call from about 260 to 55
    u = np.empty((n, s))
    rows = max(1, min(n, _BLOCK // s))
    # the one scratch buffer: (s, rows) per fan-out block, and one chain
    # state per row for the absorption
    scratch = np.empty((s, max(rows, -(-n // s))), dtype=np.uint64)
    flat = scratch.reshape(-1)
    h, step = np.array([key]), n
    for axis in range(s):
        step //= grid.side
        h = np.add.outer(h, idx[:step * grid.side:step, axis]).ravel()
        _mix(h, flat[:len(h)])
    z = np.empty((s, rows), dtype=np.uint64)
    # (s, 1) distinct odd-multiple lane constants, one row per axis
    lanes = np.array([[(a * _LANE) & _MASK64] for a in range(1, s + 1)], dtype=np.uint64)
    divisor = float(grid.k) * 2.0 ** 53
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        zb, tb = z[:, :hi - lo], scratch[:, :hi - lo]
        np.add(lanes, h[lo:hi], out=zb)
        _mix(zb, tb)
        zb >>= _C_11
        centred = zb.view(np.int64)
        centred -= _C_HALF
        np.divide(centred, divisor, out=u[lo:hi].T)
    return u


def substream_id(*parts) -> int:
    """Stable 63-bit id for deriving replicate keys from labels and ints."""
    msg = "\x1f".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little") >> 1
