"""Fixed calibration loops that measure how fast the host runs right now.

The benchmark's hosts are shared virtual machines whose speed drifts by up to
a factor of two over minutes, in CPU time as much as in wall time, and the
drift is not uniform: interpreter-bound code slows down more than numpy
code streaming over large arrays.  Two loops therefore time the two kinds of
work a stratmc pass does, and neither calls the library, so their times move
with the host and not with the code under test:

* ``interpreter_loop`` - per-row hashing and packing into a small numpy
  array, then vectorised numpy on a few thousand rows, like the lattice,
  stencil and estimator layers;
* ``array_loop`` - matrix products and elementwise transcendentals over
  arrays of about 6 x 10^4 elements, like a vectorised integrand.

The benchmark times both right before and right after every pass.  Time
outside the benchmark's own integrand is scaled by the interpreter loop and
time inside it by the array loop, each as ``seconds / loop time * nominal``,
which gives seconds at reference speed.
"""

from __future__ import annotations

import hashlib
import statistics
import struct
import time

import numpy as np

# times of the two loops on a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4);
# they only set the scale of the normalised figures
NOMINAL_INTERPRETER_S = 0.0076
NOMINAL_ARRAY_S = 0.0067

_PACK = struct.Struct("<qqq")
_RNG = np.random.default_rng(20221004)
_DESIGN = _RNG.normal(size=(3, 250))
_SIGNS = np.where(_RNG.random(250) < 0.5, -1.0, 1.0)


def interpreter_loop() -> float:
    out = np.empty((600, 2))
    acc = 0.0
    for rep in range(4):
        for i in range(600):
            digest = hashlib.blake2b(_PACK.pack(rep, i, 7 * i), digest_size=16).digest()
            out[i] = np.frombuffer(digest, dtype="<u8") * 2.0 ** -64
        x = np.sort(out[:, 0])
        acc += float(np.dot(x, x))
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.random((2048, 2))
        acc += float(np.floor(33.0 * a).sum() + np.exp(-a).sum())
    return acc


def array_loop() -> float:
    rng = np.random.default_rng(11)
    acc = 0.0
    for _ in range(3):
        beta = rng.normal(size=(256, 3))
        logits = _SIGNS * (beta @ _DESIGN)
        acc += float(np.logaddexp(0.0, -logits).sum(axis=1).sum())
    return acc


def _timed(loop) -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def time_loops() -> tuple[float, float]:
    """Seconds for one interpreter loop and one array loop."""
    return _timed(interpreter_loop), _timed(array_loop)


def sample(repeats: int = 5) -> tuple[float, float]:
    """Median interpreter-loop and array-loop times over ``repeats`` loops each, after one
    warm-up loop of each."""
    time_loops()
    times = [time_loops() for _ in range(repeats)]
    return (statistics.median(t[0] for t in times), statistics.median(t[1] for t in times))
