"""Finite-difference stencils on the stratification grid.

A derivative of total order ``|alpha| < r`` is approximated at a grid centre
by a weighted sum of function values at nearby centres.  The construction is
a per-axis composition: active axes are consumed in ascending order, the
first consumed axis uses a window of ``r`` nodes and each later axis uses a
window shrunk by the derivative order already consumed.  Weights are exact
rationals extracted from Lagrange basis polynomials at the integer offsets,
so a stencil with window ``w`` reproduces the derivative of any univariate
polynomial of degree < ``w`` exactly, and the composed stencil reproduces
``D^alpha`` of any polynomial of total degree < ``r``.

Near the boundary the centred offset window is shifted just enough to stay
on the grid (ties between two centred windows go to the negative side).  In
block mode (``mode="block"``) the window must additionally stay inside the
side-r block of the centre, which keeps the per-stratum contributions of the
estimators independent across blocks.  Axis indices tile in runs of r, and
when r does not divide k the last block is anchored at the upper face and
overlaps its neighbour: the block of index j starts at ``min(j // r * r, k - r)``.

That rule is one function of the axis position (``_window_start``), read
where it is used: :func:`derivative_stencil` evaluates it at its centre, in
O(window) time and memory per axis for any k, and :func:`derivative_grid`
tabulates it per axis as gather nodes and weights.  The latter walks a set
of multi-indices axis by axis as a tree of passes, sharing their common
passes, and plans that tree, with each of its tables built once, once per
set of multi-indices and grid.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import (DomainError, IncompleteEvaluationError, OrderError, ResolutionError,
                     StencilError)
from .lattice import (_ARRAY, _DIMENSION, _FAMILY, _GRID, _INTEGER, _MODE, _MULTI_INDEX,
                      GridSpec, _Arg, _checked)

__all__ = [
    "multi_indices",
    "univariate_weights",
    "univariate_weights_exact",
    "DerivativeStencil",
    "derivative_stencil",
    "apply_stencil",
    "derivative_grid",
    "error_constant",
]


# ---------------------------------------------------------------------------
# multi-index helpers

def _abs_order(alpha) -> int:
    """Total derivative order |alpha|."""
    return int(sum(alpha))

def _multi_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out

@_checked(s=_DIMENSION, total=_Arg("integer", "total order", 0, OrderError))
def multi_indices(s: int, total: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices of length s with |alpha| = total, lexicographic; total >= 0."""
    if s == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multi_indices(s - 1, total - head):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# univariate weights

def _lagrange_coeff_exact(kappa: tuple[int, ...], a: int) -> tuple[Fraction, ...]:
    """Exact weights w with sum_j w_j p(kappa_j) = p^(a)(0) for deg(p) < len(kappa).

    Equivalently the solution of the Vandermonde moment system
    ``sum_j w_j kappa_j^i = a! * [i == a]`` for ``i < len(kappa)``; extracting
    the x^a coefficient of each Lagrange basis polynomial gives it without
    ever forming the ill-conditioned matrix.  Each numerator and denominator
    is expanded over Python ints, so only the weight itself is a Fraction.
    Callers check ``0 <= a < len(kappa)``.
    """
    if len(set(kappa)) != len(kappa):
        raise StencilError(f"stencil nodes must be distinct, got {kappa}")
    weights = []
    for j, x in enumerate(kappa):
        num, den = [1], 1
        for i, y in enumerate(kappa):
            if i != j:
                # num *= (t - y), coefficients in ascending powers of t
                num = [c - y * d for c, d in zip([0] + num, num + [0])]
                den *= x - y
        weights.append(Fraction(factorial(a) * num[a], den))
    return tuple(weights)


_WEIGHT_ARGS = dict(kappa=_Arg("sequence", "stencil nodes", _INTEGER.named("node")),
                    a=_INTEGER.named("derivative order"))


@_checked(**_WEIGHT_ARGS)
def univariate_weights_exact(kappa, a: int) -> tuple[Fraction, ...]:
    """Rational weights; oracle counterpart of univariate_weights."""
    if not 1 <= a <= len(kappa) - 1:
        raise OrderError(f"derivative order must be in [1, {len(kappa) - 1}], got {a}")
    return _lagrange_coeff_exact(kappa, a)


@_checked(**_WEIGHT_ARGS)
def univariate_weights(kappa, a: int) -> np.ndarray:
    """Read-only float weights for the a-th derivative on distinct nodes ``kappa``.

    Entry j weights the node ``kappa[j]`` (integer offsets in grid steps).
    """
    w = np.array([float(x) for x in univariate_weights_exact(kappa, a)])
    w.setflags(write=False)
    return w


def _window_start(position, window: int, lo, hi, block: int = 0):
    """First offset of the window at ``position`` inside [lo, hi], elementwise.

    Centred when possible; an even window leans one step to the negative
    side; at a boundary the window shifts by the minimal amount that fits.
    A ``block`` side > 0 (block mode, lo = 0) first confines the window to
    the block of the position, which starts at
    ``min(position // block * block, hi + 1 - block)``; 0 is free mode.
    Callers keep ``2 <= window <= hi - lo + 1`` and ``window <= block``.
    """
    if block:
        lo = np.minimum(position // block * block, hi + 1 - block)
        hi = lo + block - 1
    return np.maximum(lo - position, np.minimum(-(window // 2), hi - position - (window - 1)))


def _axis_table(window: int, lo: int, hi: int, block: int):
    """Gather nodes and weights of the window rule on the axis [lo, hi].

    ``nodes[w, j - lo]`` is the 0-based position of node w of the window at
    axis position j, which is what :func:`derivative_grid` gathers.
    ``weights[a]`` is the ``(window, side)`` table for d^a/dx^a,
    a = 1..window-1, solved once per distinct window start and stored
    window-major, so the contraction runs over a contiguous position axis.
    """
    pos = np.arange(lo, hi + 1)
    starts = _window_start(pos, window, lo, hi, block)
    nodes = np.arange(window)[:, None] + (np.arange(len(pos)) + starts)
    patterns, row_pattern = np.unique(starts, return_inverse=True)
    kappas = [tuple(range(p, p + window)) for p in patterns.tolist()]
    weights = {}
    for a in range(1, window):
        pattern_w = np.array([_lagrange_coeff_exact(kappa, a) for kappa in kappas], dtype=float)
        weights[a] = np.ascontiguousarray(pattern_w[row_pattern.reshape(-1)].T)
        weights[a].setflags(write=False)
    nodes.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# multivariate composition

def _axis_steps(alpha, r: int) -> list[tuple[int, int, int]]:
    """(axis, derivative order, window) per active axis, ascending axis order.

    The first consumed axis gets a window of r nodes; each later axis gets
    r minus the derivative order consumed before it.  The resulting stencil
    keeps the full error order k^-(r-|alpha|) while never sampling further
    than r-1 steps from the centre.  Callers check ``|alpha| < r``, so every
    window is wider than its order.
    """
    steps = []
    consumed = 0
    for axis, a in enumerate(alpha):
        if a == 0:
            continue
        steps.append((axis, a, r - consumed))
        consumed += a
    return steps


def _active_steps(alpha, grid: GridSpec, r: int, mode: str):
    """:func:`_axis_steps` of ``alpha``, once the rules both stencil functions share hold.

    On their checked arguments: ``alpha`` of length s with no negative
    entry, |alpha| < r, and k >= r once an axis is active; block mode
    (side-r blocks) also needs a margin-free grid and k >= r.
    """
    if len(alpha) != grid.s or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha} for dimension {grid.s}")
    if _abs_order(alpha) >= r:
        raise OrderError(f"|alpha|={_abs_order(alpha)} must be < r={r}")
    if mode == "block" and grid.m != 0:
        raise ValueError(f"block mode needs a margin-free grid (m = 0), got m={grid.m}")
    steps = _axis_steps(alpha, r)
    if (steps or mode == "block") and grid.k < r:
        raise ResolutionError(f"need k >= r, got k={grid.k}, r={r}")
    return steps


@dataclass(frozen=True)
@_checked()
class DerivativeStencil:
    """Grid stencil approximating D^alpha f at one centre.

    ``value = scale * sum_j weights[j] * f((2 nodes[j] + 1) / 2k)`` where scale
    is k^|alpha|.  Weights depend only on the offset pattern, never on k.
    """

    alpha: tuple[int, ...]
    centre: tuple[int, ...]
    offsets: np.ndarray        # (n_nodes, s) int
    nodes: np.ndarray          # (n_nodes, s) int
    weights: np.ndarray        # (n_nodes,)
    scale: float


_STENCIL_ARGS = dict(grid=_GRID, r=_INTEGER.named("order"), mode=_MODE)


@_checked(alpha=_MULTI_INDEX, **_STENCIL_ARGS,
          centre_index=_Arg("sequence", "centre index", _INTEGER.named("index")))
def derivative_stencil(alpha, centre_index, grid: GridSpec, r: int,
                       mode: str = "free") -> DerivativeStencil:
    """Build the stencil for D^alpha at one centre.

    Requires |alpha| < r, k >= r (so every window fits) and a centre inside
    the grid; with ``mode="block"`` nodes stay inside the side-r block of
    the centre, on a margin-free grid.  Each active axis evaluates the
    window rule :func:`derivative_grid` tabulates at the centre alone, so
    time and memory are O(window) per axis for any k; nodes run over the
    tensor product of the windows, first active axis slowest.
    """
    steps = _active_steps(alpha, grid, r, mode)
    if len(centre_index) != grid.s or any(j not in grid.index_range() for j in centre_index):
        raise DomainError(f"centre {centre_index} is not an index of {grid}")
    block = r if mode == "block" else 0
    offsets, weights = np.zeros((1, grid.s), dtype=np.int64), np.ones(1)
    for axis, a, window in steps:
        start = int(_window_start(centre_index[axis], window, -grid.m, grid.k + grid.m - 1, block))
        kappa = tuple(range(start, start + window))
        offsets = np.repeat(offsets, window, axis=0)
        offsets[:, axis] = np.tile(kappa, len(weights))
        weights = np.multiply.outer(weights, np.array(_lagrange_coeff_exact(kappa, a),
                                                      dtype=float)).reshape(-1)
    nodes = np.asarray(centre_index, dtype=np.int64) + offsets
    return DerivativeStencil(alpha, centre_index, offsets, nodes,
                             weights, float(grid.k) ** _abs_order(alpha))


@_checked(stencil=_Arg("instance", "stencil", DerivativeStencil),
          values=_Arg("instance", "values", Mapping))
def apply_stencil(stencil: DerivativeStencil, values: Mapping[tuple[int, ...], float]) -> float:
    """Evaluate the stencil on a map from centre index to function value."""
    acc = 0.0
    for node, w in zip(stencil.nodes, stencil.weights):
        key = tuple(int(x) for x in node)
        if key not in values:
            raise IncompleteEvaluationError(f"no value for stencil node {key}")
        acc += w * values[key]
    return stencil.scale * acc


# ---------------------------------------------------------------------------
# whole-grid evaluation

def _plan_node(checked, members, depth: int, grid: GridSpec):
    """The tree node for ``members`` of ``checked``, which agree on ``depth`` passes.

    A node is ``(outputs, passes)``: outputs ``(i, k^|alpha_i|)`` for the
    members that are done, and per axis of the next step a pass
    ``(view shape, gather nodes, ((weights, child), ...))`` with one
    contraction per derivative order.
    """
    outs, groups = [], {}
    for i in members:
        alpha_i, tables = checked[i]
        if depth == len(tables):
            outs.append((i, float(grid.k) ** _abs_order(alpha_i)))
            continue
        # members agree on every earlier pass, so each axis has one window here
        axis, a, nodes, weights = tables[depth]
        orders = groups.setdefault(axis, (nodes, {}))[1]
        orders.setdefault(a, (weights, []))[1].append(i)
    passes = []
    for axis, (nodes, orders) in groups.items():
        # a pass on the last axis of s >= 2 runs on the (side, side^(s-1))
        # transpose, where the gather copies contiguous rows
        if grid.s >= 2 and axis == grid.s - 1:
            shape = (grid.side ** axis, grid.side)
        else:
            shape = (grid.side ** axis, grid.side, grid.side ** (grid.s - axis - 1))
        passes.append((shape, nodes, tuple((weights, _plan_node(checked, idx, depth + 1, grid))
                                           for weights, idx in orders.values())))
    return tuple(outs), tuple(passes)


@lru_cache(maxsize=256)
def _grid_tree(alphas: tuple[tuple[int, ...], ...], grid: GridSpec, r: int, mode: str):
    """The tree of passes :func:`derivative_grid` runs for ``alphas``.

    Its root reads the centre values; multi-indices are walked axis by axis,
    and those that agree on their leading passes share one branch.  Each
    window's axis table is built once per tree.
    """
    block, tables, checked = r if mode == "block" else 0, {}, []
    for alpha in alphas:
        passes = []
        for axis, a, window in _active_steps(alpha, grid, r, mode):
            if window not in tables:
                tables[window] = _axis_table(window, -grid.m, grid.k + grid.m - 1, block)
            nodes, weights = tables[window]
            passes.append((axis, a, nodes, weights[a]))
        checked.append((alpha, passes))
    return _plan_node(checked, range(len(checked)), 0, grid)


@_checked(fvals=_ARRAY.named("fvals"), alpha=_Arg("sequence", "alpha", _MULTI_INDEX),
          **_STENCIL_ARGS)
def derivative_grid(fvals: np.ndarray, alpha, grid: GridSpec, r: int,
                    mode: str = "free") -> list[np.ndarray]:
    """D^alpha estimates at every centre from the flat vector of centre values.

    ``fvals`` is indexed like :func:`stratmc.lattice.centre_array`.  ``alpha``
    is a sequence or iterator of multi-indices, read once, giving a list of
    ``(n_centres,)`` arrays in input order (``[]`` for none).  Each active
    axis tabulates the window rule :func:`derivative_stencil` evaluates at
    one centre: one gather takes every position's window along the axis and
    one contraction per derivative order applies the weights.  Multi-indices
    are walked axis by axis, so those that agree on their leading axes
    share the gathers and contractions there.  Cost is O(n_centres * window) per pass and memory
    O(n_centres * window), never side^2.

    The walk is planned once per ``(alphas, grid, r, mode)`` and cached as
    a tree of passes; a call runs it from a stack of (partial result, node),
    so each partial is dropped once its children are computed.  ``fvals``
    is checked before the plan, and a failed plan is not cached, so a bad
    argument plans nothing and raises on every call; the values are the
    same whether or not the tree came from the cache.
    """
    if fvals.size != grid.n_centres:
        raise ValueError(f"fvals has {fvals.size} values, {grid} has {grid.n_centres} centres")
    root = _grid_tree(alpha, grid, r, mode)
    out = [None] * len(alpha)
    stack = [(fvals.reshape(grid.n_centres), root)]
    while stack:
        t, (outs, passes) = stack.pop()
        for i, scale in outs:
            out[i] = np.multiply(t, scale, order="C").reshape(-1)
        for shape, nodes, contractions in passes:
            if len(shape) == 2:     # the last axis, on the transpose
                gather = np.take(np.ascontiguousarray(t.reshape(shape).T), nodes, axis=0)
                for weights, child in contractions:
                    stack.append((np.einsum("wsp,ws->sp", gather, weights).T, child))
            else:
                gather = np.take(t.reshape(shape), nodes, axis=1)
                for weights, child in contractions:
                    stack.append((np.einsum("pwsq,ws->psq", gather, weights), child))
            del gather
    return out


# ---------------------------------------------------------------------------
# control-variate families

def _family_stencils(family: str, s: int, r: int, room: int | None = None):
    """A family's control-variate multi-indices, by total order, and their stencil order.

    ``"single"``: every order 1..r-1, at order r.  ``"paired"``: the even
    orders 2..r-1 (the pair term cancels odd ones), at ``r + r % 2`` when a
    window that wide fits in ``room`` cells (k in free mode, r in block mode,
    None for no bound), else at r; the widening makes orders 2q-1 and 2q the
    same estimator.  So the multi-indices of r' <= r lead those of r.
    """
    if family == "single":
        totals, r_build = range(1, r), r
    else:   # "paired"
        widened = r + r % 2
        totals, r_build = range(2, r, 2), widened if room is None or room >= widened else r
    return tuple(a for total in totals for a in multi_indices(s, total)), r_build


# ---------------------------------------------------------------------------
# worst-case error constant

@_checked(s=_DIMENSION, r=_Arg("integer", "order", 2, OrderError), family=_FAMILY)
def error_constant(s: int, r: int, family: str = "single") -> float:
    """Computable constant C with |estimate - integral| <= C * ||f||_r * n^(-r/s).

    Assembled from the worst absolute weighted-moment sums of the univariate
    stencils the chosen estimator family generates in free mode (boundary
    shifts included), folded through the per-axis composition, then
    combined with the Taylor-remainder term.  ``family`` is "single"
    (control variates on every order below r) or "paired" (even orders
    only, windows widened to the next even order); the paired estimator's
    unwidened windows (block mode, or k = r with r odd) have a smaller
    constant, so this one is conservative there.
    """
    alphas, r_build = _family_stencils(family, s, r)
    c_bar = 0.0
    for alpha in alphas:
        c_alpha = 0.0
        for _axis, a, window in _axis_steps(alpha, r_build):
            # every boundary shift of the window; the Taylor budget is r minus
            # the order consumed before this axis
            step = 0.0
            for start in range(1 - window, 1):
                kappa = tuple(range(start, start + window))
                weights = np.array(_lagrange_coeff_exact(kappa, a), dtype=float)
                powers = np.array(kappa, dtype=float) ** (window - (r_build - r))
                step = max(step, float(np.sum(np.abs(weights * powers))))
            c_alpha = step * (1.0 + c_alpha)
        c_bar = max(c_bar, c_alpha)

    every = _family_stencils("single", s, r + 1)[0]
    cv_sum = sum(1.0 / _multi_factorial(alpha) for alpha in every if _abs_order(alpha) < r)
    tail_sum = sum(1.0 / _multi_factorial(alpha) for alpha in every if _abs_order(alpha) == r)
    return 2.0 * c_bar * cv_sum + 2.0 ** (1 - r) * tail_sum
