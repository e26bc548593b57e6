"""Unbiased integral estimators on the unit cube.

Every stratified estimator is one plan run by one core, ``_estimate``.  The
core draws each stratum's uniform offset U_c once, forms the per-stratum term
``sum_j w_j f(c + lambda_j U_c)`` over the plan's dilations lambda_j, and, when
the plan has control variates, subtracts ``sum_alpha D^alpha f(c) (U_c^alpha -
E U^alpha) / alpha!`` with derivatives from an exact oracle or from grid
stencils on the centre values.  The public functions only validate their
arguments and build the plan:

* ``crude_mc`` - plain iid Monte Carlo, for reference (not stratified).
* ``haber1`` - dilations (1,): one evaluation per stratum, f(c + U).
* ``haber2`` - dilations (1, -1): the symmetrized pair {f(c+U) + f(c-U)} / 2.
* ``estimate_analytic_cv`` - haber2 plus a zero-mean Taylor control variate
  built from caller-supplied exact derivatives at the centres.
* ``estimate_paired_cv`` - same control variate with the derivatives
  replaced by grid finite differences (even orders only; the pair term is
  symmetric so odd orders cancel).
* ``estimate_single_cv`` - haber1 with difference-based control variates on
  every order below r.
* ``estimate_vanishing`` - for integrands whose derivatives vanish on the
  cube boundary: the dilations 1, -1, 3, -3, ... with Vandermonde weights
  over a grid with margin strata, needing no numerical derivatives at all.

Estimators that admit exact identities (vanishing at orders 1/2 vs. the two
Haber rules, the single-point rule at r=1 vs. haber1, paired rules at 2q vs.
2q-1) run the same floating-point path through the core, so those identities
hold bit for bit on a common stream, not just in distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import IntegrandError, OrderError, ResolutionError
from .lattice import GridSpec, Stream, centre_array, index_array
from .stencil import (
    BlockAssignment,
    _lagrange_coeff_exact,
    block_partition,
    derivative_grid,
    multi_factorial,
    multi_indices,
)

__all__ = [
    "offset_moment",
    "ShiftCoefficients",
    "shift_coefficients",
    "vanishing_margin",
    "EstimatorConfig",
    "EstimateReport",
    "crude_mc",
    "haber1",
    "haber2",
    "estimate_analytic_cv",
    "estimate_paired_cv",
    "estimate_single_cv",
    "estimate_vanishing",
    "shifted_stratum_mean",
    "asymptotic_variance_estimate",
]

_CRUDE_TAG = 0x611B


def _centred_monomial(alpha):
    def g(pts):
        out = np.ones(len(pts))
        for axis, a in enumerate(alpha):
            if a:
                out = out * (pts[:, axis] - 0.5) ** a
        return out
    return g


def offset_moment(i: int, k: int) -> float:
    """E[V^i] for V uniform on [-1/2k, 1/2k]: zero for odd i, else 1/((i+1)(2k)^i)."""
    if i < 0:
        raise ValueError(f"moment order must be >= 0, got {i}")
    if k < 1:
        raise ValueError(f"resolution must be >= 1, got {k}")
    if i % 2:
        return 0.0
    return 1.0 / ((i + 1) * (2.0 * k) ** i)


# ---------------------------------------------------------------------------
# dilation coefficients for the vanishing estimator

def _shifts(r: int) -> tuple[int, ...]:
    """The first r odd dilations 1, -1, 3, -3, 5, -5, ..."""
    out = []
    v = 1
    while len(out) < r:
        out.append(v)
        if len(out) < r:
            out.append(-v)
        v += 2
    return tuple(out)


def vanishing_margin(r: int) -> int:
    """Margin layers needed at order r: max |shift| = r if odd else r - 1."""
    if r < 1:
        raise OrderError(f"order must be >= 1, got {r}")
    return r if r % 2 else r - 1


@dataclass(frozen=True)
class ShiftCoefficients:
    """Dilations and their combination weights at one order.

    The weights solve the Vandermonde system making
    ``sum_j weights[j] * g(shift[j] * u)`` reproduce ``g(0)`` up to
    O(|u|^r): they sum to one and kill the first r-1 moments.
    """

    shifts: tuple[int, ...]
    weights: tuple[float, ...]
    margin: int

    @property
    def order(self) -> int:
        return len(self.shifts)


@lru_cache(maxsize=64)
def shift_coefficients(r: int) -> ShiftCoefficients:
    if r < 1:
        raise OrderError(f"order must be >= 1, got {r}")
    shifts = _shifts(r)
    exact = _lagrange_coeff_exact(shifts, 0)
    return ShiftCoefficients(
        shifts=shifts,
        weights=tuple(float(w) for w in exact),
        margin=vanishing_margin(r),
    )


def shift_coefficients_exact(r: int) -> tuple[Fraction, ...]:
    """Rational combination weights; oracle counterpart of shift_coefficients."""
    return _lagrange_coeff_exact(_shifts(r), 0)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class EstimatorConfig:
    """Identity of one estimator run, used to align replicates."""

    variant: str
    r: int
    grid: GridSpec
    mode: str = "free"


@dataclass
class EstimateReport:
    """One estimate with its evaluation accounting.

    ``per_stratum_terms`` (kept on request) holds the independent summands
    Y_c with ``value ~= sum(per_stratum_terms) / normalizer``; replicate-based
    variance estimation needs them.  ``shift_averages`` is filled by the
    vanishing estimator: entry j is the stratum mean of f(c + shift_j * U_c),
    from which the estimate at every order r' <= r can be re-assembled.
    """

    value: float
    config: EstimatorConfig
    n_deterministic: int
    n_random: int
    n_in_domain: int
    normalizer: int
    per_stratum_terms: np.ndarray | None = None
    shift_averages: tuple[float, ...] | None = None

    @property
    def n_evaluations(self) -> int:
        return self.n_deterministic + self.n_random


# ---------------------------------------------------------------------------
# the estimator core

def _evaluate(f, pts: np.ndarray, grid: GridSpec | None = None, mask=None) -> np.ndarray:
    """f at ``pts``, checked against the integrand contract; see ``_checked``."""
    return _checked(f(pts), pts, "integrand", grid, mask)


def _checked(raw, pts: np.ndarray, source: str, grid: GridSpec | None = None,
             mask=None) -> np.ndarray:
    """``raw`` as finite float (n,) values for the n rows of ``pts``, else IntegrandError.

    The error names ``source`` and the first offending point.  With ``grid``
    it also names that point's stratum: row i of ``pts`` lies in stratum i,
    or in stratum ``flatnonzero(mask)[i]`` when ``pts`` is the subset that
    ``mask`` selects from the grid's rows.
    """
    vals = np.asarray(raw, dtype=float)
    if vals.shape != (len(pts),):
        raise IntegrandError(
            f"{source} returned shape {vals.shape} for {len(pts)} points; expected ({len(pts)},)"
        )
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        i = bad[0]
        row = i if mask is None else int(np.flatnonzero(mask)[i])
        where = "" if grid is None else f" in stratum {tuple(index_array(grid)[row].tolist())}"
        raise IntegrandError(
            f"{source} returned {vals[i]} at point {row} {pts[i].tolist()}{where} "
            f"({len(bad)} non-finite values in total)"
        )
    return vals


def _shift_parts(f, grid: GridSpec, shifts, u: np.ndarray, guard: bool):
    """Per-shift stratum means A_j = k^-s sum_c fbar(c + shift_j U_c).

    ``u`` holds the drawn offsets, row-aligned with the centres.  With
    ``guard`` the zero extension fbar is applied: points outside the closed
    unit cube contribute 0 without calling f.  Returns the means, the
    per-centre value rows (guarded entries zero), and the in-domain count.
    """
    ctr = centre_array(grid)
    scale = float(grid.k) ** grid.s
    means = []
    rows = []
    n_in = 0
    for lam in shifts:
        pts = ctr + lam * u
        if guard:
            # sum the in-domain values only: the compressed sequence (and
            # with it the floating-point sum) is then identical across grids
            # that differ only in margin layers
            mask = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
            vals = np.zeros(len(pts))
            total = 0.0
            if mask.any():
                inside = _evaluate(f, pts[mask], grid, mask)
                vals[mask] = inside
                total = float(np.sum(inside))
            n_in += int(mask.sum())
        else:
            vals = _evaluate(f, pts, grid)
            total = float(np.sum(vals))
            n_in += len(pts)
        means.append(total / scale)
        rows.append(vals)
    return means, rows, n_in


def _combine(weights, values) -> float:
    acc = 0.0
    for w, v in zip(weights, values):
        acc += w * v
    return acc


def _combine_rows(weights, rows) -> np.ndarray:
    acc = np.zeros_like(rows[0])
    for w, row in zip(weights, rows):
        acc += w * row
    return acc


@dataclass(frozen=True)
class _Plan:
    """One estimator: dilations and weights, the zero-extension guard, and the
    control-variate multi-indices with their derivative source (``oracle``
    if set, else stencils of order ``r_build``, block-local with ``blocks``)."""

    variant: str
    r: int
    shifts: tuple[int, ...]
    weights: tuple[float, ...]
    guard: bool = False
    alphas: tuple[tuple[int, ...], ...] = ()
    oracle: object = None
    r_build: int = 0
    blocks: BlockAssignment | None = None


_HABER1 = _Plan("haber1", 1, (1,), (1.0,))
_HABER2 = _Plan("haber2", 2, (1, -1), (0.5, 0.5))


def _estimate(plan: _Plan, f, grid: GridSpec, stream: Stream, keep_terms: bool) -> EstimateReport:
    """Run one plan: one offset draw, the shifted sums, the control variate, one report."""
    u = stream.offsets(grid)
    means, rows, n_in = _shift_parts(f, grid, plan.shifts, u, plan.guard)
    value = _combine(plan.weights, means)
    terms = _combine_rows(plan.weights, rows) if keep_terms else None
    n_det = 0
    if plan.alphas:
        if plan.oracle is not None:
            ctr = centre_array(grid)
            derivs = [_checked(plan.oracle(a, ctr), ctr, f"derivative oracle at alpha={a}", grid)
                      for a in plan.alphas]
        else:
            fvals = _evaluate(f, centre_array(grid), grid)
            n_det = grid.n_centres
            derivs = [derivative_grid(fvals, a, grid, plan.r_build, plan.blocks)
                      for a in plan.alphas]
        cv = np.zeros(grid.n_centres)
        for alpha, d_hat in zip(plan.alphas, derivs):
            cv += d_hat * _cv_factor(alpha, u, grid.k)
        value -= float(np.sum(cv)) / float(grid.k) ** grid.s
        if terms is not None:
            terms = terms - cv
    return EstimateReport(
        value=value,
        config=EstimatorConfig(plan.variant, plan.r, grid,
                               "free" if plan.blocks is None else "block"),
        n_deterministic=n_det,
        n_random=len(plan.shifts) * grid.n_centres,
        n_in_domain=n_det + n_in,
        normalizer=grid.k ** grid.s,
        per_stratum_terms=terms,
        shift_averages=tuple(means) if plan.guard else None,
    )


def shifted_stratum_mean(g, shift: int, grid: GridSpec, stream: Stream) -> float:
    """k^-s sum over centres of gbar(c + shift * U_c); unbiased for the integral.

    ``shift`` must be odd and the grid margin at least (|shift| - 1) / 2,
    otherwise strata near the boundary would be over- or under-visited.
    """
    if shift % 2 == 0:
        raise ValueError(f"dilation must be odd, got {shift}")
    if grid.m < (abs(shift) - 1) // 2:
        raise ValueError(
            f"margin {grid.m} too small for dilation {shift}; "
            f"need at least {(abs(shift) - 1) // 2}"
        )
    means, _rows, _n = _shift_parts(g, grid, (shift,), stream.offsets(grid), guard=True)
    return means[0]


# ---------------------------------------------------------------------------
# estimators

def crude_mc(f, s: int, n: int, stream: Stream, keep_terms: bool = False) -> EstimateReport:
    """Plain Monte Carlo: mean of f at n iid uniform points."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    vals = _evaluate(f, stream.bulk_uniform(_CRUDE_TAG, (n, s)))
    return EstimateReport(
        value=float(np.sum(vals)) / n,
        config=EstimatorConfig("crude", 1, GridSpec(s, 1, 0)),
        n_deterministic=0,
        n_random=n,
        n_in_domain=n,
        normalizer=n,
        per_stratum_terms=vals if keep_terms else None,
    )


def haber1(f, grid: GridSpec, stream: Stream, keep_terms: bool = False) -> EstimateReport:
    """One random evaluation per stratum; optimal for once-differentiable f."""
    _require_margin_free(grid)
    return _estimate(_HABER1, f, grid, stream, keep_terms)


def haber2(f, grid: GridSpec, stream: Stream, keep_terms: bool = False) -> EstimateReport:
    """Antithetic pair per stratum; optimal for twice-differentiable f."""
    _require_margin_free(grid)
    return _estimate(_HABER2, f, grid, stream, keep_terms)


def _require_margin_free(grid: GridSpec):
    if grid.m != 0:
        raise ValueError("this estimator runs on margin-free grids (m = 0)")


def _even_alphas(s: int, r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(a for total in range(2, r, 2) for a in multi_indices(s, total))


def _all_alphas(s: int, r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(a for total in range(1, r) for a in multi_indices(s, total))


def _cv_factor(alpha, u: np.ndarray, k: int) -> np.ndarray:
    """(U^alpha - E[U^alpha]) / alpha! per stratum."""
    mono = np.ones(len(u))
    mean = 1.0
    for axis, a in enumerate(alpha):
        if a:
            mono = mono * u[:, axis] ** a
            mean *= offset_moment(a, k)
    return (mono - mean) / multi_factorial(alpha)


def _paired_stencil_order(r: int, k: int) -> int:
    """Stencil order for the paired estimator.

    Odd r is rounded up to the next even order whenever the grid allows it:
    the pair term only exposes even derivative orders, so orders 2q-1 and 2q
    define the same estimator, and the wider windows are what make that
    identity exact.  At k = r (odd) the wider window does not fit and the
    odd-order construction is used.
    """
    r_even = r + (r % 2)
    return r_even if k >= r_even else r


def _checked_blocks(grid: GridSpec, r: int, mode: str) -> BlockAssignment | None:
    if mode == "free":
        return None
    if mode == "block":
        return block_partition(grid, r)
    raise ValueError(f"unknown stencil mode {mode!r}")


def estimate_analytic_cv(f, derivative_oracle, r: int, grid: GridSpec,
                         stream: Stream, keep_terms: bool = False) -> EstimateReport:
    """Antithetic pairs plus an exact-derivative Taylor control variate.

    ``derivative_oracle(alpha, points)`` must return D^alpha f at the given
    points; it is consulted for every even total order below r.  Exact for
    polynomials of total degree < r on every single run.
    """
    _require_margin_free(grid)
    if r < 1:
        raise OrderError(f"order must be >= 1, got {r}")
    plan = _Plan("analytic_cv", r, _HABER2.shifts, _HABER2.weights,
                 alphas=_even_alphas(grid.s, r), oracle=derivative_oracle)
    return _estimate(plan, f, grid, stream, keep_terms)


def estimate_paired_cv(f, r: int, grid: GridSpec, stream: Stream,
                       mode: str = "free", keep_terms: bool = False) -> EstimateReport:
    """Antithetic pairs plus difference-based control variates (even orders).

    Evaluates f once at every centre (shared by all stencils) and at the
    2 k^s random pair points: n = 3 k^s.  Exact for polynomials of total
    degree < r; RMSE of order n^(-1/2 - r/s) for r-smooth f.
    """
    _require_margin_free(grid)
    if r < 1:
        raise OrderError(f"order must be >= 1, got {r}")
    if grid.k < r:
        raise ResolutionError(f"need k >= r, got k={grid.k}, r={r}")
    blocks = _checked_blocks(grid, r, mode)
    # block-local stencils must fit in side-r blocks, so the widened window
    # of the odd-order identity is a free-mode refinement only
    r_build = r if blocks is not None else _paired_stencil_order(r, grid.k)
    plan = _Plan("paired_cv", r, _HABER2.shifts, _HABER2.weights,
                 alphas=_even_alphas(grid.s, r), r_build=r_build, blocks=blocks)
    return _estimate(plan, f, grid, stream, keep_terms)


def estimate_single_cv(f, r: int, grid: GridSpec, stream: Stream,
                       mode: str = "free", keep_terms: bool = False) -> EstimateReport:
    """Single random evaluation per stratum, control variates on all orders < r.

    n = 2 k^s (one random point per stratum plus the centre values).  At
    r = 1 the control-variate sum is empty and this is exactly haber1.
    """
    _require_margin_free(grid)
    if r < 1:
        raise OrderError(f"order must be >= 1, got {r}")
    if grid.k < r:
        raise ResolutionError(f"need k >= r, got k={grid.k}, r={r}")
    plan = _Plan("single_cv", r, _HABER1.shifts, _HABER1.weights,
                 alphas=_all_alphas(grid.s, r), r_build=r,
                 blocks=_checked_blocks(grid, r, mode))
    return _estimate(plan, f, grid, stream, keep_terms)


def estimate_vanishing(f, r: int, grid: GridSpec, stream: Stream,
                       keep_terms: bool = False) -> EstimateReport:
    """Dilation-combination estimator for boundary-vanishing integrands.

    The caller asserts that f and its derivatives up to order r vanish on
    the cube boundary (unchecked - it only affects the convergence rate, not
    unbiasedness).  Evaluation points outside the closed cube contribute 0
    without calling f.  The grid must carry the margin matching r.
    """
    coeff = shift_coefficients(r)
    if grid.m != coeff.margin:
        raise ValueError(
            f"order {r} needs a grid with margin {coeff.margin}, got m={grid.m}"
        )
    if grid.k < 2:
        raise ResolutionError(f"need k >= 2, got {grid.k}")
    plan = _Plan("vanishing", r, coeff.shifts, coeff.weights, guard=True)
    return _estimate(plan, f, grid, stream, keep_terms)


# ---------------------------------------------------------------------------
# asymptotic variance diagnostic

def asymptotic_variance_estimate(derivative_oracle, s: int, r: int, budget: int,
                                 seed: int = 0, quad_per_axis: int | None = None) -> float:
    """Limit of k^(s+2r) Var(paired estimate at resolution k) as k grows.

    Valid when the estimator's stencils are block-local.  The limit couples
    the covariances of the base-resolution (k = r) estimator applied to the
    centred monomials of total degree r with the pairwise products of the
    order-r derivatives of f.  The covariances have no closed form and are
    estimated from ``budget`` joint Monte Carlo replicates on shared
    streams; the derivative products are integrated with a midpoint rule.
    """
    if budget < 2:
        raise ValueError(f"need budget >= 2, got {budget}")
    alphas = list(multi_indices(s, r))
    grid = GridSpec(s, r, 0)
    monomials = [_centred_monomial(alpha) for alpha in alphas]

    samples = np.empty((budget, len(alphas)))
    for b in range(budget):
        stream = Stream(seed, b)  # shared across monomials: joint replicates
        for j, g in enumerate(monomials):
            samples[b, j] = estimate_paired_cv(g, r, grid, stream, mode="block").value
    cov = np.cov(samples.T, ddof=1).reshape(len(alphas), len(alphas))

    if quad_per_axis is None:
        quad_per_axis = {1: 4096, 2: 128}.get(s, max(8, int(round(8192 ** (1 / s)))))
    axis = (np.arange(quad_per_axis) + 0.5) / quad_per_axis
    mesh = np.meshgrid(*([axis] * s), indexing="ij")
    qpts = np.stack([m.ravel() for m in mesh], axis=1)
    dvals = [_checked(derivative_oracle(a, qpts), qpts, f"derivative oracle at alpha={a}")
             for a in alphas]
    weight = 1.0 / len(qpts)

    total = 0.0
    for i, ai in enumerate(alphas):
        for j, aj in enumerate(alphas):
            cross = float(np.sum(dvals[i] * dvals[j])) * weight
            total += cov[i, j] * cross / (multi_factorial(ai) * multi_factorial(aj))
    return float(r) ** (2 * r + s) * total
