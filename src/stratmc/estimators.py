"""Unbiased integral estimators on the unit cube.

Every stratified estimator is one plan run by one core, ``_estimate``.  The
core draws each stratum's uniform offset U_c once, forms the per-stratum term
``sum_j w_j f(c + lambda_j U_c)`` over the plan's dilations lambda_j, and, when
the plan has control variates, subtracts ``sum_alpha D^alpha f(c) (U_c^alpha -
E U^alpha) / alpha!`` with derivatives from an exact oracle or from grid
stencils on the centre values.  The public functions take their plan from
``_plan``, which builds it and checks its grid rule (``_check_grid``) once per
variant, order, grid and stencil mode and caches it; a derivative oracle goes
to the core per call and is never kept in a plan:

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
  over a grid whose margin covers their reach, ``vanishing_margin(r) =
  (r - 1) // 2`` layers, needing no numerical derivatives at all.

The core also serves several plans from one pass when their dilations are
prefixes of the first plan's: ``vanishing_orders`` gives the vanishing
estimator at every order 1..r from the evaluations of order r, for
``replicate.select_order``; ``shifted_stratum_mean`` is a one-dilation plan.

Every estimator's ``stream`` is a ``Stream`` or a sequence of them, which gives
a list of reports in input order, each bit for bit the single-stream report.
The centre values and derivatives are then computed once per call; each stream
still draws its own offsets and calls f as a single-stream call would.

Every user-supplied function (the integrand, a derivative oracle, and in
:mod:`stratmc.transform` a wrapped ``g`` and a log-density ``h``) is called
through ``_evaluate``, which holds it to one contract: ``(n, s)`` points in,
``n`` finite real values out, else ``IntegrandError``.

Estimators that admit exact identities (vanishing at orders 1/2 vs. the two
Haber rules, the single-point rule at r=1 vs. haber1, paired rules at 2q vs.
2q-1) run the same floating-point path through the core, so those identities
hold bit for bit on a common stream, not just in distribution.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import index

import numpy as np

from .errors import IntegrandError, ResolutionError
from .lattice import (_CALLABLE, _DIMENSION, _GRID, _INTEGER, _MODE, _ORDER, _STREAM_OR_STREAMS,
                      _STREAMS, GridSpec, Stream, _Arg, _checked, centre_array)
from .stencil import (
    _family_stencils,
    _lagrange_coeff_exact,
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
    "vanishing_orders",
    "shifted_stratum_mean",
    "asymptotic_variance_estimate",
]

_FLOAT64 = np.dtype(np.float64)


def _centred_monomial(alpha):
    def g(pts):
        out = np.ones(len(pts))
        for axis, a in enumerate(alpha):
            if a:
                out = out * (pts[:, axis] - 0.5) ** a
        return out
    return g


@_checked(i=_Arg("integer", "moment order", 0), k=_Arg("integer", "resolution", 1))
def offset_moment(i: int, k: int) -> float:
    """E[V^i] for V uniform on [-1/2k, 1/2k]: zero for odd i, else 1/((i+1)(2k)^i)."""
    if i % 2:
        return 0.0
    return 1.0 / ((i + 1) * (2.0 * k) ** i)


# ---------------------------------------------------------------------------
# dilation coefficients for the vanishing estimator

def _shifts(r: int) -> tuple[int, ...]:
    """The first r odd dilations 1, -1, 3, -3, 5, -5, ...; callers check r >= 1."""
    out = []
    v = 1
    while len(out) < r:
        out.append(v)
        if len(out) < r:
            out.append(-v)
        v += 2
    return tuple(out)


def _reach(shifts) -> int:
    """Cells that c + shift U_c can reach past stratum c: (max |shift| - 1) // 2."""
    return (max(map(abs, shifts)) - 1) // 2


@_checked(r=_ORDER)
def vanishing_margin(r: int) -> int:
    """Smallest margin at order r: the reach (r - 1) // 2 of dilation r or r - 1.

    Larger margins give the same values; their points fall outside the cube.
    """
    return _reach(_shifts(r))


@dataclass(frozen=True)
@_checked()
class ShiftCoefficients:
    """Dilations and their combination weights at one order.

    The weights solve the Vandermonde system making
    ``sum_j weights[j] * g(shift[j] * u)`` reproduce ``g(0)`` up to
    O(|u|^r): they sum to one and kill the first r-1 moments.
    """

    shifts: tuple[int, ...]
    weights: tuple[float, ...]


@_checked(r=_ORDER)
def shift_coefficients(r: int) -> ShiftCoefficients:
    shifts = _shifts(r)
    exact = _lagrange_coeff_exact(shifts, 0)
    return ShiftCoefficients(shifts=shifts, weights=tuple(float(w) for w in exact))


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
@_checked()
class EstimatorConfig:
    """Identity of one estimator run, used to align replicates."""

    variant: str
    r: int
    grid: GridSpec
    mode: str = "free"


@dataclass
@_checked()
class EstimateReport:
    """One estimate with its evaluation accounting.

    ``per_stratum_terms`` (kept on request) holds the independent summands
    Y_c with ``value ~= sum(per_stratum_terms) / normalizer``; replicate-based
    variance estimation needs them.  ``shift_averages`` is filled by the
    vanishing estimator: entry j is the stratum mean of f(c + shift_j * U_c),
    from which the estimate at every order r' <= r can be re-assembled.
    ``stream`` is the Stream the offsets were drawn from (None for
    hand-built reports); pooling rejects replicates that share one.
    """

    value: float
    config: EstimatorConfig
    n_deterministic: int
    n_random: int
    n_in_domain: int
    normalizer: int
    per_stratum_terms: np.ndarray | None = None
    shift_averages: tuple[float, ...] | None = None
    stream: Stream | None = None


# ---------------------------------------------------------------------------
# the estimator core

def _values(fn, pts: np.ndarray, source: str = "integrand") -> np.ndarray:
    """``fn(pts)`` as float64 (n,) values for the n rows of ``pts``, finite or not:
    boolean, integer and float values are converted, and any other dtype
    (complex, string, object, ...) or any shape but ``(n,)`` is an error
    naming ``source``."""
    raw = fn(pts)
    if type(raw) is np.ndarray and raw.dtype == _FLOAT64 and raw.shape == (len(pts),):
        return raw
    vals = np.asarray(raw)
    if vals.dtype != _FLOAT64:
        if vals.dtype.kind not in "biuf":
            raise IntegrandError(
                f"{source} returned values of dtype {vals.dtype}; expected real numbers"
            )
        vals = vals.astype(_FLOAT64)
    if vals.shape != (len(pts),):
        raise IntegrandError(
            f"{source} returned shape {vals.shape} for {len(pts)} points; expected ({len(pts)},)"
        )
    return vals


def _evaluate(fn, pts: np.ndarray, source: str = "integrand", grid: GridSpec | None = None,
              rows: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """``_values(fn, pts, source)``, each finite, and their float sum.

    This is the one call of every user-supplied function (the integrand, a
    derivative oracle, a wrapped ``g``, a log-density ``h``) and the one
    statement of its contract; only the Newton line search reads ``h``
    through ``_values`` alone.  Values with a finite sum hold no NaN or inf.
    A non-finite value is an error naming ``source``, the first offending
    point and the count.  With ``grid`` it also names that point's stratum.
    Row i of ``pts`` is the caller's point i, or point ``rows[i]`` when
    ``pts`` is a subset of the caller's points.
    """
    vals = _values(fn, pts, source)
    total = float(np.sum(vals))
    if math.isfinite(total) or np.isfinite(vals).all():  # finite values may sum to inf
        return vals, total
    bad = np.flatnonzero(~np.isfinite(vals))
    i = bad[0]
    row = i if rows is None else int(rows[i])
    where = "" if grid is None else " in stratum {}".format(
        tuple(int(j) - grid.m for j in np.unravel_index(row, (grid.side,) * grid.s)))
    raise IntegrandError(
        f"{source} returned {vals[i]} at point {row} {pts[i].tolist()}{where} "
        f"({len(bad)} non-finite values in total)"
    )


def _dilated(ctr: np.ndarray, u: np.ndarray, lam: int) -> np.ndarray:
    # c + U and c - U are exactly c + 1*U and c + (-1)*U, one temporary less
    return ctr + u if lam == 1 else ctr - u if lam == -1 else ctr + lam * u


def _in_cube(col: np.ndarray) -> np.ndarray:
    ok = col >= 0.0
    ok &= col <= 1.0
    return ok


def _box_rows(grid: GridSpec, reach: int) -> np.ndarray:
    """Grid rows of the cells within ``reach`` layers of the unit cube, in grid-row order."""
    lo = grid.m - reach
    axis = np.arange(lo, lo + grid.k + 2 * reach)
    rows = np.zeros(1, dtype=np.intp)
    for _ in range(grid.s):
        rows = np.add.outer(rows * grid.side, axis).ravel()
    return rows


def _dilated_points(grid: GridSpec, lam: int, ctr: np.ndarray, u: np.ndarray):
    """The points c + lam U_c in the closed unit cube, in grid-row order, and their rows.

    Only the cells within the dilation's reach ``(|lam| - 1) // 2`` of the
    cube are visited; at a reach equal to the margin they are the rows as
    given, and the rows returned are None.  At reach 0 (lam = +-1) no point
    leaves the cube, so none is tested: c is ``(2j+1)/2k`` rounded and U is
    ``(m - 2^52)/(k 2^53)`` rounded with m in [0, 2^53), and rounding is
    monotone, so at j = 0 the smallest lam U, -fl(1/2k), gives exactly 0.0,
    and at j = k-1, c and the largest, fl(1/2k), are within 2^-53 (relative)
    of reals summing to 1: the exact sum stays below 1 + 2^-53 and rounds
    to 1.0 at most.  A wider dilation can cross a face by one ulp of
    fl(lam U), so its mask is built axis by axis: axis 0 is tested on every
    visited cell, each later axis only on the cells still in the running,
    gathered by flat index, and the survivors' points are formed last.
    Each coordinate is the same ``c + lam U`` that a full-grid pass forms,
    so the points are those of masking the whole grid, bit for bit; the
    rows are the caller's rows.
    """
    s, reach = grid.s, (abs(lam) - 1) // 2
    if reach == grid.m:
        c, v, rows = ctr, u, None
    else:
        box = (slice(grid.m - reach, grid.m + grid.k + reach),) * s
        shape = (grid.side,) * s + (s,)
        c, v, rows = ctr.reshape(shape)[box], u.reshape(shape)[box], _box_rows(grid, reach)
    if not reach:
        return _dilated(c, v, lam).reshape(-1, s), rows
    keep = np.flatnonzero(_in_cube(_dilated(c[..., 0], v[..., 0], lam).reshape(-1)))
    if rows is not None:
        keep = rows.take(keep)
    flat_c, flat_u = ctr.ravel(), u.ravel()
    for axis in range(1, s):
        at = keep * s + axis
        coord = _dilated(flat_c.take(at), flat_u.take(at), lam)
        keep = keep.take(np.flatnonzero(_in_cube(coord)))
    return _dilated(ctr.take(keep, axis=0), u.take(keep, axis=0), lam), keep


def _shift_parts(f, grid: GridSpec, shifts, u: np.ndarray, keep_terms: bool):
    """Per-shift stratum means A_j = k^-s sum_c fbar(c + shift_j U_c).

    ``u`` holds the drawn offsets, row-aligned with the centres.  fbar is the
    zero extension of f: points outside the closed unit cube contribute 0
    without calling f, and f gets the in-cube points of ``_dilated_points`` in
    grid-row order, so the floating-point sum is identical across grids that
    differ only in margin layers.  Returns the means, each shift's values (with
    ``keep_terms`` as per-centre rows, zero where no point reached f), and the
    counts.  The values are returned even unread and each batch of points is
    dropped once f returns: other lifetimes make glibc trim and regrow its
    heap, up to 40% more minor page faults on a warm s=4, k=12 block estimate.
    """
    ctr = centre_array(grid)
    scale = float(grid.k) ** grid.s
    means, rows, counts = [], [], []
    for lam in shifts:
        pts, where = _dilated_points(grid, lam, ctr, u)
        counts.append(len(pts))
        vals, total = _evaluate(f, pts, grid=grid, rows=where) if len(pts) else (np.zeros(0), 0.0)
        del pts
        if keep_terms and where is not None:
            vals, inside = np.zeros(len(u)), vals
            vals[where] = inside
        rows.append(vals)
        means.append(total / scale)
    return means, rows, counts


def _combine(weights, values):
    """sum_j w_j v_j from 0.0: a float for values, an array for value rows."""
    acc = 0.0
    for w, v in zip(weights, values):
        acc += w * v
    return acc


@dataclass(frozen=True)
class _Plan:
    """One estimator on one grid, from ``_plan``: dilations and weights, the
    zero-extension guard, and the control-variate multi-indices with their
    Taylor terms and stencil order (0: from an oracle)."""

    config: EstimatorConfig
    shifts: tuple[int, ...]
    weights: tuple[float, ...]
    guard: bool = False
    alphas: tuple[tuple[int, ...], ...] = ()
    taylor: tuple = ()
    r_build: int = 0


# the unguarded variants: dilations, weights and control-variate family
_RULES = {
    "haber1": ((1,), (1.0,), None),
    "haber2": ((1, -1), (0.5, 0.5), None),
    "single_cv": ((1,), (1.0,), "single"),
    "paired_cv": ((1, -1), (0.5, 0.5), "paired"),
    "analytic_cv": ((1, -1), (0.5, 0.5), "paired"),
}


def _plan(variant: str, r, grid: GridSpec, mode="free") -> _Plan:
    """The plan of ``variant`` at order ``r`` (for ``"dilated_mean"``, its dilation) on
    ``grid``, built once; a failed build is not cached, and a numpy integer shares its int's."""
    return _built_plan(variant, index(r), grid, mode)


@lru_cache(maxsize=256)
def _built_plan(variant: str, r: int, grid: GridSpec, mode: str) -> _Plan:
    family, guard = None, variant in ("vanishing", "dilated_mean")
    if variant == "vanishing":
        coeff = shift_coefficients(r)
        shifts, weights = coeff.shifts, coeff.weights
    elif variant == "dilated_mean":
        if r % 2 == 0:
            raise ValueError(f"dilation must be odd, got {r}")
        shifts, weights = (r,), (1.0,)
    else:
        shifts, weights, family = _RULES[variant]
    alphas, r_build = (), 0
    if family:
        # a block-local window must fit in its side-r block
        alphas, r_build = _family_stencils(family, grid.s, r, r if mode == "block" else grid.k)
    if variant == "analytic_cv":
        r_build = 0     # the caller's oracle gives the derivatives
    plan = _Plan(EstimatorConfig(variant, r, grid, mode), shifts, weights, guard, alphas,
                 _taylor_terms(alphas, grid.k), r_build)
    _check_grid(plan)
    return plan


def _check_grid(plan: _Plan):
    """The grid rule of a plan, checked once when it is built: no margin
    without the guard, with it a margin covering the dilations' reach (every
    stratum whose points can land in the cube); k >= r for stencils, k >= 2
    for vanishing."""
    variant, r, grid = plan.config.variant, plan.config.r, plan.config.grid
    if not plan.guard and grid.m != 0:
        raise ValueError("this estimator runs on margin-free grids (m = 0)")
    reach = _reach(plan.shifts) if plan.guard else 0
    if grid.m < reach:
        raise ValueError(f"margin {grid.m} is below the reach {reach} of the dilations; "
                         f"need at least {reach}")
    if plan.r_build and grid.k < r:
        raise ResolutionError(f"need k >= r, got k={grid.k}, r={r}")
    if variant == "vanishing" and grid.k < 2:
        raise ResolutionError(f"need k >= 2, got {grid.k}")


def _per_stream(stream, one):
    """``one(stream)`` for a Stream; for a list of Streams, ``one`` of each, in order."""
    return one(stream) if isinstance(stream, Stream) else [one(st) for st in stream]


def _estimate(plans: _Plan | tuple[_Plan, ...], f, stream, keep_terms: bool, oracle=None):
    """Per stream: offset draw, shifted sums, control variate, report.

    ``plans`` is one plan (one report per stream) or a tuple of plans on one
    grid whose dilations are prefixes of the first plan's (a tuple of reports
    per stream): one offset draw and one shifted-sum pass over the first
    plan's dilations serve them all.  Each plan's derivatives, from
    ``oracle(alpha, points)`` if given, are built once per call.
    """
    single = isinstance(plans, _Plan)
    if single:
        plans = (plans,)
    top = plans[0]
    grid = top.config.grid
    derivs = [None] * len(plans)
    scale = float(grid.k) ** grid.s

    def one(st: Stream):
        u = st.offsets(grid)
        means, rows, counts = _shift_parts(f, grid, top.shifts, u, keep_terms)
        reports = []
        for i, plan in enumerate(plans):
            n_shifts = len(plan.shifts)
            value = _combine(plan.weights, means)
            terms = _combine(plan.weights, rows) if keep_terms else None
            if plan.alphas:
                if derivs[i] is None:
                    derivs[i] = _derivatives(plan, f, oracle)
                cv = _control_variate(plan.taylor, derivs[i], u)
                value -= float(np.sum(cv)) / scale
                if terms is not None:
                    terms = terms - cv
            n_det = grid.n_centres if plan.alphas and oracle is None else 0
            reports.append(EstimateReport(
                value=value,
                config=plan.config,
                n_deterministic=n_det,
                n_random=n_shifts * grid.n_centres,
                n_in_domain=n_det + sum(counts[:n_shifts]),
                normalizer=grid.k ** grid.s,
                per_stratum_terms=terms,
                shift_averages=tuple(means[:n_shifts]) if plan.guard else None,
                stream=st,
            ))
        return reports[0] if single else tuple(reports)

    return _per_stream(stream, one)


def _taylor_terms(alphas: tuple[tuple[int, ...], ...], k: int) -> tuple:
    """Per multi-index: its active (axis, power) steps, E[U^alpha] and alpha!.

    The mean is the product of the per-axis moments in axis order; it is 0.0
    whenever an entry is odd.
    """
    terms = []
    for alpha in alphas:
        mean = 1.0
        for a in alpha:
            if a:
                mean *= offset_moment(a, k)
        steps = tuple((axis, a) for axis, a in enumerate(alpha) if a)
        terms.append((steps, mean, float(multi_factorial(alpha))))
    return tuple(terms)


def _control_variate(taylor, derivs, u: np.ndarray) -> np.ndarray:
    """sum_alpha D^alpha f(c) (U_c^alpha - E[U^alpha]) / alpha! per stratum.

    ``taylor`` is ``_taylor_terms`` of the multi-indices (|alpha| >= 1) and
    ``derivs`` their derivatives at the centres.  Each U^alpha is built in
    two reused buffers as a chain of products, each axis's power first: from
    a = 3 on ``**`` calls libm ``pow``, tens of times slower.  Subtracting a
    zero mean and dividing by a unit factorial are skipped; both are exact.
    """
    n = len(u)
    cv = np.zeros(n)
    buf, power = np.empty(n), np.empty(n)
    for (steps, mean, fact), d_hat in zip(taylor, derivs):
        mono = None
        for axis, a in steps:
            col = p = u[:, axis]
            if a > 1:
                p = np.multiply(col, col, out=buf if mono is None else power)
                for _ in range(a - 2):
                    np.multiply(p, col, out=p)
            mono = p if mono is None else np.multiply(mono, p, out=buf)
        if mean:
            mono = np.subtract(mono, mean, out=buf)
        if fact != 1.0:
            mono = np.divide(mono, fact, out=buf)
        cv += np.multiply(mono, d_hat, out=buf)
    return cv


def _derivatives(plan: _Plan, f, oracle) -> list[np.ndarray]:
    """D^alpha f at the centres for every alpha of the plan: oracle or stencils."""
    grid = plan.config.grid
    ctr = centre_array(grid)
    if oracle is not None:
        return [_evaluate(partial(oracle, a), ctr, f"derivative oracle at alpha={a}", grid)[0]
                for a in plan.alphas]
    fvals = _evaluate(f, ctr, grid=grid)[0]
    return derivative_grid(fvals, plan.alphas, grid, plan.r_build, plan.config.mode)


@_checked(g=_CALLABLE.named("g"), shift=_INTEGER.named("dilation"), grid=_GRID,
          stream=_STREAM_OR_STREAMS)
def shifted_stratum_mean(g, shift: int, grid: GridSpec, stream: Stream) -> float:
    """k^-s sum over centres of gbar(c + shift * U_c); unbiased for the integral.

    ``shift`` must be an odd integer and the grid margin at least its reach
    (|shift| - 1) / 2, otherwise strata near the boundary would be over- or
    under-visited.
    """
    return _estimate(_plan("dilated_mean", shift, grid), g, stream, False).shift_averages[0]


# ---------------------------------------------------------------------------
# estimators

_ESTIMATOR_ARGS = dict(f=_CALLABLE, r=_ORDER, grid=_GRID, stream=_STREAM_OR_STREAMS)


@_checked(f=_CALLABLE, s=_DIMENSION, n=_Arg("integer", "n", 1), stream=_STREAM_OR_STREAMS)
def crude_mc(f, s: int, n: int, stream: Stream | Sequence[Stream], keep_terms: bool = False):
    """Plain Monte Carlo: mean of f at n iid uniform points."""
    config = EstimatorConfig("crude", 1, GridSpec(s, 1, 0))

    def one(st: Stream) -> EstimateReport:
        vals, total = _evaluate(f, st.bulk_uniform((n, config.grid.s)))
        return EstimateReport(
            value=total / n,
            config=config,
            n_deterministic=0,
            n_random=n,
            n_in_domain=n,
            normalizer=n,
            per_stratum_terms=vals if keep_terms else None,
            stream=st,
        )

    return _per_stream(stream, one)


@_checked(f=_CALLABLE, grid=_GRID, stream=_STREAM_OR_STREAMS)
def haber1(f, grid: GridSpec, stream: Stream | Sequence[Stream], keep_terms: bool = False):
    """One random evaluation per stratum; optimal for once-differentiable f."""
    return _estimate(_plan("haber1", 1, grid), f, stream, keep_terms)


@_checked(f=_CALLABLE, grid=_GRID, stream=_STREAM_OR_STREAMS)
def haber2(f, grid: GridSpec, stream: Stream | Sequence[Stream], keep_terms: bool = False):
    """Antithetic pair per stratum; optimal for twice-differentiable f."""
    return _estimate(_plan("haber2", 2, grid), f, stream, keep_terms)


@_checked(derivative_oracle=_CALLABLE.named("derivative oracle"), **_ESTIMATOR_ARGS)
def estimate_analytic_cv(f, derivative_oracle, r: int, grid: GridSpec,
                         stream: Stream | Sequence[Stream], keep_terms: bool = False):
    """Antithetic pairs plus an exact-derivative Taylor control variate.

    ``derivative_oracle(alpha, points)`` must return D^alpha f at the given
    points; it is consulted for every even total order below r.  Exact for
    polynomials of total degree < r on every single run.  A sequence of
    streams consults the oracle once for all of them.
    """
    # the oracle goes to the call, not the cached plan, which would keep it alive
    return _estimate(_plan("analytic_cv", r, grid), f, stream, keep_terms, derivative_oracle)


@_checked(mode=_MODE, **_ESTIMATOR_ARGS)
def estimate_paired_cv(f, r: int, grid: GridSpec, stream: Stream | Sequence[Stream],
                       mode: str = "free", keep_terms: bool = False):
    """Antithetic pairs plus difference-based control variates (even orders).

    Evaluates f once at every centre (shared by all stencils) and at the
    2 k^s random pair points: n = 3 k^s.  Exact for polynomials of total
    degree < r; RMSE of order n^(-1/2 - r/s) for r-smooth f.  A sequence of
    streams shares one centre pass and its stencils; each report still
    counts the k^s centre evaluations.
    """
    return _estimate(_plan("paired_cv", r, grid, mode), f, stream, keep_terms)


@_checked(mode=_MODE, **_ESTIMATOR_ARGS)
def estimate_single_cv(f, r: int, grid: GridSpec, stream: Stream | Sequence[Stream],
                       mode: str = "free", keep_terms: bool = False):
    """Single random evaluation per stratum, control variates on all orders < r.

    n = 2 k^s (one random point per stratum plus the centre values).  At
    r = 1 the control-variate sum is empty and this is exactly haber1.  A
    sequence of streams shares one centre pass, as in ``estimate_paired_cv``.
    """
    return _estimate(_plan("single_cv", r, grid, mode), f, stream, keep_terms)


@_checked(**_ESTIMATOR_ARGS)
def estimate_vanishing(f, r: int, grid: GridSpec, stream: Stream | Sequence[Stream],
                       keep_terms: bool = False):
    """Dilation-combination estimator for boundary-vanishing integrands.

    The caller asserts that f and its derivatives up to order r vanish on
    the cube boundary (unchecked - it only affects the convergence rate, not
    unbiasedness).  Evaluation points outside the closed cube contribute 0
    without calling f.  The grid needs k >= 2 and a margin of at least
    ``vanishing_margin(r)``; any larger margin gives the same value,
    ``shift_averages`` and ``n_in_domain``, while ``n_random`` and the
    per-stratum terms follow the grid's cells.
    """
    return _estimate(_plan("vanishing", r, grid), f, stream, keep_terms)


@_checked(f=_CALLABLE, r_max=_ORDER, grid=_GRID, streams=_STREAMS)
def vanishing_orders(f, r_max: int, grid: GridSpec,
                     streams: Sequence[Stream]) -> dict[int, list[EstimateReport]]:
    """The vanishing estimator at every order 1..r_max, from the evaluations of r_max.

    The dilations of order r' are the first r' of order r_max, so one pass
    per stream serves every order.  Returns ``{r': reports}`` in ascending
    order, one report per stream with its per-stratum terms; each value is
    bit for bit that of ``estimate_vanishing`` at order r' on the same
    stream, on any grid that ``estimate_vanishing`` accepts at r_max.
    """
    # top order first, as its dilations and grid rule cover every lower order
    plans = tuple(_plan("vanishing", r, grid) for r in range(r_max, 0, -1))
    per_stream = _estimate(plans, f, streams, keep_terms=True)
    return {r: [reports[r_max - r] for reports in per_stream] for r in range(1, r_max + 1)}


# ---------------------------------------------------------------------------
# asymptotic variance diagnostic

@_checked(derivative_oracle=_CALLABLE.named("derivative oracle"), s=_DIMENSION, r=_ORDER,
          budget=_Arg("integer", "budget", 2), seed=_INTEGER.named("seed"))
def asymptotic_variance_estimate(derivative_oracle, s: int, r: int, budget: int,
                                 seed: int = 0) -> float:
    """Limit of k^(s+2r) Var(paired estimate at resolution k) as k grows.

    Valid when the estimator's stencils are block-local.  The limit couples
    the covariances of the base-resolution (k = r) estimator applied to the
    centred monomials of total degree r with the pairwise products of the
    order-r derivatives of f.  The covariances have no closed form and are
    estimated from ``budget`` joint Monte Carlo replicates on shared
    streams; the derivative products are integrated with a midpoint rule.
    """
    alphas = list(multi_indices(s, r))
    grid = GridSpec(s, r, 0)
    monomials = [_centred_monomial(alpha) for alpha in alphas]

    streams = [Stream(seed, b) for b in range(budget)]  # shared across monomials
    samples = np.empty((budget, len(alphas)))
    for j, g in enumerate(monomials):
        samples[:, j] = [rep.value for rep in estimate_paired_cv(g, r, grid, streams, mode="block")]
    cov = np.cov(samples.T, ddof=1).reshape(len(alphas), len(alphas))

    quad_per_axis = {1: 4096, 2: 128}.get(s, max(8, int(round(8192 ** (1 / s)))))
    qpts = centre_array(GridSpec(s, quad_per_axis))
    dvals = [_evaluate(partial(derivative_oracle, a), qpts, f"derivative oracle at alpha={a}")[0]
             for a in alphas]
    weight = 1.0 / len(qpts)

    total = 0.0
    for i, ai in enumerate(alphas):
        for j, aj in enumerate(alphas):
            cross = float(np.sum(dvals[i] * dvals[j])) * weight
            total += cov[i, j] * cross / (multi_factorial(ai) * multi_factorial(aj))
    return float(float(r) ** (2 * r + s) * total)
