"""Multi-run orchestration: variance estimation, pooling, order selection.

A single stratified run gives no internal variance estimate (the per-stratum
terms are independent but not identically distributed), so the variance is
estimated across ``l >= 2`` independent replicates: each stratum's term gets
its own sample variance and these are summed with the squared stratification
normalizer.  The resulting estimate is exactly unbiased for the variance of
one replicate and its own noise shrinks one order of n faster than the
squared variance, so even l = 2 or 3 is informative at moderate n.

For the boundary-vanishing estimator the estimator core gives every order up
to r from the evaluations of order r alone, so ``select_order`` pools each
order with ``pooled`` and selects the one with the smallest estimated
variance after the fact, at the cost of running the largest order only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DomainError
from .lattice import _CALLABLE, _GRID, _ORDER, _REAL, _STREAM, GridSpec, Stream, _Arg, _checked
from .estimators import EstimateReport, vanishing_orders

__all__ = [
    "ReplicateSummary",
    "variance_estimate",
    "pooled",
    "tail_bound",
    "select_order",
]


@dataclass
@_checked()
class ReplicateSummary:
    """Pooled result of l independent replicates of one estimator config."""

    l: int
    pooled_mean: float
    v_hat: float
    pooled_variance: float
    values: tuple[float, ...]


def _aligned_terms(reports: list[EstimateReport]) -> np.ndarray:
    if len(reports) < 2:
        raise AlignmentError(f"need at least 2 replicates, got {len(reports)}")
    ref = reports[0]
    seen = set()
    for rep in reports:
        if rep.stream is not None and rep.stream in seen:
            raise AlignmentError(f"replicates share {rep.stream}; pooling needs distinct streams")
        seen.add(rep.stream)
        if rep.per_stratum_terms is None:
            raise AlignmentError(
                "per-stratum terms were not retained; rerun with keep_terms=True"
            )
        if rep.config != ref.config or rep.normalizer != ref.normalizer:
            raise AlignmentError(
                f"replicates disagree on configuration: {rep.config} vs {ref.config}"
            )
        if rep.per_stratum_terms.shape != ref.per_stratum_terms.shape:
            raise AlignmentError("replicates have different stratum counts")
    return np.stack([rep.per_stratum_terms for rep in reports])


_REPORTS = _Arg("sequence", "reports", _Arg("instance", "report", EstimateReport))


@_checked(reports=_REPORTS)
def variance_estimate(reports: list[EstimateReport]) -> float:
    """Unbiased estimate of Var(single replicate) from aligned per-stratum terms.

    Sums the per-stratum sample variances across replicates and divides by
    the squared normalizer; independence across strata makes this exactly
    unbiased for the variance of one run.
    """
    terms = _aligned_terms(reports)
    per_stratum = terms.var(axis=0, ddof=1)
    return float(per_stratum.sum()) / reports[0].normalizer ** 2


@_checked(reports=_REPORTS)
def pooled(reports: list[EstimateReport]) -> ReplicateSummary:
    """Mean of the replicate values plus the variance of that mean."""
    v_hat = variance_estimate(reports)
    values = tuple(rep.value for rep in reports)
    return ReplicateSummary(
        l=len(reports),
        pooled_mean=float(np.mean(values)),
        v_hat=v_hat,
        pooled_variance=v_hat / len(reports),
        values=values,
    )


@_checked(delta=_REAL.named("delta"), c_hat=_REAL.named("c_hat"), norm_r=_REAL.named("norm_r"),
          n=_Arg("integer", "n", 1, DomainError), r=_ORDER,
          s=_Arg("integer", "dimension", 1, DomainError))
def tail_bound(delta: float, c_hat: float, norm_r: float, n: int, r: int, s: int) -> float:
    """Radius of the level-(1-delta) concentration interval.

    With ``c_hat`` the computable worst-case constant and ``norm_r`` an upper
    bound on the order-r derivatives, the estimate lies within this radius of
    the true integral with probability at least 1 - delta: ``n >= 1``,
    ``r >= 1``, ``s >= 1``, ``0 < delta < 1`` and ``c_hat, norm_r >= 0``.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    if not (c_hat >= 0.0 and norm_r >= 0.0):
        raise DomainError(f"need c_hat >= 0 and norm_r >= 0, got c_hat={c_hat}, norm_r={norm_r}")
    return float(n) ** (-0.5 - r / s) * c_hat * norm_r * math.sqrt(2.0 * math.log(2.0 / delta))


@_checked(f=_CALLABLE, r_max=_ORDER, grid=_GRID, l=_Arg("integer", "l", 2), stream=_STREAM)
def select_order(f, r_max: int, grid: GridSpec, l: int, stream: Stream):
    """Run the vanishing estimator at all orders 1..r_max and pick the best.

    Every order runs through the one estimator core on the evaluations of
    r_max (``vanishing_orders``: the dilations of a lower order are a prefix
    of the top order's), and each order's replicates are pooled with
    ``pooled``.  The order with the smallest estimated variance wins; ties go
    to the smaller order.

    ``stream.replicate`` is the base id; replicate j uses base + j.  The grid
    needs a margin of at least ``vanishing_margin(r_max)``.  Returns
    ``(best_order, {order: ReplicateSummary})`` in ascending order; the
    per-order values are bit-identical to standalone runs of the vanishing
    estimator on the same streams, on any accepted margin.
    """
    streams = [Stream(stream.seed, stream.replicate + j) for j in range(l)]
    summaries = {r_prime: pooled(reports)
                 for r_prime, reports in vanishing_orders(f, r_max, grid, streams).items()}
    best = min(summaries, key=lambda r_prime: (summaries[r_prime].v_hat, r_prime))
    return best, summaries
