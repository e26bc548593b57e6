"""Benchmark harness: estimator ladders over grid resolutions, CSV output.

An experiment fixes an integrand and runs each requested (variant, order,
resolution) cell for a batch of independent replicates, recording a relative
error statistic per cell: mean squared error against the exact integral when
it is known, otherwise the empirical variance relative to the squared mean.
Cells whose raw error statistic sits at machine-epsilon level (<= 1e-32) are
flagged as discarded - those estimates are exact up to rounding and carry no
rate information.

Everything is deterministic given the master seed: replicate streams derive
from (seed, variant, r, k, replicate), so rerunning a config reproduces the
CSV byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import StratError
from .lattice import GridSpec, Stream, substream_id
from .estimators import (
    EstimateReport,
    crude_mc,
    estimate_analytic_cv,
    estimate_paired_cv,
    estimate_single_cv,
    estimate_vanishing,
    haber1,
    haber2,
    vanishing_margin,
)
from .transform import laplace_reparametrize, wrap

__all__ = [
    "Integrand",
    "test_function",
    "wrapped_gaussian",
    "logistic_marginal_likelihood",
    "make_integrand",
    "ExperimentConfig",
    "ResultRow",
    "run",
    "write_rows",
    "read_rows",
    "fit_slope",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ["variant", "r", "k", "n_evals", "rel_error", "discarded", "slope_group"]
DISCARD_THRESHOLD = 1e-32


@dataclass
class Integrand:
    """A test integrand with optional exact value and derivative oracle."""

    name: str
    s: int
    fn: object                      # vectorized: (n, s) -> (n,)
    exact: float | None = None
    vanishing: bool = False
    derivative: object | None = None   # (alpha, points) -> values

    def __call__(self, pts):
        return self.fn(pts)


def test_function(s: int) -> Integrand:
    """The smooth product family: u e^u for s=1, else (prod u_j^(j-1)) e^(prod u_j).

    Exact integral: 1 for s=1 and e - sum_{j<s} 1/j! in general.
    """
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    if s == 1:
        def fn1(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return pts[:, 0] * np.exp(pts[:, 0])

        return Integrand(name="fs(1)", s=1, fn=fn1, exact=1.0)

    exponents = np.arange(s, dtype=float)  # u_j ** (j-1), axes 1-based

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        prod = pts.prod(axis=1)
        lead = np.prod(pts ** exponents[None, :], axis=1)
        return lead * np.exp(prod)

    exact = math.e - sum(1.0 / math.factorial(j) for j in range(s))
    return Integrand(name=f"fs({s})", s=s, fn=fn, exact=exact)


def wrapped_gaussian(s: int, tau: float = 1.5) -> Integrand:
    """Standard normal density on R^s pushed onto the cube; integrates to 1."""

    def g(x):
        x = np.atleast_2d(x)
        return np.exp(-0.5 * np.sum(x * x, axis=1)) / (2.0 * math.pi) ** (s / 2.0)

    return Integrand(name=f"gauss({s})", s=s, fn=wrap(g, s, tau), exact=1.0,
                     vanishing=True)


def _quadratic(s: int) -> Integrand:
    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.sum(pts * pts, axis=1)

    return Integrand(name=f"poly2({s})", s=s, fn=fn, exact=s / 3.0)


def make_integrand(fn_id: str, s: int, tau: float = 1.5,
                   dataset: str | None = None, label_values=None) -> Integrand:
    """Resolve a CLI integrand id."""
    if fn_id == "fs":
        return test_function(s)
    if fn_id == "gauss":
        return wrapped_gaussian(s, tau)
    if fn_id == "poly2":
        return _quadratic(s)
    if fn_id == "logistic":
        if dataset is None:
            raise ValueError("the logistic integrand needs --dataset")
        return logistic_marginal_likelihood(dataset, s, tau=tau)
    raise ValueError(f"unknown integrand id {fn_id!r}")


# ---------------------------------------------------------------------------
# logistic-regression marginal likelihood

def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    # log(1 / (1 + e^-z)), stable on both tails
    return -np.logaddexp(0.0, -z)


def load_labelled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a header CSV whose first column is the label, rest predictors.

    Labels must be in {-1, 1} or {0, 1} (remapped to -1/1).  Returns
    (labels, predictor matrix); the file may contain zero data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StratError(f"{path}: empty file, expected a header row")
        rows = [row for row in reader if row]
    if len(header) < 1:
        raise StratError(f"{path}: header row is empty")
    if not rows:
        return np.empty(0), np.empty((0, max(len(header) - 1, 0)))
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise StratError(f"{path}: non-numeric cell ({exc})") from exc
    if data.shape[1] != len(header):
        raise StratError(f"{path}: ragged rows")
    y = data[:, 0]
    if set(np.unique(y)) <= {0.0, 1.0}:
        y = 2.0 * y - 1.0
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise StratError(f"{path}: labels must be in {{-1,1}} or {{0,1}}")
    return y, data[:, 1:]


def logistic_marginal_likelihood(dataset, s: int, prior_sd: float = 5.0,
                                 tau: float = 1.5, standardize: bool = False,
                                 scale: str = "inv-hessian") -> Integrand:
    """Marginal likelihood of a logistic regression as a cube integrand.

    The coefficient vector has dimension s: an intercept plus the first
    s - 1 predictor columns of the CSV, in file order.  The prior is
    mean-zero Gaussian with standard deviation ``prior_sd`` per coordinate.
    The integrand is the Laplace-recentred, tail-mapped posterior mass
    function, so its cube integral is the marginal likelihood itself.
    """
    if s < 1:
        raise ValueError(f"need at least the intercept, got s={s}")
    y, preds = load_labelled_csv(dataset)
    if s - 1 > preds.shape[1]:
        raise StratError(
            f"requested {s - 1} predictors but the file has {preds.shape[1]}"
        )
    x = preds[:, : s - 1]
    if standardize and len(x) and s > 1:
        sd = x.std(axis=0)
        sd[sd == 0.0] = 1.0
        x = (x - x.mean(axis=0)) / sd
    design = np.hstack([np.ones((len(y), 1)), x]) if len(y) else np.empty((0, s))

    def h(beta):
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        logprior = (-0.5 * np.sum(beta * beta, axis=1) / prior_sd ** 2
                    - s * math.log(prior_sd * math.sqrt(2.0 * math.pi)))
        if len(y) == 0:
            return logprior
        z = y[None, :] * (beta @ design.T)
        return logprior + _log_sigmoid(z).sum(axis=1)

    fit = laplace_reparametrize(h, np.zeros(s), scale=scale, tau=tau)
    out = Integrand(name=f"logistic(s={s})", s=s, fn=fit.integrand, exact=None,
                    vanishing=True)
    out.laplace_fit = fit
    return out


# ---------------------------------------------------------------------------
# the experiment loop

def _run_star(f: Integrand, r: int, k: int, stream: Stream) -> EstimateReport:
    if f.derivative is None:
        raise StratError(f"{f.name} has no derivative oracle for 'star'")
    return estimate_analytic_cv(f.fn, f.derivative, r, GridSpec(f.s, k, 0), stream)


# variant -> (fixed order, or None to take config.r_values; runner(integrand, r, k, stream)).
# The runners look the estimators up in this module at call time, so wrappers
# installed on these names (tracing) see every call.
_REGISTRY = {
    "crude": (1, lambda f, r, k, st: crude_mc(f.fn, f.s, k ** f.s, st)),
    "haber1": (1, lambda f, r, k, st: haber1(f.fn, GridSpec(f.s, k, 0), st)),
    "haber2": (2, lambda f, r, k, st: haber2(f.fn, GridSpec(f.s, k, 0), st)),
    "star": (None, _run_star),
    "hat": (None, lambda f, r, k, st: estimate_paired_cv(f.fn, r, GridSpec(f.s, k, 0), st)),
    "tilde": (None, lambda f, r, k, st: estimate_single_cv(f.fn, r, GridSpec(f.s, k, 0), st)),
    "vanishing": (None, lambda f, r, k, st: estimate_vanishing(
        f.fn, r, GridSpec(f.s, k, vanishing_margin(r)), st)),
}
VARIANTS = tuple(_REGISTRY)


@dataclass
class ExperimentConfig:
    integrand: Integrand
    variants: tuple[str, ...]
    r_values: tuple[int, ...]
    k_values: tuple[int, ...]
    replicates: int = 50
    seed: int = 0
    rel_mode: str = "squared"    # 'squared': mse / I^2; 'literal': mse / |I|
    out: str | None = None

    def __post_init__(self):
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ValueError("k values must be strictly increasing")
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates for an error statistic")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}; choose from {VARIANTS}")
        if self.rel_mode not in ("squared", "literal"):
            raise ValueError(f"rel_mode must be 'squared' or 'literal', got {self.rel_mode!r}")
        if self.integrand.exact == 0:
            raise StratError(f"{self.integrand.name}: relative errors need a nonzero exact value")


@dataclass
class ResultRow:
    variant: str
    r: int
    k: int
    n_evals: float
    rel_error: float
    discarded: bool
    slope_group: str


def run(config: ExperimentConfig) -> list[ResultRow]:
    """One row per (variant, r, k); writes the CSV when config.out is set."""
    rows = []
    f = config.integrand
    for variant in config.variants:
        order, runner = _REGISTRY[variant]
        for r in config.r_values if order is None else (order,):
            for k in config.k_values:
                values = np.empty(config.replicates)
                n_evals = np.empty(config.replicates)
                for rep in range(config.replicates):
                    stream = Stream(config.seed, substream_id(variant, r, k, rep))
                    report = runner(f, r, k, stream)
                    values[rep] = report.value
                    n_evals[rep] = report.n_in_domain
                if f.exact is not None:
                    stat = float(np.mean((values - f.exact) ** 2))
                    denom = f.exact ** 2 if config.rel_mode == "squared" else abs(f.exact)
                else:
                    stat = float(np.var(values, ddof=1))
                    denom = float(np.mean(values)) ** 2
                    if denom == 0.0:
                        raise StratError(
                            f"{f.name}: {variant} at r={r}, k={k}: the estimates average 0, "
                            f"so the relative error is undefined; supply the exact value"
                        )
                rows.append(ResultRow(
                    variant=variant,
                    r=r,
                    k=k,
                    n_evals=float(np.mean(n_evals)),
                    rel_error=stat / denom,
                    discarded=stat <= DISCARD_THRESHOLD,
                    slope_group=f"{variant}-r{r}",
                ))
    if config.out is not None:
        write_rows(config.out, rows)
    return rows


def write_rows(path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row.variant, row.r, row.k,
                repr(row.n_evals), repr(row.rel_error),
                int(row.discarded), row.slope_group,
            ])


def read_rows(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(ResultRow(
                variant=rec["variant"],
                r=int(rec["r"]),
                k=int(rec["k"]),
                n_evals=float(rec["n_evals"]),
                rel_error=float(rec["rel_error"]),
                discarded=bool(int(rec["discarded"])),
                slope_group=rec["slope_group"],
            ))
    return rows


def fit_slope(rows: list[ResultRow]) -> float:
    """Least-squares slope of log(rel_error) against log(n_evals).

    Discarded rows (exact-to-rounding cells) are excluded; at least three
    usable rows are required for a meaningful fit.
    """
    usable = [row for row in rows if not row.discarded and row.rel_error > 0.0]
    if len(usable) < 3:
        raise StratError(f"need >= 3 non-discarded rows to fit a slope, got {len(usable)}")
    x = np.log([row.n_evals for row in usable])
    y = np.log([row.rel_error for row in usable])
    return float(np.polyfit(x, y, 1)[0])
