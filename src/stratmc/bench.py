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
CSV byte for byte.  A cell's replicate streams go to its estimator in one
call, which computes the stream-independent work (centre values, stencils)
once; each report equals its single-stream run, so the rows do too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import StratError
from .lattice import (_CALLABLE, _DIMENSION, _INTEGER, _PATH, _POSITIVE, GridSpec, Stream,
                      _Arg, _checked, substream_id)
# every estimator is bound here, so a tracer can wrap each by its name in this
# module; estimate_analytic_cv has no variant
from .estimators import (  # noqa: F401
    crude_mc,
    estimate_analytic_cv,
    estimate_paired_cv,
    estimate_single_cv,
    estimate_vanishing,
    haber1,
    haber2,
    vanishing_margin,
)
from .transform import _TAU, laplace_reparametrize, wrap

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
PRIOR_SD = 5.0  # the logistic integrand's prior standard deviation per coefficient


@dataclass
@_checked(s=_DIMENSION.named("Integrand.s"), fn=_CALLABLE.named("Integrand.fn"))
class Integrand:
    """A test integrand with optional exact value."""

    name: str
    s: int
    fn: object                      # vectorized: (n, s) -> (n,)
    exact: float | None = None
    vanishing: bool = False

    def __post_init__(self):
        if self.exact is not None and (not isinstance(self.exact, Real)
                                       or isinstance(self.exact, bool)):
            raise TypeError(f"Integrand.exact must be a real number or None, got {self.exact!r}")

    def __call__(self, pts):
        return self.fn(pts)


@_checked(s=_DIMENSION)
def test_function(s: int) -> Integrand:
    """The smooth product family: u e^u for s=1, else (prod u_j^(j-1)) e^(prod u_j).

    Exact integral: 1 for s=1 and e - sum_{j<s} 1/j! in general.
    """
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


@_checked(s=_DIMENSION, tau=_POSITIVE)
def wrapped_gaussian(s: int, tau: float = _TAU) -> Integrand:
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


_INTEGRANDS = ("fs", "gauss", "poly2", "logistic")


@_checked(fn_id=_Arg("choice", "integrand id", _INTEGRANDS), s=_DIMENSION, tau=_POSITIVE)
def make_integrand(fn_id: str, s: int, tau: float = _TAU,
                   dataset: str | None = None) -> Integrand:
    """Resolve a CLI integrand id; ``tau`` is checked for every id, and only
    ``logistic`` takes a ``dataset``."""
    if dataset is not None and fn_id != "logistic":
        raise ValueError(f"only the logistic integrand reads --dataset, not {fn_id!r}")
    if fn_id == "fs":
        return test_function(s)
    if fn_id == "gauss":
        return wrapped_gaussian(s, tau)
    if fn_id == "poly2":
        return _quadratic(s)
    if dataset is None:
        raise ValueError("the logistic integrand needs --dataset")
    return logistic_marginal_likelihood(dataset, s, tau=tau)


# ---------------------------------------------------------------------------
# logistic-regression marginal likelihood

def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    # log(1 / (1 + e^-z)), stable on both tails
    return -np.logaddexp(0.0, -z)


def _read_table(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A header CSV's header and its non-blank rows with their line numbers.

    ``StratError`` for an empty file, an empty first line, and a row whose
    width is not the header's (naming its line).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise StratError(f"{path}: empty file, expected a header row")
        if not header:
            raise StratError(f"{path}: header row is empty")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise StratError(f"{path}:{reader.line_num}: ragged row: {len(row)} cells "
                                 f"under a {len(header)}-column header")
            rows.append((reader.line_num, row))
    return header, rows


@_checked(path=_PATH)
def load_labelled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a header CSV whose first column is the label, rest predictors.

    Labels must be in {-1, 1} or {0, 1} (remapped to -1/1).  Returns
    (labels, predictor matrix); the file may contain zero data rows.
    """
    header, rows = _read_table(path)
    try:
        data = np.reshape([[float(v) for v in row] for _, row in rows], (len(rows), len(header)))
    except ValueError as exc:
        raise StratError(f"{path}: non-numeric cell ({exc})") from exc
    y = data[:, 0]
    if set(np.unique(y)) <= {0.0, 1.0}:
        y = 2.0 * y - 1.0
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise StratError(f"{path}: labels must be in {{-1,1}} or {{0,1}}")
    return y, data[:, 1:]


@_checked(dataset=_PATH.named("dataset"), s=_DIMENSION, tau=_POSITIVE)
def logistic_marginal_likelihood(dataset, s: int, tau: float = _TAU) -> Integrand:
    """Marginal likelihood of a logistic regression as a cube integrand.

    The coefficient vector has dimension s: an intercept plus the first
    s - 1 predictor columns of the CSV, in file order, unscaled.  The prior
    is mean-zero Gaussian with standard deviation ``PRIOR_SD`` per
    coordinate.  The integrand is the posterior mass function recentred at
    the mode with the inverse-Hessian Laplace scale and tail-mapped, so its
    cube integral is the marginal likelihood itself.
    """
    y, preds = load_labelled_csv(dataset)
    if s - 1 > preds.shape[1]:
        raise StratError(
            f"requested {s - 1} predictors but the file has {preds.shape[1]}"
        )
    design = np.hstack([np.ones((len(y), 1)), preds[:, : s - 1]])

    def h(beta):
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        logprior = (-0.5 * np.sum(beta * beta, axis=1) / PRIOR_SD ** 2
                    - s * math.log(PRIOR_SD * math.sqrt(2.0 * math.pi)))
        z = y[None, :] * (beta @ design.T)
        return logprior + _log_sigmoid(z).sum(axis=1)

    fit = laplace_reparametrize(h, np.zeros(s), scale="inv-hessian", tau=tau)
    out = Integrand(name=f"logistic(s={s})", s=s, fn=fit.integrand, exact=None,
                    vanishing=True)
    out.laplace_fit = fit
    return out


# ---------------------------------------------------------------------------
# the experiment loop

# variant -> (fixed order, or None to take config.r_values; runner(integrand, r, k, stream)),
# where stream is one Stream or a sequence of them, as the estimators take it.
# The runners look the estimators up in this module at call time, so wrappers
# installed on these names (tracing) see every call.
_REGISTRY = {
    "crude": (1, lambda f, r, k, st: crude_mc(f.fn, f.s, k ** f.s, st)),
    "haber1": (1, lambda f, r, k, st: haber1(f.fn, GridSpec(f.s, k, 0), st)),
    "haber2": (2, lambda f, r, k, st: haber2(f.fn, GridSpec(f.s, k, 0), st)),
    "hat": (None, lambda f, r, k, st: estimate_paired_cv(f.fn, r, GridSpec(f.s, k, 0), st)),
    "tilde": (None, lambda f, r, k, st: estimate_single_cv(f.fn, r, GridSpec(f.s, k, 0), st)),
    "vanishing": (None, lambda f, r, k, st: estimate_vanishing(
        f.fn, r, GridSpec(f.s, k, vanishing_margin(r)), st)),
}
VARIANTS = tuple(_REGISTRY)


@dataclass
@_checked(integrand=_Arg("instance", "integrand", Integrand),
          variants=_Arg("sequence", "variants", _Arg("choice", "variant", VARIANTS), nonempty=True),
          r_values=_Arg("sequence", "r_values", _Arg("integer", "r", 1)),
          k_values=_Arg("sequence", "k_values", _Arg("integer", "k", 1), nonempty=True),
          replicates=_Arg("integer", "replicates", 2), seed=_INTEGER.named("seed"))
class ExperimentConfig:
    integrand: Integrand
    variants: tuple[str, ...]
    r_values: tuple[int, ...]
    k_values: tuple[int, ...]
    replicates: int = 50
    seed: int = 0

    def __post_init__(self):
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ValueError("k values must be strictly increasing")
        if not self.r_values and any(_REGISTRY[v][0] is None for v in self.variants):
            raise ValueError("r_values must not be empty when a variant reads it")
        for name in ("variants", "r_values"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} must not repeat a value, got {getattr(self, name)}")
        if self.integrand.exact == 0:
            raise StratError(f"{self.integrand.name}: relative errors need a nonzero exact value")


@dataclass
@_checked()
class ResultRow:
    variant: str
    r: int
    k: int
    n_evals: float
    rel_error: float
    discarded: bool
    slope_group: str


@_checked(config=_Arg("instance", "config", ExperimentConfig))
def run(config: ExperimentConfig) -> list[ResultRow]:
    """One row per (variant, r, k); ``write_rows`` writes them as CSV.

    Every cell's estimator runs first; each statistic is then one reduction
    over the (cells, replicates) array, row by row as a per-cell reduction
    would sum.  With no exact value, a cell whose estimates average 0 raises
    ``StratError`` after all cells have run, naming the first such cell.
    """
    f = config.integrand
    cells, values, n_evals = [], [], []
    for variant in config.variants:
        order, runner = _REGISTRY[variant]
        for r in config.r_values if order is None else (order,):
            for k in config.k_values:
                streams = [Stream(config.seed, substream_id(variant, r, k, rep))
                           for rep in range(config.replicates)]
                reports = runner(f, r, k, streams)
                cells.append((variant, r, k))
                values.append([report.value for report in reports])
                n_evals.append([report.n_in_domain for report in reports])
    shape = (len(cells), config.replicates)
    values = np.array(values).reshape(shape)
    if f.exact is not None:
        stats = np.mean((values - f.exact) ** 2, axis=1).tolist()
        denoms = [f.exact ** 2] * len(cells)
    else:
        stats = np.var(values, axis=1, ddof=1).tolist()
        denoms = [mean ** 2 for mean in np.mean(values, axis=1).tolist()]
        for (variant, r, k), denom in zip(cells, denoms):
            if denom == 0.0:
                raise StratError(
                    f"{f.name}: {variant} at r={r}, k={k}: the estimates average 0, "
                    f"so the relative error is undefined; supply the exact value"
                )
    n_means = np.mean(np.array(n_evals, dtype=float).reshape(shape), axis=1).tolist()
    return [ResultRow(variant=variant, r=r, k=k, n_evals=n_mean, rel_error=stat / denom,
                      discarded=stat <= DISCARD_THRESHOLD, slope_group=f"{variant}-r{r}")
            for (variant, r, k), n_mean, stat, denom in zip(cells, n_means, stats, denoms)]


_ROWS = _Arg("sequence", "rows", _Arg("instance", "row", ResultRow))


@_checked(path=_PATH, rows=_ROWS)
def write_rows(path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        _write_csv(fh, rows)


def _write_csv(fh, rows: list[ResultRow], lineterminator: str = "\r\n") -> None:
    """The header and one line per row, each ended by ``lineterminator``."""
    writer = csv.writer(fh, lineterminator=lineterminator)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.variant, row.r, row.k,
            repr(row.n_evals), repr(row.rel_error),
            int(row.discarded), row.slope_group,
        ])


@_checked(path=_PATH)
def read_rows(path) -> list[ResultRow]:
    header, table = _read_table(path)
    missing = [name for name in CSV_COLUMNS if name not in header]
    if missing:
        raise StratError(f"{path}: missing column {missing[0]!r}")
    rows = []
    for lineno, row in table:
        rec = dict(zip(header, row))

        def cell(name, kind):
            try:
                return kind(rec[name])
            except ValueError as exc:
                raise StratError(f"{path}:{lineno}: column {name!r}: {exc}") from exc

        rows.append(ResultRow(
            variant=rec["variant"],
            r=cell("r", int),
            k=cell("k", int),
            n_evals=cell("n_evals", float),
            rel_error=cell("rel_error", float),
            discarded=bool(cell("discarded", int)),
            slope_group=rec["slope_group"],
        ))
    return rows


@_checked(rows=_ROWS)
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
