"""The three benchmark workloads: inputs from a seed, one timed pass, correctness checks.

* ``ladder``    - the ``stratmc run`` rate ladder through ``bench.run`` and
  ``bench.write_rows``: many small and medium estimator calls.
* ``fine-grid`` - a few single high-resolution estimates: one long axis
  (s=1, k=4096) and four short axes in block mode (s=4, k=12).
* ``marginal``  - order selection on a Bayesian logistic marginal likelihood:
  integrand-bound, no stencils.

Every workload exposes ``prepare()`` (input generation), ``run_pass()`` (the
timed unit), ``result()`` (the pass output, which must repeat bit for bit from
pass to pass) and ``gate()`` (the correctness checks, run outside the timed
passes).  Integrand time is measured by :class:`Meter` wrappers around the
benchmark's own integrand, which is the denominator of ``overhead_x``.
"""

from __future__ import annotations

import csv
import math
import time
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from stratmc import bench, estimators, replicate, transform
from stratmc.lattice import GridSpec, Stream, substream_id

Z_BOUND = 6.0
# relative rounding tolerance of "exact" results, and the floor of the
# z-bound: estimates at r=4, k=4096 are exact to within a few ulps and their
# variance estimate is itself rounding noise
ROUNDING_REL = 1e-11


class Meter:
    """Points and seconds spent inside the wrapped callables."""

    def __init__(self):
        self.points = 0
        self.seconds = 0.0

    def wrap(self, fn):
        meter = self

        def timed(pts):
            t0 = time.perf_counter()
            out = fn(pts)
            meter.seconds += time.perf_counter() - t0
            meter.points += len(pts)
            return out

        return timed


class Check:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, bool(ok), detail


def z_checks(label: str, reports, reference: float) -> list[Check]:
    """Each estimate, and the pooled mean, within Z_BOUND standard errors of the reference."""
    floor = ROUNDING_REL * abs(reference)
    sd = math.sqrt(replicate.variance_estimate(reports))
    checks = []
    for j, rep in enumerate(reports):
        err = abs(rep.value - reference)
        checks.append(Check(f"{label} replicate {j} z-bound", err <= Z_BOUND * sd + floor,
                            f"|{rep.value!r} - {reference!r}| = {err:.3e} vs sd {sd:.3e}"))
    summary = replicate.pooled(reports)
    err = abs(summary.pooled_mean - reference)
    sd_mean = math.sqrt(summary.pooled_variance)
    checks.append(Check(f"{label} pooled z-bound", err <= Z_BOUND * sd_mean + floor,
                        f"|{summary.pooled_mean!r} - {reference!r}| = {err:.3e} vs sd {sd_mean:.3e}"))
    return checks


class Workload:
    name = ""
    # traced names that must fire in every pass, during set-up and during the gate
    pass_spans: tuple[str, ...] = ()
    setup_spans: tuple[str, ...] = ()
    gate_spans: tuple[str, ...] = ("replicate.variance_estimate", "replicate.pooled")

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.user = Meter()      # the benchmark's own integrand: denominator of overhead_x
        self.evals = Meter()     # points handed to the library's integrand argument

    def trace_targets(self):
        """Integrand objects to trace: (owner, attribute, span name), the name being the layer."""
        return []


# ---------------------------------------------------------------------------

class Ladder(Workload):
    """``stratmc run --fn fs --dim 2 --variant haber1,haber2,hat,tilde --r 4 --k 8,16,32,64``."""

    name = "ladder"
    variants = ("haber1", "haber2", "hat", "tilde")
    pass_spans = ("bench.run", "bench.write_rows", "bench.haber1", "bench.haber2",
                  "bench.estimate_paired_cv", "bench.estimate_single_cv",
                  "lattice.Stream.offsets", "lattice.index_array", "estimators.centre_array",
                  "estimators.derivative_grid", "integrand")

    def prepare(self):
        base = bench.test_function(2)
        fn = self.evals.wrap(self.user.wrap(base.fn))
        self.integrand = bench.Integrand(name=base.name, s=2, fn=fn, exact=base.exact)
        self.config = bench.ExperimentConfig(
            integrand=self.integrand, variants=self.variants, r_values=(4,),
            k_values=(4, 8) if self.smoke else (8, 16, 32, 64), replicates=2, seed=self.seed)
        self.csv_path = self.workdir / "ladder.csv"

    def trace_targets(self):
        return [(self.integrand, "fn", "integrand")]

    def run_pass(self):
        bench.write_rows(self.csv_path, bench.run(self.config))

    def result(self):
        return self.csv_path.read_bytes()

    def gate(self) -> list[Check]:
        f = self.integrand.fn
        checks = []
        # the README's bit-for-bit identities on a shared stream
        g0, g1 = GridSpec(2, 6, 0), GridSpec(2, 6, 1)
        for rep in range(3):
            st = Stream(self.seed, substream_id("perfbench-identity", rep))
            h1 = estimators.haber1(f, g0, st).value
            h2 = estimators.haber2(f, g0, st).value
            checks.append(Check("vanishing r=1 == haber1",
                                estimators.estimate_vanishing(f, 1, g1, st).value == h1))
            checks.append(Check("vanishing r=2 == haber2",
                                estimators.estimate_vanishing(f, 2, g1, st).value == h2))
            checks.append(Check("single_cv r=1 == haber1",
                                estimators.estimate_single_cv(f, 1, g0, st).value == h1))
            for q in (1, 2):
                checks.append(Check(f"paired_cv r={2 * q} == r={2 * q - 1}",
                                    estimators.estimate_paired_cv(f, 2 * q, g0, st).value
                                    == estimators.estimate_paired_cv(f, 2 * q - 1, g0, st).value))
        # every ladder variant within a z-bound of the exact integral
        grid = GridSpec(2, 8, 0)
        runs = {
            "haber1": lambda st: estimators.haber1(f, grid, st, keep_terms=True),
            "haber2": lambda st: estimators.haber2(f, grid, st, keep_terms=True),
            "hat": lambda st: estimators.estimate_paired_cv(f, 4, grid, st, keep_terms=True),
            "tilde": lambda st: estimators.estimate_single_cv(f, 4, grid, st, keep_terms=True),
        }
        for variant, call in runs.items():
            reports = [call(Stream(self.seed, substream_id("perfbench-z", variant, j)))
                       for j in range(4)]
            checks += z_checks(f"ladder {variant}", reports, self.integrand.exact)
        return checks


# ---------------------------------------------------------------------------

class FineGrid(Workload):
    """Few large grids: s=1, k=4096 (single and paired) and s=4, k=12 in block mode."""

    name = "fine-grid"
    pass_spans = ("estimators.estimate_single_cv", "estimators.estimate_paired_cv",
                  "lattice.Stream.offsets", "lattice.index_array", "estimators.centre_array",
                  "estimators.derivative_grid", "integrand")

    def prepare(self):
        long_k, short_s = (64, 2) if self.smoke else (4096, 4)
        # (estimator name, s, k, mode)
        self.configs = (("estimate_single_cv", 1, long_k, "free"),
                        ("estimate_paired_cv", 1, long_k, "free"),
                        ("estimate_paired_cv", short_s, 12, "block"))
        fns = {s: bench.test_function(s) for s in {c[1] for c in self.configs}}
        self.integrands = {s: bench.Integrand(name=f.name, s=s, exact=f.exact,
                                              fn=self.evals.wrap(self.user.wrap(f.fn)))
                           for s, f in fns.items()}
        self.stream = Stream(self.seed, 0)

    def trace_targets(self):
        return [(f, "fn", "integrand") for f in self.integrands.values()]

    def _estimate(self, config, fn, stream, keep_terms=False):
        name, s, k, mode = config
        return getattr(estimators, name)(fn, 4, GridSpec(s, k, 0), stream, mode=mode,
                                         keep_terms=keep_terms)

    def run_pass(self):
        self.last = tuple(self._estimate(c, self.integrands[c[1]].fn, self.stream).value
                          for c in self.configs)

    def result(self):
        return self.last

    def gate(self) -> list[Check]:
        checks = []
        for config in self.configs:
            name, s, k, mode = config
            label = f"{name} s={s} k={k} {mode}"
            # exact on polynomials of degree < r
            poly = bench.make_integrand("poly2", s)
            value = self._estimate(config, poly.fn, self.stream).value
            checks.append(Check(f"{label} poly2 exact",
                                abs(value - poly.exact) <= ROUNDING_REL * poly.exact,
                                f"{value!r} vs {poly.exact!r}"))
            f = self.integrands[s]
            reports = [self._estimate(config, f.fn,
                                      Stream(self.seed, substream_id("perfbench-z", label, j)),
                                      keep_terms=True)
                       for j in range(3)]
            checks += z_checks(label, reports, f.exact)
        return checks


# ---------------------------------------------------------------------------

class Marginal(Workload):
    """Order selection on a logistic-regression marginal likelihood (s=3).

    The posterior is built as ``bench.logistic_marginal_likelihood`` builds it
    (N(0, 5^2) prior per coefficient, Laplace recentring with the
    inverse-Hessian scale, tau = 1.5) but calls ``transform.laplace_reparametrize``
    with ``grad_tol=LAPLACE_GRAD_TOL``: at the library's default of 1e-8 the mode
    search stalls inside finite-difference noise and raises OptimizationError
    on about half of these datasets.
    """

    name = "marginal"
    pass_spans = ("replicate.select_order", "lattice.Stream.offsets", "lattice.index_array",
                  "estimators.centre_array", "transform", "integrand")
    setup_spans = ("transform.laplace_reparametrize",)
    r_max = 4
    replicates = 2
    prior_sd = 5.0
    LAPLACE_GRAD_TOL = 1e-6

    def prepare(self):
        n_obs = 40 if self.smoke else 250
        rng = np.random.default_rng(self.seed)
        x = rng.normal(size=(n_obs, 2))
        logits = 0.3 + x @ np.array([0.8, -0.5])
        y = (rng.random(n_obs) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
        path = self.workdir / "marginal.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1", "x2"])
            writer.writerows([int(yi), repr(float(a)), repr(float(b))] for yi, (a, b) in zip(y, x))
        labels, preds = bench.load_labelled_csv(path)
        design = np.hstack([np.ones((len(labels), 1)), preds])
        norm = 3 * math.log(self.prior_sd * math.sqrt(2.0 * math.pi))

        def log_posterior(beta):
            beta = np.atleast_2d(beta)
            logprior = -0.5 * np.sum(beta * beta, axis=1) / self.prior_sd ** 2 - norm
            return logprior - np.logaddexp(0.0, -labels[None, :] * (beta @ design.T)).sum(axis=1)

        fit = transform.laplace_reparametrize(log_posterior, np.zeros(3), scale="inv-hessian",
                                              tau=1.5, grad_tol=self.LAPLACE_GRAD_TOL)
        self.wrapped = fit.integrand              # VanishingIntegrand: tail map around g
        self.g = self.wrapped.g
        self.wrapped.g = self.user.wrap(self.g)
        self.integrand = bench.Integrand(name="logistic(s=3)", s=3, vanishing=True,
                                         fn=self.evals.wrap(self.wrapped))
        self.grid = GridSpec(3, 4 if self.smoke else 16, estimators.vanishing_margin(self.r_max))
        self.stream = Stream(self.seed, 0)

    def trace_targets(self):
        return [(self.integrand, "fn", "transform"), (self.wrapped, "g", "integrand")]

    def run_pass(self):
        self.last = replicate.select_order(self.integrand.fn, self.r_max, self.grid,
                                           self.replicates, self.stream)

    def result(self):
        best, summaries = self.last
        return best, tuple((r, s.values, s.v_hat) for r, s in sorted(summaries.items()))

    def reference(self) -> float:
        """Tensor Gauss-Hermite quadrature of g in the Laplace-whitened coordinates."""
        nodes, weights = hermegauss(24)
        y = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
        w = np.prod(np.stack(np.meshgrid(weights, weights, weights, indexing="ij"),
                             axis=-1).reshape(-1, 3), axis=1)
        w = w * np.exp(0.5 * np.sum(y * y, axis=1))
        # in chunks, so the gate's memory stays below the timed pass's
        return float(sum(np.sum(w[i:i + 1024] * self.g(y[i:i + 1024]))
                         for i in range(0, len(y), 1024)))

    def gate(self) -> list[Check]:
        checks = []
        ref = self.reference()
        f = self.integrand.fn
        # select_order's per-order values equal standalone vanishing runs, bit for bit
        small = GridSpec(3, 4 if self.smoke else 6, estimators.vanishing_margin(self.r_max))
        base = Stream(self.seed, 1000)
        _best, summaries = replicate.select_order(f, self.r_max, small, self.replicates, base)
        for r in range(1, self.r_max + 1):
            grid = GridSpec(3, small.k, estimators.vanishing_margin(r))
            values = tuple(estimators.estimate_vanishing(f, r, grid, Stream(base.seed, base.replicate + j)).value
                           for j in range(self.replicates))
            checks.append(Check(f"select_order r'={r} == standalone vanishing",
                                summaries[r].values == values))
        # z-bounds against the quadrature reference on the pass's grid; on the
        # small grid a few cells hold the posterior mass, the per-replicate
        # estimate is strongly skewed and a few-replicate variance estimate is not
        # a usable scale
        reports = [estimators.estimate_vanishing(f, self.r_max, self.grid,
                                                 Stream(self.seed, substream_id("perfbench-z", j)),
                                                 keep_terms=True)
                   for j in range(4)]
        checks += z_checks(f"vanishing r={self.r_max} k={self.grid.k}", reports, ref)
        _best, summaries = self.last
        for r, summary in summaries.items():
            err = abs(summary.pooled_mean - ref)
            sd = math.sqrt(summary.pooled_variance)
            checks.append(Check(f"select_order r'={r} z-bound",
                                err <= Z_BOUND * sd + ROUNDING_REL * abs(ref),
                                f"|{summary.pooled_mean!r} - {ref!r}| = {err:.3e} vs sd {sd:.3e}"))
        return checks


WORKLOADS = {cls.name: cls for cls in (Ladder, FineGrid, Marginal)}
