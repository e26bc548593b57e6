"""The argument table: every public name declares the class of each argument it checks.

``lattice._ARGUMENTS`` maps each public callable to its parameters' argument
classes.  These tests read it: every export has an entry, every entry names
real parameters, and every classed parameter rejects a value of the wrong
type and one out of range with a typed error, raised by the package, that
names the argument.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

import stratmc
from stratmc import bench, estimators, lattice, replicate, stencil, transform
from stratmc.errors import StratError
from stratmc.lattice import _ARGUMENTS, GridSpec, Stream

MODULES = (lattice, stencil, estimators, replicate, transform, bench)


def _resolve(name):
    head, _, method = name.partition(".")
    owner = next(getattr(m, head) for m in MODULES if hasattr(m, head))
    return getattr(owner, method) if method else owner


def _first(x):
    return x[:, 0]


def _oracle(alpha, x):
    return x[:, 0]


def _valid(name):
    """Arguments that pass every check of ``name``; bodies never run on them here."""
    grid, stream = GridSpec(1, 4), Stream(0)
    rows = [bench.ResultRow("hat", 2, 4, 16.0, 0.1, False, "hat-r2")]
    config = bench.ExperimentConfig(integrand=bench.test_function(1), variants=("hat",),
                                    r_values=(2,), k_values=(4, 8), replicates=2)
    reports = estimators.haber1(_first, grid, [Stream(0, 0), Stream(0, 1)], keep_terms=True)
    estimator = dict(f=_first, r=2, grid=grid, stream=stream)
    weights = dict(kappa=(0, 1, 2), a=1)
    wrapped = dict(g=_first, s=1, tau=1.5)
    table = {
        "GridSpec": dict(s=1, k=4, m=0),
        "Stream": dict(seed=0, replicate=0),
        "Stream.offsets": dict(grid=grid),
        "index_array": dict(grid=grid),
        "centre_array": dict(grid=grid),
        "multi_indices": dict(s=2, total=2),
        "univariate_weights": weights,
        "univariate_weights_exact": weights,
        "derivative_stencil": dict(alpha=(1,), centre_index=(2,), grid=GridSpec(1, 8), r=3,
                                   mode="free"),
        "apply_stencil": dict(stencil=stencil.derivative_stencil((1,), (2,), GridSpec(1, 8), 3),
                              values={}),
        "derivative_grid": dict(fvals=np.zeros(8), alpha=[(1,)], grid=GridSpec(1, 8), r=3,
                                mode="free"),
        "error_constant": dict(s=1, r=2, family="single"),
        "vanishing_margin": dict(r=3),
        "shifted_stratum_mean": dict(g=_first, shift=1, grid=grid, stream=stream),
        "crude_mc": dict(f=_first, s=1, n=4, stream=stream),
        "haber1": dict(f=_first, grid=grid, stream=stream),
        "haber2": dict(f=_first, grid=grid, stream=stream),
        "estimate_analytic_cv": dict(estimator, derivative_oracle=_oracle),
        "estimate_paired_cv": dict(estimator, mode="free"),
        "estimate_single_cv": dict(estimator, mode="free"),
        "estimate_vanishing": estimator,
        "vanishing_orders": dict(f=_first, r_max=2, grid=grid, streams=[stream]),
        "asymptotic_variance_estimate": dict(derivative_oracle=_oracle, s=1, r=2, budget=2,
                                             seed=0),
        "variance_estimate": dict(reports=reports),
        "pooled": dict(reports=reports),
        "tail_bound": dict(delta=0.1, c_hat=1.0, norm_r=1.0, n=10, r=2, s=1),
        "select_order": dict(f=_first, r_max=2, grid=grid, l=2, stream=stream),
        "psi": dict(u=[0.5], tau=1.5),
        "jacobian_factor": dict(u=[0.5], tau=1.5),
        "VanishingIntegrand": wrapped,
        "wrap": wrapped,
        "laplace_reparametrize": dict(h=_first, mode_guess=[0.0], scale="hessian", tau=1.5,
                                      grad_tol=1e-8),
        "Integrand": dict(name="x", s=1, fn=_first),
        "test_function": dict(s=1),
        "wrapped_gaussian": dict(s=1, tau=1.5),
        "make_integrand": dict(fn_id="fs", s=1, tau=1.5),
        "load_labelled_csv": dict(path="missing.csv"),
        "logistic_marginal_likelihood": dict(dataset="missing.csv", s=1, tau=1.5),
        "ExperimentConfig": dict(integrand=bench.test_function(1), variants=("hat",),
                                 r_values=(2,), k_values=(4, 8), replicates=2, seed=0),
        "run": dict(config=config),
        "write_rows": dict(path="missing/x.csv", rows=rows),
        "read_rows": dict(path="missing.csv"),
        "fit_slope": dict(rows=rows),
    }
    return table[name]


def _bad(arg):
    """(value, label its error must name): values of the wrong type (a bool
    is no integer or real number), and one out of range where the class has
    a range; a sequence gets one whose entry is its entry class's first bad
    value, and an empty one where it must not be empty."""
    kind, bound, label = arg.kind, arg.bound, arg.label
    if kind == "integer":
        return [(2.5, label), (True, label)] + ([] if bound is None else [(bound - 1, label)])
    if kind == "real":
        return [("1", label), (True, label)]
    if kind == "positive":
        return [("1", label), (True, label), (0.0, label)]
    if kind in ("instance", "callable", "path"):
        return [(3, label)]
    if kind == "sequence":
        return [(3, label), ([_bad(bound)[0][0]], label)] + ([([], label)] if arg.nonempty else [])
    if kind == "choice":
        return [(3, label), ("bogus", label)]
    if kind == "array":
        return [("abcd", label), ([[1.0], [1.0, 2.0]], label)]
    raise AssertionError(f"no bad values for the argument class {kind!r}")


def test_every_export_is_declared():
    # plain records are declared with no classes
    assert [name for name in stratmc.__all__ if name not in _ARGUMENTS] == []
    assert _ARGUMENTS["EstimateReport"] == {}


@pytest.mark.parametrize("name", sorted(_ARGUMENTS))
def test_declared_parameters_exist(name):
    params = inspect.signature(_resolve(name)).parameters
    assert set(_ARGUMENTS[name]) <= set(params), name


@pytest.mark.parametrize("name, param", [(name, param) for name in sorted(_ARGUMENTS)
                                         for param in _ARGUMENTS[name]])
def test_classed_argument_rejects_bad_values(name, param):
    call = Stream(0).offsets if name == "Stream.offsets" else _resolve(name)
    valid = _valid(name)
    for value, label in _bad(_ARGUMENTS[name][param]):
        with pytest.raises((StratError, TypeError, ValueError)) as info:
            call(**{**valid, param: value})
        assert label in str(info.value), (value, str(info.value))
        # raised by the package's own check, not by numpy or Python on its behalf
        assert Path(str(info.traceback[-1].path)).parent.name == "stratmc", value
