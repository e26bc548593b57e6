import functools
import importlib
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import stratmc
from stratmc.bench import (ExperimentConfig, Integrand, fit_slope, load_labelled_csv,
                           logistic_marginal_likelihood, make_integrand, run,
                           test_function as product_family, wrapped_gaussian)
from stratmc.errors import DomainError, OrderError, ResolutionError, StratError
from stratmc.estimators import (asymptotic_variance_estimate, crude_mc, estimate_analytic_cv,
                                estimate_paired_cv, haber1, shifted_stratum_mean,
                                vanishing_orders)
from stratmc.lattice import GridSpec, Stream, centre_array
from stratmc.replicate import pooled, select_order, tail_bound, variance_estimate
from stratmc.stencil import (apply_stencil, derivative_grid, derivative_stencil, error_constant,
                             multi_indices, univariate_weights)
from stratmc.transform import laplace_reparametrize, psi, wrap

README = Path(__file__).resolve().parent.parent / "README.md"
README_NAMES = (
    "crude_mc", "haber1", "haber2", "estimate_analytic_cv", "estimate_paired_cv",
    "estimate_single_cv", "estimate_vanishing", "variance_estimate", "pooled",
    "tail_bound", "error_constant", "select_order", "wrap", "laplace_reparametrize",
    "derivative_stencil", "derivative_grid", "GridSpec", "Stream",
)
# exported on purpose although the README does not name them: reference
# implementations that tests compare the fast paths against
ORACLES = ("apply_stencil", "shifted_stratum_mean")


def test_star_import_binds_no_module():
    namespace = {}
    exec("from stratmc import *", namespace)
    modules = [name for name, obj in namespace.items() if isinstance(obj, types.ModuleType)]
    assert modules == []
    assert set(stratmc.__all__) <= set(namespace)


def test_readme_functions_resolve():
    # every function the README's estimator table and library tour name is
    # exported by the package
    text = README.read_text()
    for name in README_NAMES:
        assert f"`{name}`" in text or f"{name}(" in text, name
        assert name in stratmc.__all__ and callable(getattr(stratmc, name)), name


def test_readme_library_tour_runs():
    # the first python block of the README, run as written
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert np.isfinite(namespace["report"].value)


def test_process_caches_are_declared():
    # every module-level lru_cache the package defines, each holding state
    # for the life of the process; a new one is declared here
    caches = []
    for info in pkgutil.iter_modules(stratmc.__path__):
        module = importlib.import_module(f"stratmc.{info.name}")
        for name, obj in vars(module).items():
            while obj is not None and getattr(obj, "__module__", None) == module.__name__:
                if isinstance(obj, functools._lru_cache_wrapper):
                    caches.append(f"{info.name}.{name}")
                    break
                obj = getattr(obj, "__wrapped__", None)
    assert sorted(caches) == ["estimators._plan", "lattice._grid_arrays",
                              "stencil._grid_tree"]


def test_exports_are_documented_or_oracles():
    # the package exports nothing by accident: each name is documented in
    # the README, in backticks as itself or as a call, or a named oracle
    text = README.read_text()
    undocumented = [name for name in stratmc.__all__
                    if name not in ORACLES and not re.search(rf"`{name}[`(]", text)]
    assert undocumented == []
    assert set(ORACLES) <= set(stratmc.__all__)


def _ladder(**fields):
    base = dict(integrand=product_family(1), variants=("hat",), r_values=(2,), k_values=(4, 8))
    return ExperimentConfig(**{**base, **fields})


def _saddle(b):
    return b[:, 0] ** 2 - b[:, 1] ** 2


def _bowl(b):
    return -np.sum(b * b, axis=1)


def _first(x):
    return x[:, 0]


def _never(x):
    raise AssertionError("the integrand was called")


# the text after the colon is numpy's LinAlgError
_NOT_PD = "curvature at the mode is not positive definite: Matrix is not positive definite"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: laplace_reparametrize(_saddle, [0.0, 0.0], scale="inv-hessian"),
                 StratError, _NOT_PD, id="laplace-saddle-inv-hessian"),
    pytest.param(lambda tmp: laplace_reparametrize(_saddle, [0.0, 0.0], scale="hessian"),
                 StratError, _NOT_PD, id="laplace-saddle-hessian"),
    pytest.param(lambda tmp: load_labelled_csv(tmp / "empty.csv"),
                 StratError, "{tmp}/empty.csv: empty file, expected a header row",
                 id="csv-empty-file"),
    pytest.param(lambda tmp: load_labelled_csv(tmp / "no-header.csv"),
                 StratError, "{tmp}/no-header.csv: header row is empty", id="csv-empty-header"),
    pytest.param(lambda tmp: crude_mc(lambda x: x[:, 0], 1, 0, Stream(0)),
                 ValueError, "n must be >= 1, got 0", id="crude-n-0"),
    pytest.param(lambda tmp: asymptotic_variance_estimate(lambda a, x: x[:, 0], 1, 2, 1),
                 ValueError, "budget must be >= 2, got 1", id="asymptotic-budget-1"),
    pytest.param(lambda tmp: list(multi_indices(2, -1)),
                 OrderError, "total order must be >= 0, got -1",
                 id="multi-indices-negative-total"),
    pytest.param(lambda tmp: tail_bound(0.1, -1.0, 2.0, 64, 2, 1),
                 DomainError, "need c_hat >= 0 and norm_r >= 0, got c_hat=-1.0, norm_r=2.0",
                 id="tail-bound-negative-c-hat"),
    pytest.param(lambda tmp: tail_bound(0.1, 1.0, -2.0, 64, 2, 1),
                 DomainError, "need c_hat >= 0 and norm_r >= 0, got c_hat=1.0, norm_r=-2.0",
                 id="tail-bound-negative-norm"),
    pytest.param(lambda tmp: error_constant(2, 3, family="bogus"),
                 ValueError, "unknown stencil family 'bogus'; choose from ('single', 'paired')",
                 id="error-constant-family"),
    # block mode: a known mode, side-r blocks on a margin-free grid with k >= r
    pytest.param(lambda tmp: derivative_stencil((1,), (2,), GridSpec(1, 8), 3, mode="bogus"),
                 ValueError, "unknown stencil mode 'bogus'; choose from ('free', 'block')",
                 id="stencil-mode-bogus"),
    pytest.param(lambda tmp: derivative_grid([1.0] * 8, [(1,)], GridSpec(1, 8), 3, mode="bogus"),
                 ValueError, "unknown stencil mode 'bogus'; choose from ('free', 'block')",
                 id="grid-mode-bogus"),
    pytest.param(lambda tmp: derivative_grid([1.0] * 36, [(1, 0)], GridSpec(2, 4, 1), 2,
                              mode="block"),
                 ValueError, "block mode needs a margin-free grid (m = 0), got m=1",
                 id="block-partition-margin"),
    pytest.param(lambda tmp: derivative_stencil((0,), (0,), GridSpec(1, 2), 3, mode="block"),
                 ResolutionError, "need k >= r, got k=2, r=3", id="block-partition-k-below-r"),
    pytest.param(lambda tmp: product_family(0),
                 ValueError, "dimension must be >= 1, got 0", id="product-family-dimension-0"),
    # every integer argument passes the one integer check, which names it
    pytest.param(lambda tmp: list(multi_indices(2.0, 2)),
                 TypeError, "dimension must be an integer, got 2.0",
                 id="multi-indices-dimension-int-float"),
    pytest.param(lambda tmp: list(multi_indices(2.5, 2)),
                 TypeError, "dimension must be an integer, got 2.5",
                 id="multi-indices-dimension-float"),
    pytest.param(lambda tmp: list(multi_indices(2, 2.0)),
                 TypeError, "total order must be an integer, got 2.0",
                 id="multi-indices-total-float"),
    pytest.param(lambda tmp: error_constant(1.5, 3),
                 TypeError, "dimension must be an integer, got 1.5",
                 id="error-constant-dimension-float"),
    pytest.param(lambda tmp: error_constant(1, 3.0),
                 TypeError, "order must be an integer, got 3.0", id="error-constant-order-float"),
    pytest.param(lambda tmp: univariate_weights((0, 1, 2), 1.0),
                 TypeError, "derivative order must be an integer, got 1.0",
                 id="univariate-weights-order-float"),
    pytest.param(lambda tmp: derivative_stencil((1,), (2,), GridSpec(1, 4), 2.0, mode="block"),
                 TypeError, "order must be an integer, got 2.0", id="block-partition-side-float"),
    pytest.param(lambda tmp: crude_mc(lambda x: x[:, 0], 2, 16.0, Stream(0)),
                 TypeError, "n must be an integer, got 16.0", id="crude-n-float"),
    pytest.param(lambda tmp: select_order(lambda x: x[:, 0], 2, GridSpec(1, 4), 2.0, Stream(0)),
                 TypeError, "l must be an integer, got 2.0", id="select-order-l-float"),
    pytest.param(lambda tmp: asymptotic_variance_estimate(lambda a, x: x[:, 0], 1, 2, budget=4.0),
                 TypeError, "budget must be an integer, got 4.0", id="asymptotic-budget-float"),
    pytest.param(lambda tmp: derivative_grid([1.0] * 4, [(1,)], GridSpec(1, 4), r=3.0),
                 TypeError, "order must be an integer, got 3.0", id="derivative-grid-order-float"),
    # a multi-index entry or a centre index is checked, not truncated, and
    # named by its position
    pytest.param(lambda tmp: derivative_grid([1.0] * 8, [(1.5,)], GridSpec(1, 8), 3),
                 TypeError,
                 "alpha[0]: multi-index[0]: derivative order must be an integer, got 1.5",
                 id="derivative-grid-alpha-float"),
    pytest.param(lambda tmp: derivative_stencil((1.9,), (2,), GridSpec(1, 8), 3),
                 TypeError, "multi-index[0]: derivative order must be an integer, got 1.9",
                 id="derivative-stencil-alpha-float"),
    pytest.param(lambda tmp: derivative_stencil((1,), (2.7,), GridSpec(1, 8), 3),
                 TypeError, "centre index[0]: index must be an integer, got 2.7",
                 id="derivative-stencil-centre-float"),
    # a 0-d array is no sequence
    pytest.param(lambda tmp: derivative_grid(np.zeros(8), np.array(3), GridSpec(1, 8), 3),
                 TypeError, "alpha must be a sequence, got array(3)", id="grid-alpha-0d"),
    pytest.param(lambda tmp: haber1(_first, GridSpec(1, 4), np.array(Stream(0), dtype=object)),
                 TypeError, "stream must be a Stream or a sequence of Streams, "
                 "got array(Stream(seed=0, replicate=0), dtype=object)", id="haber1-stream-0d"),
    # a bool is not an integer or a real number
    pytest.param(lambda tmp: GridSpec(True, 4),
                 TypeError, "GridSpec.s must be an integer, got True", id="grid-s-bool"),
    pytest.param(lambda tmp: estimate_paired_cv(_first, True, GridSpec(1, 4), Stream(0)),
                 TypeError, "order must be an integer, got True", id="paired-cv-order-bool"),
    pytest.param(lambda tmp: crude_mc(_first, 2, True, Stream(0)),
                 TypeError, "n must be an integer, got True", id="crude-n-bool"),
    pytest.param(lambda tmp: psi([0.5], True),
                 TypeError, "tau must be a real number, got True", id="psi-tau-bool"),
    # a flag is a bool: an array, a string, 1 or a numpy bool is named
    pytest.param(lambda tmp: haber1(_first, GridSpec(1, 4), Stream(0),
                                    keep_terms=np.array([1, 2])),
                 TypeError, "keep_terms must be a bool, got array([1, 2])",
                 id="haber1-keep-terms-array"),
    pytest.param(lambda tmp: crude_mc(_first, 1, 4, Stream(0), keep_terms="no"),
                 TypeError, "keep_terms must be a bool, got 'no'", id="crude-keep-terms-str"),
    pytest.param(lambda tmp: estimate_paired_cv(_first, 2, GridSpec(1, 4), Stream(0),
                                                keep_terms=1),
                 TypeError, "keep_terms must be a bool, got 1", id="paired-cv-keep-terms-int"),
    pytest.param(lambda tmp: estimate_analytic_cv(_first, _first, 2, GridSpec(1, 4), Stream(0),
                                                  keep_terms=np.True_),
                 TypeError, f"keep_terms must be a bool, got {np.True_!r}",
                 id="analytic-cv-keep-terms-numpy-bool"),
    pytest.param(lambda tmp: Integrand("x", 1, _first, vanishing="no"),
                 TypeError, "Integrand.vanishing must be a bool, got 'no'",
                 id="integrand-vanishing-str"),
    # the dilated mean takes one stream
    pytest.param(lambda tmp: shifted_stratum_mean(_first, 1, GridSpec(1, 4), [Stream(0)]),
                 TypeError, "stream must be a Stream, got [Stream(seed=0, replicate=0)]",
                 id="dilated-mean-stream-list"),
    # an integrand's exact value is a real number, checked when it is built
    pytest.param(lambda tmp: Integrand("x", 1, _first, exact=float("nan")),
                 ValueError, "Integrand.exact must be finite, got nan", id="integrand-exact-nan"),
    pytest.param(lambda tmp: Integrand("x", 1, _first, exact=float("-inf")),
                 ValueError, "Integrand.exact must be finite, got -inf", id="integrand-exact-inf"),
    pytest.param(lambda tmp: Integrand("x", 1, _first, exact="1"),
                 TypeError, "Integrand.exact must be a real number or None, got '1'",
                 id="integrand-exact-str"),
    # a malformed ladder fails when it is configured, naming the field
    pytest.param(lambda tmp: _ladder(replicates=3.0),
                 TypeError, "replicates must be an integer, got 3.0",
                 id="config-replicates-float"),
    pytest.param(lambda tmp: _ladder(seed=0.5),
                 TypeError, "seed must be an integer, got 0.5", id="config-seed-float"),
    pytest.param(lambda tmp: _ladder(k_values=(4.0, 8)),
                 TypeError, "k_values[0]: k must be an integer, got 4.0", id="config-k-float"),
    pytest.param(lambda tmp: _ladder(r_values=(2.0,)),
                 TypeError, "r_values[0]: r must be an integer, got 2.0", id="config-r-float"),
    pytest.param(lambda tmp: _ladder(variants=()),
                 ValueError, "variants must not be empty", id="config-no-variant"),
    pytest.param(lambda tmp: _ladder(k_values=()),
                 ValueError, "k_values must not be empty", id="config-no-k"),
    pytest.param(lambda tmp: _ladder(variants=("haber1", "hat"), r_values=()),
                 ValueError, "r_values must not be empty when a variant reads it",
                 id="config-no-r-for-hat"),
    pytest.param(lambda tmp: _ladder(variants=("hat", "tilde", "hat")),
                 ValueError, "variants must not repeat a value, got ('hat', 'tilde', 'hat')",
                 id="config-repeated-variant"),
    pytest.param(lambda tmp: _ladder(r_values=(2, 3, 2)),
                 ValueError, "r_values must not repeat a value, got (2, 3, 2)",
                 id="config-repeated-r"),
    pytest.param(lambda tmp: _ladder(variants=("haber1", "hat"), r_values=(0,)),
                 ValueError, "r_values[0]: r must be >= 1, got 0", id="config-r-0"),
    pytest.param(lambda tmp: _ladder(k_values=(0, 4)),
                 ValueError, "k_values[0]: k must be >= 1, got 0", id="config-k-0"),
    # an integrand checks its tail exponent, and takes a dataset only if it reads one
    pytest.param(lambda tmp: make_integrand("fs", 1, tau=0.0),
                 ValueError, "tau must be a finite number > 0, got 0.0", id="integrand-tau-0"),
    pytest.param(lambda tmp: make_integrand("poly2", 1, dataset="d.csv"),
                 ValueError, "only the logistic integrand reads --dataset, not 'poly2'",
                 id="integrand-dataset-not-logistic"),
    # every integrand constructor checks its dimension before it builds an array
    pytest.param(lambda tmp: product_family(2.0),
                 TypeError, "dimension must be an integer, got 2.0",
                 id="product-family-dimension-float"),
    pytest.param(lambda tmp: wrapped_gaussian(0),
                 ValueError, "dimension must be >= 1, got 0", id="gauss-dimension-0"),
    pytest.param(lambda tmp: wrap(_bowl, 0),
                 ValueError, "dimension must be >= 1, got 0", id="wrap-dimension-0"),
    pytest.param(lambda tmp: wrap(_bowl, 2.0),
                 TypeError, "dimension must be an integer, got 2.0", id="wrap-dimension-float"),
    pytest.param(lambda tmp: make_integrand("poly2", 0),
                 ValueError, "dimension must be >= 1, got 0", id="poly2-dimension-0"),
    pytest.param(lambda tmp: logistic_marginal_likelihood(tmp / "missing.csv", 0),
                 ValueError, "dimension must be >= 1, got 0", id="logistic-dimension-0"),
    # the mode search and the tail bound check their arguments before any work
    pytest.param(lambda tmp: laplace_reparametrize(_bowl, np.zeros(0), scale="hessian"),
                 ValueError, "mode_guess length must be >= 1, got 0",
                 id="laplace-empty-mode-guess"),
    pytest.param(lambda tmp: laplace_reparametrize(_bowl, np.zeros((1, 2)), scale="hessian"),
                 ValueError, "mode_guess must be 1-D, got shape (1, 2)",
                 id="laplace-2d-mode-guess"),
    pytest.param(lambda tmp: laplace_reparametrize(_bowl, 0.0, scale="hessian"),
                 ValueError, "mode_guess must be 1-D, got shape ()",
                 id="laplace-scalar-mode-guess"),
    pytest.param(lambda tmp: laplace_reparametrize(_bowl, np.zeros(2), scale="hessian",
                              grad_tol=np.nan),
                 ValueError, "grad_tol must be a finite number > 0, got nan",
                 id="laplace-grad-tol-nan"),
    pytest.param(lambda tmp: tail_bound(0.1, 1.0, 1.0, 10, 2.5, 1),
                 TypeError, "order must be an integer, got 2.5", id="tail-bound-order-float"),
    pytest.param(lambda tmp: tail_bound(0.1, 1.0, 1.0, 10, 0, 1),
                 OrderError, "order must be >= 1, got 0", id="tail-bound-order-0"),
    pytest.param(lambda tmp: tail_bound(0.1, 1.0, 1.0, 10, -1, 1),
                 OrderError, "order must be >= 1, got -1", id="tail-bound-order-negative"),
    # a grid or a stream of the wrong type is named where it is first read
    pytest.param(lambda tmp: haber1(_first, (2, 4), Stream(0)),
                 TypeError, "grid must be a GridSpec, got (2, 4)", id="haber1-grid-tuple"),
    pytest.param(lambda tmp: haber1(_first, GridSpec(2, 4), 3),
                 TypeError, "stream must be a Stream or a sequence of Streams, got 3",
                 id="haber1-stream-int"),
    pytest.param(lambda tmp: haber1(_first, Stream(0), GridSpec(2, 4)),
                 TypeError, "grid must be a GridSpec, got Stream(seed=0, replicate=0)",
                 id="haber1-swapped-grid-and-stream"),
    pytest.param(lambda tmp: select_order(_first, 2, GridSpec(2, 4, 0), 2, 0),
                 TypeError, "stream must be a Stream, got 0", id="select-order-stream-int"),
    pytest.param(lambda tmp: select_order(_first, 2, (2, 4, 0), 2, Stream(0)),
                 TypeError, "grid must be a GridSpec, got (2, 4, 0)",
                 id="select-order-grid-tuple"),
    pytest.param(lambda tmp: derivative_stencil((1,), (2,), (1, 8), 3),
                 TypeError, "grid must be a GridSpec, got (1, 8)",
                 id="derivative-stencil-grid-tuple"),
    pytest.param(lambda tmp: derivative_grid([1.0] * 8, [(1,)], [1, 8], 3),
                 TypeError, "grid must be a GridSpec, got [1, 8]", id="derivative-grid-grid-list"),
    pytest.param(lambda tmp: derivative_grid([1.0] * 8, [], (1, 8), 3),
                 TypeError, "grid must be a GridSpec, got (1, 8)",
                 id="derivative-grid-no-alpha-grid-tuple"),
    # a tail exponent or a tolerance that is not a number is named
    pytest.param(lambda tmp: psi(0.5, "a"),
                 TypeError, "tau must be a real number, got 'a'", id="psi-tau-str"),
    pytest.param(lambda tmp: wrap(_bowl, 2, tau=None),
                 TypeError, "tau must be a real number, got None", id="wrap-tau-none"),
    pytest.param(lambda tmp: laplace_reparametrize(_bowl, np.zeros(2), scale="hessian", tau="x"),
                 TypeError, "tau must be a real number, got 'x'", id="laplace-tau-str"),
    pytest.param(lambda tmp: laplace_reparametrize(_bowl, np.zeros(2), scale="hessian",
                              grad_tol="1e-6"),
                 TypeError, "grad_tol must be a real number, got '1e-6'",
                 id="laplace-grad-tol-str"),
    # vanishing_orders names streams that are not a sequence before f is called
    pytest.param(lambda tmp: vanishing_orders(_never, 2, GridSpec(2, 4, 0), 3),
                 TypeError, "streams must be a sequence, got 3",
                 id="vanishing-orders-streams-int"),
    pytest.param(lambda tmp: vanishing_orders(_never, 2, GridSpec(2, 4, 0), Stream(0)),
                 TypeError,
                 "streams must be a sequence, got Stream(seed=0, replicate=0)",
                 id="vanishing-orders-single-stream"),
    pytest.param(lambda tmp: vanishing_orders(_never, 2, GridSpec(2, 4, 0), [Stream(0), 3]),
                 TypeError, "streams[1]: stream must be a Stream, got 3",
                 id="vanishing-orders-stream-entry-int"),
    # the tail bound's real arguments pass the one real-number check
    pytest.param(lambda tmp: tail_bound(0.1, "1", 1.0, 10, 2, 1),
                 TypeError, "c_hat must be a real number, got '1'", id="tail-bound-c-hat-str"),
    pytest.param(lambda tmp: tail_bound("0.1", 1.0, 1.0, 10, 2, 1),
                 TypeError, "delta must be a real number, got '0.1'", id="tail-bound-delta-str"),
    pytest.param(lambda tmp: tail_bound(0.1, 1.0, None, 10, 2, 1),
                 TypeError, "norm_r must be a real number, got None", id="tail-bound-norm-none"),
    # a report list, stencil nodes or values, a dimension: named by their class
    pytest.param(lambda tmp: variance_estimate(3),
                 TypeError, "reports must be a sequence, got 3",
                 id="variance-estimate-reports-int"),
    pytest.param(lambda tmp: pooled("ab"),
                 TypeError, "reports must be a sequence, got 'ab'",
                 id="pooled-reports-str"),
    pytest.param(lambda tmp: univariate_weights(3, 1),
                 TypeError, "stencil nodes must be a sequence, got 3",
                 id="univariate-weights-nodes-int"),
    pytest.param(lambda tmp: derivative_grid("abcd", [(1,)], GridSpec(1, 4), 2),
                 TypeError, "fvals must be an array of real numbers, got dtype <U4",
                 id="derivative-grid-fvals-str"),
    pytest.param(lambda tmp: crude_mc(_first, 2.0, 4, Stream(0)),
                 TypeError, "dimension must be an integer, got 2.0", id="crude-dimension-float"),
    # a callable, a stencil, a mapping, rows, a configuration and a grid
    pytest.param(lambda tmp: estimate_analytic_cv(_first, None, 3, GridSpec(1, 4), Stream(0)),
                 TypeError, "derivative oracle must be callable, got None",
                 id="analytic-cv-oracle-none"),
    pytest.param(lambda tmp: haber1(3, GridSpec(2, 4), Stream(0)),
                 TypeError, "integrand must be callable, got 3", id="haber1-integrand-int"),
    pytest.param(lambda tmp: apply_stencil(3, {}),
                 TypeError, "stencil must be a DerivativeStencil, got 3",
                 id="apply-stencil-stencil-int"),
    pytest.param(lambda tmp: apply_stencil(derivative_stencil((1,), (2,), GridSpec(1, 8), 3), 3),
                 TypeError, "values must be a Mapping, got 3", id="apply-stencil-values-int"),
    pytest.param(lambda tmp: fit_slope(3),
                 TypeError, "rows must be a sequence, got 3",
                 id="fit-slope-rows-int"),
    pytest.param(lambda tmp: run(3),
                 TypeError, "config must be an ExperimentConfig, got 3", id="run-config-int"),
    pytest.param(lambda tmp: Stream(0).offsets((2, 4)),
                 TypeError, "grid must be a GridSpec, got (2, 4)", id="offsets-grid-tuple"),
    pytest.param(lambda tmp: centre_array((2, 4)),
                 TypeError, "grid must be a GridSpec, got (2, 4)", id="centre-array-grid-tuple"),
    # every argument is checked before the dataset is read
    pytest.param(lambda tmp: logistic_marginal_likelihood(tmp / "missing.csv", 2, tau=0),
                 ValueError, "tau must be a finite number > 0, got 0", id="logistic-tau-0"),
])
def test_typed_errors(call, error, message, tmp_path):
    # each raise is reachable, with its exact type and message
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "no-header.csv").write_text("\n1,2\n")
    with pytest.raises(Exception) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(tmp=tmp_path)
    # raised by the package itself, not by numpy or Python on its behalf
    assert Path(str(info.traceback[-1].path)).parent.name == "stratmc"
