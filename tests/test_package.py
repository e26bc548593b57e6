import re
import types
from pathlib import Path

import numpy as np
import pytest

import stratmc
from stratmc.bench import (ExperimentConfig, load_labelled_csv, logistic_marginal_likelihood,
                           make_integrand, test_function as product_family, wrapped_gaussian)
from stratmc.errors import DomainError, OrderError, ResolutionError, StratError
from stratmc.estimators import (asymptotic_variance_estimate, crude_mc, haber1, offset_moment,
                                vanishing_orders)
from stratmc.lattice import GridSpec, Stream
from stratmc.replicate import select_order, tail_bound
from stratmc.stencil import (derivative_grid, derivative_stencil, error_constant, multi_indices,
                             univariate_weights)
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
    (lambda tmp: laplace_reparametrize(_saddle, [0.0, 0.0], scale="inv-hessian"),
     StratError, _NOT_PD),
    (lambda tmp: laplace_reparametrize(_saddle, [0.0, 0.0], scale="hessian"),
     StratError, _NOT_PD),
    (lambda tmp: load_labelled_csv(tmp / "empty.csv"),
     StratError, "{tmp}/empty.csv: empty file, expected a header row"),
    (lambda tmp: load_labelled_csv(tmp / "no-header.csv"),
     StratError, "{tmp}/no-header.csv: header row is empty"),
    (lambda tmp: crude_mc(lambda x: x[:, 0], 1, 0, Stream(0)),
     ValueError, "need n >= 1, got 0"),
    (lambda tmp: asymptotic_variance_estimate(lambda a, x: x[:, 0], 1, 2, 1),
     ValueError, "need budget >= 2, got 1"),
    (lambda tmp: offset_moment(-1, 2), ValueError, "moment order must be >= 0, got -1"),
    (lambda tmp: offset_moment(2, 0), ValueError, "resolution must be >= 1, got 0"),
    (lambda tmp: offset_moment(2.5, 4), TypeError, "moment order must be an integer, got 2.5"),
    (lambda tmp: offset_moment(2, 4.5), TypeError, "resolution must be an integer, got 4.5"),
    (lambda tmp: list(multi_indices(2, -1)), OrderError, "total order must be >= 0, got -1"),
    (lambda tmp: tail_bound(0.1, -1.0, 2.0, 64, 2, 1),
     DomainError, "need c_hat >= 0 and norm_r >= 0, got c_hat=-1.0, norm_r=2.0"),
    (lambda tmp: tail_bound(0.1, 1.0, -2.0, 64, 2, 1),
     DomainError, "need c_hat >= 0 and norm_r >= 0, got c_hat=1.0, norm_r=-2.0"),
    (lambda tmp: error_constant(2, 3, family="bogus"),
     ValueError, "unknown stencil family 'bogus'"),
    # block mode: a known mode, side-r blocks on a margin-free grid with k >= r
    (lambda tmp: derivative_stencil((1,), (2,), GridSpec(1, 8), 3, mode="bogus"),
     ValueError, "unknown stencil mode 'bogus'"),
    (lambda tmp: derivative_grid([1.0] * 8, (1,), GridSpec(1, 8), 3, mode="bogus"),
     ValueError, "unknown stencil mode 'bogus'"),
    (lambda tmp: derivative_grid([1.0] * 36, (1, 0), GridSpec(2, 4, 1), 2, mode="block"),
     ValueError, "block mode needs a margin-free grid (m = 0), got m=1"),
    (lambda tmp: derivative_stencil((0,), (0,), GridSpec(1, 2), 3, mode="block"),
     ResolutionError, "need k >= r, got k=2, r=3"),
    (lambda tmp: product_family(0), ValueError, "dimension must be >= 1, got 0"),
    # every integer argument passes the one integer check, which names it
    (lambda tmp: list(multi_indices(2.0, 2)), TypeError, "dimension must be an integer, got 2.0"),
    (lambda tmp: list(multi_indices(2.5, 2)), TypeError, "dimension must be an integer, got 2.5"),
    (lambda tmp: list(multi_indices(2, 2.0)), TypeError,
     "total order must be an integer, got 2.0"),
    (lambda tmp: error_constant(1.5, 3), TypeError, "dimension must be an integer, got 1.5"),
    (lambda tmp: error_constant(1, 3.0), TypeError, "order must be an integer, got 3.0"),
    (lambda tmp: univariate_weights((0, 1, 2), 1.0), TypeError,
     "derivative order must be an integer, got 1.0"),
    (lambda tmp: derivative_stencil((1,), (2,), GridSpec(1, 4), 2.0, mode="block"), TypeError,
     "order must be an integer, got 2.0"),
    (lambda tmp: crude_mc(lambda x: x[:, 0], 2, 16.0, Stream(0)), TypeError,
     "n must be an integer, got 16.0"),
    (lambda tmp: select_order(lambda x: x[:, 0], 2, GridSpec(1, 4), 2.0, Stream(0)), TypeError,
     "l must be an integer, got 2.0"),
    (lambda tmp: asymptotic_variance_estimate(lambda a, x: x[:, 0], 1, 2, budget=4.0),
     TypeError, "budget must be an integer, got 4.0"),
    (lambda tmp: derivative_grid([1.0] * 4, (1,), GridSpec(1, 4), r=3.0), TypeError,
     "order must be an integer, got 3.0"),
    # a multi-index entry or a centre index is checked, not truncated
    (lambda tmp: derivative_grid([1.0] * 8, (1.5,), GridSpec(1, 8), 3), TypeError,
     "multi-index entry must be an integer, got 1.5"),
    (lambda tmp: derivative_stencil((1.9,), (2,), GridSpec(1, 8), 3), TypeError,
     "multi-index entry must be an integer, got 1.9"),
    (lambda tmp: derivative_stencil((1,), (2.7,), GridSpec(1, 8), 3), TypeError,
     "centre index must be an integer, got 2.7"),
    # a malformed ladder fails when it is configured, naming the field
    (lambda tmp: _ladder(replicates=3.0), TypeError, "replicates must be an integer, got 3.0"),
    (lambda tmp: _ladder(seed=0.5), TypeError, "seed must be an integer, got 0.5"),
    (lambda tmp: _ladder(k_values=(4.0, 8)), TypeError,
     "k_values entry must be an integer, got 4.0"),
    (lambda tmp: _ladder(r_values=(2.0,)), TypeError,
     "r_values entry must be an integer, got 2.0"),
    (lambda tmp: _ladder(variants=()), ValueError, "variants must not be empty"),
    (lambda tmp: _ladder(k_values=()), ValueError, "k_values must not be empty"),
    (lambda tmp: _ladder(variants=("haber1", "hat"), r_values=()), ValueError,
     "r_values must not be empty when a variant reads it"),
    (lambda tmp: _ladder(variants=("hat", "tilde", "hat")), ValueError,
     "variants must not repeat a value, got ('hat', 'tilde', 'hat')"),
    (lambda tmp: _ladder(r_values=(2, 3, 2)), ValueError,
     "r_values must not repeat a value, got (2, 3, 2)"),
    (lambda tmp: _ladder(variants=("haber1", "hat"), r_values=(0,)), ValueError,
     "r_values entry must be >= 1, got 0"),
    (lambda tmp: _ladder(k_values=(0, 4)), ValueError, "k_values entry must be >= 1, got 0"),
    # an integrand checks its tail exponent, and takes a dataset only if it reads one
    (lambda tmp: make_integrand("fs", 1, tau=0.0), ValueError,
     "tau must be a finite number > 0, got 0.0"),
    (lambda tmp: make_integrand("poly2", 1, dataset="d.csv"), ValueError,
     "only the logistic integrand reads --dataset, not 'poly2'"),
    # every integrand constructor checks its dimension before it builds an array
    (lambda tmp: product_family(2.0), TypeError, "dimension must be an integer, got 2.0"),
    (lambda tmp: wrapped_gaussian(0), ValueError, "dimension must be >= 1, got 0"),
    (lambda tmp: wrap(_bowl, 0), ValueError, "dimension must be >= 1, got 0"),
    (lambda tmp: wrap(_bowl, 2.0), TypeError, "dimension must be an integer, got 2.0"),
    (lambda tmp: make_integrand("poly2", 0), ValueError, "dimension must be >= 1, got 0"),
    (lambda tmp: logistic_marginal_likelihood(tmp / "missing.csv", 0), ValueError,
     "dimension must be >= 1, got 0"),
    # the mode search and the tail bound check their arguments before any work
    (lambda tmp: laplace_reparametrize(_bowl, np.zeros(0), scale="hessian"), ValueError,
     "mode_guess length must be >= 1, got 0"),
    (lambda tmp: laplace_reparametrize(_bowl, np.zeros((1, 2)), scale="hessian"), ValueError,
     "mode_guess must be 1-D, got shape (1, 2)"),
    (lambda tmp: laplace_reparametrize(_bowl, 0.0, scale="hessian"), ValueError,
     "mode_guess must be 1-D, got shape ()"),
    (lambda tmp: laplace_reparametrize(_bowl, np.zeros(2), scale="hessian", grad_tol=np.nan),
     ValueError, "grad_tol must be a finite number > 0, got nan"),
    (lambda tmp: tail_bound(0.1, 1.0, 1.0, 10, 2.5, 1), TypeError,
     "order must be an integer, got 2.5"),
    (lambda tmp: tail_bound(0.1, 1.0, 1.0, 10, 0, 1), OrderError, "order must be >= 1, got 0"),
    (lambda tmp: tail_bound(0.1, 1.0, 1.0, 10, -1, 1), OrderError, "order must be >= 1, got -1"),
    # a grid or a stream of the wrong type is named where it is first read
    (lambda tmp: haber1(_first, (2, 4), Stream(0)), TypeError,
     "grid must be a GridSpec, got (2, 4)"),
    (lambda tmp: haber1(_first, GridSpec(2, 4), 3), TypeError,
     "stream must be a Stream or a sequence of Streams, got 3"),
    (lambda tmp: haber1(_first, Stream(0), GridSpec(2, 4)), TypeError,
     "grid must be a GridSpec, got Stream(seed=0, replicate=0)"),
    (lambda tmp: select_order(_first, 2, GridSpec(2, 4, 0), 2, 0), TypeError,
     "stream must be a Stream, got 0"),
    (lambda tmp: select_order(_first, 2, (2, 4, 0), 2, Stream(0)), TypeError,
     "grid must be a GridSpec, got (2, 4, 0)"),
    (lambda tmp: derivative_stencil((1,), (2,), (1, 8), 3), TypeError,
     "grid must be a GridSpec, got (1, 8)"),
    (lambda tmp: derivative_grid([1.0] * 8, (1,), [1, 8], 3), TypeError,
     "grid must be a GridSpec, got [1, 8]"),
    (lambda tmp: derivative_grid([1.0] * 8, [], (1, 8), 3), TypeError,
     "grid must be a GridSpec, got (1, 8)"),
    # a tail exponent or a tolerance that is not a number is named
    (lambda tmp: psi(0.5, "a"), TypeError, "tau must be a real number, got 'a'"),
    (lambda tmp: wrap(_bowl, 2, tau=None), TypeError, "tau must be a real number, got None"),
    (lambda tmp: laplace_reparametrize(_bowl, np.zeros(2), scale="hessian", tau="x"), TypeError,
     "tau must be a real number, got 'x'"),
    (lambda tmp: laplace_reparametrize(_bowl, np.zeros(2), scale="hessian", grad_tol="1e-6"),
     TypeError, "grad_tol must be a real number, got '1e-6'"),
    # vanishing_orders names streams that are not a sequence before f is called
    (lambda tmp: vanishing_orders(_never, 2, GridSpec(2, 4, 0), 3), TypeError,
     "streams must be a sequence of Streams, got 3"),
    (lambda tmp: vanishing_orders(_never, 2, GridSpec(2, 4, 0), Stream(0)), TypeError,
     "streams must be a sequence of Streams, got Stream(seed=0, replicate=0)"),
    (lambda tmp: vanishing_orders(_never, 2, GridSpec(2, 4, 0), [Stream(0), 3]), TypeError,
     "stream 1 of the sequence is not a Stream: 3"),
    # the tail bound's real arguments pass the one real-number check
    (lambda tmp: tail_bound(0.1, "1", 1.0, 10, 2, 1), TypeError,
     "c_hat must be a real number, got '1'"),
    (lambda tmp: tail_bound("0.1", 1.0, 1.0, 10, 2, 1), TypeError,
     "delta must be a real number, got '0.1'"),
    (lambda tmp: tail_bound(0.1, 1.0, None, 10, 2, 1), TypeError,
     "norm_r must be a real number, got None"),
], ids=["laplace-saddle-inv-hessian", "laplace-saddle-hessian", "csv-empty-file",
        "csv-empty-header", "crude-n-0", "asymptotic-budget-1", "moment-order-negative",
        "moment-resolution-0", "moment-order-float", "moment-resolution-float",
        "multi-indices-negative-total", "tail-bound-negative-c-hat", "tail-bound-negative-norm",
        "error-constant-family", "stencil-mode-bogus", "grid-mode-bogus",
        "block-partition-margin", "block-partition-k-below-r",
        "product-family-dimension-0", "multi-indices-dimension-int-float",
        "multi-indices-dimension-float", "multi-indices-total-float",
        "error-constant-dimension-float", "error-constant-order-float",
        "univariate-weights-order-float", "block-partition-side-float", "crude-n-float",
        "select-order-l-float", "asymptotic-budget-float", "derivative-grid-order-float",
        "derivative-grid-alpha-float", "derivative-stencil-alpha-float",
        "derivative-stencil-centre-float", "config-replicates-float", "config-seed-float",
        "config-k-float", "config-r-float", "config-no-variant", "config-no-k",
        "config-no-r-for-hat", "config-repeated-variant", "config-repeated-r", "config-r-0",
        "config-k-0", "integrand-tau-0", "integrand-dataset-not-logistic",
        "product-family-dimension-float", "gauss-dimension-0", "wrap-dimension-0",
        "wrap-dimension-float", "poly2-dimension-0", "logistic-dimension-0",
        "laplace-empty-mode-guess", "laplace-2d-mode-guess", "laplace-scalar-mode-guess",
        "laplace-grad-tol-nan", "tail-bound-order-float",
        "tail-bound-order-0", "tail-bound-order-negative", "haber1-grid-tuple",
        "haber1-stream-int", "haber1-swapped-grid-and-stream", "select-order-stream-int",
        "select-order-grid-tuple", "derivative-stencil-grid-tuple", "derivative-grid-grid-list",
        "derivative-grid-no-alpha-grid-tuple", "psi-tau-str", "wrap-tau-none",
        "laplace-tau-str", "laplace-grad-tol-str", "vanishing-orders-streams-int",
        "vanishing-orders-single-stream", "vanishing-orders-stream-entry-int",
        "tail-bound-c-hat-str", "tail-bound-delta-str", "tail-bound-norm-none"])
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
