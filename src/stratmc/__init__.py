"""Unbiased higher-order Monte Carlo integration on the unit cube.

The estimators here stratify [0,1]^s into k^s congruent cells, spend a small
fixed number of evaluations per cell, and cancel the low-order Taylor
behaviour of the integrand inside each cell - either with finite-difference
control variates built on the cell centres, or (for boundary-vanishing
integrands) with a weighted combination of dilated evaluations.  For an
r-times continuously differentiable integrand the root-mean-square error
decays at the optimal rate n^(-1/2 - r/s), every run's error is bounded by a
computable constant times n^(-r/s), and polynomials of total degree < r are
integrated exactly.
"""

import types as _types

from .lattice import GridSpec, Stream
from .stencil import (
    DerivativeStencil,
    apply_stencil,
    derivative_grid,
    derivative_stencil,
    error_constant,
)
from .estimators import (
    EstimateReport,
    EstimatorConfig,
    asymptotic_variance_estimate,
    crude_mc,
    estimate_analytic_cv,
    estimate_paired_cv,
    estimate_single_cv,
    estimate_vanishing,
    haber1,
    haber2,
    shifted_stratum_mean,
    vanishing_margin,
)
from .replicate import ReplicateSummary, pooled, select_order, tail_bound, variance_estimate
from .transform import (
    LaplaceFit,
    VanishingIntegrand,
    jacobian_factor,
    laplace_reparametrize,
    psi,
    wrap,
)
from .bench import (
    ExperimentConfig,
    Integrand,
    ResultRow,
    fit_slope,
    logistic_marginal_likelihood,
    run,
    test_function,
    wrapped_gaussian,
)

__version__ = "0.1.0"

__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
