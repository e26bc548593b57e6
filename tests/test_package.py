import types
from pathlib import Path

import stratmc

README = Path(__file__).resolve().parent.parent / "README.md"
README_NAMES = (
    "crude_mc", "haber1", "haber2", "estimate_analytic_cv", "estimate_paired_cv",
    "estimate_single_cv", "estimate_vanishing", "variance_estimate", "pooled",
    "tail_bound", "error_constant", "select_order", "wrap", "laplace_reparametrize",
    "derivative_stencil", "derivative_grid", "GridSpec", "Stream",
)


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
