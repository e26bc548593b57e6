import math
import subprocess
import sys

import numpy as np
import pytest

from stratmc.errors import StratError
from stratmc.bench import (
    DISCARD_THRESHOLD,
    ExperimentConfig,
    Integrand,
    ResultRow,
    fit_slope,
    load_labelled_csv,
    logistic_marginal_likelihood,
    make_integrand,
    read_rows,
    run,
    test_function as product_family,
    wrapped_gaussian,
    write_rows,
)
from stratmc import cli


# ---------------------------------------------------------------------------
# built-in integrands

def test_family_s1():
    f = product_family(1)
    assert f.exact == 1.0
    assert np.allclose(f(np.array([[0.5]])), 0.5 * math.exp(0.5))


def test_family_s2():
    f = product_family(2)
    assert f.exact == pytest.approx(math.e - 2.0, rel=1e-14)
    pts = np.array([[0.3, 0.6]])
    assert f(pts)[0] == pytest.approx(0.6 * math.exp(0.18), rel=1e-12)


def test_family_s4():
    f = product_family(4)
    assert f.exact == pytest.approx(math.e - 8.0 / 3.0, rel=1e-13)


def test_family_exact_by_quadrature():
    # midpoint-rule oracle for s=2
    f = product_family(2)
    n = 512
    axis = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    assert f(pts).mean() == pytest.approx(f.exact, abs=1e-5)


def test_make_integrand_ids():
    assert make_integrand("fs", 2).name == "fs(2)"
    assert make_integrand("gauss", 1).vanishing
    assert make_integrand("poly2", 3).exact == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_integrand("nope", 1)
    with pytest.raises(ValueError):
        make_integrand("logistic", 2)   # dataset missing


# ---------------------------------------------------------------------------
# experiment loop

def _config(**kw):
    base = dict(
        integrand=product_family(1),
        variants=("haber1",),
        r_values=(1,),
        k_values=(4, 8, 16),
        replicates=20,
        seed=3,
        out=None,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_row_shape_and_monotone_trend():
    rows = run(_config(replicates=50))
    assert len(rows) == 3
    assert [r.k for r in rows] == [4, 8, 16]
    slope = fit_slope(rows)
    assert slope < -2.0  # decreasing in expectation at roughly n^-3


def test_run_discards_exact_cells():
    quad = make_integrand("poly2", 1)
    rows = run(_config(integrand=quad, variants=("hat",), r_values=(4,), k_values=(4, 8)))
    assert all(row.discarded for row in rows)
    assert all(row.rel_error <= DISCARD_THRESHOLD / quad.exact ** 2 for row in rows)


def test_run_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run(_config(out=str(out1)))
    run(_config(out=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_run_vanishing_uses_in_domain_counts():
    rows = run(_config(integrand=wrapped_gaussian(1), variants=("vanishing",),
                       r_values=(3,), k_values=(8,), replicates=10))
    assert rows[0].n_evals == pytest.approx(3 * 8, rel=0.25)


def test_run_rel_modes():
    f = product_family(2)   # exact = e - 2 != 1 so the modes differ
    squared = run(_config(integrand=f, rel_mode="squared"))[0].rel_error
    literal = run(_config(integrand=f, rel_mode="literal"))[0].rel_error
    assert squared == pytest.approx(literal / f.exact, rel=1e-12)


def test_run_validates_config():
    with pytest.raises(ValueError):
        _config(k_values=(8, 4))
    with pytest.raises(ValueError):
        _config(variants=("bogus",))
    with pytest.raises(ValueError):
        _config(replicates=1)


def test_run_rejects_zero_exact():
    zero = Integrand(name="zero", s=1, fn=lambda p: p[:, 0] - 0.5, exact=0.0)
    with pytest.raises(StratError, match="nonzero exact"):
        _config(integrand=zero)


def test_run_zero_mean_without_exact_value():
    # with no exact value the error is relative to the squared mean, which
    # is undefined when the estimates average exactly 0
    zero = Integrand(name="zero", s=1, fn=lambda p: np.zeros(len(p)))
    with pytest.raises(StratError, match=r"haber2 at r=2, k=4: .*supply the exact value"):
        run(_config(integrand=zero, variants=("haber2",)))


def test_run_literal_mode_negative_exact():
    # literal mode divides by |I|: the statistic stays a positive error, and
    # the slope fit keeps every row
    base = product_family(1)
    neg = Integrand(name="-fs(1)", s=1, fn=lambda p: -base.fn(p), exact=-base.exact)
    rows = run(_config(integrand=neg, rel_mode="literal", replicates=30))
    ref = run(_config(integrand=base, rel_mode="literal", replicates=30))
    assert [r.rel_error for r in rows] == [r.rel_error for r in ref]
    assert all(r.rel_error > 0.0 for r in rows)
    assert fit_slope(rows) == fit_slope(ref)


def test_csv_roundtrip(tmp_path):
    rows = run(_config())
    path = tmp_path / "rows.csv"
    write_rows(path, rows)
    back = read_rows(path)
    assert back == rows


# ---------------------------------------------------------------------------
# slope fitting

def test_fit_slope_synthetic_powerlaw():
    rows = [ResultRow("x", 1, k, float(k), float(k) ** -3, False, "x-r1")
            for k in (4, 8, 16, 32)]
    assert fit_slope(rows) == pytest.approx(-3.0, abs=1e-12)


def test_fit_slope_needs_rows():
    rows = [ResultRow("x", 1, 4, 4.0, 1e-40, True, "x-r1")] * 5
    with pytest.raises(StratError):
        fit_slope(rows)


def test_fit_slope_haber1():
    rows = run(_config(k_values=(4, 8, 16, 32, 64), replicates=50))
    assert fit_slope(rows) == pytest.approx(-3.0, abs=0.45)


# ---------------------------------------------------------------------------
# logistic workload

def _write_dataset(path, n_obs=40, seed=0, labels01=False):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n_obs, 2))
    logits = 0.3 + xs @ np.array([-0.8, 0.5])
    ys = (rng.random(n_obs) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    if not labels01:
        ys = 2 * ys - 1
    lines = ["y,x1,x2"] + [f"{y},{float(x[0])!r},{float(x[1])!r}" for y, x in zip(ys, xs)]
    path.write_text("\n".join(lines) + "\n")


def test_load_labelled_csv(tmp_path):
    path = tmp_path / "d.csv"
    _write_dataset(path, labels01=True)
    y, preds = load_labelled_csv(path)
    assert set(np.unique(y)) == {-1.0, 1.0}
    assert preds.shape == (40, 2)


def test_load_rejects_bad_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x\n2,0.5\n-1,0.3\n")
    with pytest.raises(StratError):
        load_labelled_csv(path)


def test_load_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x\n1,abc\n")
    with pytest.raises(StratError):
        load_labelled_csv(path)


def test_logistic_zero_observations_normalizes(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("y,x1\n")
    integ = logistic_marginal_likelihood(path, 2)
    from stratmc.lattice import GridSpec, Stream
    from stratmc.estimators import estimate_vanishing
    vals = np.array([
        estimate_vanishing(integ.fn, 2, GridSpec(2, 16, 1), Stream(0, rep)).value
        for rep in range(60)
    ])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 4 * se


def test_logistic_mode_search_stops_at_rounding_level(tmp_path):
    # on this dataset Newton reaches the finite-difference noise floor above
    # the default gradient tolerance; the fit must still succeed at the mode
    path = tmp_path / "d.csv"
    _write_dataset(path, n_obs=250, seed=0)
    integ = logistic_marginal_likelihood(path, 3)
    y, preds = load_labelled_csv(path)
    design = np.hstack([np.ones((len(y), 1)), preds])
    mode = integ.laplace_fit.mode
    grad = design.T @ (y / (1.0 + np.exp(y * (design @ mode)))) - mode / 5.0 ** 2
    assert np.max(np.abs(grad)) < 1e-6


def test_logistic_too_many_predictors(tmp_path):
    path = tmp_path / "d.csv"
    _write_dataset(path)
    with pytest.raises(StratError):
        logistic_marginal_likelihood(path, 5)


def test_logistic_agrees_with_prior_sampling_oracle(tmp_path):
    # independent crude-MC oracle: marginal likelihood = prior mean of the
    # likelihood, sampled directly from the Gaussian prior
    path = tmp_path / "d.csv"
    _write_dataset(path, n_obs=50, seed=4)
    y, preds = load_labelled_csv(path)
    design = np.hstack([np.ones((len(y), 1)), preds[:, :1]])

    integ = logistic_marginal_likelihood(path, 2)
    from stratmc.lattice import GridSpec, Stream
    from stratmc.estimators import estimate_vanishing
    vals = np.array([
        estimate_vanishing(integ.fn, 2, GridSpec(2, 24, 1), Stream(5, rep)).value
        for rep in range(50)
    ])
    est, est_se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))

    rng = np.random.default_rng(11)
    total, total_sq, big_n = 0.0, 0.0, 0
    for _ in range(4):
        beta = rng.normal(scale=5.0, size=(1_000_000, 2))
        z = y[None, :] * (beta @ design.T)
        lik = np.exp(-np.logaddexp(0.0, -z).sum(axis=1))
        total += lik.sum()
        total_sq += (lik ** 2).sum()
        big_n += len(lik)
    oracle = total / big_n
    oracle_se = math.sqrt((total_sq / big_n - oracle ** 2) / big_n)
    assert abs(est - oracle) <= 4 * math.hypot(est_se, oracle_se)


# ---------------------------------------------------------------------------
# CLI

def test_cli_run_and_slope(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = cli.main([
        "run", "--fn", "fs", "--dim", "1", "--variant", "haber1,hat",
        "--r", "3", "--k", "4,8,16,32", "--reps", "30", "--seed", "2",
        "--out", str(out),
    ])
    assert rc == 0
    rows = read_rows(out)
    groups = {row.slope_group for row in rows}
    assert groups == {"haber1-r1", "hat-r3"}
    rc = cli.main(["slope", "--input", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "haber1-r1" in printed and "hat-r3" in printed


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# ladder demo\n"
        "fn = fs\n"
        "dim = 1\n"
        "variant = haber1\n"
        "k = 4,8\n"
        "reps = 10\n"
        "seed = 7\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    # flag overrides the file: different k ladder
    assert cli.main(["run", "--config", str(cfg), "--k", "4,8,16", "--out", str(out2)]) == 0
    assert len(read_rows(out1)) == 2
    assert len(read_rows(out2)) == 3


def test_cli_orders(capsys):
    rc = cli.main(["orders", "--fn", "gauss", "--dim", "1", "--r", "3",
                   "--k", "16", "--reps", "4", "--seed", "1"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "selected" in printed


def test_cli_entrypoint_subprocess(tmp_path):
    out = tmp_path / "rows.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "stratmc.cli", "run", "--fn", "poly2", "--dim", "1",
         "--variant", "haber2", "--k", "4,8", "--reps", "5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_logistic_relvar_ordering(tmp_path):
    # for each order the relative variance falls with n, and the higher
    # order wins at the largest grid (possibly after a crossover)
    from stratmc.lattice import GridSpec, Stream, substream_id
    from stratmc.estimators import estimate_vanishing, vanishing_margin

    path = tmp_path / "d.csv"
    _write_dataset(path, n_obs=50, seed=4)
    integ = logistic_marginal_likelihood(path, 2)
    rel_var = {}
    for r in (1, 3):
        m = vanishing_margin(r)
        ladder = []
        for k in (8, 16, 32, 48):
            vals = np.array([
                estimate_vanishing(integ.fn, r, GridSpec(2, k, m),
                                   Stream(5, substream_id("lv", r, k, rep))).value
                for rep in range(30)
            ])
            ladder.append(float(np.var(vals, ddof=1) / np.mean(vals) ** 2))
        rel_var[r] = ladder
        assert ladder[-1] < ladder[0]  # decreasing with n
    assert rel_var[3][-1] < rel_var[1][-1]  # higher order wins at large n


def test_builtin_integrands_pooled_mean_sane():
    # pooled means over all replicates and grids stay within 5 standard
    # errors of the exact value for every built-in integrand; hat at r=3 is
    # exact for the quadratic, so there the spread is rounding noise and the
    # mean must match to a relative rounding floor instead
    from stratmc.lattice import Stream, substream_id

    for fn_id, dim in (("fs", 1), ("fs", 2), ("poly2", 1), ("gauss", 1)):
        integ = make_integrand(fn_id, dim)
        variant = "vanishing" if integ.vanishing else "hat"
        rows_cfg = ExperimentConfig(
            integrand=integ, variants=(variant,), r_values=(3,),
            k_values=(4, 8, 16), replicates=30, seed=13,
        )
        from stratmc.bench import _REGISTRY
        _order, runner = _REGISTRY[variant]
        vals = []
        for k in rows_cfg.k_values:
            for rep in range(rows_cfg.replicates):
                stream = Stream(13, substream_id(variant, 3, k, rep))
                vals.append(runner(integ, 3, k, stream).value)
        vals = np.array(vals)
        if fn_id == "poly2":
            assert abs(vals.mean() - integ.exact) <= 1e-11 * abs(integ.exact), fn_id
            continue
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - integ.exact) <= 5 * se, fn_id
