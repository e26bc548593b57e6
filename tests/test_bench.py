import math
import re
import subprocess
import sys

import numpy as np
import pytest

from stratmc.errors import StratError
from stratmc.bench import (
    CSV_COLUMNS,
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
    write_rows(out1, run(_config()))
    write_rows(out2, run(_config()))
    assert out1.read_bytes() == out2.read_bytes()


def test_run_vanishing_uses_in_domain_counts():
    rows = run(_config(integrand=wrapped_gaussian(1), variants=("vanishing",),
                       r_values=(3,), k_values=(8,), replicates=10))
    assert rows[0].n_evals == pytest.approx(3 * 8, rel=0.25)


def test_run_validates_config():
    with pytest.raises(ValueError):
        _config(k_values=(8, 4))
    with pytest.raises(ValueError):
        _config(variants=("bogus",))
    with pytest.raises(ValueError):
        _config(replicates=1)
    # r_values may be empty when no variant reads it
    assert _config(variants=("haber1", "crude"), r_values=()).r_values == ()


def test_run_rejects_star_without_derivative_oracle():
    # the ladder has no 'star' variant (estimate_analytic_cv is a library
    # estimator): the config fails before any variant runs, so the integrand
    # is never called
    calls = []
    f = Integrand(name="fs(1)", s=1, fn=lambda p: calls.append(len(p)) or p[:, 0])
    with pytest.raises(ValueError, match=r"^unknown variant 'star'"):
        _config(integrand=f, variants=("haber1", "star"))
    assert not calls


@pytest.mark.parametrize("build, name", [
    (lambda: _config(rel_mode="squared"), "rel_mode"),
    (lambda: Integrand(name="exp", s=1, fn=np.exp, derivative=lambda alpha, p: np.exp(p)),
     "derivative"),
], ids=["config-rel-mode", "integrand-derivative"])
def test_removed_settings_are_unknown_keywords(build, name):
    # the relative error has one definition and the ladder no oracle variant
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        build()


def test_run_opens_the_output_file_before_the_first_cell(tmp_path, capsys, monkeypatch):
    # `stratmc run` writes the CSV after the last cell but opens it before the
    # first: a missing folder, a file in its place or a folder as the file
    # fails with the error opening the file raises, as one usage-error line,
    # and no cell runs
    calls = []
    f = Integrand(name="fs(1)", s=1, fn=lambda p: calls.append(len(p)) or p[:, 0])
    monkeypatch.setattr(cli, "make_integrand", lambda *args, **kw: f)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    for path, error in ((tmp_path / "missing" / "x.csv", FileNotFoundError),
                        (tmp_path / "file" / "x.csv", NotADirectoryError),
                        (tmp_path / "dir", IsADirectoryError)):
        assert cli.main(["run", "--k", "4,8", "--reps", "2", "--out", str(path)]) == 2
        with pytest.raises(error) as opened:
            open(path, "w")
        assert capsys.readouterr().err == f"stratmc: error: {opened.value}\n"
    assert not calls
    assert not (tmp_path / "missing").exists()
    # a rejected configuration leaves --out untouched
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    assert cli.main(["run", "--k", "8,4", "--out", str(kept)]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert kept.read_text() == "old\n" and not calls
    # a file that is there keeps its content while the cells run
    zero_mean = Integrand(name="odd", s=1, fn=lambda p: p[:, 0] - 0.5, exact=None)
    monkeypatch.setattr(cli, "make_integrand", lambda *args, **kw: zero_mean)
    assert cli.main(["run", "--variant", "haber2", "--k", "4,8,16", "--reps", "20",
                     "--seed", "3", "--out", str(kept)]) == 2
    assert "average 0" in capsys.readouterr().err
    assert kept.read_text() == "old\n"


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


def _scaled_gaussian(exact: bool) -> Integrand:
    # 3 x the wrapped Gaussian: its exact value 3 makes the division by I^2
    # show, and the vanishing variant's in-domain counts vary between replicates
    g = wrapped_gaussian(1)
    return Integrand(name="3 gauss(1)", s=1, fn=lambda p: 3.0 * g.fn(p),
                     exact=3.0 if exact else None, vanishing=True)


@pytest.mark.parametrize("replicates", [2, 7, 8, 9, 129])
# the statistic is a squared relative error, against I or against the mean
@pytest.mark.parametrize("exact", [True, False], ids=["True-squared", "False-squared"])
def test_run_statistics_equal_per_cell_reference(replicates, exact):
    # the (cells, replicates) reductions against one cell at a time, summed
    # as numpy sums a 1-D array; 7, 8, 9 and 129 replicates cross the
    # 8-element and 128-element blocks of its pairwise summation
    from stratmc.bench import _REGISTRY
    from stratmc.lattice import Stream, substream_id

    f = _scaled_gaussian(exact)
    config = _config(integrand=f, variants=("haber1", "vanishing"), r_values=(3,),
                     k_values=(4, 8), replicates=replicates)
    want = []
    for variant in config.variants:
        order, runner = _REGISTRY[variant]
        r = order or 3
        for k in config.k_values:
            streams = [Stream(config.seed, substream_id(variant, r, k, rep))
                       for rep in range(replicates)]
            reports = runner(f, r, k, streams)
            values = np.array([report.value for report in reports])
            n_evals = np.array([report.n_in_domain for report in reports], dtype=float)
            if exact:
                stat = float(np.mean((values - f.exact) ** 2))
                denom = f.exact ** 2
            else:
                stat = float(np.var(values, ddof=1))
                denom = float(np.mean(values)) ** 2
            want.append((variant, r, k, float(np.mean(n_evals)).hex(), (stat / denom).hex(),
                         stat <= DISCARD_THRESHOLD, f"{variant}-r{r}"))
    got = [(row.variant, row.r, row.k, row.n_evals.hex(), row.rel_error.hex(), row.discarded,
            row.slope_group) for row in run(config)]
    assert got == want
    assert len({row[3] for row in got if row[0] == "vanishing"}) == 2


def test_run_zero_mean_cell_raises_after_every_cell():
    # f averages 0 on the 16-point batches of k = 4 only: both k = 4 cells are
    # undefined, every cell still runs, and the error names the first in row order
    calls = []

    def fn(p):
        calls.append(len(p))
        return np.zeros(len(p)) if len(p) == 16 else np.ones(len(p))

    f = Integrand(name="step", s=2, fn=fn)
    with pytest.raises(StratError, match=r"^step: haber1 at r=1, k=4: the estimates average 0"):
        run(_config(integrand=f, variants=("haber1", "haber2"), k_values=(2, 4), replicates=3))
    # haber1 calls f once per replicate, haber2 twice
    assert calls == [4] * 3 + [16] * 3 + [4] * 6 + [16] * 6


def test_run_negative_exact():
    # MSE / I^2 does not see the sign of I: the statistic stays a positive
    # error, equal to f's own, and the slope fit keeps every row
    base = product_family(1)
    neg = Integrand(name="-fs(1)", s=1, fn=lambda p: -base.fn(p), exact=-base.exact)
    rows = run(_config(integrand=neg, replicates=30))
    ref = run(_config(integrand=base, replicates=30))
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


def test_load_rejects_ragged_rows(tmp_path):
    # rows of unequal length are reported as ragged, naming the short line
    path = tmp_path / "ragged.csv"
    path.write_text("y,x1,x2\n1,0.5,0.2\n0,0.1\n")
    with pytest.raises(StratError, match=r"ragged\.csv:3: ragged row: 2 cells under a 3-column"):
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
    # independent oracle: marginal likelihood = prior mean of the likelihood,
    # by a midpoint tensor rule over the prior on [-20, 20]^2 (4 prior sds);
    # the integrand is smooth and its mass sits within a few posterior sds of
    # the mode, so the rule is converged to about 1e-15 relative at spacing
    # 0.1 and a wider box or a finer spacing does not move it at that level
    path = tmp_path / "d.csv"
    _write_dataset(path, n_obs=50, seed=4)
    y, preds = load_labelled_csv(path)
    design = np.hstack([np.ones((len(y), 1)), preds[:, :1]])

    integ = logistic_marginal_likelihood(path, 2)
    from stratmc.lattice import GridSpec, Stream
    from stratmc.estimators import estimate_vanishing
    reports = estimate_vanishing(integ.fn, 2, GridSpec(2, 24, 1),
                                 [Stream(5, rep) for rep in range(50)])
    vals = np.array([rep.value for rep in reports])
    est, est_se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))

    prior_sd, half, n = 5.0, 20.0, 400
    step = 2.0 * half / n
    nodes = -half + step * (np.arange(n) + 0.5)
    log_w = (-0.5 * (nodes / prior_sd) ** 2
             - math.log(prior_sd * math.sqrt(2.0 * math.pi)) + math.log(step))
    oracle = 0.0
    for b0, lw0 in zip(nodes, log_w):  # one row of the tensor grid at a time
        z = y[None, :] * (b0 * design[None, :, 0] + nodes[:, None] * design[None, :, 1])
        oracle += np.exp(lw0 + log_w - np.logaddexp(0.0, -z).sum(axis=1)).sum()
    # the oracle has no sampling error, so the bound is the estimator's alone
    assert abs(est - oracle) <= 4 * est_se


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


def test_cli_run_stdout_matches_out_file(tmp_path, capsys):
    # without --out the CSV goes to stdout: the same lines, ended by "\n"
    flags = ["run", "--fn", "fs", "--dim", "1", "--variant", "haber1,hat",
             "--r", "3", "--k", "4,8", "--reps", "3"]
    out = tmp_path / "rows.csv"
    assert cli.main(flags + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(flags) == 0
    printed = capsys.readouterr().out
    assert "\r" not in printed
    assert printed.split("\n") == out.read_bytes().decode().split("\r\n")
    assert len(printed.splitlines()) == 5


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
    # command-line variants replace the file's list, and repeated ones add up
    out3 = tmp_path / "c.csv"
    assert cli.main(["run", "--config", str(cfg), "--variant", "hat", "--variant", "tilde",
                     "--out", str(out3)]) == 0
    assert [row.slope_group for row in read_rows(out3)] == ["hat-r2", "hat-r2", "tilde-r2",
                                                            "tilde-r2"]


# (the rest of the command line, flag, value): every flag of run and orders
# but --config, each at a value other than its default; the rest is a small
# ladder that leaves the flag to the file and names the integrand it acts on
_RUN = ["run", "--dim", "2", "--k", "4,8", "--reps", "2"]
_ORDERS = ["orders", "--fn", "gauss", "--r", "3", "--k", "6", "--reps", "2"]
_FLAG_VALUES = [
    (_RUN, "fn", "gauss"),
    (_RUN + ["--fn", "logistic"], "dataset", "{tmp}/d.csv"),
    (["run", "--k", "4,8", "--reps", "2"], "dim", "2"),
    (_RUN, "seed", "5"),
    (_RUN + ["--fn", "gauss"], "tau", "2.0"),
    (_RUN, "variant", "haber1,tilde"),
    (_RUN, "r", "3"),
    (["run", "--dim", "2", "--reps", "2"], "k", "4,8,16"),
    (["run", "--dim", "2", "--k", "4,8"], "reps", "3"),
    (_RUN, "out", "{tmp}/rows.csv"),
    (["orders", "--r", "3", "--k", "6", "--reps", "2"], "fn", "poly2"),
    (_ORDERS + ["--fn", "logistic"], "dataset", "{tmp}/d.csv"),
    (_ORDERS, "dim", "2"),
    (_ORDERS, "seed", "5"),
    (_ORDERS, "tau", "2.0"),
    (["orders", "--fn", "gauss", "--k", "6", "--reps", "2"], "r", "2"),
    (["orders", "--fn", "gauss", "--r", "3", "--reps", "2"], "k", "8"),
    (["orders", "--fn", "gauss", "--r", "3", "--k", "6"], "reps", "3"),
]


@pytest.mark.parametrize("argv, key, value", _FLAG_VALUES,
                         ids=[f"{argv[0]}-{key}" for argv, key, _value in _FLAG_VALUES])
def test_cli_config_value_acts_as_its_flag(argv, key, value, tmp_path, capsys):
    # a file's `key = value` gives the flag's stdout byte for byte
    _write_dataset(tmp_path / "d.csv")
    value = value.format(tmp=tmp_path)
    assert cli.main(argv + [f"--{key}", value]) == 0
    by_flag = capsys.readouterr().out
    written = (tmp_path / "rows.csv").read_bytes() if key == "out" else None
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == by_flag
    if key == "out":
        assert (tmp_path / "rows.csv").read_bytes() == written
    # the value matters: without it the run differs, or fails for want of a dataset
    assert cli.main(argv) != 0 or capsys.readouterr().out != by_flag


@pytest.mark.parametrize("command, key, value", [
    ("run", "dim", "x"), ("run", "k", "4,x"), ("run", "r", "2.5"), ("run", "reps", "2.0"),
    ("run", "seed", ""), ("run", "tau", "abc"), ("orders", "r", "x"), ("orders", "k", "8,16"),
], ids=["run-dim", "run-k", "run-r", "run-reps", "run-seed", "run-tau", "orders-r",
        "orders-k"])
def test_cli_config_value_its_flag_rejects_is_a_usage_error(command, key, value, tmp_path,
                                                             capsys):
    # the file value goes through the flag's own type: argparse's usage
    # message naming the flag, status 2, as the bad flag itself gives
    with pytest.raises(SystemExit) as by_flag:
        cli.main([command, f"--{key}", value])
    flag_err = capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    with pytest.raises(SystemExit) as by_file:
        cli.main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert by_flag.value.code == by_file.value.code == 2
    assert captured.err == flag_err
    assert f"error: argument --{key}: invalid" in flag_err
    assert captured.out == ""


@pytest.mark.parametrize("command, defaults", [
    ("run", ["fs", "1", "0", "1.5", "hat", "2", "4,8,16,32", "50"]),
    ("orders", ["fs", "1", "0", "1.5", "4", "16", "10"]),
])
def test_cli_help_lists_each_default(command, defaults, capsys):
    # in flag order: fn, dim, seed, tau, then the subcommand's own flags
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert re.findall(r"\(default ([^)]*)\)", text) == defaults


def test_cli_orders(capsys):
    rc = cli.main(["orders", "--fn", "gauss", "--dim", "1", "--r", "3",
                   "--k", "16", "--reps", "4", "--seed", "1"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "selected" in printed


def test_cli_orders_notes_an_integrand_not_declared_vanishing(capsys):
    assert cli.main(["orders", "--fn", "fs", "--r", "2", "--k", "8", "--reps", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: fs(1) is not declared boundary-vanishing\n"
    assert "selected" in captured.out


def test_cli_run_notes_an_integrand_not_declared_vanishing(tmp_path, capsys):
    # the note of `orders`, printed once when the vanishing variant runs on
    # such an integrand; the CSV is the one the run writes without it
    flags = ["run", "--fn", "fs", "--dim", "2", "--variant", "haber1,vanishing", "--r", "4",
             "--k", "4,8", "--reps", "2"]
    assert cli.main(flags) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: fs(2) is not declared boundary-vanishing\n"
    out = tmp_path / "rows.csv"
    assert cli.main(flags + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == "note: fs(2) is not declared boundary-vanishing\n"
    assert captured.out.split("\n") == out.read_bytes().decode().split("\r\n")
    # no note without the vanishing variant, or for a declared integrand
    for argv in (["--fn", "fs", "--variant", "haber1"],
                 ["--fn", "gauss", "--variant", "vanishing"]):
        assert cli.main(["run", "--dim", "2", "--r", "4", "--k", "4,8", "--reps", "2"] + argv) == 0
        assert capsys.readouterr().err == ""


def test_cli_slope_prints_a_group_it_cannot_fit(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert cli.main(["run", "--fn", "fs", "--variant", "hat", "--k", "4,8", "--reps", "3",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["slope", "--input", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "hat-r2: need >= 3 non-discarded rows to fit a slope, got 2\n"
    assert captured.err == ""


def test_cli_slope_does_not_swallow_a_bug(tmp_path, monkeypatch):
    # a per-group line is for a library error; any other exception is a bug
    out = tmp_path / "rows.csv"
    assert cli.main(["run", "--fn", "fs", "--k", "4,8", "--reps", "3", "--out", str(out)]) == 0

    def broken(rows):
        raise TypeError("bug in the fit")

    monkeypatch.setattr(cli, "fit_slope", broken)
    with pytest.raises(TypeError, match="bug in the fit"):
        cli.main(["slope", "--input", str(out)])


def test_cli_entrypoint_subprocess(tmp_path):
    out = tmp_path / "rows.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "stratmc.cli", "run", "--fn", "poly2", "--dim", "1",
         "--variant", "haber2", "--k", "4,8", "--reps", "5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


_NO_FILE = "[Errno 2] No such file or directory: '{tmp}/"
_NO_STAR = ("unknown variant 'star'; choose from "
            "('crude', 'haber1', 'haber2', 'hat', 'tilde', 'vanishing')")


@pytest.mark.parametrize("argv, message", [
    (["run", "--fn", "fs", "--variant", "star"], _NO_STAR),
    (["run", "--k", "8,4"], "k values must be strictly increasing"),
    (["run", "--fn", "logistic"], "the logistic integrand needs --dataset"),
    (["orders", "--r", "0"], "order must be >= 1, got 0"),
    (["slope", "--input", "{tmp}/missing.csv"], _NO_FILE + "missing.csv'"),
    (["run", "--config", "{tmp}/missing.cfg"], _NO_FILE + "missing.cfg'"),
    (["slope", "--input", "{tmp}/no-k.csv"], "{tmp}/no-k.csv: missing column 'k'"),
    (["slope", "--input", "{tmp}/empty.csv"],
     "{tmp}/empty.csv: empty file, expected a header row"),
    (["slope", "--input", "{tmp}/abc.csv"],
     "{tmp}/abc.csv:2: column 'n_evals': could not convert string to float: 'abc'"),
    (["slope", "--input", "{tmp}/int.csv"],
     "{tmp}/int.csv:3: column 'k': invalid literal for int() with base 10: 'x'"),
    (["slope", "--input", "{tmp}/short.csv"],
     "{tmp}/short.csv:3: ragged row: 6 cells under a 7-column header"),
    (["slope", "--input", "{tmp}/long.csv"],
     "{tmp}/long.csv:2: ragged row: 8 cells under a 7-column header"),
    (["run", "--fn", "logistic", "--dataset", "{tmp}/missing.csv"], _NO_FILE + "missing.csv'"),
    (["run", "--k", "4,8", "--reps", "2", "--out", "{tmp}/missing/x.csv"],
     _NO_FILE + "missing/x.csv'"),
    (["run", "--config", "{tmp}/bad.cfg"], "{tmp}/bad.cfg:2: expected 'key = value', got 'k 4\\n'"),
    (["run", "--fn", "gauss", "--tau", "0"], "tau must be a finite number > 0, got 0.0"),
    (["run", "--config", "{tmp}/typo.cfg"],
     "{tmp}/typo.cfg:2: unknown key 'rep', not a flag of 'stratmc run'"),
    (["orders", "--config", "{tmp}/out.cfg"],
     "{tmp}/out.cfg:3: unknown key 'out', not a flag of 'stratmc orders'"),
    (["run", "--config", "{tmp}/nested.cfg"],
     "{tmp}/nested.cfg:1: unknown key 'config', not a flag of 'stratmc run'"),
    (["run", "--config", "{tmp}/twice.cfg"],
     "{tmp}/twice.cfg:4: key 'reps' repeats line 2; give each key once"),
    (["run", "--config", "{tmp}/rel-mode.cfg"],
     "{tmp}/rel-mode.cfg:1: unknown key 'rel-mode', not a flag of 'stratmc run'"),
    (["run", "--k", ""], "k_values must not be empty"),
    (["run", "--r", ""], "r_values must not be empty when a variant reads it"),
    (["run", "--variant", ""], "variants must not be empty"),
    (["run", "--variant", "hat,hat"], "variants must not repeat a value, got ('hat', 'hat')"),
    (["run", "--variant", "haber1,hat", "--r", "0"], "r_values entry must be >= 1, got 0"),
    (["run", "--k", "0,4"], "k_values entry must be >= 1, got 0"),
    (["run", "--fn", "fs", "--tau", "0", "--dataset", "{tmp}/missing.csv"],
     "tau must be a finite number > 0, got 0.0"),
    (["run", "--fn", "fs", "--dataset", "{tmp}/missing.csv"],
     "only the logistic integrand reads --dataset, not 'fs'"),
    (["orders", "--fn", "poly2", "--tau", "inf"], "tau must be a finite number > 0, got inf"),
    (["run", "--fn", "poly2", "--dim", "0"], "dimension must be >= 1, got 0"),
], ids=["variant-star", "k-decreasing", "logistic-without-dataset", "order-0",
        "slope-missing-input", "missing-config", "slope-missing-column", "slope-empty-file",
        "slope-bad-cell",
        "slope-bad-int-cell", "slope-short-row", "slope-long-row",
        "logistic-missing-dataset", "out-in-missing-dir", "config-line-without-equals", "tau-0",
        "config-misspelt-key", "config-key-of-another-command", "config-names-a-config",
        "config-repeated-key", "config-rel-mode", "k-empty", "r-empty",
        "variant-empty", "variant-repeated", "r-0", "k-0", "tau-0-for-fs-with-dataset",
        "dataset-for-fs", "orders-tau-inf", "poly2-dim-0"])
def test_cli_library_errors_are_usage_errors(argv, message, tmp_path, capsys):
    # one line on stderr and argparse's usage status, not a traceback; a
    # file that cannot be read or written is a usage error too
    (tmp_path / "no-k.csv").write_text("variant,r,n_evals,rel_error,discarded,slope_group\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "abc.csv").write_text(",".join(CSV_COLUMNS) + "\nhat,2,4,abc,0.1,0,hat-r2\n")
    (tmp_path / "int.csv").write_text(",".join(CSV_COLUMNS)
                                      + "\nhat,2,4,16,0.1,0,hat-r2\nhat,2,x,64,0.01,0,hat-r2\n")
    # a row without its slope group would otherwise fail to sort among the groups
    (tmp_path / "short.csv").write_text(",".join(CSV_COLUMNS)
                                        + "\nhat,2,4,16,0.1,0,hat-r2\nhat,2,8,64,0.01,0\n")
    (tmp_path / "long.csv").write_text(",".join(CSV_COLUMNS) + "\nhat,2,4,16,0.1,0,hat-r2,x\n")
    (tmp_path / "bad.cfg").write_text("fn = gauss\nk 4\n")
    # a misspelt key would otherwise run with the default it meant to replace
    (tmp_path / "typo.cfg").write_text("fn = gauss\nrep = 3\nsed = 9\n")
    (tmp_path / "out.cfg").write_text("# orders writes no CSV\ndim = 1\nout = x.csv\n")
    (tmp_path / "nested.cfg").write_text(f"config = {tmp_path / 'bad.cfg'}\n")
    # a repeated key would otherwise run on its last line without notice
    (tmp_path / "twice.cfg").write_text("fn = gauss\nreps = 2\n# again\nreps = 3\n")
    # the statistic has one definition, which the file cannot choose
    (tmp_path / "rel-mode.cfg").write_text("rel-mode = squared\n")
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"stratmc: error: {message.format(tmp=tmp_path)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--k", "--r"])
def test_cli_int_list_error_names_the_flag_not_the_function(flag, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", flag, "4,x"])
    err = capsys.readouterr().err
    assert info.value.code == 2 and "_int_list" not in err
    assert err.endswith(f"stratmc run: error: argument {flag}: invalid list: expected "
                        "comma-separated integers, got '4,x'\n")


def test_cli_error_exit_status_subprocess():
    proc = subprocess.run([sys.executable, "-m", "stratmc.cli", "run", "--fn", "fs",
                           "--variant", "star"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"stratmc: error: {_NO_STAR}\n"


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
