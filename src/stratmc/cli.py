"""Command-line benchmark runner.

Subcommands:

* ``run``    - estimator ladder over grid resolutions, CSV out.
* ``slope``  - fit log-log error slopes on a CSV produced by ``run``.
* ``orders`` - order-selection demo for the vanishing estimator.

Every flag but ``--config`` can also be given in a config file (``--config
PATH``) with one ``key = value`` pair per line, ``#`` comments, and
comma-separated lists; flags on the command line override file values, and a
key that is not a flag of the subcommand, or that is given twice, is an error.

A library error (``StratError`` or ``ValueError``) or a file error
(``OSError``) raised while any subcommand reads its files, builds its
integrand and configuration, or runs, ends the command with one
``stratmc: error: <message>`` line on stderr and exit status 2, as argparse
does for a bad flag.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ExperimentConfig,
    VARIANTS,
    _write_csv,
    fit_slope,
    make_integrand,
    read_rows,
    run,
)
from .errors import StratError
from .estimators import vanishing_margin
from .lattice import GridSpec, Stream
from .replicate import select_order


def _parse_config_file(args: argparse.Namespace) -> dict[str, str]:
    """The ``key = value`` pairs of ``args.config``; each key must be a flag of
    the subcommand (the parsed namespace holds them all) other than ``config``,
    given on one line only."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise StratError(f"{args.config}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name in ("command", "config") or name not in vars(args):
                raise StratError(f"{args.config}:{lineno}: unknown key {key!r}, "
                                 f"not a flag of 'stratmc {args.command}'")
            if name in lines:
                raise StratError(f"{args.config}:{lineno}: key {key!r} repeats line "
                                 f"{lines[name]}; give each key once")
            values[name], lines[name] = value, lineno
    return values


def _merged(args: argparse.Namespace, key: str, default=None, cast=None):
    raw = getattr(args, key, None)
    if raw is None and args.config_values:
        raw = args.config_values.get(key)
    if raw is None:
        return default
    return cast(raw) if cast is not None else raw


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _str_list(text) -> tuple[str, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(text)
    return tuple(v.strip() for v in str(text).split(",") if v.strip())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file mirroring the flags")
    p.add_argument("--fn", help="integrand id: fs | gauss | poly2 | logistic")
    p.add_argument("--dataset", help="CSV path for the logistic integrand")
    p.add_argument("--dim", type=int, help="dimension s")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--tau", type=float, help="tail exponent for transforms (default 1.5)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stratmc",
                                     description="stratified-MC benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an estimator ladder, emit CSV")
    _add_common(p_run)
    p_run.add_argument("--variant", action="append",
                       help=f"one of {', '.join(VARIANTS)}; repeat or comma-separate")
    p_run.add_argument("--r", help="comma-separated smoothness orders")
    p_run.add_argument("--k", help="comma-separated grid resolutions, increasing")
    p_run.add_argument("--reps", type=int, help="replicates per cell (default 50)")
    p_run.add_argument("--out", help="output CSV path (default: stdout)")
    p_run.add_argument("--rel-mode", dest="rel_mode", choices=["squared", "literal"],
                       help="normalize MSE by I^2 (default) or by |I|")

    p_slope = sub.add_parser("slope", help="fit log-log slopes from a run CSV")
    p_slope.add_argument("--input", required=True, help="CSV produced by 'run'")

    p_ord = sub.add_parser("orders", help="vanishing-estimator order selection")
    _add_common(p_ord)
    p_ord.add_argument("--r", help="largest order to consider")
    p_ord.add_argument("--k", help="grid resolution")
    p_ord.add_argument("--reps", type=int, help="replicates (default 10)")

    args = parser.parse_args(argv)
    try:
        return _execute(args)
    except (StratError, ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _execute(args: argparse.Namespace) -> int:
    """Fit the slopes of ``slope``; or build the integrand and the
    configuration of ``run`` or ``orders``, and run it."""
    if args.command == "slope":
        rows = read_rows(args.input)
        for group in sorted({row.slope_group for row in rows}):
            members = [row for row in rows if row.slope_group == group]
            try:
                print(f"{group}: slope = {fit_slope(members):+.3f}")
            except (StratError, ValueError) as exc:
                print(f"{group}: {exc}")
        return 0
    args.config_values = _parse_config_file(args) if args.config else {}
    fn_id = _merged(args, "fn", "fs", str)
    dim = _merged(args, "dim", 1, int)
    seed = _merged(args, "seed", 0, int)
    tau = _merged(args, "tau", 1.5, float)
    dataset = _merged(args, "dataset")
    integrand = make_integrand(fn_id, dim, tau=tau, dataset=dataset)

    if args.command == "orders":
        r_max = int(_merged(args, "r", 4, int))
        k = int(_merged(args, "k", 16, int))
        reps = _merged(args, "reps", 10, int)
        grid = GridSpec(integrand.s, k, vanishing_margin(r_max))
        if not integrand.vanishing:
            print(f"note: {integrand.name} is not declared boundary-vanishing",
                  file=sys.stderr)
        best, summaries = select_order(integrand.fn, r_max, grid, reps, Stream(seed))
        print(f"integrand {integrand.name}, k={k}, {reps} replicates")
        print(f"{'order':>5} {'mean':>18} {'V_hat':>14}")
        for r_prime, summary in summaries.items():
            mark = " <- selected" if r_prime == best else ""
            print(f"{r_prime:>5} {summary.pooled_mean:>18.12g} {summary.v_hat:>14.6g}{mark}")
        return 0

    variants = _merged(args, "variant", ("hat",), _str_list)
    variants = tuple(v for chunk in variants for v in _str_list(chunk))
    config = ExperimentConfig(
        integrand=integrand,
        variants=variants,
        r_values=_merged(args, "r", (2,), _int_list),
        k_values=_merged(args, "k", (4, 8, 16, 32), _int_list),
        replicates=_merged(args, "reps", 50, int),
        seed=seed,
        rel_mode=_merged(args, "rel_mode", "squared", str),
        out=_merged(args, "out"),
    )
    rows = run(config)
    if config.out is None:
        _write_csv(sys.stdout, rows, lineterminator="\n")
    else:
        print(f"wrote {len(rows)} rows to {config.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
