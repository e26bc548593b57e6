"""Command-line benchmark runner.

Subcommands:

* ``run``    - estimator ladder over grid resolutions, CSV out.
* ``slope``  - fit log-log error slopes on a CSV produced by ``run``.
* ``orders`` - order-selection demo for the vanishing estimator.

``--help`` shows every default.  Every flag but ``--config`` can also be given
in a config file (``--config PATH``): one ``key = value`` per line, ``#``
comments, comma-separated lists.  Each value goes through its flag's type (so
``dim = x`` fails as ``--dim x`` does), the command line overrides the file,
and a key that is not a flag of the subcommand, or is given twice, is an error.

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
    write_rows,
)
from .errors import StratError
from .estimators import vanishing_margin
from .lattice import GridSpec, Stream
from .replicate import select_order
from .transform import _TAU


def _parse_config_file(args: argparse.Namespace) -> dict[str, str]:
    """The ``key = value`` pairs of ``args.config``; each key must be a flag of
    the subcommand (the parsed namespace holds them all) other than ``config``,
    given on one line only."""
    lines: dict[str, tuple[int, str]] = {}
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise StratError(f"{args.config}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in ("command", "config") or key not in vars(args):
                raise StratError(f"{args.config}:{lineno}: unknown key {key!r}, "
                                 f"not a flag of 'stratmc {args.command}'")
            if key in lines:
                raise StratError(f"{args.config}:{lineno}: key {key!r} repeats line "
                                 f"{lines[key][0]}; give each key once")
            lines[key] = lineno, value
    return {key: value for key, (_lineno, value) in lines.items()}


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, _str_list(text)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid list: expected comma-separated integers, got {text!r}") from None


class _Extend(argparse.Action):
    """Each use extends the earlier uses' tuple; the first replaces the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        earlier = getattr(namespace, self.dest)
        setattr(namespace, self.dest, values if earlier is self.default else earlier + values)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file mirroring the flags")
    p.add_argument("--fn", default="fs",
                   help="integrand id: fs | gauss | poly2 | logistic (default %(default)s)")
    p.add_argument("--dataset", help="CSV path for the logistic integrand")
    p.add_argument("--dim", type=int, default=1, help="dimension s (default %(default)s)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                   help="master seed (default %(default)s)")
    p.add_argument("--tau", type=float, default=_TAU,
                   help="tail exponent for transforms (default %(default)s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stratmc",
                                     description="stratified-MC benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an estimator ladder, emit CSV")
    _add_common(p_run)
    p_run.add_argument("--variant", action=_Extend, type=_str_list, default="hat", help=(
        f"one of {', '.join(VARIANTS)}; repeat or comma-separate (default %(default)s)"))
    p_run.add_argument("--r", type=_int_list, default="2",
                       help="comma-separated smoothness orders (default %(default)s)")
    p_run.add_argument("--k", type=_int_list, default="4,8,16,32",
                       help="comma-separated grid resolutions, increasing (default %(default)s)")
    p_run.add_argument("--reps", type=int, default=ExperimentConfig.replicates,
                       help="replicates per cell (default %(default)s)")
    p_run.add_argument("--out", help="output CSV path (default: stdout)")

    p_slope = sub.add_parser("slope", help="fit log-log slopes from a run CSV")
    p_slope.add_argument("--input", required=True, help="CSV produced by 'run'")

    p_ord = sub.add_parser("orders", help="vanishing-estimator order selection")
    _add_common(p_ord)
    p_ord.add_argument("--r", type=int, default=4,
                       help="largest order to consider (default %(default)s)")
    p_ord.add_argument("--k", type=int, default=16, help="grid resolution (default %(default)s)")
    p_ord.add_argument("--reps", type=int, default=10, help="replicates (default %(default)s)")

    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            sub.choices[args.command].set_defaults(**_parse_config_file(args))
            args = parser.parse_args(argv)
        return _execute(args)
    except (StratError, ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _note_if_not_vanishing(integrand) -> None:
    """The vanishing estimator keeps its rate only on a boundary-vanishing
    integrand: say on stderr when this one is not declared as one."""
    if not integrand.vanishing:
        print(f"note: {integrand.name} is not declared boundary-vanishing", file=sys.stderr)


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
    integrand = make_integrand(args.fn, args.dim, tau=args.tau, dataset=args.dataset)

    if args.command == "orders":
        grid = GridSpec(integrand.s, args.k, vanishing_margin(args.r))
        _note_if_not_vanishing(integrand)
        best, summaries = select_order(integrand.fn, args.r, grid, args.reps, Stream(args.seed))
        print(f"integrand {integrand.name}, k={args.k}, {args.reps} replicates")
        print(f"{'order':>5} {'mean':>18} {'V_hat':>14}")
        for r_prime, summary in summaries.items():
            mark = " <- selected" if r_prime == best else ""
            print(f"{r_prime:>5} {summary.pooled_mean:>18.12g} {summary.v_hat:>14.6g}{mark}")
        return 0

    config = ExperimentConfig(integrand=integrand, variants=args.variant, r_values=args.r,
                              k_values=args.k, replicates=args.reps, seed=args.seed)
    if args.out is not None:
        open(args.out, "a").close()   # fail before any cell; an old file stays until write_rows
    if "vanishing" in config.variants:
        _note_if_not_vanishing(integrand)
    rows = run(config)
    if args.out is None:
        _write_csv(sys.stdout, rows, lineterminator="\n")
        return 0
    write_rows(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
