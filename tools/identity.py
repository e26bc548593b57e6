"""Bit-identity check of stratmc between two trees, record by record.

Usage (from the repository root):

    python3 tools/identity.py --parent REV

exports ``REV`` with ``git archive`` into ``tools/out/<sha>/`` and runs this
script's record pass against its ``src/`` and against the ``src/`` of the
working tree this script sits in, each in a fresh ``python3`` process with
BLAS pinned to one thread.  The record pass is always this file, so both
trees answer the same fixed matrix, with fixed seeds, in four groups:

* ``estimators`` - value, counts and ``per_stratum_terms`` bytes of the seven
  estimators, ``vanishing_orders`` and ``shifted_stratum_mean``, at s 1-3,
  k in {1, 4, 7}, r 1-4, margins 0-2, both modes, 1 and 3 streams; and
  ``select_order``, ``error_constant`` and ``asymptotic_variance_estimate``;
* ``offsets`` - ``Stream.offsets`` bytes at s 1-4;
* ``cli`` - stdout, stderr, exit status and ``--out`` bytes of ``stratmc
  run``/``slope``/``orders`` calls, among them every bad input that CI's
  "Installed package" step checks;
* ``readers`` - the results of ``read_rows``, ``fit_slope`` and
  ``load_labelled_csv`` on fixed files.

A refused call records its error type and message.  The report prints one
sha256 per group and tree; for a group that differs it prints how many
records differ (a record differs when its JSON line does, so a zero's sign
or a number's type counts), the first of them with the largest relative
difference of its numbers, and the keys of the others.  The exit status is 0
when every group matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GROUPS = ("estimators", "offsets", "cli", "readers")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOW_KEYS = 20     # differing keys listed per group after the first
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


# ---------------------------------------------------------------------------
# records: (group, key, out), with out made JSON-able by _encode

def _encode(obj):
    """A JSON-able form of ``obj`` that keeps every bit: arrays as base64 with
    dtype and shape, bytes as UTF-8 text (else base64), numpy scalars with
    their type, floats as themselves (``json`` writes their shortest
    round-trip repr)."""
    import numpy as np
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        return {"array": obj.dtype.str, "shape": list(obj.shape),
                "b64": base64.b64encode(np.ascontiguousarray(obj).tobytes()).decode()}
    if isinstance(obj, np.generic):
        return {"scalar": type(obj).__name__, "value": obj.item()}
    if isinstance(obj, bytes):
        try:
            return {"text": obj.decode()}   # a file's bytes, readable in a report
        except UnicodeDecodeError:
            return {"bytes": base64.b64encode(obj).decode()}
    if isinstance(obj, BaseException):
        return {"error": type(obj).__name__, "message": str(obj)}
    if dataclasses.is_dataclass(obj):
        return {"record": type(obj).__name__,
                **{f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, dict):
        return {str(key): _encode(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(value) for value in obj]
    return {"repr": repr(obj)}


def _outcome(call):
    """``call()``'s value, or the exception it raised."""
    try:
        return call()
    except Exception as exc:  # every refusal is a record
        return exc


def _record(fh, group: str, key: str, call) -> None:
    """Write ``call()``'s outcome as one JSON line under ``group`` and ``key``."""
    fh.write(json.dumps({"group": group, "key": key, "out": _encode(_outcome(call))},
                        sort_keys=True) + "\n")


def _exp_linear(s: int):
    """f(x) = exp(c . x) with its derivative oracle, c = (0.3, -0.5, 0.7, 0.2)[:s]."""
    import numpy as np
    c = np.array([0.3, -0.5, 0.7, 0.2][:s])

    def f(x):
        return np.exp(np.atleast_2d(x) @ c)

    def oracle(alpha, x):
        return np.prod(c ** np.array(alpha)) * f(x)

    return f, oracle


def record_estimators(rec) -> None:
    from stratmc import (GridSpec, Stream, asymptotic_variance_estimate, crude_mc,
                         error_constant, estimate_analytic_cv, estimate_paired_cv,
                         estimate_single_cv, estimate_vanishing, haber1, haber2, select_order,
                         shifted_stratum_mean, wrapped_gaussian)
    from stratmc.estimators import vanishing_orders
    for s in (1, 2, 3):
        f, oracle = _exp_linear(s)
        gauss = wrapped_gaussian(s).fn
        for k in (1, 4, 7):
            for n_streams in (1, 3):
                streams = [Stream(11 * s + k, rep) for rep in range(n_streams)]
                stream = streams[0] if n_streams == 1 else streams
                at = f"s={s} k={k} streams={n_streams}"
                rec("estimators", f"crude {at}",
                    lambda: crude_mc(f, s, k ** s, stream, keep_terms=True))
                for m in (0, 1, 2):
                    grid = GridSpec(s, k, m)
                    at_m = f"{at} m={m}"
                    rec("estimators", f"haber1 {at_m}",
                        lambda: haber1(f, grid, stream, keep_terms=True))
                    rec("estimators", f"haber2 {at_m}",
                        lambda: haber2(f, grid, stream, keep_terms=True))
                    for r in (1, 2, 3, 4):
                        for mode in ("free", "block"):
                            rec("estimators", f"paired r={r} {mode} {at_m}",
                                lambda: estimate_paired_cv(f, r, grid, stream, mode=mode,
                                                           keep_terms=True))
                            rec("estimators", f"single r={r} {mode} {at_m}",
                                lambda: estimate_single_cv(f, r, grid, stream, mode=mode,
                                                           keep_terms=True))
                        rec("estimators", f"analytic r={r} {at_m}",
                            lambda: estimate_analytic_cv(f, oracle, r, grid, stream,
                                                         keep_terms=True))
                        rec("estimators", f"vanishing exp r={r} {at_m}",
                            lambda: estimate_vanishing(f, r, grid, stream, keep_terms=True))
                        rec("estimators", f"vanishing gauss r={r} {at_m}",
                            lambda: estimate_vanishing(gauss, r, grid, stream, keep_terms=True))
                    rec("estimators", f"vanishing_orders gauss r_max=4 {at_m}",
                        lambda: vanishing_orders(gauss, 4, grid, streams))
                    if n_streams == 1:
                        for shift in (1, -1, 3, -3, 5):
                            rec("estimators", f"shifted_stratum_mean shift={shift} {at_m}",
                                lambda: shifted_stratum_mean(gauss, shift, grid, stream))
        for r in (2, 3, 4):
            rec("estimators", f"select_order gauss r_max={r} s={s}",
                lambda: select_order(gauss, r, GridSpec(s, 5, r // 2), 3, Stream(7, 2)))
            for family in ("single", "paired"):
                rec("estimators", f"error_constant {family} r={r} s={s}",
                    lambda: error_constant(s, r, family))
            if s < 3:
                rec("estimators", f"asymptotic_variance_estimate r={r} s={s}",
                    lambda: asymptotic_variance_estimate(oracle, s, r, 6, seed=3))


def record_offsets(rec) -> None:
    from stratmc import GridSpec, Stream
    for s, ks in ((1, (1, 2, 7, 64)), (2, (1, 3, 8)), (3, (1, 4)), (4, (1, 3))):
        for k in ks:
            for m in (0, 1):
                for seed, rep in ((0, 0), (12345, 7), (2 ** 40 + 3, 2 ** 63 - 1), (-5, 1)):
                    rec("offsets", f"s={s} k={k} m={m} seed={seed} rep={rep}",
                        lambda: Stream(seed, rep).offsets(GridSpec(s, k, m)))


# the files the CLI and reader records read, by name, written into the working folder
_HEADER = "variant,r,k,n_evals,rel_error,discarded,slope_group\n"
_FILES = {
    "typo.cfg": "fn = gauss\nrep = 3\n",
    "twice.cfg": "fn = gauss\nreps = 2\nreps = 3\n",
    "value.cfg": "dim = x\n",
    "kept.csv": "kept\n",
    "cell.csv": _HEADER + "hat,2,x,16,0.1,0,hat-r2\n",
    "empty.csv": "",
    "zero.csv": _HEADER + "hat,2,4,0,0.1,0,hat-r2\nhat,2,8,16,0.01,0,hat-r2\n"
                          "hat,2,16,64,0.001,0,hat-r2\n",
    "inf.csv": _HEADER + "hat,2,4,16,inf,0,hat-r2\nhat,2,8,64,0.01,0,hat-r2\n"
                         "hat,2,16,256,0.001,0,hat-r2\n",
    "nan.csv": _HEADER + "hat,2,4,16,0.1,0,hat-r2\nhat,2,8,nan,0.01,0,hat-r2\n"
                         "hat,2,16,256,0.001,0,hat-r2\n",
    "abc.csv": _HEADER + "hat,2,4,abc,0.1,0,hat-r2\n",
    "no-k.csv": "variant,r,n_evals,rel_error,discarded,slope_group\n",
    "header.csv": _HEADER,
    "short.csv": _HEADER + "hat,2,4,16,0.1,0,hat-r2\nhat,2,8,64,0.01,0\n",
    "blank.csv": _HEADER + "hat,2,4,16,0.1,0,hat-r2\n\nhat,2,8,64,0.01,0,hat-r2\n"
                           "tilde,2,4,16,0.2,1,tilde-r2\nhat,2,16,256,0.001,0,hat-r2\n",
    "reordered.csv": "slope_group,rel_error,variant,k,r,discarded,n_evals,extra\n"
                     "hat-r2,0.1,hat,4,2,0,16,a\nhat-r2,0.01,hat,8,2,0,64,b\n"
                     "hat-r2,1e-3,hat,16,2,0,256,c\n",
    "nn.csv": "y,x1\n1,0.5\n0,abc\n",
    "d-nan.csv": "y,x1,x2\n1,0.5,0.2\n0,0.1,nan\n",
    "d-inf.csv": "y,x1,x2\n1,0.5,0.2\n0,0.1,-Infinity\n",
    "d-ragged.csv": "y,x1,x2\n1,0.5,0.2\n0,0.1\n",
    "d-labels.csv": "y,x\n2,0.5\n-1,0.3\n",
    "d-rows0.csv": "y,x1,x2\n",
    "d-pm1.csv": "y,x1\n1,0.5\n-1,-0.25\n\n1,2e-3\n",
}


def _write_files() -> None:
    import numpy as np
    for name, text in _FILES.items():
        with open(name, "w", newline="") as fh:
            fh.write(text)
    # CI's logistic dataset: 40 rows, two predictors
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 2))
    y = (rng.random(40) < 1 / (1 + np.exp(-0.3 - x @ [0.8, -0.5]))).astype(int)
    with open("logit.csv", "w") as fh:
        fh.write("y,x1,x2\n" + "".join(f"{a},{b!r},{c!r}\n" for a, (b, c) in zip(y, x.tolist())))


_CLI_CALLS = (
    "run --fn fs --dim 1 --variant hat --r 2 --k 4,8,16 --reps 2 --out a.csv",
    "slope --input a.csv",
    "run --fn gauss --dim 3 --variant tilde,vanishing --r 3 --k 4,6,8 --reps 2 --out c.csv",
    "slope --input c.csv",
    "run --fn fs --dim 2 --variant haber1,haber2,hat,tilde,crude,vanishing --r 4 --k 4,8 "
    "--reps 3 --out six.csv",
    "slope --input six.csv",
    "run --fn gauss --dim 2 --variant hat,vanishing --r 2,4 --k 4,8 --reps 3",
    "run --fn poly2 --dim 2 --variant haber2,hat --r 4 --k 2,4 --reps 2",
    "orders --fn gauss --dim 1 --r 3 --k 8 --reps 2",
    "orders --fn gauss --dim 3 --r 4 --k 6 --reps 2",
    "orders --fn gauss --dim 5 --r 6 --k 4 --reps 2",
    "orders --fn logistic --dataset logit.csv --dim 3 --r 3 --k 6 --reps 2",
    "run --fn logistic --dataset logit.csv --dim 2 --variant vanishing --r 1,2 --k 4,8 --reps 2",
    "run --fn fs --variant star",
    "run --rel-mode literal",
    "run --fn fs --dim 2 --variant vanishing --r 4 --k 4,8 --reps 2",
    "slope --input missing.csv",
    "run --fn gauss --k 4,8 --reps 2 --out missing/x.csv",
    "run --fn gauss --tau 0",
    "run --config typo.cfg",
    "run --config twice.cfg",
    "slope --input cell.csv",
    "slope --input empty.csv",
    "slope --input zero.csv",
    "slope --input inf.csv",
    "slope --input abc.csv",
    "slope --input short.csv",
    "slope --input no-k.csv",
    "orders --fn logistic --dataset nn.csv",
    "orders --fn logistic --dataset d-nan.csv",
    "run --config value.cfg",
    "run --k ",
    "run --variant hat,hat",
    "run --fn fs --tau 0 --dataset missing.csv",
    "run --k 4,x",
    "run --fn poly2 --dim 0",
    "run --k 8,4 --out kept.csv",
    "run --help",
    "orders --help",
)


def record_cli(rec) -> None:
    from stratmc import cli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
        written = argv[argv.index("--out") + 1] if "--out" in argv else None
        out_bytes = (Path(written).read_bytes() if written and os.path.isfile(written)
                     else None)
        return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "out": out_bytes}

    for line in _CLI_CALLS:
        argv = line.split(" ")
        rec("cli", line, lambda: call(argv))


def record_readers(rec) -> None:
    import numpy as np
    from stratmc import ExperimentConfig, Integrand, ResultRow, fit_slope, run, test_function
    from stratmc.bench import load_labelled_csv, read_rows, write_rows

    def slopes(rows):
        groups = sorted({row.slope_group for row in rows})
        return {g: _outcome(lambda: fit_slope([row for row in rows if row.slope_group == g]))
                for g in groups}

    def read(path):
        rows = read_rows(path)
        return {"rows": rows, "slopes": slopes(rows)}

    def write_then_read(path, rows):
        write_rows(path, rows)
        return {"bytes": Path(path).read_bytes(), "read": _outcome(lambda: read(path))}

    for name in ("a.csv", "c.csv", "six.csv", "cell.csv", "empty.csv", "zero.csv", "inf.csv",
                 "nan.csv", "abc.csv", "no-k.csv", "header.csv", "short.csv", "blank.csv",
                 "reordered.csv", "missing.csv"):
        rec("readers", f"read_rows {name}", lambda: read(name))
    for name in ("logit.csv", "nn.csv", "d-nan.csv", "d-inf.csv", "d-ragged.csv",
                 "d-labels.csv", "d-rows0.csv", "d-pm1.csv", "empty.csv", "missing.csv"):
        rec("readers", f"load_labelled_csv {name}", lambda: load_labelled_csv(name))

    f1 = test_function(1)
    config = dict(variants=("haber1", "hat"), r_values=(2,), k_values=(4, 8, 16),
                  replicates=3, seed=5)
    rec("readers", "write_rows float exact",
        lambda: write_then_read("w-float.csv", run(ExperimentConfig(f1, **config))))
    numpy_exact = _outcome(lambda: Integrand("fs1", 1, f1.fn, exact=np.float64(1.0)))
    rec("readers", "write_rows numpy exact",
        lambda: write_then_read("w-numpy.csv", run(ExperimentConfig(numpy_exact, **config))))
    built = [ResultRow("hat", np.int64(2), np.int64(k), np.float64(3.0 * k),
                       np.float64(0.1 / k ** 3), np.bool_(False), "hat-r2") for k in (4, 8, 16)]
    rec("readers", "write_rows numpy rows", lambda: write_then_read("w-rows.csv", built))
    inf_rows = [ResultRow("x", 1, k, float(k), float(k) ** -3, False, "x-r1") for k in (4, 8, 16)]
    for bad in (math.inf, math.nan, 0.0, -1.0):
        rows = [dataclasses.replace(inf_rows[0], rel_error=bad)] + inf_rows[1:]
        rec("readers", f"fit_slope rel_error={bad!r}", lambda: fit_slope(rows))


def records(src: str, out: str) -> None:
    """Write every record of ``src/stratmc`` to ``out``, one JSON line each."""
    sys.path.insert(0, src)
    import stratmc
    found = Path(stratmc.__file__).resolve().parent
    if found != Path(src).resolve() / "stratmc":
        raise ImportError(f"stratmc resolved to {found}, not {src}/stratmc")
    warnings.simplefilter("error", RuntimeWarning)
    out = os.path.abspath(out)
    with open(out, "w") as fh, tempfile.TemporaryDirectory() as folder:
        rec = functools.partial(_record, fh)
        cwd = os.getcwd()
        os.chdir(folder)    # relative file names keep messages free of the folder
        try:
            _write_files()
            record_estimators(rec)
            record_offsets(rec)
            record_cli(rec)
            record_readers(rec)
        finally:
            os.chdir(cwd)


# ---------------------------------------------------------------------------
# comparison

def _numbers(a, b, diffs: list) -> bool:
    """Walk two encoded outputs together, adding the relative difference of each
    pair of numbers to ``diffs``; False when their structure differs."""
    import numpy as np
    if isinstance(a, dict) and isinstance(b, dict) and "array" in a and "array" in b:
        if (a["array"], a["shape"]) != (b["array"], b["shape"]):
            return False
        x = np.frombuffer(base64.b64decode(a["b64"]), dtype=a["array"])
        y = np.frombuffer(base64.b64decode(b["b64"]), dtype=b["array"])
        if x.dtype.kind in "fiu" and x.size:
            diffs.append(_rel(x.astype(float), y.astype(float)))
        return x.dtype.kind in "fiu" or x.tobytes() == y.tobytes()
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_numbers(a[key], b[key], diffs) for key in a)
    if isinstance(a, str) and isinstance(b, str) and a != b:
        # a text that differs only in its numbers, such as a CLI table or a CSV
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
            return False
        diffs.append(_rel(np.array(_NUMBER.findall(a), dtype=float),
                          np.array(_NUMBER.findall(b), dtype=float)))
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_numbers(x, y, diffs) for x, y in zip(a, b))
    if (isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool)):
        diffs.append(_rel(np.array([float(a)]), np.array([float(b)])))
        return True
    return a == b


def _rel(x, y) -> float:
    import numpy as np
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(all="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    rel = np.where(same, 0.0, np.where(np.isfinite(rel), rel, np.inf))
    return float(rel.max(initial=0.0))


def _digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _load(path: Path) -> dict[str, list[tuple[str, object, str]]]:
    groups: dict[str, list] = {group: [] for group in GROUPS}
    for line in path.read_text().splitlines():
        item = json.loads(line)
        groups[item["group"]].append((item["key"], item["out"], line))
    return groups


def _excerpts(a, b, width: int = 240) -> list[str]:
    """Both outputs as JSON, each cut to ``width`` characters around the first
    character where they differ."""
    texts = [json.dumps(x, sort_keys=True) for x in (a, b)]
    at = next((i for i, (x, y) in enumerate(zip(*texts)) if x != y), min(map(len, texts)))
    start = max(0, at - width // 3)
    return [("..." if start else "") + text[start:start + width]
            + ("..." if len(text) > start + width else "") for text in texts]


def compare(parent: Path, change: Path, names=("parent", "change")) -> tuple[bool, list[str]]:
    """(every group matches, the report lines) for two record files."""
    left, right = _load(parent), _load(change)
    same, report = True, []
    for group in GROUPS:
        a, b = left[group], right[group]
        da, db = _digest([line for *_, line in a]), _digest([line for *_, line in b])
        if da == db:
            report.append(f"{group:<11} {len(a):5d} records  sha256 {da}  match")
            continue
        same = False
        report.append(f"{group:<11} {len(a):5d} / {len(b)} records  DIFFER")
        report.append(f"  {names[0]:<7} sha256 {da}")
        report.append(f"  {names[1]:<7} sha256 {db}")
        # a record differs when its line does; the decoded values only size it
        lines_b = {key: line for key, _, line in b}
        keys_a = {key for key, _, _ in a}
        differing = [key for key, _, line in a if lines_b.get(key) != line]
        differing += [key for key, _, _ in b if key not in keys_a]
        report.append(f"  {len(differing)} differing records")
        first = differing[0]
        out_a = next((out for key, out, _ in a if key == first), "<absent>")
        out_b = next((out for key, out, _ in b if key == first), "<absent>")
        diffs: list[float] = []
        if not _numbers(out_a, out_b, diffs):
            largest = "not comparable: the outputs differ in kind or in words"
        elif max(diffs, default=0.0) == 0.0:
            largest = "equal as numbers: a zero's sign or a number's type differs"
        else:
            largest = f"largest relative difference {max(diffs):.3g}"
        report.append(f"  first: {first}: {largest}")
        for name, excerpt in zip(names, _excerpts(out_a, out_b)):
            report.append(f"    {name:<7} {excerpt}")
        for key in differing[1:1 + SHOW_KEYS]:
            report.append(f"  also: {key}")
        if len(differing) > 1 + SHOW_KEYS:
            report.append(f"  ... and {len(differing) - 1 - SHOW_KEYS} more")
    return same, report


# ---------------------------------------------------------------------------
# trees

def export(rev: str) -> Path:
    """``rev``'s tree under ``tools/out/<sha>/``, exported afresh with git archive."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    tree = OUT / sha
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)
    return tree


def run_records(tree: Path, out: Path) -> float:
    """Seconds the record pass of ``tree/src`` took in a fresh process."""
    env = dict(os.environ, PYTHONHASHSEED="0", COLUMNS="80")
    env.update({var: "1" for var in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--records", str(tree / "src"), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"record pass of {tree} failed:\n{proc.stderr}")
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--records", metavar="SRC", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.records:
        records(args.records, args.out)
        return 0
    if not args.parent:
        p.error("--parent is required")
    trees = [export(args.parent), ROOT]
    files = []
    for name, tree in zip(("parent", "change"), trees):
        out = OUT / f"records-{name}.jsonl"
        seconds = run_records(tree, out)
        print(f"{name:<7} {tree}: records in {seconds:.1f} s")
        files.append(out)
    same, report = compare(*files)
    print("\n".join(report))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
