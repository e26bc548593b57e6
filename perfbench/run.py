"""Benchmark of stratmc: end-to-end timings, correctness checks and a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json; ``--trace 1``
runs untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run and the full
result with provenance go to ``perfbench/out/``.

The library is imported from ``src/`` next to this directory; BLAS is pinned
to one thread before numpy loads.  Passes run closed-loop in one process: the
next pass starts when the previous one returns.  Times are reported in
seconds at reference speed: each part of a pass, and each set-up, is divided
by the time of a calibration loop from ``calibrate.py`` measured next to it
and multiplied by that loop's nominal time.  Raw seconds go to the result
file.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PCT = 80          # wall_tail_s percentile; MIN_PASSES leaves ten passes beyond it
MIN_PASSES = 50
MIN_TRACE_PASSES = 10
SETUP_REPEATS = 9      # this process plus fresh ones, for the setup_s median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time; at least MIN_PASSES passes run regardless")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_library():
    """Import stratmc from ROOT/src and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import stratmc
    found = Path(stratmc.__file__).resolve().parent
    if found != ROOT / "src" / "stratmc":
        raise ImportError(f"stratmc resolved to {found}, not {ROOT / 'src' / 'stratmc'}")


def provenance(seed: int) -> dict:
    import numpy as np
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stratmc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "source_sha256": digest.hexdigest(), "seed": seed,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count(),
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS}}


def run_child(args, probe: str) -> dict:
    """One fresh process running set-up only; returns its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", probe] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{probe} probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_targets(wl):
    import tracing
    return [(owner, attr, name, name, tracing.points_attrs)
            for owner, attr, name in wl.trace_targets()]


def cold_setup(wl, tracer=None) -> None:
    """Input generation plus the first, cold-cache pass."""
    wl.prepare()
    if tracer is not None:
        tracer.install(trace_targets(wl))
    wl.run_pass()


def normalised_setup(raw_s: float) -> dict:
    """A set-up time in seconds at reference speed, from a calibration sample taken after it.

    Set-up is mostly imports and numpy work in C, which slow down with the host
    about as much as the array loop does, and less than the interpreter loop.
    """
    import calibrate
    ref_s, ref_array_s = calibrate.sample()
    return {"setup_s": raw_s / ref_array_s * calibrate.NOMINAL_ARRAY_S, "raw_s": raw_s,
            "ref_s": ref_s, "ref_array_s": ref_array_s}


def probe(args, workdir: Path) -> dict:
    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    if args.probe == "setup":
        cold_setup(wl)
        return normalised_setup(time.perf_counter() - T_START)
    import tracemalloc
    tracemalloc.start()
    tracer = tracing.Tracer(memory=True)
    tracer.install(tracing.library_targets())
    cold_setup(wl, tracer)
    tracer.uninstall()
    return tracing.peak_layers(tracer.spans)


def timed_passes(wl, reference, seconds: float, min_passes: int, checks, tracer=None,
                 side_tasks=()):
    """Closed loop of passes for ``seconds``; per pass: wall, calibration times, integrand
    time, points, span id.

    The calibration loops run before the first pass and after every pass; a
    pass's calibration times are the means of the loops on either side of it.
    ``side_tasks`` run between passes at evenly spaced points of the measuring
    time, which their own duration does not count against.
    """
    import calibrate
    from workloads import Check
    tasks = list(side_tasks)
    due = [seconds * (i + 1) / (len(tasks) + 1) for i in range(len(tasks))]
    passes = []
    start = time.perf_counter()
    paused = 0.0
    ref_before = None
    while time.perf_counter() - start - paused < seconds or len(passes) < min_passes:
        if tasks and time.perf_counter() - start - paused >= due[0]:
            t0 = time.perf_counter()
            tasks.pop(0)()
            due.pop(0)
            paused += time.perf_counter() - t0
            ref_before = None
        if ref_before is None:
            ref_before = calibrate.time_loops()
        user0, points0 = wl.user.seconds, wl.evals.points
        sid = tracer.open("pass", "pass") if tracer else None
        t0 = time.perf_counter()
        wl.run_pass()
        wall = time.perf_counter() - t0
        if tracer:
            tracer.close(sid)
        ref_after = calibrate.time_loops()
        passes.append({"wall": wall, "ref": 0.5 * (ref_before[0] + ref_after[0]),
                       "ref_array": 0.5 * (ref_before[1] + ref_after[1]),
                       "user": wl.user.seconds - user0,
                       "points": wl.evals.points - points0, "span": sid})
        ref_before = ref_after
        checks.append(Check("pass output identical to the cold pass", wl.result() == reference))
    for task in tasks:
        task()
    return passes


def at_reference_speed(p) -> tuple[float, float]:
    """A pass's time outside and inside the benchmark's integrand, in seconds at reference
    speed: the first scaled by the interpreter loop, the second by the array loop."""
    import calibrate
    return ((p["wall"] - p["user"]) / p["ref"] * calibrate.NOMINAL_INTERPRETER_S,
            p["user"] / p["ref_array"] * calibrate.NOMINAL_ARRAY_S)


def normalised_walls(passes) -> list[float]:
    """Pass times in seconds at reference speed."""
    return [sum(at_reference_speed(p)) for p in passes]


def tail(values, pct: int):
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def measure(args, workdir: Path, import_s: float, prov: dict):
    import tracing
    import workloads
    peaks = run_child(args, "memory") if args.trace else None

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer:
        tracer.install(tracing.library_targets())
        setup_id = tracer.open("setup", "setup")
    cold_setup(wl, tracer)
    reference = wl.result()
    if tracer:
        tracer.close(setup_id)
    setup_samples = [normalised_setup(import_s + time.perf_counter() - t0)]

    if tracer:
        gate_id = tracer.open("gate", "gate")
    checks = wl.gate()
    if tracer:
        tracer.close(gate_id)
        tracer.uninstall()

    info = {}
    if not args.trace:
        # fresh-process set-ups spread over the run, so that setup_s samples
        # the same machine states as the passes
        fresh_setup = [lambda: setup_samples.append(run_child(args, "setup"))
                       ] * (SETUP_REPEATS - 1)
        passes = timed_passes(wl, reference, args.seconds, MIN_PASSES, checks,
                              side_tasks=fresh_setup)
        walls = normalised_walls(passes)
        wall_s = statistics.median(walls)
        tail_s, beyond = tail(walls, TAIL_PCT)
        info = {"passes": len(passes), "tail_percentile": TAIL_PCT, "tail_beyond": beyond,
                "raw_wall_s": statistics.median(p["wall"] for p in passes),
                "calibration_s": statistics.median(p["ref"] for p in passes),
                "array_calibration_s": statistics.median(p["ref_array"] for p in passes),
                "setup_samples": setup_samples, "passes_raw": passes}
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
            "wall_s": wall_s,
            "wall_tail_s": tail_s,
            "ns_per_eval": 1e9 * wall_s / statistics.median(p["points"] for p in passes),
            "overhead_x": statistics.median(outside / inside for outside, inside in
                                            map(at_reference_speed, passes)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        untraced = timed_passes(wl, reference, args.seconds / 2, MIN_TRACE_PASSES, checks)
        tracer.install(tracing.library_targets())
        tracer.install(trace_targets(wl))
        traced = timed_passes(wl, reference, args.seconds / 2, MIN_TRACE_PASSES, checks, tracer)
        tracer.uninstall()
        index = tracing.SpanIndex(tracer.spans)
        pass_ids = [p["span"] for p in traced]
        tracing.require_names(index, pass_ids, wl.pass_spans, "the traced passes")
        tracing.require_names(index, [setup_id], wl.pass_spans + wl.setup_spans, "set-up")
        tracing.require_names(index, [gate_id], wl.gate_spans, "the correctness gate")
        metrics = tracing.median_layers(index, pass_ids)
        metrics.update(tracing.setup_layers(index, setup_id))
        metrics.update(peaks)
        metrics["trace.overhead_frac"] = (statistics.median(normalised_walls(traced))
                                          / statistics.median(normalised_walls(untraced)) - 1.0)
        info = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                "spans": len(tracer.spans)}
        tracer.write_jsonl(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                           {"provenance": prov, "workload": args.workload})
    return metrics, checks, info


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import stratmc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if args.probe:
            print(json.dumps(probe(args, Path(tmp))))
            return 0
        prov = provenance(args.seed)
        metrics, checks, info = measure(args, Path(tmp), import_s, prov)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark did not compute: {', '.join(missing)}")
    failed = [c for c in checks if not c.ok]
    for check in failed:
        print(f"FAILED {check.name}: {check.detail}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"provenance: {json.dumps(prov)}")
    for m in wanted:
        print(f"  {m['name']:<32} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"  wall_tail_s is p{info['tail_percentile']} of {info['passes']} passes "
              f"({info['tail_beyond']} beyond); setup_s is the median of "
              f"{len(info['setup_samples'])} set-ups")
        print(f"  times are at reference speed; raw median pass {info['raw_wall_s']:.6g} s, "
              f"calibration loops {info['calibration_s']:.6g} s and "
              f"{info['array_calibration_s']:.6g} s")
    print(f"  fail_frac = {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks)")
    record = {**result, "workload": args.workload, "trace": args.trace,
              "provenance": prov, "info": info}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
