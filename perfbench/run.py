"""Closed-loop benchmark of the ``filmhom`` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cells --seed 1 --seconds 36 --trace 0

One client drives ``filmhom.cli.main`` in-process, one CLI call after
another, each with ``--reproducible``.  A session is one pass over the
workload's calls.  A run makes a fixed number of sessions, derived from
``--seconds`` and the workload's nominal session time, so every run of a
workload reports the same statistic however fast the machine is.  Every
result row is checked against its reference.

``--trace 0`` reports the end-to-end metrics (medians over sessions).
``--trace 1`` runs one untraced warm-up session and one traced session and
reports the per-layer metrics; the spans go to
``.perfbench-out/trace-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed; it is 2, with no result line, when the
checkout holds no ``src/filmhom`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15      # set-up time is the median of at least this many set-ups
# Nominal seconds per session on a 2-core x86-64 VM; a run makes
# max(1, seconds // nominal) sessions.
SESSION_SECONDS = {"cells": 10.5, "film": 9.5, "gamma": 18.0}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(root, workload, seed, smoke, dest):
    """Import the program, then write and validate the workload's configs.

    Returns (seconds, filmhom module, steps, config paths)."""
    t0 = time.perf_counter()
    import filmhom
    import filmhom.cli
    from filmhom.config import load_config
    from filmhom.errors import ConfigurationError

    if Path(filmhom.__file__).resolve().parent != (root / "src" / "filmhom").resolve():
        _fail(f"imported filmhom from {filmhom.__file__}, not from this checkout")
    steps = WORKLOADS[workload](seed, smoke)
    paths = []
    for i, step in enumerate(steps):
        path = dest / f"{i}-{step.command}.json"
        path.write_text(json.dumps(step.config, sort_keys=True), encoding="utf-8")
        try:
            load_config(path)
        except ConfigurationError as err:
            _fail(f"generated config {path.name} is invalid: {err}")
        paths.append(path)
    return time.perf_counter() - t0, filmhom, steps, paths


def setup_samples(args, count):
    """``count`` set-ups in fresh processes, so import time counts every time."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=False)
        if done.returncode != 0:
            _fail(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_session(cli_main, steps, paths, workdir, tracer=None):
    """One pass over the workload's CLI calls.

    Returns (wall seconds, CPU seconds, rows attempted, failure messages)."""
    attempted, failures = 0, []
    outs = [workdir / f"{i}-{step.command}" for i, step in enumerate(steps)]
    t0, c0 = time.perf_counter(), time.process_time()
    codes = []
    for step, path, out in zip(steps, paths, outs):
        argv = [step.command, "--config", str(path), "--out", str(out),
                "--reproducible", *step.flags]
        span = tracer.open("cli.main") if tracer else None
        try:
            codes.append(cli_main(argv))
        except Exception:
            # an uncaught error fails the call, as it would fail the command
            traceback.print_exc()
            codes.append("uncaught exception")
        finally:
            if span:
                tracer.close(span)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    for step, out, code in zip(steps, outs, codes):
        attempted += step.rows
        if code != 0:
            failures += [f"{step.command}: exit code {code}"] * step.rows
            continue
        try:
            failures += step.check(out, step)
        except (OSError, KeyError, ValueError) as err:
            failures += [f"{step.command}: unreadable output: {err!r}"] * step.rows
    shutil.rmtree(workdir, ignore_errors=True)
    return wall, cpu, attempted, failures


def _last_level_cache():
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def environment(root):
    import numpy

    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas, "num_threads": threads or "default",
            "last_level_cache": _last_level_cache()}


def traced_run(args, env, filmhom, steps, paths, tmp, out_root):
    """An untraced warm-up session, then a traced one; returns (sessions,
    layer metrics)."""
    sessions = [run_session(filmhom.cli.main, steps, paths, tmp / "s0")]
    tracer = spans.Tracer()
    restore = spans.install(tracer, filmhom)
    try:
        sessions.append(run_session(filmhom.cli.main, steps, paths, tmp / "s1", tracer))
    finally:
        restore()
    metrics = spans.layer_metrics(tracer.spans, sessions[1][0], spans.span_cost())
    counters = spans.work_counters(tracer.spans, [s.command for s in steps])
    path = out_root / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed,
                              "smoke": args.smoke, "environment": env,
                              "work_counters": counters})
    print(f"trace: {len(tracer.spans)} spans in {path.relative_to(out_root.parent)}")
    print("work counters: " + json.dumps(counters, sort_keys=True))
    return sessions, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: the same code paths in seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "filmhom" / "__init__.py").is_file():
        _fail(f"no src/filmhom under {root}; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    out_root = root / ".perfbench-out"
    out_root.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(prefix="run-", dir=out_root) as tmp:
        tmp = Path(tmp)
        setup_s, filmhom, steps, paths = setup(
            root, args.workload, args.seed, args.smoke, tmp)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        env = environment(root)
        if args.trace:
            sessions, metrics = traced_run(args, env, filmhom, steps, paths, tmp,
                                           out_root)
        else:
            count = max(1, int(args.seconds // SESSION_SECONDS[args.workload]))
            sessions, setups = [], []
            for i in range(count):
                sessions.append(run_session(filmhom.cli.main, steps, paths,
                                            tmp / f"s{i}"))
                # set-up probes follow every session, so they sample the
                # machine's state across the whole run
                setups += setup_samples(args, -(-SETUP_SAMPLES // count))
            print("set-up samples, s: " + " ".join(f"{x:.3f}" for x in setups))
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(s[0] for s in sessions),
                "cpu_s": statistics.median(s[1] for s in sessions),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }

    attempted = sum(s[2] for s in sessions)
    failures = [msg for s in sessions for msg in s[3]]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        _fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} rows, "
          f"fail_rate {len(failures) / attempted:.4f}, session wall_s "
          + " ".join(f"{s[0]:.3f}" for s in sessions))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for msg in sorted(set(failures)):
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


def metric_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
