"""Check that the benchmark is steady: repeat it with different seeds and
compare the spread of each end-to-end metric with its bound, and check that
the deterministic work counters repeat exactly.

Run from the root of a source checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads gamma

For every workload and end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median of the runs.  A spread above the
metric's bound fails, and one above a third of it is flagged.  The counter
check makes traced runs with two seeds, the first of them twice: counters of
steps that do not use the seed must agree across all of them, and counters
of seeded steps between the two runs of one seed.  Where the unseeded counters differ from those
recorded in ``work_counters.json``, the difference is reported: it shows
which work a change to the program moved.

Exits non-zero when a run fails, a spread exceeds its bound, or a counter
differs between runs.  The raw numbers go to ``.perfbench-out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(done.stderr)
    return done.returncode, result, time.perf_counter() - t0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def check_timings(spec, workloads, runs, seed0, record):
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(runs):
            code, result, elapsed = run(workload, seed0 + i, spec["run_seconds"], 0)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed0 + i}: FAILED (exit {code})")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed0 + i}: {elapsed:.1f} s, "
                  + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        record[workload] = values
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            verdict = "ok"
            if sp > bounds[name] / 3:
                verdict = "wide"
            if sp > bounds[name]:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {workload:6s} {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {sp:.4f}  bound {bounds[name]}  {verdict}", flush=True)
    return ok


def _counters(workload, seed):
    path = Path.cwd() / ".perfbench-out" / f"trace-{workload}-{seed}.jsonl"
    with path.open(encoding="utf-8") as fh:
        return json.loads(fh.readline())["work_counters"]


def check_counters(spec, workloads, seed0, record):
    ok = True
    recorded = json.loads((HERE / "work_counters.json").read_text(encoding="utf-8"))
    for workload in workloads:
        seeded = {s.command for s in WORKLOADS[workload](0) if s.seeded}
        got = []
        for seed in (seed0, seed0 + 1, seed0):
            code, result, _ = run(workload, seed, spec["run_seconds"], 1)
            if code != 0:
                print(f"{workload} traced seed {seed}: FAILED (exit {code})")
                ok = False
                break
            got.append((seed, _counters(workload, seed)))
        record[workload] = got
        if not got:
            continue
        problems, moved = [], []
        for step in got[0][1]:
            runs = [(seed, counters[step]) for seed, counters in got]
            if step in seeded:
                runs = [r for r in runs if r[0] == seed0]
            if any(c != runs[0][1] for _, c in runs):
                problems.append(f"{step}: " + "; ".join(f"seed {s}: {c}" for s, c in runs))
            want = recorded.get(workload, {}).get(step)
            if step not in seeded and runs[0][1] != want:
                moved.append(f"{step}: {runs[0][1]} (recorded {want})")
        print(f"{workload} work counters: " + ("identical across runs" if not problems
                                               else "NOT STEADY: " + "; ".join(problems)))
        if moved:
            print(f"{workload} work counters differ from work_counters.json: "
                  + "; ".join(moved))
        ok &= not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS),
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"timings": {}, "counters": {}, "runs": args.runs, "seed0": args.seed0}
    ok = check_timings(spec, args.workloads, args.runs, args.seed0, record["timings"])
    ok &= check_counters(spec, args.workloads, args.seed0, record["counters"])
    out = Path.cwd() / ".perfbench-out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(("steady" if ok else "NOT STEADY") + f"; numbers in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
