"""Run the benchmark on a git revision and on the working tree, in
alternating pairs, and print both sides' numbers.

Run from the root of a checkout:

    python tools/bench_ab.py REV [--pairs K] [--workload NAME ...]

REV (any git revision: a commit, a branch, ``HEAD~1``) is extracted with
``git archive`` into a temporary directory.  Two trees are built there that
differ in ``src/`` alone, REV's in one and the working tree's in the other;
both get the working tree's ``perfbench/`` and ``BENCHMARK.json``, so one
harness measures both sides (``perfbench/run.py`` refuses a ``filmhom``
imported from outside its own checkout, hence the copies).  For each workload, K pairs (default 10) run ``perfbench/run.py
--trace 0`` at the run length that ``BENCHMARK.json`` sets: pair k runs at
seed k on both sides, REV first when k is odd and the working tree first
when k is even.  Then each side makes one ``--trace 1`` run at seed 1.

Prints, per workload and end-to-end metric: both medians, the interquartile
range of REV's runs (``statistics.quantiles``, inclusive method), and in
how many pairs the working tree read lower (ties counted apart); then every
pair, and whether the two traced runs recorded equal work counters.  It reports and does not judge: the bounds
stay in ``BENCHMARK.json``.  Exits 2 if a run failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# a sibling script: tools/ is on sys.path when this one runs as a script
from outputs_diff import _extract

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "work")        # REV, the working tree: names of one length
COUNTERS = "work counters: "


def _trees(rev, tmp):
    """Two checkouts that differ in ``src/`` alone, REV's and the working
    tree's, each with the working tree's harness; returns {side: root}."""
    _extract(rev, tmp / "rev")
    skip = shutil.ignore_patterns("__pycache__", ".perfbench-out")
    trees = {}
    for side, src in zip(SIDES, (tmp / "rev" / "src", ROOT / "src")):
        trees[side] = tmp / side
        shutil.copytree(src, trees[side] / "src", ignore=skip)
        shutil.copytree(ROOT / "perfbench", trees[side] / "perfbench", ignore=skip)
        shutil.copy2(ROOT / "BENCHMARK.json", trees[side] / "BENCHMARK.json")
    shutil.rmtree(tmp / "rev")
    return trees


def _run(tree, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run: (metrics, work counters or None), or
    a message where it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return f"{tree.name} {workload} seed {seed}: exit {done.returncode}: " \
               f"{done.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    counters = [json.loads(line[len(COUNTERS):]) for line in lines
                if line.startswith(COUNTERS)]
    return ({name: m["value"] for name, m in result["metrics"].items()},
            counters[0] if counters else None)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _report(workload, names, pairs):
    """The summary table of one workload, then its pairs."""
    print(f"\n{workload}: {len(pairs)} pairs (base = REV, work = working tree)")
    print(f"  {'metric':<12} {'base median':>12} {'work median':>12} "
          f"{'base IQR':>10} {'work lower':>11} {'ties':>5}")
    for name in names:
        base = [p["base"][name] for p in pairs]
        work = [p["work"][name] for p in pairs]
        q1, q3 = _quartiles(base)
        lower = sum(w < b for b, w in zip(base, work))
        ties = sum(w == b for b, w in zip(base, work))
        print(f"  {name:<12} {statistics.median(base):>12.6g} "
              f"{statistics.median(work):>12.6g} {q3 - q1:>10.3g} "
              f"{f'{lower}/{len(pairs)}':>11} {ties:>5}")
    for i, pair in enumerate(pairs):
        first = SIDES[i % 2]
        cells = "  ".join(f"{name} {pair['base'][name]:.6g}/{pair['work'][name]:.6g}"
                          for name in names)
        print(f"  pair {i + 1} (seed {i + 1}, {first} first): {cells}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (default 10)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defined = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=defined,
                        help="a workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = [m["name"] for m in spec["end_to_end"]]

    failed = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = _trees(args.rev, Path(tmp))
        for workload in args.workload or defined:
            pairs = []
            for i in range(args.pairs):
                pair = {}
                for side in SIDES[i % 2:] + SIDES[:i % 2]:
                    got = _run(trees[side], workload, i + 1, spec["run_seconds"], 0)
                    if isinstance(got, str):
                        failed.append(got)
                        break
                    pair[side] = got[0]
                if len(pair) == 2:
                    pairs.append(pair)
            if pairs:
                _report(workload, names, pairs)
            traced = {side: _run(trees[side], workload, 1, spec["run_seconds"], 1)
                      for side in SIDES}
            failed += [got for got in traced.values() if isinstance(got, str)]
            if not any(isinstance(got, str) for got in traced.values()):
                same = traced["base"][1] == traced["work"][1]
                print(f"  traced runs at seed 1: work counters "
                      f"{'equal' if same else 'differ'}")
                if not same:
                    for side in SIDES:
                        print(f"    {side}: {json.dumps(traced[side][1], sort_keys=True)}")
            sys.stdout.flush()
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
