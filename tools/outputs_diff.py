"""Compare the ``--reproducible`` outputs of the benchmark's CLI steps between
a git revision and the working tree.

Run from the root of a checkout:

    python tools/outputs_diff.py REV

REV (any git revision: a commit, a branch, ``HEAD~1``) is extracted with
``git archive`` into a temporary directory.  The six CLI steps of
``perfbench/workloads.py`` (the four ``cells`` steps, ``film`` and
``gamma``) run at seeds 1 and 2, each with ``--reproducible``, once with
REV's ``src/`` and once with the working tree's, in fresh processes.  Both
sides read the same config files, written as ``perfbench/run.py`` writes
them.  The two output trees are then compared file by file.

Prints every file that moved (differs, or exists on one side only) and exits
1 if any did, 0 if every output is byte-identical, 2 if a step failed.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
WORKLOADS = ("cells", "film", "gamma")


def _steps(seed):
    """(name, step) of every CLI step of the benchmark's workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True      # leave perfbench/ as it is
    try:
        from workloads import WORKLOADS as defined
    finally:
        sys.path.pop(0)
    for workload in WORKLOADS:
        for i, step in enumerate(defined[workload](seed)):
            yield f"seed{seed}-{workload}-{i}-{step.command}", step


def _extract(rev, dest):
    """REV's tracked files under ``dest``, a directory this makes
    (``tools/bench_ab.py`` imports it too)."""
    archive = dest.with_suffix(".tar")
    dest.mkdir()
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev],
                   check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()


def _run(tree, configs, out):
    """Every step with ``tree``'s ``src/``; returns one message per failed step."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    failed = []
    for name, (step, config) in configs.items():
        argv = [sys.executable, "-m", "filmhom", step.command, "--config",
                str(config), "--out", str(out / name), "--reproducible", *step.flags]
        done = subprocess.run(argv, env=env, cwd=out.parent, capture_output=True,
                              text=True, check=False)
        if done.returncode != 0:
            failed.append(f"{name}: exit {done.returncode}: {done.stderr.strip()}")
    return failed


def _moved(left, right):
    """Paths under two directories that differ or exist on one side only."""
    moved = []
    cmp = filecmp.dircmp(left, right)
    stack = [(cmp, Path())]
    while stack:
        cmp, rel = stack.pop()
        moved += [rel / name
                  for name in cmp.left_only + cmp.right_only + cmp.funny_files]
        _, mismatch, errors = filecmp.cmpfiles(cmp.left, cmp.right, cmp.common_files,
                                               shallow=False)
        moved += [rel / name for name in mismatch + errors]
        stack += [(sub, rel / name) for name, sub in cmp.subdirs.items()]
    return sorted(moved)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="outputs-diff-") as tmp:
        tmp = Path(tmp)
        base = tmp / "tree"
        _extract(args.rev, base)
        (tmp / "configs").mkdir()
        configs = {}
        for seed in SEEDS:
            for name, step in _steps(seed):
                path = tmp / "configs" / f"{name}.json"
                path.write_text(json.dumps(step.config, sort_keys=True),
                                encoding="utf-8")
                configs[name] = (step, path)
        failed = []
        for side, tree in (("rev", base), ("work", ROOT)):
            (tmp / side).mkdir()
            failed += [f"{side} {msg}" for msg in _run(tree, configs, tmp / side)]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 2
        moved = _moved(tmp / "rev", tmp / "work")
        for path in moved:
            print(f"moved: {path}")
        files = sum(1 for path in (tmp / "rev").rglob("*") if path.is_file())
        print(f"{len(moved)} files moved between {args.rev} and the working tree "
              f"({files} output files of {len(configs)} CLI steps at {args.rev})")
        return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
