"""Prints the repr of every job output on the benchmark pools.

Usage, from the root of a source checkout:

    python3 tools/record_outputs.py [--seeds 0 7 101]

For each workload of perfbench/workloads.py and each seed, this draws the
pool, relabels it by the seed as the benchmark does, runs every job of
every case once and prints one line per job:

    <workload> <seed> <case> <job> <repr of the output>

A job that raises prints the exception's repr instead. A case's jobs run
on one Instance object, as in the benchmark, so later jobs read the
search state earlier ones left on it (the walks, tables and constants an
instance shares), and the record covers that sharing. The record covers
plans, costs, tilts, surrogate values, ``enumerated``, exact errors and
Monte Carlo estimates, so a refactor that should not change any answer can
be checked by diffing the record of two checkouts, for instance the parent
commit checked out with ``git worktree add``:

    python3 tools/record_outputs.py > change.txt
    python3 ../parent/tools/record_outputs.py > parent.txt
    diff parent.txt change.txt

The package is imported from the ``src/`` next to this directory, and
perfbench/workloads.py only read: no bytecode is written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7, 101)


def main(argv: list[str] | None = None) -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)

    def call(name, fn, *a, **kw):
        return fn(*a, **kw)

    for name, workload in workloads.WORKLOADS.items():
        pool = workload.draw(workload.draws, call)
        for seed in args.seeds:
            texts = workloads.serialize(pool, seed)
            for case, text in enumerate(texts):
                inst = workloads.load_checked(text)
                try:
                    results = workload.run_case(inst, call).results
                except Exception as exc:  # recorded, so both sides must raise alike
                    results = {"case": exc}
                for job, out in results.items():
                    print(f"{name} {seed} {case} {job} {out!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
