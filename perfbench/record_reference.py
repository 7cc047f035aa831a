"""Record the reference digests that the benchmark's verification compares to.

    PYTHONHASHSEED=0 python3 perfbench/record_reference.py

Runs every job of every workload once for each seed in SEEDS and writes
``perfbench/reference.json``.  Every job must pass its exact invariant
checks first; a key produced by several seeds (a seed-independent
result) must give the same digest each time.  Re-record only when an
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import git_commit  # noqa: E402

SEEDS = range(32)


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    out = {"_meta": {"commit": git_commit(), "seeds": [SEEDS[0], SEEDS[-1]]}}
    for name, cls in workloads.WORKLOADS.items():
        table: dict[str, str] = {}
        for seed in SEEDS:
            wdir = os.path.join(work, name, str(seed))
            os.makedirs(wdir)
            wl = cls(seed, wdir)
            for k in range(wl.JOBS):
                wl.prepare(k)
                problems, digests = wl.verify(wl.run_job(k))
                if problems:
                    raise SystemExit(f"{name} seed {seed} job {k}: {problems}")
                for key, value in digests.items():
                    if table.setdefault(key, value) != value:
                        raise SystemExit(f"{name}: {key} differs between seeds")
            print(f"{name} seed {seed}: {len(table)} keys", file=sys.stderr)
        out[name] = dict(sorted(table.items()))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
