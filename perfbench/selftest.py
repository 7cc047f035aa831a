"""Self-test of the benchmark's own checks: a check must be able to fail.

    python3 perfbench/selftest.py

Each case runs a short ``preset-reports`` benchmark in a copied tree
under ``.perfbench_work/selftest``:

1. a copy of ``perfbench/`` and ``src/`` exits 0 with ok_ratio 1;
2. the same copy with one reference digest flipped in its
   ``reference.json`` exits nonzero, reports ``correct: false`` and
   ok_ratio < 1;
3. a copy holding only BENCHMARK.json and perfbench/ (no sources) exits
   nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TREE = os.path.join(ROOT, ".perfbench_work", "selftest")
FLIPPED = "dvr/report"  # seed-independent, so checked on every seed


def make_tree(with_src: bool, flip: bool) -> None:
    shutil.rmtree(TREE, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(TREE, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), TREE)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(TREE, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    if flip:
        path = os.path.join(TREE, "perfbench", "reference.json")
        with open(path) as fh:
            ref = json.load(fh)
        digest = ref["preset-reports"][FLIPPED]
        ref["preset-reports"][FLIPPED] = ("0" if digest[0] != "0" else "1") + digest[1:]
        with open(path, "w") as fh:
            json.dump(ref, fh)


def bench() -> tuple[int, dict | None, str]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", "preset-reports", "--seed", "0", "--seconds", "4",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=TREE, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res = None
    return proc.returncode, res, proc.stdout


def main() -> int:
    failures = []
    try:
        make_tree(with_src=True, flip=False)
        rc, res, _ = bench()
        if rc != 0 or not res or res["metrics"]["ok_ratio"]["value"] != 1.0:
            failures.append(f"clean run: rc={rc}, result={res}")

        make_tree(with_src=True, flip=True)
        rc, res, _ = bench()
        if rc == 0 or not res or res["correct"] or not res["metrics"]["ok_ratio"]["value"] < 1:
            failures.append(f"flipped {FLIPPED} digest was not caught: rc={rc}, result={res}")

        make_tree(with_src=False, flip=False)
        rc, res, out = bench()
        if rc == 0 or res is not None:
            failures.append(f"tree without sources: rc={rc}, stdout={out[-300:]!r}")
    finally:
        shutil.rmtree(TREE, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok (3/3)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
