"""quadseq benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload argmin-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and measures the package under
``src/``.  The workload runs in its own single-threaded process, started
with a pinned environment (one BLAS/OpenMP thread, fixed hash seed, and
a bytecode cache of its own under ``.perfbench_work/pycache``).  With
``--trace 0`` extra fresh interpreters measure set-up time: one untimed
probe fills the bytecode cache, then half of the timed probes run before
the measuring process and half after it.  The reported ``setup_s`` is
the median of the timed probes and the measuring process's own set-up.
With ``--trace 1`` the per-layer metrics are reported instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every job's output was verified, 1 when some output was
wrong, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("argmin-sweep", "preset-reports", "algebra-sweep")
SETUP_PROBES = 12  # timed; half before the measuring process, half after
DEADLINE_S = 170.0
WORK = os.path.join(ROOT, ".perfbench_work")

PINNED_ENV = {
    # numpy links a threaded OpenBLAS; videals runs a float matrix product
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # every interpreter reads the same bytecode cache, whatever __pycache__
    # directories the checkout happens to hold; the untimed probe fills it
    "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
}

E2E = (
    ("throughput", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_worker(mode: str, args, workdir: str, result: str, env: dict,
               timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    with open(result) as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "quadseq", "__init__.py")):
        return fail(f"no quadseq sources under {os.path.join(ROOT, 'src')}")

    deadline = time.monotonic() + DEADLINE_S
    # an inherited PYTHONDONTWRITEBYTECODE would leave the cache empty
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def probe(i: int) -> float:
        res = run_worker("probe", args, os.path.join(work, f"probe{i}"),
                         os.path.join(work, f"probe{i}.json"), env,
                         min(40.0, deadline - time.monotonic()))
        return res["setup_s"]

    setups = []
    try:
        probes = SETUP_PROBES // 2 if not args.trace else 0
        probe(-1)  # untimed: fills the bytecode cache
        setups += [probe(i) for i in range(probes)]
        res = run_worker("run", args, os.path.join(work, "main"),
                         os.path.join(work, "main.json"), env,
                         deadline - time.monotonic())
        setups.append(res["setup_s"])
        setups += [probe(i) for i in range(probes, 2 * probes)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        values = {
            "throughput": res["throughput"],
            "job_p50_s": res["job_p50_s"],
            "job_tail_s": res["job_tail_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E}

    env_info = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"busy {res['busy_s']:.1f}s")
    print(f"env: python {env_info['python']}  numpy {env_info['numpy']}  "
          f"nproc {env_info['nproc']}  cpu {env_info['cpu']}  "
          f"commit {env_info['commit']}  pinned {env_info['threads_pinned']}")
    notes = {
        "throughput": f"{res['work_unit']} per second",
        "job_p50_s": f"median of {attempted} jobs",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ok_ratio": f"{attempted - failed}/{attempted} jobs verified",
    }
    if not args.trace:
        notes["job_tail_s"] = (f"p{res['tail_percentile']:.1f} of {attempted} jobs, "
                               f"{res['tail_beyond']} beyond")
    else:
        notes["trace_coverage"] = f"{res['span_count']} spans in {res['spans_file']}"
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:7s} {notes.get(name, '')}")
    for p in res["problems"]:
        print(f"  problem: {p.strip()}")
    correct = res["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
