"""Repeat the benchmark over seeds and summarise: median, quartiles, spread.

    python3 perfbench/sweep.py --runs 10 [--workloads argmin-sweep ...]
                               [--first-seed 1] [--out FILE]

Each run is one invocation of run.py with its own seed, one after the
other.  For every end-to-end metric the summary holds the ten values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median, and marks it against the metric's bound
in BENCHMARK.json.  Use it for a baseline, and for a
before/after: the same command on two checkouts of the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for wl in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            tail_note = next((ln for ln in lines if ln.strip().startswith("job_tail_s")), "")
            runs.append({"seed": seed, "attempted": res["attempted"],
                         "failed": res["failed"], "correct": res["correct"],
                         "tail_note": " ".join(tail_note.split()[3:]),
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
                file=sys.stderr)
        if not runs:
            continue
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "n": len(values), "values": values, "bound": bounds[name],
                           "within_third_of_bound": spread < bounds[name] / 3}
        summary[wl] = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
                       "jobs_per_run": [r["attempted"] for r in runs],
                       "tail": [r["tail_note"] for r in runs],
                       "all_correct": all(r["correct"] for r in runs),
                       "metrics": stats}
        for name, row in stats.items():
            flag = "  ok" if row["within_third_of_bound"] else "  WIDE"
            print(f"{wl:15s} {name:44s} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                  f"spread {row['spread']:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
