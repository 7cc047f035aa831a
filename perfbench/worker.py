"""One benchmark process for one workload; started by run.py.

``--mode probe`` measures set-up only: import quadseq, build the
workload's inputs and run the warm-up, then exit.  ``--mode
run`` does the same set-up, then runs whole passes of jobs in a closed
loop (one client, no threads) until the summed job time reaches the
budget.  Throughput is the median over passes of work per second of job
time, so a short stall on a shared machine moves it less than a mean.
Only ``run_job`` is timed: the workload's ``prepare`` runs before the
timer starts, and each job's output is verified right after it stops,
so verification stays outside the timed and the traced regions.  With ``--trace 1`` the budget is split: the first half
runs untraced, the second half with the span recorder installed.

The result is written as one JSON object to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import quadseq  # noqa: E402  (timed as part of set-up)

if not os.path.abspath(quadseq.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"quadseq imported from {quadseq.__file__}, not from {SRC}")

import workloads  # noqa: E402
from tracer import GROUPS, SpanRecorder  # noqa: E402

class Loop:
    """Closed-loop runner: whole passes, verification between jobs."""

    def __init__(self, wl, reference: dict):
        self.wl = wl
        self.reference = reference
        self.problems: list[str] = []

    def check(self, out: dict) -> bool:
        try:
            problems, digests = self.wl.verify(out)
        except Exception:  # a malformed output is a failed job, not a crash
            problems, digests = [traceback.format_exc(limit=3)], {}
        problems += workloads.check_digests(digests, self.reference)
        self.problems += problems[:3]
        return not problems

    def run(self, budget: float, recorder: SpanRecorder | None = None) -> dict:
        times: list[float] = []
        work = 0
        failed = 0
        report_bytes = []
        pass_rates = []  # work per second of job time, one entry per pass
        wall0 = time.perf_counter()
        clock = time.perf_counter
        # verification runs between jobs, so bound the wall time as well
        while sum(times) < budget and clock() - wall0 < 2 * budget + 15:
            pass_start, pass_work = len(times), work
            for k in range(self.wl.JOBS):
                out = error = None
                self.wl.prepare(k)
                if recorder is not None:
                    recorder.on = True
                t = clock()
                try:
                    out = self.wl.run_job(k)
                except Exception:  # a job that raises counts as failed
                    error = traceback.format_exc(limit=2)
                dt = clock() - t
                if recorder is not None:
                    recorder.on = False
                times.append(dt)
                if error is not None:
                    failed += 1
                    self.problems.append(f"job {k} raised: {error}")
                    continue
                if not self.check(out):
                    failed += 1
                work += out.get("work", 0)
                if "report_bytes" in out:
                    report_bytes.append(out["report_bytes"])
            pass_rates.append((work - pass_work) / sum(times[pass_start:]))
        return {"times": times, "work": work, "failed": failed,
                "busy_s": sum(times), "report_bytes": report_bytes,
                "throughput": statistics.median(pass_rates)}


def tail_percentile(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has ten samples above it.

    That is the value at rank n - 10 of n sorted job times; returns
    (percentile, value, samples beyond).  With fewer than 20 jobs it
    falls back to the median and says how many lie beyond.
    """
    xs = sorted(times)
    n = len(xs)
    idx = n - 11 if n >= 20 else (n - 1) // 2
    return 100.0 * (idx + 1) / n, xs[idx], n - idx - 1


def per_layer(rec: SpanRecorder, jobs: int, busy_s: float) -> tuple[dict, int]:
    """Per-layer metrics (value, unit) per job, and the number of spans."""
    summ = rec.summary()
    spans = summ["spans"]
    out = {}
    for group in GROUPS:
        if group == "sequence.step_argmin":
            rows = [spans.get(f"sequence.step_argmin@d{d}") for d in range(1, 7)]
            rows = [r for r in rows if r]
            calls = sum(r["calls"] for r in rows)
            self_s = sum(r["self_s"] for r in rows)
        else:
            row = spans.get(group, {"calls": 0, "self_s": 0.0})
            calls, self_s = row["calls"], row["self_s"]
        out[f"{group}.calls"] = (calls / jobs, "1/job")
        out[f"{group}.self_s"] = (self_s / jobs, "s/job")
    for d in workloads.ArgminSweep.DIMS:
        row = spans.get(f"sequence.step_argmin@d{d}")
        us = 1e6 * row["incl_s"] / row["calls"] if row and row["calls"] else 0.0
        out[f"sequence.step_argmin.us_per_call.d{d}"] = (us, "us")
    out["values.interval.bits_max"] = (rec.bits_max, "bits")
    out["trace_coverage"] = (summ["top_level_s"] / busy_s, "ratio")
    return out, summ["span_count"]


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "threads_pinned": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "PYTHONHASHSEED")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "not a git checkout"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.warmup()
    setup_s = time.perf_counter() - _T0

    result = {"setup_s": setup_s}
    if args.mode == "probe":
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]
    loop = Loop(wl, reference)

    if args.trace:
        plain = loop.run(args.seconds / 2)
        rec = SpanRecorder()
        rec.install()
        try:
            traced = loop.run(args.seconds / 2, rec)
        finally:
            rec.uninstall()
        layers, span_count = per_layer(rec, len(traced["times"]), traced["busy_s"])
        stem = os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}")
        rec.dump(stem)
        layers["trace_overhead"] = (traced["throughput"] / plain["throughput"], "ratio")
        rb = traced["report_bytes"]
        layers["cli.report_bytes"] = (statistics.mean(rb) if rb else 0.0, "B/job")
        runs = [plain, traced]
        result.update(layers={k: list(v) for k, v in layers.items()},
                      span_count=span_count, spans_file=stem + ".bin")
    else:
        plain = loop.run(args.seconds)
        runs = [plain]
        times = plain["times"]
        p, tail, beyond = tail_percentile(times)
        result.update(
            throughput=plain["throughput"],
            job_p50_s=statistics.median(times),
            job_tail_s=tail, tail_percentile=p, tail_beyond=beyond,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    result.update(
        attempted=attempted, failed=failed, correct=failed == 0,
        problems=loop.problems[:10], work_unit=wl.work_unit,
        busy_s=sum(r["busy_s"] for r in runs), env=environment(),
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
