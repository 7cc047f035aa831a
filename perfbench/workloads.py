"""The three workloads: inputs from a seed, one job, and its verification.

A workload builds its inputs once, as a *pass*: a fixed list of jobs.
The measuring loop runs whole passes.  ``run_job`` is the timed region;
``verify`` runs outside it and returns a list of problems (empty means
the job's output is correct).  Each job output carries ``digests``: a
map from a reference key to a digest of the exact result.  Keys present
in ``reference.json`` must match; keys absent from it (a seed that was
not recorded) are checked by the exact invariants alone.

Every library function is looked up on the ``quadseq`` package (or the
``quadseq.cli`` module) at call time, so the traced run sees the wrapped
versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
from fractions import Fraction

import quadseq
import quadseq.cli

EPS = Fraction(1, 10**6)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _coeffs(v) -> str:
    return ",".join(f"{c.numerator}/{c.denominator}" for c in v.coeffs)


def _isqrt2_brackets(lo: Fraction, hi: Fraction) -> bool:
    """0 < lo <= sqrt(2) <= hi, in integers."""
    return (lo > 0 and lo.numerator ** 2 <= 2 * lo.denominator ** 2
            and 2 * hi.denominator ** 2 <= hi.numerator ** 2)


class Workload:
    """A fixed list of ``JOBS`` jobs built from a seed."""

    def prepare(self, k: int) -> None:
        """Untimed step before job ``k``."""

    def warmup(self) -> None:
        """Untimed, before the loop: job 0 once, so the caches it uses are hot."""
        self.prepare(0)
        self.run_job(0)


# -- argmin-sweep ----------------------------------------------------------------


class ArgminSweep(Workload):
    """Library only: argmin stepping with the exact invariants after every step.

    A job runs one random square-root frame per dimension d = 2..5 for
    STEPS steps each (10^4 ``step_argmin`` calls in all), with
    ``conservation_check`` and ``bound_gap_sign`` after every step and a
    collapse test through ``evaluate_interval`` every 100 steps.

    The warm-up runs every frame of the pass for WARM_STEPS steps.  The
    cost of a step depends on the frame, so a warm-up over all 32 frames
    costs about the same on every seed, where job 0 alone (four frames)
    varied by half from seed to seed.
    """

    name = "argmin-sweep"
    work_unit = "argmin steps"
    JOBS = 8
    DIMS = (2, 3, 4, 5)
    STEPS = 2500
    WARM_STEPS = 250

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # the preset generator draws the frames, outside any timed region
        self.jobs = [
            [quadseq.build_preset("random", steps=self.STEPS, d=d,
                                  seed=seed * 1000 + 10 * k + d).frame
             for d in self.DIMS]
            for k in range(self.JOBS)
        ]

    def warmup(self) -> None:
        for k in range(self.JOBS):
            self.run_job(k, self.WARM_STEPS)

    def run_job(self, k: int, steps: int = STEPS) -> dict:
        runs = []
        for frame in self.jobs[k]:
            st = quadseq.SequenceState.from_frame(frame)
            word = bytearray()
            conserved = True
            below_ceiling = True
            collapse_at = None
            for n in range(1, steps + 1):
                st, w = st.step_argmin()
                word.append(w)
                conserved = st.conservation_check() and conserved
                below_ceiling = st.bound_gap_sign() > 0 and below_ceiling
                if collapse_at is None and n % 100 == 0 and all(
                    v.evaluate_interval(EPS / 4)[1] < EPS for v in st.frame_values
                ):
                    collapse_at = n
            runs.append({"d": frame.dim, "word": bytes(word),
                         "partial_sum": st.partial_sum, "steps": st.step_count,
                         "conserved": conserved, "below_ceiling": below_ceiling,
                         "collapse_at": collapse_at})
        return {"k": k, "runs": runs, "work": sum(r["steps"] for r in runs)}

    def verify(self, out: dict) -> tuple[list[str], dict]:
        problems = []
        record = []
        for r in out["runs"]:
            d = r["d"]
            if not r["conserved"]:
                problems.append(f"d={d}: conservation identity broke")
            if not r["below_ceiling"]:
                problems.append(f"d={d}: bound_gap_sign() <= 0 at some step")
            if r["steps"] != self.STEPS or len(r["word"]) != self.STEPS:
                problems.append(f"d={d}: {r['steps']} steps, expected {self.STEPS}")
            if any(w >= d for w in r["word"]):
                problems.append(f"d={d}: direction outside 0..{d - 1}")
            record.append(f"{d}|{r['word'].hex()}|{_coeffs(r['partial_sum'])}"
                          f"|{r['collapse_at']}")
        return problems, {f"s{self.seed}/j{out['k']}": sha("\n".join(record))}


# -- preset-reports --------------------------------------------------------------


class PresetReports(Workload):
    """The user's report path: ``quadseq run --checks all --out DIR`` in process.

    One job is one preset, at thousands of trace records.  Sizes give
    each job about the same time (0.6-0.7 s on a 2-vCPU Xeon VM), so the
    job-time distribution has no gap for the tail percentile to straddle.
    ``gmr-7.14`` stops at 300 episodes (1201 records): its O(k^2)
    episode laws make 500 episodes (2001 records) cost more than twice
    any other job.
    """

    name = "preset-reports"
    work_unit = "trace records"
    # name -> CLI arguments after "run"; the random preset takes the seed
    RANDOM_STEPS = 2200
    SIZES = (
        ("random", ["--preset", "random", "--steps", str(RANDOM_STEPS)]),
        ("dvr", ["--preset", "dvr", "--steps", "4000"]),
        ("gmr-7.13", ["--preset", "gmr-7.13", "--steps", "950"]),
        ("gmr-7.14", ["--preset", "gmr-7.14", "--steps", "300"]),
        ("shannon-4.18", ["--preset", "shannon-4.18", "--steps", "700"]),
        ("rr1", ["--config", "{config}", "--steps", "2500"]),
    )
    # the warm-up: every preset once, small, so each path and cache is hot.
    # A full job would add a seed-dependent cost to setup_s.
    WARM_STEPS = {"random": "50", "dvr": "50", "gmr-7.13": "5", "gmr-7.14": "5",
                  "shannon-4.18": "5", "rr1": "50"}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        config = os.path.join(workdir, "rr1-embed3d.json")
        with open(config, "w") as fh:
            json.dump({"preset": "rr1", "preset_options": {"embed3d": True}}, fh)
        self.jobs = []
        for name, args in self.SIZES:
            argv = ["run"] + [a.replace("{config}", config) for a in args]
            if name == "random":
                argv += ["--seed", str(seed)]
            out = os.path.join(workdir, name)
            self.jobs.append((name, argv + ["--checks", "all", "--out", out], out))
        self.JOBS = len(self.jobs)

    def _run(self, argv: list[str]) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return quadseq.cli.main(argv)

    def warmup(self) -> None:
        for name, argv, _out in self.jobs:
            argv = list(argv)
            argv[argv.index("--steps") + 1] = self.WARM_STEPS[name]
            argv[argv.index("--out") + 1] += "-warm"
            self._run(argv)

    def prepare(self, k: int) -> None:
        # a fresh directory, so verify() never reads an earlier job's files
        shutil.rmtree(self.jobs[k][2], ignore_errors=True)

    def run_job(self, k: int) -> dict:
        name, argv, out = self.jobs[k]
        rc = self._run(argv)
        return {"k": k, "name": name, "rc": rc, "out": out}

    def verify(self, out: dict) -> tuple[list[str], dict]:
        name = out["name"]
        problems = []
        if out["rc"] != 0:
            problems.append(f"{name}: exit code {out['rc']}")
        report_path = os.path.join(out["out"], "report.json")
        trace_path = os.path.join(out["out"], "trace.csv")
        with open(report_path) as fh:
            report = json.load(fh)
        with open(trace_path) as fh:
            rows = sum(1 for _ in fh) - 1
        verdicts = {c["check"]: c["verdict"] for c in report["checks"]}
        if set(verdicts) != set(quadseq.list_checks()):
            problems.append(f"{name}: checks run {sorted(verdicts)}")
        bad = {c: v for c, v in verdicts.items() if v not in ("pass", "not applicable")}
        if bad:
            problems.append(f"{name}: failing checks {bad}")
        if rows != len(report["trace"]) or rows < 1:
            problems.append(f"{name}: {rows} CSV rows vs {len(report['trace'])} in the report")
        if name == "random" and rows != self.RANDOM_STEPS:
            problems.append(f"random: {rows} records, expected {self.RANDOM_STEPS}")
        out["work"] = rows
        out["report_bytes"] = os.path.getsize(report_path)
        key = f"random/s{self.seed}" if name == "random" else name
        return problems, {f"{key}/report": file_sha(report_path),
                          f"{key}/trace": file_sha(trace_path)}


# -- algebra-sweep ---------------------------------------------------------------


_TIGHT_POOL = (Fraction(3, 4), Fraction(7, 8), Fraction(1), Fraction(9, 8), Fraction(5, 4))


class AlgebraSweep(Workload):
    """Library only: valuation ideals, forms and monomial values.

    Job k takes three tightly clustered frames, one each for d = 2, 3, 4,
    through ``videal_chain(frame, 50)``, ``enumerate_values`` up to the
    last threshold, ``videal_at`` at every threshold and
    ``monomial_value`` over every monomial of degree <= 5.  It also runs
    ``tau_bound`` on frame0 = (1, sqrt 2) for chain lengths k + 1 and
    k + 1 + JOBS, and ``order_drop_report`` on every JOBS-th word of
    length <= 5 over d = 2, 3.  Job 0 adds one ``ratio_limit_report``.
    Every job has the same mix, so job times form one cluster.
    """

    name = "algebra-sweep"
    work_unit = "jobs"
    JOBS = 8
    DIMS = (2, 3, 4)
    CHAIN = 50
    MAX_DEGREE = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = random.Random(seed)
        self.frames = []
        for _k in range(self.JOBS):
            frames = []
            for d in self.DIMS:
                basis = quadseq.RealBasis.default(d)
                vals = []
                for i in range(d):
                    vec = [Fraction(0)] * d
                    vec[i] = rng.choice(_TIGHT_POOL)
                    vals.append(basis.value(vec))
                frames.append(quadseq.ParameterFrame(vals))
            self.frames.append(frames)
        self.monomials = {
            d: [m for m in itertools.product(range(self.MAX_DEGREE + 1), repeat=d)
                if sum(m) <= self.MAX_DEGREE]
            for d in self.DIMS
        }
        words = [(d, w) for d in (2, 3) for n in range(1, 6)
                 for w in itertools.product(range(d), repeat=n)]
        self.words = [words[k::self.JOBS] for k in range(self.JOBS)]
        b2 = quadseq.RealBasis.default(2)
        self.frame0 = quadseq.ParameterFrame([b2.rational(1), b2.value([0, 1])])

    def _battery(self, frame) -> dict:
        chain = quadseq.videal_chain(frame, self.CHAIN)
        return {
            "chain": chain,
            "ladder": quadseq.enumerate_values(frame, chain[-1]["threshold"]),
            "at": [quadseq.videal_at(frame, e["threshold"]) for e in chain],
            "mvalues": [(m, quadseq.monomial_value(frame.values, m))
                        for m in self.monomials[frame.dim]],
        }

    def run_job(self, k: int) -> dict:
        batteries = [self._battery(frame) for frame in self.frames[k]]
        taus = {n: quadseq.tau_bound(self.frame0, n) for n in (k + 1, k + 1 + self.JOBS)}
        drops = [(d, w, quadseq.order_drop_report(d, w)) for d, w in self.words[k]]
        ratio = None
        if k == 0:
            ratio = quadseq.ratio_limit_report(
                self.frame0, quadseq.MonomialForm([(0, 1)]),
                quadseq.MonomialForm([(1, 0)]), 60)
        return {"k": k, "batteries": batteries, "taus": taus, "drops": drops,
                "ratio": ratio, "work": 1}

    def _check_battery(self, b: dict, where: str) -> list[str]:
        chain = b["chain"]
        problems = []
        thresholds = [e["threshold"] for e in chain]
        if len(chain) != self.CHAIN:
            problems.append(f"{where}: chain has {len(chain)} entries")
        for x, y in zip(chain, chain[1:]):
            if not (y["threshold"].cmp(x["threshold"]) > 0
                    and all(x["ideal"].contains(g) for g in y["ideal"].generators)
                    and x["ideal"] != y["ideal"]):
                problems.append(f"{where}: chain does not descend strictly at {y['n']}")
                break
        if any(e["colength"] != 1 for e in chain):
            problems.append(f"{where}: colength != 1 on an independent frame")
        if b["ladder"] != thresholds:
            problems.append(f"{where}: enumerate_values differs from the chain thresholds")
        if any(i != e["ideal"] for i, e in zip(b["at"], chain)):
            problems.append(f"{where}: videal_at differs from the chain member")
        index = {t: n for n, t in enumerate(thresholds)}
        top = thresholds[-1]
        for m, v in b["mvalues"]:
            if v.cmp(top) <= 0 and (v not in index
                                    or not chain[index[v]]["ideal"].contains(m)):
                problems.append(f"{where}: monomial {m} not in the chain member at its value")
                break
        return problems

    def verify(self, out: dict) -> tuple[list[str], dict]:
        k = out["k"]
        problems = []
        digests = {}
        for d, b in zip(self.DIMS, out["batteries"]):
            where = f"j{k}/d{d}"
            problems += self._check_battery(b, where)
            digests[f"s{self.seed}/{where}/chain"] = sha("\n".join(
                f"{_coeffs(e['threshold'])}|{e['colength']}|"
                f"{sorted(e['ideal'].generators)}" for e in b["chain"]))
        for d, w, rep in out["drops"]:
            ok = (rep["all_drop"] and rep["orders_monotone"] if rep["full_coverage"]
                  else rep["witness_constant"])
            if not ok:
                problems.append(f"j{k}: order-drop dichotomy fails for d={d} word {w}")
        digests[f"order_drop/j{k}"] = sha(repr([
            (d, w, sorted((key, repr(val)) for key, val in rep.items()))
            for d, w, rep in out["drops"]]))
        for n, tau in out["taus"].items():
            digests[f"tau/{n}"] = str(tau)
        if out["ratio"] is not None:
            lim = out["ratio"]["limit"]
            if not (lim["kind"] == "irrational" and _isqrt2_brackets(
                    Fraction(lim["interval"]["lo"]), Fraction(lim["interval"]["hi"]))):
                problems.append("ratio limit enclosure does not straddle sqrt(2)")
            digests["ratio"] = sha(json.dumps(out["ratio"], sort_keys=True))
        return problems, digests


WORKLOADS = {w.name: w for w in (ArgminSweep, PresetReports, AlgebraSweep)}


def check_digests(digests: dict, reference: dict) -> list[str]:
    return [f"{key}: digest {got[:12]} != reference {reference[key][:12]}"
            for key, got in sorted(digests.items())
            if key in reference and reference[key] != got]
