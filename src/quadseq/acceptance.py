"""Numbered acceptance criteria: the end-to-end promises the package is
tested against, each one exact-arithmetic at desk scale.

Every criterion function builds what it needs, runs its checks, and
returns a CriterionResult whose ``line()`` is the one-line verdict;
``run_all`` executes them in order.  The expensive shared fixture (one
hundred argmin runs of ten thousand steps) is built once and cached.

Criteria 1-6 and 8-10 decide through the check registry, the code that
``quadseq run --checks`` runs: 1 and 2 read ``eq631`` and ``bound63``,
3-5 ``series-sum``, 6 the ``thm33a`` rule ``forms.order_drop_verdict``,
8 ``videal-chain``, 9 ``tau-bound``, 10 ``prop344`` and
``change-of-direction``, beside oracles of their own such as the laws of
3-5.  Criterion 7 reads the bracketing ``forms.power_bracketing_report``.

Criterion 2 fails by design of the world, not of the code: its collapse
certificate asks every run's frame to shrink below 1e-6, but runs in
three or more directions typically lock onto a proper subset of the
directions and keep a positive leftover on the others, so their sums
converge strictly below the ceiling.  The two-direction runs all
certify; the verdict line carries the per-dimension tally.

Criterion 10 keeps the raw draws whose argmin run uses every direction
within 300 steps.  It stops a draw as soon as
``SequenceState.idle_directions`` certifies that a direction the run
has not used is never stepped.  The certificate is exact and never
fires in two directions, so the kept draws are exactly the covering
ones.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .checks import CheckResult, RunArtifacts, collect_artifacts, run_checks
from .forms import (MonomialForm, order_drop_report, order_drop_verdict,
                    power_bracketing_report, ratio_limit_report)
from .gallery import (
    _FRACTION_POOL,
    Scenario,
    diagonal_frame,
    gen_713,
    gen_714,
    gen_dvr,
    gen_notunion_rr1,
    gen_random_independent,
    gen_shannon_418,
    replay_states,
)
from .monomials import monomial_value
from .sequence import ParameterFrame, SequenceState
from .values import RealBasis
from .videals import enumerate_values, videal_at, videal_chain


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    summary: str
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        word = "PASS" if self.ok else "FAIL"
        return f"criterion {self.number:2d} {word} - {self.title}: {self.summary}"


# -- shared fixture: random argmin runs ----------------------------------------

RUN_DIMS = (2, 3, 4, 5)
SEEDS_PER_DIM = 25
RUN_STEPS = 10_000
TINY = Fraction(1, 10**6)

_runs_cache: dict[tuple[int, int], tuple[CheckResult, CheckResult, bool]] | None = None
_runs_seconds: float = 0.0


def shared_runs() -> dict[tuple[int, int], tuple[CheckResult, CheckResult, bool]]:
    """The ``eq631`` and ``bound63`` results of each fixture run, keyed by
    (d, seed), with whether the final running sum is certified to lie
    within 1e-6*d/(d-1) of the ceiling.

    The collapse certificate is read off the final state only.  Along
    monomial steps no frame value ever grows (the stepped value stays,
    the others drop by it), so the frame is below 1e-6 at some step
    n <= 10^4 exactly when it is at step 10^4.  Only the results are
    cached: the runs' histories of 10^4 records each would cost hundreds
    of MB.
    """
    global _runs_cache, _runs_seconds
    if _runs_cache is not None:
        return _runs_cache
    t0 = time.perf_counter()
    out = {}
    for d in RUN_DIMS:
        tol = TINY * d / (d - 1)
        for seed in range(1, SEEDS_PER_DIM + 1):
            art = collect_artifacts(gen_random_independent(d, seed, steps=RUN_STEPS))
            eq631, bound63 = run_checks(
                art, ["eq631", "bound63"], {"small_threshold": TINY})
            gap = art.final.series_bound() - art.final.partial_sum
            near = gap.evaluate_interval(tol / 4)[1] < tol
            out[d, seed] = (eq631, bound63, near)
    _runs_seconds = time.perf_counter() - t0
    _runs_cache = out
    return out


# -- criteria ------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    runs = shared_runs()
    bad = [run for run, (eq631, _, _) in runs.items() if eq631.verdict != "pass"]
    ok = not bad and _runs_seconds < 60.0
    if bad:
        summary = f"conservation identity broke in runs {bad[:5]}"
    else:
        summary = (
            f"{len(runs)} argmin runs x {RUN_STEPS} steps: conservation exact at "
            f"every step; sweep took {_runs_seconds:.1f}s (target 60s)"
        )
    return CriterionResult(
        1, "conservation identity on random runs", ok, summary,
        {"failures": bad, "sweep_seconds": _runs_seconds},
    )


def criterion_2() -> CriterionResult:
    runs = shared_runs()
    ceiling_bad = [run for run, (_, bound63, _) in runs.items()
                   if bound63.verdict != "pass"]
    missing = [
        run for run, (_, bound63, near) in runs.items()
        if not (bound63.detail.get("frame_below_threshold") and near)
    ]
    certified = {
        d: SEEDS_PER_DIM - sum(1 for md, _ in missing if md == d) for d in RUN_DIMS
    }
    ok = not ceiling_bad and not missing
    tally = ", ".join(f"d={d}: {certified[d]}/{SEEDS_PER_DIM}" for d in RUN_DIMS)
    summary = (
        f"ceiling E <= (initial sum)/(d-1) exact at every step in all {len(runs)} "
        f"runs; collapse certificate (max frame value < 1e-6 by N <= {RUN_STEPS}, "
        f"pinning E to within 1e-6*d/(d-1) of the ceiling) reached in {tally}. "
        "Runs that lock onto a proper subset of the directions keep a positive "
        "leftover on the idle coordinates, so their sums stop strictly below "
        "the ceiling and the certificate is unreachable."
    )
    return CriterionResult(
        2, "series ceiling and frame-collapse certificate", ok, summary,
        {"ceiling_failures": ceiling_bad, "certified_by_dim": certified,
         "uncertified_runs": missing},
    )


def _episode_sums_hold(art: RunArtifacts, laws: dict[int, Fraction]) -> bool:
    """Whether ``series-sum`` passes at all ``len(laws)`` boundaries, not
    vacuously at fewer, and the preset's closed form equals each ``laws[k]``."""
    (res,) = run_checks(art, ["series-sum"])
    return (res.verdict == "pass" and res.detail["episodes"] == len(laws)
            and all(art.scenario.sum_after_episodes(k) == law for k, law in laws.items()))


def criterion_3() -> CriterionResult:
    sc = gen_shannon_418(episodes=30)
    laws = {k: Fraction(8, 3) * (1 - Fraction(1, 4) ** k) for k in range(1, 31)}
    sums_ok = _episode_sums_hold(collect_artifacts(sc), laws)
    ok = sums_ok and sc.expected_limit == Fraction(8, 3)
    summary = (
        "episode sums equal (8/3)(1 - (1/4)^k) exactly for k <= 30; limit 8/3"
        if ok
        else f"episode sums {sums_ok}, limit {sc.expected_limit}"
    )
    return CriterionResult(
        3, "geometric episode sums reach 8/3", ok, summary,
        {"sums": sums_ok},
    )


def criterion_4() -> CriterionResult:
    sc = gen_notunion_rr1(steps=40)
    basis = sc.frame.basis
    art = collect_artifacts(sc)
    # record 2k is the step worth 2^-k, record 2k+1 the rescale worth 2^-(k+1)
    m_ok = all(
        rec.m_value == basis.rational(Fraction(1, 2) ** (divmod(j, 2)[0] + divmod(j, 2)[1]))
        for j, rec in enumerate(art.final.history)
    )
    sums_ok = _episode_sums_hold(
        art, {k: 3 - 3 * Fraction(1, 2) ** k for k in range(1, 21)})
    art3 = collect_artifacts(gen_notunion_rr1(steps=40, embed3d=True))
    windows = range(1, art3.final.step_count + 1)
    (witness,) = run_checks(art3, ["switching-witness"], {"windows": list(windows)})
    starving = witness.detail["starving_by_window"]
    spectator = all("z" in starving[w] for w in windows)
    pinned = all(starving[w] == ["z"] for w in windows[1:])
    ok = m_ok and sums_ok and spectator and pinned and sc.expected_limit == Fraction(3)
    summary = (
        "step values follow the halving law, episode sums equal 3 - 3*(1/2)^k "
        "exactly, and the 3-dim embedding starves z in every window"
        if ok
        else f"m-law {m_ok}, sums {sums_ok}, z-starving {spectator and pinned}"
    )
    return CriterionResult(
        4, "alternating-pair sums reach 3 with a starving spectator", ok, summary,
        {"m_law": m_ok, "sums": sums_ok, "spectator": spectator, "pinned": pinned},
    )


def criterion_5() -> CriterionResult:
    detail = {}
    all_ok = True
    for sc in (gen_713(episodes=1000), gen_714(episodes=1000)):
        if sc.name == "gmr-7.13":
            laws = {k: k + 2 - 2 * Fraction(1, 2) ** k for k in range(1, 1001)}
        else:
            laws = {}
            acc = Fraction(3)
            laws[1] = acc
            for k in range(2, 1001):
                acc += 1 + Fraction(1, 4) ** (k - 1)
                laws[k] = acc
        art = collect_artifacts(sc)
        laws_ok = _episode_sums_hold(art, laws)
        # each episode's bracketed group is the record that opens it:
        # record 0, then the record after each boundary but the last
        basis = sc.frame.basis
        opens = {0, *sc.boundaries}
        running = basis.zero()
        k = 0
        groups_ok = floor_ok = True
        for n, rec in enumerate(art.final.history):
            term = rec.m_value.scale(rec.count)
            running = running + term
            if n in opens:
                k += 1
                groups_ok &= term == basis.rational(1)
                floor_ok &= running.cmp(basis.rational(k)) >= 0
        groups_ok &= k == len(sc.boundaries)
        this_ok = laws_ok and groups_ok and floor_ok and sc.diverges
        detail[sc.name] = {
            "laws": laws_ok, "unit_groups": groups_ok,
            "sum_dominates_group_count": floor_ok,
        }
        all_ok &= this_ok
    summary = (
        "both doubling scenarios: 1000 exact episode sums, every bracketed "
        "group sums to exactly 1, and the running sum dominates the group "
        "count throughout"
        if all_ok
        else f"divergence bookkeeping failed: {detail}"
    )
    return CriterionResult(
        5, "bracketed groups force divergence", all_ok, summary, detail,
    )


def criterion_6() -> CriterionResult:
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for dim in (2, 3):
        for length in range(1, 7):
            for word in itertools.product(range(dim), repeat=length):
                if not order_drop_verdict(order_drop_report(dim, word, max_degree=3)):
                    bad.append((dim, word))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    summary = (
        f"{checked} words (d=2,3; lengths 1..6): covering words strictly drop "
        f"every nonunit form, missing-direction words keep the single-variable "
        f"witness constant ({elapsed:.1f}s, target 30s)"
        if not bad
        else f"dichotomy failed for {bad[:5]}"
    )
    return CriterionResult(
        6, "order-drop dichotomy, exhaustively", ok, summary,
        {"words_checked": checked, "failures": bad},
    )


def criterion_7() -> CriterionResult:
    basis = RealBasis.default(2)
    frame = ParameterFrame([basis.rational(1), basis.value([0, 1])])
    f, g = MonomialForm([(0, 1)]), MonomialForm([(1, 0)])
    rep = ratio_limit_report(frame, f, g, 60)

    def close(p: int, q: int) -> bool:
        # |p/q - sqrt(2)| < 1/1000, settled in integers
        lo, hi = 1000 * p - q, 1000 * p + q
        if lo >= 0 and lo * lo >= 2 * (1000 * q) ** 2:
            return False
        return 2 * (1000 * q) ** 2 < hi * hi

    flags = [close(e["ordF"], e["ordG"]) for e in rep["trace"]]
    n0 = len(flags) + 1
    for i in range(len(flags) - 1, -1, -1):
        if not flags[i]:
            break
        n0 = i + 1
    # bracketing as in the limit argument: p = floor(q*sqrt(2)); whenever
    # both power quotients f^q/g^p and g^(p+1)/f^q lie in the current ring,
    # the order ratio must land in [p/q, (p+1)/q) -- checked in integers
    # at every reported step, on orders that match the ratio trace
    orders = [(e["ordF"], e["ordG"]) for e in rep["trace"]]
    fired = {}
    bracket_ok = True
    orders_match = True
    for q in range(1, 13):
        p = math.isqrt(2 * q * q)
        rows = power_bracketing_report(frame, f, g, p, q, 60)
        orders_match = orders_match and [(r["ordF"], r["ordG"]) for r in rows] == orders
        hits = [r for r in rows if r["lower_divides"] and r["divides_upper"]]
        fired[q] = len(hits)
        bracket_ok = bracket_ok and all(
            p * r["ordG"] <= q * r["ordF"] < (p + 1) * r["ordG"] for r in hits)
    every_q_fired = all(c > 0 for c in fired.values())
    lim = rep["limit"]
    lo = Fraction(lim["interval"]["lo"]) if lim["kind"] == "irrational" else None
    hi = Fraction(lim["interval"]["hi"]) if lim["kind"] == "irrational" else None
    limit_ok = (
        lim["kind"] == "irrational"
        and lo > 0
        and lo * lo <= 2 <= hi * hi
    )
    ok = (
        n0 <= 30
        and all(flags[n0 - 1:])
        and bracket_ok
        and every_q_fired
        and orders_match
        and limit_ok
    )
    summary = (
        f"order ratio within 1e-3 of sqrt(2) from n0={n0} on (need <= 30); "
        f"floor-pair bracketing held at every step it applied "
        f"({sum(fired.values())} firings across q=1..12); limit enclosure "
        f"straddles sqrt(2)"
        if ok
        else f"n0={n0}, bracket_ok={bracket_ok}, fired={fired}, limit_ok={limit_ok}"
    )
    return CriterionResult(
        7, "order ratio approaches sqrt(2) with bracketing", ok, summary,
        {"n0": n0, "fired": fired, "orders_match": orders_match},
    )


_TIGHT_POOL = [Fraction(3, 4), Fraction(7, 8), Fraction(1), Fraction(9, 8), Fraction(5, 4)]


def criterion_8() -> CriterionResult:
    frames = (
        [(2, s) for s in range(1, 9)]
        + [(3, s) for s in range(1, 8)]
        + [(4, s) for s in range(1, 6)]
    )
    problems = []
    longest = 0
    for d, seed in frames:
        rng = random.Random(8000 + 97 * d + seed)
        frame = diagonal_frame([rng.choice(_TIGHT_POOL) for _ in range(d)])
        # independent values make the check demand colength 1 throughout
        (res,) = run_checks(Scenario("criterion-8", frame, mode="argmin"),
                            ["videal-chain"], {"chain_length": 50})
        if res.verdict != "pass" or not res.detail["independent_values"]:
            problems.append((d, seed, "first 50 ideals: no colength-1 descent"))
        monos = [m for m in itertools.product(range(6), repeat=d) if sum(m) <= 5]
        mvalues = {m: monomial_value(frame.values, m) for m in monos}
        ladder = enumerate_values(frame, max(mvalues.values()))
        chain = videal_chain(frame, len(ladder))
        longest = max(longest, len(chain))
        if [e["threshold"] for e in chain] != ladder:
            problems.append((d, seed, "thresholds are not the attained values"))
            continue
        for m, vm in mvalues.items():
            hits = [e for e in chain if e["threshold"] == vm]
            if len(hits) != 1 or videal_at(frame, vm) != hits[0]["ideal"]:
                problems.append((d, seed, f"contraction of {m} not a chain member"))
                break
    ok = not problems
    summary = (
        f"20 frames (8/7/5 over d=2/3/4): first 50 ideals descend strictly with "
        f"colength 1; every degree<=5 monomial's contraction equals the chain "
        f"member at its value (longest chain {longest})"
        if ok
        else f"chain defects: {problems[:5]}"
    )
    return CriterionResult(
        8, "valuation-ideal chains and contraction membership", ok, summary,
        {"problems": problems, "longest_chain": longest},
    )


def criterion_9() -> CriterionResult:
    basis = RealBasis.default(2)
    frame = ParameterFrame([basis.rational(1), basis.value([0, 1])])
    sc = Scenario("criterion-9", frame, mode="argmin")
    bad = []
    prefixes = []
    for n in range(1, 21):
        (res,) = run_checks(sc, ["tau-bound"], {"n_ideals": n})
        prefixes.append(res.detail.get("prefix_length"))
        if res.verdict != "pass":
            bad.append(n)
    ok = not bad
    summary = (
        f"least principality prefix re-verified and minimal for chain lengths "
        f"1..20 (prefixes {prefixes[0]}..{prefixes[-1]})"
        if ok
        else f"prefix wrong for chain lengths {bad}"
    )
    return CriterionResult(
        9, "principality prefix is exact and minimal", ok, summary,
        {"prefixes": prefixes, "bad": bad},
    )


def criterion_10() -> CriterionResult:
    per_dim = 50
    cap = 300
    relabel_bad = []
    agree_bad = []
    starved = []
    attempts_by_dim = {}
    gaps_by_dim = {}
    for d in RUN_DIMS:
        # plain pool draws with no shaping: coverage is the only
        # conditioning applied to these runs
        rng = random.Random(777000 + d)
        accepted = 0
        attempts = 0
        gaps = []
        while accepted < per_dim and attempts < 200_000:
            attempts += 1
            frame = diagonal_frame([rng.choice(_FRACTION_POOL) for _ in range(d)])
            st = SequenceState.from_frame(frame)
            used: set[int] = set()
            for _ in range(cap):
                if st.idle_directions() - used:
                    break  # a direction not yet used is never stepped
                st, w = st.step_argmin()
                used.add(w)
                if len(used) == d:
                    break
            if len(used) < d:
                continue
            accepted += 1
            # every prefix is compared: the check's default cap is 30
            prop344, moved = run_checks(
                Scenario("criterion-10", frame, mode="argmin", steps=st.step_count),
                ["prop344", "change-of-direction"], {"prefix_cap": st.step_count})
            if prop344.verdict != "pass":
                relabel_bad.append((d, attempts, prop344.detail))
            else:
                gaps.append(prop344.detail["report"]["gap_integer"])
            if moved.verdict != "pass":
                agree_bad.append((d, attempts, moved.detail))
        attempts_by_dim[d] = attempts
        if gaps:
            gaps_by_dim[d] = (min(gaps), max(gaps))
        if accepted < per_dim:
            starved.append(d)
    ok = not relabel_bad and not agree_bad and not starved
    summary = (
        f"200 covering argmin runs (50 per d=2..5, drawn from "
        f"{attempts_by_dim} raw attempts): first-use relabeling gives strict "
        f"ascent, the integer gap squeeze (s ranging over {gaps_by_dim}) and "
        f"prefix dominance in every run; the value-drop and ideal-order "
        f"movement predicates agree on every prefix"
        if ok
        else (
            f"relabel failures {relabel_bad[:3]}, predicate disagreements "
            f"{agree_bad[:3]}, starved dims {starved}"
        )
    )
    return CriterionResult(
        10, "first-use relabeling laws on covering runs", ok, summary,
        {"attempts_by_dim": attempts_by_dim, "gap_range_by_dim": gaps_by_dim,
         "relabel_bad": relabel_bad, "agree_bad": agree_bad},
    )


def criterion_11() -> CriterionResult:
    sc = gen_dvr(d=2, steps=10_000)
    basis = sc.frame.basis
    bad_at = None
    records = 0
    for n, st in enumerate(replay_states(sc), start=1):
        records = n
        if st.partial_sum.cmp(basis.rational(n)) < 0:
            bad_at = n
            break
    ok = bad_at is None and records == 10_000
    summary = (
        f"integer-valued preset: running sum >= record count at each of "
        f"{records} records"
        if ok
        else f"running sum fell below the record count at n={bad_at}"
    )
    return CriterionResult(
        11, "integer-valued runs grow at least linearly", ok, summary,
        {"records": records, "first_shortfall": bad_at},
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the selected criteria (all of them by default), in order, each
    result carrying the wall-clock seconds its criterion took."""
    wanted = set(numbers) if numbers else set(range(1, len(CRITERIA) + 1))
    results = []
    for i, fn in enumerate(CRITERIA, start=1):
        if i in wanted:
            t0 = time.perf_counter()
            results.append(fn())
            results[-1].seconds = time.perf_counter() - t0
    return results
