"""Named verification checks runnable against any scenario.

The registry keys are the stable interface strings used by configs and
the command line; each entry of ``CHECKS`` holds a check and its
explanation.  ``OPTIONS`` declares every option the checks read, and
``run_checks`` holds every caller to it.  Each check inspects the
RunArtifacts of one replay, which ``quadseq run`` also builds its trace
from, and returns a verdict:

- "pass"           the claimed property held everywhere it was tested
- "fail"           a counterexample was found; the detail names it
- "not applicable" the scenario does not satisfy the check's hypotheses
                   (the detail says which one is missing)

Checks never weaken their claim to fit a scenario: a divergent or
rescaling plan gets "not applicable" from a bounded-sum check rather
than a vacuous pass.

A question asked of a run's history is answered here, from the records
of ``final.history``, by the check that asks it; the step engine hands
the records out and reports nothing about them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    AmbiguousDirection,
    CensusTooLarge,
    ConfigError,
    NotTerminated,
    QuadseqError,
    RatioUndefined,
    UnknownCheck,
)
from .forms import (ANTICHAIN_CAP, MonomialForm, order_drop_report,
                    order_drop_verdict, ratio_limit_report)
from .gallery import Scenario, _to_int, _to_rational, replay_states
from .monomials import MonomialIdeal, extend_ideal, monomial_value, rewrite_monomial
from .sequence import SequenceState, StepRecord, argmin_word, prefix_dominance
from .values import ValueVector, rational_rank
from .videals import ideal_value, short_chain_report, tau_bound, videal_chain

# every option a check reads: (default, least value).  small_threshold
# must exceed its least; a None default is worked out by the check from
# the run (the windows 1, 2, 5, 10, 20 and the carrying-record count; the
# monomials y and x for ratio_f and ratio_g).
OPTIONS: dict[str, tuple] = {
    "small_threshold": (Fraction(1, 10**6), 0),
    "chain_length": (12, 1),
    "n_ideals": (6, 1),
    "word_cap": (128, 1),
    "max_degree": (3, 1),
    "ratio_steps": (40, 1),
    "prefix_cap": (30, 1),
    "tau_max_steps": (200, 0),
    "windows": (None, 0),
    "ratio_f": (None, 0),
    "ratio_g": (None, 0),
}


@dataclass
class CheckResult:
    check: str
    verdict: str  # "pass" | "fail" | "not applicable"
    detail: dict

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"


@dataclass
class RunArtifacts:
    """Everything the per-step checks and the trace need, from one replay."""

    scenario: Scenario
    final: SequenceState
    conservation_fail_step: int | None  # None: the identity held at every record
    bound_fail_step: int | None  # None: the ceiling held at every record
    bound_reason: str  # why the ceiling does not apply; "" when it does
    boundary_sums: list[ValueVector]


def collect_artifacts(scenario: Scenario) -> RunArtifacts:
    """Gather per-step facts in one replay; ``final.history`` keeps every record.

    A record that cannot be taken raises ConfigError naming its index,
    chained from the stepping error.
    """
    has_rescale = scenario.mode == "scripted" and any(
        ps.kind == "rescale" for ps in scenario.plan
    )
    if has_rescale:
        bound_reason = (
            "coordinate rescales re-seed the frame, so no single ceiling applies"
        )
    elif scenario.frame.dim < 2:
        bound_reason = "the series bound needs at least two directions"
    else:
        bound_reason = ""
    conservation_fail = None
    bound_fail = None
    boundaries = set(scenario.boundaries)
    boundary_sums: dict[int, ValueVector] = {}
    n = 0  # records completed, so record n + 1 is the one in progress
    state = None
    try:
        for state in replay_states(scenario):
            if conservation_fail is None and not state.conservation_check():
                conservation_fail = n + 1
            if (not bound_reason and bound_fail is None
                    and state.bound_gap_sign() <= 0):
                bound_fail = n + 1
            n += 1
            if n in boundaries:
                boundary_sums[n] = state.partial_sum
    except QuadseqError as exc:
        raise ConfigError(f"scenario failed at record {n + 1}: {exc}") from exc
    return RunArtifacts(
        scenario=scenario,
        final=state or SequenceState.from_frame(scenario.frame),
        conservation_fail_step=conservation_fail,
        bound_fail_step=bound_fail,
        bound_reason=bound_reason,
        boundary_sums=[boundary_sums[b] for b in scenario.boundaries
                       if b in boundary_sums],
    )


# -- individual checks ---------------------------------------------------------


def _check_conservation(art: RunArtifacts, options: dict) -> CheckResult:
    detail = {"records": art.final.step_count}
    if art.conservation_fail_step is None:
        return CheckResult("eq631", "pass", detail)
    detail["first_failure_at"] = art.conservation_fail_step
    return CheckResult("eq631", "fail", detail)


def _check_series_bound(art: RunArtifacts, options: dict) -> CheckResult:
    if art.bound_reason:
        return CheckResult("bound63", "not applicable",
                           {"reason": art.bound_reason})
    final = art.final
    values = art.scenario.frame.values
    independent = rational_rank(values) == len(values)
    detail: dict = {
        "records": final.step_count,
        "bound": final.series_bound(),
        "running_sum": final.partial_sum,
        "independent_values": independent,
    }
    threshold = options["small_threshold"]
    tail_small = final.frame_below(threshold)
    detail["frame_below_threshold"] = tail_small
    detail["threshold"] = threshold
    if tail_small:
        d = final.dim
        detail["sum_within_of_bound"] = threshold * d / (d - 1)
    if art.bound_fail_step is None:
        return CheckResult("bound63", "pass", detail)
    detail["first_failure_at"] = art.bound_fail_step
    return CheckResult("bound63", "fail", detail)


def _check_switching_witness(art: RunArtifacts, options: dict) -> CheckResult:
    """Occupancy of the direction-carrying records: a monomial run counts
    with its multiplicity, a rescale that carries a direction once."""
    names = art.final.names
    carrying = [r for r in art.final.history if r.carries_direction]
    if not carrying:
        return CheckResult("switching-witness", "not applicable",
                           {"reason": "no direction-carrying steps"})
    windows = options["windows"] or [w for w in (1, 2, 5, 10, 20, len(carrying))
                                     if w <= len(carrying)]
    counts = dict.fromkeys(names, 0)
    for rec in carrying:
        counts[names[rec.direction]] += rec.count
    return CheckResult("switching-witness", "pass", {
        "starving_by_window": {w: _starving(carrying, w, names) for w in windows},
        "direction_counts": counts,
        "never_used": sorted(name for name, c in counts.items() if c == 0),
    })


def _starving(carrying: Sequence[StepRecord], window: int,
              names: Sequence[str]) -> list[str]:
    """The sorted names absent from the last ``window`` steps of the
    direction-carrying records ``carrying``, so the window may end inside
    a run.  A zero window is vacuous and starves nothing."""
    if window == 0:
        return []
    seen: set[int] = set()
    for rec in reversed(carrying):
        seen.add(rec.direction)
        window -= rec.count
        if window <= 0:
            break
    return sorted(name for i, name in enumerate(names) if i not in seen)


def _first_uses(history: Sequence[StepRecord]) -> dict[int, int]:
    """Each direction that a monomial record takes, in the order of first
    use, mapped to the 1-based position of its first step in the word of
    monomial steps (a run counts with its multiplicity; a rescale is no
    letter, whatever direction it carries)."""
    first: dict[int, int] = {}
    pos = 1
    for rec in history:
        if rec.kind == "monomial":
            first.setdefault(rec.direction, pos)
            pos += rec.count
    return first


def _check_order_drop(art: RunArtifacts, options: dict) -> CheckResult:
    final = art.final
    dim = final.dim
    cap = options["word_cap"]
    max_degree = options["max_degree"]
    # the word consists of the monomial steps only: a rescale may carry a
    # direction label, but it is not a letter the rewrite acts through
    history = final.history
    word = list(itertools.islice(itertools.chain.from_iterable(
        itertools.repeat(rec.direction, rec.count)
        for rec in history if rec.kind == "monomial"), cap))
    if not word:
        return CheckResult("thm33a", "not applicable",
                           {"reason": "no monomial steps in the plan"})
    first = _first_uses(history)
    if len(first) == dim:
        covering_len = max(first.values())
        if covering_len > cap:
            return CheckResult("thm33a", "not applicable", {
                "reason": "directions only covered beyond the sweep cap",
                "word_cap": cap,
            })
        word = word[:covering_len]
        detail: dict = {"mode": "full-coverage", "word_length": covering_len}
    else:
        detail = {"mode": "missing-direction", "missing_from_word": sorted(
            final.names[i] for i in range(dim) if i not in first)}
    try:
        detail["report"] = report = order_drop_report(dim, word, max_degree)
    except CensusTooLarge as exc:
        return CheckResult("thm33a", "not applicable", {
            "reason": str(exc),
            "antichain_cap": ANTICHAIN_CAP,
        })
    return CheckResult("thm33a", "pass" if order_drop_verdict(report) else "fail", detail)


def _check_first_use(art: RunArtifacts, options: dict) -> CheckResult:
    """Order the directions by first monomial use and test the initial
    frame in that order a_1, ..., a_d: strict ascent; an integer s >= 1
    with s*a_1 < a_2 < (s+1)*a_1; and (j-2)*a_j < a_1 + ... + a_(j-1) for
    every j >= 3."""
    final = art.final
    if final.had_rescale:
        return CheckResult("prop344", "not applicable",
                           {"reason": "frame was rescaled mid-run"})
    order = list(_first_uses(final.history))
    if len(order) < final.dim:
        missing = [name for i, name in enumerate(final.names) if i not in order]
        return CheckResult("prop344", "not applicable",
                           {"reason": f"directions never used: {missing}"})
    a = [art.scenario.frame.values[i] for i in order]
    ascending = all(a[j].cmp(a[j + 1]) < 0 for j in range(len(a) - 1))
    gap_integer = _gap_integer(a[0], a[1]) if ascending and len(a) >= 2 else None
    dominance = prefix_dominance(a)
    report = {
        "order": tuple(final.names[i] for i in order),
        "ascending": ascending,
        "gap_integer": gap_integer,
        "prefix_dominance": dominance,
        "all_hold": ascending and gap_integer is not None and dominance,
    }
    return CheckResult("prop344", "pass" if report["all_hold"] else "fail",
                       {"report": report})


def _gap_integer(a1: ValueVector, a2: ValueVector) -> int | None:
    """The integer s >= 1 with s*a1 < a2 < (s+1)*a1, for 0 < a1 < a2, or
    None when there is none."""
    s = 1
    while a2.cmp(a1.scale(2 * s)) > 0:
        s *= 2
    lo, hi = s // 2, 2 * s  # a2 < 2s*a1 now; the floor lies in [lo, hi)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if a2.cmp(a1.scale(mid)) > 0:
            lo = mid
        else:
            hi = mid
    s = max(lo, 1)
    if a1.scale(s).cmp(a2) < 0 and a2.cmp(a1.scale(s + 1)) < 0:
        return s
    return None


def _check_ratio_limit(art: RunArtifacts, options: dict) -> CheckResult:
    sc = art.scenario
    if sc.mode != "argmin":
        return CheckResult("ratio-limit", "not applicable",
                           {"reason": "order ratios are tracked along argmin runs"})
    dim = sc.frame.dim
    f_sup = options["ratio_f"] or [tuple(1 if i == 1 else 0 for i in range(dim))]
    g_sup = options["ratio_g"] or [tuple(1 if i == 0 else 0 for i in range(dim))]
    steps = min(options["ratio_steps"], sc.steps or options["ratio_steps"])
    try:
        report = ratio_limit_report(
            sc.frame, MonomialForm(f_sup, dim), MonomialForm(g_sup, dim), steps)
    except (RatioUndefined, AmbiguousDirection) as exc:
        return CheckResult("ratio-limit", "not applicable", {"reason": str(exc)})
    ok = len(report["trace"]) == steps
    return CheckResult("ratio-limit", "pass" if ok else "fail", report)


def _check_videal_chain(art: RunArtifacts, options: dict) -> CheckResult:
    frame = art.scenario.frame
    length = options["chain_length"]
    chain = videal_chain(frame, length)
    descending = all(
        b["threshold"].cmp(a["threshold"]) > 0
        and a["ideal"] != b["ideal"]
        and all(a["ideal"].contains(g) for g in b["ideal"].generators)
        for a, b in zip(chain, chain[1:])
    )
    # each threshold is the value of its ideal, re-derived from the
    # generators independently of the census that built the chain
    mismatch = next((e["n"] for e in chain
                     if e["threshold"] != ideal_value(frame, e["ideal"])), None)
    # and ideal_{n+1} holds every monomial above t_n, so no attained
    # value between t_n and t_{n+1} is skipped
    skipped = next((a["n"] for a, b in zip(chain, chain[1:])
                    if _outside_reaches_above(frame, b["ideal"], a["threshold"])), None)
    colengths = [e["colength"] for e in chain]
    independent = rational_rank(frame.values) == len(frame.values)
    ok = (descending and mismatch is None and skipped is None
          and all(c >= 1 for c in colengths))
    if independent:
        ok = ok and all(c == 1 for c in colengths)
    detail = {
        "chain_length": length,
        "descending": descending,
        "colengths": colengths,
        "independent_values": independent,
        "thresholds": [e["threshold"] for e in chain],
    }
    if mismatch is not None:
        detail["threshold_mismatch_at"] = mismatch
    if skipped is not None:
        detail["skipped_value_at"] = skipped
    return CheckResult("videal-chain", "pass" if ok else "fail", detail)


def _outside_reaches_above(frame, ideal: MonomialIdeal, t: ValueVector) -> bool:
    """Whether some monomial outside ``ideal`` has value above ``t``.

    Breadth first from the unit through the monomials outside the ideal,
    each reached from itself minus its last variable.  The walk stops at
    the first monomial valued above t, so it ends even when the outside
    is infinite: only finitely many monomials have value <= t.
    """
    unit = (0,) * frame.dim
    queue = [] if ideal.contains(unit) else [(unit, 0)]
    for m, last in queue:
        if monomial_value(frame.values, m).cmp(t) > 0:
            return True
        for i in range(last, frame.dim):
            child = m[:i] + (m[i] + 1,) + m[i + 1:]
            if not ideal.contains(child):
                queue.append((child, i))
    return False


def _check_tau_bound(art: RunArtifacts, options: dict) -> CheckResult:
    frame = art.scenario.frame
    n_ideals = options["n_ideals"]
    max_steps = options["tau_max_steps"]
    try:
        j = tau_bound(frame, n_ideals, max_steps=max_steps)
    except AmbiguousDirection as exc:
        return CheckResult("tau-bound", "not applicable", {"reason": str(exc)})
    except NotTerminated as exc:
        return CheckResult("tau-bound", "not applicable", {
            "reason": f"no principal prefix within {exc.steps} steps",
        })
    # re-verify minimality independently of the search loop
    chain = [e["ideal"] for e in videal_chain(frame, n_ideals)]
    word = list(itertools.islice(argmin_word(frame), j))
    at_j = all(extend_ideal(i, word).is_principal for i in chain)
    before = (
        j == 0
        or not all(extend_ideal(i, word[:-1]).is_principal for i in chain)
    )
    verdict = "pass" if at_j and before else "fail"
    return CheckResult("tau-bound", verdict, {
        "n_ideals": n_ideals,
        "prefix_length": j,
        "all_principal_at_bound": at_j,
        "minimal": before,
    })


def _check_short_chain(art: RunArtifacts, options: dict) -> CheckResult:
    report = short_chain_report(art.scenario.frame)
    if not report["applies"]:
        return CheckResult("remark4175", "not applicable", {
            "reason": "some value is at least twice the smallest",
        })
    ok = (
        report["starts_at_unit"]
        and report["second_is_maximal"]
        and report["ends_at_m_squared"]
        and report["all_colengths_one"]
    )
    return CheckResult("remark4175", "pass" if ok else "fail", {
        "thresholds": report["thresholds"],
        "colengths": report["colengths"],
        "ends_at_m_squared": report["ends_at_m_squared"],
    })


def _check_series_sum(art: RunArtifacts, options: dict) -> CheckResult:
    sc = art.scenario
    if sc.sum_after_episodes is None or not sc.boundaries:
        return CheckResult("series-sum", "not applicable",
                           {"reason": "no closed-form episode sums declared"})
    basis = sc.frame.basis
    mismatches = []
    floor_ok = True
    for k, total in enumerate(art.boundary_sums, start=1):
        expected = basis.rational(sc.sum_after_episodes(k))
        if total.coeffs != expected.coeffs:
            mismatches.append(k)
        if sc.diverges and total.cmp(basis.rational(k)) < 0:
            floor_ok = False
    detail: dict = {
        "episodes": len(art.boundary_sums),
        "mismatched_episodes": mismatches,
    }
    if sc.diverges:
        detail["sums_dominate_episode_count"] = floor_ok
    if sc.expected_limit is not None:
        detail["limit"] = sc.expected_limit
    ok = not mismatches and (floor_ok or not sc.diverges)
    return CheckResult("series-sum", "pass" if ok else "fail", detail)


def _check_change_of_direction(art: RunArtifacts, options: dict) -> CheckResult:
    """Walk the monomial-only prefix once, up to ``prefix_cap`` records.
    After record n the value route asks whether m_0 > m_(n-1); the ideal
    route carries the maximal ideal's generators through the record, a
    run in closed form, and asks whether their least degree is >= 2."""
    history = art.final.history
    gens = MonomialIdeal.maximal(art.final.dim).generators
    disagreements = []
    first_change = None
    compared = 0
    for rec in history[: options["prefix_cap"]]:
        if rec.kind != "monomial":
            break
        compared += 1
        gens = [rewrite_monomial(g, rec.direction, rec.count) for g in gens]
        via_value = history[0].m_value.cmp(rec.m_value) > 0
        if via_value != (min(map(sum, gens)) >= 2):
            disagreements.append(compared)
        if first_change is None and via_value:
            first_change = compared
    if compared == 0:
        return CheckResult("change-of-direction", "not applicable",
                           {"reason": "no monomial-only prefix to compare on"})
    verdict = "pass" if not disagreements else "fail"
    return CheckResult("change-of-direction", verdict, {
        "prefixes_compared": compared,
        "disagreements": disagreements,
        "first_change_at": first_change,
    })


# id: (check, the explanation ``quadseq explain`` prints)
CHECKS: dict[str, tuple[Callable[[RunArtifacts, dict], CheckResult], str]] = {
    "eq631": (_check_conservation,
        "Conservation of value mass within a rescale-free stretch: for a "
        "d-direction frame, (d-1) times the sum of step values taken since "
        "the stretch began, plus the current frame total, equals the frame "
        "total at the start of the stretch.  Every monomial step subtracts "
        "its value from exactly d-1 coordinates, so the identity holds "
        "step by step; the check verifies it as an exact coefficient "
        "identity after every record."),
    "bound63": (_check_series_bound,
        "Bounded running sum: along a rescale-free run the sum of step "
        "values stays strictly below (initial frame total)/(d-1), because "
        "the conservation identity makes the gap equal to the current "
        "frame total over d-1, which is positive.  The check also reports "
        "whether the final frame has shrunk below a small threshold, which "
        "pins the running sum to within threshold*d/(d-1) of the ceiling."),
    "switching-witness": (_check_switching_witness,
        "Occupancy report for the recent past: for each window size it "
        "lists the directions that did not carry any of the last so-many "
        "direction-carrying steps.  A direction that starves in every "
        "window is the classic witness that the sequence has locked onto "
        "a proper subset of the coordinates."),
    "thm33a": (_check_order_drop,
        "Order-drop dichotomy: along a word of directions that uses every "
        "coordinate at least once, the order of every nonunit monomial "
        "form strictly drops; if some coordinate never occurs, the form "
        "consisting of that single variable keeps order one forever.  The "
        "check sweeps all antichain supports up to a degree cap through "
        "the scenario's word and verifies whichever branch applies; a "
        "sweep with more antichains than its cap is not applicable."),
    "prop344": (_check_first_use,
        "Shape of the initial values under first-use ordering: listing the "
        "initial frame values in the order their directions first carry a "
        "step, the values ascend strictly; an integer s >= 1 squeezes the "
        "second value between s and s+1 times the first; and each later "
        "value a_j satisfies (j-2)*a_j < a_1 + ... + a_(j-1)."),
    "ratio-limit": (_check_ratio_limit,
        "Order ratio convergence: fixing two monomials and rewriting both "
        "along the argmin word, the ratio of their orders converges to "
        "the ratio of their frame values.  The check records the order "
        "pairs at every step and emits the exact limit (a fraction when "
        "the value ratio is rational, otherwise both exact values plus a "
        "rational enclosure)."),
    "videal-chain": (_check_videal_chain,
        "Valuation-ideal ladder: starting from the whole ring, repeatedly "
        "take the monomials of value strictly above the current ideal's "
        "value.  The resulting chain must descend strictly, its thresholds "
        "must be exactly the attained monomial values in increasing order, "
        "and when the frame values admit no rational relation each step "
        "has colength one (exactly one monomial sits at each threshold)."),
    "tau-bound": (_check_tau_bound,
        "Principality prefix: extending each of the first n valuation "
        "ideals through the argmin word eventually makes all of them "
        "principal at once; the check reports the least such prefix length "
        "and re-verifies both that it works and that one step fewer does "
        "not."),
    "remark4175": (_check_short_chain,
        "Short ladder under tightly clustered values: when every frame "
        "value is below twice the smallest, the valuation ideals between "
        "the whole ring and the square of the maximal ideal are exactly "
        "the ring, the maximal ideal, one ideal per remaining variable, "
        "and the square itself - a chain of d+2 ideals with colength one "
        "at every step."),
    "series-sum": (_check_series_sum,
        "Episode-sum law: scenarios built from episodes declare an exact "
        "closed form for the running sum at each episode boundary.  The "
        "check replays the plan and compares every boundary sum to the "
        "closed form by exact arithmetic; for divergent scenarios it also "
        "confirms the sums dominate the episode count."),
    "change-of-direction": (_check_change_of_direction,
        "Two routes to 'the sequence moved': comparing the first step "
        "value against the (n-1)st detects a strict drop exactly when the "
        "extension of the maximal ideal along the first n directions has "
        "order at least two.  The check runs both routes on every prefix "
        "and demands they agree."),
}


def list_checks() -> list[str]:
    return sorted(CHECKS)


def explain(check: str) -> str:
    if check not in CHECKS:
        raise UnknownCheck(check)
    return CHECKS[check][1]


def parse_options(obj, dim: int) -> dict:
    """Every key of ``OPTIONS``: its value in ``obj`` (a dict or None), read
    and held to its least, else its default.  A ratio_f/ratio_g monomial has
    ``dim`` exponents; an unknown key or a bad value raises ConfigError."""
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ConfigError("options must be an object")
    unknown = sorted(set(obj) - set(OPTIONS))
    if unknown:
        raise ConfigError(f"options: unknown keys {unknown}")
    options = {}
    for key, (default, least) in OPTIONS.items():
        where = f"options.{key}"
        if key not in obj:
            options[key] = default
        elif key == "small_threshold":
            options[key] = t = _to_rational(obj[key], where)
            if t <= least:
                raise ConfigError(f"{where}: must be > {least}, got {t}")
        elif key == "windows":
            windows = obj[key]
            if isinstance(windows, (list, tuple)):
                windows = [_to_int(w, f"{where}[{i}]") for i, w in enumerate(windows)]
            if not isinstance(windows, list) or min(windows, default=least) < least:
                raise ConfigError(f"{where}: must be a list of integers >= {least}")
            options[key] = windows
        elif key in ("ratio_f", "ratio_g"):
            monos = obj[key]
            if not isinstance(monos, (list, tuple)) or not all(
                    isinstance(m, (list, tuple)) and len(m) == dim for m in monos):
                raise ConfigError(f"{where}: must be a list of lists of {dim} exponents")
            options[key] = [tuple(_to_int(e, where) for e in m) for m in monos]
            if any(e < least for m in options[key] for e in m):
                raise ConfigError(f"{where}: exponents must be >= {least}")
        else:
            options[key] = n = _to_int(obj[key], where)
            if n < least:
                raise ConfigError(f"{where}: must be >= {least}, got {n}")
    return options


def run_checks(target: Scenario | RunArtifacts, check_ids: Sequence[str],
               options: dict | None = None) -> list[CheckResult]:
    """Run each requested check (deduplicated, in order) on one replay: the
    given artifacts, or a replay of the scenario made here.

    ``parse_options`` reads the options first.  The replay is made
    whichever checks are requested, so a scenario whose plan cannot be
    stepped raises ConfigError naming the record, even when every
    requested check looks only at the frame."""
    ordered: list[str] = []
    for cid in check_ids:
        if cid not in CHECKS:
            raise UnknownCheck(cid)
        if cid not in ordered:
            ordered.append(cid)
    scenario = target.scenario if isinstance(target, RunArtifacts) else target
    options = parse_options(options, scenario.frame.dim)
    art = target if isinstance(target, RunArtifacts) else collect_artifacts(target)
    return [CHECKS[cid][0](art, options) for cid in ordered]
