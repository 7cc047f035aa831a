"""The check registry: verdicts, applicability gating, and explanations."""

import re
import time
from fractions import Fraction as F

import pytest

from quadseq import checks, forms, sequence, videals
from quadseq.checks import (
    CHECKS,
    collect_artifacts,
    explain,
    list_checks,
    parse_options,
    run_checks,
)
from quadseq.errors import ConfigError, UnknownCheck
from quadseq.gallery import (
    PlanStep,
    Scenario,
    build_preset,
    gen_713,
    gen_dvr,
    gen_notunion_rr1,
    gen_random_independent,
    gen_shannon_418,
)
from quadseq.sequence import ParameterFrame, SequenceState
from quadseq.values import RealBasis, rational_rank

REQUIRED_IDS = {
    "eq631", "bound63", "switching-witness", "thm33a", "prop344",
    "ratio-limit", "videal-chain", "tau-bound", "remark4175",
    "series-sum", "change-of-direction",
}


def by_id(results):
    return {r.check: r for r in results}


def test_registry_has_the_required_ids():
    assert set(CHECKS) == REQUIRED_IDS
    assert list_checks() == sorted(REQUIRED_IDS)


def test_independence_detector():
    b2 = RealBasis.default(2)
    indep = [b2.rational(1), b2.value([0, 1])]
    assert rational_rank(indep) == 2
    dep = [b2.rational(1), b2.rational(F(3, 2))]
    assert rational_rank(dep) == 1
    mixed = [b2.value([1, 1]), b2.value([0, 1]), b2.rational(2)]
    assert rational_rank(mixed) == 2


def test_random_scenario_core_checks_pass():
    sc = gen_random_independent(3, seed=5, steps=60)
    results = by_id(run_checks(
        sc, ["eq631", "bound63", "videal-chain", "tau-bound",
             "change-of-direction", "prop344", "thm33a", "ratio-limit"]))
    assert results["eq631"].verdict == "pass"
    assert results["bound63"].verdict == "pass"
    assert results["bound63"].detail["independent_values"] is True
    assert results["videal-chain"].verdict == "pass"
    assert all(c == 1 for c in results["videal-chain"].detail["colengths"])
    assert results["tau-bound"].verdict == "pass"
    assert results["tau-bound"].detail["minimal"] is True
    assert results["change-of-direction"].verdict == "pass"
    assert results["prop344"].verdict in ("pass", "not applicable")
    assert results["thm33a"].verdict in ("pass", "not applicable")
    assert results["ratio-limit"].verdict == "pass"


def test_shannon_series_sum_passes():
    sc = gen_shannon_418(episodes=8)
    results = by_id(run_checks(sc, ["series-sum", "eq631", "bound63"]))
    assert results["series-sum"].verdict == "pass"
    assert results["series-sum"].detail["limit"] == F(8, 3)
    assert results["eq631"].verdict == "pass"
    # rescales make the single ceiling meaningless
    assert results["bound63"].verdict == "not applicable"


def test_rr1_embed3d_switching_witness():
    sc = gen_notunion_rr1(steps=20, embed3d=True)
    (res,) = run_checks(sc, ["switching-witness"])
    assert res.verdict == "pass"
    assert res.detail["never_used"] == ["z"]
    assert res.detail["starving_by_window"][2] == ["z"]


def test_713_series_sum_divergence():
    sc = gen_713(episodes=10)
    (res,) = run_checks(sc, ["series-sum"])
    assert res.verdict == "pass"
    assert res.detail["sums_dominate_episode_count"] is True
    assert res.detail["mismatched_episodes"] == []


def test_dvr_gets_not_applicable_bound():
    sc = gen_dvr(d=2, steps=30)
    results = by_id(run_checks(sc, ["bound63", "series-sum", "tau-bound"]))
    assert results["bound63"].verdict == "not applicable"
    assert results["series-sum"].verdict == "pass"
    # the staggered integer frame ties immediately under pure argmin
    assert results["tau-bound"].verdict in ("pass", "not applicable")


def test_remark4175_applicability():
    basis = RealBasis.default(1)
    tight = ParameterFrame(
        [basis.rational(1), basis.rational(F(9, 8)), basis.rational(F(5, 4))])
    (res,) = run_checks(Scenario("tight", tight, mode="argmin"), ["remark4175"])
    assert res.verdict == "pass"
    assert res.detail["colengths"] == [1, 1, 1, 1, 1]

    spread = ParameterFrame([basis.rational(1), basis.rational(3)])
    (res2,) = run_checks(Scenario("spread", spread, mode="argmin"), ["remark4175"])
    assert res2.verdict == "not applicable"

    # the scenario is replayed before any check runs, one that reads only
    # the frame too, so a plan that ties at its third step is refused
    unsteppable = build_preset("random", steps=5, seed=0)
    unsteppable.frame = tight
    with pytest.raises(ConfigError, match="record 3"):
        run_checks(unsteppable, ["remark4175"])


def test_thm33a_missing_direction_witness():
    sc = gen_notunion_rr1(steps=12, embed3d=True)
    (res,) = run_checks(sc, ["thm33a"])
    assert res.verdict == "pass"
    assert res.detail["mode"] == "missing-direction"
    # y carries rescale annotations but never a monomial step, so the
    # rewrite word misses both y and z
    assert res.detail["missing_from_word"] == ["y", "z"]
    assert res.detail["report"]["witness_constant"] is True


def test_ratio_limit_not_applicable_for_scripted():
    (res,) = run_checks(gen_shannon_418(episodes=2), ["ratio-limit"])
    assert res.verdict == "not applicable"


def test_ratio_steps_caps_a_run_without_a_step_budget():
    basis = RealBasis.default(2)
    frame = ParameterFrame([basis.rational(1), basis.value([0, 1])])
    sc = Scenario("no-budget", frame, mode="argmin")
    (res,) = run_checks(sc, ["ratio-limit"], {"ratio_steps": 50})
    assert len(res.detail["trace"]) == 50
    (res,) = run_checks(sc, ["ratio-limit"])
    assert len(res.detail["trace"]) == 40
    (res,) = run_checks(Scenario("budget", frame, mode="argmin", steps=7),
                        ["ratio-limit"], {"ratio_steps": 50})
    assert len(res.detail["trace"]) == 7


def test_unknown_check_raises():
    with pytest.raises(UnknownCheck):
        run_checks(gen_dvr(steps=4), ["nope"])
    with pytest.raises(UnknownCheck):
        explain("nope")


def test_run_checks_deduplicates_in_order():
    sc = gen_dvr(steps=6)
    results = run_checks(sc, ["eq631", "series-sum", "eq631"])
    assert [r.check for r in results] == ["eq631", "series-sum"]


def test_explanations_cover_registry():
    for cid in CHECKS:
        text = explain(cid)
        assert len(text) > 80
        assert cid.split("-")[0] not in ("",)


@pytest.mark.parametrize("options, needle", [
    # an empty chain used to pass, a misspelt key to run with the default
    ({"chain_length": 0}, "options.chain_length: must be >= 1, got 0"),
    ({"n_ideals": 0}, "options.n_ideals: must be >= 1, got 0"),
    ({"chain_lenght": 3}, "options: unknown keys ['chain_lenght']"),
], ids=["chain-length", "n-ideals", "misspelt"])
def test_library_options_are_held_to_the_config_rules(options, needle):
    sc = build_preset("random", steps=50, seed=2)
    with pytest.raises(ConfigError, match=re.escape(needle)):
        run_checks(sc, ["videal-chain", "tau-bound"], options)


def test_parse_options_fills_defaults_and_takes_library_forms():
    options = parse_options({"ratio_f": ((0, 1, 0),), "windows": (1, 3),
                             "small_threshold": F(1, 1000)}, 3)
    assert set(options) == set(checks.OPTIONS)
    assert options["ratio_f"] == [(0, 1, 0)]
    assert options["windows"] == [1, 3]
    assert options["small_threshold"] == F(1, 1000)
    assert options["chain_length"] == 12 and options["ratio_g"] is None
    assert parse_options(None, 2) == {k: d for k, (d, _) in checks.OPTIONS.items()}


def test_artifacts_boundary_sums_align():
    sc = gen_713(episodes=5)
    art = collect_artifacts(sc)
    assert len(art.boundary_sums) == 5
    assert art.conservation_fail_step is None


def test_eq631_fails_from_the_first_broken_record(monkeypatch):
    _conservation_breaks_at_record_3(monkeypatch, None)
    (res,) = run_checks(gen_random_independent(3, 5, steps=10), ["eq631"])
    assert res.verdict == "fail"
    assert res.detail["first_failure_at"] == 3


def test_bound63_fails_from_the_first_broken_record(monkeypatch):
    _ceiling_breaks_at_record_3(monkeypatch, None)
    (res,) = run_checks(gen_random_independent(3, 5, steps=10), ["bound63"])
    assert res.verdict == "fail"
    assert res.detail["first_failure_at"] == 3


def test_videal_chain_fails_on_a_threshold_that_is_not_the_ideal_value(monkeypatch):
    sc = gen_random_independent(3, 5, steps=10)
    (res,) = run_checks(sc, ["videal-chain"])
    assert res.verdict == "pass"
    assert set(res.detail) == {"chain_length", "descending", "colengths",
                               "independent_values", "thresholds"}
    chain_of = checks.videal_chain

    def shifted(frame, count):
        # t_3 halfway to t_4: still strictly ascending, colengths intact
        chain = chain_of(frame, count)
        chain[3]["threshold"] = (chain[3]["threshold"] + chain[4]["threshold"]).scale(F(1, 2))
        return chain

    monkeypatch.setattr(checks, "videal_chain", shifted)
    (res,) = run_checks(sc, ["videal-chain"])
    assert res.verdict == "fail"
    assert res.detail["descending"] is True
    assert res.detail["colengths"] == [1] * 12
    assert res.detail["threshold_mismatch_at"] == 3


def test_videal_chain_fails_on_a_chain_that_skips_an_attained_value(monkeypatch):
    sc = gen_random_independent(3, 5, steps=10)
    chain_of = checks.videal_chain

    def skipping(frame, count):
        # drop rung 3 and renumber: still descending, every threshold the
        # value of its ideal, but t_3 is attained and missing
        chain = chain_of(frame, count + 1)
        del chain[3]
        for n, entry in enumerate(chain):
            entry["n"] = n
        return chain

    monkeypatch.setattr(checks, "videal_chain", skipping)
    (res,) = run_checks(sc, ["videal-chain"])
    assert res.verdict == "fail"
    assert res.detail["descending"] is True
    assert res.detail["colengths"] == [1] * 12
    assert "threshold_mismatch_at" not in res.detail
    assert res.detail["skipped_value_at"] == 2


def test_a_replay_builds_the_initial_state_once(monkeypatch):
    calls = []
    from_frame = SequenceState.from_frame

    def counting(frame, names=None):
        calls.append(frame)
        return from_frame(frame, names)

    monkeypatch.setattr(SequenceState, "from_frame", staticmethod(counting))
    sc = build_preset("random")
    collect_artifacts(sc)
    assert len(calls) == 1
    # a plan with no records still ends at the initial state
    art = collect_artifacts(Scenario("empty", sc.frame))
    assert art.final.step_count == 0
    assert art.final.frame_values == sc.frame.values


def test_change_of_direction_both_routes():
    # argmin from (1, sqrt2) takes 1 and then sqrt2 - 1: the sequence
    # moves at the second record, by both routes
    basis = RealBasis.default(2)
    frame = ParameterFrame([basis.rational(1), basis.value([0, 1])])
    (res,) = run_checks(Scenario("sqrt2", frame, mode="argmin", steps=12),
                        ["change-of-direction"])
    assert res.verdict == "pass"
    assert res.detail == {"prefixes_compared": 12, "disagreements": [],
                          "first_change_at": 2}


def test_change_of_direction_through_a_bulk_run_of_10_12_steps():
    # the ideal route rewrites through a run-length record in closed form;
    # letter by letter this run would take hours and an 8 TB word
    count = 10**12
    start = time.perf_counter()
    basis = RealBasis.default(2)
    frame = ParameterFrame([basis.rational(1), basis.rational(count + F(1, 2))])
    plan = (PlanStep("monomial", 0, count=count), PlanStep("monomial", 1))
    (res,) = run_checks(Scenario("bulk", frame, plan=plan), ["change-of-direction"])
    assert res.detail == {"prefixes_compared": 2, "disagreements": [],
                          "first_change_at": 2}
    assert time.perf_counter() - start < 1.0


# -- a check can fail: each mutant patches a library function the check
# reads, never the check's own verdict code, and takes the verdict on the
# same scenario from pass to fail; the scenario is built before patching,
# since the random draws read the dominance test too


def _antichain_degree_off_by_one(monkeypatch, sc):
    lanes_of = forms._antichain_lanes

    def mutant(dim, max_degree, lane_bytes):
        # the first antichain, the last variable alone, loses its degree; the
        # table puts it in the first single-member lane, after the wide ones
        columns, guards = lanes_of(dim, max_degree, lane_bytes)
        lane = guards[1].bit_length() // (8 * lane_bytes)
        first = columns[dim - 1][0] - (1 << 8 * lane_bytes * lane)
        return columns[:dim - 1] + ((first,) + columns[dim - 1][1:],), guards

    monkeypatch.setattr(forms, "_antichain_lanes", mutant)


def _dominance_off_by_one(monkeypatch, sc):
    def mutant(a):
        # (j-1)*a_j where prefix dominance has (j-2)*a_j
        prefix = None
        for k in range(2, len(a)):
            prefix = a[0] + a[1] if prefix is None else prefix + a[k - 1]
            if a[k].scale(k).cmp(prefix) >= 0:
                return k
        return None

    monkeypatch.setattr(sequence, "_dominance_break", mutant)


def _law_drops_the_last_episode(monkeypatch, sc):
    law = sc.sum_after_episodes
    monkeypatch.setattr(sc, "sum_after_episodes", lambda k: law(k - 1))


def _run_count_off_by_one(monkeypatch, sc):
    rewrite = checks.rewrite_monomial
    monkeypatch.setattr(checks, "rewrite_monomial",
                        lambda m, direction, count=1: rewrite(m, direction, count - 1))


def _tau_bound_one_too_long(monkeypatch, sc):
    tau = checks.tau_bound
    monkeypatch.setattr(checks, "tau_bound", lambda *args, **kw: tau(*args, **kw) + 1)


def _chain_drops_a_rung(monkeypatch, sc):
    chain_of = videals.videal_chain

    def mutant(frame, count):
        # rung 2 left out and the rest renumbered: still descending, each
        # threshold still the value of its ideal
        chain = chain_of(frame, count + 1)
        del chain[2]
        for n, entry in enumerate(chain):
            entry["n"] = n
        return chain

    # the videal-chain check reads its own imported name
    monkeypatch.setattr(videals, "videal_chain", mutant)
    monkeypatch.setattr(checks, "videal_chain", mutant)


def _conservation_breaks_at_record_3(monkeypatch, sc):
    monkeypatch.setattr(SequenceState, "conservation_check",
                        lambda self: self.step_count < 3)


def _ceiling_breaks_at_record_3(monkeypatch, sc):
    monkeypatch.setattr(SequenceState, "bound_gap_sign",
                        lambda self: 1 if self.step_count < 3 else 0)


def _tight_frame():
    # every value below twice the smallest, so remark 4.17.5 applies
    basis = RealBasis.default(1)
    return Scenario("tight", ParameterFrame(
        [basis.rational(1), basis.rational(F(9, 8)), basis.rational(F(5, 4))]),
        mode="argmin")


MUTANTS = {
    "thm33a": (lambda: gen_random_independent(3, 5, steps=10),
               _antichain_degree_off_by_one),
    "prop344": (lambda: gen_random_independent(3, 5, steps=10),
                _dominance_off_by_one),
    "series-sum": (lambda: gen_shannon_418(episodes=5), _law_drops_the_last_episode),
    "change-of-direction": (lambda: gen_random_independent(3, 5, steps=10),
                            _run_count_off_by_one),
    "tau-bound": (lambda: gen_random_independent(3, 5, steps=10),
                  _tau_bound_one_too_long),
    "remark4175": (_tight_frame, _chain_drops_a_rung),
    "videal-chain": (lambda: gen_random_independent(3, 5, steps=10), _chain_drops_a_rung),
    "eq631": (lambda: gen_random_independent(3, 5, steps=10),
              _conservation_breaks_at_record_3),
    "bound63": (lambda: gen_random_independent(3, 5, steps=10),
                _ceiling_breaks_at_record_3),
}

# ratio-limit cannot fail yet (its trace always has the asked length) and
# switching-witness has no fail branch
CANNOT_FAIL = {"ratio-limit", "switching-witness"}


def test_every_check_that_can_fail_has_a_mutant():
    assert set(list_checks()) - set(MUTANTS) == CANNOT_FAIL


@pytest.mark.parametrize("check", sorted(MUTANTS))
def test_a_mutant_of_what_the_check_reads_fails_it(monkeypatch, check):
    build, mutate = MUTANTS[check]
    sc = build()
    (res,) = run_checks(sc, [check])
    assert res.verdict == "pass"
    mutate(monkeypatch, sc)
    (res,) = run_checks(sc, [check])
    assert res.verdict == "fail", res.detail
