"""Numbered acceptance criteria, one test each.

Each test prints its verdict line (visible with -s, and carried in the
assertion message on failure).  Criterion 2 is known to fail: runs in
three or more directions typically lock onto a proper subset of the
directions, so the frame-collapse certificate it demands is unreachable
there.  The criterion is implemented as stated and left red on purpose;
see its summary line for the per-dimension tally.
"""

from quadseq import acceptance, forms

# the verdict lines that carry no wall time, exactly as the criteria print them
PINNED_LINES = {
    3: "criterion  3 PASS - geometric episode sums reach 8/3: episode sums equal "
       "(8/3)(1 - (1/4)^k) exactly for k <= 30; limit 8/3",
    4: "criterion  4 PASS - alternating-pair sums reach 3 with a starving spectator: "
       "step values follow the halving law, episode sums equal 3 - 3*(1/2)^k exactly, "
       "and the 3-dim embedding starves z in every window",
    5: "criterion  5 PASS - bracketed groups force divergence: both doubling scenarios: "
       "1000 exact episode sums, every bracketed group sums to exactly 1, and the "
       "running sum dominates the group count throughout",
    7: "criterion  7 PASS - order ratio approaches sqrt(2) with bracketing: order ratio "
       "within 1e-3 of sqrt(2) from n0=8 on (need <= 30); floor-pair bracketing held at "
       "every step it applied (675 firings across q=1..12); limit enclosure straddles "
       "sqrt(2)",
    8: "criterion  8 PASS - valuation-ideal chains and contraction membership: 20 frames "
       "(8/7/5 over d=2/3/4): first 50 ideals descend strictly with colength 1; every "
       "degree<=5 monomial's contraction equals the chain member at its value (longest "
       "chain 495)",
    9: "criterion  9 PASS - principality prefix is exact and minimal: least principality "
       "prefix re-verified and minimal for chain lengths 1..20 (prefixes 0..4)",
    10: "criterion 10 PASS - first-use relabeling laws on covering runs: 200 covering "
        "argmin runs (50 per d=2..5, drawn from {2: 50, 3: 120, 4: 979, 5: 39662} raw "
        "attempts): first-use relabeling gives strict ascent, the integer gap squeeze "
        "(s ranging over {2: (1, 22), 3: (1, 6), 4: (1, 3), 5: (1, 4)}) and prefix "
        "dominance in every run; the value-drop and ideal-order movement predicates "
        "agree on every prefix",
    11: "criterion 11 PASS - integer-valued runs grow at least linearly: integer-valued "
        "preset: running sum >= record count at each of 10000 records",
}


def _run(number):
    res = acceptance.run_all([number])[0]
    print(res.line())
    assert res.ok, res.line()
    if number in PINNED_LINES:
        assert res.line() == PINNED_LINES[number]
    return res


def test_criterion_01_conservation_on_random_runs():
    _run(1)


def test_criterion_02_series_ceiling_and_collapse_certificate():
    _run(2)


def test_criterion_02_tally_from_the_cached_fixture():
    detail = acceptance.criterion_2().detail
    assert detail["certified_by_dim"] == {2: 25, 3: 0, 4: 0, 5: 0}
    assert len(detail["uncertified_runs"]) == 75
    assert all(d >= 3 for d, _ in detail["uncertified_runs"])


def test_criterion_03_geometric_episode_sums():
    _run(3)


def test_criterion_04_alternating_pair_sums_and_starving_spectator():
    _run(4)


def test_criterion_05_bracketed_groups_force_divergence():
    _run(5)


def test_criterion_06_order_drop_dichotomy_exhaustive():
    _run(6)


def test_criterion_07_order_ratio_sqrt2_with_bracketing():
    _run(7)


def test_criterion_07_fails_on_orders_off_the_ratio_trace(monkeypatch):
    # the bracketing rows must carry the orders of ratio_limit_report's trace
    def off_by_one(*args):
        rows = forms.power_bracketing_report(*args)
        rows[20]["ordF"] += 1
        return rows

    monkeypatch.setattr(acceptance, "power_bracketing_report", off_by_one)
    res = acceptance.criterion_7()
    assert not res.ok
    assert res.detail["orders_match"] is False


def test_criterion_08_videal_chains_and_contraction_membership():
    _run(8)


def test_criterion_09_principality_prefix_exact_and_minimal():
    _run(9)


def test_criterion_10_first_use_relabeling_on_covering_runs():
    _run(10)


def test_criterion_11_integer_valued_runs_grow_linearly():
    _run(11)
