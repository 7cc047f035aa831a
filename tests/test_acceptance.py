"""Numbered acceptance criteria, one test each.

Each test prints its verdict line (visible with -s, and carried in the
assertion message on failure).  Criterion 2 is known to fail: runs in
three or more directions typically lock onto a proper subset of the
directions, so the frame-collapse certificate it demands is unreachable
there.  The criterion is implemented as stated and left red on purpose;
see its summary line for the per-dimension tally.
"""

from quadseq import acceptance


def _run(number):
    res = acceptance.run_all([number])[0]
    print(res.line())
    assert res.ok, res.line()
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


def test_criterion_08_videal_chains_and_contraction_membership():
    _run(8)


def test_criterion_09_principality_prefix_exact_and_minimal():
    _run(9)


def test_criterion_10_first_use_relabeling_on_covering_runs():
    _run(10)


def test_criterion_11_integer_valued_runs_grow_linearly():
    _run(11)
