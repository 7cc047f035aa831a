"""Preset scenarios: episode laws, series limits, and divergent step values."""

import itertools
from fractions import Fraction as F

import pytest

from quadseq.checks import collect_artifacts, run_checks
from quadseq.errors import ConfigError, DirectionNotMinimal
from quadseq.gallery import (
    PRESETS,
    PlanStep,
    Scenario,
    build_preset,
    gen_713,
    gen_714,
    gen_dvr,
    gen_notunion_rr1,
    gen_random_independent,
    gen_shannon_418,
    list_presets,
    replay_states,
)
from quadseq.sequence import SequenceState


def rational(v):
    """Coefficient of the rational slot; asserts the rest vanish."""
    cs = v.coeffs
    assert all(c == 0 for c in cs[1:])
    return cs[0]


def partial_sums(scenario):
    return [state.partial_sum for state in replay_states(scenario)]


def witness(scenario, windows=None):
    """The detail of the ``switching-witness`` check, at the given windows
    or the default ones."""
    (res,) = run_checks(scenario, ["switching-witness"],
                        None if windows is None else {"windows": windows})
    return res.detail


# -- geometric episodes --------------------------------------------------------


def test_shannon_episode_m_values():
    sc = gen_shannon_418(episodes=6)
    final = collect_artifacts(sc).final
    for k in range(6):
        c = F(1, 4) ** k
        ms = [rational(final.history[4 * k + i].m_value) for i in range(4)]
        assert ms == [c, c / 2, c / 4, c / 4]


def test_shannon_partial_sum_closed_form():
    sc = gen_shannon_418(episodes=10)
    sums = partial_sums(sc)
    for k in range(1, 11):
        boundary = sc.boundaries[k - 1]
        assert rational(sums[boundary - 1]) == sc.sum_after_episodes(k)
        assert sc.sum_after_episodes(k) == F(8, 3) * (1 - F(1, 4) ** k)
    assert rational(sums[sc.boundaries[0] - 1]) == 2


def test_shannon_scripted_steps_are_argmin():
    sc = gen_shannon_418(episodes=3)
    state = SequenceState.from_frame(sc.frame)
    for ps in sc.plan:
        if ps.kind == "monomial":
            nxt, w = state.step_argmin()
            assert w == ps.direction
            state = nxt
        else:
            state = state.rescale(ps.new_values, ps.direction)


def test_shannon_limit_and_counts():
    sc = gen_shannon_418(episodes=5)
    assert sc.expected_limit == F(8, 3)
    final = collect_artifacts(sc).final
    assert witness(sc)["direction_counts"] == {"x": 5, "y": 5, "z": 5}
    kinds = [r.kind for r in final.history]
    assert kinds.count("rescale") == 5


# -- alternating pair ----------------------------------------------------------


def test_rr1_m_value_law():
    sc = gen_notunion_rr1(steps=20)
    final = collect_artifacts(sc).final
    for n in range(20):
        k = n // 2
        expected = F(1, 2) ** k if n % 2 == 0 else F(1, 2) ** (k + 1)
        assert rational(final.history[n].m_value) == expected


def test_rr1_partial_sums():
    sc = gen_notunion_rr1(steps=30)
    sums = partial_sums(sc)
    assert rational(sums[3]) == F(9, 4)
    for k, boundary in enumerate(sc.boundaries, start=1):
        assert rational(sums[boundary - 1]) == 3 - 3 * F(1, 2) ** k
    # prefix with a trailing monomial step: 3 - 2^(1-k) after 2k+1 records
    for k in range(1, 14):
        assert rational(sums[2 * k]) == 3 - 2 * F(1, 2) ** k
    assert sc.expected_limit == 3


def test_rr1_embed3d_starves_z():
    sc = gen_notunion_rr1(steps=24, embed3d=True)
    detail = witness(sc, list(range(1, 12)))
    assert detail["direction_counts"]["z"] == 0
    for window in range(2, 12):
        assert detail["starving_by_window"][window] == ["z"]
    assert "z" in detail["starving_by_window"][1]


def test_713_bulk_and_single_steps_starve_alike():
    sc = gen_713(episodes=4)
    single = Scenario(sc.name, sc.frame, plan=tuple(
        PlanStep("monomial", ps.direction) if ps.kind == "monomial" else ps
        for ps in sc.plan for _ in range(ps.count)
    ))
    assert len(sc.plan) < len(single.plan)
    counts = witness(sc)["direction_counts"]
    assert counts == witness(single)["direction_counts"]
    windows = list(range(sum(counts.values()) + 2))
    assert witness(sc, windows) == witness(single, windows)


def test_rr1_embed3d_spectator_value():
    sc = gen_notunion_rr1(steps=24, embed3d=True)
    states = list(replay_states(sc))
    for k, boundary in enumerate(sc.boundaries, start=1):
        z = states[boundary - 1].frame_values[2]
        assert rational(z) == 1 + 3 * F(1, 2) ** k
        assert rational(z) == 4 - rational(states[boundary - 1].partial_sum)


def test_rr1_embed3d_quotient_matches_plane():
    flat = collect_artifacts(gen_notunion_rr1(steps=16)).final
    embedded = collect_artifacts(gen_notunion_rr1(steps=16, embed3d=True)).final
    for n in range(16):
        assert embedded.history[n].m_value.coeffs == flat.history[n].m_value.coeffs


# -- doubling quotients --------------------------------------------------------


def test_713_episode_trace():
    sc = gen_713(episodes=8)
    final = collect_artifacts(sc).final
    for n in range(8):
        c = F(1, 2) ** n
        bulk = final.history[3 * n]
        assert bulk.kind == "monomial" and bulk.count == 2 ** n
        assert rational(bulk.m_value) == c
        assert rational(final.history[3 * n + 1].m_value) == c / 2
        assert rational(final.history[3 * n + 2].m_value) == c / 2


def test_713_boundary_sums_diverge():
    sc = gen_713(episodes=12)
    sums = partial_sums(sc)
    for k, boundary in enumerate(sc.boundaries, start=1):
        total = rational(sums[boundary - 1])
        assert total == k + 2 - 2 * F(1, 2) ** k
        assert total >= k
    assert sc.diverges and sc.expected_limit is None


def bracketed_groups(sc):
    """(running sum, group value) at each episode's opening record, its
    bracketed group: record 0, then the record after each boundary."""
    opens = {0, *sc.boundaries}
    total = F(0)
    out = []
    for n, rec in enumerate(collect_artifacts(sc).final.history):
        term = rec.count * rational(rec.m_value)
        total += term
        if n in opens:
            out.append((total, term))
    return out


def test_713_stream_groups():
    groups = bracketed_groups(gen_713(episodes=1000))
    assert len(groups) == 1000
    assert all(term == 1 for _, term in groups)
    assert all(total >= k for k, (total, _) in enumerate(groups, start=1))


def test_713_first_five_terms():
    flat = []
    for rec in collect_artifacts(gen_713(episodes=2)).final.history:
        flat += [rational(rec.m_value)] * min(rec.count, 5)
    assert flat[:5] == [F(1), F(1, 2), F(1, 2), F(1, 2), F(1, 2)]
    assert sum(flat[:5]) == 3


def test_714_prologue_and_law():
    sc = gen_714(episodes=10)
    final = collect_artifacts(sc).final
    prologue = [rational(final.history[i].m_value) for i in range(5)]
    assert prologue == [1, 1, F(1, 2), F(1, 4), F(1, 4)]
    sums = partial_sums(sc)
    assert rational(sums[sc.boundaries[0] - 1]) == 3
    for k, boundary in enumerate(sc.boundaries, start=1):
        assert rational(sums[boundary - 1]) == sc.sum_after_episodes(k)
        assert sc.sum_after_episodes(k) >= k
    assert sc.sum_after_episodes(2) == F(17, 4)


def test_714_stream_divergence():
    groups = bracketed_groups(gen_714(episodes=400))
    assert len(groups) == 400
    assert groups[-1][0] >= 400


# -- integer frame -------------------------------------------------------------


def test_dvr_sum_equals_record_count():
    sc = gen_dvr(d=3, steps=60)
    for n, state in enumerate(replay_states(sc), start=1):
        assert rational(state.partial_sum) == n
    final = collect_artifacts(sc).final
    assert all(rational(final.history[i].m_value) == 1 for i in range(60))


def test_dvr_requires_two_directions():
    with pytest.raises(ConfigError):
        gen_dvr(d=1)


# -- random independent frames ---------------------------------------------------


def test_random_deterministic():
    a = gen_random_independent(3, seed=7)
    b = gen_random_independent(3, seed=7)
    assert [v.coeffs for v in a.frame.values] == [v.coeffs for v in b.frame.values]
    dirs_a = [s.history[-1].direction for s in itertools.islice(replay_states(a), 10)]
    dirs_b = [s.history[-1].direction for s in itertools.islice(replay_states(b), 10)]
    assert dirs_a == dirs_b


def test_random_conservation_and_bound():
    sc = gen_random_independent(4, seed=3, steps=40)
    for state in replay_states(sc):
        assert state.conservation_check()
        assert state.bound_gap_sign() > 0


def test_random_starving_reflects_argmin_runs():
    # argmin runs between switches grow, so a fixed small window can starve
    # at a given step; a window covering the whole history reports only the
    # directions never used at all
    detail = witness(gen_random_independent(3, seed=1, steps=200), [200])
    assert detail["starving_by_window"][200] == []
    assert all(detail["direction_counts"][name] > 0 for name in ("x", "y", "z"))


def test_random_rejects_bad_dimension():
    with pytest.raises(ConfigError):
        gen_random_independent(7, seed=0)


# -- plumbing ------------------------------------------------------------------


def test_every_preset_replays():
    budgets = {"shannon-4.18": 4, "rr1": 8, "gmr-7.13": 6, "gmr-7.14": 4,
               "dvr": 20, "random": 25}
    for name in PRESETS:
        sc = build_preset(name, steps=budgets[name])
        final = collect_artifacts(sc).final
        assert final.step_count >= 1


def test_list_presets():
    names = list_presets()
    assert len(names) >= 6
    assert names == sorted(names)
    for required in ("shannon-4.18", "rr1", "gmr-7.13", "gmr-7.14", "dvr", "random"):
        assert required in names


def test_build_preset_unknown():
    with pytest.raises(ConfigError):
        build_preset("nope")


@pytest.mark.parametrize("name, options", [
    ("shannon-4.18", {"d": 3}),  # used to be ignored
    ("rr1", {"embed3d": "no"}),  # used to run the 3-direction embedding
    ("dvr", {"d": 2.5}),
    ("gmr-7.13", {"episodes": 3}),  # the count is set through steps
], ids=["shannon-d", "rr1-embed3d", "dvr-d", "gmr-episodes"])
def test_build_preset_refuses_undeclared_or_mistyped_options(name, options):
    with pytest.raises(ConfigError):
        build_preset(name, steps=2, **options)


def test_build_preset_defaults_and_seed():
    assert build_preset("rr1").plan == gen_notunion_rr1().plan
    assert build_preset("random").frame.values == gen_random_independent(3, 0).frame.values
    assert build_preset("rr1", steps=6, embed3d=True).dim == 3
    # a preset that draws nothing ignores the seed, as --seed does
    assert build_preset("dvr", steps=4, seed=9).plan == gen_dvr(steps=4).plan


def test_bad_script_fails_loudly():
    sc = gen_shannon_418(episodes=1)
    bad = Scenario(
        name="bad",
        frame=sc.frame,
        plan=(PlanStep("monomial", 1),),  # direction y is not minimal
    )
    with pytest.raises(DirectionNotMinimal):
        list(replay_states(bad))
