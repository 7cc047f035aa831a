"""Stepping, conservation, bounds, and the sequence-level reports."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from quadseq import sequence, values
from quadseq.errors import (
    AmbiguousDirection,
    DirectionNotMinimal,
    IncompleteCoverage,
    IndexOutOfRange,
    NonPositiveValue,
)
from quadseq.gallery import _FRACTION_POOL, diagonal_frame, gen_random_independent
from quadseq.sequence import (
    _SH_ERR_MAX,
    _SH_MIN,
    ParameterFrame,
    SequenceState,
    StepRecord,
    argmin_word,
    prefix_dominance,
)
from quadseq.values import RealBasis, shadow

B2 = RealBasis.default(2)


def frame_1_sqrt2():
    return ParameterFrame([B2.rational(1), B2.value([0, 1])])


def run_argmin(state, steps):
    dirs = []
    for _ in range(steps):
        state, d = state.step_argmin()
        dirs.append(d)
    return state, dirs


# frozen by an independent Decimal simulation: the argmin word for (1, sqrt2)
TRACE_DIRS = [0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0]
# and the first six step values as (rational, sqrt2) coefficient pairs
TRACE_MS = [(1, 0), (-1, 1), (-1, 1), (3, -2), (3, -2), (-7, 5)]


def test_argmin_trace_matches_oracle():
    state, dirs = run_argmin(SequenceState.from_frame(frame_1_sqrt2()), 12)
    assert dirs == TRACE_DIRS
    for n, expected in enumerate(TRACE_MS):
        assert state.m_value(n).coeffs == (F(expected[0]), F(expected[1]))


def test_partial_sum_exact():
    state, _ = run_argmin(SequenceState.from_frame(frame_1_sqrt2()), 2)
    # 1 + (sqrt2 - 1) == sqrt2
    assert state.partial_sum.coeffs == (F(0), F(1))


def test_conservation_every_step():
    state = SequenceState.from_frame(frame_1_sqrt2())
    assert state.conservation_check()
    for _ in range(40):
        state, _ = state.step_argmin()
        assert state.conservation_check()


def test_bound_gap_stays_positive():
    state = SequenceState.from_frame(frame_1_sqrt2())
    assert state.series_bound().coeffs == (F(1), F(1))
    for _ in range(60):
        state, _ = state.step_argmin()
        assert state.bound_gap_sign() > 0


def test_ambiguous_tie_raises():
    frame = ParameterFrame([B2.rational(1), B2.rational(1)])
    with pytest.raises(AmbiguousDirection):
        SequenceState.from_frame(frame).step_argmin()


def test_scripted_step_checks_minimality():
    state = SequenceState.from_frame(frame_1_sqrt2())
    with pytest.raises(DirectionNotMinimal):
        state.step_in_direction(1)
    state = state.step_in_direction(0)  # fine: x carries the minimum
    assert state.step_count == 1


def test_scripted_tie_collision_raises():
    # (1, 2) -> x-step -> (1, 1); a further x-step would zero out y
    frame = ParameterFrame([B2.rational(1), B2.rational(2)])
    state = SequenceState.from_frame(frame).step_in_direction(0)
    with pytest.raises(NonPositiveValue):
        state.step_in_direction(0)


def test_run_equals_repeated_steps():
    frame = ParameterFrame([B2.rational(1), B2.value([0, 4])])
    bulk = SequenceState.from_frame(frame).run_in_direction(0, 5)
    slow = SequenceState.from_frame(frame)
    for _ in range(5):
        slow = slow.step_in_direction(0)
    assert bulk.frame_values == slow.frame_values
    assert bulk.partial_sum == slow.partial_sum
    assert bulk.direction_counts() == slow.direction_counts() == {"x": 5, "y": 0}
    assert bulk.step_count == 1 and slow.step_count == 5


def test_run_overshoot_raises():
    frame = ParameterFrame([B2.rational(1), B2.value([0, 4])])
    state = SequenceState.from_frame(frame)
    with pytest.raises(DirectionNotMinimal):
        state.run_in_direction(0, 7)  # 4*sqrt2 < 7
    with pytest.raises(DirectionNotMinimal):
        state.run_in_direction(1, 1)


def test_rescale_replaces_frame_and_resets_segment():
    state, _ = run_argmin(SequenceState.from_frame(frame_1_sqrt2()), 2)
    new_vals = (B2.rational(F(1, 3)), B2.value([0, F(1, 5)]))
    before_E = state.partial_sum
    _, m = state.current_min()
    state = state.rescale(new_vals, direction=0)
    assert state.frame_values == new_vals
    assert state.partial_sum == before_E + m
    assert state.had_rescale
    assert state.conservation_check()  # fresh segment, trivially balanced
    rec = state.history[-1]
    assert rec.kind == "rescale" and rec.direction == 0
    with pytest.raises(ValueError):
        state.bound_gap_sign()


def test_rescale_validates_values():
    state = SequenceState.from_frame(frame_1_sqrt2())
    with pytest.raises(NonPositiveValue):
        state.rescale((B2.rational(0), B2.rational(1)))
    with pytest.raises(ValueError):
        state.rescale((B2.rational(1),))


def test_m_value_index_errors():
    state, _ = run_argmin(SequenceState.from_frame(frame_1_sqrt2()), 3)
    with pytest.raises(IndexOutOfRange):
        state.m_value(3)
    with pytest.raises(IndexOutOfRange):
        state.m_value(-1)


def test_starving_directions_empty_for_active_run():
    state, _ = run_argmin(SequenceState.from_frame(frame_1_sqrt2()), 100)
    assert state.starving_directions(50) == set()
    assert state.starving_directions(1) in ({"x"}, {"y"})
    assert state.starving_directions(0) == set()
    with pytest.raises(ValueError):
        state.starving_directions(-1)


def test_starving_directions_count_steps_inside_a_bulk_run():
    frame = ParameterFrame([B2.rational(1), B2.rational(F(11, 10))])
    start = SequenceState.from_frame(frame).step_in_direction(0)
    bulk = start.run_in_direction(1, 3)
    single = start
    for _ in range(3):
        single = single.step_in_direction(1)
    assert bulk.starving_directions(2) == single.starving_directions(2) == {"x"}
    for window in range(6):
        assert bulk.starving_directions(window) == single.starving_directions(window)


def test_idle_directions_is_where_prefix_dominance_breaks():
    basis = RealBasis.default(1)

    def idle(*values):
        frame = ParameterFrame([basis.rational(q) for q in values])
        return SequenceState.from_frame(frame).idle_directions()

    assert idle(1, F(3, 2), F(7, 4)) == frozenset()
    # sorted (1, 2, 3): 1*3 >= 1 + 2 at j = 3, whatever the input order
    assert idle(3, 1, 2) == frozenset({0})
    # the first break decides: 5 >= 1 + 2 already, so 20 is idle with it
    assert idle(20, 1, 2, 5) == frozenset({0, 3})
    # two directions both step, however far apart
    assert idle(1, 10**9) == frozenset()


_POOL_DRAWS = st.integers(2, 6).flatmap(
    lambda d: st.lists(st.sampled_from(_FRACTION_POOL), min_size=d, max_size=d))


@given(_POOL_DRAWS, st.integers(0, 30))
# certifying on (j-1)*a_j, the mean of the lower set, steps direction 2 here
@example(coeffs=[F(5, 2), F(1, 3), F(3, 2), F(1)], steps=9)
@settings(max_examples=100, deadline=None)
def test_idle_directions_are_never_stepped(coeffs, steps):
    frame = diagonal_frame(coeffs)
    state = SequenceState.from_frame(frame)
    assert (not state.idle_directions()) == prefix_dominance(sorted(frame.values))
    state, _ = run_argmin(state, steps)
    idle = state.idle_directions()
    assert len(coeffs) > 2 or not idle  # a pair is never certified
    _, later = run_argmin(state, 300)
    assert not idle & set(later)


def test_first_use_order_report_frozen_example():
    basis = RealBasis.default(1)
    frame = ParameterFrame(
        [basis.rational(1), basis.rational(F(3, 2)), basis.rational(F(7, 4))]
    )
    state, dirs = run_argmin(SequenceState.from_frame(frame), 3)
    assert dirs == [0, 1, 2]
    report = state.first_use_order_report()
    assert report["order"] == ("x", "y", "z")
    assert report["ascending"] is True
    assert report["gap_integer"] == 1
    assert report["prefix_dominance"] is True
    assert report["all_hold"] is True


def test_first_use_gap_integer_bigger():
    frame = ParameterFrame([B2.rational(1), B2.value([0, F(5, 2)])])
    state, _ = run_argmin(SequenceState.from_frame(frame), 4)
    report = state.first_use_order_report()
    assert report["gap_integer"] == 3  # 3 < 5*sqrt2/2 ~ 3.53 < 4


def test_first_use_requires_coverage():
    state, _ = run_argmin(SequenceState.from_frame(frame_1_sqrt2()), 1)
    with pytest.raises(IncompleteCoverage):
        state.first_use_order_report()


def test_quotient_drops_spectator_direction():
    basis = RealBasis.default(2)
    frame = ParameterFrame(
        [basis.rational(1), basis.value([0, 1]), basis.rational(10)]
    )
    state, _ = run_argmin(SequenceState.from_frame(frame), 10)
    assert state.direction_counts()["z"] == 0
    flat, _ = run_argmin(SequenceState.from_frame(frame_1_sqrt2()), 10)
    assert [r.m_value.coeffs for r in state.history] == [
        r.m_value.coeffs for r in flat.history
    ]


def _settled(state):
    """The state's derived shadows clear the floor and the error cap."""
    sh, err = state._shadows()
    return min(sh) >= 1 << _SH_MIN and max(err) <= _SH_ERR_MAX


def test_history_branches_do_not_interfere():
    state = SequenceState.from_frame(frame_1_sqrt2())
    a = state.step_in_direction(0)
    assert _settled(a)
    b, _ = a.step_argmin()  # extends the shared buffer with a y-step
    assert _settled(b)
    c = a.rescale((B2.rational(1), B2.rational(2)))  # sibling branch
    assert _settled(c)
    assert len(b.history) == len(c.history) == 2
    assert b.history[0] == c.history[0]
    assert b.history[1].kind == "monomial" and b.history[1].direction == 1
    assert c.history[1].kind == "rescale"
    # the rescale sibling c was born with fresh shadows at its own scale
    sh, err = c._shadows()
    assert err == [2, 2]
    assert sh == [shadow(B2, v._nums, v._den, c._shscale) for v in c.frame_values]
    d = a.rescale((B2.value([0, 1]), B2.rational(3)))
    assert _settled(d) and d._shadows()[1] == [2, 2]
    for branch in (b, d):
        fresh = SequenceState.from_frame(branch.frame_values)
        assert run_argmin(branch, 20)[1] == run_argmin(fresh, 20)[1]


def _random_frame(rng, d):
    basis = RealBasis.default(d)
    vals = [basis.rational(F(rng.randint(1, 9), rng.randint(1, 9)))]
    for i in range(1, d):
        coeffs = [0] * d
        coeffs[i] = F(rng.randint(1, 9), rng.randint(1, 9))
        vals.append(basis.value(coeffs))
    return ParameterFrame(vals)


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_random_runs_keep_invariants(seed, d):
    rng = random.Random(seed)
    state = SequenceState.from_frame(_random_frame(rng, d))
    prev_m = None
    for _ in range(30):
        state, _ = state.step_argmin()
        assert state.conservation_check()
        assert state.bound_gap_sign() > 0
        m = state.m_value(state.step_count - 1)
        if prev_m is not None:
            assert m.cmp(prev_m) <= 0  # step values never increase
        prev_m = m
    for v in state.frame_values:
        assert v.sign() > 0


class _Oracle:
    """Shadow-free reference: argmin by ValueVector.cmp, exact subtraction."""

    def __init__(self, values):
        self.vals = list(values)
        self.E = self.vals[0].basis.zero()
        self.hist = []
        # the initial frame's sum, for the series ceiling; None once a
        # rescale voids the ceiling
        self.total = sum(self.vals[1:], self.vals[0])

    def argmin(self):
        """Lowest index of a minimal value, and whether the minimum is tied."""
        mi = 0
        for j in range(1, len(self.vals)):
            if self.vals[j].cmp(self.vals[mi]) < 0:
                mi = j
        tied = any(j != mi and v.cmp(self.vals[mi]) == 0
                   for j, v in enumerate(self.vals))
        return mi, tied

    def overshoot(self, w, count):
        """The error a run of ``count`` steps in ``w`` raises, or None."""
        for j, v in enumerate(self.vals):
            sgn = 1 if j == w else (v - self.vals[w].scale(count)).sign()
            if sgn < 0:
                return DirectionNotMinimal
            if sgn == 0:
                return NonPositiveValue
        return None

    def step(self, w, count=1):
        m = self.vals[w]
        self.vals = [v if j == w else v - m.scale(count)
                     for j, v in enumerate(self.vals)]
        self.E = self.E + m.scale(count)
        self.hist.append(StepRecord("monomial", w, m, count))

    def rescale(self, new_values, direction):
        m = self.vals[self.argmin()[0]]
        self.vals = list(new_values)
        self.E = self.E + m
        self.total = None
        self.hist.append(StepRecord("rescale", direction, m))

    def ceiling_sign(self):
        """Sign of sum(initial frame)/(d-1) - E; None after a rescale."""
        if self.total is None:
            return None
        return (self.total - self.E.scale(len(self.vals) - 1)).sign()


def _assert_agrees(state, oracle):
    assert state.frame_values == tuple(oracle.vals)
    assert state.partial_sum == oracle.E
    assert state.history == tuple(oracle.hist)


def _assert_invariants(state, oracle):
    """The conservation identity, the sign of the series-ceiling gap, and
    every derived shadow within its derived error of the value at the
    shadow scale, |sh_i - 2^T * a_i| <= err_i, decided exactly; the gap
    row (d-1)*(bound - E) is held to its shadow the same way."""
    assert state.conservation_check()
    sign = oracle.ceiling_sign()
    shadows = list(zip(*state._shadows(), oracle.vals))
    if sign is None:
        with pytest.raises(ValueError, match="after a rescale"):
            state.bound_gap_sign()
    else:
        assert state.bound_gap_sign() == sign
        gap = oracle.total - oracle.E.scale(len(oracle.vals) - 1)
        shadows.append((*state._gap_shadow(), gap))
    scale = 2 ** state._shscale
    for sh, err, v in shadows:
        assert (v.scale(scale) - v.basis.rational(sh - err)).sign() >= 0
        assert (v.basis.rational(sh + err) - v.scale(scale)).sign() >= 0


def _argmin_phase(state, oracle, steps):
    """Step both ``steps`` times; None once a tie stops the run."""
    for _ in range(steps):
        w, tied = oracle.argmin()
        if tied:
            with pytest.raises(AmbiguousDirection):
                state.step_argmin()
            return None
        state, got = state.step_argmin()
        assert got == w
        oracle.step(w)
        _assert_invariants(state, oracle)
    _assert_agrees(state, oracle)
    return state


_BIG = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))


@st.composite
def _big_values(draw, d):
    """d positive values over the default basis of size d, heights up to
    10^12, all scaled by one power of two 2^k with |k| <= 3000."""
    basis = RealBasis.default(d)
    scale = F(2) ** draw(st.integers(-3000, 3000))
    values = []
    for _ in range(d):
        v = basis.value(draw(st.lists(_BIG, min_size=d, max_size=d)))
        v = v if v.sign() > 0 else -v if v.sign() < 0 else basis.rational(1)
        values.append(v.scale(scale))
    return values


@st.composite
def _big_runs(draw):
    d = draw(st.integers(2, 5))
    return (draw(_big_values(d)), draw(_big_values(d)), draw(_big_values(d)),
            draw(st.integers(2, 6)), draw(st.one_of(st.none(), st.integers(0, d - 1))))


# no shrink phase: shrinking a failing run of values scaled by up to
# 2^3000 reran exact sign refinement for minutes at over a gigabyte; the
# drawn run is reported in seconds instead
@given(_big_runs())
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_stepping_matches_a_shadow_free_oracle(run):
    """Argmin steps, a bulk run, a rescale, argmin steps, a second rescale
    and argmin steps again; the invariants and shadow bounds hold after
    every step."""
    frame, new_values, second_values, count, rescale_dir = run
    state = SequenceState.from_frame(frame)
    oracle = _Oracle(frame)
    _assert_invariants(state, oracle)
    state = _argmin_phase(state, oracle, 25)
    if state is None:
        return
    # a run of `count` steps in the minimal direction, cut back to the
    # longest run that keeps every other value positive
    w, tied = oracle.argmin()
    if not tied:
        while (err := oracle.overshoot(w, count)) is not None:
            with pytest.raises(err):
                state.run_in_direction(w, count)
            count -= 1
        state = state.run_in_direction(w, count)
        oracle.step(w, count)
        _assert_agrees(state, oracle)
        _assert_invariants(state, oracle)
    state = state.rescale(new_values, direction=rescale_dir)
    oracle.rescale(new_values, rescale_dir)
    _assert_agrees(state, oracle)
    _assert_invariants(state, oracle)
    state = _argmin_phase(state, oracle, 25)
    if state is None:
        return
    # the second segment starts mid-run, from a state whose partial sum
    # has both a segment start E_seg and steps D since then
    state = state.rescale(second_values)
    oracle.rescale(second_values, None)
    _assert_agrees(state, oracle)
    _assert_invariants(state, oracle)
    _argmin_phase(state, oracle, 25)


def _step_letters(frame, steps):
    """The step_argmin letters, and whether a tie stopped them."""
    state, word = SequenceState.from_frame(frame), []
    for _ in range(steps):
        try:
            state, w = state.step_argmin()
        except AmbiguousDirection:
            return word, True
        word.append(w)
    return word, False


# small rational frames tie often; the large ones exercise the shadows
_SMALL = st.integers(2, 5).flatmap(lambda d: st.lists(
    st.integers(1, 8).map(RealBasis.default(d).rational), min_size=d, max_size=d))


@given(st.one_of(_SMALL, st.integers(2, 5).flatmap(_big_values)))
@settings(max_examples=80, deadline=None)
def test_argmin_word_matches_step_argmin(frame):
    expected, tied = _step_letters(frame, 30)
    word = argmin_word(frame)
    assert list(itertools.islice(word, len(expected))) == expected
    if tied:
        with pytest.raises(AmbiguousDirection):
            next(word)


def test_argmin_word_raises_at_the_tied_step():
    # (1, 2): the first letter is x, after which both values are 1
    frame = ParameterFrame([B2.rational(1), B2.rational(2)])
    word = argmin_word(frame)
    assert next(word) == 0
    with pytest.raises(AmbiguousDirection):
        next(word)


@given(st.integers(0, 10_000), st.integers(2, 4), st.booleans(), st.integers(0, 12),
       st.sampled_from([1, 4, 60, 400]), st.sampled_from([-1, 0, 1]))
@example(seed=0, d=2, rational=True, steps=0, k=400, side=1)
@example(seed=0, d=2, rational=True, steps=0, k=400, side=0)
@settings(max_examples=80, deadline=None)
def test_frame_below_matches_the_interval_certificate(seed, d, rational, steps, k, side):
    """eps sits at, just above or just below the largest value, down to a
    relative 2^-400 away: inside the shadows' error band and outside it."""
    rng = random.Random(seed)
    basis = RealBasis.default(d)
    if rational:
        frame = ParameterFrame([basis.rational(F(rng.randint(1, 99), rng.randint(1, 9)))
                                for _ in range(d)])
    else:
        frame = _random_frame(rng, d)
    state = SequenceState.from_frame(frame)
    for _ in range(steps):
        try:
            state, _ = state.step_argmin()
        except AmbiguousDirection:
            break
    _, hi = max(state.frame_values).evaluate_interval(F(1, 2 ** (k + 8)))
    eps = hi * (1 + F(side, 2 ** k))
    by_intervals = all(v.evaluate_interval(eps / 4)[1] < eps for v in state.frame_values)
    assert state.frame_below(eps) == by_intervals
    assert not state.frame_below(F(0))


def test_long_runs_refresh_the_shadows_once_per_state(monkeypatch):
    real = sequence.settled_shadows
    rows_refreshed = []

    def counting(basis, rows, den, T=None, sh=None):
        rows_refreshed.append(rows)
        return real(basis, rows, den, T, sh)

    monkeypatch.setattr(sequence, "settled_shadows", counting)
    state = SequenceState.from_frame(frame_1_sqrt2())
    oracle = _Oracle(state.frame_values)
    states = [state]
    for _ in range(300):
        state = _argmin_phase(state, oracle, 1)
        assert state.conservation_check() and state.bound_gap_sign() > 0
        states.append(state)
    # a refresh reads the frame rows of the state it settles, and no two
    # states of an argmin run share a frame
    step_of = {tuple(v._nums for v in s.frame_values): s.step_count for s in states}
    refreshed = [step_of[tuple(map(tuple, rows))] for rows in rows_refreshed]
    assert refreshed[0] == 0
    assert any(n > 0 for n in refreshed), "300 steps never refreshed the shadows"
    assert len(set(refreshed)) == len(refreshed)
    # every state was born settled: settling it again rebuilds nothing
    before = len(refreshed)
    for s in states:
        sb = s._sb
        s._settle()
        assert s._sb is sb
    assert len(rows_refreshed) == before


def test_a_value_near_two_to_the_minus_2000_settles_in_few_rounds(monkeypatch):
    # p - q*sqrt2 = (sqrt2 - 1)^1600, about 2^-2035, with a denominator of
    # 1: the first scale leaves its shadow at 0, and doubling the scale
    # reaches the floor in six rounds where adding 119 bits would take 17
    p, q = 1, 0
    for _ in range(1600):
        p, q = p + 2 * q, p + q
    real = values.shadow
    scales = []

    def counting(basis, nums, den, T):
        scales.append(T)
        return real(basis, nums, den, T)

    # a round evaluates every row at one scale, and each round raises it
    monkeypatch.setattr(values, "shadow", counting)
    frame = [B2.rational(1), B2.value([p, -q])]
    state = SequenceState.from_frame(frame)
    assert _settled(state)
    assert len(set(scales)) <= 6
    oracle = _Oracle(frame)
    _argmin_phase(state, oracle, 5)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bound_gap_sign_falls_back_to_the_exact_sign(monkeypatch, d):
    # a gap shadow whose error covers everything leaves every sign to the
    # exact row (d-1)*(bound - E)
    monkeypatch.setattr(SequenceState, "_gap_shadow", lambda self: (0, 1 << 4096))
    state = SequenceState.from_frame(gen_random_independent(d, seed=0).frame)
    for _ in range(500):
        state, _w = state.step_argmin()
        assert state.bound_gap_sign() == 1
