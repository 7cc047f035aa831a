"""Form transforms, exhaustive order-drop sweeps, ratios, comparability."""

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import quadseq
from quadseq import forms
from quadseq.errors import AmbiguousDirection, CensusTooLarge, NotTerminated, RatioUndefined
from quadseq.forms import (
    ANTICHAIN_CAP,
    MonomialForm,
    _antichain_lanes,
    comparability_index,
    enumerate_antichains,
    ord_trace,
    order_drop_report,
    power_bracketing_report,
    ratio_limit_report,
    transform_form,
    value_of_form,
)
from quadseq.monomials import divides, minimalize, strip_rewrite
from quadseq.sequence import ParameterFrame, SequenceState
from quadseq.values import RealBasis

B2 = RealBasis.default(2)


def frame_1_sqrt2():
    return ParameterFrame([B2.rational(1), B2.value([0, 1])])


def test_form_normalizes_support():
    f = MonomialForm([(1, 1), (0, 2), (1, 1)])
    assert f.support == ((0, 2), (1, 1))
    assert f.order() == 2
    assert not f.is_unit
    assert MonomialForm([(0, 0), (1, 0)]).is_unit


def test_transform_form_example():
    f = MonomialForm([(3, 0), (0, 2)])
    t = transform_form(f, 0)
    # support size is preserved, unlike the ideal transform
    assert t.support == ((0, 2), (1, 0))
    assert ord_trace(f, [0, 1]) == (2, 1, 1)


def test_antichain_counts_frozen():
    assert len(enumerate_antichains(2, 3)) == 40
    assert len(enumerate_antichains(3, 3)) == 2496
    # d = 4 has 2,154,533: refused one past the cap, before any table
    with pytest.raises(CensusTooLarge) as exc:
        enumerate_antichains(4, 3)
    assert exc.value.estimate == ANTICHAIN_CAP + 1


def _antichains_by_clash(dim, max_degree):
    """The antichains in the clash-table order, by pairwise divisibility."""
    monos = forms._nonunit_monomials(dim, max_degree)
    out = []

    def rec(start, chosen):
        for i in range(start, len(monos)):
            if not any(divides(a, monos[i]) or divides(monos[i], a) for a in chosen):
                out.append(tuple(chosen) + (monos[i],))
                rec(i + 1, chosen + [monos[i]])

    rec(0, [])
    return tuple(out)


@pytest.mark.parametrize("dim, max_degree", [(1, 1), (1, 7), (1, 200), (2, 3), (3, 2)])
def test_antichains_equal_the_clash_table_order(dim, max_degree):
    assert enumerate_antichains(dim, max_degree) == _antichains_by_clash(dim, max_degree)


def test_single_variable_antichains_skip_the_clash_table():
    # one variable: every monomial is its own antichain, with no quadratic table
    start = time.perf_counter()
    assert len(enumerate_antichains.__wrapped__(1, 2000)) == 2000
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("dim, max_degree", [(3, 30), (2, 10**6), (1, 10**6), (4, 3)])
def test_a_sweep_past_the_cap_is_refused_before_any_monomial_is_listed(
        monkeypatch, dim, max_degree):
    # the top degree alone, or the single monomials, pass the cap; (3, 30)
    # used to list 5,455 monomials and a clash table over them first
    def unlisted(*_):
        raise AssertionError("the monomials of a refused sweep were listed")

    monkeypatch.setattr(forms, "_nonunit_monomials", unlisted)
    with pytest.raises(CensusTooLarge) as exc:
        enumerate_antichains(dim, max_degree)
    assert exc.value.estimate == ANTICHAIN_CAP + 1
    assert str(exc.value) == (f"more than 100000 antichains of degree <= {max_degree} "
                              f"in {dim} variables")


def test_a_sweep_that_passes_the_pre_check_is_refused_inside_the_walk(monkeypatch):
    # degree 4 in 3 variables: 15 top-degree monomials and 34 in all pass
    # the pre-check, so the walk itself counts past the cap
    listed = []
    real = forms._nonunit_monomials
    monkeypatch.setattr(forms, "_nonunit_monomials",
                        lambda *args: listed.append(args) or real(*args))
    with pytest.raises(CensusTooLarge) as exc:
        enumerate_antichains.__wrapped__(3, 4)
    assert listed == [(3, 4)]
    assert exc.value.estimate == ANTICHAIN_CAP + 1


@pytest.mark.parametrize("dim, max_degree, lane_bytes",
                         [(2, 3, 1), (3, 2, 2), (3, 3, 1), (3, 3, 16)])
def test_antichain_lanes_layout(dim, max_degree, lane_bytes):
    # widest first and unpadded: slot k holds member k of every antichain
    # that has one, antichain j in lane j, with the guard bit of each lane
    chains = sorted(enumerate_antichains(dim, max_degree), key=len, reverse=True)
    columns, guards = _antichain_lanes(dim, max_degree, lane_bytes)
    bits = 8 * lane_bytes
    assert len(columns) == dim and len(guards) == len(chains[0])
    for k, guard in enumerate(guards):
        members = [c[k] for c in chains if len(c) > k]
        assert guard == sum(1 << j * bits + bits - 1 for j in range(len(members)))
        for i in range(dim):
            packed = columns[i][k]
            assert packed >> len(members) * bits == 0
            assert [packed >> j * bits & (1 << bits) - 1
                    for j in range(len(members))] == [m[i] for m in members]
    assert sum(g.bit_length() // bits for g in guards) == sum(map(len, chains))


def test_order_drop_full_coverage_d2():
    report = order_drop_report(2, [0, 1])
    assert report["full_coverage"]
    assert report["forms_checked"] == 40
    assert report["all_drop"]
    assert report["orders_monotone"]


def test_order_drop_full_coverage_d3():
    report = order_drop_report(3, [2, 0, 1, 0])
    assert report["full_coverage"]
    assert report["forms_checked"] == 2496
    assert report["all_drop"]


def test_order_drop_missing_direction_witness():
    report = order_drop_report(2, [0, 0, 0])
    assert not report["full_coverage"]
    assert report["missing"] == (1,)
    assert report["witness"].support == (((0, 1)),)
    assert report["witness_trace"] == (1, 1, 1, 1)
    assert report["witness_constant"]


def test_order_drop_refuses_a_degree_below_one():
    with pytest.raises(ValueError, match="max_degree must be >= 1"):
        order_drop_report(2, [0, 1], 0)


def _oracle_report(dim, word, max_degree):
    """order_drop_report of a covering word, from ord_trace on every antichain."""
    traces = [ord_trace(MonomialForm(c, dim=dim), word)
              for c in enumerate_antichains(dim, max_degree)]
    return {
        "full_coverage": True,
        "forms_checked": len(traces),
        "all_drop": all(t[-1] < t[0] for t in traces),
        "orders_monotone": all(a >= b for t in traces for a, b in zip(t, t[1:])),
        "max_final_order": max(t[-1] for t in traces),
    }


@st.composite
def covering_words(draw, max_length=140, d3_max_degree=2):
    dim = draw(st.sampled_from((2, 3)))
    # the d = 3, degree-3 oracle walks 2,496 antichains, seconds per long
    # word: short words, the boundary words and criterion 6 cover that sweep
    max_degree = draw(st.integers(1, 3 if dim == 2 else d3_max_degree))
    length = draw(st.integers(dim, max_length))
    word = draw(st.lists(st.integers(0, dim - 1), min_size=length, max_size=length))
    spots = draw(st.lists(st.integers(0, length - 1), min_size=dim, max_size=dim,
                          unique=True))
    for w, i in enumerate(spots):
        word[i] = w
    return dim, word, max_degree


# no shrink phase: a failing word of up to 140 letters is reported as
# drawn, in seconds, where shrinking it reran the oracle for minutes
@given(covering_words())
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_order_drop_matches_the_trace_oracle(case):
    # lanes widen when the largest image of a variable along the word,
    # times max_degree, passes 2^7, 2^15, 2^31 and 2^63
    dim, word, max_degree = case
    assert order_drop_report(dim, word, max_degree) == _oracle_report(dim, word, max_degree)


@given(covering_words(max_length=8, d3_max_degree=3))
@settings(max_examples=30, deadline=None)
def test_order_drop_matches_the_trace_oracle_on_short_words(case):
    # the words of criterion 6 and of the benchmark, at every degree up to 3
    dim, word, max_degree = case
    assert order_drop_report(dim, word, max_degree) == _oracle_report(dim, word, max_degree)


def _boundary_word(dim, length):
    return [(i * 7 + i // dim) % dim for i in range(length)]


# each pair of lengths sits on both sides of a lane step from 1 to 2, 4, 8
# or 16 bytes along _boundary_word (pinned below); the d = 3, degree-3
# oracle takes about a second at 36 letters, so it stops at the 8-byte step
_BOUNDARIES = {
    (2, 3): ((8, 9), (20, 21), (45, 46), (96, 97)),
    (3, 2): ((6, 7), (16, 17), (35, 36), (74, 75)),
    (3, 3): ((6, 7), (15, 16), (35, 36)),
}
# the steps of the earlier lanes, sized by max_degree << len(word), stay
# as oracle words
_DOUBLING_STEPS = {(2, 3): (5, 6, 13, 14, 29, 30, 61, 62),
                   (3, 2): (5, 6, 13, 14, 29, 30, 61, 62), (3, 3): (5, 6, 13, 14)}
_BOUNDARY_CASES = [(d, m, n) for (d, m), pairs in _BOUNDARIES.items()
                   for n in sorted({*itertools.chain(*pairs), *_DOUBLING_STEPS[d, m]})]


@pytest.mark.parametrize("dim, max_degree, length", _BOUNDARY_CASES,
                         ids=[f"d{d}-deg{m}-{n}-letters" for d, m, n in _BOUNDARY_CASES])
def test_order_drop_matches_the_trace_oracle_at_lane_boundaries(dim, max_degree, length):
    word = _boundary_word(dim, length)
    assert set(word) == set(range(dim))
    assert order_drop_report(dim, word, max_degree) == _oracle_report(dim, word, max_degree)


def test_boundary_lengths_straddle_each_lane_step(monkeypatch):
    widths = []

    def recording(dim, max_degree, lane_bytes):
        widths.append(lane_bytes)
        return _antichain_lanes(dim, max_degree, lane_bytes)

    monkeypatch.setattr(forms, "_antichain_lanes", recording)
    for (dim, max_degree), pairs in _BOUNDARIES.items():
        for k, (short, long) in enumerate(pairs):
            widths.clear()
            for n in (short, long):
                order_drop_report(dim, _boundary_word(dim, n), max_degree)
            assert widths == [1 << k, 2 << k], (dim, max_degree, short)


# degrees pass 2^40 on these words; ord_trace on every antichain gives
# the same reports (the d = 3 oracle takes seconds, so the result is pinned)
@pytest.mark.parametrize("dim, word, forms", [
    (3, [0, 1] * 50 + [2], 2496),
    (2, [0, 1] * 50, 40),
], ids=["d3-101-letters", "d2-100-letters"])
def test_order_drop_is_exact_on_long_words(dim, word, forms):
    assert order_drop_report(dim, word) == {
        "full_coverage": True,
        "forms_checked": forms,
        "all_drop": True,
        "orders_monotone": True,
        "max_final_order": 0,
    }


def test_value_of_form():
    f = MonomialForm([(2, 0), (0, 1)])
    v = value_of_form(frame_1_sqrt2().values, f)
    assert v.coeffs == (F(0), F(1))  # sqrt2 < 2


# frozen by the independent Decimal oracle
RATIO_TABLE = [
    (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 7, 5), (5, 10, 7),
    (6, 17, 12), (7, 24, 17), (8, 41, 29), (9, 58, 41), (10, 99, 70),
]


def test_ratio_report_frozen_table():
    report = ratio_limit_report(
        frame_1_sqrt2(), MonomialForm([(0, 1)]), MonomialForm([(1, 0)]), 10
    )
    assert [(r["n"], r["ordF"], r["ordG"]) for r in report["trace"]] == RATIO_TABLE
    limit = report["limit"]
    assert limit["kind"] == "irrational"
    assert limit["value_f"] == ["0", "1"]
    assert limit["value_g"] == ["1", "0"]
    lo = F(limit["interval"]["lo"])
    hi = F(limit["interval"]["hi"])
    assert lo < hi
    # bracket sqrt2: lo^2 < 2 < hi^2
    assert lo * lo < 2 < hi * hi


def test_ratio_report_rational_limit():
    report = ratio_limit_report(
        frame_1_sqrt2(), MonomialForm([(2, 0)]), MonomialForm([(1, 0)]), 5
    )
    assert report["limit"] == {"kind": "rational", "num": 2, "den": 1}


def _rational_ratio(f_val, g_val):
    """q with f == q * g if such a rational exists, else None: the
    coefficient scan ratio_limit_report used to run, kept as the oracle."""
    q = None
    for a, b in zip(f_val.coeffs, g_val.coeffs):
        if b == 0:
            if a != 0:
                return None
            continue
        if q is None:
            q = a / b
        elif q != a / b:
            return None
    return q


B3 = RealBasis.default(3)


def frame_1_sqrt2_sqrt3():
    return ParameterFrame([B3.rational(1), B3.value([0, 1, 0]), B3.value([0, 0, 1])])


@pytest.mark.parametrize("frame, f, g, expected", [
    (frame_1_sqrt2, [(2, 0)], [(1, 0)], F(2)),
    (frame_1_sqrt2, [(3, 0)], [(2, 0)], F(3, 2)),
    (frame_1_sqrt2, [(0, 3)], [(0, 1)], F(3)),
    (frame_1_sqrt2, [(2, 0), (0, 2)], [(1, 0)], F(2)),
    # over two generators, with no rational part to read q at
    (frame_1_sqrt2_sqrt3, [(0, 2, 2)], [(0, 1, 1)], F(2)),
    (frame_1_sqrt2, [(0, 1)], [(1, 0)], None),
    (frame_1_sqrt2, [(2, 1)], [(1, 1)], None),
    (frame_1_sqrt2_sqrt3, [(0, 2, 1)], [(0, 1, 1)], None),
    (frame_1_sqrt2_sqrt3, [(1, 1, 0)], [(0, 0, 1)], None),
    # a unit f has order 0 and value 0
    (frame_1_sqrt2, [(0, 0)], [(1, 0)], F(0)),
    (frame_1_sqrt2_sqrt3, [(0, 0, 0)], [(0, 1, 1)], F(0)),
], ids=["2", "3/2", "3", "two-monomials", "two-generators", "sqrt2", "sqrt2-mixed",
        "irrational-two-generators", "irrational-mixed", "unit-f", "unit-f-d3"])
def test_ratio_limit_matches_the_coefficient_scan(frame, f, g, expected):
    frame = frame()
    f, g = MonomialForm(f), MonomialForm(g)
    q = _rational_ratio(value_of_form(frame.values, f), value_of_form(frame.values, g))
    assert q == expected
    limit = ratio_limit_report(frame, f, g, 3)["limit"]
    if q is None:
        assert limit["kind"] == "irrational"
    else:
        assert limit == {"kind": "rational", "num": q.numerator, "den": q.denominator}


def test_an_irrational_limit_near_zero_narrows_its_enclosure_until_it_is_positive():
    # eps = p - q*sqrt2, about 2^-143: the first enclosures of the ratio
    # eps/1 reach below 0, so the loop narrows them until lo > 0
    p, q = 3, 2
    while p.bit_length() < 140:
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    eps = B2.value([p, -q])
    frame = ParameterFrame([B2.rational(1), eps])
    limit = ratio_limit_report(frame, MonomialForm([(0, 1)]), MonomialForm([(1, 0)]), 5)["limit"]
    assert limit["kind"] == "irrational"
    lo, hi = F(limit["interval"]["lo"]), F(limit["interval"]["hi"])
    assert lo > 0
    assert B2.rational(lo) <= eps <= B2.rational(hi)


def test_ratio_undefined_for_unit_denominator():
    with pytest.raises(RatioUndefined):
        ratio_limit_report(
            frame_1_sqrt2(), MonomialForm([(0, 1)]), MonomialForm([(0, 0)]), 3
        )


def test_power_bracketing_onset_and_exclusion():
    f, g = MonomialForm([(0, 1)]), MonomialForm([(1, 0)])
    # p = floor(q * sqrt2): both quotients enter the ring and stay there
    for p, q in [(1, 1), (7, 5), (16, 12), (1414, 1000)]:
        rows = power_bracketing_report(frame_1_sqrt2(), f, g, p=p, q=q, steps=40)
        for key in ("lower_divides", "divides_upper"):
            flags = [r[key] for r in rows]
            assert all(flags[flags.index(True):])  # once inside, stays inside
        both = [r for r in rows if r["lower_divides"] and r["divides_upper"]]
        assert both
        for r in both:
            assert p * r["ordG"] <= q * r["ordF"] <= (p + 1) * r["ordG"]
    # 1415/1000 > sqrt2: f^1000 / g^1415 has negative value, never in a ring
    rows = power_bracketing_report(frame_1_sqrt2(), f, g, p=1415, q=1000, steps=40)
    assert not any(r["lower_divides"] for r in rows)


def test_comparability_index_frozen():
    frame = frame_1_sqrt2()
    assert comparability_index(frame, (0, 1), (2, 0)) == (2, "q/p")
    assert comparability_index(frame, (2, 0), (0, 1)) == (2, "p/q")
    assert comparability_index(frame, (1, 0), (2, 0)) == (0, "q/p")
    with pytest.raises(ValueError):
        comparability_index(frame, (1, 0), (1, 0))
    with pytest.raises(NotTerminated):
        comparability_index(frame, (0, 1), (2, 0), max_steps=1)


def test_comparability_index_takes_no_step_past_max_steps(monkeypatch):
    real = SequenceState.step_argmin
    calls = []

    def counting(state):
        calls.append(state.step_count)
        return real(state)

    monkeypatch.setattr(SequenceState, "step_argmin", counting)
    with pytest.raises(NotTerminated):
        comparability_index(frame_1_sqrt2(), (0, 1), (2, 0), max_steps=1)
    assert len(calls) == 1
    # (2, 1) ties at step 2: a bound of one step must not reach the tie
    tied = ParameterFrame([B2.rational(2), B2.rational(1)])
    with pytest.raises(NotTerminated):
        comparability_index(tied, (2, 0), (0, 3), max_steps=1)
    with pytest.raises(AmbiguousDirection):
        comparability_index(tied, (2, 0), (0, 3), max_steps=2)


def test_comparability_side_matches_value_order():
    frame = frame_1_sqrt2()
    vals = frame.values
    from quadseq.monomials import monomial_value

    for p, q in [((0, 1), (2, 0)), ((3, 0), (0, 2)), ((1, 1), (0, 2))]:
        t, side = comparability_index(frame, p, q)
        vp, vq = monomial_value(vals, p), monomial_value(vals, q)
        assert side == ("q/p" if vq.cmp(vp) >= 0 else "p/q")


def _comparability_by_strip(frame, p_img, q_img, max_steps):
    """The stripping loop comparability_index used to run: the reference."""
    state = SequenceState.from_frame(frame)
    t = 0
    while t <= max_steps:
        if divides(p_img, q_img):
            return t, "q/p"
        if divides(q_img, p_img):
            return t, "p/q"
        state, w = state.step_argmin()
        p_img, q_img = strip_rewrite((p_img, q_img), w)
        t += 1
    return None


@st.composite
def _comparability_cases(draw):
    d = draw(st.integers(2, 4))
    basis = RealBasis.default(d)
    coeffs = [F(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(d)]
    # a rational slot and one square-root slot per other direction: no ties
    frame = ParameterFrame([basis.rational(coeffs[0])] + [
        basis.value([c if j == i else 0 for j in range(d)])
        for i, c in enumerate(coeffs) if i])
    mono = st.tuples(*[st.integers(0, 5)] * d)
    p, q = draw(st.lists(mono, min_size=2, max_size=2, unique=True))
    return frame, p, q, draw(st.integers(0, 8))


@given(_comparability_cases())
@settings(max_examples=80, deadline=None)
def test_comparability_index_matches_the_stripping_loop(case):
    frame, p, q, max_steps = case
    expected = _comparability_by_strip(frame, p, q, max_steps)
    if expected is None:
        with pytest.raises(NotTerminated):
            comparability_index(frame, p, q, max_steps)
    else:
        assert comparability_index(frame, p, q, max_steps) == expected


monomials2 = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda m: sum(m) > 0)


@given(st.lists(monomials2, min_size=1, max_size=5), st.lists(st.integers(0, 1), min_size=1, max_size=5))
@settings(max_examples=150)
def test_trace_equals_minimal_support_trace(support, word):
    full = MonomialForm(support)
    reduced = MonomialForm(minimalize(support))
    assert ord_trace(full, word) == ord_trace(reduced, word)


@given(st.lists(monomials2, min_size=1, max_size=5), st.integers(0, 1))
@settings(max_examples=150)
def test_transform_preserves_support_size_and_divisibility(support, w):
    form = MonomialForm(support)
    image = transform_form(form, w)
    assert len(image.support) == len(form.support)
    from quadseq.monomials import divides

    before = {
        (a, b): divides(a, b)
        for a in form.support
        for b in form.support
    }
    mapping = {}
    r = form.order()
    for m in form.support:
        mapping[m] = tuple(
            sum(m) - r if i == w else e for i, e in enumerate(m)
        )
    for (a, b), d in before.items():
        if d:
            assert divides(mapping[a], mapping[b])


_NO_NUMPY = """
import sys
import quadseq, quadseq.cli
report = quadseq.order_drop_report(3, [0, 1, 2, 0])
assert report["all_drop"]
assert quadseq.cli.main(["run", "--preset", "shannon-4.18", "--checks", "all"]) == 0
assert "numpy" not in sys.modules, "numpy loaded"
"""


def test_a_sweep_and_a_checked_run_load_no_numpy():
    # the package has no runtime dependency, so nothing it runs reaches numpy
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadseq.__file__)))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
