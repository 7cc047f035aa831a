"""Valuation-ideal chains, ladders, colengths, and the principality bound."""

import functools
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadseq
from quadseq.errors import BasisMismatch, CensusTooLarge, NotTerminated, QuadseqError
from quadseq.monomials import MonomialIdeal, extend_ideal, monomial_value
from quadseq.sequence import ParameterFrame, SequenceState
from quadseq.values import RealBasis, shadow
from quadseq import videals
from quadseq.videals import (
    enumerate_values,
    ideal_value,
    short_chain_report,
    tau_bound,
    value_ladder,
    videal_at,
    videal_chain,
)

B2 = RealBasis.default(2)


def frame_1_sqrt2():
    return ParameterFrame([B2.rational(1), B2.value([0, 1])])


# frozen by an independent Fraction/sign model over a + b*sqrt(2):
# the first four valuation ideals of (1, sqrt2) and their thresholds
CHAIN_GENS = [
    ((0, 0),),
    ((0, 1), (1, 0)),
    ((0, 1), (2, 0)),
    ((0, 2), (1, 1), (2, 0)),
]
CHAIN_THRESHOLDS = [(0, 0), (1, 0), (0, 1), (2, 0)]
# first seven attained values, as (rational, sqrt2) pairs
LADDER7 = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
# least argmin-word prefix making the first n valuation ideals principal
TAU_TABLE = [(1, 0), (2, 1), (3, 2), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3)]


def test_chain_matches_frozen_values():
    chain = videal_chain(frame_1_sqrt2(), 4)
    assert [e["ideal"].generators for e in chain] == CHAIN_GENS
    assert [e["threshold"].coeffs for e in chain] == [
        (F(a), F(b)) for a, b in CHAIN_THRESHOLDS
    ]
    assert [e["colength"] for e in chain] == [1, 1, 1, 1]
    assert [e["n"] for e in chain] == [0, 1, 2, 3]


def test_chain_descends_strictly():
    chain = videal_chain(frame_1_sqrt2(), 10)
    for a, b in zip(chain, chain[1:]):
        assert b["threshold"].cmp(a["threshold"]) > 0
        # proper containment: every generator of the smaller sits in the
        # bigger, and the ideals differ
        assert all(a["ideal"].contains(g) for g in b["ideal"].generators)
        assert a["ideal"] != b["ideal"]


def test_ladder_frozen():
    ladder = value_ladder(frame_1_sqrt2(), 7)
    assert [v.coeffs for v in ladder] == [(F(a), F(b)) for a, b in LADDER7]


def test_ladder_matches_chain_thresholds():
    frame = frame_1_sqrt2()
    ladder = value_ladder(frame, 9)
    chain = videal_chain(frame, 9)
    assert [e["threshold"] for e in chain] == ladder


def test_enumerate_values_rational_frame():
    basis = RealBasis.default(1)
    frame = ParameterFrame([basis.rational(1), basis.rational(F(3, 2))])
    vals = enumerate_values(frame, basis.rational(3))
    assert [v.coeffs[0] for v in vals] == [F(0), F(1), F(3, 2), F(2), F(5, 2), F(3)]


def test_videal_at_nonstrict_vs_strict():
    frame = frame_1_sqrt2()
    one = B2.rational(1)
    at = videal_at(frame, one)                      # {v >= 1} = (x, y)
    above = videal_at(frame, one, strict=True)      # {v > 1}  = (y, x^2)
    assert at == MonomialIdeal.maximal(2)
    assert above.generators == ((0, 1), (2, 0))
    assert all(at.contains(g) for g in above.generators)


def test_videal_at_zero_is_unit():
    assert videal_at(frame_1_sqrt2(), B2.zero()).is_unit


def test_ideal_value_is_min_over_generators():
    frame = frame_1_sqrt2()
    ideal = MonomialIdeal([(0, 1), (2, 0)])
    assert ideal_value(frame, ideal).coeffs == (F(0), F(1))


def test_tau_bound_frozen_table():
    frame = frame_1_sqrt2()
    assert [(n, tau_bound(frame, n)) for n, _ in TAU_TABLE] == TAU_TABLE


def test_tau_bound_is_minimal():
    frame = frame_1_sqrt2()
    state = SequenceState.from_frame(frame)
    word = []
    for _ in range(10):
        state, w = state.step_argmin()
        word.append(w)
    for n, j in TAU_TABLE:
        ideals = [e["ideal"] for e in videal_chain(frame, n)]
        assert all(extend_ideal(i, word[:j]).is_principal for i in ideals)
        if j > 0:
            assert not all(
                extend_ideal(i, word[: j - 1]).is_principal for i in ideals
            )


def test_tau_bound_not_terminated():
    with pytest.raises(NotTerminated) as exc:
        tau_bound(frame_1_sqrt2(), 6, max_steps=1)
    assert exc.value.steps == 1


def test_short_chain_applies():
    basis = RealBasis.default(1)
    frame = ParameterFrame(
        [basis.rational(1), basis.rational(F(9, 8)), basis.rational(F(5, 4))]
    )
    report = short_chain_report(frame)
    assert report["applies"]
    assert report["starts_at_unit"]
    assert report["second_is_maximal"]
    assert report["ends_at_m_squared"]
    assert report["all_colengths_one"]
    assert len(report["chain"]) == 5
    assert [t.coeffs[0] for t in report["thresholds"]] == [
        F(0), F(1), F(9, 8), F(5, 4), F(2),
    ]


def test_short_chain_rejects_spread_frame():
    basis = RealBasis.default(1)
    frame = ParameterFrame([basis.rational(1), basis.rational(2)])
    report = short_chain_report(frame)
    assert not report["applies"]
    assert "chain" not in report


def test_mixed_d4_chain_colengths_frozen():
    frame = ParameterFrame(
        [B2.rational(1), B2.value([0, 1]), B2.rational(F(3, 2)), B2.value([0, F(5, 4)])]
    )
    chain = videal_chain(frame, 8)
    assert [e["colength"] for e in chain] == [1] * 8
    assert [e["threshold"].coeffs for e in chain] == [
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(3, 2), F(0)),
        (F(0), F(5, 4)), (F(2), F(0)), (F(1), F(1)), (F(5, 2), F(0)),
    ]


@st.composite
def small_rational_frames(draw):
    d = draw(st.integers(min_value=2, max_value=3))
    dens = st.integers(min_value=1, max_value=4)
    nums = st.integers(min_value=1, max_value=6)
    vals = [F(draw(nums), draw(dens)) for _ in range(d)]
    return vals


@given(small_rational_frames())
@settings(max_examples=40, deadline=None)
def test_chain_properties_random_rational(vals):
    basis = RealBasis.default(1)
    frame = ParameterFrame([basis.rational(v) for v in vals])
    chain = videal_chain(frame, 6)
    for a, b in zip(chain, chain[1:]):
        assert b["threshold"].cmp(a["threshold"]) > 0
        assert all(a["ideal"].contains(g) for g in b["ideal"].generators)
    for e in chain:
        assert e["colength"] >= 1
        # the chain entry is exactly the nonstrict valuation ideal at its
        # own threshold
        assert videal_at(frame, e["threshold"]) == e["ideal"]


@given(small_rational_frames(), st.integers(min_value=0, max_value=10))
@settings(max_examples=25, deadline=None)
def test_videal_at_matches_pairwise_minimalize(vals, eighths):
    # the fast path derives minimal generators coordinatewise; rebuild the
    # same ideals from raw membership plus the quadratic divisibility scan
    basis = RealBasis.default(1)
    frame = ParameterFrame([basis.rational(v) for v in vals])
    t = F(eighths, 8) * max(vals)  # lands both on and off attained values
    cap = int(t / min(vals)) + 2
    box = list(itertools.product(range(cap + 1), repeat=len(vals)))
    member = [m for m in box if sum(e * v for e, v in zip(m, vals)) >= t]
    strictly = [m for m in box if sum(e * v for e, v in zip(m, vals)) > t]
    tv = basis.rational(t)
    assert videal_at(frame, tv) == MonomialIdeal(member)
    assert videal_at(frame, tv, strict=True) == MonomialIdeal(strictly)


@given(small_rational_frames())
@settings(max_examples=30, deadline=None)
def test_enumerate_values_matches_brute_force(vals):
    basis = RealBasis.default(1)
    frame = ParameterFrame([basis.rational(v) for v in vals])
    bound = F(4)
    got = [v.coeffs[0] for v in enumerate_values(frame, basis.rational(bound))]
    cap = int(bound / min(vals)) + 1
    brute = sorted(
        {
            sum(e * v for e, v in zip(m, vals))
            for m in itertools.product(range(cap + 1), repeat=len(vals))
        }
    )
    assert got == [v for v in brute if v <= bound]


# -- exact census against brute force ------------------------------------------


def _least_multiple(vals, i, t, strict):
    """Least e with e * v_i >= t (> t when strict), found by exact comparison."""
    e = 0
    while not _meets(vals[i].scale(e).cmp(t), strict):
        e += 1
    return e


def _meets(sign, strict):
    return sign > 0 or (sign == 0 and not strict)


def _box(vals, t, strict):
    # a minimal generator g of {v >= t} has (g_i - 1) * v_i < t (<= t for
    # {v > t}), and a monomial with v(m) <= t has m_i * v_i <= t
    caps = [_least_multiple(vals, i, t, strict) for i in range(len(vals))]
    return list(itertools.product(*(range(c + 1) for c in caps)))


def brute_ideal(vals, t, strict=False):
    """{v >= t} (or > t) from every monomial of a covering box, minimalized."""
    box = _box(vals, t, strict)
    return MonomialIdeal(
        [m for m in box if _meets(monomial_value(vals, m).cmp(t), strict)]
    )


def brute_colength(vals, t):
    return sum(1 for m in _box(vals, t, True) if monomial_value(vals, m) == t)


def brute_values(vals, bound):
    box = _box(vals, bound, True)
    found = {monomial_value(vals, m) for m in box}
    return sorted((v for v in found if v.cmp(bound) <= 0),
                  key=functools.cmp_to_key(lambda a, b: a.cmp(b)))


def test_levels_closer_than_their_shadows_are_sorted_exactly():
    # x = 1 + eps with eps = p - q*sqrt2 about 2^-143: the values k + a*eps
    # of each degree k share one shadow, and the census meets x before y,
    # so only the exact sort puts 1 before 1 + eps
    p, q = 3, 2
    while p.bit_length() < 140:
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    vals = [B2.value([1 + p, -q]), B2.rational(1)]
    frame = ParameterFrame(vals)
    bound = vals[0].scale(3)
    brute = sorted({monomial_value(vals, m)
                    for m in itertools.product(range(4), repeat=2) if sum(m) <= 3})
    assert enumerate_values(frame, bound) == brute
    thresholds = [e["threshold"] for e in videal_chain(frame, 8)]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


def test_enumerate_values_beyond_int64():
    # rows of 10^17 times exponents up to 100 used to wrap in int64
    basis = RealBasis.default(1)
    frame = ParameterFrame([basis.rational(10**17), basis.rational(10**17 + 1)])
    vals = enumerate_values(frame, basis.rational(100 * 10**17))
    assert len(vals) == 5051
    assert all(v.sign() >= 0 for v in vals)
    assert all(a.cmp(b) < 0 for a, b in zip(vals, vals[1:]))


# (1, sqrt2) frames at magnitude 10^13, where a float preview with an
# absolute margin misrouted monomials near the threshold
_MAGNITUDE_CASES = [
    ((24035266320337, 1), (27367180855709, 6), (1, 2)),
    ((12825411852584, 9), (23768305786891, 9), (2, 4)),
    ((16846270797943, 3), (14358181111419, 8), (1, 0)),
]


@pytest.mark.parametrize("a, b, m", _MAGNITUDE_CASES)
def test_videal_at_magnitude_1e13(a, b, m):
    vals = [B2.value(list(a)), B2.value(list(b))]
    t = monomial_value(vals, m)
    got = videal_at(ParameterFrame(vals), t)
    assert got == brute_ideal(vals, t)
    assert got.contains(m)


def test_videal_at_magnitude_1e13_random():
    rng = random.Random(0)
    for _ in range(200):
        vals = [B2.value([rng.randint(10**13, 3 * 10**13), rng.randint(1, 9)])
                for _ in range(2)]
        t = monomial_value(vals, (rng.randint(0, 4), rng.randint(0, 4)))
        assert videal_at(ParameterFrame(vals), t) == brute_ideal(vals, t)


@pytest.mark.parametrize("small", [
    B2.rational(F(1, 10**6)),
    # (p - q*sqrt2) * 10^11 with p^2 - 2q^2 = 1: about 1.4e-6 from 28-digit
    # terms, which 64-bit fixpoints cannot even sign
    B2.value([34761632124320657, -24580185800219268]).scale(10**11),
])
def test_ladder_census_stays_small_on_spread_frames(small, monkeypatch):
    # the first values are multiples of the small one, so a census of about
    # 50 monomials suffices; a volume estimate alone would walk about 10^4
    sizes = []
    below = videals._FrameData.below

    def counted(self, t, strict):
        out = below(self, t, strict)
        sizes.append(len(out[0]))
        return out

    monkeypatch.setattr(videals._FrameData, "below", counted)
    frame = ParameterFrame([small, B2.rational(1)])
    assert value_ladder(frame, 50) == [small.scale(k) for k in range(50)]
    chain = videal_chain(frame, 4)
    assert [e["ideal"].generators for e in chain] == [
        ((0, 0),), ((0, 1), (1, 0)), ((0, 1), (2, 0)), ((0, 1), (3, 0))]
    assert max(sizes) <= 100


B3 = RealBasis.default(3)
_coeff = st.fractions(min_value=0, max_value=10**18, max_denominator=10**12)
# (p, q) with p^2 - 2q^2 = +-1, so that 0 < |p - q sqrt2| < 1/(2q): huge
# coefficients that cancel to a value far below their rounding error
_PELL = [(1, 1)]
while _PELL[-1][1] <= 10**18:
    p, q = _PELL[-1]
    _PELL.append((p + 2 * q, p + q))


@st.composite
def clustered_frames(draw):
    """Frames over (1, sqrt2, sqrt3): a shared base times ratios in [1, 3],
    each plus an optional offset of at most 2^-4 of the base.  Offsets are
    either nonnegative vectors or Pell combinations p - q sqrt2, so exact
    ties, near ties far below 2^-64 of the values, and clear gaps all
    occur, while every value stays within 4x of every other."""
    def vector():
        coeffs = [draw(_coeff) for _ in range(3)]
        if not any(coeffs):
            coeffs[0] = F(1)
        return B3.value(coeffs)

    base = vector()
    bmin = min(c for c in base.coeffs if c)
    d = draw(st.integers(min_value=2, max_value=3))
    vals = []
    for _ in range(d):
        ratio = F(draw(st.integers(4, 12)), 4)
        kind = draw(st.sampled_from(["none", "vector", "pell"]))
        if kind == "vector":
            offset = vector()
        else:
            p, q = draw(st.sampled_from(_PELL))
            offset = B3.value([p, -q, 0]).scale(draw(st.sampled_from([1, -1])))
        # 5 * 10^18 bounds either offset; scale it below bmin / 16
        shrink = bmin / (16 * 5 * 10**18) / 10 ** draw(st.integers(0, 30))
        vals.append(base.scale(ratio) + offset.scale(0 if kind == "none" else shrink))
    return vals


@given(clustered_frames(), st.data())
@settings(max_examples=40, deadline=None)
def test_census_matches_brute_force(vals, data):
    frame = ParameterFrame(vals)
    vmin = min(vals, key=functools.cmp_to_key(lambda a, b: a.cmp(b)))
    bound = vmin.scale(data.draw(st.integers(0, 4)))
    assert enumerate_values(frame, bound) == brute_values(vals, bound)
    m = tuple(data.draw(st.integers(0, 1)) for _ in vals)
    t = monomial_value(vals, m)
    assert videal_at(frame, t) == brute_ideal(vals, t)
    assert videal_at(frame, t, strict=True) == brute_ideal(vals, t, strict=True)
    count = data.draw(st.integers(1, 6))
    ladder = brute_values(vals, vmin.scale(count))[:count]
    chain = videal_chain(frame, count)
    assert [e["threshold"] for e in chain] == ladder
    assert [e["colength"] for e in chain] == [brute_colength(vals, t) for t in ladder]
    assert [e["ideal"] for e in chain] == [brute_ideal(vals, t) for t in ladder]
    assert [e["colength"] for e in chain] == [brute_colength(vals, t) for t in ladder]


# -- frontier corners, basis checks and the census cap --------------------------


def _oracle_absorb(inside, corners, m):
    corners.discard(m)
    inside.add(m)
    for i in range(len(m)):
        c = m[:i] + (m[i] + 1,) + m[i + 1:]
        if all(e == 0 or c[:j] + (e - 1,) + c[j + 1:] in inside for j, e in enumerate(c)):
            corners.add(c)


def absorb_ideal(frame, t, strict):
    """{v >= t} (or > t) by absorbing every census node in walk order and
    keeping the minimal monomials outside: d candidate corners per node,
    each tested by d set lookups."""
    data = videals._FrameData(frame)
    inside, corners = set(), {(0,) * data.dim}
    for node in data.below(t, not strict)[0]:
        _oracle_absorb(inside, corners, node[0])
    return MonomialIdeal._raw(corners, data.dim)


@st.composite
def census_frames(draw):
    """d = 2..5 values in about [0.7, 2] over (1, sqrt2, sqrt3): rationals,
    rational multiples of sqrt2 and rationals plus a multiple of sqrt3,
    so exact ties and irrational gaps both occur; all scaled by one power
    of two 2^k with |k| <= 3000."""
    scale = F(2) ** draw(st.integers(-3000, 3000))
    vals = []
    for _ in range(draw(st.integers(2, 5))):
        a = F(draw(st.integers(4, 8)), 4)
        kind = draw(st.sampled_from(["rational", "sqrt2", "sqrt3"]))
        if kind == "rational":
            v = B3.rational(a)
        elif kind == "sqrt2":
            v = B3.value([0, a * F(3, 4), 0])
        else:
            v = B3.value([a / 2, 0, F(draw(st.integers(1, 4)), 8)])
        vals.append(v.scale(scale))
    return vals


@given(census_frames(), st.data())
@settings(max_examples=60, deadline=None)
def test_frontier_corners_match_the_absorb_oracle(vals, data):
    frame = ParameterFrame(vals)
    vmax = max(vals, key=functools.cmp_to_key(lambda a, b: a.cmp(b)))
    attained = enumerate_values(frame, vmax.scale(2))
    i = data.draw(st.integers(0, len(attained) - 2))
    at_value = attained[i]
    between = (attained[i] + attained[i + 1]).scale(F(1, 2))
    census = videals._FrameData(frame)
    for t in (at_value, between):
        for strict in (False, True):
            assert videal_at(frame, t, strict) == absorb_ideal(frame, t, strict)
        # the cap rests on this bound being an upper one
        tsh = shadow(census.basis, t._nums, t._den, census.scale)
        assert census.size_bound(tsh) >= len(census.below(t, strict=False)[0])


def old_recursion_chain(vals, count):
    """The chain as videal_chain built it before reading the census
    levels: I_0 = R and t_0 = 0, then I_{n+1} = {v > t_n}, generated by
    its corners, and t_{n+1} = ideal_value(I_{n+1}).  Corners and
    colengths come from a brute count over a covering box."""
    frame, d = ParameterFrame(vals), len(vals)
    ideal, t, out = MonomialIdeal([(0,) * d]), vals[0].basis.zero(), []
    for _ in range(count):
        side = {m: monomial_value(vals, m).cmp(t) for m in _box(vals, t, True)}
        out.append((ideal, t, sum(s == 0 for s in side.values())))
        ideal = MonomialIdeal([
            m for m, s in side.items()
            if s > 0 and all(e == 0 or side[m[:j] + (e - 1,) + m[j + 1:]] <= 0
                             for j, e in enumerate(m))])
        t = ideal_value(frame, ideal)
    return out


@given(census_frames(), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_chain_matches_the_old_recursion(vals, count):
    chain = videal_chain(ParameterFrame(vals), count)
    assert [(e["ideal"], e["threshold"], e["colength"]) for e in chain] == \
        old_recursion_chain(vals, count)


B1 = RealBasis.default(1)


def test_dependent_frame_chains_frozen():
    # frozen from the recursion above; dependent values give colengths > 1
    chain = videal_chain(ParameterFrame([B1.rational(1), B1.rational(F(3, 2))]), 8)
    assert [e["threshold"].coeffs[0] for e in chain] == [
        F(0), F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 2), F(4)]
    assert [e["colength"] for e in chain] == [1, 1, 1, 1, 1, 2, 1, 2]
    assert [e["ideal"].generators for e in chain] == [
        ((0, 0),), ((0, 1), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (1, 1), (2, 0)),
        ((0, 2), (1, 1), (3, 0)), ((0, 2), (2, 1), (3, 0)),
        ((0, 3), (1, 2), (2, 1), (4, 0)), ((0, 3), (1, 2), (3, 1), (4, 0))]
    chain = videal_chain(ParameterFrame([B1.rational(1), B1.rational(1)]), 5)
    assert [e["threshold"].coeffs[0] for e in chain] == [F(0), F(1), F(2), F(3), F(4)]
    assert [e["colength"] for e in chain] == [1, 2, 3, 4, 5]
    # {v >= n} is the n-th power of the maximal ideal
    assert [e["ideal"].generators for e in chain] == [
        tuple((i, n - i) for i in range(n + 1)) for n in range(5)]


def test_threshold_over_another_basis_is_refused():
    # (1, sqrt2) numerators zipped against a (1, sqrt2, sqrt3) threshold
    # used to drop the sqrt3 part and return the unit ideal
    frame = frame_1_sqrt2()
    t = B3.value([0, 0, 3])
    with pytest.raises(BasisMismatch):
        videal_at(frame, t)
    with pytest.raises(BasisMismatch):
        enumerate_values(frame, t)


_SPREAD_CENSUS = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from quadseq.errors import CensusTooLarge
from quadseq.sequence import ParameterFrame
from quadseq.values import RealBasis
from quadseq.videals import enumerate_values, videal_at
basis = RealBasis.default(2)
t = basis.rational(3 * 10**12)
for small in (basis.rational(1), basis.value([0, 1])):
    frame = ParameterFrame([small, basis.rational(10**12)])
    for call in (videal_at, enumerate_values):
        start = time.perf_counter()
        try:
            call(frame, t)
        except CensusTooLarge as exc:
            print(call.__name__, exc.estimate, time.perf_counter() - start)
"""


def test_census_on_a_spread_frame_is_refused_within_a_second():
    # about 6 * 10^12 monomials lie under the threshold; the walk would
    # exhaust memory, so the child runs under a 512 MiB address-space limit
    assert issubclass(CensusTooLarge, QuadseqError)  # the CLI exits 2
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadseq.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(_SPREAD_CENSUS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _, _ in lines] == ["videal_at", "enumerate_values"] * 2
    for _, estimate, seconds in lines:
        assert int(estimate) > videals.CENSUS_CAP
        assert float(seconds) < 1.0
