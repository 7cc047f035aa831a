"""Exact value arithmetic and sign refinement."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadseq.errors import BasisMismatch
from quadseq.sequence import ParameterFrame
from quadseq.values import Generator, RealBasis, rational_rank, value_cmp

getcontext().prec = 80

B2 = RealBasis.default(2)  # 1, sqrt2
B3 = RealBasis.default(3)  # 1, sqrt2, sqrt3


def as_decimal(v):
    """Independent numeric oracle: evaluate a value with Decimal arithmetic."""
    total = Decimal(0)
    for c, g in zip(v.coeffs, v.basis.generators):
        d = Decimal(c.numerator) / Decimal(c.denominator)
        if g.to_obj() == "one":
            total += d
        else:
            total += d * Decimal(g.to_obj()["sqrt"]).sqrt()
    return total


def test_default_basis_layout():
    assert B3.size == 3
    assert B3.one_index == 0
    assert B3.to_obj() == ["one", {"sqrt": 2}, {"sqrt": 3}]
    assert RealBasis.from_obj(B3.to_obj()) == B3


def test_coeffs_are_reduced():
    v = B2.value([F(2, 4), F(6, 4)])
    assert v.coeffs == (F(1, 2), F(3, 2))


def test_arithmetic_is_exact():
    a = B2.value([F(3, 2), F(1, 2)])
    b = B2.value([F(1, 2), F(1, 3)])
    assert (a + b).coeffs == (F(2), F(5, 6))
    assert (a - b).coeffs == (F(1), F(1, 6))
    assert (a.scale(F(2, 3))).coeffs == (F(1), F(1, 3))
    assert (-a).coeffs == (F(-3, 2), F(-1, 2))
    assert (a - a).sign() == 0


def test_equality_is_coefficientwise():
    a = B2.value([F(1, 2), 0])
    b = B2.value(["1/2", "0"])
    assert a == b
    assert hash(a) == hash(b)
    assert a != B2.value([F(1, 2), F(1, 10**9)])


def test_sqrt2_sign_against_decimal_digits():
    # floor(sqrt(2) * 10^17) computed independently via integer sqrt
    lo = F(math.isqrt(2 * 10**34), 10**17)
    hi = lo + F(1, 10**17)
    s2 = B2.value([0, 1])
    assert (s2 - B2.rational(lo)).sign() == 1
    assert (s2 - B2.rational(hi)).sign() == -1


def test_cmp_examples():
    one = B2.rational(1)
    s2 = B2.value([0, 1])
    assert value_cmp(one, s2) == -1
    assert value_cmp(s2, one) == 1
    assert value_cmp(s2, s2) == 0
    # 3 - 2*sqrt2 > 0, 7 - 5*sqrt2 < 0
    assert B2.value([3, -2]).sign() == 1
    assert B2.value([7, -5]).sign() == -1


def test_tiny_separation_still_decided():
    # 665857/470832 is a continued-fraction convergent of sqrt2; the gap is ~ 1e-12
    v = B2.value([F(665857, 470832), -1])
    assert v.sign() == 1
    assert B2.value([F(665857, 470832 + 1), -1]).sign() == -1


def test_large_height_separation():
    # convergents p/q with q ~ 2^200: separation needs precision well past 400 bits
    p, q = 1, 1
    for _ in range(250):
        p, q = p + 2 * q, p + q
    assert B2.value([F(p, q), -1]).sign() == (1 if p * p > 2 * q * q else -1)


def test_a_sign_past_4096_bits_is_decided():
    # p - q*sqrt2 = (sqrt2 - 1)^2400, about 2^-3052: 4096 bits do not
    # decide its sign, and the doubling goes on to 8192, which does
    p, q = 1, 0
    for _ in range(2400):
        p, q = p + 2 * q, p + q
    v = B2.value([p, -q])
    frame = ParameterFrame([B2.rational(1), v])
    assert frame.values[1].sign() == 1


@pytest.mark.parametrize("obj, pair", [
    (["one", {"sqrt": 4}], "1 and sqrt4"),  # sqrt(4) - 2 would denote 0
    (["one", {"sqrt": 2}, {"sqrt": 8}], "sqrt2 and sqrt8"),
    ([{"sqrt": 3}, {"sqrt": 12}], "sqrt3 and sqrt12"),
], ids=["square", "same-squarefree-part", "no-unit"])
def test_a_dependent_basis_is_refused(obj, pair):
    with pytest.raises(ValueError, match=f"basis generators {pair} are rationally dependent"):
        RealBasis.from_obj(obj)


def test_an_independent_basis_in_any_order_is_accepted():
    basis = RealBasis.from_obj([{"sqrt": 8}, "one", {"sqrt": 3}])
    assert basis.one_index == 1
    assert basis.value([1, -3, 0]).sign() == -1  # 2*sqrt2 < 3


def test_sqrt_one_is_the_unit():
    # {"sqrt": 1} used to be an irrational generator, so this basis had no
    # rational unit and refused rationals
    basis = RealBasis.from_obj([{"sqrt": 1}, {"sqrt": 2}])
    assert basis == B2 and hash(basis) == hash(B2)
    assert basis.to_obj() == ["one", {"sqrt": 2}]
    assert basis.rational("3/2").coeffs == (F(3, 2), 0)
    with pytest.raises(ValueError, match=r"duplicate basis generators in \[1, 1\]"):
        RealBasis.from_obj(["one", {"sqrt": 1}])
    for bits in (0, 1, 64, 300, 5000):
        assert Generator(1).fixpoint(bits) == 1 << bits


@given(st.integers(1, 300), st.integers(1, 300))
@settings(max_examples=300)
def test_two_radicands_are_refused_exactly_when_their_product_is_a_square(a, b):
    square = any(k * k == a * b for k in range(1, 301))
    try:
        RealBasis([Generator(a), Generator(b)])
    except ValueError:
        assert square
    else:
        assert not square


@given(st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4))
@settings(max_examples=300, deadline=None)
def test_a_nonzero_vector_over_an_accepted_basis_has_the_oracle_sign(radicands, coeffs):
    try:
        basis = RealBasis([Generator(n) for n in radicands])
    except ValueError:
        assume(False)
    v = basis.value(coeffs[:basis.size])
    assume(any(coeffs[:basis.size]))
    sign = v.sign()
    assert sign != 0
    d = as_decimal(v)
    assume(abs(d) >= Decimal("1e-40"))  # the 80-digit oracle cannot vouch closer to 0
    assert sign == (1 if d > 0 else -1)


def test_basis_mismatch():
    with pytest.raises(BasisMismatch):
        B2.value([1, 0]).cmp(B3.value([1, 0, 0]))
    with pytest.raises(BasisMismatch):
        B2.value([1, 0]) + B3.value([1, 0, 0])
    with pytest.raises(BasisMismatch):
        rational_rank([B2.value([1, 0]), RealBasis.from_obj(["one", {"sqrt": 3}]).value([0, 1])])
    assert B2.value([1, 0]) != B3.value([1, 0, 0])


def test_interval_brackets_value():
    v = B3.value([F(1, 3), F(-2, 7), F(5, 11)])
    lo, hi = v.evaluate_interval(F(1, 10**12))
    assert hi - lo <= F(1, 10**12)
    d = as_decimal(v)
    assert Decimal(lo.numerator) / lo.denominator <= d <= Decimal(hi.numerator) / hi.denominator


def test_interval_exact_for_rationals():
    lo, hi = B2.rational(F(22, 7)).evaluate_interval(F(1, 10**30))
    assert lo <= F(22, 7) <= hi
    assert hi - lo <= F(1, 10**30)


def _interval_by_doubling(v, max_width):
    """The loop evaluate_interval used to run: the reference."""
    bits = 64
    while True:
        s, err = v.basis._eval_fixpoint(v._nums, bits)
        scale = v._den << bits
        lo, hi = F(s - err, scale), F(s + err, scale)
        if hi - lo <= max_width:
            return lo, hi
        bits <<= 1


_big = st.integers(-10**30, 10**30)


@st.composite
def _interval_cases(draw):
    basis = RealBasis.default(draw(st.integers(1, 4)))
    coeffs = [F(draw(_big), draw(st.integers(1, 10**30))) for _ in range(basis.size)]
    if draw(st.booleans()):
        # rational only (zero when the rational slot draws 0): err = 0
        coeffs[1:] = [0] * (basis.size - 1)
    v = basis.value(coeffs)
    den = math.lcm(*(c.denominator for c in v.coeffs))
    err = sum(abs(c * den) for c in v.coeffs[1:])
    if err and draw(st.booleans()):
        # exactly the width of the enclosure at 64, 128, 256 or 512 bits
        bits = 64 << draw(st.integers(0, 3))
        width = F(2 * err, den << bits)
    else:
        width = F(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**40)))
        width = min(max(width, F(1, 10**40)), F(10**6))
    return v, width


@given(_interval_cases())
@settings(max_examples=300, deadline=None)
def test_interval_matches_the_doubling_loop(case):
    v, width = case
    lo, hi = v.evaluate_interval(width)
    assert (lo, hi) == _interval_by_doubling(v, width)
    assert lo <= hi and hi - lo <= width


UNIT_FREE = RealBasis([Generator(2), Generator(3)])


def test_zero_over_a_unit_free_basis_is_the_point_zero():
    lo, hi = UNIT_FREE.zero().evaluate_interval(F(1, 10**6))
    assert (lo, hi) == (0, 0)
    assert type(lo) is F and lo is hi
    assert (lo, hi) == _interval_by_doubling(UNIT_FREE.zero(), F(1, 10**6))


@pytest.mark.parametrize("q", [F(-1), F(-22, 7), F(-10**40 - 1, 3**50), F(-1, 10**30)])
@pytest.mark.parametrize("width", [F(1, 10**40), F(3, 2)])
def test_negative_rationals_are_points(q, width):
    v = B3.value([q, 0, 0])
    lo, hi = v.evaluate_interval(width)
    assert lo == hi == q and lo is hi
    assert (lo.numerator, lo.denominator) == (q.numerator, q.denominator)
    assert (lo, hi) == _interval_by_doubling(v, width)


@pytest.mark.parametrize("coeffs", [[F(-5, 3), F(2, 7)], [0, F(-10**20, 9)]])
def test_unit_free_basis_matches_the_doubling_loop(coeffs):
    v = UNIT_FREE.value(coeffs)
    width = F(1, 10**9)
    assert v.evaluate_interval(width) == _interval_by_doubling(v, width)


def test_serialize_writes_reduced_fractions():
    v = B2.value([F(-3, 2), F(7)])
    assert v.serialize() == ["-3/2", "7"]


rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=20
)


@given(st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=150)
def test_sign_matches_decimal_oracle(coeffs):
    v = B3.value(coeffs)
    d = as_decimal(v)
    if abs(d) < Decimal("1e-40"):
        # too close for the 80-digit oracle to vouch either way
        return
    assert v.sign() == (1 if d > 0 else -1)


@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=100)
def test_cmp_antisymmetric_and_consistent(c1, c2):
    a, b = B3.value(c1), B3.value(c2)
    assert a.cmp(b) == -b.cmp(a)
    if a == b:
        assert a.cmp(b) == 0
    if a.cmp(b) == 0:
        # independent generators: equal reals have equal coefficients
        assert a == b
    assert ((a - b).sign() == a.cmp(b))


@given(st.lists(rationals, min_size=2, max_size=2), rationals)
@settings(max_examples=100)
def test_scaling_respects_order(coeffs, q):
    v = B2.value(coeffs)
    s = v.sign()
    if q > 0:
        assert v.scale(q).sign() == s
    elif q < 0:
        assert v.scale(q).sign() == -s
    else:
        assert v.scale(q).sign() == 0


def _rank_by_fractions(values):
    """The Fraction Gauss-Jordan elimination rational_rank replaced: the oracle."""
    rows = [list(v.coeffs) for v in values]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c] / prow[c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


@st.composite
def _rank_cases(draw):
    basis = RealBasis.default(draw(st.integers(1, 4)))
    coeff = st.fractions(min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6)
    values = []
    for _ in range(draw(st.integers(1, 5))):
        if values and draw(st.booleans()):
            # a rational combination of earlier rows, so the rank falls short
            v = basis.zero()
            for w in values:
                v = v + w.scale(draw(st.fractions(min_value=-50, max_value=50,
                                                  max_denominator=20)))
        else:
            v = basis.value([draw(coeff) for _ in range(basis.size)])
        values.append(v)
    return values


@given(_rank_cases())
@settings(max_examples=300, deadline=None)
def test_rational_rank_matches_the_fraction_elimination(values):
    assert rational_rank(values) == _rank_by_fractions(values)
