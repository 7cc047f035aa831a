"""Monomial ideal operations and the rewrite maps."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadseq.errors import EmptyGeneratorSet, IndexOutOfRange
from quadseq.monomials import (
    MonomialIdeal,
    divides,
    extend_ideal,
    least_value,
    minimalize,
    monomial_value,
    rewrite_along,
    rewrite_matrix,
    rewrite_monomial,
    rewrite_word,
    transform_ideal,
)
from quadseq.values import RealBasis


def test_minimalize_basics():
    assert minimalize([(1, 1), (2, 1), (0, 2)]) == ((0, 2), (1, 1))
    assert minimalize([(0, 0), (1, 1)]) == ((0, 0),)
    assert minimalize([(1, 2), (1, 2)]) == ((1, 2),)
    with pytest.raises(EmptyGeneratorSet):
        minimalize([])


def test_ideal_constructor_normalizes():
    ideal = MonomialIdeal([(2, 1), (1, 1), (0, 2)])
    assert ideal.generators == ((0, 2), (1, 1))
    assert ideal.order() == 2
    assert not ideal.is_principal
    assert MonomialIdeal([(3, 1)]).is_principal
    assert MonomialIdeal([(0, 0), (5, 5)]).is_unit


def test_contains():
    ideal = MonomialIdeal([(1, 1), (0, 2)])
    assert ideal.contains((1, 2))
    assert ideal.contains((0, 2))
    assert not ideal.contains((1, 0))
    assert not ideal.contains((0, 1))


def test_transform_example_pair():
    # ord 2 ideal; dividing out direction 0 leaves just the second variable
    ideal = MonomialIdeal([(1, 1), (0, 2)])
    assert transform_ideal(ideal, 0) == MonomialIdeal([(0, 1)])


def test_transform_square_of_maximal_to_unit():
    m2 = MonomialIdeal([(2, 0), (1, 1), (0, 2)])
    assert transform_ideal(m2, 1).is_unit


def test_transform_singleton_differs_from_pair():
    # the pair only drops to order 1, while the lone cube becomes a unit:
    # order drops are not decided generator-by-generator
    pair = MonomialIdeal([(3, 0), (0, 2)])
    t = transform_ideal(pair, 0)
    assert t == MonomialIdeal([(1, 0), (0, 2)])
    assert t.order() == 1
    assert transform_ideal(MonomialIdeal([(3, 0)]), 0).is_unit


def test_transform_unit_is_fixed():
    unit = MonomialIdeal([(0, 0, 0)])
    assert transform_ideal(unit, 2) == unit


def test_rewrite_monomial():
    assert rewrite_monomial((2, 0), 1) == (2, 2)
    assert rewrite_monomial((2, 0), 0) == (2, 0)
    assert rewrite_monomial((1, 2, 3), 0) == (6, 2, 3)
    with pytest.raises(IndexOutOfRange):
        rewrite_monomial((1, 0), 5)


def test_extend_example_becomes_principal():
    ideal = MonomialIdeal([(2, 0), (0, 1)])
    assert extend_ideal(ideal, [0, 1]) == MonomialIdeal([(1, 2)])


def test_word_helpers_compose():
    assert rewrite_word((0, 1), [0, 1]) == rewrite_monomial(
        rewrite_monomial((0, 1), 0), 1
    )


def test_monomial_value():
    basis = RealBasis.default(2)
    frame = [basis.rational(1), basis.value([0, 1])]
    v = monomial_value(frame, (2, 1))
    assert v.coeffs == (F(2), F(1))
    assert monomial_value(frame, (0, 0)).sign() == 0


monomials2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
monomials3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
coefficients = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)


@given(st.lists(st.tuples(coefficients, coefficients), min_size=3, max_size=3),
       st.lists(monomials3, min_size=1, max_size=6))
@settings(max_examples=60)
def test_values_match_the_scaled_sum(coeffs, monos):
    # the reference adds v.scale(e) term by term and takes the minimum by cmp
    basis = RealBasis.default(2)
    frame = [basis.value(c) for c in coeffs]
    refs = []
    for m in monos:
        total = basis.zero()
        for e, v in zip(m, frame):
            total = total + v.scale(e)
        refs.append(total)
    assert [monomial_value(frame, m).coeffs for m in monos] == [r.coeffs for r in refs]
    best = refs[0]
    for v in refs[1:]:
        if v.cmp(best) < 0:
            best = v
    assert least_value(frame, monos).coeffs == best.coeffs


@given(st.lists(monomials2, min_size=1, max_size=6), st.permutations(range(6)))
def test_minimalize_order_independent(gens, perm):
    shuffled = [gens[i % len(gens)] for i in perm]
    assert minimalize(gens) == minimalize(gens + shuffled)
    assert minimalize(minimalize(gens)) == minimalize(gens)


@given(monomials3, monomials3, st.integers(0, 2))
def test_rewrite_is_multiplicative(a, b, w):
    prod = tuple(x + y for x, y in zip(a, b))
    ra, rb = rewrite_monomial(a, w), rewrite_monomial(b, w)
    assert rewrite_monomial(prod, w) == tuple(x + y for x, y in zip(ra, rb))


@given(st.lists(monomials3, min_size=1, max_size=5), st.integers(0, 2))
@settings(max_examples=200)
def test_transform_never_raises_order(gens, w):
    ideal = MonomialIdeal(gens)
    assert transform_ideal(ideal, w).order() <= ideal.order()


@given(st.lists(st.integers(0, 2), max_size=6), monomials3)
def test_matrix_agrees_with_rewrite(word, m):
    mat = rewrite_matrix(word, 3)
    assert tuple(sum(a * e for a, e in zip(row, m)) for row in mat) == rewrite_word(m, word)


def _det(mat):
    mat = [list(r) for r in mat]
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


@given(st.lists(st.integers(0, 3), max_size=7))
def test_rewrite_matrix_is_unimodular(word):
    assert _det(rewrite_matrix(word, 4)) == 1


@given(st.lists(monomials2, min_size=1, max_size=5), st.lists(st.integers(0, 1), max_size=4))
def test_extension_of_extension_composes(gens, word):
    ideal = MonomialIdeal(gens)
    step_by_step = ideal
    for w in word:
        step_by_step = extend_ideal(step_by_step, [w])
    assert step_by_step == extend_ideal(ideal, word)


@st.composite
def _rewrite_cases(draw):
    d = draw(st.integers(1, 5))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=1, max_size=4))
    return monos, draw(st.lists(st.integers(0, d - 1), max_size=12))


@given(_rewrite_cases())
@settings(max_examples=150)
def test_rewrite_along_matches_rewrite_word_on_every_prefix(case):
    monos, word = case
    images = list(rewrite_along(monos, word))
    assert len(images) == len(word)
    for n, image in enumerate(images, 1):
        assert image == tuple(rewrite_word(m, word[:n]) for m in monos)


def test_rewrite_along_refuses_bad_input():
    with pytest.raises(IndexOutOfRange):
        list(rewrite_along([(1, 0)], [0, -1]))
    with pytest.raises(EmptyGeneratorSet):
        list(rewrite_along([], [0]))


@st.composite
def _runs(draw):
    d = draw(st.integers(1, 5))
    m = draw(st.tuples(*[st.integers(0, 4)] * d))
    return m, draw(st.integers(0, d - 1)), draw(st.integers(0, 8))


@given(_runs())
@settings(max_examples=150)
def test_a_run_rewrites_in_closed_form(case):
    # count letters w send m_w to m_w + count * (|m| - m_w)
    m, w, count = case
    assert rewrite_monomial(m, w, count) == rewrite_word(m, [w] * count)


def test_rewrite_monomial_refuses_a_negative_count():
    with pytest.raises(ValueError, match="step count"):
        rewrite_monomial((1, 0), 0, -1)
