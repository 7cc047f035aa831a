"""Monomials, monomial ideals, and their behaviour under the transforms.

Monomials are tuples of nonnegative integer exponents.  A step in
direction ``w`` rewrites a monomial by sending the ``w`` exponent to the
total degree (every other variable picks up a factor of ``w``); the
induced map on a monomial ideal additionally strips ``ord(I)`` powers of
``w``, which is what makes orders drop.  ``rewrite_along`` follows a set of
monomials along a word, possibly endless like ``sequence.argmin_word``,
yielding their images after each letter.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

from .errors import EmptyGeneratorSet, IndexOutOfRange
from .values import ValueVector, _common_den

Monomial = tuple[int, ...]


def total_degree(m: Monomial) -> int:
    return sum(m)


def divides(a: Monomial, b: Monomial) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def _validate_monomial(m, dim=None) -> Monomial:
    t = tuple(m)
    if dim is not None and len(t) != dim:
        raise ValueError(f"expected {dim} exponents, got {len(t)}")
    if not t:
        raise ValueError("monomials need at least one variable")
    if any(not isinstance(e, int) or e < 0 for e in t):
        raise ValueError(f"exponents must be nonnegative integers: {t}")
    return t


def minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal elements, deduplicated and lex-sorted."""
    gs = sorted(set(tuple(g) for g in gens))
    if not gs:
        raise EmptyGeneratorSet("no generators given")
    keep = [
        g
        for g in gs
        if not any(h != g and divides(h, g) for h in gs)
    ]
    return tuple(keep)


class MonomialIdeal:
    """A monomial ideal, stored by its unique minimal generating set."""

    __slots__ = ("dim", "generators")

    def __init__(self, generators: Iterable[Monomial], dim: int | None = None):
        gens = [tuple(g) for g in generators]
        if not gens:
            raise EmptyGeneratorSet("a monomial ideal needs at least one generator")
        d = dim if dim is not None else len(gens[0])
        gens = [_validate_monomial(g, d) for g in gens]
        self.dim = d
        self.generators = minimalize(gens)

    @classmethod
    def _raw(cls, generators: Iterable[Monomial], dim: int) -> "MonomialIdeal":
        """Wrap a generator set already known minimal, skipping the
        quadratic divisibility scan.  Callers must guarantee minimality;
        the tuple is sorted so equality with normally-built ideals holds.
        """
        gens = tuple(sorted(tuple(g) for g in generators))
        if not gens:
            raise EmptyGeneratorSet("a monomial ideal needs at least one generator")
        ideal = cls.__new__(cls)
        ideal.dim = dim
        ideal.generators = gens
        return ideal

    def order(self) -> int:
        """Smallest total degree of an element (attained on a generator)."""
        return min(total_degree(g) for g in self.generators)

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.dim,)

    @property
    def is_principal(self) -> bool:
        return len(self.generators) == 1

    def contains(self, m: Monomial) -> bool:
        m = _validate_monomial(m, self.dim)
        return any(divides(g, m) for g in self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.dim == other.dim
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.dim, self.generators))

    def __repr__(self):
        return f"MonomialIdeal({list(self.generators)})"

    @classmethod
    def maximal(cls, dim: int) -> "MonomialIdeal":
        """The ideal generated by all the variables."""
        return cls([tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)])


def _check_direction(direction: int, dim: int) -> int:
    if not 0 <= direction < dim:
        raise IndexOutOfRange(f"direction {direction} outside 0..{dim - 1}")
    return direction


def rewrite_monomial(m: Monomial, direction: int, count: int = 1) -> Monomial:
    """Image of a monomial under ``count`` steps in ``direction`` (no order
    strip).  A step sends m_w to |m| and keeps the other exponents, whose
    sum |m| - m_w is therefore fixed, so a run of ``count`` steps sends m_w
    to m_w + count * (|m| - m_w): closed form, whatever the count."""
    m = _validate_monomial(m)
    _check_direction(direction, len(m))
    if count < 0:
        raise ValueError(f"step count must be >= 0, got {count}")
    rest = total_degree(m) - m[direction]
    return m[:direction] + (m[direction] + count * rest,) + m[direction + 1:]


def rewrite_word(m: Monomial, word: Sequence[int]) -> Monomial:
    for w in word:
        m = rewrite_monomial(m, w)
    return m


def rewrite_along(monos: Sequence[Monomial],
                  word: Iterable[int]) -> Iterator[tuple[Monomial, ...]]:
    """The images of ``monos`` after each letter of ``word``, without the
    strip: a letter w sends each exponent m_w to |m|.  Lazy, so the word
    may be endless."""
    if not monos:
        raise EmptyGeneratorSet("no monomials to rewrite")
    dim = len(monos[0])
    images = [list(_validate_monomial(m, dim)) for m in monos]
    for w in word:
        _check_direction(w, dim)
        for m in images:
            m[w] = sum(m)
        yield tuple(map(tuple, images))


def strip_rewrite(monos: Sequence[Monomial], direction: int) -> list[Monomial]:
    """One transform step of a generator set or a form's support: rewrite
    each monomial in ``direction`` and strip r powers of it, r the least
    total degree, so the ``direction`` exponent of m becomes |m| - r."""
    _check_direction(direction, len(monos[0]))
    r = min(map(total_degree, monos))
    return [m[:direction] + (total_degree(m) - r,) + m[direction + 1:] for m in monos]


def transform_ideal(ideal: MonomialIdeal, direction: int) -> MonomialIdeal:
    """One transform step of the ideal: rewrite and strip ord(I) powers."""
    return MonomialIdeal(strip_rewrite(ideal.generators, direction), dim=ideal.dim)


def extend_ideal(ideal: MonomialIdeal, word: Sequence[int]) -> MonomialIdeal:
    """Extension of the ideal along a word: rewrite generators, no strip."""
    gens = [rewrite_word(g, word) for g in ideal.generators]
    return MonomialIdeal(gens, dim=ideal.dim)


def rewrite_matrix(word: Sequence[int], dim: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix M with rewrite_word(m) == M @ m; each factor has det 1."""
    rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for w in word:
        _check_direction(w, dim)
        # left-multiply by the elementary factor whose w-th row sums everything
        rows[w] = [sum(rows[i][j] for i in range(dim)) for j in range(dim)]
    return tuple(tuple(r) for r in rows)


def _value_columns(frame_values: Sequence[ValueVector]):
    """The frame over one common denominator: per basis generator, the
    integer coefficients of the frame values, and the denominator."""
    for v in frame_values[1:]:
        frame_values[0]._check_basis(v)
    rows, den = _common_den(frame_values)
    return tuple(zip(*rows)), den


def _numerators(columns, m: Monomial) -> tuple[int, ...]:
    """The integer numerators of v(m): one dot product per generator."""
    return tuple(sum(map(operator.mul, m, c)) for c in columns)


def monomial_value(frame_values: Sequence[ValueVector], m: Monomial) -> ValueVector:
    """Value of a monomial: the exponent-weighted sum of the frame values."""
    m = _validate_monomial(m, len(frame_values))
    columns, den = _value_columns(frame_values)
    return ValueVector._raw(frame_values[0].basis, _numerators(columns, m), den)


def least_value(frame_values: Sequence[ValueVector], monos: Sequence[Monomial]) -> ValueVector:
    """The smallest value among ``monos``: a form's support, an ideal's generators.

    Every v(m) is written over the frame's common denominator, so two
    values compare by the exact sign of their numerators' difference.
    The first of several equal values wins.
    """
    d = len(frame_values)
    columns, den = _value_columns(frame_values)
    sign = frame_values[0].basis._sign_of_combo
    best = _numerators(columns, _validate_monomial(monos[0], d))
    for m in monos[1:]:
        nums = _numerators(columns, _validate_monomial(m, d))
        if sign(tuple(map(operator.sub, nums, best))) < 0:
            best = nums
    return ValueVector._raw(frame_values[0].basis, best, den)
