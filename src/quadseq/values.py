"""Exact arithmetic over a fixed basis of real numbers.

A value is stored as a vector of rational coefficients over an ordered
basis of real generators (by default ``1, sqrt(2), sqrt(3), sqrt(5), ...``).
Addition, subtraction and scalar multiplication are exact coefficient
operations.  Signs and comparisons are decided by interval refinement:
every generator supplies integer fixed-point approximations at arbitrary
precision, and the precision doubles until the candidate sign separates
from the accumulated rounding error.

A basis is accepted only when its generators are rationally independent.
Writing 1 as sqrt(1), square roots are independent over Q exactly when no
two radicands multiply to a perfect square (Besicovitch 1940), and that
is the rule ``RealBasis`` enforces.  So only the zero coefficient vector
denotes 0, refinement always terminates, and equality of coefficient
vectors is equality of the denoted reals.  For the same reason the
rational rank of a list of values (``rational_rank``) is the rank of its
coefficient rows, found by exact integer elimination.

Code that compares many values first tries their integer shadows: at a
scale T, the shadow of a value is an integer within 2 of the value times
2^T (``shadow``), and ``settled_shadows`` raises T until the shadows of
a set of positive values all clear 2^_SH_MIN.  Stepping and the
valuation-ideal census both take their shadows from here; a comparison
whose gap the shadows' error covers goes to exact sign refinement.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import BasisMismatch

Rational = Union[int, Fraction, str]

# shadow tuning: the mantissa size a fresh scale aims at, and the floor
# every settled shadow clears (bits)
_SH_TARGET = 120
_SH_MIN = 76

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# shared fixed-point cache for square roots: radicand -> (bits, floor(sqrt(n)*2^bits))
_SQRT_CACHE: dict[int, tuple[int, int]] = {}


def _sqrt_fixpoint(n: int, bits: int) -> int:
    """floor-ish approximation f with |f - sqrt(n)*2^bits| <= 1."""
    cached = _SQRT_CACHE.get(n)
    if cached is None or cached[0] < bits:
        b = max(bits, 256, 0 if cached is None else 2 * cached[0])
        val = math.isqrt(n << (2 * b))
        _SQRT_CACHE[n] = (b, val)
        cached = (b, val)
    b, val = cached
    # shifting a floor approximation down keeps the error within one ulp
    return val >> (b - bits)


class Generator:
    """sqrt(n) for a positive integer n, with a refinement oracle.  n = 1
    is the rational unit, written "one"; its fixpoint is exact, because
    isqrt(2^(2b)) = 2^b."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
            raise ValueError(f"sqrt radicand must be a positive integer, got {n!r}")
        self.n = n

    def fixpoint(self, bits: int) -> int:
        """Integer f with |f - sqrt(n)*2^bits| <= 1 (exact when n = 1)."""
        return _sqrt_fixpoint(self.n, bits)

    def to_obj(self):
        return "one" if self.n == 1 else {"sqrt": self.n}

    def __repr__(self):
        return "1" if self.n == 1 else f"sqrt{self.n}"


def _generator_from_obj(obj) -> Generator:
    if obj == "one":
        return Generator(1)
    if isinstance(obj, dict) and set(obj) == {"sqrt"}:
        return Generator(obj["sqrt"])
    raise ValueError(f"unknown basis generator: {obj!r}")


class RealBasis:
    """An ordered tuple of real generators over which values are expressed."""

    __slots__ = ("generators", "_key", "_one_index")

    def __init__(self, generators: Sequence[Generator]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("basis needs at least one generator")
        keys = tuple(g.n for g in gens)
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate basis generators in {list(gens)}")
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if math.isqrt(g.n * h.n) ** 2 == g.n * h.n:
                    raise ValueError(f"basis generators {g!r} and {h!r} are rationally "
                                     f"dependent: {g.n} * {h.n} is a perfect square")
        self.generators = gens
        self._key = keys
        self._one_index = keys.index(1) if 1 in keys else None

    @classmethod
    def default(cls, size: int) -> "RealBasis":
        """1 followed by square roots of the first ``size - 1`` primes."""
        if size < 1:
            raise ValueError("basis size must be >= 1")
        if size - 1 > len(_SMALL_PRIMES):
            raise ValueError("default basis supports at most 13 generators")
        return cls([Generator(n) for n in (1,) + _SMALL_PRIMES[: size - 1]])

    @property
    def size(self) -> int:
        return len(self.generators)

    @property
    def one_index(self):
        return self._one_index

    def __eq__(self, other):
        return isinstance(other, RealBasis) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"RealBasis({', '.join(map(repr, self.generators))})"

    def to_obj(self) -> list:
        return [g.to_obj() for g in self.generators]

    @classmethod
    def from_obj(cls, obj: Iterable) -> "RealBasis":
        return cls([_generator_from_obj(o) for o in obj])

    # -- construction helpers ------------------------------------------------

    def value(self, coeffs: Sequence[Rational]) -> "ValueVector":
        return ValueVector(self, coeffs)

    def zero(self) -> "ValueVector":
        return ValueVector._raw(self, (0,) * self.size, 1)

    def rational(self, q: Rational) -> "ValueVector":
        """The rational number q, as a coefficient on the unit generator."""
        if self._one_index is None:
            raise ValueError("basis has no rational unit generator")
        q = _to_fraction(q)
        nums = [0] * self.size
        nums[self._one_index] = q.numerator
        return ValueVector._raw(self, tuple(nums), q.denominator)

    # -- sign machinery ------------------------------------------------------

    def _sign_of_combo(self, nums: Sequence[int]) -> int:
        """Sign of sum(nums[i] * generator[i]), exact: one fixpoint per
        round at 64, 128, 256, ... bits until the sign separates from the
        error.  The basis is independent, so a nonzero vector denotes a
        nonzero real and some finite precision decides it."""
        bits = 64
        while True:
            s, err = self._eval_fixpoint(nums, bits)
            if s > err:
                return 1
            if s < -err:
                return -1
            if err == 0:
                return 0
            bits <<= 1

    def _eval_fixpoint(self, nums: Sequence[int], bits: int) -> tuple[int, int]:
        """(s, err) with |s - 2^bits * sum(nums[i]*g_i)| <= err."""
        s = 0
        err = 0
        for n, g in zip(nums, self.generators):
            if n == 0:
                continue
            s += n * g.fixpoint(bits)
            if g.n != 1:
                err += abs(n)
        return s, err


def _to_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


class ValueVector:
    """An exact real number: rational coefficients over a :class:`RealBasis`.

    Internally the coefficients are integers over one positive common
    denominator; the public ``coeffs`` view reduces them.  Two values are
    equal iff their coefficient vectors are equal, which is equality of the
    denoted reals because every basis is independent.  Order comparisons
    go through sign refinement.
    """

    __slots__ = ("basis", "_nums", "_den")

    def __init__(self, basis: RealBasis, coeffs: Sequence[Rational]):
        fracs = [_to_fraction(c) for c in coeffs]
        if len(fracs) != basis.size:
            raise ValueError(
                f"expected {basis.size} coefficients, got {len(fracs)}"
            )
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        self.basis = basis
        self._nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self._den = den

    @classmethod
    def _raw(cls, basis: RealBasis, nums: tuple[int, ...], den: int) -> "ValueVector":
        v = object.__new__(cls)
        v.basis = basis
        v._nums = nums
        v._den = den
        return v

    # -- views ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._nums)

    def serialize(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        parts = []
        for c, g in zip(self.coeffs, self.basis.generators):
            if c == 0:
                continue
            parts.append(f"{c}" if g.n == 1 else f"{c}*{g!r}")
        return f"<{' + '.join(parts) or '0'}>"

    # -- arithmetic ----------------------------------------------------------

    def _check_basis(self, other: "ValueVector"):
        if self.basis != other.basis:
            raise BasisMismatch(
                f"values over different bases: {self.basis!r} vs {other.basis!r}"
            )

    def _combine(self, op, other: "ValueVector") -> "ValueVector":
        """self op other for ``operator.add`` or ``operator.sub``, over the
        shared denominator or else over the lcm of the two."""
        self._check_basis(other)
        if self._den == other._den:
            return ValueVector._raw(
                self.basis, tuple(map(op, self._nums, other._nums)), self._den)
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        return ValueVector._raw(
            self.basis,
            tuple(op(a * sa, b * sb) for a, b in zip(self._nums, other._nums)),
            den,
        )

    def __add__(self, other: "ValueVector") -> "ValueVector":
        return self._combine(operator.add, other)

    def __sub__(self, other: "ValueVector") -> "ValueVector":
        return self._combine(operator.sub, other)

    def __neg__(self) -> "ValueVector":
        return ValueVector._raw(self.basis, tuple(-n for n in self._nums), self._den)

    def scale(self, q: Rational) -> "ValueVector":
        """Multiply by an exact rational scalar."""
        if type(q) is int:
            return ValueVector._raw(self.basis, tuple(n * q for n in self._nums), self._den)
        q = _to_fraction(q)
        return ValueVector._raw(
            self.basis,
            tuple(n * q.numerator for n in self._nums),
            self._den * q.denominator,
        )

    __mul__ = scale
    __rmul__ = scale

    # -- comparisons ---------------------------------------------------------

    def sign(self) -> int:
        return self.basis._sign_of_combo(self._nums)

    def _diff(self, other: "ValueVector") -> Iterator[int]:
        """Numerators with the sign of self - other, one at a time:
        cross-multiplied when the denominators differ, so a comparison
        builds no value."""
        if self._den == other._den:
            return map(operator.sub, self._nums, other._nums)
        return (a * other._den - b * self._den for a, b in zip(self._nums, other._nums))

    def cmp(self, other: "ValueVector") -> int:
        """-1, 0 or +1 by the order of the denoted real numbers."""
        self._check_basis(other)
        return self.basis._sign_of_combo(tuple(self._diff(other)))

    def __eq__(self, other):
        if not isinstance(other, ValueVector):
            return NotImplemented
        return self.basis == other.basis and not any(self._diff(other))

    def __hash__(self):
        g = math.gcd(self._den, *(abs(n) for n in self._nums))
        g = g or 1
        return hash((self.basis._key, tuple(n // g for n in self._nums), self._den // g))

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    # -- numeric views -------------------------------------------------------

    def evaluate_interval(self, max_width: Fraction = Fraction(1, 10**6)) -> tuple[Fraction, Fraction]:
        """Rational interval [lo, hi] containing the value, hi - lo <= max_width.

        The enclosure is (s -+ err) / (den * 2^bits) for the fixpoint
        ``(s, err)`` at the first of 64, 128, 256, ... bits where it is
        narrow enough.  Its width 2*err / (den * 2^bits) does not depend on
        s, and err (the sum of |n_i| over the irrational generators) does
        not depend on bits, so the precision is picked by an integer test
        before the one fixpoint is evaluated.  With no irrational part
        (err = 0) the value is the rational point n_one / den, which is the
        enclosure at any precision, so no fixpoint is evaluated at all.
        """
        max_width = _to_fraction(max_width)
        if max_width.numerator <= 0:
            raise ValueError("interval width must be positive")
        basis = self.basis
        need = 2 * max_width.denominator * sum(
            abs(n) for n, g in zip(self._nums, basis.generators) if g.n != 1)
        if need == 0:
            one = basis.one_index
            q = Fraction(0 if one is None else self._nums[one], self._den)
            return q, q
        bits = 64
        while need > max_width.numerator * (self._den << bits):
            bits <<= 1
        s, err = basis._eval_fixpoint(self._nums, bits)
        scale = self._den << bits
        return Fraction(s - err, scale), Fraction(s + err, scale)


def _common_den(vectors: Sequence[ValueVector]):
    """Integer numerator rows of the vectors over their least common denominator."""
    den = 1
    for v in vectors:
        den = math.lcm(den, v._den)
    nums = tuple(
        tuple(n * (den // v._den) for n in v._nums) for v in vectors
    )
    return nums, den


def rational_rank(values: Sequence[ValueVector]) -> int:
    """Dimension over Q of the span of the values.

    Each numerator row is reduced against the pivot rows kept so far by
    integer cross-multiplication (its denominator only scales the row)
    and divided by its gcd, so entries do not grow exponentially with
    the rank; a row that stays nonzero is a new pivot.
    """
    pivots: list[tuple[int, Sequence[int]]] = []
    for v in values:
        v._check_basis(values[0])
        row = v._nums
        for c, p in pivots:
            if row[c]:
                a, b = p[c], row[c]
                row = [a * x - b * y for x, y in zip(row, p)]
                g = math.gcd(*row) or 1
                row = [x // g for x in row]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            pivots.append((lead, row))
    return len(pivots)


def shadow(basis: RealBasis, nums: Sequence[int], den: int, T: int) -> int:
    """Mantissa m with |m - value * 2^T| <= 2, value = nums/den over the basis."""
    bits = T + sum(map(abs, nums)).bit_length() + 70
    s, _err = basis._eval_fixpoint(nums, bits)
    return s // (den << (bits - T))


def settled_shadows(basis: RealBasis, rows: Sequence[Sequence[int]], den: int,
                    T: int | None = None, sh: Sequence[int] | None = None):
    """(T, shadows) of the positive values rows/den over the basis, at the
    first scale T where every shadow clears 2^_SH_MIN.

    Without a starting scale the first try is T = _SH_TARGET plus the bit
    length of den.  Given shadows ``sh`` that fell short at scale T, the
    loop raises T before it evaluates again.  Each round that leaves a
    shadow under the floor raises T, doubling it while the smallest
    shadow is 0 or 1, so a value near 2^-k settles in O(log k) rounds.
    """
    if T is None:
        T = _SH_TARGET + den.bit_length()
    while True:
        if sh is not None:
            low = min(sh)
            T = 2 * T if low <= 1 else T + max(64, _SH_TARGET - low.bit_length())
        sh = tuple(shadow(basis, r, den, T) for r in rows)
        if min(sh) >= 1 << _SH_MIN:
            return T, sh


def value_cmp(a: ValueVector, b: ValueVector) -> int:
    """Module-level comparison helper: -1, 0 or +1."""
    return a.cmp(b)
