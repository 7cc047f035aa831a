"""Valuation ideals of a monomial valuation given by a positive frame.

The frame assigns each variable a positive value; a monomial's value is
the exponent-weighted sum.  For a threshold t the sets {v(m) >= t} and
{v(m) > t} are monomial ideals, and walking the distinct attained values
upward produces the descending chain of valuation ideals.  Enumeration
works over one finite exponent box whose values are carried as exact
integer coordinate rows, so equality and counting never round; order
decisions use a float preview and fall back to exact sign refinement
only within a guard margin of the boundary.
"""

from __future__ import annotations

import functools
from typing import Sequence, Union

import numpy as np

from .errors import NotTerminated
from .monomials import (
    Monomial,
    MonomialIdeal,
    extend_ideal,
    least_value,
)
from .sequence import ParameterFrame, SequenceState, _common_den
from .values import ValueVector

FrameLike = Union[ParameterFrame, Sequence[ValueVector]]

# float margin used only to route near-boundary rows to exact arithmetic;
# the true float error for desk-sized boxes is many orders smaller
_MARGIN = 1e-6

_cmp_key = functools.cmp_to_key(lambda a, b: a.cmp(b))


def _values_of(frame: FrameLike) -> tuple[ValueVector, ...]:
    if isinstance(frame, ParameterFrame):
        return frame.values
    return tuple(frame)


class _FrameData:
    """Frame values over one shared denominator, with float previews."""

    def __init__(self, frame: FrameLike):
        vals = _values_of(frame)
        if not vals:
            raise ValueError("empty frame")
        self.basis = vals[0].basis
        for v in vals:
            v._check_basis(vals[0])
        self.rows, self.den = _common_den(vals)
        self.values = vals
        self.floats = np.array([float(v) for v in vals])
        self.dim = len(vals)

    def value_vector(self, m: Monomial) -> ValueVector:
        nums = tuple(
            sum(e * row[j] for e, row in zip(m, self.rows))
            for j in range(self.basis.size)
        )
        return ValueVector._raw(self.basis, nums, self.den)

    def cmp_threshold(self, m: Monomial, t: ValueVector) -> int:
        """Exact sign of v(m) - t."""
        combo = tuple(
            a * t._den - b * self.den
            for a, b in zip(self.value_vector(m)._nums, t._nums)
        )
        return self.basis._sign_of_combo(combo)

    def axis_cap(self, i: int, bound: ValueVector) -> int:
        """Largest e with e * value_i <= bound (0 if even 1 exceeds it)."""
        guess = max(int(float(bound) / self.floats[i]) , 0)
        e = guess
        while self.cmp_threshold(_axis(self.dim, i, e + 1), bound) <= 0:
            e += 1
        while e > 0 and self.cmp_threshold(_axis(self.dim, i, e), bound) > 0:
            e -= 1
        return e


def _axis(dim: int, i: int, e: int) -> Monomial:
    return tuple(e if j == i else 0 for j in range(dim))


def _box(caps: Sequence[int]) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(c + 1) for c in caps], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


class _BoxCensus:
    """Every monomial with value <= reach, with exact value coordinates.

    One integer matrix product turns the whole box into value rows over
    the frame's common denominator: value equality is row equality, so
    deduplication and level counting are exact with no per-row Python
    work.  Minimal generators of the threshold ideals come out of the
    staircase criterion — m generates {v >= t} iff v(m) >= t and
    dropping any one variable in its support falls below t — which is a
    per-coordinate test, never a pairwise divisibility scan.
    """

    def __init__(self, data: _FrameData, reach: ValueVector):
        self.data = data
        caps = [data.axis_cap(i, reach) for i in range(data.dim)]
        self.exponents = _box(caps)
        self.combos = self.exponents @ np.array(data.rows, dtype=np.int64)
        self.approx = self.exponents @ data.floats

    def _cmp_at(self, idx: int, t: ValueVector, shift: int | None = None) -> int:
        """Exact sign of v(box[idx]) - t, minus value ``shift`` if given."""
        combo = [int(x) for x in self.combos[idx]]
        if shift is not None:
            combo = [a - b for a, b in zip(combo, self.data.rows[shift])]
        return self.data.basis._sign_of_combo(
            tuple(a * t._den - b * self.data.den for a, b in zip(combo, t._nums))
        )

    def distinct_upto(self, bound: ValueVector) -> list[ValueVector]:
        """All distinct values <= bound in the box, exactly, ascending."""
        tf = float(bound)
        inside = np.nonzero(self.approx <= tf + _MARGIN)[0]
        if len(inside) == 0:
            return []
        uniq, first = np.unique(
            self.combos[inside], axis=0, return_index=True
        )
        floats = self.approx[inside][first]
        order = np.argsort(floats, kind="stable")
        vals: list[ValueVector] = []
        approx: list[float] = []
        for k in order:
            v = ValueVector._raw(
                self.data.basis, tuple(int(x) for x in uniq[k]), self.data.den
            )
            a = float(floats[k])
            if a >= tf - _MARGIN and v.cmp(bound) > 0:
                continue
            vals.append(v)
            approx.append(a)
        # floats sorted us; settle any near-tied run exactly
        out: list[ValueVector] = []
        i = 0
        while i < len(vals):
            j = i + 1
            while j < len(vals) and approx[j] - approx[j - 1] <= _MARGIN:
                j += 1
            chunk = vals[i:j]
            if len(chunk) > 1:
                chunk = sorted(chunk, key=_cmp_key)
            out.extend(chunk)
            i = j
        return out

    def count_at(self, t: ValueVector) -> int:
        """Number of box monomials whose value equals t, exactly."""
        peak = int(np.abs(self.combos).max()) if self.combos.size else 0
        if peak * t._den >= 2**62 or any(
            abs(n) * self.data.den >= 2**62 for n in t._nums
        ):
            # int64 would wrap; fall back to per-row exact arithmetic
            return sum(
                1 for idx in range(len(self.combos)) if self._cmp_at(idx, t) == 0
            )
        target = np.array(
            [n * self.data.den for n in t._nums], dtype=np.int64
        )
        hits = np.all(self.combos * int(t._den) == target, axis=1)
        return int(hits.sum())

    def generators_at(self, t: ValueVector, strict: bool) -> list[Monomial]:
        """Minimal generators of {v >= t} (or {v > t} when strict)."""
        tf = float(t)
        keep = self.approx >= tf - _MARGIN
        for i in range(self.data.dim):
            surely_deep = (self.approx - self.data.floats[i]) > tf + _MARGIN
            keep &= ~((self.exponents[:, i] > 0) & surely_deep)
        gens: list[Monomial] = []
        for idx in np.nonzero(keep)[0]:
            a = float(self.approx[idx])
            if a <= tf + _MARGIN:
                s = self._cmp_at(idx, t)
                if s < 0 or (strict and s == 0):
                    continue
            minimal = True
            for i in range(self.data.dim):
                if self.exponents[idx, i] == 0:
                    continue
                if a - self.data.floats[i] < tf - _MARGIN:
                    continue
                s = self._cmp_at(idx, t, shift=i)
                if s > 0 or (not strict and s == 0):
                    minimal = False
                    break
            if minimal:
                gens.append(tuple(int(x) for x in self.exponents[idx]))
        return sorted(gens)


def enumerate_values(frame: FrameLike, bound: ValueVector) -> list[ValueVector]:
    """All distinct monomial values <= bound, ascending (0 included)."""
    data = _FrameData(frame)
    return _BoxCensus(data, bound).distinct_upto(bound)


def value_ladder(frame: FrameLike, count: int) -> list[ValueVector]:
    """The first ``count`` distinct monomial values, ascending from 0.

    Starts from a volume estimate of where the count-th value sits and
    doubles the search bound until enough distinct values are in the
    box; each attempt is one census, so overshoot is cheap.
    """
    if count <= 0:
        return []
    data = _FrameData(frame)
    import math

    vmin = min(data.values, key=_cmp_key)
    guess = (count * math.factorial(data.dim) * float(np.prod(data.floats))) ** (
        1 / data.dim
    )
    steps = max(1, math.ceil(guess / float(vmin)))
    bound = vmin.scale(steps)
    while True:
        ladder = _BoxCensus(data, bound).distinct_upto(bound)
        if len(ladder) >= count:
            return ladder[:count]
        bound = bound.scale(2)


def videal_at(frame: FrameLike, threshold: ValueVector, strict: bool = False) -> MonomialIdeal:
    """The monomial ideal {m : v(m) >= threshold} (or >, when strict)."""
    data = _FrameData(frame)
    if threshold.sign() < 0:
        raise ValueError("thresholds are nonnegative")
    vmax = max(data.values, key=_cmp_key)
    census = _BoxCensus(data, threshold + vmax)
    return MonomialIdeal._raw(census.generators_at(threshold, strict), data.dim)


def ideal_value(frame: FrameLike, ideal: MonomialIdeal) -> ValueVector:
    """min over generators of v(g): the value of the ideal."""
    return least_value(_values_of(frame), ideal.generators)


def colength_step(frame: FrameLike, threshold: ValueVector) -> int:
    """Number of monomials whose value equals the threshold exactly."""
    data = _FrameData(frame)
    return _BoxCensus(data, threshold).count_at(threshold)


def videal_chain(frame: FrameLike, count: int) -> list[dict]:
    """The first ``count`` valuation ideals: R, then {v > t_n} repeatedly.

    Entry n carries the ideal, its threshold t_n (the value of the
    ideal), and the number of monomials sitting exactly at t_n — the
    colength of the step down to the next ideal.  One census spanning
    the whole ladder serves every rung.
    """
    if count <= 0:
        return []
    data = _FrameData(frame)
    zero = data.basis.zero()
    unit = MonomialIdeal([(0,) * data.dim])
    ladder = value_ladder(frame, count)
    vmax = max(data.values, key=_cmp_key)
    census = _BoxCensus(data, ladder[-1] + vmax)
    out = []
    ideal, t = unit, zero
    for n in range(count):
        out.append(
            {
                "n": n,
                "ideal": ideal,
                "threshold": t,
                "colength": census.count_at(t),
            }
        )
        if n + 1 < count:
            gens = census.generators_at(t, strict=True)
            ideal = MonomialIdeal._raw(gens, data.dim)
            t = ideal_value(frame, ideal)
    return out


def membership_index(frame: FrameLike, chain: list[dict], m: Monomial) -> tuple[int, int]:
    """Largest chain index containing the monomial, two independent ways.

    Returns ``(by_ideal, by_threshold)``: the first scans generator
    divisibility down the chain, the second compares v(m) against the
    thresholds.  They must agree for honest valuation ideals.
    """
    data = _FrameData(frame)
    by_ideal = -1
    for entry in chain:
        if entry["ideal"].contains(m):
            by_ideal = entry["n"]
        else:
            break
    by_threshold = -1
    for entry in chain:
        if data.cmp_threshold(m, entry["threshold"]) >= 0:
            by_threshold = entry["n"]
        else:
            break
    return by_ideal, by_threshold


def tau_bound(frame: FrameLike, n_ideals: int, max_steps: int = 10_000) -> int:
    """Least prefix length of the argmin word extending the first
    ``n_ideals`` valuation ideals to principal ideals all at once.

    Raises NotTerminated when ``max_steps`` letters were not enough.
    """
    chain = videal_chain(frame, n_ideals)
    ideals = [entry["ideal"] for entry in chain]
    state = SequenceState.from_frame(
        frame if isinstance(frame, ParameterFrame) else ParameterFrame(tuple(frame))
    )
    extensions = list(ideals)
    if all(e.is_principal for e in extensions):
        return 0
    for j in range(1, max_steps + 1):
        state, w = state.step_argmin()
        extensions = [extend_ideal(e, [w]) for e in extensions]
        if all(e.is_principal for e in extensions):
            return j
    raise NotTerminated(
        f"extensions still not all principal after {max_steps} steps",
        steps=max_steps,
    )


def short_chain_report(frame: FrameLike) -> dict:
    """The length-(dim+2) chain squeezed between R and the square of the
    maximal ideal when every value is below twice the smallest.

    When the precondition holds, the valuation ideals from threshold 0 to
    the first two-fold value are R, the maximal ideal, one ideal per
    remaining variable, and finally the square of the maximal ideal, each
    step of colength 1.
    """
    vals = _values_of(frame)
    d = len(vals)
    vmin = min(vals, key=_cmp_key)
    vmax = max(vals, key=_cmp_key)
    applies = vmax.cmp(vmin.scale(2)) < 0
    report = {"applies": applies}
    if not applies:
        return report
    chain = videal_chain(frame, d + 2)
    maximal = MonomialIdeal.maximal(d)
    m_squared = MonomialIdeal(
        [
            tuple((1 if i == a else 0) + (1 if i == b else 0) for i in range(d))
            for a in range(d)
            for b in range(a, d)
        ]
    )
    report.update(
        {
            "chain": [entry["ideal"] for entry in chain],
            "thresholds": [entry["threshold"] for entry in chain],
            "colengths": [entry["colength"] for entry in chain],
            "starts_at_unit": chain[0]["ideal"].is_unit,
            "second_is_maximal": chain[1]["ideal"] == maximal,
            "ends_at_m_squared": chain[-1]["ideal"] == m_squared,
            "all_colengths_one": all(e["colength"] == 1 for e in chain),
        }
    )
    return report
