"""Directed sequences of monomial local quadratic transforms.

A :class:`SequenceState` tracks the exact values of the current frame
(one positive value per direction), the running sum ``E`` of the step
values, and the full step history.  A monomial step in direction ``w``
subtracts ``v(w)`` from every other value; a rescale step keeps the
direction structure but installs externally supplied new values (the
outcome of a coordinate change is data, not something the value frame
determines).  The value of a step — the smallest frame value at that
moment — is recorded with each step.

Stepping is exact.  A segment, a stretch of steps with no rescale,
stores the anchored rows c_i = a_i + D over one shared denominator, D
the sum of its step values so far, so E = E_seg + D.  A step in ``w``
with value v = c_w - D adds v to D and to c_w and leaves every other
row as it is; the shadows, sb_i - S with errors eb_i + G, likewise move
the offsets S and G and reset entry ``w``.  Comparisons are decided by
the shadows whenever the gap exceeds the error and by exact sign
refinement otherwise, so a 10^4-step run costs fractions of a second
without ever trusting a float.  Every state is born with settled
shadows: a step keeps the ones it inherits while they are precise
enough and takes fresh ones from ``values.settled_shadows`` otherwise.
Argmin, scripted and run-length steps all go through one step kernel,
``_monomial``.

Callers that need only the letters of an argmin run read them from
``argmin_word``; ``SequenceState.frame_below`` certifies that a state's
frame has shrunk below a rational bound, and
``SequenceState.idle_directions`` that a set of directions is never
stepped again.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    AmbiguousDirection,
    DirectionNotMinimal,
    IncompleteCoverage,
    IndexOutOfRange,
    NonPositiveValue,
)
from .values import _SH_MIN, RealBasis, ValueVector, _common_den, settled_shadows, shadow

DEFAULT_NAMES = ("x", "y", "z", "w", "v", "u")

# the largest accumulated shadow error a state keeps before it refreshes
# its shadows (ulps of the scale)
_SH_ERR_MAX = 1 << 34


def default_names(dim: int) -> tuple[str, ...]:
    if dim <= len(DEFAULT_NAMES):
        return DEFAULT_NAMES[:dim]
    return DEFAULT_NAMES + tuple(f"x{i}" for i in range(len(DEFAULT_NAMES), dim))


class ParameterFrame:
    """Named directions with strictly positive exact values."""

    __slots__ = ("names", "values")

    def __init__(self, values: Sequence[ValueVector], names: Sequence[str] | None = None):
        vals = tuple(values)
        if not vals:
            raise ValueError("a frame needs at least one direction")
        basis = vals[0].basis
        for v in vals:
            v._check_basis(vals[0])
            if v.sign() <= 0:
                raise NonPositiveValue(f"frame value {v!r} is not strictly positive")
        self.names = tuple(names) if names is not None else default_names(len(vals))
        if len(self.names) != len(vals):
            raise ValueError("one name per direction required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("direction names must be distinct")
        self.values = vals

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def basis(self) -> RealBasis:
        return self.values[0].basis

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.names, self.values))
        return f"ParameterFrame({inner})"


class StepRecord(NamedTuple):
    """One step: ``monomial`` (direction, possibly run-length compressed) or ``rescale``."""

    kind: str
    direction: Optional[int]
    m_value: ValueVector
    count: int = 1

    @property
    def carries_direction(self) -> bool:
        return self.direction is not None


class SequenceState:
    """Immutable snapshot of a transform sequence; steps return successors."""

    __slots__ = (
        "basis", "names", "dim",
        "_den", "_rows", "_D", "_E0", "_n", "_hist",
        "_seg_total", "_rescaled", "_frame0",
        "_sb", "_S", "_eb", "_G", "_shscale", "_slack_sh",
    )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_frame(cls, frame: ParameterFrame | Sequence[ValueVector],
                   names: Sequence[str] | None = None) -> "SequenceState":
        if not isinstance(frame, ParameterFrame):
            frame = ParameterFrame(frame, names)
        st = object.__new__(cls)
        st.basis = frame.basis
        st.names = frame.names
        st.dim = frame.dim
        st._n = 0
        st._hist = []
        st._frame0 = frame.values
        st._start_segment(*_common_den(frame.values), (0,) * frame.basis.size, False)
        return st

    def _start_segment(self, rows, den, E0, rescaled):
        """Install ``rows`` over ``den`` as the frame, with D = 0 and the
        partial sum E0, and settle fresh shadows for it."""
        self._rows, self._den, self._E0, self._rescaled = rows, den, E0, rescaled
        self._D = (0,) * self.basis.size
        self._seg_total = tuple(map(sum, zip(*rows)))
        self._sb = None
        self._settle()

    def _spawn(self, record) -> "SequenceState":
        """The successor state with ``record`` appended to the history; the
        caller installs its frame."""
        st = object.__new__(SequenceState)
        st.basis = self.basis
        st.names = self.names
        st.dim = self.dim
        if len(self._hist) == self._n:
            self._hist.append(record)
            st._hist = self._hist
        else:  # a sibling successor already extended the shared history
            st._hist = self._hist[: self._n] + [record]
        st._n = self._n + 1
        st._frame0 = self._frame0
        return st

    # -- shadow machinery ----------------------------------------------------

    def _shadows(self) -> tuple[list[int], list[int]]:
        """The shadows of the frame values at scale 2^_shscale, sb_i - S,
        and their errors, eb_i + G."""
        S, G = self._S, self._G
        return [b - S for b in self._sb], [e + G for e in self._eb]

    def _settle(self):
        """Keep the shadows while every one clears the floor 2^_SH_MIN and
        no error exceeds _SH_ERR_MAX; take settled ones from
        ``values.settled_shadows`` otherwise, from scratch at a segment
        start and above the current scale after that.  A refresh in a
        rescale-free segment also takes the gap row's, which ``_gap_shadow`` moves."""
        sb = self._sb
        if sb is not None and min(sb) - self._S >= 1 << _SH_MIN \
                and max(self._eb) + self._G <= _SH_ERR_MAX:
            return
        T, sh = (None, None) if sb is None else (self._shscale, self._shadows()[0])
        T, self._sb = settled_shadows(self.basis, self._frame_rows(), self._den, T, sh)
        self._eb, self._S, self._G, self._shscale = (2,) * self.dim, 0, 0, T
        if not self._rescaled:
            d1 = self.dim - 1
            gap = tuple(c - d1 * e for c, e in zip(self._seg_total, self._D))
            self._slack_sh = shadow(self.basis, gap, self._den, T)

    def _frame_rows(self) -> Sequence[tuple[int, ...]]:
        """The numerators of the frame values, c_i - D (the rows themselves
        at a segment start, where D = 0)."""
        D = self._D
        return [tuple(map(operator.sub, c, D)) for c in self._rows] if any(D) else self._rows

    def _value(self, i: int) -> ValueVector:
        """The frame value a_i = c_i - D."""
        return ValueVector._raw(self.basis, tuple(map(operator.sub, self._rows[i], self._D)),
                                self._den)

    def _cmp_exact(self, i: int, j: int) -> int:
        # a_i - a_j = c_i - c_j: the anchor cancels
        ci, cj = self._rows[i], self._rows[j]
        return self.basis._sign_of_combo(tuple(a - b for a, b in zip(ci, cj)))

    # -- views ---------------------------------------------------------------

    @property
    def step_count(self) -> int:
        return self._n

    @property
    def history(self) -> tuple[StepRecord, ...]:
        return tuple(self._hist[: self._n])

    @property
    def frame_values(self) -> tuple[ValueVector, ...]:
        return tuple(ValueVector._raw(self.basis, v, self._den) for v in self._frame_rows())

    @property
    def initial_frame_values(self) -> tuple[ValueVector, ...]:
        return self._frame0

    @property
    def partial_sum(self) -> ValueVector:
        """E: the sum of the values of all steps taken so far, E_seg + D."""
        return ValueVector._raw(self.basis, tuple(map(operator.add, self._E0, self._D)),
                                self._den)

    @property
    def had_rescale(self) -> bool:
        return self._rescaled

    def m_value(self, n: int) -> ValueVector:
        if not 0 <= n < self._n:
            raise IndexOutOfRange(f"step {n} outside 0..{self._n - 1}")
        return self._hist[n].m_value

    def direction_counts(self) -> dict[str, int]:
        """Occurrences per direction among direction-carrying steps.

        Monomial runs count with multiplicity; a rescale recorded with a
        ``direction`` counts once for that direction.
        """
        counts = [0] * self.dim
        for rec in self._hist[: self._n]:
            if rec.carries_direction:
                counts[rec.direction] += rec.count
        return dict(zip(self.names, counts))

    # -- stepping ------------------------------------------------------------

    def _argmin(self, unique: bool) -> int:
        """Index of the smallest value, lowest index on a tie; a tie raises
        AmbiguousDirection when ``unique``."""
        # sh_i - sh_mi <= err_i + err_mi, with the offsets S and G folded in
        sb, eb = self._sb, self._eb
        sbm = min(sb)
        mi = sb.index(sbm)
        tol = eb[mi] + 2 * self._G
        for i in range(self.dim):
            if i != mi and sb[i] - sbm <= eb[i] + tol:
                break
        else:
            return mi
        # shadow gap inconclusive: settle exactly
        mi = 0
        for j in range(1, self.dim):
            if self._cmp_exact(j, mi) < 0:
                mi = j
        if unique:
            for j in range(self.dim):
                if j != mi and self._cmp_exact(j, mi) == 0:
                    raise AmbiguousDirection(
                        f"minimum attained by both {self.names[mi]} and {self.names[j]}"
                    )
        return mi

    def step_argmin(self) -> tuple["SequenceState", int]:
        """One monomial step in the direction of the unique smallest value."""
        mi = self._argmin(unique=True)
        return self._monomial(mi, 1, checked=True), mi

    def step_in_direction(self, direction: int) -> "SequenceState":
        """One scripted monomial step; the direction's value must be minimal."""
        return self.run_in_direction(direction, 1)

    def run_in_direction(self, direction: int, count: int) -> "SequenceState":
        """``count`` consecutive monomial steps in one direction, applied in bulk."""
        self._check_dir(direction)
        if count < 1:
            raise ValueError("run count must be >= 1")
        return self._monomial(direction, count, checked=False)

    def _check_dir(self, direction: int):
        if not 0 <= direction < self.dim:
            raise IndexOutOfRange(
                f"direction {direction} outside 0..{self.dim - 1}"
            )

    def _monomial(self, mi: int, count: int, checked: bool) -> "SequenceState":
        rows, D, S, G = self._rows, self._D, self._S, self._G
        # a step in mi leaves v(mi) unchanged: a run shares one value object
        last = self._hist[self._n - 1] if self._n else None
        same = last is not None and last.kind == "monomial" and last.direction == mi
        m = last.m_value if same else self._value(mi)
        vm = m._nums
        cvm = vm if count == 1 else tuple(count * b for b in vm)
        D1 = tuple(map(operator.add, D, cvm))
        sb, eb = self._sb, self._eb
        shm, errm = sb[mi] - S, eb[mi] + G
        cshm, cerrm = count * shm, count * errm
        if not checked:
            # validity: every other value must stay strictly positive after
            # subtracting count * v(mi), which also certifies minimality at
            # every intermediate step of the run; a_w - count * v(mi) is
            # c_w - D1 in the anchored rows
            for w in range(self.dim):
                if w == mi or sb[w] - S - cshm > eb[w] + G + cerrm:
                    continue
                sgn = self.basis._sign_of_combo(tuple(map(operator.sub, rows[w], D1)))
                if sgn < 0:
                    mid = self.basis._sign_of_combo(
                        tuple(c - d - v for c, d, v in zip(rows[w], D, vm)))
                    if mid < 0:
                        raise DirectionNotMinimal(
                            f"{self.names[mi]} is not minimal: {self.names[w]} is smaller"
                        )
                    raise DirectionNotMinimal(
                        f"run of {count} steps in {self.names[mi]} overshoots {self.names[w]}"
                    )
                if sgn == 0:
                    raise NonPositiveValue(
                        f"value of {self.names[w]} would reach zero"
                    )
        st = self._spawn(StepRecord("monomial", mi, m, count))
        # only row mi moves: c_mi += count * v(mi), every other c_i stays
        st._rows = new_rows = list(rows)
        new_rows[mi] = tuple(map(operator.add, rows[mi], cvm))
        st._D, st._E0, st._den = D1, self._E0, self._den
        st._seg_total, st._rescaled = self._seg_total, self._rescaled
        # every shadow but mi drops by count * sh_mi and gains count * err_mi
        # + 1 of error: the offsets S and G take that, and entry mi is reset
        st._S, st._G = S1, G1 = S + cshm, G + cerrm + 1
        st._sb = new_sb = list(sb)
        new_sb[mi] = shm + S1
        st._eb = new_eb = list(eb)
        new_eb[mi] = errm - G1
        st._shscale = self._shscale
        if not self._rescaled:
            st._slack_sh = self._slack_sh
        st._settle()
        return st

    def current_min(self) -> tuple[int, ValueVector]:
        """Index and value of a minimal frame entry (ties resolved to lowest index)."""
        mi = self._argmin(unique=False)
        return mi, self._value(mi)

    def rescale(self, new_values: Sequence[ValueVector],
                direction: int | None = None) -> "SequenceState":
        """A coordinate-change step: the frame is replaced by ``new_values``.

        The step's value is the current frame minimum.  ``direction`` may
        record which variable was divided out, for occupancy reporting.
        """
        if len(new_values) != self.dim:
            raise ValueError("rescale must supply one value per direction")
        if direction is not None:
            self._check_dir(direction)
        for v in new_values:
            v._check_basis(self._frame0[0])
            if v.sign() <= 0:
                raise NonPositiveValue("rescaled frame values must stay positive")
        _, m = self.current_min()
        nums, den = _common_den(tuple(new_values))
        full = math.lcm(den, self._den)
        rows = tuple(tuple(n * (full // den) for n in row) for row in nums)
        # E' = E_seg + D + m, re-expressed over the new common denominator
        E = tuple((e + d + mm) * (full // self._den)
                  for e, d, mm in zip(self._E0, self._D, m._nums))
        st = self._spawn(StepRecord("rescale", direction, m))
        st._start_segment(rows, full, E, True)
        return st

    # -- invariants and reports ----------------------------------------------

    def conservation_check(self) -> bool:
        """(dim-1) * E + sum(frame) == (dim-1) * E_seg + sum(frame_seg), exactly.

        ``seg`` marks the start of the current rescale-free segment; the
        identity holds within every such segment regardless of which
        directions were stepped.  With E = E_seg + D and the anchored rows
        c_i = a_i + D it reads sum(c) - D == sum(frame_seg), and the rows
        are summed afresh here.
        """
        return tuple(map(operator.sub, map(sum, zip(*self._rows)), self._D)) == self._seg_total

    def series_bound(self) -> ValueVector:
        """sum(initial frame) / (dim - 1): the ceiling for rescale-free runs."""
        if self.dim < 2:
            raise ValueError("the series bound needs at least two directions")
        total = self._frame0[0].basis.zero()
        for v in self._frame0:
            total = total + v
        return total.scale(Fraction(1, self.dim - 1))

    def bound_gap_sign(self) -> int:
        """Sign of (series bound - E).  Only defined for rescale-free runs."""
        if self._rescaled:
            raise ValueError("the series bound does not apply after a rescale")
        if self.dim < 2:
            raise ValueError("the series bound needs at least two directions")
        sh, err = self._gap_shadow()
        if sh > err:
            return 1
        if sh < -err:
            return -1
        d1 = self.dim - 1
        gap = tuple(c - d1 * e for c, e in zip(self._seg_total, self._D))
        return self.basis._sign_of_combo(gap)

    def _gap_shadow(self) -> tuple[int, int]:
        """The shadow of the gap row (d-1)*(bound - E) at scale 2^_shscale
        and its error: a run in w takes (d-1)*count*v(w) off the row, and S
        and G take up count*sh_w and more than count*err_w, so the shadow
        is the refresh's less (d-1)*S, within 2 + (d-1)*G."""
        d1 = self.dim - 1
        return self._slack_sh - d1 * self._S, 2 + d1 * self._G

    def frame_below(self, eps: Fraction) -> bool:
        """Interval-certified: every current frame value is below eps.

        The shadows reject quickly when some value certainly reaches eps;
        the certificate itself is an exact rational enclosure per value,
        so the answer is that of ``evaluate_interval(eps / 4)[1] < eps``
        for every value.
        """
        if any(
            (s - e) * eps.denominator >= (1 << self._shscale) * eps.numerator
            for s, e in zip(*self._shadows())
        ):
            return False
        quarter = eps / 4
        return all(v.evaluate_interval(quarter)[1] < eps for v in self.frame_values)

    def idle_directions(self) -> frozenset[int]:
        """Directions that argmin stepping from this state never uses.

        Sort the current values exactly as a_1 < ... < a_d.  If prefix
        dominance first fails at j >= 3, that is (j-2)*a_j >= a_1 + ... +
        a_(j-1), the directions at positions j and above are idle: while
        only the lower set C steps, it runs its own argmin sequence, so
        its step sum s stays below T_C/(|C|-1), the series bound of C (T_C
        the current sum over C).  Each upper value minus s then stays
        above the mean of C, so never becomes the minimum.  Empty when
        dominance holds throughout, and always when dim == 2.
        """
        vals = self.frame_values
        order = sorted(range(self.dim), key=vals.__getitem__)
        k = _dominance_break([vals[i] for i in order])
        return frozenset() if k is None else frozenset(order[k:])

    def starving_directions(self, window: int) -> set[str]:
        """Names absent from the last ``window`` direction-carrying steps.

        Steps count as in ``direction_counts``: a monomial run with its
        multiplicity, a rescale recorded with a ``direction`` once, so
        the window may end inside a run.  A zero window is vacuous and
        reports nothing as starving.
        """
        if window < 0:
            raise ValueError("window must be >= 0")
        if window == 0:
            return set()
        seen: set[int] = set()
        remaining = window
        for rec in reversed(self._hist[: self._n]):
            if rec.carries_direction:
                seen.add(rec.direction)
                remaining -= rec.count
                if remaining <= 0:
                    break
        return {self.names[i] for i in range(self.dim) if i not in seen}

    def first_use_order_report(self) -> dict:
        """Order the directions by first monomial use and test the initial frame.

        Checks, in that ordering a_1, ..., a_d of the *initial* values:
        strict ascent; an integer s >= 1 with s*a_1 < a_2 < (s+1)*a_1;
        and (j-2)*a_j < a_1 + ... + a_(j-1) for every j >= 3.
        """
        order: list[int] = []
        for rec in self._hist[: self._n]:
            if rec.kind == "monomial" and rec.direction not in order:
                order.append(rec.direction)
        if len(order) < self.dim:
            missing = [self.names[i] for i in range(self.dim) if i not in order]
            raise IncompleteCoverage(f"directions never used: {missing}")
        a = [self._frame0[i] for i in order]
        ascending = all(a[j].cmp(a[j + 1]) < 0 for j in range(self.dim - 1))
        gap_integer = None
        if self.dim >= 2 and ascending:
            s = 1
            while a[1].cmp(a[0].scale(2 * s)) > 0:
                s *= 2
            lo, hi = s // 2, 2 * s  # a2 < 2s*a1 now; floor lies in [lo, hi)
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if a[1].cmp(a[0].scale(mid)) > 0:
                    lo = mid
                else:
                    hi = mid
            s = max(lo, 1)
            if a[0].scale(s).cmp(a[1]) < 0 and a[1].cmp(a[0].scale(s + 1)) < 0:
                gap_integer = s
        dominance = prefix_dominance(a)
        return {
            "order": tuple(self.names[i] for i in order),
            "ascending": ascending,
            "gap_integer": gap_integer,
            "prefix_dominance": dominance,
            "all_hold": ascending and gap_integer is not None and dominance,
        }


def argmin_word(frame: ParameterFrame | Sequence[ValueVector]) -> Iterator[int]:
    """The argmin word of ``frame``: one letter per ``step_argmin``, without end.

    Lazy, so a tied minimum raises AmbiguousDirection when the letter of
    that step is requested, and callers bound the word with ``islice``.
    """
    state = SequenceState.from_frame(frame)
    while True:
        state, w = state.step_argmin()
        yield w


def prefix_dominance(a: Sequence[ValueVector]) -> bool:
    """(j-2)*a_j < a_1 + ... + a_(j-1) for every j >= 3, in the given order."""
    return _dominance_break(a) is None


def _dominance_break(a: Sequence[ValueVector]) -> int | None:
    """The first 0-based k >= 2 with (k-1)*a[k] >= a[0] + ... + a[k-1]
    (prefix dominance failing at j = k + 1), or None."""
    prefix = None
    for k in range(2, len(a)):
        prefix = a[0] + a[1] if prefix is None else prefix + a[k - 1]
        if a[k].scale(k - 1).cmp(prefix) >= 0:
            return k
    return None

