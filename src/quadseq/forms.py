"""Monomial forms under the transforms: order traces, drops, and ratios.

A form is described by its monomial support.  One transform step in
direction ``w`` maps a support monomial by sending its ``w`` exponent to
``total_degree - order(form)``; the support stays the same size, so the
trace of orders along a direction word is well defined.  The headline
facts checked here: along a word that uses every direction the order of
every nonunit form drops strictly, while a word that misses some
direction leaves the corresponding variable's order pinned at 1 forever;
and for two fixed monomials the ratio of their orders along an argmin
word converges to the ratio of their frame values.

The order-drop sweep steps every antichain of bounded degree at once in
Python integers: one integer per member slot and variable packs that
exponent of every antichain wide enough to have the member, one lane per
antichain, and only the degree sums and the stepped exponent column are
updated per letter.  A member's exponents never exceed its unstripped
image along the word, so lanes sized from the largest image of a
variable hold every degree and a guard bit: the sweep is exact for
every word length.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    CensusTooLarge,
    EmptyGeneratorSet,
    NotTerminated,
    RatioUndefined,
)
from .monomials import (
    Monomial,
    divides,
    least_value,
    rewrite_along,
    strip_rewrite,
    total_degree,
    _validate_monomial,
)
from .sequence import ParameterFrame, argmin_word
from .values import ValueVector


class MonomialForm:
    """A form identified by its monomial support (deduplicated, sorted)."""

    __slots__ = ("dim", "support")

    def __init__(self, support: Iterable[Monomial], dim: int | None = None):
        monos = sorted(set(tuple(m) for m in support))
        if not monos:
            raise EmptyGeneratorSet("a form needs a nonempty support")
        d = dim if dim is not None else len(monos[0])
        self.support = tuple(_validate_monomial(m, d) for m in monos)
        self.dim = d

    def order(self) -> int:
        return min(total_degree(m) for m in self.support)

    @property
    def is_unit(self) -> bool:
        return self.order() == 0

    def __eq__(self, other):
        return (
            isinstance(other, MonomialForm)
            and self.dim == other.dim
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.dim, self.support))

    def __repr__(self):
        return f"MonomialForm({list(self.support)})"


def transform_form(form: MonomialForm, direction: int) -> MonomialForm:
    """One step in ``direction``: rewrite the support and strip ord(form)."""
    out = MonomialForm(strip_rewrite(form.support, direction), dim=form.dim)
    if len(out.support) != len(form.support):
        raise AssertionError("transform collapsed distinct support monomials")
    return out


def ord_trace(form: MonomialForm, word: Sequence[int]) -> tuple[int, ...]:
    """Orders of the form before and after each step of the word."""
    trace = [form.order()]
    for w in word:
        form = transform_form(form, w)
        trace.append(form.order())
    return tuple(trace)


def value_of_form(frame_values: Sequence[ValueVector], form: MonomialForm) -> ValueVector:
    """The smallest value attained on the support."""
    return least_value(frame_values, form.support)


# -- exhaustive order-drop sweeps ---------------------------------------------


# the most antichains an order-drop sweep enumerates: far above every
# sweep in use (2,496 at d = 3 and degree 3), far below d = 4 at degree 3
ANTICHAIN_CAP = 100_000


@lru_cache(maxsize=None)
def _nonunit_monomials(dim: int, max_degree: int) -> tuple[Monomial, ...]:
    return tuple(
        e
        for e in itertools.product(range(max_degree + 1), repeat=dim)
        if 1 <= sum(e) <= max_degree
    )


@lru_cache(maxsize=None)
def enumerate_antichains(dim: int, max_degree: int) -> tuple[tuple[Monomial, ...], ...]:
    """Every nonempty set of pairwise divisibility-incomparable monomials.

    Any form's order trace equals the trace of the antichain of its
    divisibility-minimal support monomials, so sweeping antichains covers
    all forms of bounded support degree.

    The count explodes with the dimension and the degree (2,496 at d = 3
    and degree 3, 2,154,533 at d = 4 and degree 3, whose sweep table
    would take 1.3 GiB), so the enumeration counts as it goes and raises
    CensusTooLarge once it passes ``ANTICHAIN_CAP``, before any table is
    built.
    """
    monos = _nonunit_monomials(dim, max_degree)
    n = len(monos)
    # bit j of clash[i]: monos[i] and monos[j] are distinct and comparable
    clash = [
        sum(1 << j for j, b in enumerate(monos)
            if i != j and (divides(a, b) or divides(b, a)))
        for i, a in enumerate(monos)
    ]
    out: list[tuple[Monomial, ...]] = []

    def rec(start: int, chosen: list[Monomial], blocked: int):
        for i in range(start, n):
            if not blocked >> i & 1:
                chosen.append(monos[i])
                out.append(tuple(chosen))
                if len(out) > ANTICHAIN_CAP:
                    raise CensusTooLarge(
                        f"more than {ANTICHAIN_CAP} antichains of degree <= "
                        f"{max_degree} in {dim} variables", estimate=len(out))
                rec(i + 1, chosen, blocked | clash[i])
                chosen.pop()

    rec(0, [], 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _antichain_lanes(dim: int, max_degree: int, lane_bytes: int):
    """Every antichain, widest first, packed one per lane of ``lane_bytes``
    bytes (lane 0 lowest): ``columns[i][k]`` packs exponent i of member k
    of the first ``counts[k]`` antichains, those that have a member k, and
    ``guards[k]`` sets the top bit of each of those lanes."""
    def pack(lanes):
        return int.from_bytes(b"".join(e.to_bytes(lane_bytes, "little") for e in lanes),
                              "little")

    chains = sorted(enumerate_antichains(dim, max_degree), key=len, reverse=True)
    counts = [sum(len(c) > k for c in chains) for k in range(len(chains[0]))]
    columns = tuple(tuple(pack(c[k][i] for c in chains[:n]) for k, n in enumerate(counts))
                    for i in range(dim))
    return columns, tuple(pack([1 << 8 * lane_bytes - 1] * n) for n in counts)


def _lanewise_min(slots: list[int], guards: Sequence[int], shift: int) -> int:
    """The lanewise minimum of ``slots``: a lane of ``(low | g) - v`` keeps its
    guard bit ``shift`` where low >= v, and ``over - (over >> shift)`` widens it."""
    low = slots[0]
    for v, g in zip(slots[1:], guards[1:]):
        over = ((low | g) - v) & g
        low ^= (low ^ v) & (over - (over >> shift))
    return low


def order_drop_report(dim: int, word: Sequence[int], max_degree: int = 3) -> dict:
    """Check the strict order drop for every antichain form at once.

    A word touching every direction must strictly lower the order of each
    nonunit form (the report carries the worst final order and verifies
    that per-step orders never increase).  A word missing some direction
    admits a witness whose order never moves: that variable itself.

    On a covering word every antichain of degree at most ``max_degree``
    steps at once, one lane each of ``_antichain_lanes``.  A letter ``w``
    sets each exponent m_w to |m| - r, r the order, so the new degree is
    2|m| - m_w - r: only the degrees and column ``w`` change.  Without the
    strip m_w would become |m|; the strip only lowers exponents, so every
    member stays below its unstripped image, at most ``max_degree`` times
    the largest image of a variable, ``|rewrite_word(x_j, word)|``, which
    ``rewrite_along`` yields after the last letter.  Each lane holds that and a
    guard bit, so packed arithmetic whose lanes end in range is exact for
    every word length; the monotone and strict-drop tests read the guard
    bits of one subtraction each.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    word = [int(w) for w in word]
    for w in word:
        if not 0 <= w < dim:
            raise ValueError(f"direction {w} outside 0..{dim - 1}")
    missing = sorted(set(range(dim)) - set(word))
    if missing:
        witness = MonomialForm(
            [tuple(1 if i == missing[0] else 0 for i in range(dim))]
        )
        trace = ord_trace(witness, word)
        return {
            "full_coverage": False,
            "missing": tuple(missing),
            "witness": witness,
            "witness_trace": trace,
            "witness_constant": len(set(trace)) == 1,
        }
    # the fewest bytes, a power of two, above the degree bound and a guard bit
    *_, images = rewrite_along(_nonunit_monomials(dim, 1), word)
    lane_bytes = 1 << ((max_degree * max(map(sum, images))).bit_length() // 8).bit_length()
    shift = 8 * lane_bytes - 1
    table, guards = _antichain_lanes(dim, max_degree, lane_bytes)
    columns = [list(c) for c in table]
    masks = [(1 << g.bit_length()) - 1 for g in guards]
    deg = [sum(c[k] for c in columns) for k in range(len(guards))]
    full = guards[0]
    initial = order = _lanewise_min(deg, guards, shift)
    monotone = True
    for w in word:
        column = columns[w]
        for k, mask in enumerate(masks):
            new = deg[k] - (order & mask)
            deg[k] += new - column[k]
            column[k] = new
        prev, order = order, _lanewise_min(deg, guards, shift)
        monotone = monotone and ((prev | full) - order) & full == full
    lanes = order.to_bytes(full.bit_length() // 8, sys.byteorder)
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(lane_bytes)  # native unsigned widths
    return {
        "full_coverage": True,
        "forms_checked": len(lanes) // lane_bytes,
        "all_drop": not ((order | full) - initial) & full,
        "orders_monotone": monotone,
        "max_final_order": max(memoryview(lanes).cast(fmt)) if fmt else max(
            int.from_bytes(lanes[i:i + lane_bytes], sys.byteorder)
            for i in range(0, len(lanes), lane_bytes)),
    }


def order_drop_verdict(report: dict) -> bool:
    """The ``thm33a`` rule on an ``order_drop_report``: a covering word drops
    every form and raises no order, any other word keeps its witness."""
    if report["full_coverage"]:
        return report["all_drop"] and report["orders_monotone"]
    return report["witness_constant"]


# -- order ratios along an argmin word ----------------------------------------


def _rational_ratio(f_val: ValueVector, g_val: ValueVector) -> Fraction | None:
    """q with f == q * g if such a rational exists, else None."""
    fc, gc = f_val.coeffs, g_val.coeffs
    q = None
    for a, b in zip(fc, gc):
        if b == 0:
            if a != 0:
                return None
            continue
        r = a / b
        if q is None:
            q = r
        elif q != r:
            return None
    return q


def ratio_limit_report(
    frame: ParameterFrame,
    f: MonomialForm,
    g: MonomialForm,
    steps: int,
) -> dict:
    """Orders of f and g along the argmin word, with the exact limit.

    After n steps the order of a form is the least total degree of its
    rewritten support.  The ratio ordF/ordG converges to
    value(f)/value(g); the limit field is exact when that ratio is
    rational and an enclosing interval (plus both exact values) otherwise.
    """
    if f.dim != frame.dim or g.dim != frame.dim:
        raise ValueError("form dimension does not match the frame")
    if g.is_unit:
        raise RatioUndefined("denominator form is a unit: its order is 0")
    nf = len(f.support)
    supports = rewrite_along(f.support + g.support, argmin_word(frame))
    trace = []
    for n, images in enumerate(itertools.islice(supports, steps), 1):
        ord_f = min(map(sum, images[:nf]))
        ord_g = min(map(sum, images[nf:]))
        if ord_g == 0:
            raise RatioUndefined(f"order of denominator form hit 0 at step {n}")
        trace.append({"n": n, "ordF": ord_f, "ordG": ord_g})
    f_val = value_of_form(frame.values, f)
    g_val = value_of_form(frame.values, g)
    q = _rational_ratio(f_val, g_val)
    if q is not None:
        limit = {"kind": "rational", "num": q.numerator, "den": q.denominator}
    else:
        width = Fraction(1, 10**12)
        while True:
            flo, fhi = f_val.evaluate_interval(width)
            glo, ghi = g_val.evaluate_interval(width)
            if flo > 0 and glo > 0:
                break
            width /= 2**10
        limit = {
            "kind": "irrational",
            "value_f": f_val.serialize(),
            "value_g": g_val.serialize(),
            "interval": {"lo": str(flo / ghi), "hi": str(fhi / glo)},
        }
    return {"trace": trace, "limit": limit}


def power_bracketing_report(
    frame: ParameterFrame,
    f: MonomialForm,
    g: MonomialForm,
    p: int,
    q: int,
    steps: int,
) -> list[dict]:
    """The two power quotients of the limit argument along the argmin word.

    Singleton supports only: after n steps, ``lower_divides`` says f^q/g^p
    lies in the ring (q * rewritten(f) >= p * rewritten(g) componentwise)
    and ``divides_upper`` that g^(p+1)/f^q does; where both hold,
    p * ordG <= q * ordF <= (p + 1) * ordG.
    """
    if len(f.support) != 1 or len(g.support) != 1:
        raise ValueError("power bracketing needs singleton supports")
    images = rewrite_along((f.support[0], g.support[0]), argmin_word(frame))
    out = []
    for n, (mf, mg) in enumerate(itertools.islice(images, steps), 1):
        lower = all(q * a >= p * b for a, b in zip(mf, mg))
        upper = all((p + 1) * b >= q * a for a, b in zip(mf, mg))
        out.append(
            {
                "n": n,
                "ordF": sum(mf),
                "ordG": sum(mg),
                "lower_divides": lower,
                "divides_upper": upper,
            }
        )
    return out


def comparability_index(
    frame: ParameterFrame,
    p_mono: Monomial,
    q_mono: Monomial,
    max_steps: int = 10_000,
) -> tuple[int, str]:
    """First argmin step making the pair ideal (p, q) principal, and the side.

    Returns ``(t, "q/p")`` when the image of p divides the image of q at
    step t (so q/p lies in the transformed ring), ``(t, "p/q")`` for the
    other side.  Raises NotTerminated past ``max_steps``.
    """
    p_img = _validate_monomial(p_mono, frame.dim)
    q_img = _validate_monomial(q_mono, frame.dim)
    if p_img == q_img:
        raise ValueError("the two monomials must differ")
    # no strip: it moves both images by the same amount, so q - p and
    # with it every divisibility answer are the same with or without it
    pairs = rewrite_along((p_img, q_img), argmin_word(frame))
    # steps 0..max_steps, so no argmin step past the last allowed one is taken
    walk = itertools.islice(itertools.chain([(p_img, q_img)], pairs),
                            max(max_steps + 1, 0))
    for t, (p_img, q_img) in enumerate(walk):
        if divides(p_img, q_img):
            return t, "q/p"
        if divides(q_img, p_img):
            return t, "p/q"
    raise NotTerminated(
        f"pair ideal still not principal after {max_steps} steps", steps=max_steps
    )
