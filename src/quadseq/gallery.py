"""Worked scenarios: episode-built sequences with known series behavior.

Each generator returns a Scenario holding a frame, a step plan (or an
argmin budget), and whatever closed forms are known for it: exact
partial sums at episode boundaries, a limit, or divergence.  Plans that
script directions are only valid because each scripted step's direction
really is minimal at that point; replaying through SequenceState
enforces this, so a bad plan fails loudly rather than producing a quiet
wrong trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import ConfigError
from .sequence import ParameterFrame, SequenceState, prefix_dominance
from .values import RealBasis, ValueVector


def _to_int(spec, where: str) -> int:
    """A JSON integer or decimal string; bools and floats are refused, not truncated."""
    try:
        if isinstance(spec, (int, str)) and not isinstance(spec, bool):
            return int(spec)
    except ValueError:
        pass
    raise ConfigError(f"{where}: not an integer: {spec!r}")


def _to_rational(spec, where: str) -> Fraction:
    if isinstance(spec, bool) or isinstance(spec, float):
        raise ConfigError(f"{where}: write rationals as strings like \"3/4\"")
    try:
        return Fraction(str(spec))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: not a rational: {spec!r}") from exc


def _to_bool(spec, where: str) -> bool:
    if isinstance(spec, bool):
        return spec
    raise ConfigError(f"{where}: not a boolean: {spec!r}")


@dataclass(frozen=True)
class PlanStep:
    """One plan instruction: a monomial step (possibly bulk) or a rescale."""

    kind: str  # "monomial" | "rescale"
    direction: int | None = None
    count: int = 1
    new_values: tuple[ValueVector, ...] | None = None


@dataclass
class Scenario:
    """A frame with its step plan (or argmin budget) and known closed forms."""

    name: str
    frame: ParameterFrame
    mode: str = "scripted"  # "scripted" | "argmin"
    plan: tuple[PlanStep, ...] = ()
    steps: int = 0  # argmin budget when mode == "argmin"
    boundaries: tuple[int, ...] = ()  # record counts at episode ends
    sum_after_episodes: Callable[[int], Fraction] | None = None
    expected_limit: Fraction | None = None
    diverges: bool = False
    seed: int | None = None
    notes: str = ""

    @property
    def dim(self) -> int:
        return self.frame.dim


def replay_states(scenario: Scenario) -> Iterator[SequenceState]:
    """Yield the state after each record of the scenario, in order."""
    state = SequenceState.from_frame(scenario.frame)
    if scenario.mode == "argmin":
        for _ in range(scenario.steps):
            state, _ = state.step_argmin()
            yield state
        return
    for ps in scenario.plan:
        if ps.kind == "monomial":
            state = state.run_in_direction(ps.direction, ps.count)
        elif ps.kind == "rescale":
            state = state.rescale(ps.new_values, ps.direction)
        else:  # pragma: no cover
            raise ConfigError(f"unknown plan step kind {ps.kind!r}")
        yield state


def _rat_frame(basis: RealBasis, values: Sequence[Fraction | int],
               names: Sequence[str] | None = None) -> ParameterFrame:
    return ParameterFrame([basis.rational(v) for v in values], names=names)


# -- geometric three-direction episodes ---------------------------------------

def gen_shannon_418(episodes: int = 20) -> Scenario:
    """Three directions, self-similar episodes shrinking by 1/4.

    Episode k runs at scale c = (1/4)^k with frame (c, 3c/2, 7c/4); its
    steps x, y, z take values c, c/2, c/4 and land on the all-equal frame
    (c/4, c/4, c/4), which the closing rescale sends to the next episode.
    Every scripted step is also the unique argmin.  The partial sum after
    k episodes is (8/3)(1 - (1/4)^k).
    """
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    basis = RealBasis.default(1)
    plan: list[PlanStep] = []
    boundaries = []
    for k in range(episodes):
        c = Fraction(1, 4) ** (k + 1)
        plan += [
            PlanStep("monomial", 0),
            PlanStep("monomial", 1),
            PlanStep("monomial", 2),
            PlanStep("rescale", new_values=tuple(
                basis.rational(q) for q in (c, 3 * c / 2, 7 * c / 4))),
        ]
        boundaries.append(len(plan))

    def law(k: int) -> Fraction:
        return Fraction(8, 3) * (1 - Fraction(1, 4) ** k)

    return Scenario(
        name="shannon-4.18",
        frame=_rat_frame(basis, [1, Fraction(3, 2), Fraction(7, 4)]),
        plan=tuple(plan),
        boundaries=tuple(boundaries),
        sum_after_episodes=law,
        expected_limit=Fraction(8, 3),
        notes="geometric episodes; sum -> 8/3",
    )


# -- two directions, value reassigned every other step ------------------------

def gen_notunion_rr1(steps: int = 40, embed3d: bool = False) -> Scenario:
    """Alternating monomial step and value-reassigning rescale.

    Episode k at scale c = (1/2)^k: an x step of value c from (c, 3c/2),
    then a rescale of value c/2 that re-enters the same shape at scale
    c/2 (the reassigned direction is recorded as y).  Step values run
    1, 1/2, 1/2, 1/4, 1/4, ... and sum to 3.  With ``embed3d`` a third
    coordinate starts at 4, loses every step value, and is never the
    direction: after any prefix it has given up less than 3, so it stays
    above 1 while the active pair shrinks below it forever.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    basis = RealBasis.default(1)
    plan: list[PlanStep] = []
    boundaries = []
    z = Fraction(4)
    k = 0
    while len(plan) < steps:
        c = Fraction(1, 2) ** k
        plan.append(PlanStep("monomial", 0))
        z -= c
        if len(plan) < steps:
            nxt = (c / 2, 3 * c / 4)
            z -= c / 2
            new = nxt + (z,) if embed3d else nxt
            plan.append(PlanStep(
                "rescale", direction=1,
                new_values=tuple(basis.rational(q) for q in new),
            ))
            boundaries.append(len(plan))
        k += 1

    def law(k: int) -> Fraction:
        return 3 - 3 * Fraction(1, 2) ** k

    values = [1, Fraction(3, 2)] + ([Fraction(4)] if embed3d else [])
    return Scenario(
        name="rr1",
        frame=_rat_frame(basis, values),
        plan=tuple(plan),
        boundaries=tuple(boundaries),
        sum_after_episodes=law,
        expected_limit=Fraction(3),
        notes="alternating pair; sum -> 3"
        + ("; spectator z never steps" if embed3d else ""),
    )


# -- doubling quotient scenarios (divergent series) ---------------------------

def gen_713(episodes: int = 20) -> Scenario:
    """Two-direction quotient-side plan with doubling bulk runs.

    Episode n: 2^n y steps of value 2^-n (a bulk run), one z step of
    value 2^-(n+1), and a rescale of the same value that resets z to
    (2^(n+2)+1)/2^(n+2) at the halved scale.  The bracketed bulk group
    sums to exactly 1 each episode, so partial sums after k episodes are
    k + 2 - 2^(1-k): divergent.
    """
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    basis = RealBasis.default(1)
    plan: list[PlanStep] = []
    boundaries = []
    for n in range(episodes):
        c = Fraction(1, 2) ** n
        z_next = (2 ** (n + 2) + 1) * Fraction(1, 2) ** (n + 2)
        plan += [
            PlanStep("monomial", 0, count=2 ** n),
            PlanStep("monomial", 1),
            PlanStep("rescale", new_values=(
                basis.rational(c / 2), basis.rational(z_next))),
        ]
        boundaries.append(len(plan))

    def law(k: int) -> Fraction:
        return k + 2 - 2 * Fraction(1, 2) ** k

    return Scenario(
        name="gmr-7.13",
        frame=_rat_frame(basis, [1, Fraction(3, 2)], names=("y", "z")),
        plan=tuple(plan),
        boundaries=tuple(boundaries),
        sum_after_episodes=law,
        diverges=True,
        notes="bulk doubling episodes; divergent series",
    )


def gen_714(episodes: int = 20) -> Scenario:
    """Three-direction quotient-side plan with quadrupling bulk runs.

    A five-step prologue takes values 1, 1, 1/2, 1/4, 1/4 from the frame
    (1, 5/2, 11/4).  Episode n >= 1 runs at scale c = 4^-n from the frame
    (c, 1 + c/2, 1 + 3c/4): a bulk group of 4^n y steps of value c (sum
    exactly 1), a z step of c/2, a w step of c/4, and a rescale of c/4
    into the next scale.  Partial sums grow past every k: divergent.
    """
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    basis = RealBasis.default(1)
    names = ("y", "z", "w")

    def frame_at(c: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        return (c, 1 + c / 2, 1 + 3 * c / 4)

    plan: list[PlanStep] = [
        PlanStep("monomial", 0),
        PlanStep("monomial", 0),
        PlanStep("monomial", 1),
        PlanStep("monomial", 2),
        PlanStep("rescale", new_values=tuple(
            basis.rational(q) for q in frame_at(Fraction(1, 4)))),
    ]
    boundaries = [len(plan)]
    for n in range(1, episodes):
        c = Fraction(1, 4) ** n
        plan += [
            PlanStep("monomial", 0, count=4 ** n),
            PlanStep("monomial", 1),
            PlanStep("monomial", 2),
            PlanStep("rescale", new_values=tuple(
                basis.rational(q) for q in frame_at(c / 4))),
        ]
        boundaries.append(len(plan))

    def law(k: int) -> Fraction:
        # 3 + sum over 1 <= n < k of (1 + 4^-n), in closed form
        return k + 2 + (1 - Fraction(1, 4) ** (k - 1)) / 3

    return Scenario(
        name="gmr-7.14",
        frame=_rat_frame(
            basis, [1, Fraction(5, 2), Fraction(11, 4)], names=names),
        plan=tuple(plan),
        boundaries=tuple(boundaries),
        sum_after_episodes=law,
        diverges=True,
        notes="bulk quadrupling episodes after a prologue; divergent series",
    )


# -- integer values: every step worth at least 1 -------------------------------

def gen_dvr(d: int = 2, steps: int = 1000) -> Scenario:
    """Staggered integer frame (1, 2, ..., d) restored after every step.

    The x step takes value 1 and would tie the frame, so a rescale of
    value 1 puts the original staggered values back.  Every record is
    worth exactly 1 and the running sum after n records is n: no finite
    ceiling applies (the values are rationally dependent).
    """
    if d < 2:
        raise ConfigError("need at least two directions")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    basis = RealBasis.default(1)
    staggered = tuple(basis.rational(i + 1) for i in range(d))
    plan: list[PlanStep] = []
    boundaries = []
    while len(plan) < steps:
        plan.append(PlanStep("monomial", 0))
        if len(plan) < steps:
            plan.append(PlanStep("rescale", new_values=staggered))
            boundaries.append(len(plan))

    def law(k: int) -> Fraction:
        return Fraction(2 * k)

    return Scenario(
        name="dvr",
        frame=ParameterFrame(staggered),
        plan=tuple(plan),
        boundaries=tuple(boundaries),
        sum_after_episodes=law,
        diverges=True,
        notes="integer values; running sum equals the record count",
    )


# -- random frames with square-root values ------------------------------------

_FRACTION_POOL = [Fraction(n, d) for n in range(1, 6) for d in range(1, 5)]


def diagonal_frame(coeffs: Sequence[Fraction]) -> ParameterFrame:
    """The frame over ``RealBasis.default(d)``, d = len(coeffs), whose i-th
    value is coeffs[i] times generator i."""
    d = len(coeffs)
    basis = RealBasis.default(d)
    values = []
    for i, c in enumerate(coeffs):
        nums = [0] * d
        nums[i] = c.numerator
        values.append(ValueVector._raw(basis, tuple(nums), c.denominator))
    return ParameterFrame(values)


def gen_random_independent(d: int = 3, seed: int = 0, steps: int = 200) -> Scenario:
    """Random frame c0, c1*sqrt(p1), ..., over distinct primes: argmin-driven.

    One slot is a plain rational; every other gets its own square-root
    generator, so no rational combination of distinct slots vanishes and
    every argmin is unique.

    Draws are rejected until ``SequenceState.idle_directions`` is empty
    at step 0: sorted as a_1 < ... < a_d, the values satisfy
    (j-2)*a_j < a_1 + ... + a_(j-1) for every j >= 3.  That does not
    rule out frames that lock: for d >= 3 stepping the minimum typically
    creates an idle set later (each of the 75 d >= 3 runs of the
    acceptance fixture has one by step 16), after which the run stays
    inside a proper subset of the directions and its running sum
    converges below the full ceiling.
    """
    if not 2 <= d <= 6:
        raise ConfigError("dimension must be between 2 and 6")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    rng = random.Random(seed)
    while True:
        frame = diagonal_frame([rng.choice(_FRACTION_POOL) for _ in range(d)])
        if prefix_dominance(sorted(frame.values)):
            break
    return Scenario(
        name=f"random-d{d}-s{seed}",
        frame=frame,
        mode="argmin",
        steps=steps,
        seed=seed,
        notes="independent square-root values; pure argmin",
    )


# name: (generator, the parameter ``steps`` sets, a reader per declared option)
PRESETS: dict[str, tuple[Callable[..., Scenario], str, dict]] = {
    "shannon-4.18": (gen_shannon_418, "episodes", {}),
    "rr1": (gen_notunion_rr1, "steps", {"embed3d": _to_bool}),
    "gmr-7.13": (gen_713, "episodes", {}),
    "gmr-7.14": (gen_714, "episodes", {}),
    "dvr": (gen_dvr, "steps", {"d": _to_int}),
    "random": (gen_random_independent, "steps", {"d": _to_int, "seed": _to_int}),
}


def build_preset(name: str, /, steps: int | None = None,
                 seed: int | None = None, **options) -> Scenario:
    """Instantiate a preset: ``steps`` sets its count parameter, ``seed``
    its seed (ignored by a preset without one), ``options`` its declared
    options; an undeclared or mistyped option raises ConfigError.  What is
    left unset takes the generator's default."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    generator, count, declared = PRESETS[name]
    unknown = sorted(set(options) - set(declared))
    if unknown:
        raise ConfigError(f"preset_options: unknown keys {unknown} for preset {name!r}")
    kwargs = {key: declared[key](value, f"preset_options.{key}")
              for key, value in options.items()}
    # an explicit 0 reaches the generator's own ">= 1" check
    if steps is not None:
        kwargs[count] = _to_int(steps, "steps")
    if seed is not None and "seed" in declared:
        kwargs["seed"] = _to_int(seed, "seed")
    return generator(**kwargs)


def list_presets() -> list[str]:
    return sorted(PRESETS)
