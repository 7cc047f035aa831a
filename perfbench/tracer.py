"""Span recorder for the traced run.

Every public function the benchmark measures is wrapped where it is
looked up: a module attribute in any loaded ``quadseq`` module that is
the target function object gets the wrapper, and so does every class
attribute that is the target (which covers aliases such as
``ValueVector.__mul__ = scale``).  ``uninstall`` puts every original back.

Spans live in flat arrays -- name id, parent index, start, end -- and
are written out once, by ``dump``, after the traced pass.  A call into a
group whose innermost open span already belongs to the same group opens
no new span, so aliases and self-recursion count once.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

_clock = time.perf_counter

# (group, module, qualified attribute) -- the layer boundaries that are timed
TARGETS = (
    ("values.cmp", "quadseq.values", "ValueVector.cmp"),
    ("values.cmp", "quadseq.values", "ValueVector.sign"),
    ("values.cmp", "quadseq.values", "value_cmp"),
    ("values.arith", "quadseq.values", "ValueVector.__add__"),
    ("values.arith", "quadseq.values", "ValueVector.__sub__"),
    ("values.arith", "quadseq.values", "ValueVector.scale"),
    ("values.interval", "quadseq.values", "ValueVector.evaluate_interval"),
    ("sequence.step_argmin", "quadseq.sequence", "SequenceState.step_argmin"),
    ("sequence.invariants", "quadseq.sequence", "SequenceState.conservation_check"),
    ("sequence.invariants", "quadseq.sequence", "SequenceState.bound_gap_sign"),
    ("sequence.scripted", "quadseq.sequence", "SequenceState.step_in_direction"),
    ("sequence.scripted", "quadseq.sequence", "SequenceState.run_in_direction"),
    ("sequence.rescale", "quadseq.sequence", "SequenceState.rescale"),
    ("sequence.history", "quadseq.sequence", "SequenceState.history"),
    ("gallery.build", "quadseq.gallery", "build_preset"),
    ("gallery.replay", "quadseq.gallery", "replay_states"),
    ("checks.run_checks", "quadseq.checks", "run_checks"),
    ("checks.collect_artifacts", "quadseq.checks", "collect_artifacts"),
    ("cli.main", "quadseq.cli", "main"),
    ("cli.build_trace", "quadseq.cli", "build_trace"),
    ("cli.build_report", "quadseq.cli", "build_report"),
    ("cli.write_csv", "quadseq.cli", "write_csv"),
    ("videals.videal_chain", "quadseq.videals", "videal_chain"),
    ("videals.value_ladder", "quadseq.videals", "value_ladder"),
    ("videals.enumerate_values", "quadseq.videals", "enumerate_values"),
    ("videals.videal_at", "quadseq.videals", "videal_at"),
    ("videals.tau_bound", "quadseq.videals", "tau_bound"),
    ("forms.order_drop_report", "quadseq.forms", "order_drop_report"),
    ("forms.ratio_limit_report", "quadseq.forms", "ratio_limit_report"),
    ("monomials.extend_ideal", "quadseq.monomials", "extend_ideal"),
    ("monomials.monomial_value", "quadseq.monomials", "monomial_value"),
)

GROUPS = tuple(dict.fromkeys(g for g, _, _ in TARGETS))


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.on = False
        self.bits_max = 0
        self._undo: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, group: str, fn, by_dim: bool = False):
        """Time ``fn`` as a span of ``group``.  The clock is read first, so
        the wrapper's own bookkeeping lands inside the span it opens.  With
        ``by_dim`` the span name also carries the first argument's ``dim``."""
        nid0 = self.intern(group)
        nids = {d: self.intern(f"{group}@d{d}") for d in range(1, 7)} if by_dim else None
        rec = self
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = _clock()
            nid = nids[args[0].dim] if by_dim else nid0
            if not rec.on or (stack and name_of[stack[-1]] == nid):
                return fn(*args, **kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(t)
            end.append(0.0)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[i] = _clock()

        return wrapper

    def _wrap_interval(self, fn):
        inner = self._wrap("values.interval", fn)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lo, hi = inner(*args, **kwargs)
            if rec.on:
                bits = max(lo.denominator.bit_length(), hi.denominator.bit_length())
                if bits > rec.bits_max:
                    rec.bits_max = bits
            return lo, hi

        return wrapper

    def _wrap_generator(self, group: str, fn):
        # one span per resumption of the generator
        step = self._wrap(group, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "quadseq" or name.startswith("quadseq."))]
        for group, modname, qual in TARGETS:
            home = sys.modules[modname]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                target = cls.__dict__[attr]
                if isinstance(target, property):
                    self._set(cls, attr, property(self._wrap(group, target.fget)))
                    continue
                if attr == "evaluate_interval":
                    wrapped = self._wrap_interval(target)
                else:
                    wrapped = self._wrap(group, target, by_dim=attr == "step_argmin")
                for name, value in list(cls.__dict__.items()):
                    if value is target:
                        self._set(cls, name, wrapped)
                continue
            target = getattr(home, qual)
            if inspect.isgeneratorfunction(target):
                wrapped = self._wrap_generator(group, target)
            else:
                wrapped = self._wrap(group, target)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._set(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds and inclusive seconds; plus the
        inclusive seconds of all top-level spans together."""
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        self_s = array("d", dur)
        top = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= dur[i]
            else:
                top += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["self_s"] += self_s[i]
            row["incl_s"] += dur[i]
        return {"spans": out, "top_level_s": top, "span_count": n}

    def dump(self, stem: str) -> None:
        """Write the spans once: ``stem.json`` (names, layout) and ``stem.bin``."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({
                "names": self.names,
                "count": len(self.start),
                "layout": ["name_of:int32", "parent:int32",
                           "start:float64", "end:float64"],
            }, fh)
