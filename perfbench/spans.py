"""In-memory span recording around calls into sandwichlab's public functions.

A Recorder wraps a function so that every call appends one span (name,
start, end, parent) to flat arrays; nothing is written until the run ends.
`install` puts the wrapper at every name in every loaded sandwichlab module
that is bound to the original function, because callers look functions up by
the name they imported (`sandwichlab.coupling.spanning_profile`,
`sandwichlab.cli.run_coupled_upper`, ...).  `Patch.restore` puts the
originals back, and `assert_untraced` proves that no wrapper is left.

Self time is a span's duration minus the part of its interval that its
child spans cover, so the layers split a run's traced time without double
counting.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

_MARK = "__perfbench_span__"


class Recorder:
    """Spans of one traced run, kept in parallel arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span named `name`.

        Counting hooks run outside the span: before() at call entry, and
        after(state, result) on return, with state what before() returned.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            state = before() if before is not None else None
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(state, result)
            return result

        setattr(traced, _MARK, fn)
        return traced

    def dump(self, path) -> None:
        """Write every span as JSON: name table plus four parallel lists."""
        with open(path, "w") as handle:
            json.dump({"names": self.names, "name_id": self.name_id.tolist(),
                       "start_ns": self.start.tolist(), "end_ns": self.end.tolist(),
                       "parent": self.parent.tolist()}, handle,
                      separators=(",", ":"))


def self_times(start, end, parent) -> list:
    """Per-span self time: duration minus the union of child intervals,
    each clipped to the parent's interval."""
    children = {}
    for idx, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(idx)
    out = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0
        reach = lo
        for c in sorted(children.get(idx, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], reach), min(end[c], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append(hi - lo - covered)
    return out


def summarize(recorder: Recorder) -> dict:
    """name -> {"calls", "self_ns", "durations_ns"} over all recorded spans."""
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    out = {name: {"calls": 0, "self_ns": 0, "durations_ns": []}
           for name in recorder.names}
    for idx, nid in enumerate(recorder.name_id):
        entry = out[recorder.names[nid]]
        entry["calls"] += 1
        entry["self_ns"] += selfs[idx]
        entry["durations_ns"].append(recorder.end[idx] - recorder.start[idx])
    return out


def package_modules() -> list:
    """sandwichlab and every loaded sandwichlab.* module."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sandwichlab" or name.startswith("sandwichlab."))]


class Patch:
    """The bindings an install replaced, so they can be put back."""

    def __init__(self, replaced):
        self.replaced = replaced

    def restore(self) -> None:
        for module, attr, original in self.replaced:
            setattr(module, attr, original)
        for module, attr, original in self.replaced:
            if getattr(module, attr) is not original:
                raise AssertionError(f"{module.__name__}.{attr} was not restored")


def install(recorder: Recorder, targets, modules) -> Patch:
    """Wrap each (module, attr, span name, before, after) target at every
    name that binds the original function in `modules`."""
    replaced = []
    for module, attr, name, before, after in targets:
        original = getattr(module, attr)
        if hasattr(original, _MARK):
            raise AssertionError(f"{module.__name__}.{attr} is already traced")
        wrapper = recorder.wrap(name, original, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    replaced.append((mod, key, original))
    return Patch(replaced)


def assert_untraced(modules) -> None:
    """Raise if any module attribute is still a span wrapper."""
    for mod in modules:
        for key, value in vars(mod).items():
            if isinstance(value, types.FunctionType) and hasattr(value, _MARK):
                raise AssertionError(f"span wrapper left at {mod.__name__}.{key}")
