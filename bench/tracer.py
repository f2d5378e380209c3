"""Outside-in layer trace for the qromlab benchmark.

The tracer wraps public functions of the ``qromlab`` modules, and the
``LinearMap`` objects that the operator builders return, so that every call
opens a span.  It touches nothing inside the package: wrappers are installed
by rebinding module globals (every module that imported a function by name
gets its own binding replaced) and are removed again when the traced pass
ends.

Each span records name, start, end and parent, and all spans of one pass
share a run id.  A few leaf functions run hundreds of thousands of times per
pass (``derive_seed``, oracle queries, keygen, verify); those are summed per
(name, parent span) instead of being stored one by one, which keeps memory
bounded.  Self time is a span's duration minus the time of its children; the
stack is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

perf_counter = time.perf_counter


class _Frame:
    __slots__ = ("record_id", "child_s")

    def __init__(self, record_id):
        self.record_id = record_id
        self.child_s = 0.0


class Stat:
    """Per-key totals: calls, outer inclusive time (nested calls of the same
    key counted once) and self time."""

    __slots__ = ("calls", "outer_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.outer_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, run_id: str, hot: Iterable[str] = ()):
        self.run_id = run_id
        self.hot = frozenset(hot)
        self.records: list[tuple[int, int, str, float, float]] = []
        self.hot_totals: dict[tuple[str, int], list] = {}
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 1

    def call(self, keys: tuple[str, ...], fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span.  ``keys[0]`` is the span name; further
        keys are groups that also collect the span's times."""
        name = keys[0]
        stack = self._stack
        parent = stack[-1] if stack else None
        if name in self.hot:
            record_id = parent.record_id if parent else 0
        else:
            record_id = self._next_id
            self._next_id += 1
        frame = _Frame(record_id)
        stack.append(frame)
        for key in keys:
            self._open[key] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            own = dur - frame.child_s
            self.self_by_name[name] += own
            for key in keys:
                depth = self._open[key] - 1
                self._open[key] = depth
                st = self.stats[key]
                st.calls += 1
                st.self_s += own
                if depth == 0:
                    st.outer_s += dur
            if parent is not None:
                parent.child_s += dur
            parent_id = parent.record_id if parent else 0
            if name in self.hot:
                agg = self.hot_totals.get((name, parent_id))
                if agg is None:
                    self.hot_totals[(name, parent_id)] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur
            else:
                self.records.append((record_id, parent_id, name, start, end))

    def span_count(self) -> int:
        return len(self.records) + sum(c for c, _ in self.hot_totals.values())

    def write_jsonl(self, path, header: dict) -> None:
        """Write the header, then one line per recorded span and one per
        summed hot (name, parent) pair.  Times are seconds from the first span."""
        t0 = min((r[3] for r in self.records), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, run=self.run_id, kind="header")) + "\n")
            for span_id, parent_id, name, start, end in self.records:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent_id, "name": name,
                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                }) + "\n")
            for (name, parent_id), (count, total) in sorted(self.hot_totals.items()):
                fh.write(json.dumps({
                    "run": self.run_id, "kind": "summed", "name": name, "parent": parent_id,
                    "count": count, "total_s": round(total, 9),
                }) + "\n")


class Patcher:
    """Rebinds functions in every loaded ``qromlab`` module and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "qromlab" or name.startswith("qromlab."))]

    def function(self, owner, attr: str, keys: tuple[str, ...], after=None) -> None:
        """Wrap ``owner.attr`` and every other module global bound to the same
        function object.  ``after(result, args)`` runs on each return."""
        original = getattr(owner, attr)
        tracer = self.tracer

        if after is None:
            def wrapper(*args, **kwargs):
                return tracer.call(keys, original, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = tracer.call(keys, original, *args, **kwargs)
                after(result, args)
                return result

        self.set(owner, attr, wrapper)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original and not (mod is owner and name == attr):
                    self.set(mod, name, wrapper)

    def set(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def wrap_map(tracer: Tracer, m, keys: tuple[str, ...], terms: int = 0):
    """Count and time every apply of a ``LinearMap`` in place.  Each apply
    adds dim x 16 B to ``qsim.bytes_computed``; ``terms`` adds to the map
    kind's term-apply counter.  A map is wrapped once."""
    if getattr(m, "_bench_traced", False):
        return m
    counters = tracer.counters
    nbytes = m.dim * 16
    terms_key = keys[0].rsplit(".", 1)[0] + ".terms"

    def traced(fn):
        def run(v):
            counters["qsim.bytes_computed"] += nbytes
            if terms:
                counters[terms_key] += terms
            return tracer.call(keys, fn, v)
        return run

    apply, adjoint = m._apply, m._adjoint_apply
    m._apply = traced(apply)
    if adjoint is apply:
        m._adjoint_apply = m._apply
    elif adjoint is not None:
        m._adjoint_apply = traced(adjoint)
    m._bench_traced = True
    return m
