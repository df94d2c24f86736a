"""In-memory span tracer that wraps layer entry points from outside the program.

A wrapped entry point is replaced, under the name its calling module binds it
to, by a function that opens a span, calls the original, and closes the span.
Spans are kept in flat arrays (name id, parent span, start, end) until the run
ends and are then written out in one go.  Self time of a span is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

_perf = time.perf_counter
# Calls per trial of ``per_call_overhead``.
OVERHEAD_CALLS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.calls: list[int] = []
        self.child_calls: list[int] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.calls.append(0)
            self.child_calls.append(0)
        return nid

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` wrapped in a span; ``on_result(result, args, seconds)`` runs
        after the span closes."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child = self._stack, self._child
        total, self_time, calls = self.total, self.self_time, self.calls
        child_calls = self.child_calls

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = _perf()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                ends[idx] = end
                stack.pop()
                inner = child.pop()
                seconds = end - start
                total[nid] += seconds
                self_time[nid] += seconds - inner
                calls[nid] += 1
                if child:
                    child[-1] += seconds
                    child_calls[names[stack[-1]]] += 1
            if on_result is not None:
                on_result(result, args, seconds)
            return result

        return traced

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by its traced form until ``restore``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_result))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total[nid]

    def self_seconds(self, name: str, overhead_per_call: float = 0.0) -> float:
        """Self time of ``name``, less ``overhead_per_call`` for each direct
        child span: a wrapper's own cost falls outside its span, so it lands
        in the parent's self time."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return self.self_time[nid] - overhead_per_call * self.child_calls[nid]

    def num_child_calls(self, name: str) -> int:
        """Spans opened directly inside a span of ``name``."""
        nid = self._ids.get(name)
        return 0 if nid is None else self.child_calls[nid]

    def num_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, stem: Path) -> None:
        """Write the spans to ``<stem>.spans`` (four arrays back to back: name
        ids as uint16, parent span indices as int32, starts and ends as
        float64 seconds) and a JSON index to ``<stem>.json``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as handle:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)
        index = {
            "spans": len(self.span_name),
            "columns": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "names": self.names,
            "total_s": dict(zip(self.names, self.total)),
            "self_s": dict(zip(self.names, self.self_time)),
            "calls": dict(zip(self.names, self.calls)),
        }
        stem.with_suffix(".json").write_text(json.dumps(index, indent=1, sort_keys=True))


def _noop(*args):
    return None


def _noop_hook(result, args, seconds):
    return None


def per_call_overhead() -> float:
    """Seconds a traced call (nested in another span, with a result hook)
    costs over a plain call, measured on a function that does nothing; the
    least of three trials."""

    def bare_loop():
        for _ in range(OVERHEAD_CALLS):
            _noop(1, 2)

    best = None
    for _ in range(3):
        probe = Tracer()
        inner = probe.wrap(_noop, "probe", _noop_hook)

        def traced_loop():
            for _ in range(OVERHEAD_CALLS):
                inner(1, 2)

        outer = probe.wrap(traced_loop, "outer")
        start = _perf()
        bare_loop()
        bare = _perf() - start
        start = _perf()
        outer()
        cost = (_perf() - start - bare) / OVERHEAD_CALLS
        best = cost if best is None else min(best, cost)
    return max(best, 0.0)
