"""Spans around the names knotvol's modules look up at call time.

A Tracer replaces module attributes (and methods of CycElement) with thin
wrappers that record a span (name, start, end, parent) in memory.  The
package resolves those names through its module globals at call time, so
a wrapper on `knotvol.saddle.li2` sees every call `saddle` makes into
`qdilog`.  Nothing inside knotvol is edited; `restore` puts every original
back and checks that it did.
"""

from __future__ import annotations

import json
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        # one list [name, start, end, parent index or -1, facts] per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None, count_warnings=False):
        """Trace owner.attr as span `name`.

        observe(args, kwargs, result) runs after the call and returns a dict
        of facts kept with the span.  With count_warnings, RuntimeWarnings
        raised inside the call are caught, not printed, and counted as the
        fact "runtime_warnings".
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            facts = observe(args, kwargs, result) if observe is not None else {}
            if count_warnings:
                facts["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            span[4] = facts or None
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        leftover = [attr for owner, attr, original in self._patches if getattr(owner, attr) is not original]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"tracer left wrappers on {leftover}")

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Calls, inclusive seconds and self seconds per span name, over
        spans[lo:hi] (a whole number of root spans).

        Self time is a span's duration minus the union of its children's
        intervals.  "roots_s" is the summed duration of the root spans.
        """
        hi = len(self.spans) if hi is None else hi
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans[lo:hi]:
            if parent >= 0:
                children[parent].append((start, end))
        names: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        roots = 0.0
        for i in range(lo, hi):
            name, start, end, parent, _ = self.spans[i]
            covered, reach = 0.0, start
            for c_lo, c_hi in sorted(children.get(i, ())):
                c_lo, c_hi = max(c_lo, reach), min(c_hi, end)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            entry = names[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            if parent < 0:
                roots += end - start
        return {"names": dict(names), "roots_s": roots}

    def write(self, path: Path, t0: float) -> None:
        """Write every span kept, one JSON object a line, times from t0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, (name, start, end, parent, facts) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start - t0, "end": end - t0, "parent": parent}
                if facts:
                    row["facts"] = facts
                out.write(json.dumps(row) + "\n")
