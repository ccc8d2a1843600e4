"""In-memory spans and call counters around the public functions of `asrlm`.

The benchmark instruments the toolkit from outside: it replaces module
attributes (the names `pipeline`, `mixture` and `pruner` look up at call
time) with wrappers that record a span per call, and wraps two hot methods
with bare call counters keyed by the innermost open span. Nothing under
`src/` changes; `restore()` puts every original back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent index, run id), per-parent call
    counters and per-run facts taken from call results."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[tuple, int]] = {}
        self.facts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""
        self._open: list[int] = []
        self._key = ("", None)  # (run id, innermost open span name)
        self._patches: list[tuple[object, str, object]] = []

    def set_run(self, run_id: str) -> None:
        """Spans and counts recorded from now on belong to `run_id`."""
        self.run_id = run_id
        self._key = (run_id, self.spans[self._open[-1]][0] if self._open else None)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `observe(args, kwargs, result)` returns facts to add to the current
        run; it runs after the span has closed, so its cost is not in the span.
        """
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            outer_key = self._key
            record = [name, time.perf_counter(), None, parent, self.run_id]
            self.spans.append(record)
            self._open.append(index)
            self._key = (self.run_id, name)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
                self._key = outer_key
            if observe is not None:
                facts = self.facts[self.run_id]
                for key, value in observe(args, kwargs, result).items():
                    facts[key] += value
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` per run and innermost open span."""
        original = owner.__dict__[attr]
        table: dict[tuple, int] = defaultdict(int)
        self.counters[name] = table

        def wrapper(*args, **kwargs):
            table[self._key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def aggregate(self, group) -> dict[str, dict[str, float]]:
        """Flat totals per group of run ids (`group(run_id)` names the group).

        For a span name N: `N.s` (inclusive time), `N.self_s` (time not
        covered by child spans), `N.calls` and `N.s@P` (inclusive time under
        parent span P). For a counter C: `C` and `C@P`. Facts keep their names.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            totals = out[group(run_id)]
            duration = end - start
            totals[f"{name}.s"] += duration
            totals[f"{name}.self_s"] += duration - child_time[i]
            totals[f"{name}.calls"] += 1
            parent_name = self.spans[parent][0] if parent is not None else None
            totals[f"{name}.s@{parent_name}"] += duration
        for counter, table in self.counters.items():
            for (run_id, parent_name), n in table.items():
                totals = out[group(run_id)]
                totals[counter] += n
                totals[f"{counter}@{parent_name}"] += n
        for run_id, facts in self.facts.items():
            totals = out[group(run_id)]
            for key, value in facts.items():
                totals[key] += value
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, then the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
            for counter, table in sorted(self.counters.items()):
                for (run_id, parent_name), n in table.items():
                    fh.write(json.dumps({"counter": counter, "run": run_id,
                                         "parent": parent_name, "calls": n}) + "\n")
