"""Outside-in tracing of priorsweep.

Public functions are wrapped by name in the namespace their caller resolves
them from, so the program runs unchanged.  Modules are reached through
``sys.modules``: ``import priorsweep.surface`` would yield the ``surface``
function, because the package ``__init__`` re-exports it.  A target that no
longer exists (merged or renamed) is recorded as absent instead of failing.

Three kinds of wrapper:
  span  - timed, recorded as (id, name, start, end, parent) and kept in memory;
  leaf  - timed and counted per (name, parent) without a span of its own, for
          functions called tens of thousands of times per run;
  count - counted only, but pushed on the call stack so that callees can see
          they were called from it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    owner: str                 # "module" or "module:Class"
    attr: str
    name: str                  # span or counter name
    kind: str = "span"         # "span", "leaf" or "count"
    # called after each call with (tracer, bound arguments, result)
    after: Callable | None = None
    # maps bound arguments to a span name, for one function with several roles
    label: Callable | None = None

    @property
    def path(self) -> str:
        return f"{self.owner}.{self.attr}".replace(":", ".")


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.absent: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.reset()

    # per-iteration state
    def reset(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.leaf: dict[tuple[str, int | None], list[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.root = 0             # the iteration's span; ids of other spans start at 1

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    def add_distinct(self, counter: str, keys) -> None:
        keys = set(keys)
        with self._lock:
            self.distinct[counter] |= keys

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> int | None:
        for _, span_id in reversed(stack):
            if span_id is not None:
                return span_id
        return self.root          # calls made on pool threads hang off the root

    def caller(self) -> str | None:
        """Name of the innermost wrapped call active on this thread."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    # installation
    def install(self) -> None:
        for t in self.targets:
            mod_name, _, cls_name = t.owner.partition(":")
            module = sys.modules.get(mod_name)
            if module is None:
                self.absent[t.path] = f"module {mod_name} is not imported"
                continue
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None:
                self.absent[t.path] = f"{mod_name} has no attribute {cls_name}"
                continue
            original = owner.__dict__.get(t.attr) if cls_name else getattr(owner, t.attr, None)
            if original is None or not callable(original):
                self.absent[t.path] = f"{t.owner} has no callable {t.attr}"
                continue
            self._patches.append((owner, t.attr, original))
            setattr(owner, t.attr, self._wrap(t, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, t: Target, fn):
        signature = inspect.signature(fn) if (t.after or t.label) else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            name = t.label(bound.arguments) if t.label else t.name
            span_id = next(tracer._ids) if t.kind == "span" else None
            parent = tracer._parent(stack)
            stack.append((name, span_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if t.kind == "span":
                    tracer.spans.append((span_id, name, start, end, parent))
                elif t.kind == "leaf":
                    with tracer._lock:
                        cell = tracer.leaf[(name, parent)]
                        cell[0] += 1
                        cell[1] += end - start
                else:
                    tracer.add(name, 1)
            if t.after is not None:
                try:
                    t.after(tracer, bound.arguments, result)
                except Exception as exc:   # a renamed field must not stop the run
                    tracer.absent[f"{t.path} (after-call hook)"] = repr(exc)
            return result

        return wrapper

    # summaries
    def span_seconds(self, name: str) -> float:
        total = sum(end - start for _, n, start, end, _ in self.spans if n == name)
        total += sum(cell[1] for (n, _), cell in self.leaf.items() if n == name)
        return total

    def calls(self, name: str) -> int:
        spans = sum(1 for _, n, _, _, _ in self.spans if n == name)
        leaves = sum(cell[0] for (n, _), cell in self.leaf.items() if n == name)
        return spans + leaves + int(self.counts.get(name, 0))

    def dump(self) -> dict:
        names = {span_id: n for span_id, n, _, _, _ in self.spans}
        return {
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, n, s, e, p in self.spans],
            "leaf_calls": [{"name": n, "parent": names.get(p, p), "calls": c[0],
                            "seconds": c[1]} for (n, p), c in self.leaf.items()],
        }
