"""Outside-in span tracer: wraps public entry points of the repro layers.

The tracer never edits the program.  It replaces selected functions and
methods with timing wrappers for the duration of a traced run and puts
every original back on exit:

* a module-level function is replaced in *every* loaded ``repro.*``
  module that binds the same function object, so ``from x import f``
  call sites see the wrapper too;
* a class method is replaced on its class;
* a mapping entry (e.g. the experiment registry) is replaced in place.

Spans are kept in memory as ``(id, parent, thread, name, start, end)``
with the parent taken from a per-thread stack, written out as JSONL at
the end, and reduced to per-layer numbers by :func:`self_times` (a
span's duration minus the part of it its child spans cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "thread": self.thread,
                "name": self.name, "start": self.start, "end": self.end}

    @classmethod
    def from_json(cls, obj: dict) -> "Span":
        return cls(obj["id"], obj["parent"], obj["thread"], obj["name"],
                   obj["start"], obj["end"])


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered(children[span.sid], span.start,
                                          span.end)
        for span in spans
    }


#: ``on_result(tracer, span, args, kwargs, result)`` records counts from
#: what one wrapped call returned.
Hook = Callable[..., Any]


class Tracer:
    """Records spans and counts from wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(owner, key, original, kind)`` for every replaced binding,
        #: in install order; kind is "attr" or "item".
        self._patches: list[tuple[Any, Any, Any, str]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn: Callable, name: str | Callable[[tuple], str], *,
             on_result: Hook | None = None) -> Callable:
        """A wrapper around ``fn`` recording one span per call.

        ``name`` is the span name, or a function of the call's positional
        arguments returning it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            label = name(args) if callable(name) else name
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, parent, threading.get_ident(), label,
                            start, end)
                with tracer._lock:
                    tracer.spans.append(span)
            if on_result is not None:
                on_result(tracer, span, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installing --------------------------------------------------------

    def _replace(self, owner: Any, key: Any, new: Any, kind: str) -> None:
        if kind == "attr":
            original = owner.__dict__[key] if isinstance(owner, type) \
                else getattr(owner, key)
            setattr(owner, key, new)
        else:
            original = owner[key]
            owner[key] = new
        self._patches.append((owner, key, original, kind))

    def patch_function(self, fn: Callable, name, *,
                       on_result: Hook | None = None) -> int:
        """Wrap ``fn`` everywhere a loaded ``repro.*`` module binds it.

        Returns the number of bindings replaced.
        """
        wrapper = self.wrap(fn, name, on_result=on_result)
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapper, "attr")
                    n += 1
        return n

    def patch_method(self, cls: type, method: str, name, *,
                     on_result: Hook | None = None) -> None:
        """Wrap one method defined on ``cls`` itself."""
        original = cls.__dict__[method]
        self._replace(cls, method,
                      self.wrap(original, name, on_result=on_result), "attr")

    def patch_item(self, mapping: dict, key: Any, name, *,
                   on_result: Hook | None = None) -> None:
        """Wrap one callable stored in a mapping (e.g. a registry)."""
        self._replace(mapping, key,
                      self.wrap(mapping[key], name, on_result=on_result),
                      "item")

    @property
    def installed(self) -> int:
        return len(self._patches)

    def uninstall(self) -> None:
        """Put every original binding back (last patched, first restored)."""
        while self._patches:
            owner, key, original, kind = self._patches.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans, then one counts record, as JSONL."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def load_dump(path) -> tuple[list[Span], Counter]:
    """Read a :meth:`Tracer.dump` file back (spans, counts)."""
    spans: list[Span] = []
    counts: Counter = Counter()
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            if "counts" in obj:
                counts.update(obj["counts"])
            else:
                spans.append(Span.from_json(obj))
    return spans, counts
