"""Outside-in span tracer.

Spans are recorded from the benchmark's side by replacing a function with a
timing wrapper in every module namespace that holds a reference to it, so
`from .x import f` aliases and module-global calls inside the program both
reach the wrapper. No file of the program is edited.

Each thread keeps its own span stack; a span's parent is the innermost open
span on the same thread (work handed to another thread starts a new root).
Finished spans are held in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "id parent thread name start end attrs")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans = []  # list.append is atomic, so threads share one list

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """fn, recording one span per call; attrs(args, kwargs, result) -> dict
        adds counters read from the call, evaluated after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = self._clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = self._clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if done and attrs else None
                self.spans.append(Span(sid, parent, threading.get_ident(), name,
                                       start, end, extra))

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([list(s) for s in self.spans], fh)


def span_cost(calls: int = 50_000, rounds: int = 5) -> float:
    """Seconds the wrapper adds to one call, measured on a no-op function
    (the fastest of several rounds, so host noise inflates it least)."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop, attrs=lambda a, k, r: None)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def load_spans(path) -> list:
    with open(path) as fh:
        return [Span(*row) for row in json.load(fh)]


def wrap_everywhere(tracer: Tracer, name: str, owner, attr: str, prefix: str,
                    attrs=None) -> list:
    """Wrap owner.attr and rebind every reference to it in the modules named
    prefix or prefix.* (and in owner, if it is a class); returns the
    (namespace, attr, original) entries that undo() restores."""
    original = getattr(owner, attr)
    wrapped = tracer.wrap(name, original, attrs)
    spaces = [m for key, m in list(sys.modules.items()) if m is not None
              and (key == prefix or key.startswith(prefix + "."))]
    if isinstance(owner, type):
        spaces.append(owner)
    entries = []
    for space in spaces:
        for key, val in list(vars(space).items()):
            if val is original:
                entries.append((space, key, original))
                setattr(space, key, wrapped)
    return entries


def undo(entries: list) -> None:
    for space, key, original in reversed(entries):
        setattr(space, key, original)


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out
