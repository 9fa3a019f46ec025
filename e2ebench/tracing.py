"""Outside-in span tracer: wraps public entry points of the layers, per class.

:meth:`Tracer.wrap` replaces a class attribute (or a function bound in a
module) with a wrapper that records a ``perf_counter`` span around each call:
its name, a tag computed from the call's arguments, start, end, the span that
was open when it started (its parent) and a trace id shared by every span
under one root span (an engine step, or one client request).  Spans are kept
in memory, one list per thread, and written out when the run ends.  Only the
traced run installs wrappers; :meth:`Tracer.remove` restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Span recorder plus the set of wrappers it installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[list] = []  # one span list per thread
        self._register = threading.Lock()
        self._traces = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.open = [], []
            with self._register:
                self._threads.append(local.spans)
        return local.spans, local.open

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``tag(*args, **kwargs)`` (optional) stores a small value with the
        span, such as the rows of the call.  A call of the same name on the
        same object made inside such a span (a subclass method calling its
        base) stays inside the one span.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans, open_ = tracer._state()
            key = (name, id(args[0]) if args else None)
            if open_ and open_[-1][1] == key:
                return original(*args, **kwargs)
            parent = open_[-1][0] if open_ else -1
            trace = spans[parent][5] if parent >= 0 else next(tracer._traces)
            label = tag(*args, **kwargs) if tag is not None else None
            span = [name, label, time.perf_counter(), 0.0, parent, trace]
            open_.append((len(spans), key))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute (spans are kept)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def spans(self) -> list[dict]:
        """Every span with its duration and self time (duration minus children)."""
        out = []
        for thread, spans in enumerate(self._threads):
            covered = defaultdict(float)
            for name, tag, start, end, parent, trace in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for index, (name, tag, start, end, parent, trace) in enumerate(spans):
                out.append({
                    "name": name, "tag": tag, "start": start, "end": end,
                    "parent": parent, "trace": trace, "thread": thread,
                    "dur": end - start, "self": end - start - covered[index],
                })
        return out

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")
