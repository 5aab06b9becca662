"""The benchmark's own spans, and their fold into a per-layer table.

Spans are recorded around calls into the program's public functions from
the benchmark's files (never from the program's own ``repro.obs`` spans).
Each span is a dict ``{name, start, end, id, parent, op}``: times on the
machine-wide monotonic clock, ``parent`` the enclosing span of the same
process (``None`` at a process's top), ``op`` the timed op the span
belongs to.  Spans stay in memory and are written out when a run ends.

A span's layer is the first dotted part of its name.  Its self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
from typing import Dict, Iterable, List, Optional

from common import clock, median

_current: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = ("recorder", "name", "op", "id", "parent", "start", "end", "token", "attrs")

    def __init__(self, recorder: "SpanRecorder", name: str, op, parent: Optional["Span"]):
        self.recorder = recorder
        self.name = name
        self.op = op if op is not None or parent is None else parent.op
        self.id = next(recorder._ids)
        self.parent = parent.id if parent is not None else None
        self.start = clock()
        self.end: Optional[float] = None
        self.token = None
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else clock()) - self.start

    def finish(self, end: Optional[float] = None) -> None:
        self.end = clock() if end is None else end
        self.recorder._add(self)

    def __enter__(self) -> "Span":
        self.token = _current.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _current.reset(self.token)
        self.finish()

    @contextlib.contextmanager
    def active(self):
        """Make this span current without finishing it on exit."""
        token = _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)


class SpanRecorder:
    """Collects finished spans in memory (thread-safe)."""

    def __init__(self, prefix: str = ""):
        self._ids = (f"{prefix}{n}" for n in itertools.count(1))
        self._lock = threading.Lock()
        self.records: List[Dict[str, object]] = []

    def span(self, name: str, op=None, *, parent: Optional[Span] = None) -> Span:
        """A span under ``parent`` (default: the current span of this context)."""
        return Span(self, name, op, parent if parent is not None else _current.get())

    def add(
        self, name: str, start: float, end: float, op=None,
        parent: Optional[Span] = None, **attrs: float,
    ) -> None:
        """Record an already-measured interval."""
        span = self.span(name, op, parent=parent)
        span.start = start
        span.attrs.update(attrs)
        span.finish(end)

    def _add(self, span: Span) -> None:
        record = {
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "id": span.id,
            "parent": span.parent,
            "op": span.op,
            "attrs": span.attrs,
        }
        with self._lock:
            self.records.append(record)


def current() -> Optional[Span]:
    return _current.get()


# ---------------------------------------------------------------------- #
# folding
# ---------------------------------------------------------------------- #
def _covered(start: float, end: float, children: Iterable[Dict]) -> float:
    """Length of [start, end] covered by the union of the children."""
    intervals = sorted(
        (max(start, c["start"]), min(end, c["end"])) for c in children
    )
    total = 0.0
    cursor = start
    for low, high in intervals:
        if high <= low or high <= cursor:
            continue
        low = max(low, cursor)
        total += high - low
        cursor = high
    return total


def self_times(spans: List[Dict]) -> List[Dict]:
    """Each span with its ``self`` time (duration minus children's cover)."""
    children: Dict[object, List[Dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for span in spans:
        duration = span["end"] - span["start"]
        own = dict(span)
        own["self"] = duration - _covered(
            span["start"], span["end"], children.get(span["id"], ())
        )
        out.append(own)
    return out


def layer_table(
    spans: List[Dict], root_names: Iterable[str], booked: bool = False
) -> Dict[str, object]:
    """Fold self times by span name.

    ``root_names`` are the spans that time a whole op; shares are of their
    summed durations.  A root's own self time is the op time no layer
    accounts for, unless ``booked``: then the root is itself a layer's
    span (a client round trip, whose self time is the wire and the HTTP
    framing) and gets its own row.
    """
    roots = set(root_names)
    timed = self_times(spans)
    op_time = sum(s["end"] - s["start"] for s in timed if s["name"] in roots)
    rows: Dict[str, Dict[str, object]] = {}
    unaccounted = 0.0
    for span in timed:
        if span["name"] in roots and not booked:
            unaccounted += span["self"]
            continue
        row = rows.setdefault(span["name"], {"selfs": []})
        row["selfs"].append(span["self"])
    table = {}
    for name in sorted(rows):
        selfs = rows[name]["selfs"]
        total = sum(selfs)
        table[name] = {
            "calls": len(selfs),
            "median_self_s": median(selfs),
            "total_self_s": total,
            "share": total / op_time if op_time else 0.0,
        }
    return {
        "op_time_s": op_time,
        "unaccounted_s": unaccounted,
        "unaccounted_share": unaccounted / op_time if op_time else 0.0,
        "layers": table,
    }
