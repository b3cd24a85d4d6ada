"""Span recording for the traced benchmark run.

The traced run wraps public functions of each layer -- from these
benchmark files, never by editing the program -- and records one span
per call: name, start, end, parent span and request id.  Spans stay in
memory (per-thread column arrays, so threads never interleave a row)
and are written to one file when the run ends; :func:`summarize` turns
that file into per-name call counts, total time and self time.

Parents follow :mod:`contextvars`, so they are right in nested calls,
across ``await`` and into asyncio tasks created while a span is open.
Events of the simulator's own event kernel carry no context: spans
inside them have the enclosing ``kernel.step`` span as parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Iterable

_perf_ns = time.perf_counter_ns

#: The open span of the current context (0 = none).
CURRENT_SPAN: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0
)
#: The end-to-end operation the current context works for (0 = none).
CURRENT_REQUEST: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_request", default=0
)

_COLUMNS = ("name", "span", "parent", "request", "start", "end")
_TYPECODES = {"name": "H", "span": "q", "parent": "q", "request": "q",
              "start": "q", "end": "q"}


class _ThreadBuffer:
    """One thread's span rows and boundary counts."""

    __slots__ = _COLUMNS + ("counts",)

    def __init__(self) -> None:
        for column in _COLUMNS:
            setattr(self, column, array(_TYPECODES[column]))
        self.counts: dict[str, int] = {}


class SpanRecorder:
    """Collects spans and counts from every thread of the process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_span = itertools.count(1).__next__
        self._next_request = itertools.count(1 << 32).__next__
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        #: Peak values sampled at boundaries (e.g. kernel queue length).
        self.gauges: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def count(self, name: str, amount: int = 1) -> None:
        counts = self.buffer().counts
        counts[name] = counts.get(name, 0) + amount

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            for name, value in list(buffer.counts.items()):
                total[name] = total.get(name, 0) + value
        return total

    def open(self, root: bool = False) -> tuple[int, int, contextvars.Token]:
        """Start a span: returns (span id, parent id, context token)."""
        span = self._next_span()
        parent = 0 if root else CURRENT_SPAN.get()
        return span, parent, CURRENT_SPAN.set(span)

    def close(self, name_id: int, span: int, parent: int, start: int) -> None:
        end = _perf_ns()
        buffer = self.buffer()
        buffer.name.append(name_id)
        buffer.span.append(span)
        buffer.parent.append(parent)
        buffer.request.append(CURRENT_REQUEST.get())
        buffer.start.append(start)
        buffer.end.append(end)

    # -- wrappers ------------------------------------------------------

    def wrap(
        self, name: str, fn: Callable, root: bool = False, request: bool = False
    ) -> Callable:
        """A synchronous wrapper recording one span per call.

        ``root`` starts a new tree whatever span is open; ``request``
        makes the call its own end-to-end request when none is set.
        """
        name_id = self.name_id(name)
        open_, close = self.open, self.close
        next_request = self._next_request

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request_token = None
            if request and not CURRENT_REQUEST.get():
                request_token = CURRENT_REQUEST.set(next_request())
            span, parent, token = open_(root)
            start = _perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name_id, span, parent, start)
                CURRENT_SPAN.reset(token)
                if request_token is not None:
                    CURRENT_REQUEST.reset(request_token)

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A coroutine wrapper; the span covers the whole await."""
        name_id = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, parent, token = open_()
            start = _perf_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                close(name_id, span, parent, start)
                CURRENT_SPAN.reset(token)

        return wrapper

    def wrap_steps(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator factory: one span per resumption."""
        name_id = self.name_id(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedSteps(fn(*args, **kwargs), recorder, name_id)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """A wrapper that only counts calls (no span)."""
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> int:
        """Write every span to ``path``; returns the span count."""
        with self._lock:
            buffers = list(self._buffers)
        merged = {column: array(_TYPECODES[column]) for column in _COLUMNS}
        for buffer in buffers:
            rows = len(buffer.end)
            for column in _COLUMNS:
                merged[column].extend(getattr(buffer, column)[:rows])
        header = {"names": self.names, "rows": len(merged["end"]),
                  "columns": list(_COLUMNS)}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in _COLUMNS:
                merged[column].tofile(handle)
        return header["rows"]


class _TimedSteps:
    """A generator proxy timing each ``send``/``throw`` as one span."""

    __slots__ = ("_gen", "_recorder", "_name_id")

    def __init__(self, gen, recorder: SpanRecorder, name_id: int) -> None:
        self._gen = gen
        self._recorder = recorder
        self._name_id = name_id

    def __iter__(self):
        return self

    def __next__(self):
        return self._timed(self._gen.send, None)

    def send(self, value):
        return self._timed(self._gen.send, value)

    def throw(self, *args):
        return self._timed(self._gen.throw, *args)

    def close(self) -> None:
        self._gen.close()

    def _timed(self, method, *args):
        recorder = self._recorder
        span, parent, token = recorder.open()
        start = _perf_ns()
        try:
            return method(*args)
        finally:
            recorder.close(self._name_id, span, parent, start)
            CURRENT_SPAN.reset(token)


def read(path: Path) -> tuple[list[str], dict[str, array]]:
    """Load a span file written by :meth:`SpanRecorder.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for column in header["columns"]:
            values = array(_TYPECODES[column])
            values.fromfile(handle, header["rows"])
            columns[column] = values
    return header["names"], columns


def summarize(path: Path, split_ns: int) -> tuple[dict, dict]:
    """Per span name: ``calls``, ``total_ns`` and ``self_ns``, as two
    tables -- spans that started before ``split_ns`` (set-up) and the
    rest (the measured phase).

    Self time is a span's duration minus the part of it covered by the
    union of its child spans' intervals (children may overlap when they
    run concurrently, as in a pipelined fan-out).
    """
    names, columns = read(path)
    name_col, span_col, parent_col = (
        columns["name"], columns["span"], columns["parent"],
    )
    start_col, end_col = columns["start"], columns["end"]
    rows = len(end_col)
    # Span ids are dense, so arrays indexed by id replace dictionaries
    # (a traced sim run holds millions of spans).
    row_of = array("q", [-1]) * (max(span_col, default=0) + 1)
    for row in range(rows):
        row_of[span_col[row]] = row
    parent_row = array("q", [-1]) * rows
    first = array("q", [0]) * (rows + 1)
    for row in range(rows):
        parent = parent_col[row]
        if parent and parent < len(row_of) and row_of[parent] >= 0:
            parent_row[row] = row_of[parent]
            first[row_of[parent] + 1] += 1
    del row_of
    for row in range(rows):
        first[row + 1] += first[row]
    fill = array("q", first)
    child_rows = array("q", [0]) * first[rows]
    for row in range(rows):
        parent = parent_row[row]
        if parent >= 0:
            child_rows[fill[parent]] = row
            fill[parent] += 1
    del fill, parent_row
    tables = tuple(
        {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in names}
        for _ in range(2)
    )
    for row in range(rows):
        start, end = start_col[row], end_col[row]
        covered = 0
        intervals = sorted(
            (max(start_col[kid], start), min(end_col[kid], end))
            for kid in child_rows[first[row]:first[row + 1]]
        )
        intervals = [(low, high) for low, high in intervals if high > low]
        if intervals:
            run_start, run_end = intervals[0]
            for low, high in intervals[1:]:
                if low > run_end:
                    covered += run_end - run_start
                    run_start, run_end = low, high
                elif high > run_end:
                    run_end = high
            covered += run_end - run_start
        entry = tables[start >= split_ns][names[name_col[row]]]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - covered
    return tables


def patch_method(
    undo: list, owner: type, attr: str, make: Callable[[Callable], Callable]
) -> None:
    """Replace ``owner.attr`` with ``make(original)``, keeping a
    classmethod a classmethod."""
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        replacement = classmethod(make(original.__func__))
    else:
        replacement = make(original)
    setattr(owner, attr, replacement)
    undo.append((owner, attr, original))


def patch_function(
    undo: list, modules: Iterable, attr: str, make: Callable[[Callable], Callable]
) -> None:
    """Replace a module-level function in every module that bound it."""
    modules = list(modules)
    original = getattr(modules[0], attr)
    replacement = make(original)
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, replacement)
            undo.append((module, attr, original))


def restore(undo: list) -> None:
    """Undo every patch, newest first."""
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)
