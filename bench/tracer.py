"""Spans around the calls the benchmark makes into ``tmsensor``.

The program is not edited: ``install`` replaces a few names in the modules
that call them (``tmsensor.cli``, ``tmsensor.matrix``,
``tmsensor.analytics``) with wrappers that time the call. Each thread
keeps its own stack of open spans, so a span's parent is the span that was
open in the same thread when it started.

Calls that happen once per packet, per host or per window (the record
iterator, ``anonymize_ip``, the window generator, ``analyze``, ``merge``)
are folded into one span per (parent, name) that sums their durations and
counts the calls; recording each of them would cost more than the work.
Spans stay in memory until ``records`` hands them to the caller.
"""

from __future__ import annotations

import io
import itertools
import os
import threading
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "busy", "calls",
                 "children")

    def __init__(self, sid, name, parent, thread):
        self.id, self.name, self.parent, self.thread = sid, name, parent, thread
        self.start = self.end = None
        self.busy = 0.0
        self.calls = 0
        self.children = {}  # name -> folded child Span

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end,
                "busy": self.busy, "calls": self.calls}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.written: list = []  # matrices handed to write_tmf, re-encoded after the pass
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name, parent):
        span = Span(next(self._ids), name, parent.id if parent else None,
                    threading.current_thread().name)
        with self._lock:
            self.spans.append(span)
        return span

    def add(self, name, n):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def folded(self, name):
        """The folded span ``name`` under the span open in this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            return self._new(name, None)
        span = parent.children.get(name)
        if span is None:
            span = parent.children[name] = self._new(name, parent)
        return span

    def call(self, name, fn, *args, fold=False, **kwargs):
        """Run ``fn`` inside a span; a folded span sums repeated calls."""
        stack = self._stack()
        if fold:
            span = self.folded(name)
        else:
            span = self._new(name, stack[-1] if stack else None)
        stack.append(span)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if span.start is None:
                span.start = t0
            span.end = t1
            span.busy += t1 - t0
            span.calls += 1

    def records(self):
        return [s.as_dict() for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the public functions as the calling modules see them."""
    import tmsensor.analytics as analytics
    import tmsensor.cli as cli
    import tmsensor.matrix as matrix

    real = {name: getattr(cli, name) for name in (
        "convert_file", "parse_pcap", "build_windows", "write_tmf", "read_tmf",
        "analyze_many", "append_journal", "main", "watch_loop")}
    real_anonymize = matrix.anonymize_ip
    real_analyze, real_merge = analytics.analyze, analytics.merge

    def convert_file(key, window_size, pcap_path, *args, **kwargs):
        tracer.add("pcap.bytes", os.stat(pcap_path).st_size)
        return tracer.call("cli.convert", real["convert_file"], key, window_size,
                           pcap_path, *args, **kwargs)

    def parse_pcap(stream):
        records, stats = real["parse_pcap"](stream)
        return _timed_records(tracer, records, stats), stats

    def build_windows(records, key, window_size):
        windows = real["build_windows"](records, key, window_size)
        while True:
            try:
                m = tracer.call("matrix.build", next, windows, fold=True)
            except StopIteration:
                return
            tracer.add("matrix.windows", 1)
            tracer.add("matrix.entries", len(m.entries))
            yield m

    def write_tmf(matrices, sink, **kwargs):
        matrices = list(matrices)
        written = tracer.call("tmf.write", real["write_tmf"], matrices, sink, **kwargs)
        tracer.add("tmf.bytes_out", written)
        tracer.written.append(matrices)
        return written

    def read_tmf(source):
        matrices = tracer.call("tmf.read", real["read_tmf"], source)
        tracer.add("tmf.entries_read", sum(len(m.entries) for m in matrices))
        return matrices

    def anonymize_ip(key, ip_version, ip):
        return tracer.call("anon.hmac", real_anonymize, key, ip_version, ip, fold=True)

    cli.convert_file = convert_file
    cli.parse_pcap = parse_pcap
    cli.build_windows = build_windows
    cli.write_tmf = write_tmf
    cli.read_tmf = read_tmf
    for name, span in (("analyze_many", "analytics.analyze_many"),
                       ("append_journal", "cli.journal"), ("main", "cli.main"),
                       ("watch_loop", "cli.watch")):
        setattr(cli, name, _spanned(tracer, span, real[name]))
    matrix.anonymize_ip = anonymize_ip
    analytics.analyze = _spanned(tracer, "analytics.analyze", real_analyze, fold=True)
    analytics.merge = _spanned(tracer, "matrix.merge", real_merge, fold=True)


def _spanned(tracer, name, fn, fold=False):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, fold=fold, **kwargs)
    return wrapper


def _timed_records(tracer, records, stats):
    """The record iterator, with the time spent inside it summed into one span."""
    busy, calls, first, last = 0.0, 0, None, None
    try:
        while True:
            t0 = perf_counter()
            rec = next(records, None)
            last = perf_counter()
            busy += last - t0
            calls += 1
            if first is None:
                first = t0
                span = tracer.folded("pcap.parse")  # under the window generator
            if rec is None:
                tracer.add("pcap.records", stats.total_records)
                return
            yield rec
    finally:
        if first is not None:
            if span.start is None:
                span.start = first
            span.end = last
            span.busy += busy
            span.calls += calls


def encode_only(tracer: Tracer) -> float:
    """Re-encode every written matrix list without deflate; returns seconds.

    Run after the timed pass, so it adds nothing to the traced wall time.
    """
    import tmsensor.tmf as tmf

    if not tracer.written:
        return 0.0
    t0 = perf_counter()
    for matrices in tracer.written:
        tmf.write_tmf(matrices, io.BytesIO(), compress=False)
    return perf_counter() - t0
