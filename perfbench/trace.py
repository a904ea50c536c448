"""Traced launcher: run one fallstream command with layer wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python perfbench/trace.py OUT.json prepare DATASET --mapping ... --out ...

The wrappers replace the names that ``fallstream.cli``, ``fallstream.stream``
and ``fallstream.ingest`` look up when they call into a layer, so nothing in
``src/`` changes. Calls made once per sample or line (wire parsing, window
assembly, queue put/get) add to per-thread call counts and nanosecond
totals. Coarser calls (per window, per file, per command) record spans with
the id of the span open on the same thread when they started. Everything
stays in memory until the command returns; then OUT.json is written.

SIGUSR1 starts the measurement over: counters restart from zero and spans
are clipped to start no earlier than the signal. The benchmark sends it
when a live workload's timed phase begins, so warm-up traffic is left out.
"""

from __future__ import annotations

import itertools
import json
import signal
import sys
import threading
import time

perf_ns = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self._cut = 0

    def cut(self) -> None:
        """Forget counts so far; keep only span time from now on."""
        self._cut = perf_ns()
        with self._lock:
            for table in self._tables:
                table.clear()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ({}, [])
            with self._lock:
                self._tables.append(st[0])
        return st

    def counter(self, name, fn, items=None, gauge=None):
        """Wrap a per-sample call: count, ns, summed items, max gauge."""
        state = self._state

        def wrapper(*args, **kwargs):
            t0 = perf_ns()
            result = fn(*args, **kwargs)
            dt = perf_ns() - t0
            table = state()[0]
            entry = table.get(name)
            if entry is None:
                entry = table[name] = [0, 0, 0, 0]
            entry[0] += 1
            entry[1] += dt
            if items is not None:
                entry[2] += items(args, result)
            if gauge is not None:
                g = gauge(args, result)
                if g > entry[3]:
                    entry[3] = g
            return result

        return wrapper

    def span(self, name, fn, size=None):
        """Wrap a coarse call: one span record per call."""
        state = self._state
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            stack = state()[1]
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            n = 0
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
                n = size(args, result) if size is not None else 1
                return result
            finally:
                t1 = perf_ns()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(),
                              t0, t1, n))

        return wrapper

    def dump(self, path) -> None:
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (c, ns, items, gmax) in table.items():
                m = merged.setdefault(name, [0, 0, 0, 0])
                m[0] += c
                m[1] += ns
                m[2] += items
                m[3] = max(m[3], gmax)
        cut = self._cut
        spans = [(sid, parent, name, tid, max(t0, cut), t1, n)
                 for sid, parent, name, tid, t0, t1, n in self.spans
                 if t1 >= cut]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": merged, "spans": spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the program looks them up."""
    from fallstream import cli, ingest, stream, windowing

    span, counter = tracer.span, tracer.counter
    for cmd in ("cmd_prepare", "cmd_train", "cmd_evaluate", "cmd_replay",
                "cmd_serve"):
        setattr(cli, cmd, span("cli." + cmd, getattr(cli, cmd)))
    cli.run_pipeline = span("stream.run_pipeline", cli.run_pipeline)
    cli.parse_trial_path = span("ingest.parse_trial", cli.parse_trial_path,
                                size=lambda a, r: r[1].rows)
    cli.write_feature_csv = span("cli.write_feature_csv",
                                 cli.write_feature_csv,
                                 size=lambda a, r: len(a[1]))
    cli.read_feature_csv = span("cli.read_feature_csv", cli.read_feature_csv,
                                size=lambda a, r: r[0].shape[0])
    cli.train = span("model.train", cli.train, size=lambda a, r: a[3].epochs)
    load = span("model.load_artifact", stream.load_artifact)
    cli.load_artifact = stream.load_artifact = load
    extract = span("features.extract", stream.extract_features)
    cli.extract_features = stream.extract_features = extract
    stream.apply_scaler = span("features.scale", stream.apply_scaler)
    stream.forward = span("model.forward", stream.forward)
    stream.detection_line = span("stream.detection_line",
                                 stream.detection_line)
    for sink in (stream.StdoutSink, stream.FileSink):
        sink.emit = span("stream.sink_emit", sink.emit)

    ingest.parse_wire_line = counter("ingest.parse_wire",
                                     ingest.parse_wire_line)

    # samples held in partial windows, kept on each assembler from push's
    # result: +1 per sample, -stride per emitted window
    def pending_after(args, out):
        asm = args[0]
        asm.bench_pending = (getattr(asm, "bench_pending", 0) + 1
                             - len(out) * asm.config.stride)
        return asm.bench_pending

    windowing.WindowAssembler.push = counter(
        "windowing.push", windowing.WindowAssembler.push, gauge=pending_after)
    queue = stream.BoundedQueue
    queue.put = counter("stream.queue.put", queue.put,
                        items=lambda a, r: len(a[1]),
                        gauge=lambda a, r: len(a[0]._items))
    queue.get = counter("stream.queue.get", queue.get)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.cut())
    from fallstream import cli

    main_span = tracer.span("cli.main", cli.main)
    try:
        return main_span(args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
