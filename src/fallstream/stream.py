"""The running pipeline: source -> windower -> features -> model -> sinks.

The pipeline runs on the calling thread and starts no thread. Replay is
driven by its source: a trial parse hands over its rows block by block,
and each turn feeds the rows of a block due so far through the pipeline,
so a max-speed turn feeds a block and classifies its windows with one
call each; a paced one sleeps until a row is due when none is. A paced
replay follows the trial's own clock: row i is due (m_i - t_0) / (1000 *
speed) seconds after the first, t_0 being the first row's t_ms and m_i
the largest t_ms of rows 0..i. A max-speed replay holds its detection
lines until its source ends, so a trial refused at its end (mostly
malformed) sends no sink a line; a paced one has its source checked
first. Serve's loop takes from its source each turn,
classifies one queued window list and prints the stats line when it is
due. Serve reads its sockets in a second process
(``ingest.ReaderProcess``): the reader turns each socket read into one
message on a pipe, and the loop takes messages, waiting only while nothing is queued, so reading and
parsing run beside windowing and classification. Either pushes what it
reads into one WindowAssembler and puts the windows a push completes on
one queue, bounded in samples. A window list is classified with one
feature, one scaling and one forward call, and its detections go to every
sink in per-device order, with one write per list to stdout and file
sinks. Overflow policy ``block`` takes no message while the queue is
full: the pipe fills, the reader blocks writing to it and stops reading,
so backpressure reaches clients through TCP. ``drop_oldest`` (live
default) keeps taking and sheds the oldest queued window lists whole,
counting their samples, so a shed never touches a partial window and
every window is contiguous. A replay puts at most one list per turn and
gets one, so it never overflows.

Serve stops in this order on SIGINT or SIGTERM: the loop closes the
reader's control pipe; the reader closes every connection, counting each
unterminated line, sends its final counters and exits; the loop takes
every message up to that one, classifies everything read and reaps the
reader. A reader that ends without its final message is fatal.

Detections serialize to one JSON line with a fixed key order:
``device_id, t_start_ms, t_end_ms, p_fall, class, seq, model_digest``.
p_fall is printed with 18 significant digits so the parsed value is
bit-identical to the computed one.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import ConfigError
from .features import apply_scaler, extract_features
from .ingest import (
    BinaryClass,
    ReaderProcess,
    Sample,
    SampleBatch,
    as_batch,
)
from .model import ModelArtifact, forward, load_artifact
from .windowing import Window, WindowAssembler, WindowConfig

# longest wait for input, so a shutdown event is seen within it
WAIT_S = 0.2
WEBHOOK_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class Detection:
    """One classified window; class is FALL exactly when p_fall >= 0.5."""

    device_id: str
    t_start_ms: int
    t_end_ms: int
    p_fall: float
    predicted: BinaryClass
    model_digest: str
    seq: int


def detection_line(d: Detection) -> str:
    """The bit-exact wire form of one detection."""
    return (
        '{"device_id": %s, "t_start_ms": %d, "t_end_ms": %d, "p_fall": %s, '
        '"class": %s, "seq": %d, "model_digest": %s}'
        % (
            json.dumps(d.device_id),
            d.t_start_ms,
            d.t_end_ms,
            format(d.p_fall, ".17e"),
            json.dumps(d.predicted.value),
            d.seq,
            json.dumps(d.model_digest),
        )
    )


@dataclass
class PipelineStats:
    samples_in: int = 0
    malformed: int = 0
    timestamp_regressions: int = 0
    windows: int = 0
    partial_window_drops: int = 0
    detections: int = 0
    sink_failures: int = 0
    overflow_drops: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def format_line(self) -> str:
        return "stats " + " ".join(
            f"{k}={v}" for k, v in self.to_dict().items()
        )


@dataclass
class ReplaySpec:
    """A trial's rows, replayed at max speed or paced by the trial's clock:
    row i is due ``(m_i - t_0) / (1000 * speed)`` seconds after the first,
    where t_0 is the first row's t_ms and m_i the largest t_ms of rows
    0..i, so a step back is due at once. Pacing never changes which samples
    come out, only when.

    ``samples`` is a function that hands the rows to its argument in
    order, a batch at a time, as ``emit(batch, report)``:
    ``ingest.parse_trial_path`` with ``emit``, whose ParseReport counts the
    rows read so far (the malformed ones too)."""

    samples: Callable
    speed: float = math.inf  # math.inf = as fast as the loop classifies

    def __post_init__(self):
        if not self.speed > 0:
            raise ConfigError(
                f"speed must be positive or 'max' (inf), got {self.speed}")


@dataclass
class SocketSpec:
    host: str = "127.0.0.1"
    port: int = 0


@dataclass
class PipelineConfig:
    source: Union[ReplaySpec, SocketSpec]
    artifact_path: str | Path
    window: WindowConfig = field(default_factory=WindowConfig)
    sinks: tuple[str, ...] = ("stdout",)
    queue_capacity: int = 1024
    overflow: str = "block"
    stats_interval_s: float | None = None

    def __post_init__(self):
        if self.window.size < 2:
            raise ConfigError(
                "window size must be >= 2: the features need at least 2 "
                f"samples per window, got {self.window.size}")
        if not self.sinks:
            raise ConfigError("pipeline needs at least one sink")
        if self.queue_capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        if self.overflow not in ("block", "drop_oldest"):
            raise ConfigError(
                f"overflow must be 'block' or 'drop_oldest', got {self.overflow!r}"
            )
        # an interval past threading.TIMEOUT_MAX is refused as it always
        # was, so a config that serve accepts stays the same across versions
        if self.stats_interval_s and not (
                0 < self.stats_interval_s <= threading.TIMEOUT_MAX):
            raise ConfigError(
                "stats interval must be 0 (off) or positive seconds up to "
                f"{threading.TIMEOUT_MAX:.0f}, got {self.stats_interval_s}")


class BoundedQueue:
    """Queue of window lists, bounded in samples: an item counts the samples
    of its windows. Under ``block`` a put always enters and the queue is
    ``full`` once it holds its capacity, so the loop takes no message until
    a get makes room; ``full`` is checked before each message, so the
    message that fills the queue can take it past its capacity by up to
    one read's lines. Under ``drop_oldest`` a put sheds the oldest items
    whole and counts their samples until the new one fits, and the queue is
    never full. An item larger than the capacity still enters an empty
    queue."""

    def __init__(self, capacity: int, policy: str, stats: PipelineStats):
        self._capacity = capacity
        self._block = policy == "block"
        self._stats = stats
        self._items: deque = deque()  # (windows, their samples)
        self._queued = 0  # samples in _items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self._block and self._queued >= self._capacity

    def put(self, windows: list[Window]) -> None:
        n = sum(len(w.t_ms) for w in windows)
        if not self._block:
            while self._items and self._queued + n > self._capacity:
                _shed, shed_n = self._items.popleft()
                self._queued -= shed_n
                self._stats.overflow_drops += shed_n
        self._items.append((windows, n))
        self._queued += n

    def get(self) -> list[Window] | None:
        """The oldest window list, or None when the queue is empty."""
        if not self._items:
            return None
        windows, n = self._items.popleft()
        self._queued -= n
        return windows


class StdoutSink:
    batched = True  # takes a window list's lines in one emit

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stdout

    def emit(self, text: str) -> None:
        """Write newline-joined detection lines with one write and one
        flush."""
        self._stream.write(text + "\n")
        self._stream.flush()

    def close(self) -> None:
        pass


class FileSink:
    batched = True

    def __init__(self, path: str | Path):
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, text: str) -> None:
        self._fh.write(text + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class WebhookSink:
    """POSTs each detection line; any non-2xx, timeout, or transport error
    raises so the pipeline's single retry applies."""

    def __init__(self, url: str, timeout_s: float = WEBHOOK_TIMEOUT_S):
        import urllib.request  # only a webhook sink pays for this import

        self._urllib = urllib.request
        self.url = url
        self.timeout_s = timeout_s

    def emit(self, line: str) -> None:
        req = self._urllib.Request(
            self.url,
            data=line.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with self._urllib.urlopen(req, timeout=self.timeout_s) as resp:
            if not 200 <= resp.status < 300:
                raise OSError(f"webhook answered {resp.status}")

    def close(self) -> None:
        pass


def build_sink(spec: str):
    if spec == "stdout":
        return StdoutSink()
    if spec.startswith("file:"):
        return FileSink(spec[len("file:"):])
    if spec.startswith("webhook:"):
        return WebhookSink(spec[len("webhook:"):])
    raise ConfigError(f"unknown sink spec {spec!r}")


def classify_windows(
    artifact: ModelArtifact,
    windows: Sequence[Window],
    seqs: dict[str, int],
) -> list[Detection]:
    """Detections of windows completed together: one feature, one scaling
    and one forward call for all of them. ``seqs`` holds each device's
    next sequence number and is advanced."""
    X = apply_scaler(extract_features(windows), artifact.scaler)
    detections = []
    for window, p in zip(windows, forward(artifact.model, X).tolist()):
        seq = seqs.get(window.device_id, 0)
        seqs[window.device_id] = seq + 1
        detections.append(Detection(
            device_id=window.device_id,
            t_start_ms=window.t_start,
            t_end_ms=window.t_end,
            p_fall=p,
            predicted=BinaryClass.FALL if p >= 0.5 else BinaryClass.ADL,
            model_digest=artifact.digest or "",
            seq=seq,
        ))
    return detections


def classify_samples(
    artifact: ModelArtifact,
    samples: SampleBatch | Iterable[Sample],
    window: WindowConfig | None = None,
) -> list[Detection]:
    """Batch-mode classification; the same code path the pipeline runs."""
    assembler = WindowAssembler(window or WindowConfig())
    windows = assembler.push(as_batch(samples))
    return classify_windows(artifact, windows, {})


def _replay_chunks(batch: SampleBatch, speed: float, clock: list):
    """The rows of ``batch`` as they fall due; at max speed all of them at
    once, and no clock is read. Paced, row i of the replay is due (m_i -
    t_0) / (1000 * speed) seconds after the first (see ReplaySpec), in
    float ms, so no difference overflows. ``clock`` carries the schedule
    from block to block: empty before the first row, then the
    time.monotonic() reading when the first row was due, and t_0. The
    running maximum m_i restarts with each block: a row below an earlier
    block's largest t_ms is overdue either way.

    When no row is due it sleeps until the next one is, at most WAIT_S, and
    yields an empty chunk, so the caller can look for a shutdown between
    sleeps."""
    n = len(batch)
    if math.isinf(speed) or not n:
        if n:
            yield batch
        return
    t_ms = batch.t_ms.astype(np.float64)
    if not clock:
        clock += [time.monotonic(), t_ms[0]]
    start, t0 = clock
    with np.errstate(over="ignore"):  # a tiny speed puts rows due at inf
        due = (np.maximum.accumulate(t_ms) - t0) / (1000.0 * speed)
    i = 0
    while i < n:
        elapsed = time.monotonic() - start
        j = int(due.searchsorted(elapsed, "right"))
        if j <= i:
            time.sleep(min(due[i] - elapsed, WAIT_S))
            j = i
        yield batch.rows(i, j)
        i = j


class _Stopped(Exception):
    """A shutdown seen by a replay: it unwinds the replay's source."""


def _replay(spec: ReplaySpec, feed: Callable, stats: PipelineStats,
            stopping: Callable) -> None:
    """Run a replay's source, handing ``feed`` its rows as they fall due
    (``_replay_chunks``), until the source ends or ``stopping()``; then add
    the rows its report counts as malformed, and its timestamp
    regressions, to ``stats``.

    A paced replay first runs the source into nothing, so a file refused
    at its end (mostly malformed) is refused before any row is due, and
    its counts are that pass's: the whole file's; a stop before a row was
    due counts nothing. At max speed the counts are those of the rows
    read: all of them, unless a stop came first."""
    paced = not math.isinf(spec.speed)
    read = None  # the report of the rows read
    clock: list = []  # the paced schedule, carried from block to block

    def check(batch: SampleBatch, report) -> None:
        nonlocal read
        if stopping():
            raise _Stopped
        read = report

    def take(batch: SampleBatch, report) -> None:
        nonlocal read
        if not paced:
            read = report
        for chunk in _replay_chunks(batch, spec.speed, clock):
            if len(chunk):
                stats.samples_in += len(chunk)
                feed(chunk)
            if stopping():
                raise _Stopped

    try:
        if paced:
            spec.samples(check)
        spec.samples(take)
    except _Stopped:
        if paced and not clock:
            return
    if read is not None:
        stats.samples_in += read.malformed
        stats.malformed += read.malformed
        stats.timestamp_regressions += read.timestamp_regressions


def _deliver(lines: list[str], sinks: list, stats: PipelineStats) -> None:
    """Hand one window list's detection lines to every sink: all of them
    in one emit to a ``batched`` sink, one emit per line to any other (a
    webhook POSTs each detection). A failed emit is retried once; if it
    fails again, each of its lines counts as a sink failure."""
    text = "\n".join(lines)
    for sink in sinks:
        parts = ([(text, len(lines))] if getattr(sink, "batched", False)
                 else [(line, 1) for line in lines])
        for part, n in parts:
            try:
                sink.emit(part)
            except Exception:
                try:
                    sink.emit(part)
                except Exception:
                    stats.sink_failures += n


def run_pipeline(
    config: PipelineConfig, shutdown: threading.Event | None = None
) -> PipelineStats:
    """Run on the calling thread until the source ends or the shutdown
    event fires, then classify everything read. Artifact, sink, and bind
    problems are fatal at startup, and so is a reader process that ends
    without its final message; a replay source's ParseError is fatal when
    it comes, and before it no sink got a line; everything else only moves
    counters."""
    artifact = load_artifact(config.artifact_path)
    stats = PipelineStats()
    queue = BoundedQueue(config.queue_capacity, config.overflow, stats)
    assembler = WindowAssembler(config.window)
    seqs: dict[str, int] = {}
    sinks = []
    reader = None
    source = config.source
    replay = isinstance(source, ReplaySpec)
    # a max-speed replay holds its detection lines (~1.5 B a row) until its
    # source ends; a paced one has checked its source before the first row
    held: list[list[str]] | None = (
        [] if replay and math.isinf(source.speed) else None)

    def stopping() -> bool:
        return shutdown is not None and shutdown.is_set()

    def assemble(batch: SampleBatch) -> None:
        windows = assembler.push(batch)
        if windows:
            queue.put(windows)

    def classify(windows: list[Window]) -> None:
        stats.windows += len(windows)
        detections = classify_windows(artifact, windows, seqs)
        stats.detections += len(detections)
        lines = [detection_line(d) for d in detections]
        if held is None:
            _deliver(lines, sinks, stats)
        else:
            held.append(lines)

    def feed(chunk: SampleBatch) -> None:
        # one push and one get per chunk: replay never queues up
        assemble(chunk)
        windows = queue.get()
        if windows is not None:
            classify(windows)

    interval = config.stats_interval_s
    next_stats = time.monotonic() + interval if interval else math.inf
    try:
        for spec in config.sinks:  # built one by one, so finally closes each
            sinks.append(build_sink(spec))
        if replay:
            _replay(source, feed, stats, stopping)
        else:
            reader = ReaderProcess(source.host, source.port, stats)
            print(f"listening on {reader.host}:{reader.port}",
                  file=sys.stderr, flush=True)
        while reader is not None:
            if stopping():
                reader.stop()  # it closes its sockets, then sends its last
            if reader.done:
                break
            if not queue.full:
                # messages until none waits, the queue is full or a queue's
                # worth of lines is taken: taking more before a get would
                # only shed what this turn took
                wait = 0.0 if queue else min(
                    WAIT_S, max(next_stats - time.monotonic(), 0.0))
                lines = stats.samples_in + config.queue_capacity
                while (not reader.done and not queue.full
                       and stats.samples_in < lines
                       and (batch := reader.take(wait)) is not None):
                    wait = 0.0
                    if len(batch):
                        assemble(batch)
            windows = queue.get()
            if windows is not None:
                classify(windows)
            if interval and time.monotonic() >= next_stats:
                print(stats.format_line(), file=sys.stderr, flush=True)
                next_stats = time.monotonic() + interval
        while (windows := queue.get()) is not None:
            classify(windows)
        for lines in held or ():
            _deliver(lines, sinks, stats)
    finally:
        if reader is not None:
            reader.close()
        stats.partial_window_drops += assembler.finish()
        for sink in sinks:
            try:
                sink.close()
            except Exception:
                pass
    return stats
