"""Count-based windowing.

Windows hold exactly ``size`` consecutive samples of one device; the
default is tumbling 200-sample blocks. Grouping is by count, never by
wall clock, so timestamp gaps do not split windows. Trailing partial
groups are dropped and counted.

Samples arrive as SampleBatch columns and each window holds copies of
its rows: a window's ``t_ms`` and ``acc`` are (n,) and (n, 3) arrays of
its own, never rows of Sample objects or views of a batch. A window
carries no label: ``window_starts`` is the one rule for where windows
begin in a run, and ``prepare`` applies it to a trial's label column with
``majority_label`` to get each window's code.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, MissingLabel
from .ingest import BinaryClass, SampleBatch, map_activity_to_class


@dataclass(frozen=True)
class WindowConfig:
    size: int = 200
    stride: int = 200

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"window size must be >= 1, got {self.size}")
        if not 1 <= self.stride <= self.size:
            raise ConfigError(
                f"stride must satisfy 1 <= stride <= size, got {self.stride}"
            )


def window_starts(n: int, config: WindowConfig) -> range:
    """Offsets of the windows in a run of n consecutive samples."""
    return range(0, n - config.size + 1, config.stride)


@dataclass(frozen=True, eq=False)
class Window:
    """A full run of samples from one device."""

    device_id: str
    t_ms: np.ndarray  # (n,) int64
    acc: np.ndarray  # (n, 3) float64

    @property
    def t_start(self) -> int:
        return int(self.t_ms[0])

    @property
    def t_end(self) -> int:
        return int(self.t_ms[-1])


def majority_label(
    codes: Iterable[str | None], extra: dict[str, BinaryClass] | None = None
) -> str:
    """Most frequent activity code of a labeled sample run.

    Ties break safety-first: a tied fall code wins over a tied ADL code;
    within one class the lexicographically smallest code wins, so the
    same trial always gets the same label codes.
    """
    counts = Counter(codes)
    if None in counts:
        raise MissingLabel("a sample in the run has no label")
    if not counts:
        raise MissingLabel("empty sample run")
    top = max(counts.values())
    tied = [c for c, k in counts.items() if k == top]
    fall_tied = [
        c for c in tied
        if map_activity_to_class(c, extra) is BinaryClass.FALL
    ]
    return min(fall_tied) if fall_tied else min(tied)


class _Pending:
    """A device's samples not yet in a window: raw int64 timestamps and raw
    doubles for the axes (ax, ay, az of each sample in turn)."""

    __slots__ = ("t_ms", "acc")

    def __init__(self):
        self.t_ms = array("q")
        self.acc = array("d")

    def __len__(self) -> int:
        return len(self.t_ms)


class WindowAssembler:
    """Per-device pending samples; emits a Window every time one fills.

    A batch's rows are grouped by device (``SampleBatch.by_device``: one
    stable sort for a mixed batch such as a live read, none for a trial),
    each device's rows are appended to its pending columns with one copy,
    and a window's arrays are copied out when it fills. An idle partial
    device costs memory in proportion to its pending samples.
    """

    def __init__(self, config: WindowConfig):
        self.config = config
        self._pending: dict[str, _Pending] = {}

    def push(self, batch: SampleBatch) -> list[Window]:
        """Windows completed by this batch, in the order their last
        samples arrived."""
        if not len(batch):
            return []  # nor could an empty (0, 3) array be cast to bytes
        config = self.config
        size, stride = config.size, config.stride
        pending = self._pending
        ids, order, ends = batch.by_device()
        t_ms, acc = batch.t_ms, batch.acc
        if order is not None:
            t_ms, acc = t_ms[order], acc[order]
        t_raw = memoryview(np.ascontiguousarray(t_ms, np.int64)).cast("B")
        acc_raw = memoryview(np.ascontiguousarray(acc, np.float64)).cast("B")
        done = []  # (grouped row of the window's last sample, window)
        start = 0
        for device_id, end in zip(ids, ends):
            if end == start:
                continue
            held = pending.get(device_id)
            if held is None:
                held = pending[device_id] = _Pending()
            held.t_ms.frombytes(t_raw[8 * start:8 * end])
            held.acc.frombytes(acc_raw[24 * start:24 * end])
            n = len(held.t_ms)
            if n >= size:
                # the group's rows are the last end - start pending ones,
                # so the window at pending row s ends at grouped row
                # end - n + s + size - 1
                last = end - n + size - 1
                t_ms = np.frombuffer(held.t_ms, dtype=np.int64)
                acc = np.frombuffer(held.acc, dtype=np.float64).reshape(-1, 3)
                starts = window_starts(n, config)
                done += [(last + s, Window(device_id, t_ms[s:s + size].copy(),
                                           acc[s:s + size].copy()))
                         for s in starts]
                del t_ms, acc  # the arrays can be resized once unviewed
                rest = len(starts) * stride
                if rest == n:
                    del pending[device_id]
                else:
                    del held.t_ms[:rest]
                    del held.acc[:3 * rest]
            start = end
        if order is not None and len(done) > 1:
            done.sort(key=lambda item: order[item[0]])
        return [window for _row, window in done]

    def pending(self) -> int:
        """Samples sitting in partial windows right now."""
        return sum(len(held) for held in self._pending.values())

    def finish(self) -> int:
        """Drop and count all partial windows; returns the drop count."""
        dropped = self.pending()
        self._pending.clear()
        return dropped

