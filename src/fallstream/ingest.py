"""Dataset and live-socket sample sources.

Trial files are delimiter-separated text whose layout differs per dataset,
so the column roles, delimiter, units, and label vocabulary extensions all
live in a ColumnMapping (usually loaded from a JSON file). Everything is
converted to one canonical unit regime: m/s^2, integer milliseconds.
Parsed samples travel as a SampleBatch: one int64 timestamp column, one
(n, 3) float64 acceleration array and an optional label column, so trial
replay and live serving hand the pipeline the same type.

The live wire protocol is newline-delimited UTF-8 text, one sample per
line: ``device_id,t_ms,ax,ay,az`` (no label). device_id must match
``[A-Za-z0-9_-]{1,64}``, t_ms is a base-10 integer, accelerations are
decimal floats. A line longer than MAX_LINE_BYTES is malformed.
``parse_wire_line`` is the definition of a valid line. A socket read (up
to READ_BYTES, 16 KiB) is parsed as columns by ``parse_wire_block``, one
conversion per column; the lines it rejects are masked out and counted, so
a malformed line costs only itself. A read's lines are handed on as one
batch that names each device once (in order of first appearance) and
gives each row an index into those names, and the pipeline cuts them into
windows before its queue, so a ``drop_oldest`` shed drops whole windows,
never part of one.

serve reads its sockets in a process of its own: ``ReaderProcess`` binds
the listener and starts ``python -m fallstream.ingest``, whose
``serve_reader`` loop runs SocketSource and sends each read to the main
process as one message on a pipe (the format is described at _HEADER).
The reader ends when its control pipe closes: on a stop, and also when
the main process dies, since the main process holds the pipe's only
write end.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import re
import select
import selectors
import signal
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

import numpy as np

from .errors import ConfigError, ParseError, UnknownActivity

STANDARD_GRAVITY_MS2 = 9.80665

WIRE_DEVICE_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")
# Longest accepted wire line, newline excluded; valid lines are < 200 bytes.
# A longer line is malformed, and the reader never buffers more than this of
# one unterminated line.
MAX_LINE_BYTES = 1024
# timestamps live in int64 columns; a wider value is malformed
_T_LIMIT = 2**63
# Bytes asked of one recv: ~480 live lines. A read's lines are parsed,
# counted and handed on together.
READ_BYTES = 16384
# Seconds the listener is left out of the selector after a failed accept
# (say EMFILE): the pending connection keeps it readable, and selecting on
# it would return at once on every pass.
ACCEPT_RETRY_S = 0.1
# Bytes of trial text parsed as one block of columns; a block ends after a
# newline, so it holds whole lines.
TRIAL_BLOCK_BYTES = 65536
# Fewest blocks a trial file spans for its parse to be split between two
# processes (see _parse_interleaved): a fork, its pinning and its reaping
# cost ~3-6 ms, one block ~2.3 ms.
SPLIT_MIN_BLOCKS = 4
# Line breaks of str.splitlines besides "\n" that UTF-8 writes in more than
# one byte; the one-byte ones are \v \f \r (11-13) and \x1c-\x1e (28-30).
_WIDE_BREAKS = ("\x85".encode(), "\u2028".encode(), "\u2029".encode())
_NEWLINE = ord("\n")


class BinaryClass(Enum):
    FALL = "FALL"
    ADL = "ADL"


# Activity vocabulary: 4 fall codes, 9 daily-living codes.
MOBIACT_ACTIVITIES: dict[str, BinaryClass] = {
    "FOL": BinaryClass.FALL,  # forward-lying
    "FKL": BinaryClass.FALL,  # front-knees-lying
    "SDL": BinaryClass.FALL,  # sideward-lying
    "BSC": BinaryClass.FALL,  # back-sitting-chair
    "STD": BinaryClass.ADL,   # standing
    "WAL": BinaryClass.ADL,   # walking
    "JOG": BinaryClass.ADL,   # jogging
    "JUM": BinaryClass.ADL,   # jumping
    "STU": BinaryClass.ADL,   # stairs up
    "STN": BinaryClass.ADL,   # stairs down
    "SCH": BinaryClass.ADL,   # sit chair
    "CSI": BinaryClass.ADL,   # car step in
    "CSO": BinaryClass.ADL,   # car step out
}


@dataclass(frozen=True, slots=True)
class Sample:
    """One tri-axial accelerometer reading in m/s^2."""

    device_id: str
    t_ms: int
    ax: float
    ay: float
    az: float
    label: str | None = None


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Samples as columns, one row per sample in arrival order.

    ``device_id`` is the one device of every row (a trial), or a list
    naming each device once, in order of first appearance (a live read
    mixes devices); then row i belongs to
    ``device_id[device_index[i]]``. ``labels`` holds one activity code (or
    None) per row, or is None when no row is labeled.
    """

    device_id: str | list[str]
    t_ms: np.ndarray  # (n,) int64
    acc: np.ndarray  # (n, 3) float64: ax, ay, az in m/s^2
    labels: list[str | None] | None = None
    device_index: np.ndarray | None = None  # (n,) uint32 into device_id

    def __len__(self) -> int:
        return len(self.t_ms)

    def rows(self, start: int, stop: int) -> "SampleBatch":
        """Rows start..stop-1; the columns are views of this batch's."""
        index = self.device_index
        return SampleBatch(
            self.device_id,
            self.t_ms[start:stop],
            self.acc[start:stop],
            None if self.labels is None else self.labels[start:stop],
            None if index is None else index[start:stop],
        )

    def by_device(self) -> tuple[list[str], np.ndarray | None, list[int]]:
        """The rows grouped by device, each group in arrival order: the
        devices, the row order that groups them (None for one device: the
        rows as they are) and the end of each device's group in it."""
        if self.device_index is None:
            return [self.device_id], None, [len(self)]
        ids, index = self.device_id, self.device_index
        return (ids, np.argsort(index, kind="stable"),
                np.bincount(index, minlength=len(ids)).cumsum().tolist())

    @classmethod
    def from_samples(cls, samples: Iterable[Sample]) -> "SampleBatch":
        samples = list(samples)
        ids, index = _device_index([s.device_id for s in samples])
        labels = [s.label for s in samples]
        return cls(
            ids[0] if len(ids) == 1 else ids,
            np.array([s.t_ms for s in samples], dtype=np.int64),
            np.array([(s.ax, s.ay, s.az) for s in samples],
                     dtype=np.float64).reshape(-1, 3),
            labels if any(c is not None for c in labels) else None,
            None if len(ids) == 1 else index,
        )


def _device_index(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """Each device of a per-row id list once, in order of first
    appearance, and each row's position in that list."""
    codes = {d: i for i, d in enumerate(dict.fromkeys(ids))}
    return list(codes), np.fromiter(map(codes.__getitem__, ids), np.uint32,
                                    len(ids))


def as_batch(samples: SampleBatch | Iterable[Sample]) -> SampleBatch:
    """A SampleBatch as is; a sequence of Samples converted once."""
    if isinstance(samples, SampleBatch):
        return samples
    return SampleBatch.from_samples(samples)


def map_activity_to_class(
    code: str, extra: dict[str, BinaryClass] | None = None
) -> BinaryClass:
    """Binary class of an activity code; extra entries cover non-MobiAct codes."""
    token = code.strip().upper()
    cls = MOBIACT_ACTIVITIES.get(token)
    if cls is None and extra:
        cls = extra.get(token)
    if cls is None:
        raise UnknownActivity(f"unknown activity code {code!r}")
    return cls


def convert_adc_to_g(bits: int, range_g: float, resolution_bits: int) -> float:
    """Raw converter counts to g: bits * (2 * range_g / 2**resolution_bits)."""
    if not 8 <= resolution_bits <= 16:
        raise ConfigError(f"resolution_bits must be in [8, 16], got {resolution_bits}")
    return bits * (2.0 * range_g / (1 << resolution_bits))


def _is_a(value, types) -> bool:
    """isinstance, with a bool counting as no number."""
    return isinstance(value, types) and not isinstance(value, bool)


_UNITS = ("m/s2", "g", "adc_bits")
_TIME_UNITS = {"ms": 1.0, "s": 1000.0, "us": 1e-3, "ns": 1e-6}


@dataclass
class ColumnMapping:
    """Layout of one dataset's trial files.

    Column roles are integer indices, or names when ``header`` is true.
    ``timestamp=None`` synthesizes timestamps from the sample index at
    ``synthetic_rate_hz`` (for datasets that store no clock at all);
    ``label=None`` yields unlabeled samples.
    """

    ax: int | str
    ay: int | str
    az: int | str
    timestamp: int | str | None = None
    label: int | str | None = None
    delimiter: str = ","
    header: bool = False
    unit: str = "m/s2"
    time_unit: str = "ms"
    synthetic_rate_hz: float | None = None
    adc_range_g: float = 16.0
    adc_resolution_bits: int = 13
    extra_activities: dict[str, BinaryClass] = field(default_factory=dict)

    def __post_init__(self):
        roles = [
            c for c in (self.timestamp, self.ax, self.ay, self.az, self.label)
            if c is not None
        ]
        # a JSON file can hold any type here, and a bool is an int
        if not all(_is_a(c, (int, str)) for c in roles):
            raise ConfigError(f"column roles must be indices or names, got {roles}")
        if not (isinstance(self.delimiter, str) and self.delimiter):
            raise ConfigError("delimiter must be a non-empty string")
        if not isinstance(self.header, bool):
            raise ConfigError(f"header must be true or false, got {self.header!r}")
        if not (_is_a(self.adc_range_g, (int, float))
                and _is_a(self.adc_resolution_bits, int)
                and _is_a(self.synthetic_rate_hz, (int, float, type(None)))):
            raise ConfigError("adc_range_g and synthetic_rate_hz must be "
                              "numbers, adc_resolution_bits an integer")
        if len(set(roles)) != len(roles):
            raise ConfigError("column roles must map to distinct columns")
        if self.unit not in _UNITS:
            raise ConfigError(f"unit must be one of {_UNITS}, got {self.unit!r}")
        if self.time_unit not in _TIME_UNITS:
            raise ConfigError(f"time_unit must be one of {sorted(_TIME_UNITS)}")
        if not 0 < self.adc_range_g < math.inf:
            raise ConfigError("adc_range_g must be positive and finite")
        if (self.timestamp is None
                and not 0 < (self.synthetic_rate_hz or 0) < math.inf):
            raise ConfigError("timestamp=None requires a positive, finite "
                              "synthetic_rate_hz")
        if any(isinstance(c, str) for c in roles) and not self.header:
            raise ConfigError("name-based columns require header=true")
        if self.unit == "adc_bits" and not 8 <= self.adc_resolution_bits <= 16:
            raise ConfigError("adc_resolution_bits must be in [8, 16]")

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnMapping":
        """A mapping from its JSON form; an unknown key raises TypeError."""
        extra = {
            code.upper(): BinaryClass(value)
            for code, value in d.get("extra_activities", {}).items()
        }
        return cls(**{**d, "extra_activities": extra})


def load_mapping(path: str | Path) -> ColumnMapping:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read mapping file {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise ParseError(f"mapping file {path} must hold a JSON object")
    try:
        return ColumnMapping.from_dict(d)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad mapping file {path}: {exc}") from exc


@dataclass
class ParseReport:
    rows: int = 0
    malformed: int = 0
    timestamp_regressions: int = 0


def _resolve_columns(mapping: ColumnMapping, header_fields: list[str] | None):
    def resolve(col):
        if col is None or isinstance(col, int):
            return col
        if header_fields is None:
            raise ParseError(f"column {col!r} is a name but the file has no header")
        try:
            return header_fields.index(col)
        except ValueError:
            raise ParseError(f"column {col!r} not found in header") from None
    return tuple(
        resolve(c)
        for c in (mapping.timestamp, mapping.ax, mapping.ay, mapping.az, mapping.label)
    )


def parse_trial_file(
    data: bytes, mapping: ColumnMapping, device_id: str = "trial",
    emit: Callable | None = None,
) -> tuple[SampleBatch | None, ParseReport]:
    """Parse one trial file into a batch; malformed rows are skipped and counted.

    A row is malformed when a field it needs is missing or unparseable,
    an acceleration is not finite, its timestamp does not fit int64 or its
    label is empty. Raises ParseError when the input is not UTF-8 or more
    than half of the data rows are malformed (which signals a wrong mapping).

    Lines are those of ``str.splitlines``, after a UTF-8 byte-order mark
    at the start if there is one. The text is read in blocks of
    about TRIAL_BLOCK_BYTES cut after a newline, twice: once to check it
    is UTF-8, count its newlines and note where each block starts, once to
    parse it. Each block is parsed as columns by ``_block_columns``; a
    block it rejects is parsed row by row by ``_block_rows``, so malformed
    counts stay exact. The blocks' kept rows then pass, in file order,
    through one consumer, which writes the synthetic clock (of a mapping
    without a clock column: the bits of one ``np.arange`` over the file)
    from a running row index and counts the timestamp regressions with
    the reader's rule (``_count_regressions``).

    Without ``emit`` the consumer collects the rows into the final columns,
    allocated from the newline count, and the result is the file's batch.
    With ``emit``, it calls ``emit(batch, report)`` once per block, in file
    order, with that block's kept rows (maybe none) and the ParseReport of
    the blocks so far (one object, updated in place), keeps nothing, and
    the result is ``(None, report)``. The ParseError of a mostly malformed
    file comes after the last block either way.

    Text of SPLIT_MIN_BLOCKS blocks or more is parsed on two CPUs when the
    process may run on two (``_parse_interleaved``): a forked child parses
    every other block and sends each block's rows over a pipe. Rows,
    report and errors are those of one process. Fewer blocks, or one CPU,
    take one process. Either way memory holds a few blocks per process and
    what the consumer keeps: 32 B per row and the label list without
    ``emit``, nothing with it.
    """
    return _parse_trial(io.BytesIO(data), mapping, device_id, emit)


def parse_trial_path(
    path: str | Path, mapping: ColumnMapping, device_id: str | None = None,
    emit: Callable | None = None,
) -> tuple[SampleBatch | None, ParseReport]:
    """``parse_trial_file`` of a file, read a block at a time."""
    path = Path(path)
    try:
        with open(path, "rb") as stream:
            if not stream.seekable():  # a pipe can be read only once
                stream = io.BytesIO(stream.read())
            return _parse_trial(stream, mapping, device_id or path.stem, emit)
    except OSError as exc:
        raise ParseError(f"cannot read trial file {path}: {exc}") from exc


def _parse_trial(stream: BinaryIO, mapping: ColumnMapping, device_id: str,
                 emit: Callable | None) -> tuple[SampleBatch | None,
                                                  ParseReport]:
    edges, newlines = _count_rows(stream)
    read = _reader(stream)
    bom = codecs.BOM_UTF8
    if read(0, len(bom)) == bom:  # a byte-order mark is no part of any line
        edges[0] = len(bom)
    # a file of only the mark leaves an empty span: no line
    spans = [(start, end) for start, end in zip(edges, edges[1:])
             if start < end]
    delimiter = mapping.delimiter
    header_fields = None
    if mapping.header:
        if not spans:
            empty = SampleBatch(device_id, np.empty(0, dtype=np.int64),
                                np.empty((0, 3)))
            return (empty if emit is None else None), ParseReport()
        start, end = spans[0]
        block = read(start, end)
        head = block[:block.find(b"\n") + 1 or len(block)].decode("utf-8")
        first = head.splitlines(keepends=True)[0]
        header_fields = [f.strip()
                         for f in first.splitlines()[0].split(delimiter)]
        spans[0] = (start + len(first.encode("utf-8")), end)

    cols = _resolve_columns(mapping, header_fields)
    t_col, label_col = cols[0], cols[4]
    if mapping.unit == "m/s2":
        accel_factor = 1.0
    elif mapping.unit == "g":
        accel_factor = STANDARD_GRAVITY_MS2
    else:  # adc_bits: counts -> g -> m/s^2
        accel_factor = (
            convert_adc_to_g(1, mapping.adc_range_g, mapping.adc_resolution_bits)
            * STANDARD_GRAVITY_MS2
        )
    time_factor = _TIME_UNITS[mapping.time_unit]
    # converter counts must be integers; float() and int() both ignore
    # surrounding whitespace, so only the label field is stripped
    number = _count_as_float if mapping.unit == "adc_bits" else float
    # raw label field -> code, interned: one object per code
    codes: dict[str, str] = {}

    def parse(index: int) -> tuple:
        """Block ``index``'s kept rows as (t_ms, acc, labels) and its rows
        (lines that are not blank); t_ms is all 0 without a clock column,
        labels None without a label column."""
        block = read(*spans[index])
        parsed = _block_columns(block, delimiter, cols, number, codes)
        if parsed is None:
            block_lines = block.decode("utf-8").splitlines()
            parsed, blank = _block_rows(block_lines, delimiter, cols, number,
                                        codes)
            rows = len(block_lines) - blank
        else:
            rows = len(parsed[1])
        t, x, y, z, labels = parsed
        acc = np.empty((len(x), 3))
        acc[:, 0], acc[:, 1], acc[:, 2] = x, y, z
        if accel_factor != 1.0:
            acc *= accel_factor
        ok = np.isfinite(acc).all(axis=1)
        if t_col is not None:
            t = np.rint(np.array(t, dtype=np.float64) * time_factor)
            ok &= (t >= -_T_LIMIT) & (t < _T_LIMIT)  # False for nan
        if not ok.all():
            acc = acc[ok]
            if t_col is not None:
                t = t[ok]
            if label_col is not None:
                labels = list(compress(labels, ok.tolist()))
        t_ms = (np.zeros(len(acc), np.int64) if t_col is None
                else t.astype(np.int64))
        return t_ms, acc, None if label_col is None else labels, rows

    report = ParseReport()
    last_t: dict[str, int] = {}  # t_ms of the last kept row so far

    def take(t_ms: np.ndarray, acc: np.ndarray, labels: list | None,
             rows: int) -> None:
        """The next block's rows, in file order: the synthetic clock, the
        steps back, the report, then ``emit``."""
        n, k = report.rows - report.malformed, len(acc)
        if t_col is None:  # the same bits as one np.arange over the file
            t_ms = np.rint(np.arange(n, n + k) * 1000.0
                           / mapping.synthetic_rate_hz).astype(np.int64)
        batch = SampleBatch(device_id, t_ms, acc, labels)
        report.timestamp_regressions += _count_regressions(batch, last_t)
        report.rows += rows
        report.malformed += rows - k
        emit(batch, report)

    columns = None
    if emit is None:
        columns = emit = _Columns(newlines[-1] + 1, label_col is not None)
    if len(spans) >= SPLIT_MIN_BLOCKS and len(cpus := _split_cpus()) >= 2:
        _parse_interleaved(parse, take, len(spans), cpus,
                           label_col is not None)
    else:
        for index in range(len(spans)):
            take(*parse(index))
    if report.rows and report.malformed * 2 > report.rows:
        raise ParseError(f"{report.malformed}/{report.rows} rows malformed; "
                         f"mapping is likely wrong")
    return (None if columns is None else columns.batch(device_id)), report


class _Columns:
    """Batches collected, in order, into columns allocated for ``size``
    rows; a row-parsed block can split lines at breaks other than "\\n"
    too, and then the columns grow."""

    def __init__(self, size: int, labeled: bool):
        self.t_ms = np.empty(size, dtype=np.int64)
        self.acc = np.empty((size, 3))
        self.labels: list[str] | None = [] if labeled else None
        self.n = 0

    def __call__(self, batch: SampleBatch, _report=None) -> None:
        n, k = self.n, len(batch)
        if n + k > len(self.t_ms):
            self.t_ms = np.resize(self.t_ms, 2 * (n + k))
            self.acc = np.resize(self.acc, (2 * (n + k), 3))
        self.t_ms[n:n + k] = batch.t_ms
        self.acc[n:n + k] = batch.acc
        if self.labels is not None:
            self.labels += batch.labels
        self.n = n + k

    def batch(self, device_id: str) -> SampleBatch:
        return SampleBatch(device_id, self.t_ms[:self.n], self.acc[:self.n],
                           self.labels)


def _split_cpus() -> list[int]:
    """The CPUs this process may run on, when a split parse may fork it:
    none where the system does not say, or while another thread runs (a
    lock that thread holds would stay held in the child for good)."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _parse_interleaved(parse: Callable, take: Callable, blocks: int,
                       cpus: list[int], labeled: bool) -> None:
    """``take(*parse(i))`` for every block i in order, the even blocks
    parsed by a forked child; this process and the child are each pinned
    to a CPU of their own (a forked child left unpinned stays on its
    parent's CPU).

    The child parses blocks 0, 2, 4, ..., reading them by offset as this
    process does, so neither moves the file position they share, and sends
    each block's rows as one reader message (``_message``: the rows read so
    far in the header, the kept rows as columns, their label codes as the
    names) over a pipe, then ends through ``os._exit``. The pipe's capacity
    holds the child at most a block or so ahead. This process parses each
    odd block while the child parses the block before it, then takes the
    two in order, each label code one object. When the child sends no more
    (it failed, or was killed), this process parses the blocks it has not
    received. The child is reaped on every path."""
    readable, writable = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: parse it all here
        os.close(readable)
        os.close(writable)
        for index in range(blocks):
            take(*parse(index))
        return
    if pid == 0:  # the child: its blocks' messages, and nothing else
        code = 1
        try:
            os.sched_setaffinity(0, {cpus[1]})
            counts = ReadCounts()
            for index in range(0, blocks, 2):
                t_ms, acc, labels, rows = parse(index)
                counts.samples_in += rows
                counts.malformed += rows - len(acc)
                names, codes = (_device_index(labels) if labeled
                                else ([], np.zeros(len(acc), np.uint32)))
                _write_all(writable, _message(
                    counts, SampleBatch(names, t_ms, acc, device_index=codes),
                    final=index + 2 >= blocks))
            code = 0
        finally:
            os._exit(code)  # flushes no stdio buffer it shares with its parent
    os.close(writable)
    counts = ReadCounts()
    pipe = ReaderPipe(readable, counts)
    try:
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[0]})
        try:
            child, received = True, 0  # rows of the child's blocks taken
            for index in range(0, blocks, 2):
                mine = parse(index + 1) if index + 1 < blocks else None
                batch = None
                if child:
                    try:
                        while (batch := pipe.take(None)) is None:
                            pass
                    except OSError:  # it ended before sending this block
                        child = False
                if batch is None:
                    take(*parse(index))
                else:
                    labels = None
                    if labeled:
                        names = list(map(sys.intern, batch.device_id))
                        labels = list(map(names.__getitem__,
                                          batch.device_index.tolist()))
                    take(batch.t_ms, batch.acc, labels,
                         counts.samples_in - received)
                    received = counts.samples_in
                if mine is not None:
                    take(*mine)
        finally:
            os.sched_setaffinity(0, affinity)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()
        os.waitpid(pid, 0)


def _blocks(stream: BinaryIO):
    """The stream's bytes from where it is, in blocks of TRIAL_BLOCK_BYTES
    extended to the next newline (or the end)."""
    while block := stream.read(TRIAL_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += stream.readline()
        yield block


def _count_rows(stream: BinaryIO) -> tuple[list[int], list[int]]:
    """Where each block of a whole stream starts and how many "\\n" come
    before it, each list closed by the stream's total; ParseError when it
    is not UTF-8, with the message that decoding it whole gives (a block
    ends at a newline, so no character spans two)."""
    edges, newlines = [0], [0]
    for block in _blocks(stream):
        offset = edges[-1]
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                start, end = offset + exc.start, offset + exc.end
                at = (f"byte 0x{block[exc.start]:02x} in position {start}"
                      if end == start + 1
                      else f"bytes in position {start}-{end - 1}")
                raise ParseError(
                    f"trial file is not UTF-8 text: 'utf-8' codec can't "
                    f"decode {at}: {exc.reason}") from exc
        edges.append(offset + len(block))
        newlines.append(newlines[-1] + int(np.count_nonzero(
            np.frombuffer(block, np.uint8) == _NEWLINE)))
    return edges, newlines


def _reader(stream: BinaryIO) -> Callable[[int, int], bytes]:
    """A function of (start, end) reading those bytes of the stream without
    moving it: a forked child shares an open file's position with its
    parent."""
    if isinstance(stream, io.BytesIO):
        view = stream.getbuffer()
        return lambda start, end: bytes(view[start:end])
    fd = stream.fileno()
    return lambda start, end: os.pread(fd, end - start, start)


def _block_columns(block: bytes, delimiter: str, cols: tuple, number,
                   codes: dict[str, str]) -> tuple | None:
    """The rows of a block of whole lines as (t, x, y, z, labels) columns,
    converted one column at a time; None when the block holds a line the
    row loop might parse otherwise: another field count (so a blank line),
    a line break other than "\\n", a failed conversion or an empty label;
    also for a delimiter other than one ASCII character.

    The conversions are the row loop's, on the same field strings, so an
    accepted block gives the same rows, bit for bit."""
    if len(delimiter) != 1 or not delimiter.isascii():
        return None
    body = block[:-1] if block.endswith(b"\n") else block
    octets = np.frombuffer(body, np.uint8)
    if ((octets - 11 < 3) | (octets - 28 < 3)).any() or (
            not body.isascii() and any(b in body for b in _WIDE_BREAKS)):
        return None
    split = _split_fields(body, delimiter)
    if split is None:
        return None
    fields, width = split
    if not all(-width <= c < width for c in cols if c is not None):
        return None  # fields[c] raises IndexError on every line
    t_col, x_col, y_col, z_col, label_col = (
        None if c is None else c % width for c in cols)
    try:
        x = list(map(number, fields[x_col::width]))
        y = list(map(number, fields[y_col::width]))
        z = list(map(number, fields[z_col::width]))
        t = None if t_col is None else list(map(float, fields[t_col::width]))
    except (ValueError, OverflowError):
        return None
    labels = None
    if label_col is not None:
        raw = fields[label_col::width]
        for field_ in set(raw).difference(codes):
            code = field_.strip().upper()
            if not code:
                return None
            codes[field_] = sys.intern(code)
        labels = list(map(codes.__getitem__, raw))
    return t, x, y, z, labels


def _split_fields(body: bytes, sep: str):
    """The fields of newline-joined lines as one flat list and the fields
    per line; None when a line holds another number of ``sep`` (one ASCII
    character) than the others, when the lines hold none or when the body
    is not UTF-8.

    The separators are counted on the bytes: UTF-8 never puts an ASCII byte
    inside a multibyte character."""
    octets = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(octets == _NEWLINE)
    n = len(ends) + 1
    seps = np.flatnonzero(octets == ord(sep))
    per_line = len(seps) // n
    if per_line == 0 or len(seps) != per_line * n:
        return None
    seps = seps.reshape(n, per_line)
    # per_line * n separators in order, line i's first and last inside line
    # i: every line holds exactly per_line
    if (seps[1:, 0] < ends).any() or (seps[:-1, -1] > ends).any():
        return None
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return text.replace("\n", sep).split(sep), per_line + 1


def _block_rows(lines: list[str], delimiter: str, cols: tuple, number,
                codes: dict[str, str]) -> tuple[tuple, int]:
    """The parseable rows of ``lines`` as (t, x, y, z, labels) columns, one
    row at a time, and how many lines were blank."""
    t_col, x_col, y_col, z_col, label_col = cols
    ts: list[float] = []
    xs: list[float] = []
    ys: list[float] = []
    zs: list[float] = []
    labels: list[str] = []
    blank = 0
    for line in lines:
        fields = line.split(delimiter)
        try:
            x = number(fields[x_col])
            y = number(fields[y_col])
            z = number(fields[z_col])
            t = 0.0 if t_col is None else float(fields[t_col])
            if label_col is not None:
                raw = fields[label_col]
                code = codes.get(raw)
                if code is None:
                    code = raw.strip().upper()
                    if not code:
                        raise ValueError("empty label field")
                    code = codes[raw] = sys.intern(code)
                labels.append(code)
        except (ValueError, IndexError, OverflowError):
            # a blank line always lands here; it is not a row
            if not line.strip():
                blank += 1
            continue
        ts.append(t)
        xs.append(x)
        ys.append(y)
        zs.append(z)
    return (ts, xs, ys, zs, labels), blank


def _count_as_float(field: str) -> float:
    return float(int(field))


def parse_wire_line(line: str) -> tuple[str, int, float, float, float] | None:
    """One protocol line to (device_id, t_ms, ax, ay, az), or None when
    malformed: the rule ``parse_wire_block`` is held to, line by line, and
    the name the traced benchmark launcher wraps."""
    fields = line.rstrip("\r").split(",")
    if len(fields) != 5:
        return None
    device_id, t_raw, x_raw, y_raw, z_raw = fields
    if not WIRE_DEVICE_RE.match(device_id):
        return None
    try:
        t_ms = int(t_raw)
        ax, ay, az = float(x_raw), float(y_raw), float(z_raw)
    except ValueError:
        return None
    if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(az)):
        return None
    if not -_T_LIMIT <= t_ms < _T_LIMIT:
        return None
    return device_id, t_ms, ax, ay, az


def parse_wire_block(block: bytes) -> tuple[SampleBatch, int]:
    """Newline-joined complete protocol lines as one batch, converted a
    column at a time, and how many lines were left out: those that
    ``parse_wire_line`` rejects, so the rows are its rows, bit for bit.

    A line with other than 4 commas or over MAX_LINE_BYTES goes before the
    split. The text is decoded with errors="replace", which keeps every
    comma and newline (UTF-8 never puts an ASCII byte inside a multibyte
    character), and no field's conversion accepts U+FFFD."""
    octets = np.frombuffer(block, np.uint8)
    # line i runs from edges[i] + 1 to edges[i + 1], each edge a newline or
    # the block's end
    edges = np.concatenate(
        ([-1], np.flatnonzero(octets == _NEWLINE), [len(block)]))
    commas = np.flatnonzero(octets == ord(",")).searchsorted(edges)
    shaped = (np.diff(commas) == 4) & (np.diff(edges) <= MAX_LINE_BYTES + 1)
    if not shaped.all():
        block = b"\n".join(compress(block.split(b"\n"), shaped.tolist()))
    fields = (block.decode("utf-8", "replace").replace("\n", ",").split(",")
              if shaped.any() else [])
    ids, index = _device_index(fields[0::5])
    keep = np.array([bool(WIRE_DEVICE_RE.match(d)) for d in ids], bool)[index]
    t = _convert_each(int, fields[1::5], _T_LIMIT)  # refused: past int64
    try:
        t_ms = np.array(t, np.int64)
    except OverflowError:  # a t_ms outside int64, or a refused one
        fits = [-_T_LIMIT <= v < _T_LIMIT for v in t]
        keep &= fits
        t_ms = np.array([v if ok else 0 for v, ok in zip(t, fits)], np.int64)
    acc = np.empty((len(t), 3))
    for axis in range(3):
        acc[:, axis] = _convert_each(float, fields[2 + axis::5], math.nan)
        keep &= np.isfinite(acc[:, axis])
    if not keep.all():
        ids, index = _device_index([ids[i] for i in index[keep].tolist()])
        t_ms, acc = t_ms[keep], acc[keep]
    return (SampleBatch(ids, t_ms, acc, device_index=index),
            len(shaped) - len(t_ms))


def _convert_each(convert: Callable, fields: list[str], refused) -> list:
    """``convert`` mapped over the fields; only when it raises ValueError
    are they converted one at a time, ``refused`` for each that raises."""
    try:
        return list(map(convert, fields))
    except ValueError:
        out = []
        for f in fields:
            try:
                out.append(convert(f))
            except ValueError:
                out.append(refused)
        return out


def _count_regressions(batch: SampleBatch, last_t: dict[str, int]) -> int:
    """Samples older than their device's previous one; advances last_t."""
    ids, order, ends = batch.by_device()
    t_ms = batch.t_ms if order is None else batch.t_ms[order]
    back = t_ms[1:] < t_ms[:-1]
    # a step from one device's group to the next is no step back
    back[[end - 1 for end in ends if 0 < end < len(t_ms)]] = False
    regressions = int(back.sum())
    start = 0
    for device_id, end in zip(ids, ends):
        if end > start:
            prev = last_t.get(device_id)
            if prev is not None and int(t_ms[start]) < prev:
                regressions += 1
            last_t[device_id] = int(t_ms[end - 1])
        start = end
    return regressions


def bind_listener(host: str, port: int) -> socket.socket:
    """A TCP socket listening on host:port (0: any free port)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
    except OSError:
        listener.close()
        raise
    return listener


@dataclass(slots=True)
class _Connection:  # what the source keeps of one open connection
    tail: bytes = b""  # the unterminated start of the next line
    skipping: bool = False  # discarding an over-long line through its newline
    last_t: dict[str, int] = field(default_factory=dict)  # per device


class SocketSource:
    """A listening TCP socket (from ``bind_listener``) turning protocol
    lines into a single sample stream; ``close`` closes it.

    It starts no thread: the caller's loop (serve's reader process, see
    ``serve_reader``) calls ``poll``, which makes one selector pass over the
    listener and every connection, accepting what waits (after a failed
    accept the listener sits out ACCEPT_RETRY_S) and reading each ready
    connection once (up to READ_BYTES), so lines are never reordered
    within a connection and one stalled client holds up no other. A read's
    complete lines are parsed as columns, its malformed lines left out and
    counted, and handed on as one ``emit(SampleBatch)`` call, each of its
    devices named once and indexed per row.
    What the caller does not read stays in the kernel, so a caller that
    stops polling (the reader, while its write to a full pipe blocks) gives
    clients TCP backpressure.
    ``stats`` is any object with integer samples_in / malformed /
    timestamp_regressions attributes. A timestamp regression is a sample
    older than the previous one of its device on the same connection; a
    connection's state goes when it closes.
    """

    def __init__(self, listener: socket.socket, emit: Callable, stats):
        listener.setblocking(False)
        self._listener = listener
        self._emit = emit
        self.stats = stats
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._accept_at: float | None = None  # when a paused listener resumes

    def poll(self, timeout: float) -> bool:
        """One selector pass, waiting up to ``timeout`` seconds for a ready
        socket; whether any was ready."""
        if self._accept_at is not None:
            left = self._accept_at - time.monotonic()
            if left <= 0:
                self._selector.register(self._listener, selectors.EVENT_READ)
                self._accept_at = None
            else:
                timeout = min(timeout, left)
        ready = self._selector.select(timeout)
        for key, _events in ready:
            if key.data is None:
                self._accept(key.fileobj)
            else:
                self._read(key)
        return bool(ready)

    def close(self) -> None:
        """Close every socket, counting each connection's unterminated line
        once; the counters are final after."""
        for key in list(self._selector.get_map().values()):
            self._close(key)
        self._selector.close()
        self._listener.close()

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn, _addr = listener.accept()
        except OSError:
            # EMFILE and the like leave it queued: try again after a pause
            self._selector.unregister(listener)
            self._accept_at = time.monotonic() + ACCEPT_RETRY_S
            return
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ, _Connection())

    def _read(self, key: selectors.SelectorKey) -> None:
        state = key.data
        try:
            chunk = key.fileobj.recv(READ_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # a reset ends the connection like EOF
        if not chunk:
            self._close(key)
            return
        if state.skipping:
            end = chunk.find(b"\n")
            if end < 0:
                return
            chunk = chunk[end + 1:]
            state.skipping = False
        cut = chunk.rfind(b"\n")
        if cut < 0:
            state.tail += chunk
        else:
            self._handle_block(state.tail + chunk[:cut], state.last_t)
            state.tail = chunk[cut + 1:]
        if len(state.tail) > MAX_LINE_BYTES:
            self._count_dropped_line()
            state.tail = b""
            state.skipping = True

    def _close(self, key: selectors.SelectorKey) -> None:
        # an unterminated tail at disconnect, blank or not, is a lost line
        if key.data is not None and key.data.tail:
            self._count_dropped_line()
        self._selector.unregister(key.fileobj)
        key.fileobj.close()

    def _handle_block(self, block: bytes, last_t: dict[str, int]) -> None:
        """Parse, count and emit a read's complete lines (newline-joined)."""
        batch, rejected = parse_wire_block(block)
        self.stats.samples_in += len(batch) + rejected
        self.stats.malformed += rejected
        self.stats.timestamp_regressions += _count_regressions(batch, last_t)
        if len(batch):
            self._emit(batch)

    def _count_dropped_line(self) -> None:
        self.stats.samples_in += 1
        self.stats.malformed += 1


# -- serve's reader process ---------------------------------------------------
#
# serve runs SocketSource in a process of its own, which sends the main
# process one message per read over a pipe; a read that holds no line but
# moves a counter (malformed lines only, a dropped over-long line, a
# closed connection's tail) has its counters sent alone after the pass. A
# message is _HEADER, then the read's rows as raw columns: t_ms (int64),
# acc (float64, ax ay az per row) and a uint32 index per row into the
# read's device ids, then those ids (each once, newline-joined, UTF-8),
# zero-padded to a multiple of 8 bytes. The numbers come first, so each
# column of a message read back to back with others stays aligned. Byte
# order and widths are the machine's own; no message is pickled.
_HEADER = struct.Struct("=3q3I4x")
# The header's fields: the reader's cumulative samples_in, malformed and
# timestamp_regressions; the message's rows; the bytes of its id list; 1 on
# the reader's final message, else 0.
_ROW_BYTES = 8 + 24 + 4  # t_ms, acc and index of one row
# Longest wait of the reader for a ready socket: it looks at its control
# pipe between waits, so it sees a stop, or the end of the main process,
# within this time.
READER_WAIT_S = 0.05
# Bytes asked of one read of the data pipe: a Linux pipe's default capacity
PIPE_READ_BYTES = 65536
# Seconds close gives a stopped reader to exit before killing it
READER_STOP_S = 5.0


@dataclass
class ReadCounts:
    """The reader's counters, cumulative, as each message carries them."""

    samples_in: int = 0
    malformed: int = 0
    timestamp_regressions: int = 0

    def totals(self) -> tuple[int, int, int]:
        return self.samples_in, self.malformed, self.timestamp_regressions


def _message(counts: ReadCounts, batch: SampleBatch | None = None,
             final: bool = False) -> bytes:
    """One pipe message: the counters, and the rows of ``batch`` if any."""
    if batch is None:
        return _HEADER.pack(*counts.totals(), 0, 0, final)
    id_bytes = "\n".join(batch.device_id).encode()
    return b"".join((
        _HEADER.pack(*counts.totals(), len(batch), len(id_bytes), final),
        batch.t_ms.astype(np.int64, copy=False).tobytes(),
        batch.acc.astype(np.float64, copy=False).tobytes(),
        batch.device_index.tobytes(),
        id_bytes,
        bytes(-len(id_bytes) % 8),
    ))


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def serve_reader(listener: socket.socket, data_fd: int,
                 control_fd: int) -> None:
    """The reader process's loop: SocketSource passes over ``listener`` and
    its connections, one message to ``data_fd`` per read that holds a line
    and one after a pass that moved a counter otherwise (malformed lines
    only, a dropped line, a closed tail), until ``control_fd`` turns
    readable (the main process closed it, or ended). Then it closes every
    connection, counting each unterminated line, and sends the final
    message. A write to a data pipe nobody reads any more raises
    BrokenPipeError."""
    counts = ReadCounts()
    sent = (0, 0, 0)

    def send(batch: SampleBatch | None = None, final: bool = False) -> None:
        nonlocal sent
        _write_all(data_fd, _message(counts, batch, final))
        sent = counts.totals()

    source = SocketSource(listener, emit=send, stats=counts)
    control = select.poll()
    control.register(control_fd, select.POLLIN)
    try:
        while not control.poll(0):
            source.poll(READER_WAIT_S)
            if sent != counts.totals():
                send()  # a read with no line, a dropped line, a close
    finally:
        source.close()
    send(final=True)


class ReaderPipe:
    """The main process's end of the reader's data pipe. ``take`` turns the
    next message back into a batch whose columns are views of the bytes
    read, and copies the message's counters into ``stats``; ``done`` is
    true once the final message is taken."""

    def __init__(self, data_fd: int, stats):
        self.stats = stats
        self.done = False
        self._data = open(data_fd, "rb", buffering=0)
        self._buf = b""  # bytes read from the pipe, from _at on untaken
        self._at = 0

    def take(self, timeout: float) -> SampleBatch | None:
        """The rows of the next message, waiting up to ``timeout`` seconds
        for its bytes; None when no whole message is there. Raises OSError
        when the reader ends without its final message."""
        batch = self._decode()
        if batch is None and select.select([self._data], [], [], timeout)[0]:
            chunk = self._data.read(PIPE_READ_BYTES)
            if not chunk:
                raise OSError("the reader process ended before its final "
                              "message")
            self._buf = self._buf[self._at:] + chunk
            self._at = 0
            batch = self._decode()
        return batch

    def _decode(self) -> SampleBatch | None:
        buf, at = self._buf, self._at
        if len(buf) - at < _HEADER.size:
            return None
        (samples_in, malformed, regressions, n, id_bytes,
         final) = _HEADER.unpack_from(buf, at)
        at += _HEADER.size
        ids_at = at + _ROW_BYTES * n
        end = ids_at + id_bytes + -id_bytes % 8
        if len(buf) < end:
            return None
        self._at = end
        stats = self.stats
        stats.samples_in = samples_in
        stats.malformed = malformed
        stats.timestamp_regressions = regressions
        self.done = bool(final)
        if not n:
            return SampleBatch([], np.empty(0, np.int64), np.empty((0, 3)),
                               device_index=np.empty(0, np.uint32))
        return SampleBatch(
            buf[ids_at:ids_at + id_bytes].decode().split("\n"),
            np.frombuffer(buf, np.int64, n, at),
            np.frombuffer(buf, np.float64, 3 * n, at + 8 * n).reshape(n, 3),
            device_index=np.frombuffer(buf, np.uint32, n, at + 32 * n),
        )

    def close(self) -> None:
        self._data.close()


class ReaderProcess(ReaderPipe):
    """serve's reader process, and its pipes.

    The listener is bound here, so a bind failure is fatal at once and
    clients can connect before the reader runs; then ``python -m
    fallstream.ingest`` starts with the listener and two pipes: data
    (reader to main) and control (main to reader, never written). ``stop``
    closes the control pipe: the reader closes its connections and sends
    its final message. ``close`` reaps the reader; one still running is
    stopped first, and one blocked writing to the data pipe gets EPIPE.
    """

    def __init__(self, host: str, port: int, stats):
        listener = bind_listener(host, port)
        self.host, self.port = host, listener.getsockname()[1]
        import subprocess  # only serve pays for this import, once it listens

        # the reader imports this very package, whatever put it on sys.path,
        # so both ends agree on the message format
        package_root = str(Path(__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        fds: list[int] = []
        try:
            data_r, data_w = os.pipe()
            fds += (data_r, data_w)
            control_r, control_w = os.pipe()
            fds += (control_r, control_w)
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "fallstream.ingest",
                 str(listener.fileno()), str(data_w), str(control_r)],
                pass_fds=(listener.fileno(), data_w, control_r),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                start_new_session=True, env=env)
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        finally:
            listener.close()
        # the reader holds the only copies of these now: its exit closes them
        os.close(data_w)
        os.close(control_r)
        super().__init__(data_r, stats)
        self._control = open(control_w, "wb", buffering=0)

    def stop(self) -> None:
        """Ask the reader to close its connections and finish."""
        self._control.close()

    def close(self) -> None:
        import subprocess

        self.stop()
        super().close()
        try:
            self._proc.wait(timeout=READER_STOP_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


if __name__ == "__main__":
    # the reader process: python -m fallstream.ingest LISTENER DATA CONTROL.
    # Its life is bound to the control pipe, not to signals: a signal sent
    # to every process of a service reaches the main process, which stops
    # the reader and takes its last counts.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    listener_fd, data_fd, control_fd = map(int, sys.argv[1:4])
    try:
        serve_reader(socket.socket(fileno=listener_fd), data_fd, control_fd)
    except BrokenPipeError:
        pass  # the main process has ended: no one takes the counts
