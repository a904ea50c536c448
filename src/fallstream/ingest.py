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
conversion per column; a read holding a line it rejects is parsed line by
line instead, so each malformed line is still counted. A read's lines are
handed on as one batch, and the pipeline cuts them into windows before its
queue, so a ``drop_oldest`` shed drops whole windows, never part of one.
"""

from __future__ import annotations

import json
import math
import re
import selectors
import socket
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

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

    ``device_id`` is the one device of every row, or a list with one id
    per row (a live chunk mixes devices). ``labels`` holds one activity
    code (or None) per row, or is None when no row is labeled.
    """

    device_id: str | list[str]
    t_ms: np.ndarray  # (n,) int64
    acc: np.ndarray  # (n, 3) float64: ax, ay, az in m/s^2
    labels: list[str | None] | None = None

    def __len__(self) -> int:
        return len(self.t_ms)

    def rows(self, start: int, stop: int) -> "SampleBatch":
        """Rows start..stop-1; the columns are views of this batch's."""
        ids = self.device_id
        return SampleBatch(
            ids if isinstance(ids, str) else ids[start:stop],
            self.t_ms[start:stop],
            self.acc[start:stop],
            None if self.labels is None else self.labels[start:stop],
        )

    @classmethod
    def from_samples(cls, samples: Iterable[Sample]) -> "SampleBatch":
        samples = list(samples)
        ids = [s.device_id for s in samples]
        labels = [s.label for s in samples]
        return cls(
            ids[0] if ids and ids.count(ids[0]) == len(ids) else ids,
            np.array([s.t_ms for s in samples], dtype=np.int64),
            np.array([(s.ax, s.ay, s.az) for s in samples],
                     dtype=np.float64).reshape(-1, 3),
            labels if any(c is not None for c in labels) else None,
        )


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
        if self.timestamp is None:
            if not self.synthetic_rate_hz or self.synthetic_rate_hz <= 0:
                raise ConfigError(
                    "timestamp=None requires a positive synthetic_rate_hz"
                )
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
    data: bytes, mapping: ColumnMapping, device_id: str = "trial"
) -> tuple[SampleBatch, ParseReport]:
    """Parse one trial file into a batch; malformed rows are skipped and counted.

    A row is malformed when a field it needs is missing or unparseable,
    an acceleration is not finite, its timestamp does not fit int64 or its
    label is empty. Raises ParseError when the input is unreadable or more
    than half of the data rows are malformed (which signals a wrong mapping).

    Lines are those of ``str.splitlines``. The text is parsed in blocks of
    about TRIAL_BLOCK_BYTES cut after a newline, each as columns by
    ``_block_columns``; a block it rejects is parsed row by row by
    ``_block_rows``, so malformed counts stay exact. Both write into arrays
    allocated up front, and memory holds one block's strings at a time.
    """
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"trial file is not UTF-8 text: {exc}") from exc

    delimiter = mapping.delimiter
    header_fields = None
    start = 0
    if mapping.header:
        if not data:
            return SampleBatch(device_id, np.empty(0, dtype=np.int64),
                               np.empty((0, 3))), ParseReport()
        head = data[:data.find(b"\n") + 1 or len(data)].decode("utf-8")
        first = head.splitlines(keepends=True)[0]
        header_fields = [f.strip()
                         for f in first.splitlines()[0].split(delimiter)]
        start = len(first.encode("utf-8"))

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
    # converter counts must be integers; float() and int() both ignore
    # surrounding whitespace, so only the label field is stripped
    number = _count_as_float if mapping.unit == "adc_bits" else float

    # one row per "\n" and one more; a row-parsed block can split lines at
    # other breaks too, and then the arrays grow
    size = data.count(b"\n", start) + 1
    ts = np.empty(size) if t_col is not None else None
    acc = np.empty((size, 3))
    labels: list[str] = []
    codes: dict[str, str] = {}  # raw label field -> code, one object per code
    n = rows = 0  # rows parsed; lines that are not blank
    while start < len(data):
        stop = data.find(b"\n", start + TRIAL_BLOCK_BYTES - 1) + 1 or len(data)
        block = data[start:stop]
        start = stop
        parsed = _block_columns(block, delimiter, cols, number, codes)
        if parsed is None:
            block_lines = block.decode("utf-8").splitlines()
            parsed, blank = _block_rows(block_lines, delimiter, cols, number,
                                        codes)
            rows += len(block_lines) - blank
        else:
            rows += len(parsed[1])
        t, x, y, z, block_labels = parsed
        k = len(x)
        if n + k > len(acc):  # rows past n are overwritten or cut
            acc = np.resize(acc, (2 * (n + k), 3))
            ts = None if ts is None else np.resize(ts, 2 * (n + k))
        acc[n:n + k, 0], acc[n:n + k, 1], acc[n:n + k, 2] = x, y, z
        if ts is not None:
            ts[n:n + k] = t
        if label_col is not None:
            labels += block_labels
        n += k

    acc = acc[:n]
    if accel_factor != 1.0:
        acc *= accel_factor
    ok = np.isfinite(acc).all(axis=1)
    if t_col is not None:
        t_ms = np.rint(ts[:n] * _TIME_UNITS[mapping.time_unit])
        ok &= (t_ms >= -_T_LIMIT) & (t_ms < _T_LIMIT)  # False for nan
    if not ok.all():
        acc = acc[ok]
        if t_col is not None:
            t_ms = t_ms[ok]
        if label_col is not None:
            labels = [c for c, keep in zip(labels, ok.tolist()) if keep]
    if t_col is None:
        t_ms = np.rint(np.arange(len(acc)) * 1000.0 / mapping.synthetic_rate_hz)
    t_ms = t_ms.astype(np.int64)

    report = ParseReport(
        rows=rows,
        malformed=rows - len(acc),
        timestamp_regressions=int(np.count_nonzero(t_ms[1:] < t_ms[:-1])),
    )
    if report.rows and report.malformed * 2 > report.rows:
        raise ParseError(
            f"{report.malformed}/{report.rows} rows malformed; mapping is likely wrong"
        )
    return SampleBatch(device_id, t_ms, acc,
                       labels if label_col is not None else None), report


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
    fields, width, _ends = split
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
            codes[field_] = code
        labels = list(map(codes.__getitem__, raw))
    return t, x, y, z, labels


def _split_fields(body: bytes, sep: str, width: int | None = None):
    """The fields of newline-joined lines as one flat list, the fields per
    line and the offsets of the newlines; None when a line holds another
    number of ``sep`` (one ASCII character) than the others, when the lines
    hold none, when a line has other than ``width`` fields (if given) or
    when the body is not UTF-8.

    The separators are counted on the bytes: UTF-8 never puts an ASCII byte
    inside a multibyte character."""
    octets = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(octets == _NEWLINE)
    n = len(ends) + 1
    seps = np.flatnonzero(octets == ord(sep))
    per_line = len(seps) // n
    if (per_line == 0 or len(seps) != per_line * n
            or width is not None and per_line != width - 1):
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
    return text.replace("\n", sep).split(sep), per_line + 1, ends


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
                    codes[raw] = code
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


def parse_trial_path(
    path: str | Path, mapping: ColumnMapping, device_id: str | None = None
) -> tuple[SampleBatch, ParseReport]:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read trial file {path}: {exc}") from exc
    return parse_trial_file(data, mapping, device_id or path.stem)


def parse_wire_line(line: str) -> tuple[str, int, float, float, float] | None:
    """One protocol line to (device_id, t_ms, ax, ay, az), or None when
    malformed."""
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


def parse_wire_block(block: bytes) -> SampleBatch | None:
    """Complete protocol lines joined by newlines, as one batch converted a
    column at a time; None when any line is one ``parse_wire_line`` rejects.

    The conversions are parse_wire_line's, so an accepted block gives the
    same rows, bit for bit, as parsing it line by line."""
    split = _split_fields(block, ",", 5)
    if split is None:
        return None
    fields, _width, ends = split
    # line i runs from ends[i - 1] + 1 to ends[i], the last one to the end
    if (np.diff(ends, prepend=-1, append=len(block)) > MAX_LINE_BYTES + 1).any():
        return None
    ids = fields[0::5]
    devices = {d: d for d in set(ids)}
    if not all(map(WIRE_DEVICE_RE.match, devices)):
        return None
    # one str object per device: the field strings die with this call, and
    # the assembler's per-device lookups hit a cached hash
    ids = list(map(devices.__getitem__, ids))
    try:
        # a t_ms outside int64 raises OverflowError here
        t_ms = np.array(list(map(int, fields[1::5])), dtype=np.int64)
        acc = np.empty((len(ids), 3))
        acc[:, 0] = list(map(float, fields[2::5]))
        acc[:, 1] = list(map(float, fields[3::5]))
        acc[:, 2] = list(map(float, fields[4::5]))
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(acc).all():
        return None
    return SampleBatch(ids, t_ms, acc)


def _count_regressions(ids: Iterable[str], t_ms: Iterable[int],
                       last_t: dict[str, int]) -> int:
    """Samples older than their device's previous one; advances last_t."""
    regressions = 0
    for device_id, t in zip(ids, t_ms):
        prev = last_t.get(device_id)
        if prev is not None and t < prev:
            regressions += 1
        last_t[device_id] = t
    return regressions


@dataclass(slots=True)
class _Connection:  # what the source keeps of one open connection
    tail: bytes = b""  # the unterminated start of the next line
    skipping: bool = False  # discarding an over-long line through its newline
    last_t: dict[str, int] = field(default_factory=dict)  # per device


class SocketSource:
    """TCP listener turning protocol lines into a single sample stream.

    It starts no thread: the caller's loop calls ``poll``, which makes one
    selector pass over the listener and every connection, accepting what
    waits (after a failed accept the listener sits out ACCEPT_RETRY_S) and
    reading each ready connection once (up to READ_BYTES), so
    lines are never reordered within a connection and one stalled client
    holds up no other. A read's complete lines are parsed as columns (line
    by line only when one of them is malformed) and handed on as one
    ``emit(SampleBatch)`` call. What the caller does not read stays in the
    kernel, so a caller that stops polling gives clients TCP backpressure.
    ``stats`` is any object with integer samples_in / malformed /
    timestamp_regressions attributes. A timestamp regression is a sample
    older than the previous one of its device on the same connection; a
    connection's state goes when it closes.
    """

    def __init__(self, host: str, port: int, emit: Callable, stats):
        self.host = host
        self.port = port
        self._emit = emit
        self.stats = stats
        self._selector: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._accept_at: float | None = None  # when a paused listener resumes

    def start(self) -> None:
        """Bind and listen; bind failures propagate (fatal)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen()
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)

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
        # an unterminated tail at disconnect is an incomplete record
        if key.data is not None and key.data.tail.strip():
            self._count_dropped_line()
        self._selector.unregister(key.fileobj)
        key.fileobj.close()

    def _handle_block(self, block: bytes, last_t: dict[str, int]) -> None:
        """Parse, count and emit a read's complete lines (newline-joined):
        as columns, or line by line when one is malformed. Both parsers are
        looked up as module globals, so wrappers see calls."""
        batch = parse_wire_block(block)
        if batch is None:
            parse = parse_wire_line
            lines = block.split(b"\n")
            rows = []
            for raw in lines:
                if len(raw) > MAX_LINE_BYTES:
                    continue
                try:
                    row = parse(raw.decode("utf-8"))
                except UnicodeDecodeError:
                    continue
                if row is not None:
                    rows.append(row)
            batch = SampleBatch(
                [r[0] for r in rows],
                np.array([r[1] for r in rows], dtype=np.int64),
                np.array([r[2:] for r in rows], dtype=np.float64),
            )
            read = len(lines)
        else:
            read = len(batch)
        self.stats.samples_in += read
        self.stats.malformed += read - len(batch)
        self.stats.timestamp_regressions += _count_regressions(
            batch.device_id, batch.t_ms.tolist(), last_t)
        if len(batch):
            self._emit(batch)

    def _count_dropped_line(self) -> None:
        self.stats.samples_in += 1
        self.stats.malformed += 1
