"""Inputs the benchmark feeds the program, and the load generator.

All inputs come from ``fallstream.synth`` trials. A *cycle* is a run of
synthetic trials whose length is a whole number of 200-sample windows.
The long replay trial tiles a cycle; each live device streams the cycle
from its own window-aligned offset, so every aligned window a device
completes is one of the cycle's windows and its reference ``p_fall`` is
computed once per run, not once per detection.

Live accelerations are rounded to 4 decimals, a sensor's resolution, so
the wire lines stay short and every value parses back to the same double.
"""

from __future__ import annotations

import json
import selectors
import time
from dataclasses import dataclass
from pathlib import Path

from fallstream.ingest import Sample
from fallstream.synth import make_dataset, make_trial, write_trial_csv

WINDOW = 200
PERIOD_MS = 50  # synth trials sample at 20 Hz
TRIAL_SAMPLES = 600
MAPPING = {
    "timestamp": 0, "ax": 1, "ay": 2, "az": 3, "label": 4,
    "delimiter": ",", "header": False, "unit": "m/s2", "time_unit": "ms",
}


def write_corpus(directory: Path, n_trials: int, seed: int) -> Path:
    """A make_dataset corpus plus its mapping file; returns the mapping."""
    make_dataset(directory / "corpus", n_trials=n_trials, seed=seed)
    mapping = directory / "mapping.json"
    mapping.write_text(json.dumps(MAPPING))
    return mapping


def make_cycle(seed: int, n_trials: int) -> list[tuple]:
    """(ax, ay, az, label) rows of alternating fall and ADL trials."""
    rows = []
    for i in range(n_trials):
        kind = "fall" if i % 2 == 0 else "adl"
        for s in make_trial(kind, TRIAL_SAMPLES, seed=seed * 1000 + i):
            rows.append((s.ax, s.ay, s.az, s.label))
    return rows


def write_trial(path: Path, cycle: list[tuple], rows: int) -> None:
    """One trial of ``rows`` samples tiling the cycle, 50 ms apart."""
    L = len(cycle)
    write_trial_csv(
        [Sample("t", PERIOD_MS * j, *cycle[j % L]) for j in range(rows)],
        path)


class LiveCycle:
    """The cycle as the live devices send it: rounded, unlabeled."""

    def __init__(self, cycle: list[tuple]):
        self.values = [tuple(round(v, 4) for v in row[:3]) for row in cycle]
        self.text = ["%r,%r,%r" % v for v in self.values]
        self.n = len(self.values)
        if self.n % WINDOW:
            raise ValueError("cycle length must be a whole number of windows")

    def offset(self, device_index: int) -> int:
        """Window-aligned start of a device within the cycle."""
        return (device_index * 7 * WINDOW) % self.n

    def line(self, device: str, offset: int, j: int) -> str:
        return f"{device},{PERIOD_MS * j},{self.text[(offset + j) % self.n]}\n"

    def samples(self, device: str, start: int) -> list[Sample]:
        """The WINDOW samples a device sends from cycle position ``start``."""
        return [Sample(device, PERIOD_MS * i, *self.values[(start + i) % self.n])
                for i in range(WINDOW)]


@dataclass
class Chunk:
    due_s: float   # seconds after the start of the schedule
    payload: bytes


def sync_chunk(live: LiveCycle, conn: int, barrier: int) -> tuple[str, Chunk]:
    """One whole window from a device of its own; once its detection is
    out, everything sent earlier on the connection has been consumed."""
    dev = f"s{conn}b{barrier}"
    data = "".join(live.line(dev, 0, j) for j in range(WINDOW))
    return dev, Chunk(0.0, data.encode())


@dataclass
class PacedTraffic:
    """``devices`` devices at ``rate_hz`` each for ``seconds``, open loop.

    Device d sends its first ``k_d = d*200 // devices`` samples before the
    clock starts, so window completions spread evenly over time instead of
    arriving together. After that its sample j is due at
    ``phase_d + (j - k_d) * period`` with ``phase_d = d mod period`` ms, on
    a 1 ms grid. Devices alternate between the two connections.
    """

    devices: int
    rate_hz: float
    seconds: float

    def __post_init__(self):
        self.period_ms = round(1000.0 / self.rate_hz)
        self.per_device = round(self.rate_hz * self.seconds)
        self.names = [f"p{d:04d}" for d in range(self.devices)]

    def preroll(self, d: int) -> int:
        return d * WINDOW // self.devices

    def due_s(self, d: int, j: int) -> float:
        phase = d % self.period_ms
        return (phase + (j - self.preroll(d)) * self.period_ms) / 1000.0

    def windows(self, d: int) -> int:
        return (self.preroll(d) + self.per_device) // WINDOW

    def encode(self, live: LiveCycle):
        """(preroll chunk per connection, timed chunks per connection)."""
        pre = [[], []]
        ticks: list[dict[int, list[str]]] = [{}, {}]
        for d, name in enumerate(self.names):
            c, off, k = d % 2, live.offset(d), self.preroll(d)
            pre[c].extend(live.line(name, off, j) for j in range(k))
            for j in range(k, k + self.per_device):
                tick = round(self.due_s(d, j) * 1000)
                ticks[c].setdefault(tick, []).append(live.line(name, off, j))
        preroll = [Chunk(0.0, "".join(p).encode()) for p in pre]
        timed = [[Chunk(t / 1000.0, "".join(ls).encode())
                  for t, ls in sorted(tc.items())] for tc in ticks]
        return preroll, timed

    def lines(self) -> int:
        return self.devices * self.per_device


@dataclass
class FloodTraffic:
    """``devices`` devices on two connections, sent as fast as TCP takes,
    or, with an ``InFlight`` gate, as fast as serve consumes them.

    A block holds one window (200 samples) of every device on its
    connection, interleaved, so stopping between blocks leaves no partial
    window behind. One period of ``period_cycles`` cycles is encoded; the
    generator repeats it, and a device's clock restarts with each period.
    Windows never straddle a restart, and a period holds far more lines
    than the socket buffers, so a detection's timestamps still name the
    block it came from.
    """

    devices: int
    period_cycles: int

    def __post_init__(self):
        self.names = [f"f{d}" for d in range(self.devices)]

    def period(self, live: LiveCycle) -> int:
        """Samples per device before its clock restarts."""
        return self.period_cycles * live.n

    def encode(self, live: LiveCycle):
        """One period of blocks per connection."""
        out = [[], []]
        n_blocks = self.period(live) // WINDOW
        for c in range(2):
            devs = [(n, live.offset(d)) for d, n in enumerate(self.names)
                    if d % 2 == c]
            for b in range(n_blocks):
                base = b * WINDOW
                block = "".join(live.line(n, off, base + i)
                                for i in range(WINDOW) for n, off in devs)
                out[c].append(Chunk(0.0, block.encode()))
        return out


class InFlight:
    """A ``pump`` gate that bounds a flood's unconsumed input.

    Connection ``c`` may start its block ``i`` once the detections of all
    but its last ``depth`` blocks have been read, so about ``depth`` blocks
    per connection wait in socket buffers and serve's queue, however large
    the kernel grows the buffers. ``lines`` is the output reader's growing
    list of ``(stamp, line)``, scanned from ``start``; flood device ``fN``
    sends on connection ``N % 2``, ``per_block[c]`` detections per block.
    """

    def __init__(self, lines: list, start: int, per_block: list[int],
                 depth: int):
        self.lines, self.scanned = lines, start
        self.per_block, self.depth = per_block, depth
        self.read = [0] * len(per_block)

    def __call__(self, c: int, i: int) -> bool:
        lines = self.lines
        while self.scanned < len(lines):
            line = lines[self.scanned][1]
            self.scanned += 1
            k = line.find(b'"device_id": "f')
            if k >= 0:
                k += len(b'"device_id": "f')
                self.read[int(line[k:line.index(b'"', k)]) % 2] += 1
        return i < self.depth + self.read[c] // self.per_block[c]


class Repeat:
    """A chunk sequence that repeats ``chunks`` for ``count`` items."""

    def __init__(self, chunks: list, count: int):
        self.chunks, self.count = chunks, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int):
        return self.chunks[i % len(self.chunks)]


GATE_POLL_S = 0.001


@dataclass
class SendLog:
    """What the generator did: per connection, when each chunk finished
    sending, and how late each chunk started against its due time."""

    done: list[list[float]]
    late_s: list[float]


def pump(socks, chunks, t0: float | None = None,
         stop_at: float | None = None, gate=None) -> SendLog:
    """Send each connection's chunks in order, none before its due time.

    One thread drives every connection with non-blocking sends, so a full
    socket buffer on one connection never holds back the other. No chunk
    starts after ``stop_at``, and, given ``gate``, none before
    ``gate(connection, index)`` is true; a closed gate is polled every
    ``GATE_POLL_S``. All encoding happened before this call.
    """
    t0 = time.perf_counter() if t0 is None else t0
    n = len(socks)
    sel = selectors.DefaultSelector()
    for s in socks:
        s.setblocking(False)
    nxt, view = [0] * n, [None] * n
    done: list[list[float]] = [[] for _ in range(n)]
    late: list[float] = []
    clock = time.perf_counter
    try:
        while True:
            now = clock()
            wake = None
            blocked = []
            for c in range(n):
                if view[c] is None:
                    if nxt[c] >= len(chunks[c]):
                        continue
                    if stop_at is not None and now >= stop_at:
                        nxt[c] = len(chunks[c])
                        continue
                    chunk = chunks[c][nxt[c]]
                    due = t0 + chunk.due_s
                    if gate is not None and due <= now and not gate(c, nxt[c]):
                        due = now + GATE_POLL_S
                    if due > now:
                        wake = due if wake is None else min(wake, due)
                        continue
                    late.append(now - due)
                    view[c] = memoryview(chunk.payload)
                try:
                    sent = socks[c].send(view[c])
                except BlockingIOError:
                    sent = 0
                view[c] = view[c][sent:]
                if len(view[c]):
                    blocked.append(socks[c])
                else:
                    view[c] = None
                    nxt[c] += 1
                    done[c].append(clock())
            if blocked:
                for s in blocked:
                    sel.register(s, selectors.EVENT_WRITE)
                sel.select(None if wake is None else max(0.0, wake - clock()))
                for s in blocked:
                    sel.unregister(s)
            elif wake is not None:
                time.sleep(max(0.0, wake - clock()))
            elif all(v is None for v in view) and all(
                    nxt[c] >= len(chunks[c]) for c in range(n)):
                break
    finally:
        sel.close()
    return SendLog(done=done, late_s=late)
