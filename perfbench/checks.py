"""Correctness checks on the program's outputs, and failure accounting.

Nothing that fails a check counts toward a rate. Each check returns plain
values so the self-tests can feed it corrupted results.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

WINDOW = 200
WINDOW_SPAN_MS = (WINDOW - 1) * 50


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@dataclass(frozen=True)
class Expected:
    """A detection the program must emit."""

    device_id: str
    seq: int
    t_start_ms: int
    t_end_ms: int
    p_fall: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    noncontiguous: int = 0   # failures that are windows joined across a shed
    problems: list = field(default_factory=list)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.noncontiguous += other.noncontiguous
        for p in other.problems:
            if len(self.problems) < 20:
                self.problems.append(p)


def parse_detection(line: bytes) -> dict:
    d = json.loads(line)
    for key in ("device_id", "t_start_ms", "t_end_ms", "p_fall", "class",
                "seq"):
        if key not in d:
            raise ValueError(f"detection without {key}: {line[:120]!r}")
    return d


def detection_matches(d: dict, p_ref: float, digest: str) -> str | None:
    """Why one detection differs from its reference, or None."""
    p = d["p_fall"]
    if not isinstance(p, float) or bits(p) != bits(p_ref):
        return (f"{d['device_id']} seq {d['seq']}: p_fall {p!r} != "
                f"reference {p_ref!r}")
    if d["class"] != ("FALL" if p_ref >= 0.5 else "ADL"):
        return f"{d['device_id']} seq {d['seq']}: class {d['class']}"
    if d.get("model_digest") != digest:
        return f"{d['device_id']} seq {d['seq']}: model digest differs"
    return None


def check_expected(detections: list[dict], expected: list[Expected],
                   digest: str) -> tuple[Tally, set]:
    """Lossless runs: every expected detection exactly once, bit-identical.

    Returns the tally (attempted = expected detections) and the keys of
    the detections that passed.
    """
    tally = Tally(attempted=len(expected))
    want = {(e.device_id, e.seq): e for e in expected}
    seen: set = set()
    ok: set = set()
    for d in detections:
        key = (d["device_id"], d["seq"])
        e = want.get(key)
        if e is None or key in seen:
            tally.fail(f"unexpected detection {key}")
            continue
        seen.add(key)
        if (d["t_start_ms"], d["t_end_ms"]) != (e.t_start_ms, e.t_end_ms):
            tally.fail(f"{key}: window {d['t_start_ms']}..{d['t_end_ms']} "
                       f"!= {e.t_start_ms}..{e.t_end_ms}")
            continue
        why = detection_matches(d, e.p_fall, digest)
        if why:
            tally.fail(why)
            continue
        ok.add(key)
    missing = len(want) - len(seen)
    if missing:
        tally.fail(f"{missing} expected detections missing", missing)
    return tally, ok


def check_shed(detections: list[dict], reference, digest: str,
               wrap_ms: int = 0) -> tuple[Tally, set]:
    """Runs that shed input: each emitted detection is attempted; it fails
    when its samples are not contiguous or its p_fall differs from the
    reference for the window its timestamps name. Device clocks restart
    every ``wrap_ms`` (0: never), so spans are taken modulo it."""
    tally = Tally(attempted=len(detections))
    ok: set = set()
    for d in detections:
        key = (d["device_id"], d["seq"])
        span = d["t_end_ms"] - d["t_start_ms"]
        if wrap_ms:
            span %= wrap_ms
        if span != WINDOW_SPAN_MS:
            tally.noncontiguous += 1
            tally.fail(f"{key}: non-contiguous window "
                       f"{d['t_start_ms']}..{d['t_end_ms']}")
            continue
        why = detection_matches(d, reference(d), digest)
        if why:
            tally.fail(why)
            continue
        ok.add(key)
    return tally, ok


STATS_KEYS = ("samples_in", "malformed", "timestamp_regressions", "windows",
              "partial_window_drops", "detections", "sink_failures",
              "overflow_drops")


def parse_stats(stderr_text: str) -> dict:
    """The last ``stats k=v ...`` line a fallstream command printed."""
    lines = [ln for ln in stderr_text.splitlines() if ln.startswith("stats ")]
    if not lines:
        raise ValueError("no stats line on stderr")
    stats = dict(kv.split("=", 1) for kv in lines[-1].split()[1:])
    return {k: int(stats[k]) for k in STATS_KEYS}


def stats_problems(stats: dict, lines_sent: int, detections: int) -> list:
    """Every sample is accounted for, and nothing was malformed."""
    out = []
    if stats["samples_in"] != lines_sent:
        out.append(f"samples_in {stats['samples_in']} != {lines_sent} sent")
    if stats["malformed"]:
        out.append(f"malformed {stats['malformed']}")
    accounted = (stats["malformed"] + stats["overflow_drops"]
                 + WINDOW * stats["windows"] + stats["partial_window_drops"])
    if stats["samples_in"] != accounted:
        out.append(f"samples_in {stats['samples_in']} != malformed + "
                   f"overflow_drops + 200*windows + partial_window_drops "
                   f"= {accounted}")
    if stats["detections"] != stats["windows"] or detections != stats["windows"]:
        out.append(f"{detections} detection lines, stats say "
                   f"{stats['detections']} detections / {stats['windows']} "
                   "windows")
    if stats["sink_failures"]:
        out.append(f"sink_failures {stats['sink_failures']}")
    return out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of nothing")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)
