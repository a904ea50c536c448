"""The 58-value statistical window summary, min-max scaling, and the
C2/C3/C8/C9/C13 sliding-buffer characteristics.

Schema v1 layout (58 names, order fixed):
  21  mean/median/SD/skew/kurtosis/min/max per raw axis x, y, z
  21  the same seven statistics per absolute axis |x|, |y|, |z|
   2  slope over raw axes and over absolute axes
   4  mean/SD/skew/kurtosis of the per-sample tilt angle asin(y/|a|)
   6  mean/SD/min/max/range/zero-crossing-rate of the magnitude |a|
   3  average absolute difference per axis
   1  average resultant acceleration (identical to the magnitude mean)

Conventions, fixed by the schema version: SD uses the n-1 denominator;
skew and kurtosis use bias-uncorrected population moments, kurtosis is
excess; degenerate inputs (zero variance, zero magnitude, zero range) all
yield 0 so every output is finite on any finite input.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientData, NotReady, SchemaMismatch
from .windowing import Window

_SEVEN = ("mean", "median", "sd", "skew", "kurt", "min", "max")


@dataclass(frozen=True)
class FeatureSchema:
    version: str
    names: tuple[str, ...]
    groups: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if len(self.names) != sum(n for _, n in self.groups):
            raise SchemaMismatch("group sizes do not add up to the name count")
        if len(set(self.names)) != len(self.names):
            raise SchemaMismatch("feature names must be unique")


def _build_schema_v1() -> FeatureSchema:
    names: list[str] = []
    for axis in ("x", "y", "z"):
        names += [f"{axis}_{s}" for s in _SEVEN]
    for axis in ("x", "y", "z"):
        names += [f"abs_{axis}_{s}" for s in _SEVEN]
    names += ["slope_raw", "slope_abs"]
    names += [f"tilt_{s}" for s in ("mean", "sd", "skew", "kurt")]
    names += [f"mag_{s}" for s in ("mean", "sd", "min", "max", "range", "zcr")]
    names += ["aad_x", "aad_y", "aad_z"]
    names += ["avg_resultant_acc"]
    groups = (
        ("axis_stats", 21),
        ("abs_axis_stats", 21),
        ("slope", 2),
        ("tilt", 4),
        ("magnitude", 6),
        ("avg_abs_diff", 3),
        ("avg_resultant", 1),
    )
    return FeatureSchema(version="1", names=tuple(names), groups=groups)


SCHEMA_V1 = _build_schema_v1()
assert len(SCHEMA_V1.names) == 58


# windows per stacked kernel call: bounds the temporaries, each about
# STACK_BLOCK * 8 * n doubles, whatever the number of windows asked for;
# at 16 one for 200-sample windows is 205 KB, well inside a 2 MiB L2
STACK_BLOCK = 16
_SERIES = 8  # x, y, z, |x|, |y|, |z|, tilt, magnitude


def zero_crossing_rate(values: np.ndarray) -> np.ndarray | float:
    """Strict sign changes of the de-meaned series over n-1 pairs, along
    the last axis.

    Exact zeros of the de-meaned series carry the previous nonzero sign,
    so the count equals the alternations of the nonzero-sign subsequence.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[-1]
    if n < 2:
        raise InsufficientData(f"need at least 2 values, got {n}")
    signs = np.sign(v - np.add.reduce(v, axis=-1, keepdims=True) / n)
    if not signs.all():
        # carry the last nonzero sign forward over exact zeros; leading
        # zeros stay 0 and never count as a change
        last = np.where(signs != 0, np.arange(n), 0)
        np.maximum.accumulate(last, axis=-1, out=last)
        signs = np.take_along_axis(signs, last, axis=-1)
    changes = np.count_nonzero(
        (signs[..., 1:] != signs[..., :-1]) & (signs[..., :-1] != 0), axis=-1)
    return changes / (n - 1)


def average_absolute_difference(values: np.ndarray) -> np.ndarray | float:
    """Mean absolute deviation from the mean along the last axis; an
    exactly constant series gives 0."""
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[-1]
    if n < 1:
        raise InsufficientData("need at least 1 value")
    dev = v - np.add.reduce(v, axis=-1, keepdims=True) / n
    aad = np.add.reduce(np.abs(dev), axis=-1) / n
    const = np.minimum.reduce(v, axis=-1) == np.maximum.reduce(v, axis=-1)
    return np.where(const, 0.0, aad)[()]


def _series(acc: np.ndarray) -> np.ndarray:
    """The 8 per-sample series of (k, n, 3) windows as one (k, 8, n) stack."""
    k, n, _ = acc.shape
    s = np.empty((k, _SERIES, n))
    s[:, :3] = acc.transpose(0, 2, 1)
    np.abs(s[:, :3], out=s[:, 3:6])
    x, y, z = s[:, 0], s[:, 1], s[:, 2]
    mag = s[:, 7]
    np.sqrt(x * x + y * y + z * z, out=mag)
    # tilt = asin(y / |a|), 0 for a zero vector
    nonzero = mag > 0.0
    ratio = np.where(nonzero, y / np.where(nonzero, mag, 1.0), 0.0)
    np.arcsin(np.clip(ratio, -1.0, 1.0), out=s[:, 6])
    return s


def feature_matrix(acc: np.ndarray) -> np.ndarray:
    """Schema v1 values of k windows at once: (k, n, 3) -> (k, 58).

    All 8 series are sorted in one call and their moments are row-wise
    sums along the sample axis, never a BLAS product, so a window's values
    do not depend on how many windows share the stack.

    Hand-rolled rather than scipy so the conventions stay pinned. An
    exactly-constant series is detected by min == max: in exact
    arithmetic its central moments are zero, but a rounded mean would leak
    tiny spread values, so it gets mean = median = min and zero spread.
    The standardized-moment form of skew/kurtosis also keeps tiny-variance
    windows away from 0/0.
    """
    acc = np.asarray(acc, dtype=np.float64)
    k, n, _ = acc.shape
    if n < 2:
        raise InsufficientData(f"need at least 2 samples per window, got {n}")
    s = _series(acc)
    srt = np.sort(s, axis=-1)
    lo, hi = srt[..., 0], srt[..., -1]
    const = lo == hi
    mid = n // 2
    median = srt[..., mid] if n % 2 else (srt[..., mid - 1] + srt[..., mid]) / 2.0
    mean = s.sum(axis=-1) / n
    dev = s - mean[..., None]
    sq = (dev * dev).sum(axis=-1)
    m2 = sq / n
    flat = const | (m2 == 0.0)
    # flat rows divide by a zero spread; their skew and kurtosis are 0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = dev / np.sqrt(m2)[..., None]
        z2 = z * z
        skew = np.where(flat, 0.0, (z2 * z).sum(axis=-1) / n)
        kurt = np.where(flat, 0.0, (z2 * z2).sum(axis=-1) / n - 3.0)
    mean = np.where(const, lo, mean)
    median = np.where(const, lo, median)
    sd = np.where(const, 0.0, np.sqrt(sq / (n - 1)))
    seven = np.stack((mean, median, sd, skew, kurt, lo, hi), axis=-1)
    span = hi - lo

    out = np.empty((k, len(SCHEMA_V1.names)))
    out[:, 0:21] = seven[:, 0:3].reshape(k, 21)
    out[:, 21:42] = seven[:, 3:6].reshape(k, 21)
    sq_span = span * span
    out[:, 42] = np.sqrt(sq_span[:, 0] + sq_span[:, 1] + sq_span[:, 2])
    out[:, 43] = np.sqrt(sq_span[:, 3] + sq_span[:, 4] + sq_span[:, 5])
    out[:, 44:48] = seven[:, 6, [0, 2, 3, 4]]  # tilt mean, sd, skew, kurt
    out[:, 48:52] = seven[:, 7, [0, 2, 5, 6]]  # mag mean, sd, min, max
    out[:, 52] = span[:, 7]
    out[:, 53] = zero_crossing_rate(s[:, 7])
    out[:, 54:57] = average_absolute_difference(s[:, :3])
    # identical to the magnitude mean by definition; write the same float
    out[:, 57] = mean[:, 7]
    return out


def extract_features(windows: Sequence[Window]) -> np.ndarray:
    """The (k, 58) schema v1 matrix of k equal-length windows, in window
    order.

    One call computes every window given, STACK_BLOCK at a time; a
    window's values are the same whichever call or block it is in.
    """
    out = np.empty((len(windows), len(SCHEMA_V1.names)))
    for first in range(0, len(windows), STACK_BLOCK):
        block = windows[first:first + STACK_BLOCK]
        out[first:first + len(block)] = feature_matrix(
            np.stack([w.acc for w in block]))
    return out


@dataclass(frozen=True)
class Scaler:
    """Per-feature min and max learned from a fit set."""

    minimum: np.ndarray
    maximum: np.ndarray


def fit_scaler(matrix: np.ndarray) -> Scaler:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise InsufficientData("scaler fit needs a non-empty 2-D feature matrix")
    return Scaler(minimum=np.min(m, axis=0), maximum=np.max(m, axis=0))


def apply_scaler(values: np.ndarray, scaler: Scaler) -> np.ndarray:
    """(v - min) / (max - min) per feature of (..., 58) values; constant
    features map to 0.

    Values outside the fit range are not clamped.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != scaler.minimum.shape[0]:
        raise SchemaMismatch(
            f"vector length {values.shape[-1]} != scaler length "
            f"{scaler.minimum.shape[0]}"
        )
    span = scaler.maximum - scaler.minimum
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (values - scaler.minimum) / safe
    return np.where(span == 0.0, 0.0, scaled)


@dataclass(frozen=True)
class SisFallFeatures:
    c2: float
    c3: float
    c8: float
    c9: float
    c13: float


class SlidingBuffer:
    """The most recent ``capacity`` tri-axial samples at period dt seconds."""

    def __init__(self, capacity: int = 256, dt_s: float = 1.0 / 200.0):
        if capacity < 2:
            raise InsufficientData("sliding buffer needs capacity >= 2")
        self.capacity = capacity
        self.dt_s = dt_s
        self._rows: deque[tuple[float, float, float]] = deque(maxlen=capacity)

    def push(self, ax: float, ay: float, az: float) -> None:
        self._rows.append((ax, ay, az))

    @property
    def full(self) -> bool:
        return len(self._rows) == self.capacity

    def axes(self) -> np.ndarray:
        return np.asarray(self._rows, dtype=np.float64)


def sisfall_characteristics(buf: SlidingBuffer) -> SisFallFeatures:
    """C2, C3, C8, C9, C13 over one full buffer.

    C3 is the RMS across the three per-axis ranges; C13 discretizes its
    integral as a left Riemann sum times dt.
    """
    if not buf.full:
        raise NotReady(
            f"buffer holds {len(buf._rows)} of {buf.capacity} samples"
        )
    a = buf.axes()
    xs, ys, zs = a[:, 0], a[:, 1], a[:, 2]
    c2 = math.sqrt(xs[-1] ** 2 + zs[-1] ** 2)
    ranges = np.array([np.ptp(xs), np.ptp(ys), np.ptp(zs)])
    c3 = math.sqrt(float(np.mean(ranges**2)))

    def sd(axis, rng):
        # constant axes are exactly zero-spread (see feature_matrix)
        return 0.0 if rng == 0.0 else float(np.std(axis, ddof=1))

    sx, sy, sz = (sd(v, r) for v, r in zip((xs, ys, zs), ranges))
    c8 = math.sqrt(sx * sx + sz * sz)
    c9 = math.sqrt(sx * sx + sy * sy + sz * sz)
    c13 = float(np.sum(np.sqrt(xs**2 + zs**2))) * buf.dt_s
    return SisFallFeatures(c2=c2, c3=c3, c8=c8, c9=c9, c13=c13)
