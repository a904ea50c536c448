"""Brute-force reference for the 58-value window summary.

Written before the production feature code and kept independent of it:
pure Python loops and ``math`` only, no numpy, no imports from the
package. Used by the feature tests and the acceptance suite to check the
vectorized implementation against a second, slower derivation.
``replay_source``, the tests' way to replay rows held in memory, is the
one helper here that touches the package.

Conventions (must match the published schema):
  - SD uses the n-1 denominator.
  - skew = m3 / m2^1.5, kurtosis = m4 / m2^2 - 3 with population central
    moments; both 0 when m2 == 0.
  - an exactly constant series (min == max) has zero spread by definition,
    regardless of how the floating mean rounds.
  - zero-crossing rate: de-mean the series, drop exact zeros, count sign
    alternations, divide by n-1.
  - tilt angle asin(y/|a|), 0 for a zero-magnitude sample.
"""

import math


def oracle_mean(vals):
    return math.fsum(vals) / len(vals)


def oracle_median(vals):
    s = sorted(vals)
    n = len(s)
    mid = n // 2
    if n % 2 == 1:
        return s[mid]
    return (s[mid - 1] + s[mid]) / 2.0


def oracle_sd(vals):
    m = oracle_mean(vals)
    return math.sqrt(math.fsum((v - m) ** 2 for v in vals) / (len(vals) - 1))


def oracle_skew(vals):
    m = oracle_mean(vals)
    n = len(vals)
    m2 = math.fsum((v - m) ** 2 for v in vals) / n
    if m2 == 0.0:
        return 0.0
    m3 = math.fsum((v - m) ** 3 for v in vals) / n
    return m3 / m2**1.5


def oracle_kurtosis(vals):
    m = oracle_mean(vals)
    n = len(vals)
    m2 = math.fsum((v - m) ** 2 for v in vals) / n
    if m2 == 0.0:
        return 0.0
    m4 = math.fsum((v - m) ** 4 for v in vals) / n
    return m4 / m2**2 - 3.0


def oracle_zero_crossing_rate(vals):
    m = oracle_mean(vals)
    signs = []
    for v in vals:
        d = v - m
        if d > 0:
            signs.append(1)
        elif d < 0:
            signs.append(-1)
        # exact zeros carry the previous nonzero sign, i.e. never alternate
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes / (len(vals) - 1)


def oracle_aad(vals):
    if min(vals) == max(vals):
        return 0.0
    m = oracle_mean(vals)
    return math.fsum(abs(v - m) for v in vals) / len(vals)


def oracle_tilt(x, y, z):
    mag = math.sqrt(x * x + y * y + z * z)
    if mag == 0.0:
        return 0.0
    r = y / mag
    r = max(-1.0, min(1.0, r))
    return math.asin(r)


def _seven_stats(prefix, vals):
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return {
            f"{prefix}_mean": lo,
            f"{prefix}_median": lo,
            f"{prefix}_sd": 0.0,
            f"{prefix}_skew": 0.0,
            f"{prefix}_kurt": 0.0,
            f"{prefix}_min": lo,
            f"{prefix}_max": hi,
        }
    return {
        f"{prefix}_mean": oracle_mean(vals),
        f"{prefix}_median": oracle_median(vals),
        f"{prefix}_sd": oracle_sd(vals),
        f"{prefix}_skew": oracle_skew(vals),
        f"{prefix}_kurt": oracle_kurtosis(vals),
        f"{prefix}_min": lo,
        f"{prefix}_max": hi,
    }


def oracle_features(xs, ys, zs):
    """All 58 features of one window as a name -> value dict."""
    out = {}
    for name, vals in (("x", xs), ("y", ys), ("z", zs)):
        out.update(_seven_stats(name, vals))
    for name, vals in (("x", xs), ("y", ys), ("z", zs)):
        out.update(_seven_stats(f"abs_{name}", [abs(v) for v in vals]))

    def axis_range_sq(vals):
        return (max(vals) - min(vals)) ** 2

    out["slope_raw"] = math.sqrt(
        axis_range_sq(xs) + axis_range_sq(ys) + axis_range_sq(zs)
    )
    out["slope_abs"] = math.sqrt(
        axis_range_sq([abs(v) for v in xs])
        + axis_range_sq([abs(v) for v in ys])
        + axis_range_sq([abs(v) for v in zs])
    )

    tilt = [oracle_tilt(x, y, z) for x, y, z in zip(xs, ys, zs)]
    tilt_stats = _seven_stats("tilt", tilt)
    for key in ("tilt_mean", "tilt_sd", "tilt_skew", "tilt_kurt"):
        out[key] = tilt_stats[key]

    mag = [math.sqrt(x * x + y * y + z * z) for x, y, z in zip(xs, ys, zs)]
    mag_stats = _seven_stats("mag", mag)
    for key in ("mag_mean", "mag_sd", "mag_min", "mag_max"):
        out[key] = mag_stats[key]
    out["mag_range"] = mag_stats["mag_max"] - mag_stats["mag_min"]
    out["mag_zcr"] = oracle_zero_crossing_rate(mag)

    out["aad_x"] = oracle_aad(xs)
    out["aad_y"] = oracle_aad(ys)
    out["aad_z"] = oracle_aad(zs)

    out["avg_resultant_acc"] = mag_stats["mag_mean"]
    return out


def oracle_sisfall(rows, dt_s):
    """C2/C3/C8/C9/C13 of a full buffer, rows = [(ax, ay, az), ...]."""
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    zs = [r[2] for r in rows]
    c2 = math.sqrt(xs[-1] ** 2 + zs[-1] ** 2)
    ranges = [max(v) - min(v) for v in (xs, ys, zs)]
    c3 = math.sqrt(math.fsum(r * r for r in ranges) / 3.0)

    def guarded_sd(vals):
        return 0.0 if min(vals) == max(vals) else oracle_sd(vals)

    sx, sy, sz = guarded_sd(xs), guarded_sd(ys), guarded_sd(zs)
    c8 = math.sqrt(sx * sx + sz * sz)
    c9 = math.sqrt(sx * sx + sy * sy + sz * sz)
    c13 = math.fsum(math.sqrt(x * x + z * z) for x, z in zip(xs, zs)) * dt_s
    return {"c2": c2, "c3": c3, "c8": c8, "c9": c9, "c13": c13}


def replay_source(samples):
    """A ``ReplaySpec`` source of rows held in memory (a list of Samples or
    a SampleBatch): it hands them over as one batch."""
    from fallstream.ingest import ParseReport, as_batch

    batch = as_batch(samples)

    def source(emit):
        emit(batch, ParseReport(rows=len(batch)))

    return source
