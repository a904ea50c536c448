import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_window
from fallstream.cli import main, read_feature_csv
from fallstream.errors import (
    ArtifactError,
    InsufficientData,
    NotReady,
    SchemaMismatch,
)
from fallstream.features import (
    SCHEMA_V1,
    STACK_BLOCK,
    SlidingBuffer,
    apply_scaler,
    average_absolute_difference,
    extract_features,
    feature_matrix,
    fit_scaler,
    sisfall_characteristics,
    zero_crossing_rate,
)
from fallstream.ingest import Sample
from fallstream.model import ModelArtifact, init_model, load_artifact, save_artifact
from fallstream.stream import classify_windows
from fallstream.synth import write_trial_csv
from fallstream.windowing import Window
from oracle import (
    oracle_features,
    oracle_kurtosis,
    oracle_mean,
    oracle_median,
    oracle_sd,
    oracle_sisfall,
    oracle_skew,
    oracle_tilt,
    oracle_zero_crossing_rate,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _window(rows):
    acc = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    return Window("d", np.arange(len(acc), dtype=np.int64) * 50, acc)


def _const_window(x, y, z, n=200):
    return _window([(x, y, z)] * n)


def _features(window):
    """name -> value of one window's schema v1 vector."""
    (row,) = extract_features([window])
    return dict(zip(SCHEMA_V1.names, row))


def _artifact(X):
    """A schema v1 artifact whose scaler is fit on X."""
    return ModelArtifact(model=init_model((58, 4, 3, 1), seed=0),
                         scaler=fit_scaler(X))


def _x_column(values):
    """A window whose x axis is ``values`` (y and z held at 1 and 2)."""
    return _window([(v, 1.0, 2.0) for v in values])


def _assert_matches_oracle(window, tol=1e-9):
    got = _features(window)
    ref = oracle_features(*window.acc.T.tolist())
    for name in SCHEMA_V1.names:
        assert abs(got[name] - ref[name]) <= tol * max(
            abs(got[name]), abs(ref[name]), 1.0), name


class TestAxisStats:
    """The seven per-series statistics, read from the x_* columns."""

    def test_small_symmetric_series(self):
        s = _features(_x_column([1.0, 2.0, 3.0]))
        assert s["x_mean"] == 2.0 and s["x_median"] == 2.0
        assert s["x_min"] == 1.0 and s["x_max"] == 3.0
        assert s["x_sd"] == 1.0  # sqrt((1+0+1)/2)
        assert s["x_skew"] == 0.0

    def test_constant_series_degenerates_to_zero(self):
        s = _features(_x_column([5.0] * 4))
        assert s["x_sd"] == 0.0 and s["x_skew"] == 0.0 and s["x_kurt"] == 0.0

    def test_matches_oracle_on_random_values(self, rng):
        vals = rng.normal(3.0, 2.0, 100)
        s = _features(_x_column(vals))
        ref = (oracle_mean(list(vals)), oracle_median(list(vals)),
               oracle_sd(list(vals)), oracle_skew(list(vals)),
               oracle_kurtosis(list(vals)))
        got = (s["x_mean"], s["x_median"], s["x_sd"], s["x_skew"],
               s["x_kurt"])
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-9 * max(1.0, abs(r))

    def test_too_few_values(self):
        with pytest.raises(InsufficientData):
            _features(_x_column([1.0]))


class TestSlope:
    """slope_raw / slope_abs: Euclidean norm of the per-axis ranges."""

    def test_constant_window_is_zero(self):
        s = _features(_const_window(1.0, 2.0, 3.0))
        assert s["slope_raw"] == 0.0 and s["slope_abs"] == 0.0

    def test_known_ranges(self):
        # per-axis ranges 1, 2, 2 -> sqrt(9) = 3
        w = _window([(0.0, 0.0, 0.0), (1.0, 2.0, 2.0)])
        assert _features(w)["slope_raw"] == 3.0
        _assert_matches_oracle(w)

    def test_abs_equals_raw_on_nonnegative_window(self, rng):
        w = make_window(rng, loc=(5.0, 9.8, 6.0), scale=(1.0, 1.0, 1.0))
        assert np.all(w.acc >= 0)
        s = _features(w)
        assert s["slope_abs"] == s["slope_raw"]


class TestTiltAngle:
    """Per-sample tilt asin(y/|a|), read from a constant window's
    tilt_mean (a constant series' mean is its value)."""

    def test_gravity_aligned_with_y(self):
        tilt = _features(_const_window(0.0, 9.81, 0.0))["tilt_mean"]
        assert tilt == pytest.approx(math.pi / 2)
        assert tilt == pytest.approx(oracle_tilt(0.0, 9.81, 0.0))

    def test_zero_y_component(self):
        assert _features(_const_window(9.81, 0.0, 0.0))["tilt_mean"] == 0.0

    def test_zero_magnitude_guard(self):
        assert _features(_const_window(0.0, 0.0, 0.0))["tilt_mean"] == 0.0

    @given(finite_floats, finite_floats, finite_floats)
    def test_range(self, x, y, z):
        tilt = _features(_const_window(x, y, z, n=2))["tilt_mean"]
        assert -math.pi / 2 <= tilt <= math.pi / 2
        assert tilt == pytest.approx(oracle_tilt(x, y, z), rel=1e-12,
                                     abs=1e-300)


class TestMagnitude:
    """|a| per sample, read from a constant window's mag_* columns."""

    def test_pythagorean(self):
        s = _features(_const_window(3.0, 4.0, 0.0))
        assert s["mag_mean"] == s["mag_min"] == s["mag_max"] == 5.0

    def test_zero(self):
        assert _features(_const_window(0.0, 0.0, 0.0))["mag_mean"] == 0.0

    @given(finite_floats, finite_floats, finite_floats)
    def test_sign_flips_do_not_matter(self, x, y, z):
        def mag(a, b, c):
            return _features(_const_window(a, b, c, n=2))["mag_mean"]
        assert mag(x, y, z) == mag(-x, y, z) == mag(x, -y, -z)
        assert mag(x, y, z) == math.sqrt(x * x + y * y + z * z)


# integer-valued floats make the mean exact, so the discrete sign logic is
# tested without ulp noise from different summation orders
exact_floats = st.integers(-1000, 1000).map(float)


class TestZeroCrossingRate:
    def test_constant_series(self):
        assert zero_crossing_rate([5.0] * 10) == 0.0

    def test_alternating_series(self):
        assert zero_crossing_rate([1.0, 3.0, 1.0, 3.0]) == 1.0

    def test_exact_zeros_carry_previous_sign(self):
        # de-meaned: [-1, 0, 1, 0] -> one change
        assert zero_crossing_rate([1.0, 2.0, 3.0, 2.0]) == pytest.approx(1 / 3)

    @given(st.lists(exact_floats, min_size=2, max_size=50))
    def test_reversal_symmetric(self, vals):
        assert zero_crossing_rate(vals) == zero_crossing_rate(vals[::-1])

    @given(st.lists(exact_floats, min_size=2, max_size=50))
    def test_matches_oracle(self, vals):
        assert zero_crossing_rate(vals) == oracle_zero_crossing_rate(vals)


class TestAverageAbsoluteDifference:
    def test_constant(self):
        assert average_absolute_difference([7.0] * 5) == 0.0

    def test_two_values(self):
        assert average_absolute_difference([0.0, 2.0]) == 1.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           st.floats(-1e3, 1e3))
    def test_translation_invariant(self, vals, shift):
        base = average_absolute_difference(vals)
        moved = average_absolute_difference([v + shift for v in vals])
        assert moved == pytest.approx(base, abs=1e-9)


class TestAverageResultant:
    """avg_resultant_acc, the mean of |a| over the window."""

    def test_known_value(self):
        assert _features(_const_window(0.0, 3.0, 4.0))["avg_resultant_acc"] == 5.0

    def test_all_zero(self):
        assert _features(_const_window(0.0, 0.0, 0.0))["avg_resultant_acc"] == 0.0

    def test_equals_magnitude_mean_feature(self, rng):
        (row,) = extract_features([make_window(rng)])
        names = SCHEMA_V1.names
        assert row[names.index("mag_mean")] == \
            row[names.index("avg_resultant_acc")]


class TestExtractFeatures:
    def test_vector_length_and_schema(self, rng):
        X = extract_features([make_window(rng)])
        assert X[0].shape == (58,)
        assert X.shape[1] == len(SCHEMA_V1.names)
        assert X.dtype == np.float64
        assert np.all(np.isfinite(X))

    def test_degenerate_gravity_window(self):
        vals = _features(_const_window(0.0, 9.80665, 0.0))
        assert vals["tilt_mean"] == pytest.approx(math.pi / 2)
        for name in ("x_sd", "y_skew", "z_kurt", "slope_raw", "slope_abs",
                     "mag_zcr", "mag_sd", "tilt_sd"):
            assert vals[name] == 0.0

    def test_matches_oracle_on_random_windows(self, rng):
        windows = [make_window(rng) for _ in range(30)]
        for w, row in zip(windows, extract_features(windows)):
            ref = oracle_features(*w.acc.T.tolist())
            for name, got in zip(SCHEMA_V1.names, row):
                want = ref[name]
                assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0), name

    def test_permutation_invariance_except_zcr(self, rng):
        w = make_window(rng)
        order = rng.permutation(len(w.t_ms))
        shuffled = Window(w.device_id, w.t_ms[order], w.acc[order])
        a, b = extract_features([w, shuffled])
        zcr = SCHEMA_V1.names.index("mag_zcr")
        keep = [i for i in range(58) if i != zcr]
        np.testing.assert_allclose(a[keep], b[keep], rtol=1e-12, atol=1e-12)

    def test_interval_and_label_metadata(self, rng, tmp_path, mapping_path):
        # the interval travels on the window's detection, the label on the
        # label columns prepare writes next to the window's features
        w = make_window(rng)
        X = extract_features([w])
        (det,) = classify_windows(_artifact(X), [w], {})
        assert det.t_start_ms == w.t_start and det.t_end_ms == w.t_end
        data = tmp_path / "data"
        data.mkdir()
        write_trial_csv([Sample(w.device_id, t, ax, ay, az, "FOL")
                         for t, (ax, ay, az) in zip(w.t_ms.tolist(),
                                                    w.acc.tolist())],
                        data / "t.csv")
        out = tmp_path / "features.csv"
        assert main(["prepare", str(data), "--mapping", str(mapping_path),
                     "--out", str(out)]) == 0
        got, codes, classes = read_feature_csv(out)
        assert np.array_equal(got, X)
        assert codes == ["FOL"]
        assert classes[0].value == "FALL"

    def test_unsupported_schema(self, rng):
        # only schema v1 is computed; a scaler of another layout is refused
        X = extract_features([make_window(rng)])
        other = fit_scaler(X[:, :-1])
        with pytest.raises(SchemaMismatch):
            apply_scaler(X, other)

    def test_no_windows_no_vectors(self):
        assert extract_features([]).shape == (0, 58)


class TestStackedKernel:
    def test_rows_do_not_depend_on_stack_size(self, rng):
        for n in (200, 7, 2, 51):
            for k in (1, 2, 3, 17, 64):
                acc = rng.normal((0.0, 9.8, 0.0), (5.0, 3.0, 4.0), (k, n, 3))
                acc[rng.random(k) < 0.2] = (0.0, 9.80665, 0.0)  # flat rows
                stacked = feature_matrix(acc)
                for i in range(k):
                    alone = feature_matrix(acc[i:i + 1])[0]
                    assert np.array_equal(stacked[i], alone), (n, k, i)

    def test_one_call_equals_one_window_per_call(self, rng):
        windows = [make_window(rng) for _ in range(STACK_BLOCK + 9)]
        together = extract_features(windows)
        for w, row in zip(windows, together):
            assert np.array_equal(row, extract_features([w])[0])

    def test_constant_axis_against_oracle(self, rng):
        w = make_window(rng)
        w.acc[:, 0] = -2.5
        _assert_matches_oracle(w)
        s = _features(w)
        assert s["x_sd"] == s["x_skew"] == s["x_kurt"] == s["aad_x"] == 0.0
        assert s["x_mean"] == s["x_median"] == -2.5

    def test_zero_magnitude_against_oracle(self):
        w = _const_window(0.0, 0.0, 0.0)
        _assert_matches_oracle(w)
        assert all(v == 0.0 for v in _features(w).values())

    def test_constant_magnitude_against_oracle(self, rng):
        # signed permutations of (3, 4, 0) all have magnitude exactly 5
        base = [(3.0, 4.0, 0.0), (0.0, -4.0, 3.0), (-4.0, 0.0, 3.0),
                (4.0, 3.0, 0.0), (0.0, 3.0, -4.0), (-3.0, -4.0, 0.0)]
        w = _window([base[i] for i in rng.integers(0, len(base), 200)])
        _assert_matches_oracle(w)
        s = _features(w)
        assert s["mag_mean"] == s["mag_min"] == s["mag_max"] == 5.0
        assert s["mag_sd"] == s["mag_range"] == s["mag_zcr"] == 0.0


class TestScaler:
    def test_singleton_fit(self, rng):
        row = rng.normal(0, 1, 58)
        scaler = fit_scaler(row[None, :])
        assert np.array_equal(scaler.minimum, row)
        assert np.array_equal(scaler.maximum, row)

    def test_two_vector_fit(self):
        m = np.array([[1.0, 5.0], [3.0, 2.0]])
        scaler = fit_scaler(m)
        assert scaler.minimum.tolist() == [1.0, 2.0]
        assert scaler.maximum.tolist() == [3.0, 5.0]

    def test_refit_on_union_equals_concatenated_fit(self, rng):
        a = rng.normal(0, 3, (10, 6))
        b = rng.normal(1, 2, (7, 6))
        both = fit_scaler(np.vstack([a, b]))
        fa, fb = fit_scaler(a), fit_scaler(b)
        assert np.array_equal(both.minimum, np.minimum(fa.minimum, fb.minimum))
        assert np.array_equal(both.maximum, np.maximum(fa.maximum, fb.maximum))

    def test_empty_fit_rejected(self):
        with pytest.raises(InsufficientData):
            fit_scaler(np.empty((0, 58)))

    def test_endpoints_map_to_zero_and_one(self):
        m = np.array([[1.0, 10.0], [3.0, 20.0]])
        scaler = fit_scaler(m)
        assert apply_scaler(np.array([1.0, 10.0]), scaler).tolist() == [0.0, 0.0]
        assert apply_scaler(np.array([3.0, 20.0]), scaler).tolist() == [1.0, 1.0]

    def test_midpoint(self):
        scaler = fit_scaler(np.array([[0.0], [4.0]]))
        assert apply_scaler(np.array([2.0]), scaler).tolist() == [0.5]

    def test_constant_feature_maps_to_zero(self):
        scaler = fit_scaler(np.array([[7.0], [7.0]]))
        assert apply_scaler(np.array([7.0]), scaler).tolist() == [0.0]

    def test_out_of_range_not_clamped(self):
        scaler = fit_scaler(np.array([[0.0], [2.0]]))
        assert apply_scaler(np.array([4.0]), scaler).tolist() == [2.0]
        assert apply_scaler(np.array([-2.0]), scaler).tolist() == [-1.0]

    def test_schema_mismatch(self, rng, tmp_path):
        # a foreign feature schema is refused when the artifact is loaded,
        # before any window is scaled, whichever of its two places says so
        path = tmp_path / "m.json"
        save_artifact(_artifact(extract_features([make_window(rng)])), path)
        saved = path.read_text()
        for artifact_says, scaler_says in (("2", "2"), ("1", "2")):
            doc = json.loads(saved)
            assert doc["feature_schema_version"] == "1"
            assert doc["scaler"]["schema_version"] == "1"
            doc["feature_schema_version"] = artifact_says
            doc["scaler"]["schema_version"] = scaler_says
            path.write_text(json.dumps(doc))
            with pytest.raises(ArtifactError, match="schema '2'"):
                load_artifact(path)

    @settings(max_examples=30)
    @given(st.integers(1, 20), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_fit_set_lands_in_unit_interval(self, rows, cols, seed):
        m = np.random.default_rng(seed).normal(0, 10, (rows, cols))
        scaler = fit_scaler(m)
        scaled = apply_scaler(m, scaler)
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)


def _fill_buffer(rows, dt_s=0.005):
    buf = SlidingBuffer(capacity=len(rows), dt_s=dt_s)
    for r in rows:
        buf.push(*r)
    return buf


class TestSisFallCharacteristics:
    def test_constant_buffer_zeroes_spread_measures(self):
        buf = _fill_buffer([(1.0, 2.0, 3.0)] * 16)
        c = sisfall_characteristics(buf)
        assert c.c3 == 0.0 and c.c8 == 0.0 and c.c9 == 0.0

    def test_c2_uses_newest_sample_xz(self):
        rows = [(0.0, 0.0, 0.0)] * 15 + [(3.0, 7.0, 4.0)]
        c = sisfall_characteristics(_fill_buffer(rows))
        assert c.c2 == pytest.approx(5.0, abs=1e-12)

    def test_zero_buffer_has_zero_path_integral(self):
        c = sisfall_characteristics(_fill_buffer([(0.0, 0.0, 0.0)] * 8))
        assert c.c13 == 0.0

    def test_c13_left_riemann_sum(self):
        # four samples of (3, _, 4): 4 * 5 * dt
        c = sisfall_characteristics(_fill_buffer([(3.0, 1.0, 4.0)] * 4, dt_s=0.5))
        assert c.c13 == pytest.approx(10.0, abs=1e-12)

    def test_not_full_buffer_rejected(self):
        buf = SlidingBuffer(capacity=8)
        buf.push(1.0, 2.0, 3.0)
        with pytest.raises(NotReady):
            sisfall_characteristics(buf)

    def test_buffer_slides(self):
        buf = SlidingBuffer(capacity=4)
        for i in range(10):
            buf.push(float(i), 0.0, 0.0)
        assert buf.axes()[:, 0].tolist() == [6.0, 7.0, 8.0, 9.0]

    def test_c8_never_exceeds_c9(self, rng):
        for _ in range(200):
            rows = rng.normal(0, 5, (16, 3))
            c = sisfall_characteristics(_fill_buffer([tuple(r) for r in rows]))
            assert c.c8 <= c.c9 + 1e-15

    def test_matches_oracle(self, rng):
        for _ in range(20):
            rows = [tuple(r) for r in rng.normal(0, 5, (32, 3))]
            got = sisfall_characteristics(_fill_buffer(rows, dt_s=0.005))
            ref = oracle_sisfall(rows, 0.005)
            for key in ("c2", "c3", "c8", "c9", "c13"):
                assert getattr(got, key) == pytest.approx(ref[key], rel=1e-9)
