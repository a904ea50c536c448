import math
import socket
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fallstream.errors import ConfigError, ParseError, UnknownActivity
from fallstream.ingest import (
    MAX_LINE_BYTES,
    MOBIACT_ACTIVITIES,
    STANDARD_GRAVITY_MS2,
    BinaryClass,
    ColumnMapping,
    Sample,
    SocketSource,
    convert_adc_to_g,
    map_activity_to_class,
    parse_trial_file,
    parse_wire_line,
    replay_source,
)
from fallstream.stream import PipelineStats

BASIC = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4)


class TestParseTrialFile:
    def test_direct_field_mapping(self):
        samples, report = parse_trial_file(b"1000,0.1,9.8,0.0,WAL\n", BASIC)
        assert samples == [Sample("trial", 1000, 0.1, 9.8, 0.0, "WAL")]
        assert report.rows == 1 and report.malformed == 0

    def test_non_finite_row_skipped(self):
        data = b"1000,0.1,NaN,0.0,WAL\n2000,0.1,9.8,0.0,WAL\n"
        samples, report = parse_trial_file(data, BASIC)
        assert len(samples) == 1
        assert report.malformed == 1

    def test_unparseable_row_skipped(self):
        samples, report = parse_trial_file(
            b"1000,0.1,what,0.0,WAL\n2000,1,2,3,WAL\n", BASIC)
        assert len(samples) == 1 and report.malformed == 1

    def test_empty_file(self):
        samples, report = parse_trial_file(b"", BASIC)
        assert samples == [] and report.rows == 0 and report.malformed == 0

    def test_mostly_malformed_is_fatal(self):
        data = b"a,b,c,d,e\nf,g,h,i,j\n1000,1,2,3,WAL\n"
        with pytest.raises(ParseError):
            parse_trial_file(data, BASIC)

    def test_not_utf8_is_fatal(self):
        with pytest.raises(ParseError):
            parse_trial_file(b"\xff\xfe\x00\x01", BASIC)

    def test_deterministic(self):
        data = b"1000,0.1,9.8,0.0,WAL\nbad row\n2000,0.2,9.7,0.1,JOG\n"
        assert parse_trial_file(data, BASIC) == parse_trial_file(data, BASIC)

    def test_timestamp_regressions_counted_not_fatal(self):
        data = b"2000,1,2,3,WAL\n1000,1,2,3,WAL\n3000,1,2,3,WAL\n"
        samples, report = parse_trial_file(data, BASIC)
        assert len(samples) == 3
        assert report.timestamp_regressions == 1

    def test_header_and_named_columns(self):
        mapping = ColumnMapping(timestamp="ts", ax="acc_x", ay="acc_y",
                                az="acc_z", label="label", header=True)
        data = b"ts,acc_x,acc_y,acc_z,label\n5,1.0,2.0,3.0,wal\n"
        samples, _ = parse_trial_file(data, mapping)
        assert samples == [Sample("trial", 5, 1.0, 2.0, 3.0, "WAL")]

    def test_g_unit_converts_to_ms2(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4, unit="g")
        samples, _ = parse_trial_file(b"0,1,0,-1,STD\n", mapping)
        assert samples[0].ax == pytest.approx(STANDARD_GRAVITY_MS2)
        assert samples[0].az == pytest.approx(-STANDARD_GRAVITY_MS2)

    def test_adc_unit_converts_counts(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4,
                                unit="adc_bits", adc_range_g=16.0,
                                adc_resolution_bits=13)
        samples, _ = parse_trial_file(b"0,4096,0,-4096,STD\n", mapping)
        assert samples[0].ax == pytest.approx(16.0 * STANDARD_GRAVITY_MS2)
        assert samples[0].az == pytest.approx(-16.0 * STANDARD_GRAVITY_MS2)

    def test_seconds_time_unit(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4,
                                time_unit="s")
        samples, _ = parse_trial_file(b"1.5,1,2,3,WAL\n", mapping)
        assert samples[0].t_ms == 1500

    def test_synthetic_timestamps(self):
        mapping = ColumnMapping(ax=0, ay=1, az=2, label=3,
                                synthetic_rate_hz=20.0)
        data = b"1,2,3,WAL\n1,2,3,WAL\n1,2,3,WAL\n"
        samples, _ = parse_trial_file(data, mapping)
        assert [s.t_ms for s in samples] == [0, 50, 100]

    def test_unlabeled_mapping(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3)
        samples, _ = parse_trial_file(b"0,1,2,3\n", mapping)
        assert samples[0].label is None

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConfigError):
            ColumnMapping(timestamp=0, ax=1, ay=1, az=2, label=3)

    def test_empty_label_is_malformed(self):
        _, report = parse_trial_file(b"0,1,2,3,\n10,1,2,3,WAL\n", BASIC)
        assert report.malformed == 1


class TestActivityMapping:
    def test_fol_is_fall(self):
        assert map_activity_to_class("FOL") is BinaryClass.FALL

    def test_wal_is_adl(self):
        assert map_activity_to_class("WAL") is BinaryClass.ADL

    def test_unknown_code(self):
        with pytest.raises(UnknownActivity):
            map_activity_to_class("XYZ")

    def test_vocabulary_partition(self):
        falls = [c for c, v in MOBIACT_ACTIVITIES.items() if v is BinaryClass.FALL]
        adls = [c for c, v in MOBIACT_ACTIVITIES.items() if v is BinaryClass.ADL]
        assert sorted(falls) == ["BSC", "FKL", "FOL", "SDL"]
        assert len(adls) == 9
        assert len(MOBIACT_ACTIVITIES) == 13

    def test_extra_mappings(self):
        extra = {"F01": BinaryClass.FALL, "D01": BinaryClass.ADL}
        assert map_activity_to_class("F01", extra) is BinaryClass.FALL
        assert map_activity_to_class("d01", extra) is BinaryClass.ADL

    def test_case_insensitive_tokens(self):
        assert map_activity_to_class("fol") is BinaryClass.FALL


class TestAdcConversion:
    def test_zero(self):
        assert convert_adc_to_g(0, 16.0, 13) == 0.0

    def test_full_scale(self):
        # 4096 * (2 * 16 / 8192) = 16 g
        assert convert_adc_to_g(1 << 12, 16.0, 13) == 16.0

    def test_negative_symmetry(self):
        assert convert_adc_to_g(-(1 << 12), 16.0, 13) == -16.0

    @given(st.integers(-4096, 4096))
    def test_linear(self, bits):
        assert convert_adc_to_g(bits, 16.0, 13) == bits * (32.0 / 8192.0)

    def test_resolution_bounds(self):
        with pytest.raises(ConfigError):
            convert_adc_to_g(1, 16.0, 7)
        with pytest.raises(ConfigError):
            convert_adc_to_g(1, 16.0, 17)


def _mk_samples(n):
    return [Sample("d", i * 50, float(i), 0.0, 0.0) for i in range(n)]


class TestReplaySource:
    def test_content_independent_of_pacing(self):
        samples = _mk_samples(50)
        fast = list(replay_source(samples, rate_hz=20, speed_factor=math.inf))
        paced = list(replay_source(samples, rate_hz=5000, speed_factor=10))
        assert fast == samples
        assert paced == samples

    def test_pacing_duration(self):
        samples = _mk_samples(100)
        t0 = time.monotonic()
        out = list(replay_source(samples, rate_hz=1000, speed_factor=1.0))
        elapsed = time.monotonic() - t0
        assert out == samples
        assert elapsed >= 0.09  # 100 samples at 1 kHz span about 0.1 s

    def test_max_speed_is_immediate(self):
        samples = _mk_samples(2000)
        t0 = time.monotonic()
        out = list(replay_source(samples, rate_hz=1.0, speed_factor=math.inf))
        assert time.monotonic() - t0 < 0.5
        assert out == samples

    def test_empty_sequence(self):
        assert list(replay_source([], 20.0, 1.0)) == []

    def test_bad_rate_and_speed(self):
        with pytest.raises(ConfigError):
            list(replay_source([], 0.0, 1.0))
        with pytest.raises(ConfigError):
            list(replay_source([], 20.0, 0.0))


class TestWireProtocol:
    def test_valid_line(self):
        s = parse_wire_line("dev1,1000,0.10,9.80,0.00")
        assert s == Sample("dev1", 1000, 0.1, 9.8, 0.0)
        assert s.label is None

    def test_bad_timestamp(self):
        assert parse_wire_line("dev1,abc,0.1,9.8,0.0") is None

    def test_bad_device_id(self):
        assert parse_wire_line("bad dev,1000,0.1,9.8,0.0") is None
        assert parse_wire_line("a" * 65 + ",1000,0.1,9.8,0.0") is None

    def test_wrong_field_count(self):
        assert parse_wire_line("dev1,1000,0.1,9.8") is None
        assert parse_wire_line("dev1,1000,0.1,9.8,0.0,extra") is None

    def test_non_finite_rejected(self):
        assert parse_wire_line("dev1,1000,inf,9.8,0.0") is None

    def test_crlf_tolerated(self):
        assert parse_wire_line("dev1,1000,0.1,9.8,0.0\r") is not None


def _connect_and_send(port, payload: bytes):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(payload)


def _collecting_source():
    """A started SocketSource whose batches land in the returned list."""
    got = []
    source = SocketSource("127.0.0.1", 0, emit=got.extend,
                          stats=PipelineStats())
    source.start()
    return source, got


class TestSocketSource:
    def test_lines_become_samples_in_order(self):
        source, got = _collecting_source()
        payload = b"".join(
            f"dev1,{i * 50},0.1,9.8,0.0\n".encode() for i in range(10)
        )
        _connect_and_send(source.port, payload)
        time.sleep(0.3)
        source.stop()
        assert [s.t_ms for s in got] == [i * 50 for i in range(10)]
        assert source.stats.samples_in == 10
        assert source.stats.malformed == 0

    def test_malformed_lines_counted_and_dropped(self):
        source, got = _collecting_source()
        _connect_and_send(
            source.port, b"dev1,abc,0.1,9.8,0.0\ndev1,100,0.1,9.8,0.0\n")
        time.sleep(0.3)
        source.stop()
        assert len(got) == 1
        assert source.stats.malformed == 1
        assert source.stats.samples_in == 2

    def test_two_devices_keep_their_own_order(self):
        source, got = _collecting_source()
        a = b"".join(f"a,{i},1,2,3\n".encode() for i in range(20))
        b = b"".join(f"b,{i},1,2,3\n".encode() for i in range(20))
        _connect_and_send(source.port, a)
        _connect_and_send(source.port, b)
        time.sleep(0.3)
        source.stop()
        for dev in ("a", "b"):
            ts = [s.t_ms for s in got if s.device_id == dev]
            assert ts == sorted(ts) and len(ts) == 20

    def test_stop_returns_promptly(self):
        source, _ = _collecting_source()
        t0 = time.monotonic()
        source.stop()
        assert time.monotonic() - t0 < 1.0
        assert not any(t.is_alive() for t in source._threads)

    def test_unterminated_line_dropped_once_it_passes_the_cap(self):
        source, got = _collecting_source()
        with socket.create_connection(("127.0.0.1", source.port),
                                      timeout=5) as conn:
            conn.sendall(b"7" * 100_000)
            deadline = time.monotonic() + 5
            while source.stats.malformed == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            # counted before any newline arrives: nothing past the cap is kept
            assert source.stats.malformed == 1
            conn.sendall(b"7" * 100_000 + b"\nd,1,1,2,3\n")
        time.sleep(0.3)
        source.stop()
        assert [s.t_ms for s in got] == [1]
        assert source.stats.malformed == 1
        assert source.stats.samples_in == 2

    def test_line_longer_than_cap_is_malformed(self):
        source, got = _collecting_source()
        padded = b"d,1,1,2," + b" " * MAX_LINE_BYTES + b"3\n"
        assert parse_wire_line(padded.decode()) is not None  # only too long
        # whole within one recv, then split so the cap cuts it while buffered
        _connect_and_send(source.port, padded + b"d,2,1,2,3\n")
        with socket.create_connection(("127.0.0.1", source.port),
                                      timeout=5) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.sendall(padded[:-20])
            time.sleep(0.1)
            conn.sendall(padded[-20:] + b"d,3,1,2,3\n")
        time.sleep(0.3)
        source.stop()
        assert sorted(s.t_ms for s in got) == [2, 3]
        assert source.stats.malformed == 2
        assert source.stats.samples_in == 4

    def test_bind_failure_is_fatal(self):
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        blocked = SocketSource("127.0.0.1", port, emit=list().extend,
                               stats=PipelineStats())
        try:
            with pytest.raises(OSError):
                blocked.start()
        finally:
            holder.close()
