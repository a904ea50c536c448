import errno
import gc
import json
import math
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from fallstream import ingest, stream
from fallstream.cli import read_feature_csv
from fallstream.errors import ArtifactError, ConfigError
from fallstream.features import apply_scaler
from fallstream.ingest import (
    BinaryClass,
    SampleBatch,
    load_mapping,
    parse_trial_path,
)
from fallstream.model import evaluate, forward
from fallstream.stream import (
    BoundedQueue,
    Detection,
    PipelineConfig,
    PipelineStats,
    ReplaySpec,
    SocketSpec,
    WebhookSink,
    classify_samples,
    detection_line,
    run_pipeline,
)
from fallstream.synth import make_trial
from fallstream.windowing import Window, WindowAssembler, WindowConfig
from oracle import replay_source


class TestDetectionLine:
    DET = Detection("dev-1", 0, 9950, 0.5, BinaryClass.FALL, "abc123", 4)

    def test_parseable_with_expected_fields(self):
        doc = json.loads(detection_line(self.DET))
        assert doc == {
            "device_id": "dev-1", "t_start_ms": 0, "t_end_ms": 9950,
            "p_fall": 0.5, "class": "FALL", "seq": 4, "model_digest": "abc123",
        }

    def test_key_order_is_fixed(self):
        keys = re.findall(r'"(\w+)":', detection_line(self.DET))
        assert keys == ["device_id", "t_start_ms", "t_end_ms", "p_fall",
                        "class", "seq", "model_digest"]

    def test_p_fall_has_at_least_six_significant_digits(self):
        line = detection_line(self.DET)
        mantissa = re.search(r'"p_fall": (\d)\.(\d+)e', line)
        assert mantissa and len(mantissa.group(1) + mantissa.group(2)) >= 6

    def test_p_fall_round_trips_exactly(self):
        for p in (0.5, 1 / 3, 0.9999999999999999, 1e-9, math.pi / 4):
            det = Detection("d", 0, 1, p, BinaryClass.ADL, "x", 0)
            assert json.loads(detection_line(det))["p_fall"] == p


class TestEvaluateEqualsPipeline:
    def test_evaluate_scores_what_the_pipeline_emits(
            self, artifact, feature_csv, dataset_dir, mapping_path):
        # prepare's rows, scaled and scored as evaluate does, against the
        # detections classify_samples emits for each trial in prepare's order
        X, _, classes = read_feature_csv(feature_csv)
        Xn = apply_scaler(X, artifact.scaler)
        probs = forward(artifact.model, Xn)
        mapping = load_mapping(mapping_path)
        emitted = []
        for path in sorted(p for p in Path(dataset_dir).rglob("*.csv")
                           if p.is_file()):
            batch, _ = parse_trial_path(path, mapping)
            emitted += classify_samples(artifact, batch)
        assert len(emitted) == len(probs) > 0
        assert np.array([d.p_fall for d in emitted]).tobytes() == \
            probs.tobytes()
        assert [d.predicted for d in emitted] == [
            BinaryClass.FALL if p >= 0.5 else BinaryClass.ADL for p in probs]
        # so evaluate's confusion cells count the classes the stream emits
        y = np.array([c is BinaryClass.FALL for c in classes], dtype=float)
        pred = np.array([d.predicted is BinaryClass.FALL for d in emitted])
        true = y == 1.0
        metrics = evaluate(artifact.model, Xn, y)
        assert metrics.counts.tolist() == [
            [int(np.sum(pred & true)), int(np.sum(~pred & true))],
            [int(np.sum(pred & ~true)), int(np.sum(~pred & ~true))]]


def _windows(device, k, n):
    """k windows of n samples each from one device, 50 ms apart."""
    return [Window(device, 50 * np.arange(j * n, (j + 1) * n, dtype=np.int64),
                   np.zeros((n, 3)))
            for j in range(k)]


class TestBoundedQueue:
    def test_drop_oldest_sheds_and_counts(self):
        stats = PipelineStats()
        q = BoundedQueue(2, "drop_oldest", stats)
        first, second, third = (_windows("a", 1, 3), _windows("b", 1, 1),
                                _windows("c", 1, 1))
        q.put(first)
        q.put(second)
        q.put(third)  # shoves out the first item, all 3 of its samples
        assert stats.overflow_drops == 3
        assert not q.full  # a drop_oldest queue makes room itself
        assert q.get() is second
        assert q.get() is third

    def test_block_policy_waits_for_room(self):
        # full stops the loop's reading until a get makes room
        stats = PipelineStats()
        q = BoundedQueue(1, "block", stats)
        first = _windows("a", 1, 1)
        q.put(first)
        assert q.full
        assert q.get() is first
        assert not q.full
        assert stats.overflow_drops == 0

    def test_capacity_counts_samples_not_batches(self):
        q = BoundedQueue(4, "block", PipelineStats())
        first, second = _windows("a", 3, 1), _windows("b", 1, 2)
        q.put(first)
        assert not q.full  # 3 samples in 3 windows, capacity 4
        q.put(second)  # a put under block always enters
        assert q.full and len(q) == 2
        assert q.get() is first
        assert not q.full  # 2 samples left
        assert q.get() is second

    def test_oversized_batch_enters_empty_block_queue(self):
        stats = PipelineStats()
        q = BoundedQueue(2, "block", stats)
        big = _windows("a", 1, 5)
        q.put(big)
        assert q.full
        assert q.get() is big
        assert stats.overflow_drops == 0

    def test_drop_oldest_sheds_whole_batches_until_the_new_one_fits(self):
        stats = PipelineStats()
        q = BoundedQueue(5, "drop_oldest", stats)
        q.put(_windows("a", 1, 2))
        q.put(_windows("b", 2, 1))
        kept = _windows("c", 1, 1)
        q.put(kept)
        new = _windows("d", 1, 3)
        q.put(new)  # needs 3 of 5 slots: sheds a's and b's items whole
        assert stats.overflow_drops == 4
        assert q.get() is kept
        assert q.get() is new
        big = _windows("e", 3, 3)
        q.put(big)  # larger than the capacity: enters empty queue
        assert q.get() is big
        assert stats.overflow_drops == 4

    def test_get_drains_then_returns_none(self):
        q = BoundedQueue(4, "block", PipelineStats())
        first, second = _windows("a", 1, 1), _windows("b", 1, 1)
        q.put(first)
        q.put(second)
        assert q.get() is first
        assert q.get() is second
        assert q.get() is None and len(q) == 0


class FlakySink:
    def __init__(self, fail_always=False):
        self.lines = []
        self.attempts = 0
        self.fail_always = fail_always

    def emit(self, line):
        self.attempts += 1
        if self.fail_always:
            raise OSError("sink down")
        self.lines.append(line)

    def close(self):
        pass


class TestDelivery:
    def test_failing_sink_does_not_disturb_others(self):
        from fallstream.stream import _deliver
        good, bad = FlakySink(), FlakySink(fail_always=True)
        stats = PipelineStats()
        for i in range(5):
            _deliver([f"line{i}"], [bad, good], stats)
        assert good.lines == [f"line{i}" for i in range(5)]
        assert stats.sink_failures == 5
        assert bad.attempts == 10  # one retry per delivery

    def test_transient_failure_recovers_on_retry(self):
        from fallstream.stream import _deliver

        class OnceFlaky(FlakySink):
            def emit(self, line):
                self.attempts += 1
                if self.attempts == 1:
                    raise OSError("hiccup")
                self.lines.append(line)

        sink = OnceFlaky()
        stats = PipelineStats()
        _deliver(["x"], [sink], stats)
        assert sink.lines == ["x"]
        assert stats.sink_failures == 0

    def test_a_batched_sink_gets_a_window_list_in_one_emit(self):
        # one write per list: a failed one is retried whole, and a list
        # that fails twice counts each of its detections
        from fallstream.stream import _deliver

        class Batched(FlakySink):
            batched = True

        class OnceFlaky(Batched):
            def emit(self, text):
                self.attempts += 1
                if self.attempts == 1:
                    raise OSError("hiccup")
                self.lines.append(text)

        flaky, bad, per_line = OnceFlaky(), Batched(fail_always=True), \
            FlakySink()
        stats = PipelineStats()
        _deliver(["a", "b", "c"], [flaky, bad, per_line], stats)
        assert flaky.lines == ["a\nb\nc"] and flaky.attempts == 2
        assert bad.attempts == 2
        assert per_line.lines == ["a", "b", "c"]
        assert stats.sink_failures == 3

    def test_stdout_and_file_sinks_write_a_list_once(self, tmp_path):
        writes = []

        class Stream:
            def write(self, text):
                writes.append(text)

            def flush(self):
                writes.append(None)

        stats = PipelineStats()
        sink = stream.FileSink(tmp_path / "out.jsonl")
        stream._deliver(["a", "b"], [stream.StdoutSink(Stream()), sink],
                        stats)
        sink.close()
        assert writes == ["a\nb\n", None]
        assert (tmp_path / "out.jsonl").read_text() == "a\nb\n"
        assert stats.sink_failures == 0


def _fall_trial(seed=0, n=450, device="dev"):
    return make_trial("fall", n, seed=seed, device_id=device)


class _FakeTime:
    """``stream.time`` on a clock that only a sleep moves."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def _paced_replay(monkeypatch, blocks, speed, stop_at=math.inf):
    """A replay of one block per t_ms list in ``blocks`` on a fake clock,
    stopped once it reads ``stop_at``: the (time, t_ms) of each chunk fed,
    the stats and the clock."""
    clock = _FakeTime()
    monkeypatch.setattr(stream, "time", clock)

    def source(emit):
        for t_ms in blocks:
            emit(SampleBatch("dev", np.array(t_ms, np.int64),
                             np.zeros((len(t_ms), 3))),
                 ingest.ParseReport(rows=len(t_ms)))

    fed, stats = [], PipelineStats()
    stream._replay(ReplaySpec(source, speed),
                   lambda chunk: fed.append((clock.now, chunk.t_ms.tolist())),
                   stats, lambda: clock.now >= stop_at)
    return fed, stats, clock


class TestReplayPipeline:
    def test_stream_equals_batch_bit_for_bit(self, artifact, artifact_path,
                                             tmp_path):
        samples = _fall_trial(seed=11)
        batch = classify_samples(artifact, samples)
        out = tmp_path / "detections.jsonl"
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source(samples)),
            artifact_path=artifact_path,
            sinks=(f"file:{out}",),
            overflow="block",
        )
        stats = run_pipeline(config)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert stats.detections == len(batch) == len(lines)
        for det, doc in zip(batch, lines):
            assert doc["p_fall"] == det.p_fall
            assert doc["class"] == det.predicted.value
            assert doc["seq"] == det.seq

    def test_pacing_does_not_change_content(self, artifact_path, tmp_path):
        samples = _fall_trial(seed=12, n=400)
        outputs = []
        for speed in (math.inf, 40.0):
            out = tmp_path / f"s{speed}.jsonl"
            config = PipelineConfig(
                source=ReplaySpec(samples=replay_source(samples), speed=speed),
                artifact_path=artifact_path,
                sinks=(f"file:{out}",),
            )
            run_pipeline(config)
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_empty_source_shuts_down_cleanly(self, artifact_path):
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source([])),
            artifact_path=artifact_path,
            sinks=("stdout",),
        )
        stats = run_pipeline(config)
        assert stats.detections == 0 and stats.samples_in == 0

    def test_sample_conservation_with_block_policy(self, artifact_path,
                                                   tmp_path):
        samples = _fall_trial(seed=13, n=1234)
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source(samples)),
            artifact_path=artifact_path,
            sinks=(f"file:{tmp_path / 'out.jsonl'}",),
            overflow="block",
            queue_capacity=2,
        )
        stats = run_pipeline(config)
        assert stats.samples_in == 1234
        assert stats.samples_in == (stats.windows * 200
                                    + stats.partial_window_drops
                                    + stats.malformed)
        assert stats.overflow_drops == 0

    def test_max_speed_replay_goes_as_fast_as_the_consumer_accepts(
            self, artifact_path, tmp_path):
        samples = _fall_trial(seed=13, n=1234)
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source(samples)),
            artifact_path=artifact_path,
            sinks=(f"file:{tmp_path / 'out.jsonl'}",),
            overflow="drop_oldest",
            queue_capacity=1,
        )
        stats = run_pipeline(config)
        assert stats.overflow_drops == 0
        assert stats.windows == 6 and stats.partial_window_drops == 34

    def test_fast_paced_replay_sheds_nothing(self, artifact_path, tmp_path):
        # 20,000 rows due within 0.1 s, more than a 1,024-sample queue
        # holds: the loop queues only what it is about to take
        rng = np.random.default_rng(18)
        batch = SampleBatch("dev", 50 * np.arange(20_000, dtype=np.int64),
                            rng.normal((0.0, 9.8, 0.0), 2.0, (20_000, 3)))
        stats = run_pipeline(PipelineConfig(
            source=ReplaySpec(samples=replay_source(batch), speed=1e4),
            artifact_path=artifact_path,
            sinks=(f"file:{tmp_path / 'out.jsonl'}",),
            overflow="drop_oldest",
            queue_capacity=1024,
        ))
        assert stats.overflow_drops == 0
        assert stats.samples_in == 20_000
        assert stats.windows == stats.detections == 100

    def test_paced_replay_starts_no_thread(self, artifact_path, monkeypatch):
        seen = []

        class ThreadCountingSink:
            def emit(self, line):
                seen.append(threading.active_count())

            def close(self):
                pass

        monkeypatch.setattr(stream, "build_sink",
                            lambda spec: ThreadCountingSink())
        before = threading.active_count()
        stats = run_pipeline(PipelineConfig(
            source=ReplaySpec(samples=replay_source(_fall_trial(seed=17,
                                                                n=600)),
                              speed=400.0),
            artifact_path=artifact_path,
        ))
        assert stats.detections == 3
        assert seen == [before] * 3

    def test_shutdown_stops_a_paced_replay_promptly(self, artifact_path,
                                                    tmp_path):
        shutdown = threading.Event()
        timer = threading.Timer(0.3, shutdown.set)
        timer.start()
        t0 = time.monotonic()
        stats = run_pipeline(PipelineConfig(
            source=ReplaySpec(samples=replay_source(_fall_trial(seed=17,
                                                                n=600)),
                              speed=0.05),
            artifact_path=artifact_path,
            sinks=(f"file:{tmp_path / 'out.jsonl'}",),
        ), shutdown=shutdown)
        timer.join()
        assert time.monotonic() - t0 < 1.0
        # row 0 is due at once, row 1 (50 ms on, at speed 0.05) only after
        # a second
        assert stats.samples_in == stats.partial_window_drops <= 1

    def test_due_chunk_schedule(self, monkeypatch):
        # an irregular clock at speed 1: row i is due (m_i - t_0) / 1000 s
        # after the first, m_i the largest t_ms so far, across both blocks;
        # 1100 and 1150 step back and are due with the 1500 before them,
        # and 1200 is due as soon as the second block comes, while the
        # loop wakes every WAIT_S in between
        fed, stats, clock = _paced_replay(
            monkeypatch, [[1000, 1020, 1500, 1100, 1150, 1500, 1500],
                          [1200, 1700, 2000, 2000, 2150]], speed=1.0)
        assert [t for _, t in fed] == [
            [1000], [1020], [1500, 1100, 1150, 1500, 1500], [1200], [1700],
            [2000, 2000], [2150]]
        assert [at for at, _ in fed] == pytest.approx(
            [0.0, 0.02, 0.5, 0.5, 0.7, 1.0, 1.15])
        assert max(clock.sleeps) <= stream.WAIT_S
        assert stats.samples_in == 12

    def test_a_stop_is_seen_within_wait_s_of_a_far_row(self, monkeypatch):
        # row 1 is due at inf: the widest t_ms step at a speed this small
        # overflows no int64 and raises no numpy warning
        fed, stats, clock = _paced_replay(
            monkeypatch, [[-2**63, 2**63 - 1]], speed=1e-310, stop_at=0.5)
        assert fed == [(0.0, [-2**63])]
        assert max(clock.sleeps) <= stream.WAIT_S
        assert 0.5 <= clock.now < 0.5 + stream.WAIT_S
        assert stats.samples_in == 1

    def test_max_speed_feeds_each_block_whole(self, monkeypatch):
        # every row is due at once: no clock is read, and a turn is one
        # block, however long
        monkeypatch.setattr(stream, "time", None)
        fed, stats = [], PipelineStats()
        blocks = [SampleBatch.from_samples(_fall_trial(seed=17, n=n))
                  for n in (20_000, 450)]

        def source(emit):
            for batch in blocks:
                emit(batch, ingest.ParseReport(rows=len(batch)))

        stream._replay(ReplaySpec(source), fed.append, stats, lambda: False)
        assert fed == blocks
        assert stats.samples_in == 20_450

    def test_per_device_order_and_sequences(self, artifact_path, tmp_path):
        a = make_trial("adl", 650, seed=14, device_id="dev_a")
        b = make_trial("fall", 650, seed=15, device_id="dev_b")
        interleaved = [s for pair in zip(a, b) for s in pair]
        out = tmp_path / "out.jsonl"
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source(interleaved)),
            artifact_path=artifact_path,
            sinks=(f"file:{out}",),
        )
        run_pipeline(config)
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        for dev in ("dev_a", "dev_b"):
            mine = [d for d in docs if d["device_id"] == dev]
            assert [d["seq"] for d in mine] == list(range(len(mine)))
            starts = [d["t_start_ms"] for d in mine]
            assert starts == sorted(starts)

    def test_detection_class_matches_threshold(self, artifact, artifact_path):
        samples = _fall_trial(seed=16)
        for det in classify_samples(artifact, samples):
            assert (det.predicted is BinaryClass.FALL) == (det.p_fall >= 0.5)
            assert det.model_digest == artifact.digest

    def test_columnar_source_equals_sample_list(self, artifact,
                                                artifact_path, tmp_path):
        a = make_trial("adl", 650, seed=19, device_id="dev_a")
        b = make_trial("fall", 650, seed=20, device_id="dev_b")
        samples = [s for pair in zip(a, b) for s in pair]
        batch = SampleBatch.from_samples(samples)
        from_list = classify_samples(artifact, samples)
        from_batch = classify_samples(artifact, batch)
        assert [(d.device_id, d.seq, d.p_fall) for d in from_list] == \
            [(d.device_id, d.seq, d.p_fall) for d in from_batch]
        outputs = []
        for source, speed in ((samples, math.inf), (batch, math.inf),
                              (batch, 400.0)):
            out = tmp_path / f"out{len(outputs)}.jsonl"
            run_pipeline(PipelineConfig(
                source=ReplaySpec(samples=replay_source(source), speed=speed),
                artifact_path=artifact_path, sinks=(f"file:{out}",)))
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == len(from_list) == 6

    def test_missing_artifact_is_fatal(self, tmp_path):
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source([])),
            artifact_path=tmp_path / "nowhere.json",
            sinks=("stdout",),
        )
        with pytest.raises(ArtifactError):
            run_pipeline(config)

    @pytest.mark.parametrize("busy_port,sinks,error", [
        (True, ("file:out.jsonl",), OSError),
        (False, ("file:x", "bogus"), ConfigError),
    ])
    def test_startup_failure_closes_the_sinks_built(
            self, artifact_path, tmp_path, monkeypatch, busy_port, sinks,
            error):
        monkeypatch.chdir(tmp_path)
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        source = (SocketSpec(port=holder.getsockname()[1]) if busy_port
                  else ReplaySpec(samples=replay_source([])))
        try:
            with _no_resource_warnings(), pytest.raises(error):
                run_pipeline(PipelineConfig(source, artifact_path,
                                            sinks=sinks))
        finally:
            holder.close()

    def test_startup_failure_after_the_reader_started_reaps_it(
            self, artifact_path, tmp_path, monkeypatch):
        # the listening line is printed once the reader runs; a stderr that
        # refuses it fails the start, and the reader must not outlive that
        started = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        class ClosedStderr:
            def write(self, text):
                raise ValueError("I/O operation on closed file")

            flush = write

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        monkeypatch.setattr(sys, "stderr", ClosedStderr())
        with _no_resource_warnings(), pytest.raises(ValueError):
            run_pipeline(PipelineConfig(
                SocketSpec(), artifact_path,
                sinks=(f"file:{tmp_path / 'out.jsonl'}",)))
        assert len(started) == 1
        assert started[0].returncode is not None  # reaped
        assert not Path(f"/proc/{started[0].pid}").exists()

    def test_config_invariants(self, artifact_path):
        with pytest.raises(ConfigError):
            PipelineConfig(source=ReplaySpec(samples=replay_source([])),
                           artifact_path=artifact_path, sinks=())
        with pytest.raises(ConfigError):
            PipelineConfig(source=ReplaySpec(samples=replay_source([])),
                           artifact_path=artifact_path, queue_capacity=0)
        with pytest.raises(ConfigError):
            PipelineConfig(source=ReplaySpec(samples=replay_source([])),
                           artifact_path=artifact_path, overflow="panic")


@contextmanager
def _no_resource_warnings():
    """Fail on a ResourceWarning raised inside the block or by what it left
    for the collector: an unclosed socket, pipe or file, or a reader
    process never reaped ("subprocess N is still running"). Recorded, not
    raised: pytest reports a warning raised in a finalizer as another
    warning, and the test would pass."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in seen
            if issubclass(w.category, ResourceWarning)] == []


@contextmanager
def _reader_on_a_thread():
    """serve's reader loop on a thread of this process, which patches here
    reach (serve runs it in another process). Yields its port, the
    ReaderPipe that takes its messages as serve does, and ``stop``, which
    closes its control pipe."""
    listener = ingest.bind_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    data_r, data_w = os.pipe()
    control_r, control_w = os.pipe()
    control = open(control_w, "wb", buffering=0)
    pipe = ingest.ReaderPipe(data_r, PipelineStats())
    loop = threading.Thread(target=ingest.serve_reader,
                            args=(listener, data_w, control_r))
    loop.start()
    try:
        yield port, pipe, control.close
    finally:
        control.close()
        deadline = time.monotonic() + 5
        while loop.is_alive() and time.monotonic() < deadline:
            pipe.take(0.05)  # a full pipe would block its last write
        loop.join(timeout=1)
        os.close(data_w)
        os.close(control_r)
        pipe.close()
    assert not loop.is_alive()


def _send_lines(port, lines):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall("".join(lines).encode())


def _wire_lines(n, device="live1"):
    return [f"{device},{i * 50},0.1,9.8,0.05\n" for i in range(n)]


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _run_socket_pipeline(artifact_path, out, port, send, settle=1.0,
                         overflow="drop_oldest", queue_capacity=1024,
                         sinks=None, stats_interval_s=None, result=None):
    """Serve on a runner thread while ``send(port)`` runs on this one, then
    shut down; ``result`` gets the stats, the thread count the runner saw
    before it called run_pipeline and the seconds from shutdown to return
    (``stop_s``)."""
    shutdown = threading.Event()
    config = PipelineConfig(
        source=SocketSpec("127.0.0.1", port),
        artifact_path=artifact_path,
        sinks=sinks or (f"file:{out}",),
        overflow=overflow,
        queue_capacity=queue_capacity,
        stats_interval_s=stats_interval_s,
    )
    result = {} if result is None else result

    def runner():
        result["threads"] = threading.active_count()
        result["stats"] = run_pipeline(config, shutdown=shutdown)

    thread = threading.Thread(target=runner, daemon=True)
    with _no_resource_warnings():
        thread.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                _send_lines(port, [])
                break
            except OSError:
                time.sleep(0.05)
        try:
            send(port)
            time.sleep(settle)
        finally:
            shutdown.set()
            stopping = time.monotonic()
            thread.join(timeout=10)
        assert not thread.is_alive()
        result["stop_s"] = time.monotonic() - stopping
    return result["stats"]


def _conserved(stats):
    return stats.samples_in == (stats.malformed + stats.overflow_drops
                                + 200 * stats.windows
                                + stats.partial_window_drops)


def _wait_for_lines(path, n, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_text().count("\n") >= n:
            return
        time.sleep(0.05)


def _wait_for_text(path, text, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and text in path.read_text():
            return
        time.sleep(0.05)


def _send_in_pieces(port, payload: bytes, size: int, pause: float = 0.0):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(0, len(payload), size):
            conn.sendall(payload[i:i + size])
            if pause:
                time.sleep(pause)


def _wire_form(samples) -> bytes:
    return "".join(f"{s.device_id},{s.t_ms},{s.ax!r},{s.ay!r},{s.az!r}\n"
                   for s in samples).encode()


class TestSocketPipeline:
    def test_full_window_produces_one_detection(self, artifact_path, tmp_path):
        out = tmp_path / "live.jsonl"
        port = _free_port()
        stats = _run_socket_pipeline(
            artifact_path, out, port,
            lambda p: _send_lines(p, _wire_lines(200)))
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(docs) == 1
        assert stats.detections == 1
        assert stats.samples_in == 200

    def test_partial_window_dropped_and_counted_at_shutdown(
            self, artifact_path, tmp_path):
        out = tmp_path / "live.jsonl"
        port = _free_port()
        stats = _run_socket_pipeline(
            artifact_path, out, port,
            lambda p: _send_lines(p, _wire_lines(199)))
        assert stats.detections == 0
        assert stats.partial_window_drops == 199
        assert out.read_text() == ""

    def test_malformed_lines_counted_service_stays_up(self, artifact_path,
                                                      tmp_path):
        out = tmp_path / "live.jsonl"
        port = _free_port()

        def send(p):
            _send_lines(p, ["garbage line\n", "live1,notanint,1,2,3\n"])
            _send_lines(p, _wire_lines(200))

        stats = _run_socket_pipeline(artifact_path, out, port, send)
        assert stats.malformed == 2
        assert stats.detections == 1


    def test_serving_runs_on_one_thread(self, artifact_path, tmp_path,
                                        monkeypatch, capsys):
        # taking the reader's messages, classifying and the periodic stats
        # line share the thread that called run_pipeline
        seen = []
        real_build = stream.build_sink

        class ThreadCountingSink:
            def emit(self, line):
                seen.append(threading.active_count())

            def close(self):
                pass

        monkeypatch.setattr(
            stream, "build_sink",
            lambda spec: (ThreadCountingSink() if spec == "threads"
                          else real_build(spec)))
        out = tmp_path / "live.jsonl"
        result = {}

        def send(port):
            for k in range(3):
                _send_lines(port, _wire_lines(200, f"d{k}"))
            _wait_for_lines(out, 3)
            time.sleep(0.5)  # two stats intervals at least

        stats = _run_socket_pipeline(
            artifact_path, out, _free_port(), send, settle=0.0,
            sinks=(f"file:{out}", "threads"), stats_interval_s=0.2,
            result=result)
        assert stats.detections == 3
        assert seen == [result["threads"]] * 3
        assert capsys.readouterr().err.count("stats samples_in=") >= 2


class TestColumnarReads:
    def test_reads_with_and_without_malformed_lines_equal_batch(
            self, artifact, artifact_path, tmp_path, monkeypatch):
        # two devices interleaved on one connection, a malformed line after
        # every 300: some reads hold one, the rest none
        trials = {dev: [replace(s, label=None)
                        for s in make_trial("fall", 2400, seed=seed,
                                            device_id=dev)]
                  for dev, seed in (("a", 31), ("b", 32))}
        expected = {dev: classify_samples(artifact, trial)
                    for dev, trial in trials.items()}
        bad = [b"garbage", b"a,notanint,0.1,9.8,0", b"b,50,inf,9.8,0",
               b"a,50,0.1,9.8", b"b,\xff,0.1,9.8,0", b"\r"]
        lines = []
        for i, pair in enumerate(zip(trials["a"], trials["b"])):
            if i and i % 150 == 0:
                lines.append(bad[i // 150 % len(bad)] + b"\n")
            lines.append(_wire_form(pair))
        n_bad = len(lines) - len(trials["a"])
        payload = b"".join(lines)

        blocks = []
        real = ingest.parse_wire_block

        def counting(block):
            batch, rejected = real(block)
            blocks.append(rejected == 0)
            return batch, rejected

        # serve's reader is another process, which a patch here never
        # reaches: this drives its SocketSource on this thread instead, and
        # windows and classifies what it emits as the serving loop does
        monkeypatch.setattr(ingest, "parse_wire_block", counting)
        assembler = WindowAssembler(WindowConfig())
        seqs, got = {}, []

        def emit(batch):
            windows = assembler.push(batch)
            if windows:
                got.extend(stream.classify_windows(artifact, windows, seqs))

        listener = ingest.bind_listener("127.0.0.1", 0)
        source = ingest.SocketSource(listener, emit=emit,
                                     stats=PipelineStats())
        sender = threading.Thread(
            target=_send_in_pieces,
            args=(listener.getsockname()[1], payload, 8192, 0.01))
        sender.start()
        deadline = time.monotonic() + 30
        while (sender.is_alive()
               or source.stats.samples_in < 4800 + n_bad):
            assert time.monotonic() < deadline, "payload not read"
            source.poll(0.01)
        source.close()
        sender.join(timeout=10)
        assert True in blocks and False in blocks
        for dev, want in expected.items():
            mine = [d for d in got if d.device_id == dev]
            assert [d.p_fall for d in mine] == [e.p_fall for e in want]
            assert [d.t_end_ms for d in mine] == [e.t_end_ms for e in want]
        stats = source.stats
        assert stats.malformed == n_bad == 15
        assert stats.samples_in == 4800 + n_bad
        assert stats.samples_in == (stats.malformed + 200 * len(got)
                                    + assembler.pending())


class TestReaderFaults:
    """One loop in the reader process reads every connection: a stalled or
    broken client holds up no other, and its unterminated line is counted
    once."""

    def test_half_line_client_does_not_delay_another_detection(
            self, artifact_path, tmp_path):
        out = tmp_path / "live.jsonl"
        seen_while_stalled = []

        def send(port):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as stalled:
                stalled.sendall(b"stalled,1,0.")
                _send_lines(port, _wire_lines(200))
                _wait_for_lines(out, 1, timeout=10)
                seen_while_stalled.append(out.read_text().count("\n"))

        stats = _run_socket_pipeline(artifact_path, out, _free_port(), send,
                                     settle=0.3, overflow="block")
        assert seen_while_stalled == [1]
        assert stats.detections == 1
        assert stats.malformed == 1  # the half line, once its client left
        assert _conserved(stats)

    def test_reset_mid_line_counts_once_and_other_stream_equals_batch(
            self, artifact, artifact_path, tmp_path):
        trial = [replace(s, label=None)
                 for s in make_trial("fall", 650, seed=7, device_id="a")]
        expected = classify_samples(artifact, trial)
        out = tmp_path / "live.jsonl"

        def send(port):
            payload = _wire_form(trial)
            half = len(payload) // 2
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as a:
                a.sendall(payload[:half])
                b = socket.create_connection(("127.0.0.1", port), timeout=5)
                b.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                b.sendall("".join(_wire_lines(199, "b")).encode())
                time.sleep(0.3)
                # the window's last line and half a line in one segment: the
                # detection shows that the half line has been read
                b.sendall(b"b,9950,0.1,9.8,0.05\nb,10000,0.1,")
                _wait_for_text(out, '"device_id": "b"')
                # close with linger 0 sends a reset, not a FIN
                b.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
                b.close()
                a.sendall(payload[half:])
            _wait_for_lines(out, len(expected) + 1)

        stats = _run_socket_pipeline(artifact_path, out, _free_port(), send,
                                     settle=0.3, overflow="block")
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        mine = [d for d in docs if d["device_id"] == "a"]
        assert [d["p_fall"] for d in mine] == [e.p_fall for e in expected]
        assert [d["seq"] for d in mine] == list(range(len(expected)))
        assert stats.detections == len(expected) + 1
        assert stats.malformed == 1
        assert stats.samples_in == 650 + 200 + 1
        assert _conserved(stats)


    def test_accept_that_keeps_failing_does_not_stall_the_loop(
            self, monkeypatch):
        # a connection waits in the backlog that no accept can take: the
        # listener stays ready, yet the reader's loop reads the other
        # client, sends its rows, and stops promptly. serve runs that loop
        # in another process, which the patches here never reach, so the
        # loop runs on a thread here and its messages are taken as serve
        # takes them
        real_accept = socket.socket.accept
        accepted = []

        def accept(sock):
            if len(accepted) == 1:  # the first client
                raise OSError(errno.EMFILE, "Too many open files")
            accepted.append(sock)
            return real_accept(sock)

        monkeypatch.setattr(socket.socket, "accept", accept)
        real_poll = ingest.SocketSource.poll
        polls = []

        def poll(source, timeout):
            polls.append(timeout)
            return real_poll(source, timeout)

        # after a failed accept the listener sits out a pause instead of
        # making every select return at once
        monkeypatch.setattr(ingest.SocketSource, "poll", poll)
        assembler = WindowAssembler(WindowConfig())
        rows, windows = [], []
        waiting = []

        def take(timeout):
            batch = pipe.take(timeout)
            if batch is not None:
                rows.append(len(batch))
                windows.extend(assembler.push(batch))

        try:
            with _reader_on_a_thread() as (port, pipe, stop):
                _send_lines(port, _wire_lines(1000))
                waiting.append(socket.create_connection(("127.0.0.1", port),
                                                        timeout=5))
                waiting[0].sendall(
                    "".join(_wire_lines(200, "late")).encode())
                deadline = time.monotonic() + 0.8
                while time.monotonic() < deadline:
                    take(0.05)
                stopping = time.monotonic()
                stop()
                while not pipe.done:
                    take(1.0)
                assert time.monotonic() - stopping < 1.0
        finally:
            for conn in waiting:
                conn.close()
        assert sum(rows) == pipe.stats.samples_in == 1000
        assert len(windows) == 5 and assembler.pending() == 0
        assert pipe.stats.malformed == 0
        assert len(polls) <= 50

    def test_a_read_with_no_valid_line_still_sends_its_counts(self):
        with _reader_on_a_thread() as (port, pipe, _stop):
            _send_lines(port, ["garbage line\n", "live1,notanint,1,2,3\n"])
            deadline = time.monotonic() + 5
            while pipe.stats.samples_in < 2:  # no stop: seen while serving
                assert time.monotonic() < deadline, "counts not sent"
                batch = pipe.take(0.1)
                assert batch is None or len(batch) == 0
            assert pipe.stats.malformed == 2 and not pipe.done

    def test_endless_line_does_not_stall_the_loop(
            self, artifact_path, tmp_path):
        # one client streams a line that never ends while another sends two
        # windows; the streamer's socket is ready on every pass of the
        # reader. Both windows are classified and shutdown ends the loop
        out = tmp_path / "live.jsonl"
        streaming = threading.Event()
        done = threading.Event()

        def stream_sevens(port):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as conn:
                try:
                    while not done.is_set():
                        conn.sendall(b"7" * (1 << 20))
                        streaming.set()
                except OSError:
                    pass  # the server closed the connection
            streaming.set()

        def send(port):
            threading.Thread(target=stream_sevens, args=(port,),
                             daemon=True).start()
            assert streaming.wait(5)
            _send_lines(port, _wire_lines(400))
            _wait_for_lines(out, 2, timeout=10)

        result = {}
        try:
            stats = _run_socket_pipeline(artifact_path, out, _free_port(),
                                         send, settle=0.2, overflow="block",
                                         result=result)
        finally:
            done.set()
        assert result["stop_s"] < 1.0
        assert stats.windows == stats.detections == 2
        assert stats.malformed == 1  # the endless line, once
        assert stats.samples_in == 401
        assert _conserved(stats)


def _slow_classification(monkeypatch, delay_s):
    """Make every classify_windows call take ``delay_s`` longer."""
    real = stream.classify_windows

    def slow(artifact, windows, seqs):
        time.sleep(delay_s)
        return real(artifact, windows, seqs)

    monkeypatch.setattr(stream, "classify_windows", slow)


class TestOverflowShedding:
    def test_block_reads_nothing_while_the_queue_is_full(
            self, artifact, artifact_path, tmp_path, monkeypatch):
        # classification lags behind a flood into a queue of two windows:
        # under block no read happens while the queue is full, so nothing
        # is shed and the client waits through TCP
        trials = {dev: [replace(s, label=None)
                        for s in make_trial(kind, 1250, seed=seed,
                                            device_id=dev)]
                  for dev, kind, seed in (("b0", "fall", 43),
                                          ("b1", "adl", 44))}
        payload = b"".join(_wire_form(pair) for pair in zip(*trials.values()))
        room_at_put = []
        real_put = BoundedQueue.put

        def put(queue, windows):
            room_at_put.append(queue._queued < queue._capacity)
            real_put(queue, windows)

        monkeypatch.setattr(BoundedQueue, "put", put)
        _slow_classification(monkeypatch, 0.02)
        out = tmp_path / "live.jsonl"

        def send(port):
            _send_in_pieces(port, payload, 8192)
            _wait_for_lines(out, 12)

        stats = _run_socket_pipeline(artifact_path, out, _free_port(), send,
                                     settle=0.3, overflow="block",
                                     queue_capacity=400)
        assert room_at_put and all(room_at_put)
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        for dev, trial in trials.items():
            mine = [d for d in docs if d["device_id"] == dev]
            want = classify_samples(artifact, trial)
            assert [d["p_fall"] for d in mine] == [w.p_fall for w in want]
            assert [d["seq"] for d in mine] == list(range(len(want)))
        assert stats.overflow_drops == 0
        assert stats.windows == stats.detections == 12
        assert stats.samples_in == 2500
        assert stats.partial_window_drops == 100
        assert _conserved(stats)

    def test_shed_drops_whole_windows_and_leaves_partial_ones(
            self, artifact, artifact_path, tmp_path, monkeypatch):
        # classification lags while two devices flood a queue of two
        # windows: reading goes on and the oldest window lists are shed
        trials = {dev: [replace(s, label=None)
                        for s in make_trial(kind, n, seed=seed,
                                            device_id=dev)]
                  for dev, kind, n, seed in (("f0", "fall", 3050, 41),
                                             ("f1", "adl", 2930, 42))}
        n_lines = {dev: len(trial) for dev, trial in trials.items()}
        expected = {(d.device_id, d.t_start_ms): d
                    for trial in trials.values()
                    for d in classify_samples(artifact, trial)}
        payload = b"".join(_wire_form(pair) for pair in zip(*trials.values()))
        payload += _wire_form(trials["f0"][len(trials["f1"]):])
        seen = {}
        real_init = BoundedQueue.__init__

        def init(queue, capacity, policy, stats):
            seen["stats"] = stats
            real_init(queue, capacity, policy, stats)

        monkeypatch.setattr(BoundedQueue, "__init__", init)
        _slow_classification(monkeypatch, 0.05)
        out = tmp_path / "live.jsonl"

        def send(port):
            _send_in_pieces(port, payload, 8192)
            deadline = time.monotonic() + 30
            while seen["stats"].samples_in < sum(n_lines.values()):
                assert time.monotonic() < deadline, "flood not read"
                time.sleep(0.01)

        stats = _run_socket_pipeline(artifact_path, out, _free_port(), send,
                                     settle=0.5, overflow="drop_oldest",
                                     queue_capacity=400)
        assert stats.overflow_drops > 0  # the flood did overflow
        assert stats.overflow_drops % 200 == 0
        # no shed touched a partial window: what is left is each device's
        # tail past its last full window
        assert stats.partial_window_drops == sum(n % 200
                                                 for n in n_lines.values())
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(docs) == stats.detections == stats.windows > 0
        for d in docs:
            want = expected.get((d["device_id"], d["t_start_ms"]))
            assert want is not None, d  # a window the trial's grid holds
            assert d["t_end_ms"] == want.t_end_ms
            assert d["p_fall"] == want.p_fall
        assert stats.samples_in == sum(n_lines.values())
        assert stats.malformed == 0
        assert _conserved(stats)


class _Responder(BaseHTTPRequestHandler):
    status_plan: list[int] = []
    delay_s = 0.0
    bodies: list[bytes] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).bodies.append(self.rfile.read(length))
        if type(self).delay_s:
            time.sleep(type(self).delay_s)
        status = type(self).status_plan.pop(0) if type(self).status_plan else 200
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Responder)
    _Responder.status_plan = []
    _Responder.bodies = []
    _Responder.delay_s = 0.0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestWebhookSink:
    def test_successful_post(self, http_server):
        sink = WebhookSink(f"http://127.0.0.1:{http_server.server_port}/hook")
        sink.emit('{"p_fall": 0.5}')
        assert _Responder.bodies == [b'{"p_fall": 0.5}']

    def test_server_error_raises(self, http_server):
        _Responder.status_plan = [500]
        sink = WebhookSink(f"http://127.0.0.1:{http_server.server_port}/hook")
        with pytest.raises(Exception):
            sink.emit("{}")

    def test_timeout_raises(self, http_server):
        _Responder.delay_s = 1.0
        sink = WebhookSink(
            f"http://127.0.0.1:{http_server.server_port}/hook", timeout_s=0.2)
        with pytest.raises(Exception):
            sink.emit("{}")

    def test_two_failures_count_once_pipeline_continues(
            self, http_server, artifact_path, tmp_path):
        _Responder.status_plan = [500, 500]
        out = tmp_path / "out.jsonl"
        samples = make_trial("adl", 200, seed=17)
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source(samples)),
            artifact_path=artifact_path,
            sinks=(f"webhook:http://127.0.0.1:{http_server.server_port}/hook",
                   f"file:{out}"),
        )
        stats = run_pipeline(config)
        assert stats.detections == 1
        assert stats.sink_failures == 1
        assert len(_Responder.bodies) == 2  # initial attempt plus one retry
        assert len(out.read_text().splitlines()) == 1

    def test_webhook_delivers_detection_lines(self, http_server,
                                              artifact_path):
        samples = make_trial("fall", 400, seed=18)
        config = PipelineConfig(
            source=ReplaySpec(samples=replay_source(samples)),
            artifact_path=artifact_path,
            sinks=(f"webhook:http://127.0.0.1:{http_server.server_port}/hook",),
        )
        stats = run_pipeline(config)
        assert stats.detections == 2
        docs = [json.loads(b) for b in _Responder.bodies]
        assert [d["seq"] for d in docs] == [0, 1]


    def test_slow_webhook_pauses_reading_and_miscounts_nothing(
            self, http_server, artifact_path, tmp_path):
        # each POST takes 0.3 s on the serving thread; the clients wait
        # through TCP meanwhile and every sink gets every detection
        _Responder.delay_s = 0.3
        url = f"http://127.0.0.1:{http_server.server_port}/hook"
        out = tmp_path / "live.jsonl"

        def send(port):
            _send_lines(port, _wire_lines(400, "w0"))
            _send_lines(port, _wire_lines(400, "w1"))
            _wait_for_lines(out, 4)

        stats = _run_socket_pipeline(artifact_path, out, _free_port(), send,
                                     settle=0.5,
                                     sinks=(f"file:{out}", f"webhook:{url}"))
        lines = out.read_text().splitlines()
        assert len(lines) == stats.detections == 4
        assert [b.decode() for b in _Responder.bodies] == lines
        assert stats.sink_failures == 0
        assert _conserved(stats)

class TestBatchedIngest:
    def test_live_stream_equals_batch_across_chunk_boundaries(
            self, artifact, artifact_path, tmp_path):
        trials = {
            f"d{k}": [replace(s, label=None) for s in make_trial(
                kind, 650, seed=40 + k, device_id=f"d{k}")]
            for k, kind in enumerate(("fall", "adl", "adl", "fall"))
        }
        # two devices interleaved per connection; lines straddle recvs
        conns = [
            ([s for pair in zip(trials["d0"], trials["d1"]) for s in pair], 7),
            ([s for pair in zip(trials["d2"], trials["d3"]) for s in pair],
             4097),
        ]
        expected = sum(len(classify_samples(artifact, t))
                       for t in trials.values())
        out = tmp_path / "live.jsonl"

        def send(port):
            senders = [
                threading.Thread(target=_send_in_pieces,
                                 args=(port, _wire_form(samples), size))
                for samples, size in conns
            ]
            for t in senders:
                t.start()
            for t in senders:
                t.join(timeout=30)
            _wait_for_lines(out, expected)

        stats = _run_socket_pipeline(artifact_path, out, _free_port(), send,
                                     settle=0.3, overflow="block")
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(docs) == expected == stats.detections == stats.windows
        for dev, samples in trials.items():
            mine = [d for d in docs if d["device_id"] == dev]
            batch = classify_samples(artifact, samples)
            assert [d["seq"] for d in mine] == list(range(len(batch)))
            assert [d["p_fall"] for d in mine] == [b.p_fall for b in batch]
        assert stats.samples_in == 4 * 650
        assert stats.malformed == stats.overflow_drops == 0
        assert _conserved(stats)

    def test_counters_exact_under_concurrent_connections(
            self, artifact_path, tmp_path):
        out = tmp_path / "live.jsonl"

        def payload(dev):
            return "".join(
                f"{dev},bad,1,2,3\n" if i % 50 == 49
                else f"{dev},{i * 50},0.1,9.8,0.05\n"
                for i in range(5000)).encode()

        def send(port):
            senders = [
                threading.Thread(target=_send_in_pieces,
                                 args=(port, payload(f"c{k}"), 1500))
                for k in range(4)
            ]
            for t in senders:
                t.start()
            for t in senders:
                t.join(timeout=30)
            _wait_for_lines(out, 4 * 24)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # readers preempt one another often
        try:
            stats = _run_socket_pipeline(artifact_path, out, _free_port(),
                                         send, settle=0.5, overflow="block")
        finally:
            sys.setswitchinterval(interval)
        assert stats.samples_in == 20_000
        assert stats.malformed == 400
        assert stats.timestamp_regressions == 0
        assert stats.windows == stats.detections == 4 * 24
        assert stats.partial_window_drops == 4 * 100
        assert stats.overflow_drops == 0
        assert _conserved(stats)

    def test_unterminated_megabyte_counts_once_and_stream_goes_on(
            self, artifact_path, tmp_path):
        out = tmp_path / "live.jsonl"

        def send(port):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as conn:
                conn.sendall(b"x" * 1_000_000)
                conn.sendall(b"\n" + "".join(_wire_lines(200)).encode())
            _wait_for_lines(out, 1)

        stats = _run_socket_pipeline(artifact_path, out, _free_port(), send,
                                     settle=0.3, overflow="block")
        assert stats.detections == 1
        assert stats.malformed == 1
        assert stats.samples_in == 201
        assert _conserved(stats)
