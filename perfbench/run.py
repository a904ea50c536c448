#!/usr/bin/env python3
"""The fallstream benchmark: workloads driven from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload offline --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists; BENCHMARK.json lists
offline and live_flood, the other two are run by hand):

  offline        rounds of prepare, train and replay --speed max as
                 ``python -m fallstream`` subprocesses until --seconds of
                 command time have passed; evaluate --split test once
  live_paced     ``serve --overflow block`` fed 1,000 devices at 20 Hz over 2
                 loopback connections by an open-loop generator
  live_flood     ``serve --overflow block`` fed 8 devices as fast as it consumes
                 them, at most 64 blocks of 800 lines in flight per connection
  live_overload  the live_flood input as fast as TCP takes, under serve's
                 default drop_oldest

Every workload first builds the artifact it uses with ``prepare`` and
``train`` on a fixed corpus, so every run reports every end-to-end metric.
With ``--trace 1`` the program runs under ``trace.py`` and the run reports
per-layer metrics instead. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A run record with the
environment, checks and spans' self times goes to perfbench/.work/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import (WINDOW, WINDOW_SPAN_MS, Expected, Tally, check_expected,
                    check_shed, median, parse_detection, parse_stats, quantile,
                    stats_problems)
from procs import (LineReader, ProgramError, Spawner, check_rss_calibration,
                   free_port, wait_listening)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("offline", "live_paced", "live_flood", "live_overload")
RUN_LIMIT_S = 170
STATS_INTERVAL_S = 0.2
DRAIN_TIMEOUT_S = 60.0
TRAIN_SEED = 1234
FLOOD_DEPTH = 64  # live_flood blocks in flight per connection, ~1.5 s of work
# Repeated command times are reported as this quantile. The machine's speed
# switches between a fast and a slow level for seconds at a time, in a
# share that changes from run to run; the slower level is the steadier.
TIME_Q = 0.75

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "prepare_s": "s",
    "train_s": "s",
    "ingest_lines_per_s": "1/s",
}
# what the workloads run by hand report besides END_TO_END
EXTRA = {
    "live_paced": {"detect_latency_p50_ms": "ms", "detect_latency_p99_ms": "ms"},
    "live_overload": {"overload_goodput_samples_per_s": "1/s"},
}
PER_LAYER = {
    "ingest.parse_trial.us_per_row": "us",
    "ingest.parse_wire.us_per_line": "us",
    "ingest.lines_per_put": "count",
    "windowing.push.us_per_sample": "us",
    "windowing.pending_samples_max": "count",
    "features.extract.us_per_window": "us",
    "features.scale.us_per_window": "us",
    "model.forward.us_per_window": "us",
    "model.train.ms_per_epoch": "ms",
    "model.load_artifact.ms": "ms",
    "stream.queue.put_wait_ms": "ms",
    "stream.queue.get_idle_share": "share",
    "stream.queue.depth_max": "count",
    "stream.queue.shed_fraction": "share",
    "stream.detection_line.us_per_detection": "us",
    "stream.sink_emit.us_per_detection": "us",
    "cli.write_feature_csv.us_per_row": "us",
    "cli.read_feature_csv.us_per_row": "us",
    "bench.failed_fraction": "share",
    **{"traced." + k: v for k, v in END_TO_END.items()},
}


@dataclass(frozen=True)
class Params:
    """Input sizes. The defaults are the benchmark; tests shrink them."""

    corpus_trials: int = 100     # fixed make_dataset corpus, ~73k rows
    corpus_seed: int = 7
    epochs: int = 150
    cycle_trials: int = 16       # synth trials per cycle, 600 samples each
    replay_rows: int = 100_000   # offline long trial, 500 windows
    setup_reps: int = 9          # serve starts; offline times one per round
    # live workloads build their artifact this many times: twice before
    # serving and the rest after, so the timings span the whole run
    preamble_reps: int = 7
    paced_devices: int = 1000
    paced_rate_hz: float = 20.0
    flood_devices: int = 8
    flood_period_cycles: int = 16  # ~614k lines per connection per period


class Bench:
    """One run: its work directory, the spawner, and what it measured."""

    def __init__(self, workload, seed, seconds, trace, params, spawner, root):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.p = params
        self.spawner = spawner
        self.work = root / "perfbench" / ".work" / (
            f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tally = Tally()
        self.record_extra: dict = {}
        self.stream_stats: list[dict] = []
        self._traces = 0
        self._t_start = time.perf_counter()
        self.phases: dict[str, float] = {}

    def phase(self, name: str) -> None:
        """Note when a phase of the run ended, for the run record."""
        self.phases[name] = round(time.perf_counter() - self._t_start, 3)

    # -- running the program -------------------------------------------
    def argv(self, args, traced: bool) -> list[str]:
        if traced:
            self._traces += 1
            out = self.work / "traces" / f"{self._traces:03d}-{args[0]}.json"
            out.parent.mkdir(exist_ok=True)
            return [sys.executable, str(HERE / "trace.py"), str(out), *args]
        return [sys.executable, "-m", "fallstream", *args]

    def run(self, args, stdout=None, timeout=120.0) -> dict:
        """Run one command to completion; wall time, rc, RSS, stderr."""
        err = self.work / "stderr.txt"
        t0 = self.spawner.spawn(self.argv(args, self.trace), self.env,
                                stdout=stdout, stderr=err)
        rec = self.spawner.wait(timeout)
        rec["wall"] = rec["t"] - t0
        rec["t0"] = t0
        rec["rss_mb"] = rec["maxrss_kb"] / 1024.0
        rec["stderr"] = err.read_text(errors="replace")
        if rec["rc"] != 0:
            raise ProgramError(f"fallstream {args[0]} exited {rec['rc']}: "
                               f"{rec['stderr'][-500:]}")
        return rec

    def expect(self, ok: bool, what: str) -> None:
        """One checked output of a command: attempted, and failed if not ok."""
        self.tally.attempted += 1
        if not ok:
            self.tally.fail(what)

    def prepare_and_train(self, mapping: Path, csv: Path, art: Path):
        prep = self.run(["prepare", self.work / "corpus", "--mapping", mapping,
                         "--out", csv])
        train = self.run(["train", csv, "--artifact", art, "--epochs",
                          str(self.p.epochs), "--seed", str(TRAIN_SEED)])
        return prep, train, sha256(csv), sha256(art)

    def check_same(self, digests: list[str], what: str) -> None:
        self.expect(digests[-1] == digests[0],
                    f"{what} sha256 {digests[-1][:12]} != {digests[0][:12]}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wait_lines(reader: LineReader, start: int, count: int, timeout: float):
    """Output lines from ``start``, once ``count`` have arrived or after
    ``timeout``; a missing line is then a failed check, not an error."""
    deadline = time.monotonic() + timeout
    while len(reader.lines) - start < count and time.monotonic() < deadline:
        time.sleep(0.002)
    return reader.lines[start:]


# -- offline ---------------------------------------------------------------

def run_offline(b: Bench) -> dict:
    from fallstream.ingest import load_mapping, parse_trial_path
    from fallstream.model import load_artifact
    from traffic import make_cycle, write_corpus, write_trial

    p, w = b.p, b.work
    mapping = write_corpus(w, p.corpus_trials, p.corpus_seed)
    cycle = make_cycle(b.seed, p.cycle_trials)
    long_trial, one_trial = w / "long.csv", w / "one.csv"
    write_trial(long_trial, cycle, p.replay_rows)
    write_trial(one_trial, cycle, WINDOW)
    csv, art, metrics_json = w / "features.csv", w / "model.json", w / "m.json"
    reader = LineReader(w / "stdout.fifo")
    replay_args = ["--mapping", mapping, "--artifact", art, "--speed", "max",
                   "--sink", "stdout"]
    reps, csv_sha, art_sha = [], [], []
    expected = one_expected = digest = None
    spent = 0.0
    try:
        while not reps or spent < b.seconds:
            prep, train, c_sha, a_sha = b.prepare_and_train(mapping, csv, art)
            csv_sha.append(c_sha)
            art_sha.append(a_sha)
            b.check_same(csv_sha, "feature CSV")
            b.check_same(art_sha, "artifact")
            spent += prep["wall"] + train["wall"]
            rss = [prep["rss_mb"], train["rss_mb"]]

            if expected is None:
                # every later artifact has this one's sha256, so evaluate
                # and the references are checked and built once per run,
                # outside the timed commands
                ev = b.run(["evaluate", csv, "--artifact", art, "--split",
                            "test", "--out", metrics_json])
                rss.append(ev["rss_mb"])
                meta = json.loads(art.read_text())["metadata"]
                acc = json.loads(metrics_json.read_text())["accuracy"]
                b.expect(acc == meta["test_accuracy"],
                         f"evaluate accuracy {acc} != artifact test_accuracy "
                         f"{meta['test_accuracy']}")
                artifact = load_artifact(art)
                digest = artifact.digest
                mp = load_mapping(mapping)
                expected = reference(artifact, parse_trial_path(long_trial, mp)[0])
                one_expected = reference(artifact,
                                         parse_trial_path(one_trial, mp)[0])

            one = replay(b, reader, one_trial, WINDOW, replay_args,
                         one_expected, digest)
            rec = replay(b, reader, long_trial, p.replay_rows, replay_args,
                         expected, digest)
            spent += one["wall"] + rec["wall"]
            reps.append({
                "prepare_s": prep["wall"],
                "train_s": train["wall"],
                "setup_s": one["wall"],
                "replay_s": rec["wall"],
                "peak_rss_mb": max(rss + [one["rss_mb"], rec["rss_mb"]]),
            })
    finally:
        reader.close()
    # the rate is from the TIME_Q quantile of the replay times
    out = {k: quantile([r[k] for r in reps], TIME_Q)
           for k in ("prepare_s", "train_s", "replay_s")}
    out.update({
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "ingest_lines_per_s": p.replay_rows / out.pop("replay_s"),
    })
    b.record_extra = {"reps": reps, "artifact_sha256": art_sha[0]}
    return out


def reference(artifact, samples) -> list[Expected]:
    from fallstream.stream import classify_samples
    return [Expected(d.device_id, d.seq, d.t_start_ms, d.t_end_ms, d.p_fall)
            for d in classify_samples(artifact, samples)]


def replay(b: Bench, reader: LineReader, trial: Path, rows: int, args,
           expected, digest) -> dict:
    """One ``replay`` command, checked against its reference."""
    start = len(reader.lines)
    rec = b.run(["replay", trial, *args], stdout=reader.path)
    lines = wait_lines(reader, start, len(expected), 5.0)
    dets = [parse_detection(ln) for _, ln in lines]
    tally, _ = check_expected(dets, expected, digest)
    stats = parse_stats(rec["stderr"])
    b.stream_stats.append(stats)
    for why in stats_problems(stats, rows, len(dets)):
        tally.fail(why)
    b.tally.add(tally)
    return rec


# -- live ------------------------------------------------------------------

class LiveRun:
    """One live workload against one ``serve`` process."""

    def __init__(self, b: Bench, policy: str):
        self.b, self.policy = b, policy
        self.reader: LineReader | None = None
        self.scanned = 0
        self.sync_seen: set[str] = set()

    def serve_argv(self, port: int, art: Path) -> list:
        return ["serve", "--listen", f"127.0.0.1:{port}", "--artifact", art,
                "--overflow", self.policy, "--sink", "stdout",
                "--stats-interval", str(STATS_INTERVAL_S)]

    def start_serve(self, art: Path) -> tuple[int, float]:
        b = self.b
        port = free_port()
        t0 = b.spawner.spawn(b.argv(self.serve_argv(port, art), b.trace),
                             b.env, stdout=self.reader.path,
                             stderr=b.work / "serve.err")
        t_ready = wait_listening(port, 30.0)
        return port, t_ready - t0

    def stop_serve(self, port: int) -> dict:
        """SIGINT, then connect until serve exits: closing its listener does
        not wake the thread blocked in accept(), a connection does."""
        b = self.b
        b.spawner.signal(signal.SIGINT)
        deadline = time.monotonic() + 30.0
        while (rec := b.spawner.poll(0.02)) is None:
            if time.monotonic() > deadline:
                b.spawner.kill_child()
                raise ProgramError("serve did not stop within 30 s of SIGINT")
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            except OSError:
                pass
        rec["stderr"] = (b.work / "serve.err").read_text(errors="replace")
        if rec["rc"] != 0:
            raise ProgramError(f"serve exited {rec['rc']}: "
                               f"{rec['stderr'][-500:]}")
        return rec

    def wait_sync(self, names: set[str], timeout: float) -> None:
        deadline = time.monotonic() + timeout
        lines = self.reader.lines
        while not names <= self.sync_seen:
            while self.scanned < len(lines):
                line = lines[self.scanned][1]
                self.scanned += 1
                if b'"device_id": "s' in line:
                    self.sync_seen.add(json.loads(line)["device_id"])
            if time.monotonic() > deadline:
                raise ProgramError(f"sync windows {sorted(names)} not "
                                   f"detected within {timeout} s")
            time.sleep(0.002)

    def wait_read(self, sent: int, timeout: float) -> None:
        """Until serve's periodic stats say it has read every line sent.
        Under drop_oldest a sync window sent while another connection
        still has a backlog would itself be shed, so the closing barrier
        waits for this first."""
        deadline = time.monotonic() + timeout
        err = self.b.work / "serve.err"
        while True:
            try:
                if parse_stats(err.read_text())["samples_in"] >= sent:
                    return
            except ValueError:
                pass
            if time.monotonic() > deadline:
                raise ProgramError(f"serve did not read {sent} lines within "
                                   f"{timeout} s")
            time.sleep(STATS_INTERVAL_S / 2)

    def barrier(self, socks, live, k: int) -> int:
        from traffic import pump, sync_chunk
        names, chunks = set(), []
        for c in range(2):
            name, chunk = sync_chunk(live, c, k)
            names.add(name)
            chunks.append([chunk])
        pump(socks, chunks)
        self.wait_sync(names, DRAIN_TIMEOUT_S)
        return 2 * WINDOW


def run_live(b: Bench, policy: str, paced: bool) -> dict:
    from fallstream.model import load_artifact
    from traffic import (FloodTraffic, InFlight, LiveCycle, PacedTraffic,
                         Repeat, make_cycle, pump, write_corpus)

    p, w = b.p, b.work
    mapping = write_corpus(w, p.corpus_trials, p.corpus_seed)
    csv, art = w / "features.csv", w / "model.json"
    prep_s, train_s, art_sha = [], [], []

    def build_artifact(reps: int) -> None:
        # the operator's path to the artifact it serves
        for _ in range(reps):
            prep, train, _, a_sha = b.prepare_and_train(mapping, csv, art)
            prep_s.append(prep["wall"])
            train_s.append(train["wall"])
            art_sha.append(a_sha)
            b.check_same(art_sha, "artifact")

    build_artifact(min(2, p.preamble_reps))
    b.phase("preamble")

    artifact = load_artifact(art)
    live = LiveCycle(make_cycle(b.seed, p.cycle_trials))
    ref = LiveReference(artifact, live)
    if paced:
        traffic = PacedTraffic(p.paced_devices, p.paced_rate_hz, b.seconds)
        preroll, timed = traffic.encode(live)
        wrap_ms = 0
    else:
        traffic = FloodTraffic(p.flood_devices, p.flood_period_cycles)
        period_blocks = traffic.encode(live)
        # the flood ends at stop_at; the count only has to outlast it
        timed = [Repeat(c, 10**9) for c in period_blocks]
        wrap_ms = 50 * traffic.period(live)
    offsets = {n: live.offset(d) for d, n in enumerate(traffic.names)}
    b.phase("inputs")

    lr = LiveRun(b, policy)
    lr.reader = LineReader(w / "stdout.fifo")
    socks: list[socket.socket] = []
    setup, serving = [], False
    try:
        for i in range(p.setup_reps):
            port, s = lr.start_serve(art)
            serving = True
            setup.append(s)
            if i < p.setup_reps - 1:
                lr.stop_serve(port)
                serving = False
        b.phase("setup")
        socks = [socket.create_connection(("127.0.0.1", port))
                 for _ in range(2)]
        for s in socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sent = 0
        if paced:
            pump(socks, [[c] for c in preroll])
            sent += sum(traffic.preroll(d) for d in range(traffic.devices))
        sent += lr.barrier(socks, live, 0)
        b.phase("preroll")
        first_line = len(lr.reader.lines)
        if b.trace:
            b.spawner.signal(signal.SIGUSR1)
        gate = None
        if not paced and policy == "block":
            # closed loop: what waits in front of a block is about
            # FLOOD_DEPTH blocks per connection, not the kernel's buffers
            gate = InFlight(lr.reader.lines, first_line,
                            [len(traffic.names[c::2]) for c in range(2)],
                            FLOOD_DEPTH)
        t0 = time.perf_counter()
        log = pump(socks, timed, t0=t0,
                   stop_at=None if paced else t0 + b.seconds, gate=gate)
        if paced:
            timed_lines = traffic.lines()
        else:
            timed_lines = sum(len(log.done[c])
                              * period_blocks[c][0].payload.count(b"\n")
                              for c in range(2))
        sent += timed_lines
        b.phase("timed")
        lr.wait_read(sent, DRAIN_TIMEOUT_S)
        sent += lr.barrier(socks, live, 1)
        b.phase("drain")
        for s in socks:
            s.close()
        socks = []
        rec = lr.stop_serve(port)
        serving = False
        b.phase("stop")
        build_artifact(p.preamble_reps - len(prep_s))
        b.phase("postamble")
    finally:
        for s in socks:
            s.close()
        if serving:
            b.spawner.kill_child()
        lr.reader.close()

    lines = lr.reader.lines[first_line:]
    dets = [parse_detection(ln) for _, ln in lines]
    if policy == "block":
        expected = [Expected(f"s{c}b1", 0, 0, WINDOW_SPAN_MS, ref.at(0))
                    for c in range(2)]
        for d, name in enumerate(traffic.names):
            n_win = traffic.windows(d) if paced else len(log.done[d % 2])
            for k in range(n_win):
                t_start = 50 * WINDOW * k
                if wrap_ms:
                    t_start %= wrap_ms
                expected.append(Expected(name, k, t_start,
                                         t_start + WINDOW_SPAN_MS,
                                         ref.at(offsets[name] + WINDOW * k)))
        tally, ok = check_expected(dets, expected, artifact.digest)
    else:
        tally, ok = check_shed(
            dets, lambda d: ref.at(offsets.get(d["device_id"], 0)
                                   + d["t_start_ms"] // 50),
            artifact.digest, wrap_ms)
    stats = parse_stats(rec["stderr"])
    b.stream_stats.append(stats)
    # + the two barrier-0 sync windows, read before first_line
    for why in stats_problems(stats, sent, len(dets) + 2):
        tally.fail(why)
    b.tally.add(tally)

    lat, t_last, good, per_s = [], 0.0, 0, {}
    for (t_ns, _), d in zip(lines, dets):
        name = d["device_id"]
        if name not in offsets:
            continue
        t = t_ns / 1e9
        t_last = max(t_last, t)
        if (name, d["seq"]) not in ok:
            continue
        good += 1
        per_s[int(t - t0)] = per_s.get(int(t - t0), 0) + 1
        if paced:
            lat.append(t - t0 - traffic.due_s(traffic.names.index(name),
                                              d["t_end_ms"] // 50))
    if good < 2:
        raise ProgramError(f"only {good} correct detections")
    interval = t_last - t0
    b.record_extra = {"setup_walls": setup, "prepare_walls": prep_s,
                      "train_walls": train_s, "artifact_sha256": art_sha[0],
                      "lines_sent": sent, "timed_lines": timed_lines,
                      "interval_s": interval, "stats": stats,
                      "correct_detections_per_s": [per_s.get(k, 0) for k in
                                                   range(int(interval) + 1)]}
    out = {
        "setup_s": median(setup),
        "peak_rss_mb": rec["maxrss_kb"] / 1024.0,
        "prepare_s": quantile(prep_s, TIME_Q),
        "train_s": quantile(train_s, TIME_Q),
        "ingest_lines_per_s": timed_lines / interval,
    }
    if paced:
        out["detect_latency_p50_ms"] = quantile(lat, 0.5) * 1e3
        out["detect_latency_p99_ms"] = quantile(lat, 0.99) * 1e3
        b.record_extra.update({
            "latency_samples": len(lat),
            "latencies_ms": sorted(round(x * 1e3, 3) for x in lat),
            "gen_late_ms": {"p50": quantile(log.late_s, 0.5) * 1e3,
                            "p99": quantile(log.late_s, 0.99) * 1e3}})
    if policy == "drop_oldest":
        out["overload_goodput_samples_per_s"] = WINDOW * good / interval
    return out


class LiveReference:
    """p_fall of the window a device sends from each cycle position,
    computed with classify_samples on the same samples."""

    def __init__(self, artifact, live):
        self.artifact, self.live = artifact, live
        self._p: dict[int, float] = {}
        cyc = [s for k in range(0, live.n, WINDOW)
               for s in live.samples("c", k)]
        for k, e in enumerate(reference(artifact, cyc)):
            self._p[k * WINDOW] = e.p_fall

    def at(self, pos: int) -> float:
        pos %= self.live.n
        if pos not in self._p:
            self._p[pos] = reference(self.artifact,
                                     self.live.samples("c", pos))[0].p_fall
        return self._p[pos]


# -- traced runs -------------------------------------------------------------

def layer_metrics(b: Bench, e2e: dict) -> dict:
    """Per-layer figures from the trace files of this run's program calls."""
    counters: dict[str, list] = {}
    spans: dict[str, list] = {}   # name -> [calls, ns, size]
    self_ns: dict[str, int] = {}
    for path in sorted((b.work / "traces").glob("*.json")):
        doc = json.loads(path.read_text())
        if b.workload != "offline" and path.stem.endswith("-prepare"):
            # a live workload's window and feature figures describe serve,
            # not the artifact builds around it
            doc["counters"].pop("windowing.push", None)
            doc["spans"] = [sp for sp in doc["spans"]
                            if sp[2] != "features.extract"]
        for name, vals in doc["counters"].items():
            c = counters.setdefault(name, [0, 0, 0, 0])
            c[0] += vals[0]
            c[1] += vals[1]
            c[2] += vals[2]
            c[3] = max(c[3], vals[3])
        child_ns: dict[int, int] = {}
        for sid, parent, name, _tid, t0, t1, n in doc["spans"]:
            s = spans.setdefault(name, [0, 0, 0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += n
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        for sid, _parent, name, _tid, t0, t1, _n in doc["spans"]:
            self_ns[name] = (self_ns.get(name, 0) + (t1 - t0)
                             - child_ns.get(sid, 0))

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def per_call(name, scale):
        s = spans.get(name, [0, 0, 0])
        return ratio(s[1], s[0], scale)

    def per_size(name, scale):
        s = spans.get(name, [0, 0, 0])
        return ratio(s[1], s[2], scale)

    def counter(name):
        return counters.get(name, [0, 0, 0, 0])

    put, get, push = (counter("stream.queue.put"), counter("stream.queue.get"),
                      counter("windowing.push"))
    wire = counter("ingest.parse_wire")
    samples_in = sum(s["samples_in"] for s in b.stream_stats)
    shed = sum(s["overflow_drops"] for s in b.stream_stats)
    out = {
        "ingest.parse_trial.us_per_row": per_size("ingest.parse_trial", 1e-3),
        "ingest.parse_wire.us_per_line": ratio(wire[1], wire[0], 1e-3),
        "ingest.lines_per_put": ratio(put[2], put[0]),
        "windowing.push.us_per_sample": ratio(push[1], push[0], 1e-3),
        "windowing.pending_samples_max": float(push[3]),
        "features.extract.us_per_window": per_call("features.extract", 1e-3),
        "features.scale.us_per_window": per_call("features.scale", 1e-3),
        "model.forward.us_per_window": per_call("model.forward", 1e-3),
        "model.train.ms_per_epoch": per_size("model.train", 1e-6),
        "model.load_artifact.ms": per_call("model.load_artifact", 1e-6),
        "stream.queue.put_wait_ms": put[1] * 1e-6,
        "stream.queue.get_idle_share": ratio(
            get[1], spans.get("stream.run_pipeline", [0, 0, 0])[1]),
        "stream.queue.depth_max": float(put[3]),
        "stream.queue.shed_fraction": ratio(shed, samples_in),
        "stream.detection_line.us_per_detection": per_call(
            "stream.detection_line", 1e-3),
        "stream.sink_emit.us_per_detection": per_call("stream.sink_emit",
                                                      1e-3),
        "cli.write_feature_csv.us_per_row": per_size("cli.write_feature_csv",
                                                     1e-3),
        "cli.read_feature_csv.us_per_row": per_size("cli.read_feature_csv",
                                                    1e-3),
        "bench.failed_fraction": ratio(b.tally.failed, b.tally.attempted),
    }
    out.update({"traced." + k: e2e[k] for k in END_TO_END})
    b.record_extra["span_self_ms"] = {k: v / 1e6 for k, v in
                                      sorted(self_ns.items())}
    b.record_extra["counters"] = counters
    return out


# -- environment and entry point --------------------------------------------

def environment(root: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "program": [Path(sys.executable).name, "-m", "fallstream"],
        "pythonpath": "src",
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload, seed, seconds, trace, params, spawner, root):
    """Run one workload; returns (result object, run record)."""
    rss = spawner_rss(spawner)
    check_rss_calibration(rss)
    b = Bench(workload, seed, seconds, trace, params, spawner, root)
    try:
        if workload == "offline":
            e2e = run_offline(b)
        else:
            e2e = run_live(b, "drop_oldest" if workload == "live_overload"
                           else "block", paced=workload == "live_paced")
        metrics = layer_metrics(b, e2e) if trace else e2e
        units = (PER_LAYER if trace
                 else {**END_TO_END, **EXTRA.get(workload, {})})
        # a shed window is the known drop_oldest defect: it is counted as
        # failed, but only other failures make the run incorrect
        known = b.tally.noncontiguous if workload == "live_overload" else 0
        correct = b.tally.failed == known
        result = {
            "correct": correct,
            "attempted": b.tally.attempted,
            "failed": b.tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        }
        record = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "params": asdict(params),
            "environment": environment(root),
            "rss_calibration_mb": rss, "problems": b.tally.problems,
            "phases": b.phases,
            "result": result, **b.record_extra,
        }
        return result, record
    finally:
        shutil.rmtree(b.work, ignore_errors=True)


def spawner_rss(spawner: Spawner) -> float:
    """Peak RSS the spawner reports for an empty interpreter."""
    spawner.spawn([sys.executable, "-c", "pass"], dict(os.environ))
    return spawner.wait(30.0)["maxrss_kb"] / 1024.0


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fallstream" / "__init__.py").is_file():
        print("error: run from the repository root; src/fallstream is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    spawner = Spawner()
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), Params(), spawner,
                                      root)
    except (ProgramError, TimeoutError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        spawner.close()
    runs = root / "perfbench" / ".work" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}"
     ".json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
