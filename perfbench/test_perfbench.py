"""Self-tests of the benchmark: every workload passes its checks at a tiny
size, and every check fails when fed a corrupted result.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402

TINY = run.Params(corpus_trials=12, epochs=5, cycle_trials=4, replay_rows=4000,
                  setup_reps=2, preamble_reps=1, paced_devices=40,
                  paced_rate_hz=400.0, flood_devices=4, flood_period_cycles=2)


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


@pytest.fixture(scope="module")
def spawner():
    sp = procs.Spawner()
    yield sp
    sp.close()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_passes_its_checks(spawner, workload):
    result, record = run.run_workload(workload, 5, 1.0, False, TINY, spawner,
                                      ROOT)
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == (set(run.END_TO_END)
                                      | set(run.EXTRA.get(workload, {})))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] > 0
    if workload != "live_overload":
        assert result["failed"] == 0, record["problems"]


@pytest.mark.parametrize("workload", ["offline", "live_flood"])
def test_traced_run_reports_layers(spawner, workload):
    result, record = run.run_workload(workload, 5, 1.0, True, TINY, spawner,
                                      ROOT)
    assert result["correct"], record["problems"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    for name in ("features.extract.us_per_window",
                 "model.forward.us_per_window", "model.load_artifact.ms",
                 "stream.sink_emit.us_per_detection",
                 "ingest.parse_trial.us_per_row",
                 "cli.write_feature_csv.us_per_row",
                 "cli.read_feature_csv.us_per_row",
                 "model.train.ms_per_epoch"):
        assert m[name] > 0, name
    if workload == "offline":
        assert m["ingest.lines_per_put"] > 1
    else:
        assert m["ingest.parse_wire.us_per_line"] > 0
        assert m["ingest.lines_per_put"] == 1.0
        assert m["windowing.pending_samples_max"] > 0
        assert m["stream.queue.shed_fraction"] == 0.0


def test_in_flight_gate_opens_per_connection():
    lines = [(0, b'{"device_id": "f1", "seq": 9}\n')]   # before start
    gate = traffic.InFlight(lines, 1, [2, 2], depth=1)
    assert gate(0, 0) and gate(1, 0)
    assert not gate(0, 1) and not gate(1, 1)
    lines += [(0, b'{"device_id": "f0", "seq": 0}\n'),
              (0, b'{"device_id": "s0b1", "seq": 0}\n'),
              (0, b'{"device_id": "f12", "seq": 0}\n')]
    assert gate(0, 1) and not gate(0, 2)
    assert not gate(1, 1)
    lines.append((0, b'{"device_id": "f3", "seq": 0}\n'))
    assert not gate(1, 1)
    lines.append((0, b'{"device_id": "f11", "seq": 0}\n'))
    assert gate(1, 1)


def _expected(n=5):
    return [checks.Expected("d", k, 10_000 * k, 10_000 * k + 9950,
                            0.1 + 0.2 * k) for k in range(n)]


def _detection(e: checks.Expected, **over) -> dict:
    d = {"device_id": e.device_id, "seq": e.seq, "t_start_ms": e.t_start_ms,
         "t_end_ms": e.t_end_ms, "p_fall": e.p_fall,
         "class": "FALL" if e.p_fall >= 0.5 else "ADL", "model_digest": "m"}
    d.update(over)
    return d


def _flip_low_bit(x: float) -> float:
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", i ^ 1))[0]


def test_exact_detections_pass():
    exp = _expected()
    tally, ok = checks.check_expected([_detection(e) for e in exp], exp, "m")
    assert (tally.attempted, tally.failed, len(ok)) == (5, 0, 5)


def test_flipped_p_fall_bit_fails():
    exp = _expected()
    dets = [_detection(e) for e in exp]
    dets[2]["p_fall"] = _flip_low_bit(dets[2]["p_fall"])
    tally, ok = checks.check_expected(dets, exp, "m")
    assert tally.failed == 1 and len(ok) == 4
    shed_tally, _ = checks.check_shed(
        dets, lambda d: exp[d["seq"]].p_fall, "m")
    assert shed_tally.failed == 1


def test_missing_detection_fails():
    exp = _expected()
    dets = [_detection(e) for e in exp]
    del dets[3]
    tally, _ = checks.check_expected(dets, exp, "m")
    assert tally.failed == 1 and tally.attempted == 5


def test_noncontiguous_window_fails():
    exp = _expected()
    dets = [_detection(e) for e in exp]
    dets[1]["t_end_ms"] += 50
    tally, _ = checks.check_expected(dets, exp, "m")
    assert tally.failed == 1
    shed_tally, ok = checks.check_shed(
        dets, lambda d: exp[d["seq"]].p_fall, "m")
    assert shed_tally.failed == shed_tally.noncontiguous == 1
    assert len(ok) == 4


def test_window_across_a_clock_restart_is_contiguous():
    wrap = 50 * 1000
    d = {"device_id": "d", "seq": 0, "t_start_ms": wrap - 5000,
         "t_end_ms": 4950, "p_fall": 0.25, "class": "ADL",
         "model_digest": "m"}
    tally, ok = checks.check_shed([d], lambda _: 0.25, "m", wrap)
    assert tally.failed == 0 and len(ok) == 1


def test_stats_conservation_breaks_are_reported():
    good = {"samples_in": 1000, "malformed": 0, "timestamp_regressions": 0,
            "windows": 4, "partial_window_drops": 150, "detections": 4,
            "sink_failures": 0, "overflow_drops": 50}
    assert checks.stats_problems(good, 1000, 4) == []
    assert checks.stats_problems(dict(good, overflow_drops=49), 1000, 4)
    assert checks.stats_problems(good, 1001, 4)
    assert checks.stats_problems(good, 1000, 3)
    assert checks.stats_problems(dict(good, malformed=1, samples_in=1001),
                                 1001, 4)


def test_rss_is_the_childs_own(spawner):
    # a parent holding ~100 MB passes its size to a child it spawns itself
    script = ("import os, subprocess, sys\n"
              "b = bytearray(100 << 20)\n"
              "b[::4096] = b'x' * len(b[::4096])\n"
              "p = subprocess.Popen([sys.executable, '-c', 'pass'])\n"
              "print(os.wait4(p.pid, 0)[2].ru_maxrss)\n")
    naive_mb = int(subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  check=True).stdout) / 1024
    spawner.spawn([sys.executable, "-c", "pass"], dict(os.environ))
    own_mb = spawner.wait(30.0)["maxrss_kb"] / 1024
    assert naive_mb > 100
    assert 5 < own_mb < 25
    procs.check_rss_calibration(own_mb)
    with pytest.raises(procs.ProgramError):
        procs.check_rss_calibration(naive_mb)


def test_bare_directory_fails_without_a_result(tmp_path):
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "offline", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
