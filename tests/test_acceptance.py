"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Criterion 1 needs the real MobiAct dataset (point MOBIACT_DIR at a
directory of trial CSVs and MOBIACT_MAPPING at its column mapping JSON);
without it the criterion is waived and the synthetic criteria govern.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from conftest import make_window
from fallstream.cli import main
from fallstream.features import (
    SCHEMA_V1,
    SlidingBuffer,
    extract_features,
    apply_scaler,
    fit_scaler,
    sisfall_characteristics,
)
from fallstream.model import (
    TrainConfig,
    artifact_to_bytes,
    backward,
    evaluate,
    forward,
    init_model,
    load_artifact,
    loss_bce,
    save_artifact,
    stratified_split,
    train,
)
from fallstream.stream import (
    PipelineConfig,
    ReplaySpec,
    classify_samples,
    run_pipeline,
)
from fallstream.synth import make_trial, separable_clusters
from fallstream.windowing import WindowConfig
from oracle import replay_source
from test_model import _make_artifact

SEED = 20250810


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_mobiact_reproduction(tmp_path):
    dataset = os.environ.get("MOBIACT_DIR")
    mapping = os.environ.get("MOBIACT_MAPPING")
    if not dataset or not mapping:
        print("[acceptance] criterion 01 mobiact_accuracy: WAIVED "
              "(set MOBIACT_DIR and MOBIACT_MAPPING to run)")
        pytest.skip("MobiAct dataset not available; criterion waived")
    csv_path = tmp_path / "mobiact_features.csv"
    artifact_path = tmp_path / "mobiact_model.json"
    metrics_path = tmp_path / "mobiact_metrics.json"
    t0 = time.perf_counter()
    assert main(["prepare", dataset, "--mapping", mapping,
                 "--out", str(csv_path)]) == 0
    assert main(["train", str(csv_path), "--artifact", str(artifact_path),
                 "--epochs", "150"]) == 0
    assert main(["evaluate", str(csv_path), "--artifact", str(artifact_path),
                 "--split", "test", "--out", str(metrics_path)]) == 0
    elapsed = time.perf_counter() - t0
    accuracy = json.loads(metrics_path.read_text())["accuracy"]
    _report(1, "mobiact_accuracy",
            accuracy >= 0.97 and elapsed < 1800.0,
            f"held-out accuracy {accuracy:.4f} (target >= 0.97, paper 0.9875) "
            f"in {elapsed:.0f}s")


def test_criterion_02_feature_oracle_equivalence():
    from oracle import oracle_features
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    windows = [
        make_window(rng, n=200,
                    loc=(rng.uniform(-3, 3), rng.uniform(5, 12),
                         rng.uniform(-3, 3)),
                    scale=(rng.uniform(0.2, 6), rng.uniform(0.2, 6),
                           rng.uniform(0.2, 6)))
        for _ in range(200)
    ]
    # one call over all windows: the stacked kernel is what is checked
    for w, row in zip(windows, extract_features(windows)):
        ref = oracle_features(*w.acc.T.tolist())
        for name, value in zip(SCHEMA_V1.names, row):
            rel = abs(value - ref[name]) / max(abs(value), abs(ref[name]), 1.0)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(2, "feature_oracle_equivalence",
            worst <= 1e-9 and elapsed < 10.0,
            f"max relative error {worst:.3e} over 200 windows in {elapsed:.1f}s")


def test_criterion_03_feature_count_audit(rng):
    group_sizes = [n for _, n in SCHEMA_V1.groups]
    X = extract_features([make_window(rng)])
    ok = (group_sizes == [21, 21, 2, 4, 6, 3, 1]
          and sum(group_sizes) == 58
          and len(SCHEMA_V1.names) == 58
          and X.shape == (1, 58))
    _report(3, "feature_count_audit", ok,
            f"group sizes {'+'.join(map(str, group_sizes))} = {sum(group_sizes)}")


def test_criterion_04_gradient_check():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 7)),
                int(rng.integers(2, 7)), 1)
        model = init_model(dims, seed=trial)
        for b in model.biases:
            b += rng.normal(0, 0.1, b.shape)
        X = rng.normal(0, 1, (int(rng.integers(1, 17)), dims[0]))
        y = rng.integers(0, 2, X.shape[0]).astype(float)
        w_grads, b_grads = backward(model, X, y)
        analytic = np.concatenate([g.ravel() for g in w_grads + b_grads])
        fd = []
        h = 1e-4
        for arr in model.weights + model.biases:
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_bce(forward(model, X), y)
                flat[i] = orig - h
                down = loss_bce(forward(model, X), y)
                flat[i] = orig
                fd.append((up - down) / (2 * h))
        fd = np.asarray(fd)
        rel = np.linalg.norm(analytic - fd) / max(
            np.linalg.norm(analytic), np.linalg.norm(fd), 1e-30)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(4, "gradient_check",
            worst <= 1e-5 and elapsed < 30.0,
            f"max relative error {worst:.3e} over 20 networks in {elapsed:.1f}s")


def test_criterion_05_synthetic_separability():
    t0 = time.perf_counter()
    X, y = separable_clusters(1000, seed=SEED)
    train_idx, test_idx = stratified_split(y, 0.2, seed=SEED + 1)
    scaler = fit_scaler(X[train_idx])
    Xn = apply_scaler(X, scaler)
    model = init_model(seed=SEED + 2)
    train(model, Xn[train_idx], y[train_idx],
          TrainConfig(epochs=150, shuffle_seed=SEED + 3))
    metrics = evaluate(model, Xn[test_idx], y[test_idx])
    elapsed = time.perf_counter() - t0
    _report(5, "synthetic_separability",
            metrics.accuracy >= 0.99 and elapsed < 60.0,
            f"held-out accuracy {metrics.accuracy:.4f} on {metrics.n} vectors "
            f"in {elapsed:.1f}s")


def test_criterion_06_stream_batch_equivalence(artifact, artifact_path,
                                               tmp_path):
    mismatches = 0
    trials = 0
    for i in range(12):
        kind = "fall" if i % 2 == 0 else "adl"
        samples = make_trial(kind, 420 + 37 * i, seed=SEED + i,
                             device_id=f"trial{i}")
        batch = classify_samples(artifact, samples)
        out = tmp_path / f"replay_{i}.jsonl"
        stats = run_pipeline(PipelineConfig(
            source=ReplaySpec(samples=replay_source(samples), speed=math.inf),
            artifact_path=artifact_path,
            sinks=(f"file:{out}",),
            overflow="block",
        ))
        streamed = [json.loads(l) for l in out.read_text().splitlines()]
        assert stats.detections == len(batch)
        trials += 1
        for det, doc in zip(batch, streamed):
            if doc["p_fall"] != det.p_fall or doc["class"] != det.predicted.value:
                mismatches += 1
    _report(6, "stream_batch_equivalence", mismatches == 0,
            f"{trials} trials replayed, {mismatches} p_fall mismatches")


def test_criterion_07_sisfall_characteristic_properties():
    rng = np.random.default_rng(SEED)
    buf = SlidingBuffer(capacity=16)
    for _ in range(16):
        buf.push(1.5, -2.5, 3.5)
    const = sisfall_characteristics(buf)
    exact_zero = const.c3 == 0.0 and const.c8 == 0.0 and const.c9 == 0.0

    violations = 0
    for _ in range(1000):
        buf = SlidingBuffer(capacity=8)
        for row in rng.normal(0, 5, (8, 3)):
            buf.push(*row)
        c = sisfall_characteristics(buf)
        if c.c8 > c.c9:
            violations += 1

    buf = SlidingBuffer(capacity=4)
    for _ in range(3):
        buf.push(0.0, 0.0, 0.0)
    buf.push(3.0, 7.0, 4.0)
    c2_err = abs(sisfall_characteristics(buf).c2 - 5.0)

    _report(7, "sisfall_characteristics",
            exact_zero and violations == 0 and c2_err <= 1e-12,
            f"constant buffer zeros {exact_zero}, c8<=c9 violations "
            f"{violations}/1000, |c2-5| = {c2_err:.1e}")


def test_criterion_08_scaler_properties():
    rng = np.random.default_rng(SEED)
    m = rng.normal(0, 10, (40, 58))
    m[:, 7] = 3.25  # one constant feature
    scaler = fit_scaler(m)
    scaled = apply_scaler(m, scaler)
    in_unit = bool(np.all(scaled >= 0.0) and np.all(scaled <= 1.0))
    constant_zero = bool(np.all(scaled[:, 7] == 0.0))
    endpoints = True
    for j in range(58):
        if j == 7:
            continue
        col = scaled[:, j]
        endpoints &= col[np.argmin(m[:, j])] == 0.0
        endpoints &= col[np.argmax(m[:, j])] == 1.0
    _report(8, "scaler_properties", in_unit and constant_zero and endpoints,
            f"fit set in [0,1]: {in_unit}, constant->0: {constant_zero}, "
            f"exact endpoints: {endpoints}")


def test_criterion_09_throughput(artifact_path, tmp_path):
    samples = []
    for i in range(20):
        samples.extend(make_trial("fall" if i % 2 == 0 else "adl", 10_000,
                                  seed=SEED + i, device_id=f"dev{i % 4}"))
    out = tmp_path / "throughput.jsonl"
    config = PipelineConfig(
        source=ReplaySpec(samples=replay_source(samples), speed=math.inf),
        artifact_path=artifact_path,
        sinks=(f"file:{out}",),
        overflow="block",
        window=WindowConfig(size=200, stride=200),
    )
    t0 = time.perf_counter()
    stats = run_pipeline(config)
    elapsed = time.perf_counter() - t0
    rate = len(samples) / elapsed
    _report(9, "throughput",
            rate >= 50_000 and stats.windows == len(samples) // 200,
            f"{rate:,.0f} samples/s over {len(samples):,} samples "
            f"({stats.windows} windows, {elapsed:.2f}s)")


def test_criterion_10_persistence_round_trip(tmp_path):
    artifact = _make_artifact(seed=SEED % 1000, dim=58)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_artifact(artifact, path_a)
    loaded = load_artifact(path_a)
    save_artifact(loaded, path_b)
    byte_stable = (path_a.read_bytes() == path_b.read_bytes()
                   == artifact_to_bytes(artifact))

    rng = np.random.default_rng(SEED)
    identical = all(
        forward(artifact.model, v[None])[0] == forward(loaded.model, v[None])[0]
        for v in rng.normal(0, 1, (100, 58))
    )
    _report(10, "persistence_round_trip", byte_stable and identical,
            f"byte-stable: {byte_stable}, 100 forward passes identical: "
            f"{identical}")
