import dataclasses
import hashlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import MAPPING
from fallstream import cli
from fallstream.cli import FEATURE_HEADER, main, read_feature_csv, write_feature_csv
from fallstream.features import SCHEMA_V1, STACK_BLOCK, extract_features
from fallstream.ingest import BinaryClass, map_activity_to_class
from fallstream.model import load_artifact
from fallstream.stream import classify_samples, detection_line
from fallstream.synth import make_trial, separable_clusters, write_trial_csv
from fallstream.windowing import majority_label


def _write_mapping(path):
    path.write_text(json.dumps(MAPPING))
    return path


class TestPrepare:
    def test_one_trial_450_samples_two_rows(self, tmp_path, mapping_path):
        data = tmp_path / "data"
        data.mkdir()
        write_trial_csv(make_trial("adl", 450, seed=1), data / "t.csv")
        out = tmp_path / "features.csv"
        rc = main(["prepare", str(data), "--mapping", str(mapping_path),
                   "--out", str(out)])
        assert rc == 0
        X, codes, classes = read_feature_csv(out)
        assert X.shape == (2, 58)

    def test_rows_have_58_plus_2_columns(self, feature_csv):
        header = feature_csv.read_text().splitlines()[0].split(",")
        assert len(header) == 60
        assert header[:58] == list(SCHEMA_V1.names)
        assert header[58:] == ["label_code", "label_class"]

    def test_empty_dataset_dir_fails_without_output(self, tmp_path,
                                                    mapping_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "features.csv"
        rc = main(["prepare", str(empty), "--mapping", str(mapping_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_missing_dataset_dir_fails(self, tmp_path, mapping_path):
        rc = main(["prepare", str(tmp_path / "nope"), "--mapping",
                   str(mapping_path), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_features_extracted_a_block_at_a_time(self, tmp_path,
                                                  mapping_path, monkeypatch):
        # windows are copies of their rows, so prepare extracts a block at
        # a time rather than holding every trial's windows to the end
        data = tmp_path / "data"
        data.mkdir()
        for i in range(40):
            write_trial_csv(make_trial("adl", 450, seed=i),
                            data / f"t{i:02d}.csv")
        calls = []

        def recording(windows):
            X = extract_features(windows)
            calls.append((list(windows), X))
            return X

        monkeypatch.setattr(cli, "extract_features", recording)
        out = tmp_path / "features.csv"
        rc = main(["prepare", str(data), "--mapping", str(mapping_path),
                   "--out", str(out)])
        assert rc == 0
        assert len(calls) > 1
        # at most one block plus the two windows of one trial per call
        assert all(len(windows) < STACK_BLOCK + 2 for windows, _ in calls)
        windows = [w for ws, _ in calls for w in ws]
        assert len(windows) == 80
        assert len({id(w) for w in windows}) == 80
        at_once = extract_features(windows)
        blocked = [row for _, X in calls for row in X]
        assert [row.tobytes() for row in blocked] == [
            row.tobytes() for row in at_once]
        X, _, _ = read_feature_csv(out)
        assert X.shape == (80, 58)

    def test_custom_window_size(self, tmp_path, mapping_path):
        data = tmp_path / "data"
        data.mkdir()
        write_trial_csv(make_trial("adl", 450, seed=2), data / "t.csv")
        out = tmp_path / "features.csv"
        rc = main(["prepare", str(data), "--mapping", str(mapping_path),
                   "--out", str(out), "--window-size", "100", "--stride", "50"])
        assert rc == 0
        X, _, _ = read_feature_csv(out)
        assert X.shape[0] == (450 - 100) // 50 + 1

    @pytest.mark.parametrize("stride", [None, "100"])
    def test_label_codes_are_majorities_of_window_rows(
            self, tmp_path, dataset_dir, mapping_path, stride):
        # prepare alone derives codes: the majority label over the 200
        # trial rows of each window, in the windows' order
        out = tmp_path / "features.csv"
        rc = main(["prepare", str(dataset_dir), "--mapping", str(mapping_path),
                   "--out", str(out)] + (["--stride", stride] if stride else []))
        assert rc == 0
        step = int(stride or 200)
        expected = []
        for path in sorted(dataset_dir.rglob("*.csv")):
            labels = [line.rsplit(",", 1)[1]
                      for line in path.read_text().splitlines()]
            expected += [majority_label(labels[s:s + 200])
                         for s in range(0, len(labels) - 199, step)]
        _, codes, classes = read_feature_csv(out)
        assert codes == expected
        assert classes == [map_activity_to_class(c) for c in expected]

    def test_unlabeled_mapping_fails_before_writing(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_trial_csv(make_trial("adl", 450, seed=1), data / "t.csv")
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({**MAPPING, "label": None}))
        out = tmp_path / "features.csv"
        rc = main(["prepare", str(data), "--mapping", str(mapping),
                   "--out", str(out)])
        assert rc == 2
        assert "label column" in capsys.readouterr().err
        assert not out.exists()


def _separable_csv(path, n=300, seed=0):
    X, y = separable_clusters(n, seed=seed)
    write_feature_csv(path, X, ["FOL" if t else "WAL" for t in y],
                      [BinaryClass.FALL if t else BinaryClass.ADL for t in y])
    return path


class TestTrain:
    def test_default_epochs_recorded_in_metadata(self, tmp_path):
        csv_path = _separable_csv(tmp_path / "f.csv")
        artifact_path = tmp_path / "m.json"
        rc = main(["train", str(csv_path), "--artifact", str(artifact_path)])
        assert rc == 0
        artifact = load_artifact(artifact_path)
        assert artifact.metadata["epochs"] == 150

    def test_separable_csv_reports_perfect_train_accuracy(self, tmp_path):
        csv_path = _separable_csv(tmp_path / "f.csv")
        artifact_path = tmp_path / "m.json"
        rc = main(["train", str(csv_path), "--artifact", str(artifact_path),
                   "--epochs", "40"])
        assert rc == 0
        artifact = load_artifact(artifact_path)
        assert artifact.metadata["train_accuracy"] == 1.0
        assert artifact.metadata["test_accuracy"] == 1.0

    def test_same_seed_gives_byte_identical_artifacts(self, tmp_path):
        csv_path = _separable_csv(tmp_path / "f.csv")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["train", str(csv_path), "--artifact", str(path),
                       "--epochs", "8", "--seed", "99"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scaler_is_fit_on_train_split_only(self, tmp_path):
        csv_path = _separable_csv(tmp_path / "f.csv", n=100, seed=5)
        artifact_path = tmp_path / "m.json"
        main(["train", str(csv_path), "--artifact", str(artifact_path),
              "--epochs", "2", "--seed", "7"])
        artifact = load_artifact(artifact_path)
        from fallstream.model import stratified_split
        X, _, classes = read_feature_csv(csv_path)
        y = np.array([1.0 if c is BinaryClass.FALL else 0.0 for c in classes])
        train_idx, _ = stratified_split(
            y, artifact.metadata["test_fraction"],
            artifact.metadata["split_seed"])
        assert np.array_equal(artifact.scaler.minimum,
                              X[train_idx].min(axis=0))
        assert np.array_equal(artifact.scaler.maximum,
                              X[train_idx].max(axis=0))

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        rc = main(["train", str(bad), "--artifact", str(tmp_path / "m.json")])
        assert rc == 2

    def test_empty_csv_rejected(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text(",".join(FEATURE_HEADER) + "\n")
        rc = main(["train", str(bad), "--artifact", str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-3"], "--seed must be >= 0"),
        (["--seed", "-1"], "--seed must be >= 0"),  # seeds init, not the split
        (["--learning-rate", "nan"], "learning_rate must be positive"),
        (["--learning-rate", "inf"], "learning_rate must be positive"),
        # seed + 2 keys the split, and keys are below 2**64
        (["--seed", str(2**64 - 2)], "--seed must be >= 0 and < 2**64 - 2"),
        (["--seed", str(2**64)], "--seed must be >= 0 and < 2**64 - 2"),
    ])
    def test_unusable_values_write_no_artifact(self, tmp_path, capsys, flags,
                                               message):
        csv_path = _separable_csv(tmp_path / "f.csv", n=20)
        artifact_path = tmp_path / "m.json"
        capsys.readouterr()
        rc = main(["train", str(csv_path), "--artifact", str(artifact_path),
                   "--epochs", "1", *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not artifact_path.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_non_finite_feature_value_exits_2(tmp_path, feature_csv,
                                            artifact_path, capsys, command):
    # train would write an artifact no command loads; evaluate would score
    # the row
    lines = feature_csv.read_text().splitlines(keepends=True)
    row = lines[3].split(",")
    row[FEATURE_HEADER.index("x_skew")] = "nan"
    lines[3] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    out = tmp_path / "model.json"
    argv = {"train": ["train", str(bad), "--artifact", str(out),
                      "--epochs", "1"],
            "evaluate": ["evaluate", str(bad), "--artifact",
                         str(artifact_path), "--out", str(out)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}, line 4: non-finite feature value\n")
    assert not out.exists()


class TestEvaluate:
    def test_split_test_matches_train_report(self, tmp_path, capsys):
        csv_path = _separable_csv(tmp_path / "f.csv", seed=3)
        artifact_path = tmp_path / "m.json"
        main(["train", str(csv_path), "--artifact", str(artifact_path),
              "--epochs", "30", "--seed", "11"])
        artifact = load_artifact(artifact_path)
        capsys.readouterr()
        out_json = tmp_path / "metrics.json"
        rc = main(["evaluate", str(csv_path), "--artifact", str(artifact_path),
                   "--split", "test", "--out", str(out_json)])
        assert rc == 0
        metrics = json.loads(out_json.read_text())
        assert metrics["accuracy"] == artifact.metadata["test_accuracy"]
        assert metrics["n"] == artifact.metadata["n_test"]

    def test_all_fall_csv_with_good_model(self, tmp_path, capsys):
        csv_path = _separable_csv(tmp_path / "f.csv", seed=4)
        artifact_path = tmp_path / "m.json"
        main(["train", str(csv_path), "--artifact", str(artifact_path),
              "--epochs", "40", "--seed", "12"])
        X, y = separable_clusters(40, seed=4)
        falls = X[y == 1.0]
        fall_csv = tmp_path / "falls.csv"
        write_feature_csv(fall_csv, falls, ["FOL"] * len(falls),
                          [BinaryClass.FALL] * len(falls))
        out_json = tmp_path / "metrics.json"
        rc = main(["evaluate", str(fall_csv), "--artifact", str(artifact_path),
                   "--out", str(out_json)])
        assert rc == 0
        metrics = json.loads(out_json.read_text())
        assert metrics["normalized"][0] == [1.0, 0.0]

    def test_table_printed_to_stdout(self, tmp_path, capsys):
        csv_path = _separable_csv(tmp_path / "f.csv", seed=6)
        artifact_path = tmp_path / "m.json"
        main(["train", str(csv_path), "--artifact", str(artifact_path),
              "--epochs", "5"])
        capsys.readouterr()
        rc = main(["evaluate", str(csv_path), "--artifact", str(artifact_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "true FALL" in out

    def test_corrupt_artifact_fails(self, tmp_path):
        csv_path = _separable_csv(tmp_path / "f.csv")
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        rc = main(["evaluate", str(csv_path), "--artifact", str(broken)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("column, value", [(3, "abc"), (59, "MAYBE")],
                             ids=["feature", "class"])
    def test_corrupt_feature_csv_names_file_and_line(
            self, tmp_path, capsys, command, column, value):
        csv_path = _separable_csv(tmp_path / "f.csv", n=20)
        artifact_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--artifact", str(artifact_path),
                     "--epochs", "1"]) == 0
        lines = csv_path.read_text().splitlines()
        fields = lines[4].split(",")
        fields[column] = value
        lines[4] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = (["--artifact", str(tmp_path / "m2.json")] if command == "train"
               else ["--artifact", str(artifact_path)])
        rc = main([command, str(csv_path), *out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {csv_path}, line 5: ")
        assert value in err

    @pytest.mark.parametrize("key,value", [
        # None deletes the key
        pytest.param("test_fraction", None, id="test_fraction"),
        pytest.param("split_seed", None, id="split_seed"),
        ("metadata", []),
        ("metadata", "seed 1234"),
        ("test_fraction", "x"),
        ("test_fraction", 0),
        ("test_fraction", 1.0),
        ("test_fraction", True),
        ("split_seed", -3),
        ("split_seed", 2.5),
        ("split_seed", "7"),
        ("split_seed", True),
        ("split_seed", 2**64),
        # an artifact drawn under another rule would get another split
        pytest.param("generator", None, id="generator"),
        ("generator", "numpy-pcg64"),
    ])
    def test_split_needs_split_metadata(self, tmp_path, capsys, key, value):
        csv_path = _separable_csv(tmp_path / "f.csv", n=20)
        artifact_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--artifact", str(artifact_path),
                     "--epochs", "1"]) == 0
        doc = json.loads(artifact_path.read_text())
        if key == "metadata":
            doc["metadata"] = value
        elif value is None:
            del doc["metadata"][key]
        else:
            doc["metadata"][key] = value
        artifact_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["evaluate", str(csv_path), "--artifact", str(artifact_path),
                   "--split", "test"])
        err = capsys.readouterr().err
        assert rc == 2
        prefix = "has no " if value is None else "has "
        assert err.startswith(f"error: artifact {artifact_path} {prefix}")
        assert key in err
        assert key != "generator" or "retrain" in err

    def test_split_all_takes_an_artifact_of_another_generator(self, tmp_path,
                                                             capsys):
        # --split all draws nothing, so the generator does not matter
        csv_path = _separable_csv(tmp_path / "f.csv", n=20)
        artifact_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--artifact", str(artifact_path),
                     "--epochs", "1"]) == 0
        doc = json.loads(artifact_path.read_text())
        assert doc["metadata"]["generator"] == "splitmix64/1"
        del doc["metadata"]["generator"]
        artifact_path.write_text(json.dumps(doc))
        assert main(["evaluate", str(csv_path), "--artifact",
                     str(artifact_path)]) == 0


class TestReplay:
    def test_speed_max_equals_speed_one(self, tmp_path, mapping_path,
                                        artifact_path):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 400, seed=21, rate_hz=20.0), trial)
        outputs = []
        for tag, speed in (("max", "max"), ("paced", "50")):
            out = tmp_path / f"{tag}.jsonl"
            rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                       "--artifact", str(artifact_path), "--speed", speed,
                       "--sink", f"file:{out}"])
            assert rc == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 2

    @pytest.mark.parametrize("pacing", [
        ["--speed", "0"],
        ["--speed", "-1"],
        ["--speed", "nan"],
        ["--speed=-inf"],
        ["--speed", "1e-400"],  # 0 as a float
    ])
    def test_invalid_pacing_exits_2_before_any_output(
            self, tmp_path, mapping_path, artifact_path, capsys, pacing):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 931, seed=23), trial)
        out = tmp_path / "out.jsonl"
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), *pacing,
                   "--sink", f"file:{out}"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_a_rate_flag_exits_2(self, tmp_path, mapping_path,
                                 artifact_path):
        # a paced replay follows the trial's clock: there is no rate
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 400, seed=23), trial)
        out = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(trial), "--mapping", str(mapping_path),
                  "--artifact", str(artifact_path), "--rate-hz", "20",
                  "--sink", f"file:{out}"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_a_paced_replay_follows_the_trial_clock(self, tmp_path,
                                                    mapping_path,
                                                    artifact_path):
        # 400 rows 10 ms apart at speed 8: 399 steps of 1.25 ms, about
        # 0.5 s; a 20 Hz schedule would take 2.5 s
        samples = [dataclasses.replace(s, t_ms=10 * i)
                   for i, s in enumerate(make_trial("fall", 400, seed=21))]
        trial = tmp_path / "trial.csv"
        write_trial_csv(samples, trial)
        out = tmp_path / "out.jsonl"
        t0 = time.monotonic()
        assert main(["replay", str(trial), "--mapping", str(mapping_path),
                     "--artifact", str(artifact_path), "--speed", "8",
                     "--sink", f"file:{out}"]) == 0
        assert 0.49 <= time.monotonic() - t0 < 1.5
        assert len(out.read_text().splitlines()) == 2

    def test_fall_trial_raises_fall_detection(self, tmp_path, mapping_path,
                                              artifact_path):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 600, seed=22), trial)
        out = tmp_path / "out.jsonl"
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), "--speed", "max",
                   "--sink", f"file:{out}"])
        assert rc == 0
        classes = [json.loads(l)["class"] for l in out.read_text().splitlines()]
        assert "FALL" in classes

    def test_missing_artifact_fails_at_startup(self, tmp_path, mapping_path):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("adl", 300, seed=23), trial)
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(tmp_path / "missing.json"),
                   "--speed", "max"])
        assert rc == 2

    def test_config_file_supplies_defaults(self, tmp_path, mapping_path,
                                           artifact_path):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("adl", 300, seed=24), trial)
        out = tmp_path / "out.jsonl"
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({
            "source": {"mapping": str(mapping_path), "speed": "max"},
            "artifact": str(artifact_path),
            "sinks": [f"file:{out}"],
            "window": {"size": 100, "stride": 100},
        }))
        rc = main(["replay", str(trial), "--config", str(cfg)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 3

    def test_stdout_sink_default(self, tmp_path, mapping_path, artifact_path,
                                 capsys):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("adl", 200, seed=25), trial)
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), "--speed", "max"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["device_id"] == "trial"

    def test_label_column_is_not_read(self, tmp_path, mapping_path,
                                      artifact, artifact_path, capsys):
        # detections need no labels: a code outside the vocabulary and an
        # empty label field neither stop the replay nor drop a row
        samples = [dataclasses.replace(
            s, device_id="trial",
            label="XYZ" if i >= 600 else "" if i == 300 else s.label)
            for i, s in enumerate(make_trial("fall", 1000, seed=26))]
        trial = tmp_path / "trial.csv"
        write_trial_csv(samples, trial)
        assert trial.read_text().splitlines()[300].endswith(",")
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), "--speed", "max"])
        assert rc == 0
        captured = capsys.readouterr()
        expected = [detection_line(d)
                    for d in classify_samples(artifact, samples)]
        assert captured.out.splitlines() == expected
        assert len(expected) == 5
        assert "stats samples_in=1000 malformed=0 " in captured.err

    def test_stdout_to_a_closed_pipe_counts_each_detection(
            self, tmp_path, mapping_path, artifact_path):
        # the three windows are classified together and written with one
        # write, which fails twice: each detection counts as a failure, and
        # the file sink still gets them all
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 600, seed=28), trial)
        out = tmp_path / "out.jsonl"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fallstream", "replay", str(trial),
                 "--mapping", str(mapping_path),
                 "--artifact", str(artifact_path), "--speed", "max",
                 "--sink", "stdout", "--sink", f"file:{out}"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 3
        assert "detections=3 sink_failures=3 " in proc.stderr
        assert "Error" not in proc.stderr

    def test_malformed_rows_count_in_samples_in(self, tmp_path, mapping_path,
                                                artifact_path, capsys):
        # every row read is in samples_in, as serve counts every line, so
        # the conservation identity holds for replay too
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 1015, seed=27), trial)
        lines = trial.read_text().splitlines(keepends=True)
        for i in (10, 500, 1000):
            lines[i] = "1,abc,9.8,0.0,FOL\n"
        trial.write_text("".join(lines))
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), "--speed", "max",
                   "--sink", f"file:{tmp_path / 'out.jsonl'}"])
        assert rc == 0
        stats = dict(kv.split("=") for kv in re.search(
            r"^stats (.*)$", capsys.readouterr().err, re.M)[1].split())
        stats = {k: int(v) for k, v in stats.items()}
        assert stats["samples_in"] == 1015 and stats["malformed"] == 3
        assert stats["samples_in"] == (
            stats["malformed"] + stats["overflow_drops"]
            + 200 * stats["windows"] + stats["partial_window_drops"])

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_a_paced_replay_stopped_mid_run_accounts_for_its_rows(
            self, tmp_path, mapping_path, artifact, artifact_path, signum):
        # 400 rows a second: a window every half second, 5 s for the file
        samples = [dataclasses.replace(s, device_id="trial")
                   for s in make_trial("fall", 2000, seed=29)]
        trial = tmp_path / "trial.csv"
        write_trial_csv(samples, trial)
        lines = trial.read_text().splitlines(keepends=True)
        for i in (10, 1500, 1999):
            lines[i] = "1,abc,9.8,0.0,FOL\n"
        trial.write_text("".join(lines))
        kept = [s for i, s in enumerate(samples) if i not in (10, 1500, 1999)]
        out = tmp_path / "out.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "fallstream", "replay", str(trial),
             "--mapping", str(mapping_path), "--artifact", str(artifact_path),
             "--speed", "20", "--sink", f"file:{out}"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _wait_for_detections(out, 1)
            proc.send_signal(signum)
            sent = time.monotonic()
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert time.monotonic() - sent < 3.0  # not the rest of the file
        assert "Traceback" not in stderr
        stats = _stats(stderr.splitlines()[-1])
        assert stats["malformed"] == 3  # the parse read the whole file
        assert 3 < stats["samples_in"] < len(lines)
        assert stats["samples_in"] == (
            stats["malformed"] + stats["overflow_drops"]
            + 200 * stats["windows"] + stats["partial_window_drops"])
        # the windows classified before the stop are the batch's first ones
        got = out.read_text().splitlines()
        expected = [detection_line(d)
                    for d in classify_samples(artifact, kept)]
        assert 0 < stats["windows"] == stats["detections"] == len(got)
        assert got == expected[:len(got)] and len(got) < len(expected)

    def test_the_callers_signal_handlers_come_back(
            self, tmp_path, mapping_path, artifact_path):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 200, seed=30), trial)
        before = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), "--speed", "max",
                   "--sink", f"file:{tmp_path / 'out.jsonl'}"])
        assert rc == 0
        assert [signal.getsignal(s)
                for s in (signal.SIGINT, signal.SIGTERM)] == before


class TestWindowSizeOne:
    """The features need 2 samples per window: a 1-sample window is refused
    before any source starts."""

    def test_replay_exits_2_without_sink_output(
            self, tmp_path, mapping_path, artifact_path, capsys):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("adl", 300, seed=23), trial)
        out = tmp_path / "out.jsonl"
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), "--window-size", "1",
                   "--stride", "1", "--sink", f"file:{out}"])
        assert rc == 2
        assert "error: window size must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_serve_exits_2_before_listening(self, tmp_path, artifact_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fallstream", "serve",
             "--listen", "127.0.0.1:0", "--artifact", str(artifact_path),
             "--window-size", "1", "--stride", "1",
             "--sink", f"file:{tmp_path / 'live.jsonl'}"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "error: window size must be >= 2" in proc.stderr
        assert "listening" not in proc.stderr


class TestBadMappingFile:
    @pytest.mark.parametrize("fault", [
        {"delimeter": ";"},  # misspelt keys are not ignored
        {"lable": 9},
        {"extra_activities": ["XYZ"]},  # not a code -> class object
        {"delimiter": ""},  # wrong-typed values are refused, not coerced
        {"delimiter": 5},
        {"unit": "adc_bits", "adc_range_g": "16"},
        {"header": "no"},
        # numbers out of range: a NaN rate would give every detection a
        # t_start_ms of the int64 minimum
        {"timestamp": None, "synthetic_rate_hz": float("nan")},
        {"timestamp": None, "synthetic_rate_hz": float("inf")},
        {"timestamp": None, "synthetic_rate_hz": -200.0},
        {"unit": "adc_bits", "adc_range_g": float("nan")},
        {"unit": "adc_bits", "adc_range_g": float("inf")},
        {"unit": "adc_bits", "adc_range_g": 0},
    ])
    def test_prepare_and_replay_exit_2(self, tmp_path, dataset_dir,
                                       artifact_path, capsys, fault):
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({**MAPPING, **fault}))
        out = tmp_path / "features.csv"
        rc = main(["prepare", str(dataset_dir), "--mapping", str(mapping),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        trial = sorted(dataset_dir.rglob("*.csv"))[0]
        rc = main(["replay", str(trial), "--mapping", str(mapping),
                   "--artifact", str(artifact_path), "--speed", "max"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: bad mapping file") == 2


class TestWrongTypedConfig:
    """A config value of the wrong type is an ``error:`` with exit 2, found
    before any source starts, not a traceback."""

    @pytest.mark.parametrize("doc", [
        {"stats_interval_s": "abc"},
        {"queue_capacity": "x"},
        {"queue_capacity": None},
        {"window": {"size": "big"}},
        {"window": {"stride": [200]}},
        {"window": [200, 200]},
        {"source": "127.0.0.1:0"},
        {"sinks": 5},
        {"queue_capacity": 1.7},  # not truncated to 1
        {"queue_capacity": True},
        {"window": {"size": "200"}},
        {"stats_interval_s": False},
    ])
    def test_serve_exits_2_before_listening(self, tmp_path, artifact_path,
                                            capsys, monkeypatch, doc):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps(doc))

        def serve(config, shutdown=None):  # a served config would never end
            raise AssertionError(f"{doc} was accepted")

        monkeypatch.setattr(cli, "run_pipeline", serve)
        rc = main(["serve", "--listen", "127.0.0.1:0",
                   "--artifact", str(artifact_path), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "listening" not in err

    @pytest.mark.parametrize("command,key,doc", [
        ("serve", "artifact", {"artifact": 5}),
        ("replay", "artifact", {"artifact": ["model.json"]}),
        ("replay", "mapping", {"source": {"mapping": 0}}),  # not stdin
    ])
    def test_path_values_must_be_strings(self, tmp_path, dataset_dir,
                                         mapping_path, artifact_path, capsys,
                                         command, key, doc):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps(doc))
        paths = {"--artifact": str(artifact_path)}
        if command == "serve":
            argv = ["serve", "--listen", "127.0.0.1:0"]
        else:
            argv = ["replay", str(sorted(dataset_dir.rglob("*.csv"))[0])]
            paths["--mapping"] = str(mapping_path)
        # every path but the one under test comes from a flag
        for flag, value in paths.items():
            if flag != "--" + key:
                argv += [flag, value]
        rc = main(argv + ["--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "must be a path string" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("doc", [
        {"window": {"size": "big"}},
        {"window": {"stride": None}},
        {"window": "tumbling"},
        {"source": {"rate_hz": "fast"}},
        {"source": {"speed": [1]}},
        {"source": {"speed": True}},
        {"sinks": "stdout"},
        {"source": {"rate_hz": 20}},  # a paced replay follows the t_ms clock
    ])
    def test_replay_exits_2_without_output(self, tmp_path, mapping_path,
                                           artifact_path, capsys, doc):
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("adl", 300, seed=23), trial)
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(artifact_path), "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_import_leaves_urllib_request_unloaded():
    # only a webhook sink needs it; it is ~10% of the CLI's start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fallstream.cli; "
         "sys.exit('urllib.request' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_replay_and_prepare_leave_hashlib_unloaded(tmp_path, mapping_path,
                                                   artifact_path):
    # the digests take CPython's built-in SHA-256: hashlib's OpenSSL
    # binding maps libcrypto, ~3.5 MB of resident memory
    data = tmp_path / "data"
    data.mkdir()
    write_trial_csv(make_trial("fall", 400, seed=31), data / "t.csv")
    code = ("import sys; from fallstream.cli import main; "
            "sys.exit(main(sys.argv[1:6]) or main(sys.argv[6:]) "
            "or 10 * ('_hashlib' in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", code,
         "prepare", str(data), "--mapping", str(mapping_path),
         f"--out={tmp_path / 'features.csv'}",
         "replay", str(data / "t.csv"), "--mapping", str(mapping_path),
         "--artifact", str(artifact_path), "--speed", "max",
         "--sink", f"file:{tmp_path / 'out.jsonl'}"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 2


def test_train_and_split_evaluate_leave_numpy_random_unloaded(tmp_path,
                                                              feature_csv):
    # every draw comes from model's SplitMix64: numpy.random's import loads
    # secrets -> hmac -> _hashlib, which maps OpenSSL's libcrypto
    artifact = tmp_path / "m.json"
    code = ("import sys; from fallstream.cli import main; "
            "rc = main(sys.argv[1:6]) or main(sys.argv[6:]); "
            "sys.exit(rc or ' '.join(m for m in ('numpy.random', 'secrets', "
            "'_hashlib') if m in sys.modules) or None)")
    proc = subprocess.run(
        [sys.executable, "-c", code,
         "train", str(feature_csv), f"--artifact={artifact}",
         "--epochs", "2",
         "evaluate", str(feature_csv), "--artifact", str(artifact),
         "--split", "test"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "accuracy" in proc.stdout

def test_the_hashlib_fallback_gives_the_same_digest(artifact, artifact_path):
    # a build without the built-in hash modules takes hashlib's sha256
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "from fallstream.model import load_artifact; "
            "print(load_artifact(sys.argv[1]).digest, "
            "'_hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(artifact_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [artifact.digest, "True"]
    assert artifact.digest == hashlib.sha256(
        artifact_path.read_bytes()).hexdigest()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc")
def test_import_starts_no_blas_threads():
    # no product here is big enough for OpenBLAS to thread; its pool only
    # costs start-up time. A value the user sets wins
    # fallstream.model imports numpy; the package namespace imports nothing
    code = ("import os, fallstream.model; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir('/proc/self/task')))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for value, expected in ((None, "1 1"), ("2", "2 ")):
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(expected)


def _foreign_schema_artifact(artifact_path, tmp_path):
    """The suite's artifact relabeled as feature schema "2"."""
    doc = json.loads(artifact_path.read_text())
    doc["feature_schema_version"] = "2"
    doc["scaler"]["schema_version"] = "2"
    path = tmp_path / "schema2.json"
    path.write_text(json.dumps(doc))
    return path


class TestForeignFeatureSchema:
    """An artifact of another feature schema is refused at startup, before
    any row is scored or any window is classified."""

    def test_evaluate_and_replay_exit_2(self, tmp_path, feature_csv,
                                        mapping_path, artifact_path, capsys):
        foreign = _foreign_schema_artifact(artifact_path, tmp_path)
        rc = main(["evaluate", str(feature_csv), "--artifact", str(foreign)])
        assert rc == 2
        trial = tmp_path / "trial.csv"
        write_trial_csv(make_trial("fall", 600, seed=22), trial)
        out = tmp_path / "out.jsonl"
        rc = main(["replay", str(trial), "--mapping", str(mapping_path),
                   "--artifact", str(foreign), "--speed", "max",
                   "--sink", f"file:{out}"])
        assert rc == 2
        assert not out.exists()  # no detection, not even an empty sink
        captured = capsys.readouterr()
        assert "accuracy" not in captured.out
        assert captured.err.count("feature schema '2'") == 2

    def test_serve_exits_2_before_binding(self, tmp_path, artifact_path):
        foreign = _foreign_schema_artifact(artifact_path, tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "fallstream", "serve",
             "--listen", "127.0.0.1:0", "--artifact", str(foreign),
             "--sink", f"file:{tmp_path / 'live.jsonl'}"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "feature schema '2'" in proc.stderr
        assert "listening" not in proc.stderr


def _wait_for_port(port, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1):
                return True
        except OSError:
            time.sleep(0.05)
    return False


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _flood(port, stop: threading.Event, sent: list, devices=4):
    """Send lines for ``devices`` devices as fast as TCP takes them until
    ``stop`` is set or the server closes the connection; ``sent`` gets the
    number of lines handed to the kernel."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        t = 0
        sent.append(0)
        try:
            while not stop.is_set():
                block = "".join(f"f{d},{(t + i) * 50},0.1,9.8,0.05\n"
                                for i in range(200) for d in range(devices))
                conn.sendall(block.encode())
                sent[0] += 200 * devices
                t += 200
        except OSError:
            pass  # the server closed the connection mid-flood


def _wait_for_detections(out, n, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not (out.exists() and out.read_text().count("\n") >= n):
        assert time.monotonic() < deadline, "no detection"
        time.sleep(0.05)


def _stats(line: str) -> dict:
    return {k: int(v) for k, v in
            (kv.split("=", 1) for kv in line.split()[1:])}


def _serve(port, artifact_path, out, *flags):
    return subprocess.Popen(
        [sys.executable, "-m", "fallstream", "serve",
         "--listen", f"127.0.0.1:{port}", "--artifact", str(artifact_path),
         "--sink", f"file:{out}", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _state(pid) -> str | None:
    """The /proc state letter of ``pid``; None when there is no such
    process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _running(pid) -> bool:
    return _state(pid) not in (None, "Z")  # a zombie has exited


def _reader_of(proc, timeout=10.0) -> int:
    """The pid of serve's reader process, once serve has started it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[1]) == proc.pid and fields[0] != "Z":
                return int(entry)
        time.sleep(0.02)
    raise AssertionError("serve started no reader process")


def _wait_ended(pid, timeout) -> bool:
    deadline = time.monotonic() + timeout
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


STATS_KEYS = ["samples_in", "malformed", "timestamp_regressions", "windows",
              "partial_window_drops", "detections", "sink_failures",
              "overflow_drops"]


class TestServe:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="reads /proc/PID/maps")
    def test_listening_maps_no_libcrypto(self, artifact_path):
        # neither the loop nor the reader imports hashlib; only a webhook
        # sink brings OpenSSL in, through urllib.request
        proc = subprocess.Popen(
            [sys.executable, "-m", "fallstream", "serve",
             "--listen", "127.0.0.1:0", "--artifact", str(artifact_path),
             "--sink", "stdout"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stderr.readline().startswith("listening on ")
            for pid in (proc.pid, _reader_of(proc)):
                assert "libcrypto" not in Path(f"/proc/{pid}/maps").read_text()
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0

    def test_stats_lines_keep_their_deadline_during_a_flood(
            self, tmp_path, artifact_path):
        port = _free_port()
        proc = _serve(port, artifact_path, tmp_path / "live.jsonl",
                      "--overflow", "block", "--stats-interval", "0.2")
        stop, sent = threading.Event(), []
        flood = threading.Thread(target=_flood, args=(port, stop, sent))
        try:
            assert _wait_for_port(port)
            flood.start()
            time.sleep(2.0)
            stop.set()
            flood.join(timeout=30)
            assert not flood.is_alive()
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=15)
        finally:
            stop.set()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        lines = [ln for ln in stderr.splitlines() if ln.startswith("stats ")]
        # the periodic lines, then the final one; the keys keep their order
        assert len(lines) >= 6
        for line in lines:
            assert [kv.split("=")[0] for kv in line.split()[1:]] == STATS_KEYS
        seen = [_stats(line)["samples_in"] for line in lines[:-1]]
        assert seen == sorted(seen) and seen[-1] > 0
        assert seen[-1] <= _stats(lines[-1])["samples_in"] <= sent[0]

    @pytest.mark.parametrize("policy", ["block", "drop_oldest"])
    def test_sigint_mid_flood_exits_promptly_and_counts_every_sample(
            self, tmp_path, artifact_path, policy):
        port = _free_port()
        out = tmp_path / "live.jsonl"
        proc = _serve(port, artifact_path, out, "--overflow", policy,
                      "--stats-interval", "3600")
        stop, sent = threading.Event(), []
        flood = threading.Thread(target=_flood, args=(port, stop, sent))
        try:
            assert _wait_for_port(port)
            flood.start()
            reader = _reader_of(proc)
            _wait_for_detections(out, 5)
            assert flood.is_alive()  # the client is still sending
            t0 = time.monotonic()
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=15)
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            if flood.ident is not None:
                flood.join(timeout=30)
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert not _running(reader)  # serve reaped it before exiting
        assert not flood.is_alive()
        assert elapsed < 2.0
        final = _stats([ln for ln in stderr.splitlines()
                        if ln.startswith("stats ")][-1])
        # a block cut off by the shutdown may be partly read
        assert 0 < final["samples_in"] <= sent[0] + 800
        assert final["samples_in"] == (final["malformed"]
                                       + final["overflow_drops"]
                                       + 200 * final["windows"]
                                       + final["partial_window_drops"])
        assert final["windows"] == final["detections"] == \
            out.read_text().count("\n")

    def test_reader_ends_within_a_second_of_a_killed_serve(
            self, tmp_path, artifact_path):
        # SIGKILL gives serve no chance to stop its reader: the reader sees
        # its control pipe close, or its data pipe break, and ends itself
        port = _free_port()
        out = tmp_path / "live.jsonl"
        proc = _serve(port, artifact_path, out, "--overflow", "block",
                      "--stats-interval", "3600")
        stop, sent = threading.Event(), []
        flood = threading.Thread(target=_flood, args=(port, stop, sent))
        try:
            assert _wait_for_port(port)
            flood.start()
            reader = _reader_of(proc)
            _wait_for_detections(out, 5)
            proc.kill()
            proc.communicate(timeout=15)
            assert _wait_ended(reader, 1.0)
        finally:
            stop.set()
            if flood.ident is not None:
                flood.join(timeout=30)
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert not flood.is_alive()

    @pytest.mark.parametrize("policy", ["block", "drop_oldest"])
    def test_killed_reader_ends_serve_with_an_error(
            self, tmp_path, artifact_path, policy):
        port = _free_port()
        out = tmp_path / "live.jsonl"
        proc = _serve(port, artifact_path, out, "--overflow", policy,
                      "--stats-interval", "3600")
        stop, sent = threading.Event(), []
        flood = threading.Thread(target=_flood, args=(port, stop, sent))
        try:
            assert _wait_for_port(port)
            flood.start()
            reader = _reader_of(proc)
            _wait_for_detections(out, 5)
            t0 = time.monotonic()
            os.kill(reader, signal.SIGKILL)
            assert _wait_ended(proc.pid, 1.0)
            elapsed = time.monotonic() - t0
            _, stderr = proc.communicate(timeout=15)
        finally:
            stop.set()
            if flood.ident is not None:
                flood.join(timeout=30)
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert elapsed < 1.0
        assert proc.returncode != 0
        assert "error: the reader process ended" in stderr
        assert not _running(reader)

    def test_serve_classifies_and_shuts_down_on_sigint(self, tmp_path,
                                                       artifact_path):
        out = tmp_path / "live.jsonl"
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fallstream", "serve",
             "--listen", f"127.0.0.1:{port}",
             "--artifact", str(artifact_path),
             "--sink", f"file:{out}", "--stats-interval", "3600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert _wait_for_port(port)
            with socket.create_connection(("127.0.0.1", port), timeout=5) as c:
                payload = "".join(
                    f"dev1,{i * 50},0.1,9.8,0.0\n" for i in range(200))
                c.sendall(payload.encode())
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if out.exists() and out.read_text().count("\n") >= 1:
                    break
                time.sleep(0.1)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["device_id"] == "dev1" and doc["seq"] == 0
        assert "stats " in stderr  # final counters line

    def test_below_window_size_yields_no_detection(self, tmp_path,
                                                   artifact_path):
        out = tmp_path / "live.jsonl"
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fallstream", "serve",
             "--listen", f"127.0.0.1:{port}",
             "--artifact", str(artifact_path),
             "--sink", f"file:{out}", "--stats-interval", "3600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert _wait_for_port(port)
            with socket.create_connection(("127.0.0.1", port), timeout=5) as c:
                payload = "".join(
                    f"dev1,{i * 50},0.1,9.8,0.0\n" for i in range(199))
                c.sendall(payload.encode())
            time.sleep(1.0)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert out.read_text() == ""
        assert "partial_window_drops=199" in stderr

    def test_port_zero_logs_the_bound_port(self, tmp_path, artifact_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "fallstream", "serve",
             "--listen", "127.0.0.1:0",
             "--artifact", str(artifact_path),
             "--sink", f"file:{tmp_path / 'live.jsonl'}",
             "--stats-interval", "3600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(20.0, proc.kill)
        watchdog.start()
        try:
            first = proc.stderr.readline()
            match = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+)\n", first)
            assert match, first
            port = int(match.group(1))
            assert port != 0
            assert _wait_for_port(port)
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=15)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0

    def test_bad_listen_spec_fails(self, tmp_path, artifact_path):
        rc = main(["serve", "--listen", "nocolon",
                   "--artifact", str(artifact_path)])
        assert rc == 2

    @pytest.mark.parametrize("port", ["70000", "-5"])
    def test_out_of_range_port_exits_2(self, tmp_path, artifact_path, port,
                                       capsys):
        rc = main(["serve", "--listen", f"127.0.0.1:{port}",
                   "--artifact", str(artifact_path),
                   "--sink", f"file:{tmp_path / 'live.jsonl'}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "listening" not in err

    @pytest.mark.parametrize("interval", ["-1", "nan", "inf", "1e300"])
    def test_bad_stats_interval_exits_2_before_listening(
            self, tmp_path, artifact_path, interval):
        proc = subprocess.run(
            [sys.executable, "-m", "fallstream", "serve",
             "--listen", "127.0.0.1:0", "--artifact", str(artifact_path),
             "--sink", f"file:{tmp_path / 'live.jsonl'}",
             "--stats-interval", interval],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "error: stats interval must be" in proc.stderr
        assert "listening" not in proc.stderr

    def test_sigint_with_idle_and_mid_line_clients_closes_every_socket(
            self, tmp_path, artifact_path):
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-X", "dev", "-m", "fallstream", "serve",
             "--listen", f"127.0.0.1:{port}",
             "--artifact", str(artifact_path),
             "--sink", f"file:{tmp_path / 'live.jsonl'}",
             "--stats-interval", "3600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert _wait_for_port(port)
            with socket.create_connection(("127.0.0.1", port), timeout=5), \
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=5) as mid_line:
                mid_line.sendall(b"dev1,0,0.1,9.8,0.0\ndev1,50,0.")
                time.sleep(0.5)
                proc.send_signal(signal.SIGINT)
                _, stderr = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "ResourceWarning" not in stderr
        # the line cut off by the shutdown is counted, not lost
        assert "samples_in=2 malformed=1" in stderr
