"""The traced benchmark launcher still fits the package.

``perfbench/trace.py`` wraps names that ``fallstream.cli``,
``fallstream.stream``, ``fallstream.ingest`` and ``fallstream.windowing``
look up (``stream.apply_scaler``, ``cli.extract_features``,
``WindowAssembler.push`` and the ``asm.config`` it reads, ...). A refactor
that renames one breaks the traced benchmark run; these tests run the
launcher in a subprocess against the package in this checkout, so the
wrappers never leak into the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE = ROOT / "perfbench" / "trace.py"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


def _traced(out: Path, *args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(TRACE), str(out), *map(str, args)],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_install_wraps_every_name_it_expects():
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_trace', {str(TRACE)!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "mod.install(mod.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_commands_record_every_layer(tmp_path, dataset_dir,
                                            mapping_path):
    csv, art = tmp_path / "features.csv", tmp_path / "model.json"
    prepare = _traced(tmp_path / "prepare.json", "prepare", dataset_dir,
                      "--mapping", mapping_path, "--out", csv)
    train = _traced(tmp_path / "train.json", "train", csv,
                    "--artifact", art, "--epochs", "2")
    trial = sorted(Path(dataset_dir).glob("fall_*.csv"))[0]
    replay = _traced(tmp_path / "replay.json", "replay", trial,
                     "--mapping", mapping_path, "--artifact", art,
                     "--speed", "max", "--sink", f"file:{tmp_path / 'd.jsonl'}")

    def spans(doc):
        return {sp[2] for sp in doc["spans"]}

    assert {"cli.main", "cli.cmd_prepare", "ingest.parse_trial",
            "features.extract", "cli.write_feature_csv"} <= spans(prepare)
    assert "windowing.push" in prepare["counters"]
    assert {"cli.cmd_train", "cli.read_feature_csv",
            "model.train"} <= spans(train)
    assert {"cli.cmd_replay", "ingest.parse_trial", "stream.run_pipeline",
            "model.load_artifact", "features.extract", "features.scale",
            "model.forward", "stream.detection_line",
            "stream.sink_emit"} <= spans(replay)
    assert {"windowing.push", "stream.queue.put",
            "stream.queue.get"} <= set(replay["counters"])
