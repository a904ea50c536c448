"""The synthetic end-to-end script writes byte-identical artifacts.

``scripts/run_synthetic_e2e.py`` generates a dataset, prepares, trains,
evaluates and replays one fall trial, then prints the sha256 of
``features.csv``, ``model.json`` and ``detections.jsonl``. Two runs with
the same seed, each in a fresh process and work directory, must print the
same three digests.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_synthetic_e2e.py"
DIGEST = re.compile(r"^sha256 ([0-9a-f]{64})  (\S+)$", re.MULTILINE)


def _digests(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(workdir),
         "--epochs", "3", "--seed", "1234"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {name: digest for digest, name in DIGEST.findall(proc.stderr)}


def test_same_seed_gives_identical_digests(tmp_path):
    first = _digests(tmp_path / "a")
    second = _digests(tmp_path / "b")
    assert set(first) == {"features.csv", "model.json", "detections.jsonl"}
    assert first == second
