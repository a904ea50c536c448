"""End-to-end experiment on synthetic data: generate, prepare, train,
evaluate, then replay one fall trial through the live pipeline.

Usage:
    python scripts/run_synthetic_e2e.py [workdir] [--epochs 150] [--seed 1234]

Everything lands under the workdir (default ./e2e_run); the final replay
prints detection lines to stdout and also writes them to
detections.jsonl. Last, stderr gets the sha256 of features.csv,
model.json and detections.jsonl: two runs with the same seed (say, of two
versions of the code) produced byte-identical outputs when the three
digests match.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from fallstream.cli import main as fallstream
from fallstream.synth import make_dataset

MAPPING = {
    "timestamp": 0, "ax": 1, "ay": 2, "az": 3, "label": 4,
    "delimiter": ",", "header": False, "unit": "m/s2", "time_unit": "ms",
}


def run(argv):
    print(f"$ fallstream {' '.join(argv)}", file=sys.stderr)
    rc = fallstream(argv)
    if rc != 0:
        sys.exit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", type=Path,
                        default=Path("e2e_run"))
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    work = args.workdir
    trials = work / "trials"
    make_dataset(trials, n_trials=24, seed=args.seed % 1000)
    mapping = work / "mapping.json"
    mapping.write_text(json.dumps(MAPPING))

    features = work / "features.csv"
    artifact = work / "model.json"
    metrics = work / "metrics.json"
    detections = work / "detections.jsonl"
    run(["prepare", str(trials), "--mapping", str(mapping),
         "--out", str(features)])
    run(["train", str(features), "--artifact", str(artifact),
         "--epochs", str(args.epochs), "--seed", str(args.seed)])
    run(["evaluate", str(features), "--artifact", str(artifact),
         "--split", "test", "--out", str(metrics)])
    fall_trial = sorted(trials.glob("fall_*.csv"))[0]
    detections.unlink(missing_ok=True)  # a file sink appends
    run(["replay", str(fall_trial), "--mapping", str(mapping),
         "--artifact", str(artifact), "--speed", "max",
         "--sink", "stdout", "--sink", f"file:{detections}"])
    for path in (features, artifact, detections):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"sha256 {digest}  {path.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
