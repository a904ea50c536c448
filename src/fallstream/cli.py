"""Command-line entry point: prepare, train, evaluate, replay, serve.

prepare   dataset dir -> feature CSV (58 columns + label_code,label_class)
train     feature CSV -> model artifact (scaler fit on the train split only)
evaluate  feature CSV + artifact -> accuracy and confusion matrices
replay    trial file through the pipeline, paced or at max speed, lossless
serve     live TCP listener feeding the pipeline until SIGINT/SIGTERM

Diagnostics go to stderr; data goes to files, stdout sinks, or --out
paths. Exit code 0 means the command completed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import signal
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import (
    ArtifactError,
    ConfigError,
    InsufficientData,
    MissingLabel,
    ParseError,
    SchemaMismatch,
    UnknownActivity,
)
from .features import (
    SCHEMA_V1,
    STACK_BLOCK,
    apply_scaler,
    extract_features,
    fit_scaler,
)
from .ingest import (
    BinaryClass,
    load_mapping,
    map_activity_to_class,
    parse_trial_file,
    parse_trial_path,
)
from .model import (
    GENERATOR,
    SEED_LIMIT,
    ModelArtifact,
    TrainConfig,
    evaluate,
    init_model,
    load_artifact,
    save_artifact,
    sha256,
    stratified_split,
    train,
)
from .stream import (
    PipelineConfig,
    ReplaySpec,
    SocketSpec,
    run_pipeline,
)
from .windowing import (
    WindowAssembler,
    WindowConfig,
    majority_label,
    window_starts,
)

DEFAULT_SEED = 1234
FEATURE_HEADER = list(SCHEMA_V1.names) + ["label_code", "label_class"]


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def write_feature_csv(path: str | Path, X, codes, classes) -> None:
    """Write what read_feature_csv returns: a (n, 58) feature matrix plus
    its label code and class columns, each value as repr(float)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_HEADER)
        for row, code, cls in zip(np.asarray(X).tolist(), codes, classes,
                                  strict=True):
            writer.writerow([repr(v) for v in row]
                            + [code or "", cls.value if cls else ""])


def read_feature_csv(path: str | Path):
    """Feature matrix plus label code/class columns of a prepare output."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FEATURE_HEADER:
            raise SchemaMismatch(
                f"{path}: header does not match feature schema v{SCHEMA_V1.version}"
            )
        values, codes, classes, lines = [], [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(FEATURE_HEADER):
                raise ParseError(f"{path}: row with {len(row)} columns")
            try:
                values.append([float(v) for v in row[:58]])
                classes.append(BinaryClass(row[59]) if row[59] else None)
            except ValueError as exc:
                raise ParseError(
                    f"{path}, line {reader.line_num}: {exc}") from None
            codes.append(row[58])
            lines.append(reader.line_num)
    X = np.asarray(values, dtype=np.float64)
    # a nan or inf would train an artifact no command loads, or be scored
    bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
    if bad.size:
        raise ParseError(f"{path}, line {lines[bad[0]]}: non-finite "
                         f"feature value")
    return X, codes, classes


def _labels_to_targets(classes) -> np.ndarray:
    targets = []
    for cls in classes:
        if cls is None:
            raise MissingLabel("feature CSV contains unlabeled rows")
        targets.append(1.0 if cls is BinaryClass.FALL else 0.0)
    return np.asarray(targets, dtype=np.float64)


def cmd_prepare(args) -> int:
    mapping = load_mapping(args.mapping)
    if mapping.label is None:
        raise MissingLabel("prepare needs a mapping with a label column")
    dataset = Path(args.dataset_dir)
    if not dataset.is_dir():
        raise ParseError(f"dataset directory {dataset} does not exist")
    files = sorted(p for p in dataset.rglob(args.pattern) if p.is_file())
    if not files:
        raise ParseError(f"no trial files matching {args.pattern!r} in {dataset}")

    window = WindowConfig(size=args.window_size, stride=args.stride)
    windows, blocks, codes = [], [], []
    samples_total = malformed = regressions = partial = 0
    for path in files:
        batch, report = parse_trial_path(path, mapping)
        samples_total += report.rows
        malformed += report.malformed
        regressions += report.timestamp_regressions
        assembler = WindowAssembler(window)
        windows += assembler.push(batch)
        codes += [majority_label(batch.labels[s:s + window.size],
                                 mapping.extra_activities)
                  for s in window_starts(len(batch), window)]
        partial += assembler.finish()
        if len(windows) >= STACK_BLOCK:
            # a window is a copy of its rows: extract as the windows come,
            # so memory holds one trial's windows and at most a block more
            blocks.append(extract_features(windows))
            windows = []
    blocks.append(extract_features(windows))
    X = np.concatenate(blocks)
    classes = [map_activity_to_class(code, mapping.extra_activities)
               for code in codes]
    label_codes = Counter(codes)
    label_classes = Counter(cls.value for cls in classes)
    write_feature_csv(args.out, X, codes, classes)
    _info(f"trials        : {len(files)}")
    _info(f"rows          : {samples_total} ({malformed} malformed, "
          f"{regressions} timestamp regressions)")
    _info(f"windows       : {len(X)} ({partial} samples in dropped "
          f"partial windows)")
    _info(f"class counts  : {dict(sorted(label_classes.items()))}")
    _info(f"code counts   : {dict(sorted(label_codes.items()))}")
    _info(f"features written to {args.out}")
    return 0


def cmd_train(args) -> int:
    csv_path = Path(args.features_csv)
    X, codes, classes = read_feature_csv(csv_path)
    if X.shape[0] == 0:
        raise InsufficientData(f"{csv_path} holds no feature rows")
    y = _labels_to_targets(classes)

    seed = args.seed
    if not 0 <= seed < SEED_LIMIT - 2:  # seed + 2 keys the split
        raise ConfigError(f"--seed must be >= 0 and < 2**64 - 2, got {seed}")
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        shuffle_seed=seed + 1,
        test_fraction=args.test_fraction,
        split_seed=seed + 2,
    )
    train_idx, test_idx = stratified_split(y, config.test_fraction,
                                           config.split_seed)
    scaler = fit_scaler(X[train_idx])
    Xn = apply_scaler(X, scaler)

    model = init_model(dims=(58, args.hidden[0], args.hidden[1], 1), seed=seed)
    history = train(model, Xn[train_idx], y[train_idx], config)
    for entry in history:
        _info(f"epoch {entry.epoch:>3}/{config.epochs} "
              f"loss={entry.loss:.6f} acc={entry.accuracy:.4f}")

    train_metrics = evaluate(model, Xn[train_idx], y[train_idx])
    test_metrics = evaluate(model, Xn[test_idx], y[test_idx])
    metadata = {
        "epochs": config.epochs,
        "generator": GENERATOR,
        "learning_rate": config.learning_rate,
        "batch_size": config.batch_size,
        "seed": seed,
        "shuffle_seed": config.shuffle_seed,
        "split_seed": config.split_seed,
        "test_fraction": config.test_fraction,
        "dataset_digest": sha256(csv_path.read_bytes()).hexdigest(),
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "train_accuracy": train_metrics.accuracy,
        "test_accuracy": test_metrics.accuracy,
    }
    artifact = ModelArtifact(model=model, scaler=scaler, metadata=metadata)
    digest = save_artifact(artifact, args.artifact)
    _info(f"train accuracy: {train_metrics.accuracy:.4f} "
          f"({train_idx.size} windows)")
    _info(f"test accuracy : {test_metrics.accuracy:.4f} "
          f"({test_idx.size} windows)")
    _info(f"artifact written to {args.artifact} (sha256 {digest[:16]}...)")
    return 0


def cmd_evaluate(args) -> int:
    artifact = load_artifact(args.artifact)
    X, codes, classes = read_feature_csv(args.features_csv)
    if X.shape[0] == 0:
        raise InsufficientData(f"{args.features_csv} holds no feature rows")
    y = _labels_to_targets(classes)

    if args.split != "all":
        meta = artifact.metadata
        digest = sha256(Path(args.features_csv).read_bytes()).hexdigest()
        if digest != meta.get("dataset_digest"):
            _info("warning: CSV digest differs from the artifact's training "
                  "set; --split selects rows as if it were the same file")
        try:
            generator = meta["generator"]
            test_fraction, split_seed = meta["test_fraction"], meta["split_seed"]
        except KeyError as exc:
            raise ArtifactError(
                f"artifact {args.artifact} has no {exc} in its metadata, "
                f"so --split {args.split} cannot be rebuilt; retrain it"
            ) from None
        if generator != GENERATOR:
            raise ArtifactError(
                f"artifact {args.artifact} has generator {generator!r}, and "
                f"--split {args.split} rebuilds splits only under "
                f"{GENERATOR!r}; retrain it")
        if not (isinstance(test_fraction, (int, float))
                and 0 < test_fraction < 1
                and type(split_seed) is int  # no bool
                and 0 <= split_seed < SEED_LIMIT):
            raise ArtifactError(
                f"artifact {args.artifact} has test_fraction {test_fraction!r}"
                f" and split_seed {split_seed!r}, which --split cannot use")
        train_idx, test_idx = stratified_split(y, test_fraction, split_seed)
        idx = train_idx if args.split == "train" else test_idx
        X, y = X[idx], y[idx]

    Xn = apply_scaler(X, artifact.scaler)
    metrics = evaluate(artifact.model, Xn, y)
    print(metrics.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(metrics.to_dict(), fh, indent=2)
            fh.write("\n")
        _info(f"metrics written to {args.out}")
    return 0


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _pick(flag, cfg: dict, key: str, default):
    if flag is not None:
        return flag
    return cfg.get(key, default)


def _section(cfg: dict, key: str) -> dict:
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config {key!r} must be an object, got {section!r}")
    return section


def _path(raw, name: str):
    """A path from flags or config; a number would open a file descriptor."""
    if raw is not None and not isinstance(raw, str):
        raise ConfigError(f"{name} must be a path string, got {raw!r}")
    return raw


def _number(kind, raw, name: str):
    """A config value as ``kind``: a JSON integer for an int setting, an
    integer or float for a float one; anything else is a ConfigError."""
    if isinstance(raw, (kind, int)) and not isinstance(raw, bool):
        try:
            return kind(raw)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a number, got {raw!r}")


def _parse_speed(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() == "max":
            return math.inf
        try:
            return float(raw)
        except ValueError:
            pass
    elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return _number(float, raw, "--speed")
    raise ConfigError(f"--speed must be a number or 'max', got {raw!r}")


def _parse_listen(raw: str) -> tuple[str, int]:
    host, sep, port = str(raw).rpartition(":")
    if not sep or not host:
        raise ConfigError(f"--listen must look like host:port, got {raw!r}")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"bad port in --listen value {raw!r}: need 0-65535")
    return host, int(port)


def _pipeline_config(args, cfg: dict, source) -> PipelineConfig:
    """replay's or serve's PipelineConfig: each setting from its flag, else
    from --config, else its default. Queue and stats settings are serve's."""
    artifact = _path(_pick(args.artifact, cfg, "artifact", None), "artifact")
    wcfg = _section(cfg, "window")
    window = WindowConfig(
        size=_number(int, _pick(args.window_size, wcfg, "size", 200),
                     "window size"),
        stride=_number(int, _pick(args.stride, wcfg, "stride", 200),
                       "window stride"),
    )
    sinks = _pick(args.sink or None, cfg, "sinks", ["stdout"])
    if not (isinstance(sinks, list) and all(isinstance(s, str) for s in sinks)):
        raise ConfigError(f"sinks must be a list of sink specs, got {sinks!r}")
    live = {}
    if isinstance(source, SocketSpec):
        live = dict(
            queue_capacity=_number(
                int, _pick(args.queue_capacity, cfg, "queue_capacity", 1024),
                "queue_capacity"),
            overflow=_pick(args.overflow, cfg, "overflow", "drop_oldest"),
            stats_interval_s=_number(
                float, _pick(args.stats_interval, cfg, "stats_interval_s",
                             10.0),
                "stats_interval_s"),
        )
    config = PipelineConfig(source, artifact, window, tuple(sinks), **live)
    if artifact is None:
        raise ConfigError(
            f"{args.command} needs --artifact (or artifact in --config)")
    return config


@contextlib.contextmanager
def _stop_signals(handle):
    """SIGINT and SIGTERM call ``handle`` inside the block; the handlers
    before it come back after, so an in-process caller keeps its own."""
    stops = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(signum, handle) for signum in stops]
    try:
        yield
    finally:
        for signum, before in zip(stops, previous):
            signal.signal(signum, before)


def cmd_replay(args) -> int:
    shutdown = threading.Event()
    with _stop_signals(lambda signum, frame: shutdown.set()):
        cfg = _load_config_file(args.config)
        src_cfg = _section(cfg, "source")
        if "rate_hz" in src_cfg:
            raise ConfigError(
                "source.rate_hz is not a replay setting: a paced replay "
                "follows the trial's own t_ms clock")
        mapping_path = _path(_pick(args.mapping, src_cfg, "mapping", None),
                             "mapping")
        if mapping_path is None:
            raise ConfigError(
                "replay needs --mapping (or source.mapping in --config)")
        # detections need no labels: the label column is not parsed, so an
        # empty or unknown label field neither drops a row nor stops a replay
        mapping = dataclasses.replace(load_mapping(mapping_path), label=None)
        speed = _parse_speed(_pick(args.speed, src_cfg, "speed", math.inf))
        trial = Path(args.trial_file)

        def rows(emit):  # the trial, block by block, into the pipeline
            parse_trial_path(trial, mapping, emit=emit)

        if not math.isinf(speed) and trial.exists() and not trial.is_file():
            # a paced replay reads its trial twice; a pipe can be read once
            data = trial.read_bytes()

            def rows(emit):
                parse_trial_file(data, mapping, trial.stem, emit=emit)

        stats = run_pipeline(_pipeline_config(args, cfg,
                                              ReplaySpec(rows, speed)),
                             shutdown=shutdown)
        if stats.malformed:
            _info(f"note: {stats.malformed} malformed rows skipped while "
                  f"parsing")
        _info(stats.format_line())
    return 0


def cmd_serve(args) -> int:
    cfg = _load_config_file(args.config)
    listen = _pick(args.listen, _section(cfg, "source"), "listen", None)
    if listen is None:
        raise ConfigError("serve needs --listen (or source.listen in --config)")
    config = _pipeline_config(args, cfg, SocketSpec(*_parse_listen(listen)))

    shutdown = threading.Event()
    with _stop_signals(lambda signum, frame: shutdown.set()):
        stats = run_pipeline(config, shutdown=shutdown)
        _info(stats.format_line())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fallstream",
        description="Fall detection over accelerometer streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="dataset directory to feature CSV")
    p.add_argument("dataset_dir")
    p.add_argument("--mapping", required=True, help="column mapping JSON")
    p.add_argument("--out", required=True, help="output feature CSV path")
    p.add_argument("--pattern", default="*.csv", help="trial filename glob")
    p.add_argument("--window-size", type=int, default=200)
    p.add_argument("--stride", type=int, default=200)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="feature CSV to model artifact")
    p.add_argument("features_csv")
    p.add_argument("--artifact", required=True, help="output artifact path")
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--hidden", type=_parse_hidden, default=(64, 32),
                   help="hidden layer sizes as H1,H2")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics of an artifact on a CSV")
    p.add_argument("features_csv")
    p.add_argument("--artifact", required=True)
    p.add_argument("--split", choices=("all", "train", "test"), default="all")
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="stream a trial file through the pipeline")
    p.add_argument("trial_file")
    p.add_argument("--mapping")
    p.add_argument("--artifact")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--speed",
                   help="multiple of the trial's own clock, or 'max'")
    p.add_argument("--window-size", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--sink", action="append",
                   help="stdout | file:<path> | webhook:<url> (repeatable)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("serve", help="listen for live samples and classify")
    p.add_argument("--listen", help="host:port")
    p.add_argument("--artifact")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--window-size", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--queue-capacity", type=int,
                   help="queue bound in samples (default 1024)")
    p.add_argument("--overflow", choices=("block", "drop_oldest"))
    p.add_argument("--stats-interval", type=float)
    p.add_argument("--sink", action="append",
                   help="stdout | file:<path> | webhook:<url> (repeatable)")
    p.set_defaults(func=cmd_serve)
    return parser


def _parse_hidden(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two sizes, e.g. 64,32")
    return int(parts[0]), int(parts[1])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, ArtifactError, SchemaMismatch,
            MissingLabel, UnknownActivity, InsufficientData, OSError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
