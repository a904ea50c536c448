"""Streaming fall detection from wearable accelerometer data."""

import os

# Set before anything imports numpy. The largest matrix product here is
# (32 x 58) @ (58 x 64), far below OpenBLAS's threading threshold, so its
# thread pool would only cost start-up time; a value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ArtifactError,
    ConfigError,
    InsufficientData,
    MissingLabel,
    NotReady,
    ParseError,
    SchemaMismatch,
    UnknownActivity,
)
from .features import (
    SCHEMA_V1,
    FeatureSchema,
    Scaler,
    SisFallFeatures,
    SlidingBuffer,
    apply_scaler,
    extract_features,
    fit_scaler,
    sisfall_characteristics,
)
from .ingest import (
    MOBIACT_ACTIVITIES,
    BinaryClass,
    ColumnMapping,
    Sample,
    SampleBatch,
    SocketSource,
    convert_adc_to_g,
    load_mapping,
    map_activity_to_class,
    parse_trial_file,
    parse_trial_path,
    parse_wire_line,
)
from .model import (
    Metrics,
    MlpModel,
    ModelArtifact,
    TrainConfig,
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
from .stream import (
    Detection,
    PipelineConfig,
    PipelineStats,
    ReplaySpec,
    SocketSpec,
    classify_samples,
    classify_windows,
    detection_line,
    run_pipeline,
)
from .windowing import Window, WindowAssembler, WindowConfig, majority_label

__version__ = "0.1.0"
