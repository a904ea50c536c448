"""From-scratch multilayer perceptron for binary fall classification.

Fixed topology: four layers, two hidden (default 58-64-32-1), ReLU hidden
activation, single sigmoid output read as the fall probability with a 0.5
threshold. Training is mini-batch gradient descent with Adam-style
adaptive steps, fully deterministic given the seeds. Everything runs in
float64 so gradient checks and artifact round-trips are exact.

``forward`` is the one inference kernel: ``train``'s history, ``evaluate``
and the streaming pipeline all call it. It multiplies each sample's row
by the weights on its own, so a row's probability has the same bits
whether it is classified alone or among a thousand others.

Every draw (initial weights, epoch shuffles, the train/test split) comes
from one counter-based generator here, SplitMix64 (Steele, Lea & Flood,
OOPSLA 2014), in numpy uint64 array arithmetic: artifact bytes depend on
no numpy release, and no command imports ``numpy.random``, whose import
loads OpenSSL's libcrypto through ``secrets``.

The artifact file is a single JSON document with a fixed field order (see
docs/artifact_format.md); identical artifacts serialize to identical
bytes, and the sha256 of those bytes is the model digest that detections
carry.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArtifactError, ConfigError, InsufficientData, SchemaMismatch
from .features import SCHEMA_V1, Scaler

# the one SHA-256 of every model and dataset digest: CPython's own, as
# random.py takes its sha512, since importing hashlib maps and initialises
# OpenSSL's libcrypto (~3.5 MB of resident memory)
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

ARTIFACT_FORMAT = "fallstream-artifact/1"
HIDDEN_ACTIVATION = "relu"
OUTPUT_ACTIVATION = "sigmoid"
BCE_EPS = 1e-12

# the draw rule, recorded in each artifact's metadata: evaluate --split
# rebuilds a split only under the rule that made it
GENERATOR = "splitmix64/1"
SEED_LIMIT = 2**64  # seeds are generator keys, integers in [0, 2**64)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function: a bijection of uint64 words.

    Arrays only: numpy wraps an array product silently, while a scalar
    product that overflows warns.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _words(key: int, n: int) -> np.ndarray:
    """The first n outputs of splitmix64.c from state ``key``: word i
    mixes the counter key + (i + 1) * gamma."""
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
    return _mix(counters + np.uint64(key))


def _stream(seed: int, stream: int, n: int) -> np.ndarray:
    """n words of stream ``stream`` under ``seed``; the stream's key is
    output ``stream`` (from 0) of SplitMix64 from state ``seed``."""
    seed = operator.index(seed)  # a float seed is a TypeError
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    key = _words(seed, stream + 1)[stream]
    return _words(int(key), n)


def _permutation(seed: int, stream: int, n: int) -> np.ndarray:
    # the words are distinct (a bijection of distinct counters): no ties
    return np.argsort(_stream(seed, stream, n))


@dataclass
class MlpModel:
    layer_dims: tuple[int, int, int, int]
    weights: list[np.ndarray]  # [dims0 x dims1, dims1 x dims2, dims2 x dims3]
    biases: list[np.ndarray]


def _validate_dims(dims) -> tuple[int, int, int, int]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 4:
        raise ConfigError(f"need 4 layers (input, hidden, hidden, output), got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer sizes must be >= 1, got {dims}")
    if dims[-1] != 1:
        raise ConfigError(f"output layer must be scalar, got {dims[-1]}")
    return dims


def init_model(
    dims=(58, 64, 32, 1),
    seed: int = 0,
) -> MlpModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, seeded:
    layer i draws stream i."""
    dims = _validate_dims(dims)
    weights, biases = [], []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / (d_in + d_out))
        # 53 high bits of each word, a float in [0, 1)
        u = (_stream(seed, i, d_in * d_out) >> np.uint64(11)) * 2.0**-53
        weights.append(limit * (2.0 * u - 1.0).reshape(d_in, d_out))
        biases.append(np.zeros(d_out))
    return MlpModel(dims, weights, biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _hidden(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _hidden_grad(z: np.ndarray) -> np.ndarray:
    return (z > 0.0).astype(np.float64)


def _layers(model: MlpModel, a: np.ndarray):
    """Pre-activations and activations of every layer, the input first.

    ``a`` is (n, d) for one BLAS product over all rows per layer, or
    (n, 1, d) for one (1, d_in) @ (d_in, d_out) product per row.
    """
    zs, acts = [], [a]
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        zs.append(z)
        a = _sigmoid(z) if i == last else _hidden(z)
        acts.append(a)
    return zs, acts


def forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Fall probabilities (n,) of a (n, dims[0]) matrix of normalized
    vectors.

    Each layer is one (1, d_in) @ (d_in, d_out) product per row, never a
    BLAS product over all rows, whose per-row rounding depends on how many
    rows share the call; so a row's probability does not depend on n.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.layer_dims[0]:
        raise SchemaMismatch(
            f"expected (n, {model.layer_dims[0]}) inputs, got {X.shape}"
        )
    _zs, acts = _layers(model, X[:, None, :])
    return acts[-1][:, 0, 0]


def loss_bce(p, target) -> float:
    """Binary cross-entropy with p clipped to [eps, 1-eps]."""
    p = np.clip(np.asarray(p, dtype=np.float64), BCE_EPS, 1.0 - BCE_EPS)
    t = np.asarray(target, dtype=np.float64)
    return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))


def backward(model: MlpModel, X: np.ndarray, y: np.ndarray,
             out: list[np.ndarray] | None = None):
    """Gradients of the mean batch BCE with respect to every parameter.

    Returns (weight_grads, bias_grads) with the same shapes as the model
    parameters, written into ``out`` (arrays of those shapes, the weights'
    then the biases') if given.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    zs, acts = _layers(model, X)
    n = X.shape[0]
    if out is None:
        out = [np.empty_like(p) for p in model.weights + model.biases]
    k = len(model.weights)
    w_grads, b_grads = out[:k], out[k:]

    # sigmoid + BCE collapse to (p - t) at the output pre-activation
    delta = (acts[-1] - y) / n
    for i in range(k - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=w_grads[i])
        np.sum(delta, axis=0, out=b_grads[i])
        if i > 0:
            delta = (delta @ model.weights[i].T) * _hidden_grad(zs[i - 1])
    return w_grads, b_grads


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views of ``flat`` shaped like each array in turn."""
    views, end = [], 0
    for p in like:
        views.append(flat[end:end + p.size].reshape(p.shape))
        end += p.size
    return views


@dataclass
class TrainConfig:
    epochs: int = 150
    learning_rate: float = 1e-3
    batch_size: int = 32
    shuffle_seed: int = 1
    test_fraction: float = 0.2
    split_seed: int = 2

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def train(
    model: MlpModel, X: np.ndarray, y: np.ndarray, config: TrainConfig
) -> list[EpochStats]:
    """Adam mini-batch training for exactly config.epochs; mutates model.

    Epoch e visits the rows in the order of stream e under
    config.shuffle_seed.

    y holds 1.0 for FALL and 0.0 for ADL. History entries carry the
    full-training-set loss and accuracy at the end of each epoch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InsufficientData("training data is empty")
    if X.shape[0] != y.shape[0]:
        raise ConfigError("X and y row counts differ")

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # the weights and biases become views of one flat vector, and backward
    # writes the gradient into views of another, so an Adam step is a few
    # in-place whole-vector operations, with the same bits as per array
    params = model.weights + model.biases
    theta = np.concatenate([p.ravel() for p in params])
    views = _views(theta, params)
    k = len(model.weights)
    model.weights[:], model.biases[:] = views[:k], views[k:]
    # gradient, moments and two work vectors
    g, m, v, a, b = (np.zeros_like(theta) for _ in range(5))
    g_views = _views(g, params)
    step = 0
    history: list[EpochStats] = []
    n = X.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = _permutation(config.shuffle_seed, epoch, n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            backward(model, X[idx], y[idx], out=g_views)
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            # m = beta1 * m + (1 - beta1) * g
            m *= beta1
            np.multiply(1 - beta1, g, out=a)
            m += a
            # v = beta2 * v + (1 - beta2) * g ** 2
            v *= beta2
            np.square(g, out=a)
            a *= 1 - beta2
            v += a
            # theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
            np.divide(m, corr1, out=a)
            a *= config.learning_rate
            np.divide(v, corr2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            theta -= a
        probs = forward(model, X)
        history.append(EpochStats(
            epoch=epoch,
            loss=loss_bce(probs, y),
            accuracy=float(np.mean((probs >= 0.5) == (y >= 0.5))),
        ))
    return history


def stratified_split(
    y: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified train/test index split: the rows of the
    i-th smallest label are shuffled by stream i under ``seed``."""
    y = np.asarray(y)
    if y.size == 0:
        raise InsufficientData("cannot split an empty label array")
    train_idx, test_idx = [], []
    # not np.unique, whose first call imports numpy.ma
    for stream, value in enumerate(sorted(set(y.tolist()))):
        idx = np.flatnonzero(y == value)
        idx = idx[_permutation(seed, stream, idx.size)]
        n_test = int(round(test_fraction * idx.size))
        n_test = min(idx.size - 1, max(n_test, 1)) if idx.size > 1 else 0
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return np.sort(np.array(train_idx, dtype=int)), np.sort(
        np.array(test_idx, dtype=int))


@dataclass
class Metrics:
    """Accuracy plus 2x2 confusion matrices, rows true {FALL, ADL}."""

    accuracy: float
    counts: np.ndarray      # [[true FALL pred FALL, pred ADL], [true ADL ...]]
    normalized: np.ndarray  # rows sum to 1; all-zero row stays all-zero
    n: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "row_order": ["FALL", "ADL"],
            "col_order": ["FALL", "ADL"],
            "counts": [[int(v) for v in row] for row in self.counts],
            "normalized": [[float(v) for v in row] for row in self.normalized],
        }

    def format_table(self) -> str:
        c, z = self.counts, self.normalized
        lines = [
            f"samples   : {self.n}",
            f"accuracy  : {self.accuracy:.4f}",
            "                pred FALL   pred ADL",
            f"true FALL   {c[0, 0]:>9d}  {c[0, 1]:>9d}",
            f"true ADL    {c[1, 0]:>9d}  {c[1, 1]:>9d}",
            "normalized      pred FALL   pred ADL",
            f"true FALL   {z[0, 0]:>9.4f}  {z[0, 1]:>9.4f}",
            f"true ADL    {z[1, 0]:>9.4f}  {z[1, 1]:>9.4f}",
        ]
        return "\n".join(lines)


def evaluate(model: MlpModel, X: np.ndarray, y: np.ndarray) -> Metrics:
    """Threshold p >= 0.5 as FALL and count the confusion cells."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise InsufficientData("evaluation data is empty")
    probs = forward(model, X)
    pred_fall = probs >= 0.5
    true_fall = y >= 0.5
    tp = int(np.sum(pred_fall & true_fall))
    fn = int(np.sum(~pred_fall & true_fall))
    fp = int(np.sum(pred_fall & ~true_fall))
    tn = int(np.sum(~pred_fall & ~true_fall))
    counts = np.array([[tp, fn], [fp, tn]], dtype=np.int64)
    normalized = np.zeros((2, 2), dtype=np.float64)
    for r in range(2):
        total = counts[r].sum()
        if total:
            normalized[r] = counts[r] / total
    return Metrics(
        accuracy=(tp + tn) / len(y),
        counts=counts,
        normalized=normalized,
        n=len(y),
    )


@dataclass
class ModelArtifact:
    """Model, its companion scaler, and the training metadata, as one unit."""

    model: MlpModel
    scaler: Scaler
    metadata: dict = field(default_factory=dict)
    digest: str | None = None  # sha256 of the serialized bytes, set on save/load


def artifact_to_bytes(artifact: ModelArtifact) -> bytes:
    """Canonical byte serialization; identical artifacts -> identical bytes.

    Floats are written with their shortest round-trip representation, so a
    load reproduces every parameter bit-exactly. The feature schema version
    is written twice, at the top and in the scaler, both always this
    build's.
    """
    m = artifact.model
    doc = {
        "format": ARTIFACT_FORMAT,
        "layer_dims": list(m.layer_dims),
        "hidden_activation": HIDDEN_ACTIVATION,
        "output_activation": OUTPUT_ACTIVATION,
        "feature_schema_version": SCHEMA_V1.version,
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "scaler": {
            "schema_version": SCHEMA_V1.version,
            "minimum": artifact.scaler.minimum.tolist(),
            "maximum": artifact.scaler.maximum.tolist(),
        },
        "metadata": dict(sorted(artifact.metadata.items())),
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=False).encode("utf-8")


def save_artifact(artifact: ModelArtifact, destination: str | Path) -> str:
    """Write the artifact; returns its sha256 digest."""
    payload = artifact_to_bytes(artifact)
    digest = sha256(payload).hexdigest()
    Path(destination).write_bytes(payload)
    artifact.digest = digest
    return digest


def load_artifact(source: str | Path) -> ModelArtifact:
    try:
        payload = Path(source).read_bytes()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {source}: {exc}") from exc
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"artifact {source} is corrupt: {exc}") from exc
    try:
        if doc["format"] != ARTIFACT_FORMAT:
            raise ArtifactError(f"unsupported artifact format {doc['format']!r}")
        dims = _validate_dims(doc["layer_dims"])
        weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        if len(weights) != 3 or len(biases) != 3:
            raise ArtifactError("expected 3 weight and 3 bias arrays")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ArtifactError(
                    f"layer {i} parameter shapes do not chain with {dims}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ArtifactError("non-finite parameters")
        if doc["hidden_activation"] != HIDDEN_ACTIVATION:
            raise ArtifactError(
                f"unknown hidden activation {doc['hidden_activation']!r}"
            )
        if doc["output_activation"] != OUTPUT_ACTIVATION:
            raise ArtifactError(
                f"unknown output activation {doc['output_activation']!r}"
            )
        for version in (doc["feature_schema_version"],
                        doc["scaler"]["schema_version"]):
            if version != SCHEMA_V1.version:
                raise ArtifactError(
                    f"feature schema {version!r} is not supported "
                    f"(this build computes schema {SCHEMA_V1.version!r})"
                )
        scaler = Scaler(
            minimum=np.asarray(doc["scaler"]["minimum"], dtype=np.float64),
            maximum=np.asarray(doc["scaler"]["maximum"], dtype=np.float64),
        )
        if scaler.minimum.shape != scaler.maximum.shape:
            raise ArtifactError("scaler min/max lengths differ")
        if not len(scaler.minimum) == dims[0] == len(SCHEMA_V1.names):
            raise ArtifactError(
                f"scaler of {len(scaler.minimum)} and input layer of "
                f"{dims[0]} features do not fit feature schema "
                f"{SCHEMA_V1.version!r} ({len(SCHEMA_V1.names)} features)")
        if np.any(scaler.minimum > scaler.maximum):
            raise ArtifactError("scaler has min > max")
        if not isinstance(doc["metadata"], dict):
            raise ArtifactError(f"artifact {source} has non-object metadata")
        return ModelArtifact(
            model=MlpModel(layer_dims=dims, weights=weights, biases=biases),
            scaler=scaler,
            metadata=doc["metadata"],
            digest=sha256(payload).hexdigest(),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact {source} is malformed: {exc}") from exc
