import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallstream.errors import (
    ArtifactError,
    ConfigError,
    InsufficientData,
    SchemaMismatch,
)
from fallstream.features import Scaler, apply_scaler, fit_scaler
from fallstream.model import (
    SEED_LIMIT,
    Metrics,
    ModelArtifact,
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
from fallstream.model import _permutation, _stream, _words
from fallstream.synth import separable_clusters


def _loss_of(model, X, y):
    return loss_bce(forward(model, X), y)


def _finite_difference(model, X, y, h=1e-4):
    fd = []
    for arr in model.weights + model.biases:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _loss_of(model, X, y)
            flat[i] = orig - h
            down = _loss_of(model, X, y)
            flat[i] = orig
            fd.append((up - down) / (2 * h))
    return np.array(fd)


def _flatten_grads(w_grads, b_grads):
    return np.concatenate([g.ravel() for g in w_grads + b_grads])


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_model(seed=7)
        b = init_model(seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a = init_model(seed=7)
        b = init_model(seed=8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_start_at_zero(self):
        model = init_model(seed=0)
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_shapes_chain(self):
        model = init_model((58, 64, 32, 1), seed=0)
        assert [w.shape for w in model.weights] == [(58, 64), (64, 32), (32, 1)]
        assert [b.shape for b in model.biases] == [(64,), (32,), (1,)]

    def test_uniform_bound(self):
        model = init_model((58, 64, 32, 1), seed=3)
        for w, (d_in, d_out) in zip(model.weights, [(58, 64), (64, 32), (32, 1)]):
            limit = math.sqrt(6.0 / (d_in + d_out))
            assert np.all(np.abs(w) <= limit)

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            init_model((58, 64, 1), seed=0)  # only one hidden layer
        with pytest.raises(ConfigError):
            init_model((58, 64, 32, 2), seed=0)  # non-scalar output
        with pytest.raises(ConfigError):
            init_model((58, 0, 32, 1), seed=0)


    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
    def test_unusable_seed_rejected(self, seed):
        with pytest.raises(ConfigError):
            init_model(seed=seed)


def _splitmix64(state: int, n: int) -> list[int]:
    """The reference splitmix64.c in Python integers."""
    mask, out = 2**64 - 1, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestGenerator:
    def test_known_answer(self):
        # splitmix64.c from state 0; a refactor that changes these words
        # changes every artifact's bytes
        assert _words(0, 3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", [0, 1, 1234, 2**63, SEED_LIMIT - 1])
    @pytest.mark.parametrize("stream", [0, 2, 150])
    def test_streams_follow_the_reference(self, seed, stream):
        key = _splitmix64(seed, stream + 1)[stream]
        assert _stream(seed, stream, 40).tolist() == _splitmix64(key, 40)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 2000), seed=st.integers(0, SEED_LIMIT - 1),
           stream=st.integers(0, 1000))
    def test_words_are_distinct_and_sort_to_a_permutation(self, n, seed,
                                                          stream):
        words = _stream(seed, stream, n)
        assert words.dtype == np.uint64 and len(set(words.tolist())) == n
        order = _permutation(seed, stream, n)
        assert sorted(order.tolist()) == list(range(n))
        assert np.all(words[order][1:] > words[order][:-1])

    def test_epoch_streams_and_seeds_differ(self):
        orders = [tuple(_permutation(seed, epoch, 50))
                  for seed in (1, 2) for epoch in range(1, 6)]
        assert len(set(orders)) == len(orders)

    def test_draws_are_deterministic(self):
        assert np.array_equal(_permutation(9, 3, 100), _permutation(9, 3, 100))


class TestForward:
    def test_zero_parameters_give_half(self):
        model = init_model((4, 3, 2, 1), seed=0)
        for w in model.weights:
            w[:] = 0.0
        assert forward(model, np.zeros((1, 4))).tolist() == [0.5]

    def test_minimal_relu_chain(self):
        # 1-1-1-1 net, weights 1, biases 0, input 0: relu(0) chains to sigmoid(0)
        model = init_model((1, 1, 1, 1), seed=0)
        for w in model.weights:
            w[:] = 1.0
        assert forward(model, np.zeros((1, 1))).tolist() == [0.5]

    def test_output_strictly_inside_unit_interval(self):
        # precondition: inputs are scaler-normalized, i.e. unit-interval scale
        model = init_model((6, 5, 4, 1), seed=1)
        rng = np.random.default_rng(0)
        probs = forward(model, rng.uniform(0, 1, (200, 6)))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_length_mismatch(self):
        model = init_model((6, 5, 4, 1), seed=1)
        with pytest.raises(SchemaMismatch):
            forward(model, np.zeros((1, 5)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
    def test_rows_do_not_depend_on_batch_size(self, n, seed):
        # a BLAS X @ W over all rows rounds a row differently as n changes
        rng = np.random.default_rng(seed)
        model = init_model((58, 64, 32, 1), seed=seed % 1000)
        for b in model.biases:
            b += rng.normal(0, 0.1, b.shape)
        X = rng.uniform(-0.5, 1.5, (n, 58))
        probs = forward(model, X)
        alone = np.concatenate([forward(model, X[i:i + 1]) for i in range(n)])
        assert probs.shape == (n,)
        assert probs.tobytes() == alone.tobytes()


class TestLoss:
    def test_half_is_ln2(self):
        assert loss_bce(0.5, 1.0) == pytest.approx(math.log(2))
        assert loss_bce(0.5, 0.0) == pytest.approx(math.log(2))

    def test_perfect_prediction_goes_to_zero(self):
        assert loss_bce(1.0 - 1e-13, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.9):
            assert loss_bce(p, 1.0) == pytest.approx(loss_bce(1.0 - p, 0.0))

    def test_extreme_probability_is_finite(self):
        assert math.isfinite(loss_bce(0.0, 1.0))
        assert math.isfinite(loss_bce(1.0, 0.0))


class TestBackward:
    def test_gradient_check_small_net(self):
        rng = np.random.default_rng(5)
        model = init_model((5, 4, 3, 1), seed=5)
        for b in model.biases:
            b += rng.normal(0, 0.1, b.shape)
        X = rng.normal(0, 1, (8, 5))
        y = rng.integers(0, 2, 8).astype(float)
        analytic = _flatten_grads(*backward(model, X, y))
        fd = _finite_difference(model, X, y)
        rel = np.linalg.norm(analytic - fd) / max(
            np.linalg.norm(analytic), np.linalg.norm(fd), 1e-30)
        assert rel <= 1e-5

    def test_stationary_output_bias(self):
        # zero weights make p = 0.5 everywhere; a balanced batch then has a
        # zero output-layer bias gradient
        model = init_model((3, 2, 2, 1), seed=0)
        for w in model.weights:
            w[:] = 0.0
        X = np.ones((4, 3))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        _, b_grads = backward(model, X, y)
        assert b_grads[-1][0] == 0.0

    def test_duplicated_batch_leaves_mean_gradient_unchanged(self):
        rng = np.random.default_rng(9)
        model = init_model((4, 3, 2, 1), seed=9)
        X = rng.normal(0, 1, (6, 4))
        y = rng.integers(0, 2, 6).astype(float)
        once = _flatten_grads(*backward(model, X, y))
        twice = _flatten_grads(*backward(model, np.vstack([X, X]),
                                         np.concatenate([y, y])))
        np.testing.assert_allclose(once, twice, rtol=1e-12, atol=1e-15)

    def test_gradients_fill_out(self):
        rng = np.random.default_rng(4)
        model = init_model((5, 4, 3, 1), seed=4)
        X = rng.normal(0, 1, (7, 5))
        y = rng.integers(0, 2, 7).astype(float)
        out = [np.full_like(p, np.nan) for p in model.weights + model.biases]
        w_grads, b_grads = backward(model, X, y, out=out)
        assert all(g is o for g, o in zip(w_grads + b_grads, out))
        assert np.array_equal(_flatten_grads(w_grads, b_grads),
                              _flatten_grads(*backward(model, X, y)))


def _reference_train(model, X, y, config):
    """train's Adam loop written with a new array per operation."""
    theta = np.concatenate([p.ravel() for p in model.weights + model.biases])
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    step, n = 0, X.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = _permutation(config.shuffle_seed, epoch, n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            g = _flatten_grads(*backward(model, X[idx], y[idx]))
            step += 1
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g ** 2
            theta = theta - config.learning_rate * (m / (1.0 - 0.9**step)) / (
                np.sqrt(v / (1.0 - 0.999**step)) + 1e-8)
            end = 0
            for p in model.weights + model.biases:
                p[...] = theta[end:end + p.size].reshape(p.shape)
                end += p.size
    return theta


class TestTrain:
    def test_in_place_steps_match_the_reference_bits(self):
        X, y = separable_clusters(70, seed=13)
        X = apply_scaler(X, fit_scaler(X))
        config = TrainConfig(epochs=4, batch_size=16, shuffle_seed=21)
        model, reference = init_model(seed=20), init_model(seed=20)
        train(model, X, y, config)
        expected = _reference_train(reference, X, y, config)
        assert np.array_equal(_flatten_grads(model.weights, model.biases),
                              expected)

    def test_separable_set_reaches_perfect_training_accuracy(self):
        X, y = separable_clusters(300, seed=1)
        scaler = fit_scaler(X)
        Xn = apply_scaler(X, scaler)
        model = init_model(seed=2)
        history = train(model, Xn, y, TrainConfig(epochs=150, shuffle_seed=3))
        assert history[-1].accuracy == 1.0
        assert len(history) == 150

    def test_loss_decreases(self):
        X, y = separable_clusters(300, seed=4)
        model = init_model(seed=5)
        history = train(model, apply_scaler(X, fit_scaler(X)), y,
                        TrainConfig(epochs=30, shuffle_seed=6))
        assert history[-1].loss < history[0].loss

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_deterministic_given_seeds(self):
        X, y = separable_clusters(120, seed=7)
        runs = []
        for _ in range(2):
            model = init_model(seed=8)
            train(model, X, y, TrainConfig(epochs=5, shuffle_seed=9))
            runs.append([w.copy() for w in model.weights])
        for wa, wb in zip(*runs):
            assert np.array_equal(wa, wb)

    def test_empty_data_rejected(self):
        model = init_model(seed=0)
        with pytest.raises(InsufficientData):
            train(model, np.empty((0, 58)), np.empty(0), TrainConfig(epochs=1))


class TestStratifiedSplit:
    def test_deterministic(self):
        y = np.array([0, 1] * 50, dtype=float)
        a = stratified_split(y, 0.2, seed=3)
        b = stratified_split(y, 0.2, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_partition_and_stratification(self):
        y = np.array([0.0] * 80 + [1.0] * 20)
        train_idx, test_idx = stratified_split(y, 0.25, seed=1)
        assert sorted(np.concatenate([train_idx, test_idx]).tolist()) == list(range(100))
        assert int(np.sum(y[test_idx])) == 5  # 25% of the 20 positives
        assert len(test_idx) == 25

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
    def test_unusable_seed_rejected(self, seed):
        with pytest.raises(ConfigError):
            stratified_split(np.array([0.0, 1.0] * 10), 0.2, seed=seed)

    def test_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma, which train and evaluate never need
        code = ("import sys, numpy as np; "
                "from fallstream.model import stratified_split; "
                "stratified_split(np.array([0.0, 1.0] * 10), 0.2, seed=1); "
                "sys.exit('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestEvaluate:
    def test_perfect_predictor(self):
        X, y = separable_clusters(200, seed=10)
        model = init_model(seed=11)
        train(model, apply_scaler(X, fit_scaler(X)), y,
              TrainConfig(epochs=60, shuffle_seed=12))
        m = evaluate(model, apply_scaler(X, fit_scaler(X)), y)
        assert m.accuracy == 1.0
        assert m.counts[0, 1] == 0 and m.counts[1, 0] == 0

    def test_constant_adl_predictor(self):
        # weights 0, output bias very negative: p ~ 0 for everything
        model = init_model((3, 2, 2, 1), seed=0)
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][0] = -30.0
        rng = np.random.default_rng(13)
        X = rng.normal(0, 1, (100, 3))
        y = (rng.random(100) < 0.3).astype(float)
        fall_fraction = float(np.mean(y))
        m = evaluate(model, X, y)
        assert m.accuracy == pytest.approx(1.0 - fall_fraction)

    def test_matches_manual_recount(self):
        rng = np.random.default_rng(14)
        model = init_model((6, 4, 3, 1), seed=14)
        X = rng.normal(0, 2, (100, 6))
        y = rng.integers(0, 2, 100).astype(float)
        m = evaluate(model, X, y)
        probs = forward(model, X)
        tp = sum(1 for p, t in zip(probs, y) if p >= 0.5 and t == 1.0)
        fn = sum(1 for p, t in zip(probs, y) if p < 0.5 and t == 1.0)
        fp = sum(1 for p, t in zip(probs, y) if p >= 0.5 and t == 0.0)
        tn = sum(1 for p, t in zip(probs, y) if p < 0.5 and t == 0.0)
        assert m.counts.tolist() == [[tp, fn], [fp, tn]]
        assert m.accuracy == (tp + tn) / 100
        assert m.n == 100

    def test_permutation_invariant(self):
        rng = np.random.default_rng(15)
        model = init_model((5, 4, 3, 1), seed=15)
        X = rng.normal(0, 1, (60, 5))
        y = rng.integers(0, 2, 60).astype(float)
        order = rng.permutation(60)
        a = evaluate(model, X, y)
        b = evaluate(model, X[order], y[order])
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.counts, b.counts)

    def test_normalized_rows_sum_to_one(self):
        rng = np.random.default_rng(16)
        model = init_model((4, 3, 2, 1), seed=16)
        X = rng.normal(0, 1, (50, 4))
        y = rng.integers(0, 2, 50).astype(float)
        m = evaluate(model, X, y)
        for r in range(2):
            if m.counts[r].sum():
                assert m.normalized[r].sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_count_row_stays_zero(self):
        model = init_model((3, 2, 2, 1), seed=17)
        X = np.zeros((5, 3))
        y = np.zeros(5)  # no true falls at all
        m = evaluate(model, X, y)
        assert m.normalized[0].tolist() == [0.0, 0.0]

    def test_empty_rejected(self):
        model = init_model((3, 2, 2, 1), seed=0)
        with pytest.raises(InsufficientData):
            evaluate(model, np.empty((0, 3)), np.empty(0))

    def test_to_dict_is_json_ready(self):
        m = Metrics(accuracy=0.75,
                    counts=np.array([[3, 1], [0, 4]]),
                    normalized=np.array([[0.75, 0.25], [0.0, 1.0]]), n=8)
        d = m.to_dict()
        assert d["counts"] == [[3, 1], [0, 4]]
        assert d["accuracy"] == 0.75


def _make_artifact(seed=0, dim=58):
    rng = np.random.default_rng(seed)
    model = init_model((dim, 4, 3, 1), seed=seed)
    for w in model.weights:
        w += rng.normal(0, 0.01, w.shape)
    scaler = Scaler(minimum=rng.normal(-1, 0.1, dim),
                    maximum=rng.normal(2, 0.1, dim))
    return ModelArtifact(model=model, scaler=scaler,
                         metadata={"epochs": 150, "seed": seed})


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        artifact = _make_artifact(seed=21)
        path = tmp_path / "m.json"
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        for a, b in zip(artifact.model.weights, loaded.model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(artifact.model.biases, loaded.model.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(artifact.scaler.minimum, loaded.scaler.minimum)
        assert loaded.metadata == artifact.metadata
        assert loaded.digest == artifact.digest

    def test_forward_identical_after_round_trip(self, tmp_path):
        artifact = _make_artifact(seed=22)
        path = tmp_path / "m.json"
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = rng.normal(0, 1, (1, 58))
            assert forward(artifact.model, v)[0] == forward(loaded.model, v)[0]

    def test_serialization_is_byte_stable(self, tmp_path):
        artifact = _make_artifact(seed=24)
        a = artifact_to_bytes(artifact)
        b = artifact_to_bytes(artifact)
        assert a == b
        path = tmp_path / "m.json"
        save_artifact(artifact, path)
        assert artifact_to_bytes(load_artifact(path)) == a

    def test_truncated_file_rejected(self, tmp_path):
        artifact = _make_artifact(seed=25)
        path = tmp_path / "m.json"
        save_artifact(artifact, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "absent.json")

    @pytest.mark.parametrize("key,value", [
        ("hidden_activation", "tanh"),
        ("hidden_activation", "sigmoid"),
        ("output_activation", "relu"),
    ])
    def test_unknown_activation_rejected(self, tmp_path, key, value):
        import json as json_mod
        path = tmp_path / "m.json"
        save_artifact(_make_artifact(seed=28), path)
        doc = json_mod.loads(path.read_text())
        assert doc["hidden_activation"] == "relu"
        doc[key] = value
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(ArtifactError, match="activation"):
            load_artifact(path)

    def test_bad_shapes_rejected(self, tmp_path):
        import json as json_mod
        path = tmp_path / "m.json"
        save_artifact(_make_artifact(seed=27), path)
        good = path.read_text()

        def drop_a_row(doc):
            doc["weights"][0] = doc["weights"][0][:-1]

        def truncate_the_scaler(doc):
            # a 57-entry scaler next to a 58-wide model
            for key in ("minimum", "maximum"):
                doc["scaler"][key] = doc["scaler"][key][:-1]

        def narrow_the_model(doc):
            # 57 inputs with weights that chain, and a scaler to match:
            # consistent in itself, but not a schema v1 model
            drop_a_row(doc)
            truncate_the_scaler(doc)
            doc["layer_dims"][0] = 57

        for corrupt in (drop_a_row, truncate_the_scaler, narrow_the_model):
            doc = json_mod.loads(good)
            corrupt(doc)
            path.write_text(json_mod.dumps(doc))
            with pytest.raises(ArtifactError):
                load_artifact(path)
