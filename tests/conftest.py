import json

import numpy as np
import pytest

from fallstream.cli import main
from fallstream.model import load_artifact
from fallstream.synth import make_dataset
from fallstream.windowing import Window

MAPPING = {
    "timestamp": 0, "ax": 1, "ay": 2, "az": 3, "label": 4,
    "delimiter": ",", "header": False, "unit": "m/s2", "time_unit": "ms",
}


def make_window(rng, n=200, device="dev",
                loc=(0.0, 9.8, 0.0), scale=(5.0, 3.0, 4.0)):
    xs = rng.normal(loc[0], scale[0], n)
    ys = rng.normal(loc[1], scale[1], n)
    zs = rng.normal(loc[2], scale[2], n)
    t_ms = np.arange(n, dtype=np.int64) * 50
    return Window(device, t_ms, np.column_stack((xs, ys, zs)))


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fallstream")


@pytest.fixture(scope="session")
def mapping_path(workdir):
    path = workdir / "mapping.json"
    path.write_text(json.dumps(MAPPING))
    return path


@pytest.fixture(scope="session")
def dataset_dir(workdir):
    directory = workdir / "dataset"
    make_dataset(directory, n_trials=16, seed=3)
    return directory


@pytest.fixture(scope="session")
def feature_csv(workdir, dataset_dir, mapping_path):
    out = workdir / "features.csv"
    rc = main(["prepare", str(dataset_dir), "--mapping", str(mapping_path),
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def artifact_path(workdir, feature_csv):
    out = workdir / "model.json"
    rc = main(["train", str(feature_csv), "--artifact", str(out),
               "--epochs", "60", "--seed", "1234"])
    assert rc == 0
    artifact = load_artifact(out)
    # the rest of the suite assumes this model actually learned the task
    assert artifact.metadata["train_accuracy"] == 1.0
    return out


@pytest.fixture(scope="session")
def artifact(artifact_path):
    return load_artifact(artifact_path)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
