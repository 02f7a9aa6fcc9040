"""Shared fixtures: one synthetic dataset reused across harness/CLI/acceptance
tests, with features prepared at the desk-scale patch width."""

import struct

import numpy as np
import pytest

from respdl import harness, ingest, synth
from respdl.nn import Dropout, ReLU, TrainConfig


def write_raw_wav(path, fmt_code, bits, channels, rate, payload):
    """A WAV whose data chunk is exactly `payload`, whatever its length."""
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, channels, rate,
                                    rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synthdata")
    synth.generate(d, n_recordings=40, n_classes=4, seed=0)
    return d


@pytest.fixture(scope="session")
def synth_manifest(synth_dir):
    return ingest.build_manifest(synth_dir, synth_dir / "diagnosis.csv", "Task1_4class")


@pytest.fixture(scope="session")
def synth_features(synth_manifest):
    return harness.build_features(synth_manifest, "Task1_4class", 0.5)


@pytest.fixture(scope="session")
def synth_folds(synth_manifest):
    return ingest.make_folds(synth_manifest, 5, 7, "Task1_4class")


def desk_config(model="cnn_moe", **overrides):
    """Fast, convergent configuration for the synthetic dataset."""
    base = dict(
        task="Task1_4class",
        model=model,
        min_cycle_seconds=0.5,
        patch_width=32,
        k=5,
        fold_seed=7,
        mixup=False,
        gru_hidden=64,
        early_stop_acc=0.999,
        train=TrainConfig(epochs=60, batch_size=8, lr=1e-3, seed=11),
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def forward_shapes(model):
    """Per-sample output shapes of one batch-1 training forward, as the
    architecture tables list them: one per conv block (a frequency axis
    collapsed to one band dropped), then one per head layer that maps
    features, ending with the logits."""
    x = np.random.default_rng(0).standard_normal((1, 64, model.patch_width, 1),
                                                 dtype=np.float32)
    shapes = []
    for block in model.blocks:
        for layer in block:
            x = layer.forward(x, train=True)
        shape = x.shape[1:]
        shapes.append(shape[1:] if len(shape) == 3 and shape[0] == 1 else shape)
    for layer in model.layers[len(model.blocks):]:  # the head
        x = layer.forward(x, train=True)
        if not (isinstance(layer, (ReLU, Dropout))
                or layer is getattr(model, "drop_freq", None)):
            shapes.append(x.shape[1:])
    return tuple(shapes)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
