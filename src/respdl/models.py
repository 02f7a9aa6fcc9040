"""The two back-end classifiers and their combination.

CNN-MoE: six batch-normalized 3x3 convolution blocks collapse a 64-frame
patch to a 512-vector (global average pooling), which a mixture-of-experts
layer maps to class logits: the gate-weighted sum of rectified expert
outputs.

C-RNN: four frequency-only 4x1 convolution blocks collapse the 64 bands to
one, leaving a per-frame 512-dim sequence; a bidirectional GRU doubles the
frame count, per-frame feature averaging yields one value per frame, and
three dense layers produce the logits.

Every averaging step is one ``Mean`` layer: the global pool over both
spatial axes, the drop of the one band the C-RNN front leaves, and the
per-frame feature average.

Both share ``Sequential``: a block is one ``ConvBlock``, a ``Chain`` of
its layers that runs them as one fused pass each way, and the model a
``Chain`` of blocks, then head, then one softmax (``Classifier``), so its
forward is row-stochastic; training enters the fused softmax+cross-entropy
backward via ``backward(dlogits)``. Training through a block gives its
layers' results bit for bit; inference applies each block's second batch
normalization after its pooling, the same linear map up to float
rounding on a smaller tensor. Between steps a model holds only its
parameters, their gradients and the running statistics; a training
forward leaves each layer's backward input in that layer's cache.

A model's whole trained state is one name -> array dict, its parameters
and batch-norm running statistics: ``state()`` copies it out and
``load_state()`` checks and copies it back in.

The layers are the only description of each architecture: the output
shape of every block follows from them. Any patch width reuses the same
pooling schedule; one that the pooling does not divide fails at the first
forward with a ShapeError.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import FormatError, ParameterError, ShapeError
from .nn.layers import (
    AvgPool2d,
    Classifier,
    ConvBlock,
    Dense,
    Dropout,
    Layer,
    Mean,
    Param,
    ReLU,
    softmax,
    take_cache,
    xavier_uniform,
)
from .nn.rnn import BiGRU


class MoELayer(Layer):
    """Mixture of experts over a feature vector.

    Each expert is a rectified dense map to the class space; a softmax gate
    weights the expert outputs. The weighted sum is returned as logits: the
    model's trailing softmax is the only one over the classes.
    """

    def __init__(self, in_dim, n_classes, n_experts, rng, name="moe", dtype=np.float32):
        self.expert_w = Param(
            f"{name}.experts.W",
            np.stack([xavier_uniform(rng, (in_dim, n_classes), dtype) for _ in range(n_experts)]),
        )
        self.expert_b = Param(
            f"{name}.experts.b", np.zeros((n_experts, n_classes), dtype=dtype), decay=False
        )
        self.gate = Dense(in_dim, n_experts, rng, name=f"{name}.gate", dtype=dtype)
        self.layers = (self.gate,)
        self.name = name

    def forward(self, x, train=False):
        e_pre = np.einsum("bi,jin->bjn", x, self.expert_w.data) + self.expert_b.data
        e = np.maximum(e_pre, 0.0)
        g = softmax(self.gate.forward(x, train))
        self._cache = (x, e_pre > 0, e, g) if train else None
        return np.einsum("bjn,bj->bn", e, g)

    def backward(self, dlogits):
        x, mask, e, g = take_cache(self)
        de = g[:, :, None] * dlogits[:, None, :]
        dg = (e * dlogits[:, None, :]).sum(axis=2)
        de_pre = de * mask
        self.expert_w.grad += np.einsum("bi,bjn->jin", x, de_pre)
        self.expert_b.grad += de_pre.sum(axis=0)
        dx = np.einsum("bjn,jin->bi", de_pre, self.expert_w.data)
        dgate = g * (dg - (g * dg).sum(axis=1, keepdims=True))  # gate softmax backward
        return dx + self.gate.backward(dgate)

    def params(self):
        return [self.expert_w, self.expert_b] + super().params()

    def gate_weights(self, x):
        """Gate distribution for inspection; rows lie on the simplex."""
        return softmax(self.gate.forward(x))


class Sequential(Classifier):
    """Conv blocks over (B, 64, W) patches, a head that returns logits, and
    one trailing softmax.

    A subclass sets ``name``, the conv kernel ``_KERNEL`` and the block
    schedule ``_SCHEDULE``; its constructor builds the blocks with
    ``_build_blocks``, then chains them and the head layers (each also a
    model attribute, where per-layer instrumentation finds it) in forward
    order. Layer order fixes the order of ``params()``, which the
    optimizer state follows.
    """

    def _build_blocks(self, patch_width, dropout_rates, seed, dtype):
        """Set ``patch_width``, ``drop_rng`` (the one generator the model's
        ``Dropout`` layers draw from) and ``blocks``: per ``_SCHEDULE``
        entry (out_ch, pooling layer maker or None), one ``ConvBlock`` Bn -
        Cv - Relu - Bn - [pool] - Dr, taking the previous block's channels
        and the next dropout rate. Returns the generator that initialized
        them, for the head."""
        if len(dropout_rates) != 6:
            raise ParameterError(f"{self.name} takes six dropout rates")
        seeds = np.random.SeedSequence(seed).spawn(2)
        init_rng, self.drop_rng = (np.random.default_rng(s) for s in seeds)
        self.patch_width = patch_width
        self.blocks = []
        in_ch = 1
        for i, ((out_ch, pool), p) in enumerate(zip(self._SCHEDULE, dropout_rates), start=1):
            self.blocks.append(ConvBlock(in_ch, out_ch, self._KERNEL, pool() if pool else None, p,
                                         init_rng, self.drop_rng, f"block{i}", dtype))
            in_ch = out_ch
        return init_rng

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[1:] != (64, self.patch_width):
            raise ShapeError(
                f"{self.name}: expected (B,64,{self.patch_width}) patches, got {x.shape}"
            )
        return super().forward(x[:, :, :, None], train)  # channels-last

    def backward(self, dlogits):
        return super().backward(dlogits)[:, :, :, 0]

    def _arrays(self):
        """Every parameter, then every buffer (the batch-norm running
        statistics), by name, as the arrays the model computes with."""
        return {p.name: p.data for p in self.params()} | self.buffers()

    def state(self) -> dict:
        """A copy of the model's trained state: each parameter and each
        layer buffer by name, as checkpoints store it."""
        return {name: data.copy() for name, data in self._arrays().items()}

    def load_state(self, entries: dict) -> None:
        """Copy a ``state()`` into the model. An entry that is missing or
        has another shape than the model's is a FormatError; entries the
        model does not have are ignored."""
        for name, data in self._arrays().items():
            if name not in entries:
                raise FormatError(f"{self.name}: state lacks {name}")
            if entries[name].shape != data.shape:
                raise FormatError(f"{name}: state shape {entries[name].shape} "
                                  f"!= model shape {data.shape}")
            data[...] = entries[name]


class CNNMoE(Sequential):
    """Six 3x3 conv blocks + global average pooling + mixture of experts."""

    name = "cnn_moe"

    _KERNEL = (3, 3)
    _SCHEDULE = (
        (64, partial(AvgPool2d, 2, 2)),
        (128, partial(AvgPool2d, 2, 2)),
        (256, None),
        (256, partial(AvgPool2d, 2, 2)),
        (512, None),
        (512, partial(Mean, (1, 2))),  # global average pooling
    )

    def __init__(
        self,
        n_classes,
        patch_width=128,
        n_experts=10,
        dropout_rates=(0.10, 0.15, 0.20, 0.20, 0.25, 0.25),
        seed=0,
        dtype=np.float32,
    ):
        init_rng = self._build_blocks(patch_width, dropout_rates, seed, dtype)
        self.moe = MoELayer(512, n_classes, n_experts, init_rng, dtype=dtype)
        super().__init__(*self.blocks, self.moe)


class CRNN(Sequential):
    """Frequency-collapsing conv front, bi-GRU, per-frame feature averaging,
    three dense layers."""

    name = "crnn"

    _KERNEL = (4, 1)
    _SCHEDULE = ((64, partial(AvgPool2d, 2, 1)), (128, partial(AvgPool2d, 2, 1)),
                 (256, partial(AvgPool2d, 4, 1)), (512, partial(AvgPool2d, 4, 1)))

    def __init__(
        self,
        n_classes,
        patch_width=128,
        gru_hidden=512,
        dropout_rates=(0.10, 0.15, 0.20, 0.25, 0.30, 0.30),
        seed=0,
        dtype=np.float32,
    ):
        init_rng = self._build_blocks(patch_width, dropout_rates, seed, dtype)
        self.drop_freq = Mean(1)  # the one band the conv front leaves
        self.gru = BiGRU(512, gru_hidden, init_rng, dtype=dtype)
        self.feat_pool = Mean(2)
        self.fc1 = Dense(2 * patch_width, 1024, init_rng, name="fc1", dtype=dtype)
        self.relu1 = ReLU(name="relu1")
        self.drop1 = Dropout(dropout_rates[4], self.drop_rng)
        self.fc2 = Dense(1024, 1024, init_rng, name="fc2", dtype=dtype)
        self.relu2 = ReLU(name="relu2")
        self.drop2 = Dropout(dropout_rates[5], self.drop_rng)
        self.fc3 = Dense(1024, n_classes, init_rng, name="fc3", dtype=dtype)
        super().__init__(*self.blocks, self.drop_freq, self.gru, self.feat_pool, self.fc1,
                         self.relu1, self.drop1, self.fc2, self.relu2, self.drop2, self.fc3)


def build_model(name, n_classes, patch_width=128, seed=0, gru_hidden=512,
                n_experts=10, dtype=np.float32):
    if name == "cnn_moe":
        return CNNMoE(n_classes, patch_width=patch_width, n_experts=n_experts,
                      seed=seed, dtype=dtype)
    if name == "crnn":
        return CRNN(n_classes, patch_width=patch_width, gru_hidden=gru_hidden,
                    seed=seed, dtype=dtype)
    raise ParameterError(f"unknown model {name!r}")


def mean_probs(rows) -> np.ndarray:
    """The arithmetic mean of probability rows, in float64: the mean of an
    entity's patch rows, and the fusion of ensemble members' entity rows.
    No rows, or rows of different shapes, is a ParameterError."""
    rows = [np.asarray(row, dtype=np.float64) for row in rows]
    shapes = {row.shape for row in rows}
    if len(shapes) != 1:
        raise ParameterError(f"mean_probs needs rows of one shape, got {sorted(shapes)}")
    return np.mean(rows, axis=0)
