"""The two back-end classifiers and their combination.

CNN-MoE: six batch-normalized 3x3 convolution blocks collapse a 64-frame
patch to a 512-vector (global average pooling), which a mixture-of-experts
layer maps to class logits: the gate-weighted sum of rectified expert
outputs.

C-RNN: four frequency-only 4x1 convolution blocks collapse the 64 bands to
one, leaving a per-frame 512-dim sequence; a bidirectional GRU doubles the
frame count, per-frame feature averaging yields one value per frame, and
three dense layers produce the logits.

Both share ``Sequential``: conv blocks, then a head, then one softmax, so
their forward passes produce row-stochastic outputs; training drives them
through the fused softmax+cross-entropy backward, entered via
``backward(dlogits)``.

Canonical shape schedules (patch width 128) are asserted at construction;
other widths reuse the same pooling schedule and must stay divisible.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    FeatureAveragePool,
    GlobalAvgPool,
    Param,
    ReLU,
    softmax,
    xavier_uniform,
)
from .nn.rnn import BiGRU

# Output columns of the two architecture tables, patch width 128:
# (freq, time, channels) per conv block, then the flat tails.
CNN_MOE_TRACE_128 = (
    (32, 64, 64),
    (16, 32, 128),
    (16, 32, 256),
    (8, 16, 256),
    (8, 16, 512),
    (512,),
)
CRNN_TRACE_128 = (
    (32, 128, 64),
    (16, 128, 128),
    (4, 128, 256),
    (128, 512),
    (256, 512),
    (256,),
    (1024,),
    (1024,),
)


class MoELayer:
    """Mixture of experts over a feature vector.

    Each expert is a rectified dense map to the class space; a softmax gate
    weights the expert outputs. The weighted sum is returned as logits: the
    model's trailing softmax is the only one over the classes.
    """

    def __init__(self, in_dim, n_classes, n_experts, rng, name="moe", dtype=np.float32):
        self.n_experts = n_experts
        self.expert_w = Param(
            f"{name}.experts.W",
            np.stack([xavier_uniform(rng, (in_dim, n_classes), dtype) for _ in range(n_experts)]),
        )
        self.expert_b = Param(
            f"{name}.experts.b", np.zeros((n_experts, n_classes), dtype=dtype), decay=False
        )
        self.gate = Dense(in_dim, n_experts, rng, name=f"{name}.gate", dtype=dtype)
        self._cache = None

    def forward(self, x, train=False):
        e_pre = np.einsum("bi,jin->bjn", x, self.expert_w.data) + self.expert_b.data
        e = np.maximum(e_pre, 0.0)
        g = softmax(self.gate.forward(x, train))
        self._cache = (x, e_pre > 0, e, g)
        return np.einsum("bjn,bj->bn", e, g)

    def backward(self, dlogits):
        x, mask, e, g = self._cache
        de = g[:, :, None] * dlogits[:, None, :]
        dg = (e * dlogits[:, None, :]).sum(axis=2)
        de_pre = de * mask
        self.expert_w.grad += np.einsum("bi,bjn->jin", x, de_pre)
        self.expert_b.grad += de_pre.sum(axis=0)
        dx = np.einsum("bjn,jin->bi", de_pre, self.expert_w.data)
        dgate = g * (dg - (g * dg).sum(axis=1, keepdims=True))  # gate softmax backward
        return dx + self.gate.backward(dgate)

    def params(self):
        return [self.expert_w, self.expert_b] + self.gate.params()

    def gate_weights(self, x):
        """Gate distribution for inspection; rows lie on the simplex."""
        return softmax(x @ self.gate.w.data + self.gate.b.data)


class _DropFreq:
    """(B, 1, T, C) -> (B, T, C) once the conv front has collapsed frequency."""

    def forward(self, x, train=False):
        return x[:, 0]

    def backward(self, dout):
        return dout[:, None]

    def params(self):
        return []


def _conv_block(in_ch, out_ch, kernel, pool, p_drop, rng, drop_rng, name, dtype,
                global_pool=False):
    """Bn - Cv - Relu - Bn - [Ap | Gp] - Dr, in that order."""
    layers = [
        BatchNorm2d(in_ch, name=f"{name}.bn_in", dtype=dtype),
        Conv2d(in_ch, out_ch, kernel[0], kernel[1], rng, name=f"{name}.conv", dtype=dtype),
        ReLU(),
        BatchNorm2d(out_ch, name=f"{name}.bn_out", dtype=dtype),
    ]
    if pool is not None:
        layers.append(AvgPool2d(*pool))
    if global_pool:
        layers.append(GlobalAvgPool())
    layers.append(Dropout(p_drop, drop_rng))
    return layers


def _spawn_rngs(seed, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


class Sequential:
    """Conv blocks over (B, 64, W) patches, a head that returns logits, and
    one trailing softmax.

    A subclass sets ``name``, ``patch_width``, ``blocks`` (lists of
    layers), ``head`` (the layers after the blocks, in forward order; each
    is also a model attribute, where per-layer instrumentation finds it)
    and ``_trace``. Layer order fixes the order of ``params()``, which the
    optimizer state follows.
    """

    def _layers(self):
        for block in self.blocks:
            yield from block
        yield from self.head

    def shape_trace(self):
        """Per-block output shapes, then the head's, then the class count."""
        return self._trace

    def forward(self, x, train=False):
        if x.ndim == 3:
            x = x[:, :, :, None]  # (B, freq, time) -> channels-last
        if x.shape[1] != 64 or x.shape[2] != self.patch_width:
            raise ShapeError(
                f"{self.name}: expected (B,64,{self.patch_width}) patches, got {x.shape}"
            )
        for layer in self._layers():
            x = layer.forward(x, train)
        return softmax(x)

    def backward(self, dlogits):
        d = dlogits
        for layer in reversed(list(self._layers())):
            d = layer.backward(d)
        return d[:, :, :, 0]

    def params(self):
        return [p for layer in self._layers() for p in layer.params()]

    def get_buffers(self):
        out = {}
        for layer in self._layers():
            if isinstance(layer, BatchNorm2d):
                out.update(layer.get_buffers())
        return out

    def set_buffers(self, entries):
        for layer in self._layers():
            if isinstance(layer, BatchNorm2d):
                layer.set_buffers(entries)


class CNNMoE(Sequential):
    """Six 3x3 conv blocks + global average pooling + mixture of experts."""

    name = "cnn_moe"

    # (out_ch, pool, global_pool)
    _SCHEDULE = (
        (64, (2, 2), False),
        (128, (2, 2), False),
        (256, None, False),
        (256, (2, 2), False),
        (512, None, False),
        (512, None, True),
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
        if len(dropout_rates) != 6:
            raise ParameterError("CNN-MoE takes six dropout rates")
        init_rng, drop_rng = _spawn_rngs(seed, 2)
        self.n_classes = n_classes
        self.patch_width = patch_width
        self.blocks = []
        in_ch = 1
        for i, ((out_ch, pool, gp), p) in enumerate(zip(self._SCHEDULE, dropout_rates), start=1):
            self.blocks.append(
                _conv_block(in_ch, out_ch, (3, 3), pool, p, init_rng, drop_rng,
                            f"block{i}", dtype, global_pool=gp)
            )
            in_ch = out_ch
        self.moe = MoELayer(512, n_classes, n_experts, init_rng, dtype=dtype)
        self.head = (self.moe,)
        self._trace = self._compute_trace(patch_width)
        if patch_width == 128:
            expected = CNN_MOE_TRACE_128 + ((n_classes,),)
            if self._trace != expected:
                raise ShapeError(f"CNN-MoE trace {self._trace} != table schedule {expected}")

    def _compute_trace(self, width):
        h, w = 64, width
        trace = []
        for i, (out_ch, pool, global_pool) in enumerate(self._SCHEDULE, start=1):
            if pool is not None:
                if h % pool[0] or w % pool[1]:
                    raise ShapeError(f"block{i}: {h}x{w} not divisible by pool {pool}")
                h, w = h // pool[0], w // pool[1]
            trace.append((512,) if global_pool else (h, w, out_ch))
        trace.append((self.n_classes,))
        return tuple(trace)


class CRNN(Sequential):
    """Frequency-collapsing conv front, bi-GRU, per-frame feature averaging,
    three dense layers."""

    name = "crnn"

    _SCHEDULE = ((64, (2, 1)), (128, (2, 1)), (256, (4, 1)), (512, (4, 1)))

    def __init__(
        self,
        n_classes,
        patch_width=128,
        gru_hidden=512,
        dropout_rates=(0.10, 0.15, 0.20, 0.25, 0.30, 0.30),
        seed=0,
        dtype=np.float32,
    ):
        if len(dropout_rates) != 6:
            raise ParameterError("C-RNN takes six dropout rates")
        init_rng, drop_rng = _spawn_rngs(seed, 2)
        self.n_classes = n_classes
        self.patch_width = patch_width
        self.gru_hidden = gru_hidden
        self.blocks = []
        in_ch = 1
        for i, ((out_ch, pool), p) in enumerate(zip(self._SCHEDULE, dropout_rates[:4]), start=1):
            self.blocks.append(
                _conv_block(in_ch, out_ch, (4, 1), pool, p, init_rng, drop_rng,
                            f"block{i}", dtype)
            )
            in_ch = out_ch
        self.drop_freq = _DropFreq()
        self.gru = BiGRU(512, gru_hidden, init_rng, dtype=dtype)
        self.feat_pool = FeatureAveragePool()
        self.fc1 = Dense(2 * patch_width, 1024, init_rng, name="fc1", dtype=dtype)
        self.relu1 = ReLU()
        self.drop1 = Dropout(dropout_rates[4], drop_rng)
        self.fc2 = Dense(1024, 1024, init_rng, name="fc2", dtype=dtype)
        self.relu2 = ReLU()
        self.drop2 = Dropout(dropout_rates[5], drop_rng)
        self.fc3 = Dense(1024, n_classes, init_rng, name="fc3", dtype=dtype)
        self.head = (self.drop_freq, self.gru, self.feat_pool, self.fc1, self.relu1,
                     self.drop1, self.fc2, self.relu2, self.drop2, self.fc3)
        self._trace = self._compute_trace(patch_width)
        if patch_width == 128 and gru_hidden == 512:
            expected = CRNN_TRACE_128 + ((n_classes,),)
            if self._trace != expected:
                raise ShapeError(f"C-RNN trace {self._trace} != table schedule {expected}")

    def _compute_trace(self, width):
        h = 64
        trace = []
        for i, (out_ch, pool) in enumerate(self._SCHEDULE, start=1):
            if h % pool[0]:
                raise ShapeError(f"block{i}: freq {h} not divisible by pool {pool}")
            h //= pool[0]
            trace.append((width, out_ch) if h == 1 else (h, width, out_ch))
        trace.append((2 * width, self.gru_hidden))
        trace.append((2 * width,))
        trace.append((1024,))
        trace.append((1024,))
        trace.append((self.n_classes,))
        return tuple(trace)


def build_model(name, n_classes, patch_width=128, seed=0, gru_hidden=512,
                n_experts=10, dtype=np.float32):
    if name == "cnn_moe":
        return CNNMoE(n_classes, patch_width=patch_width, n_experts=n_experts,
                      seed=seed, dtype=dtype)
    if name == "crnn":
        return CRNN(n_classes, patch_width=patch_width, gru_hidden=gru_hidden,
                    seed=seed, dtype=dtype)
    raise ParameterError(f"unknown model {name!r}")


def aggregate_patches(patch_probs) -> np.ndarray:
    """Entity-level probabilities: arithmetic mean of patch probability rows."""
    rows = [np.asarray(p, dtype=np.float64) for p in patch_probs]
    if not rows:
        raise ParameterError("aggregate_patches needs at least one patch")
    return np.mean(rows, axis=0)


def ensemble_fuse(p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """Average the two models' probabilities element-wise."""
    p_a = np.asarray(p_a, dtype=np.float64)
    p_b = np.asarray(p_b, dtype=np.float64)
    if p_a.shape != p_b.shape:
        raise ParameterError(f"ensemble shapes differ: {p_a.shape} vs {p_b.shape}")
    return (p_a + p_b) / 2.0
