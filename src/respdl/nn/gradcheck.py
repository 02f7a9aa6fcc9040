"""Finite-difference verification of analytic gradients.

Layers are checked against central differences (default step 1e-5) at
float64 precision through a fixed random projection of their output, so a
single scalar exercises every output path. Entries whose analytic/numeric
difference is below 1e-8 count as exact; everything else is scored by
relative error |a - n| / max(|a|, |n|).
"""

from __future__ import annotations

import numpy as np

from .loss import cross_entropy


def rel_error(analytic: float, numeric: float) -> float:
    diff = abs(analytic - numeric)
    if diff <= 1e-8:
        return 0.0
    return diff / max(abs(analytic), abs(numeric))


def _fd_compare(scalar_fn, array, analytic, step, sample, rng):
    """Worst relative error between ``analytic`` and central differences of
    ``scalar_fn`` over entries of ``array`` (all, or ``sample`` random)."""
    size = array.size
    if sample is None or size <= sample:
        flat_indices = range(size)
    else:
        flat_indices = sorted(rng.choice(size, size=sample, replace=False))
    worst = 0.0
    for flat in flat_indices:
        idx = np.unravel_index(flat, array.shape)
        old = array[idx]
        array[idx] = old + step
        lp = scalar_fn()
        array[idx] = old - step
        lm = scalar_fn()
        array[idx] = old
        numeric = (lp - lm) / (2.0 * step)
        worst = max(worst, rel_error(float(analytic[idx]), numeric))
    return worst


def grad_check(layer, x, train=True, step=1e-5, sample=None, seed=0):
    """Check one layer's input and parameter gradients.

    The layer must be deterministic in the chosen mode (dropout disabled,
    batch-norm mode fixed) and built at float64. Returns a report dict with
    the worst relative error per tensor plus the overall maximum.
    """
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=np.float64)
    out = layer.forward(x, train=train)
    proj = rng.standard_normal(out.shape)

    for p in layer.params():
        p.zero_grad()
    dx = layer.backward(proj)

    def scalar():
        return float((layer.forward(x, train=train) * proj).sum())

    per_tensor = {"input": _fd_compare(scalar, x, dx, step, sample, rng)}
    for p in layer.params():
        per_tensor[p.name] = _fd_compare(scalar, p.data, p.grad, step, sample, rng)
    return {"max_rel_err": max(per_tensor.values()), "per_tensor": per_tensor}


def grad_check_model(model, x, targets, step=1e-5, sample=8, seed=0):
    """Check a full model's training gradient against finite differences.

    Uses the real cross-entropy objective through the fused softmax
    backward; parameter entries are sampled (exhaustive differencing over
    millions of weights is not practical). Build the model at float64 with
    dropout rates zeroed.
    """
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=np.float64)

    probs = model.forward(x, train=True)
    for p in model.params():
        p.zero_grad()
    dlogits = (probs - targets) / probs.shape[0]
    dx = model.backward(dlogits)

    def scalar():
        return cross_entropy(model.forward(x, train=True), targets)

    per_tensor = {"input": _fd_compare(scalar, x, dx, step, sample, rng)}
    for p in model.params():
        per_tensor[p.name] = _fd_compare(scalar, p.data, p.grad, step, sample, rng)
    return {"max_rel_err": max(per_tensor.values()), "per_tensor": per_tensor}


def standard_suite(step=1e-5, seed=0):
    """Gradient checks for every layer kind used by the two architectures,
    plus the composed CNN-MoE and C-RNN on reduced-width inputs.

    Returns rows of (name, max_rel_err, tolerance). Linear layers are held
    to 1e-8, nonlinear layers to 1e-4, the full compositions to 1e-3.
    """
    from .. import models
    from . import layers as ly
    from .rnn import BiGRU

    f64 = np.float64
    rng = np.random.default_rng(seed)
    rows = []

    def run(name, layer, x, tol, train=True, sample=None):
        report = grad_check(layer, x, train=train, step=step, sample=sample, seed=seed)
        rows.append((name, report["max_rel_err"], tol))

    x4 = rng.standard_normal((2, 8, 8, 3))  # channels-last
    run("dense", ly.Dense(6, 5, rng, dtype=f64), rng.standard_normal((4, 6)), 1e-8)
    run("conv2d_3x3", ly.Conv2d(3, 4, 3, 3, rng, dtype=f64), x4, 1e-8)
    run("conv2d_4x1", ly.Conv2d(3, 4, 4, 1, rng, dtype=f64), x4, 1e-8)
    run("batchnorm_train", ly.BatchNorm2d(3, dtype=f64), x4, 1e-4)
    run("relu", ly.ReLU(), rng.standard_normal((4, 6)) + np.sign(rng.standard_normal((4, 6))) * 0.2, 1e-4)
    run("avgpool_2x2", ly.AvgPool2d(2, 2), x4, 1e-8)
    run("avgpool_4x1", ly.AvgPool2d(4, 1), x4, 1e-8)
    run("global_avgpool", ly.GlobalAvgPool(), x4, 1e-8)
    run("feature_avgpool", ly.FeatureAveragePool(), rng.standard_normal((2, 5, 7)), 1e-8)
    run("dropout_off", ly.Dropout(0.0, rng), rng.standard_normal((4, 6)), 1e-8)
    run("bigru", BiGRU(4, 3, rng, dtype=f64), rng.standard_normal((2, 5, 4)), 1e-4)

    # softmax + CE through the fused backward, via a single dense layer
    head = ly.Dense(6, 4, rng, dtype=f64)
    xs = rng.standard_normal((5, 6))
    ts = np.eye(4)[rng.integers(0, 4, size=5)]
    probs = ly.softmax(head.forward(xs, train=True))
    head.w.zero_grad()
    head.b.zero_grad()
    head.backward((probs - ts) / 5.0)

    def ce_scalar():
        return cross_entropy(ly.softmax(head.forward(xs)), ts)

    worst = max(
        _fd_compare(ce_scalar, head.w.data, head.w.grad, step, None, rng),
        _fd_compare(ce_scalar, head.b.data, head.b.grad, step, None, rng),
    )
    rows.append(("softmax_ce", worst, 1e-4))

    # two-layer composition: conv -> relu through one projection
    class _Stack:  # channels-last (B, H, W, C) input
        def __init__(self):
            self.conv = ly.Conv2d(2, 3, 3, 3, rng, dtype=f64)
            self.relu = ly.ReLU()

        def forward(self, x, train=False):
            return self.relu.forward(self.conv.forward(x, train), train)

        def backward(self, dout):
            return self.conv.backward(self.relu.backward(dout))

        def params(self):
            return self.conv.params()

    run("conv_relu_stack", _Stack(), rng.standard_normal((2, 6, 6, 2)) + 0.1, 1e-4)

    # both full models, reduced width (and GRU size), pooling schedule
    # intact, dropout zeroed
    no_dropout = (0,) * 6
    full_models = (
        ("cnn_moe_full", models.CNNMoE(
            n_classes=3, patch_width=16, dropout_rates=no_dropout, seed=seed, dtype=f64)),
        ("crnn_full", models.CRNN(
            n_classes=3, patch_width=16, gru_hidden=4, dropout_rates=no_dropout, seed=seed,
            dtype=f64)),
    )
    for name, model in full_models:
        xm = rng.standard_normal((2, 64, 16))
        tm = np.eye(3)[rng.integers(0, 3, size=2)]
        report = grad_check_model(model, xm, tm, step=step, sample=6, seed=seed)
        rows.append((name, report["max_rel_err"], 1e-3))
    return rows
