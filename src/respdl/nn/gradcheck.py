"""Finite-difference verification of analytic gradients.

``grad_check`` is the one checker: a layer, a chain of layers or a whole
model is checked against central differences (default step 1e-5) at
float64 precision. Its objective is a fixed random projection of the
output, so a single scalar exercises every output path; given class
targets, it is the training loss instead, ``loss_ce_l2`` with L2 off,
entered through the fused softmax backward. Entries whose analytic/numeric
difference is below 1e-8 count as exact; everything else is scored by
relative error |a - n| / max(|a|, |n|).
"""

from __future__ import annotations

import numpy as np

from . import layers as ly
from .loss import loss_ce_l2
from .rnn import BiGRU


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


def grad_check(layer, x, train=True, step=1e-5, sample=None, seed=0, targets=None):
    """Check the input and parameter gradients of ``layer``: anything with
    ``forward``, ``backward`` and ``params``, a model included.

    Without ``targets`` the objective is a random projection of the output,
    drawn from ``seed``. With one-hot ``targets`` the output must be softmax
    probabilities and the objective is the training loss, ``loss_ce_l2``
    with L2 off, whose logit gradient enters ``backward``. ``sample`` limits
    each tensor to that many random entries (exhaustive differencing over
    millions of weights is not practical). The layer must be deterministic
    in the chosen mode (dropout disabled, batch-norm mode fixed) and built at
    float64. Returns a report dict with the worst relative error per tensor
    plus the overall maximum.
    """
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=np.float64)
    out = layer.forward(x, train=train)
    if targets is None:
        proj = rng.standard_normal(out.shape)

    def objective(out):
        """The scalar checked, and its gradient with respect to ``out``."""
        if targets is None:
            return float((out * proj).sum()), proj
        return loss_ce_l2(out, targets)

    for p in layer.params():
        p.zero_grad()
    dx = layer.backward(objective(out)[1])

    def scalar():
        return objective(layer.forward(x, train=train))[0]

    per_tensor = {"input": _fd_compare(scalar, x, dx, step, sample, rng)}
    for p in layer.params():
        per_tensor[p.name] = _fd_compare(scalar, p.data, p.grad, step, sample, rng)
    return {"max_rel_err": max(per_tensor.values()), "per_tensor": per_tensor}


def standard_suite(step=1e-5, seed=0):
    """``grad_check`` over every layer kind used by the two architectures,
    softmax + cross-entropy through the fused backward, a conv -> relu
    chain, a fused conv block with each kind of pooling the models use,
    and the composed CNN-MoE and C-RNN on reduced-width inputs.

    Returns rows of (name, max_rel_err, tolerance). Linear layers are held
    to 1e-8, nonlinear layers to 1e-4, the full models to 1e-3. One
    generator draws every input and layer in row order; the rows after the
    full models, the mixture of experts and the blocks, change no earlier
    row's draws.
    """
    from .. import models

    f64 = np.float64
    rng = np.random.default_rng(seed)
    rows = []

    def run(name, layer, x, tol, sample=None, targets=None):
        report = grad_check(layer, x, step=step, sample=sample, seed=seed, targets=targets)
        rows.append((name, report["max_rel_err"], tol))

    x4 = rng.standard_normal((2, 8, 8, 3))  # channels-last
    run("dense", ly.Dense(6, 5, rng, dtype=f64), rng.standard_normal((4, 6)), 1e-8)
    run("conv2d_3x3", ly.Conv2d(3, 4, 3, 3, rng, dtype=f64), x4, 1e-8)
    run("conv2d_4x1", ly.Conv2d(3, 4, 4, 1, rng, dtype=f64), x4, 1e-8)
    run("batchnorm_train", ly.BatchNorm2d(3, dtype=f64), x4, 1e-4)
    run("relu", ly.ReLU(), rng.standard_normal((4, 6)) + np.sign(rng.standard_normal((4, 6))) * 0.2, 1e-4)
    run("avgpool_2x2", ly.AvgPool2d(2, 2), x4, 1e-8)
    run("avgpool_4x1", ly.AvgPool2d(4, 1), x4, 1e-8)
    run("global_avgpool", ly.Mean((1, 2)), x4, 1e-8)
    run("feature_avgpool", ly.Mean(2), rng.standard_normal((2, 5, 7)), 1e-8)
    run("dropout_off", ly.Dropout(0.0, rng), rng.standard_normal((4, 6)), 1e-8)
    run("bigru", BiGRU(4, 3, rng, dtype=f64), rng.standard_normal((2, 5, 4)), 1e-4)
    run("softmax_ce", ly.Classifier(ly.Dense(6, 4, rng, dtype=f64)),
        rng.standard_normal((5, 6)), 1e-4, targets=np.eye(4)[rng.integers(0, 4, size=5)])
    run("conv_relu_stack", ly.Chain(ly.Conv2d(2, 3, 3, 3, rng, dtype=f64), ly.ReLU()),
        rng.standard_normal((2, 6, 6, 2)) + 0.1, 1e-4)

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
        run(name, model, rng.standard_normal((2, 64, 16)), 1e-3, sample=6,
            targets=np.eye(3)[rng.integers(0, 3, size=2)])
    run("moe", models.MoELayer(6, 4, 3, rng, dtype=f64), rng.standard_normal((5, 6)), 1e-4)
    for name, kernel, pool in (("block_3x3_pool2x2", (3, 3), ly.AvgPool2d(2, 2)),
                               ("block_3x3", (3, 3), None),
                               ("block_3x3_mean", (3, 3), ly.Mean((1, 2))),
                               ("block_4x1_pool4x1", (4, 1), ly.AvgPool2d(4, 1))):
        block = ly.ConvBlock(2, 3, kernel, pool, 0.0, rng, rng, name, dtype=f64)
        run(name, block, rng.standard_normal((2, 8, 4, 2)), 1e-4)
    return rows
