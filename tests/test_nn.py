"""Layer gradients, loss semantics, Adam, GRU behavior, checkpoints."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from respdl import harness, models
from respdl.augment import MixupConfig
from respdl.errors import FormatError, NumericalError, ParameterError, ShapeError
from respdl.nn import (
    Adam,
    AvgPool2d,
    BatchNorm2d,
    BiGRU,
    Chain,
    Conv2d,
    ConvBlock,
    Dense,
    Dropout,
    Mean,
    Param,
    ReLU,
    TrainConfig,
    add_l2_grads,
    grad_check,
    l2_penalty,
    load_checkpoint,
    loss_ce_l2,
    save_checkpoint,
    softmax,
)
from respdl.nn import gradcheck, layers
from respdl.nn.layers import _COLUMN_BLOCK_BYTES

F64 = np.float64


class TestLayerGradients:
    def test_dense_linear_exact(self, rng):
        layer = Dense(6, 5, rng, dtype=F64)
        report = grad_check(layer, rng.standard_normal((4, 6)))
        assert report["max_rel_err"] < 1e-8

    def test_conv3x3(self, rng):
        layer = Conv2d(3, 4, 3, 3, rng, dtype=F64)
        report = grad_check(layer, rng.standard_normal((2, 8, 8, 3)))
        assert report["max_rel_err"] < 1e-8

    def test_conv4x1_asymmetric_padding(self, rng):
        layer = Conv2d(2, 3, 4, 1, rng, dtype=F64)
        assert layer.pad_h == (1, 2)  # extra padding on the trailing side
        report = grad_check(layer, rng.standard_normal((2, 8, 5, 2)))
        assert report["max_rel_err"] < 1e-8

    def test_batchnorm_train_mode(self, rng):
        layer = BatchNorm2d(3, dtype=F64)
        report = grad_check(layer, rng.standard_normal((4, 5, 6, 3)), train=True)
        assert report["max_rel_err"] < 1e-5

    def test_bigru_bptt(self, rng):
        layer = BiGRU(4, 3, rng, dtype=F64)
        report = grad_check(layer, rng.standard_normal((2, 5, 4)))
        assert report["max_rel_err"] < 1e-4

    def test_conv_identity_impulse_kernel(self, rng):
        layer = Conv2d(1, 1, 3, 3, rng, dtype=F64)
        layer.w.data[:] = 0.0
        layer.w.data[0, 0, 1, 1] = 1.0  # centered impulse
        layer.b.data[:] = 0.0
        x = rng.standard_normal((1, 4, 4, 1))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-12)

    def test_conv_zero_weights_constant_bias(self, rng):
        layer = Conv2d(2, 3, 3, 3, rng, dtype=F64)
        layer.w.data[:] = 0.0
        layer.b.data[:] = np.array([1.5, -2.0, 0.25])
        out = layer.forward(rng.standard_normal((2, 5, 5, 2)))
        np.testing.assert_allclose(out, np.broadcast_to(layer.b.data, out.shape))

    @pytest.mark.parametrize("make, shape", [
        (lambda rng: Dense(6, 5, rng, name="fc"), (4, 6)),
        (lambda rng: Conv2d(2, 3, 3, 3, rng, name="cv"), (2, 5, 5, 2)),
        (lambda rng: BatchNorm2d(2, name="bn"), (2, 5, 5, 2)),
        (lambda rng: ReLU(name="act"), (4, 6)),
        (lambda rng: BiGRU(4, 3, rng, name="gru"), (2, 5, 4)),
        (lambda rng: models.MoELayer(6, 3, 2, rng, name="moe"), (4, 6)),
        (lambda rng: Mean((1, 2)), (2, 5, 5, 2)),
    ], ids=["dense", "conv", "bn", "relu", "bigru", "moe", "mean"])
    def test_backward_needs_its_own_training_forward(self, rng, make, shape):
        layer = make(rng)
        x = rng.standard_normal(shape).astype(np.float32)
        dout = np.ones_like(layer.forward(x, train=True))
        layer.backward(dout)
        for before_backward in (
            lambda: layer.forward(x, train=False),  # inference only
            lambda: (layer.forward(x, train=True), layer.forward(x, train=False)),
            lambda: (layer.forward(x, train=True), layer.backward(dout)),  # used up
        ):
            before_backward()
            with pytest.raises(ParameterError,
                               match=r"^(fc|cv|bn|act|gru\.fwd|moe|Mean): backward"):
                layer.backward(dout)

    def test_conv_inference_keeps_no_im2col(self, rng):
        layer = Conv2d(2, 3, 3, 3, rng)
        x = rng.standard_normal((2, 5, 5, 2)).astype(np.float32)
        layer.forward(x, train=True)
        layer.forward(x, train=False)
        assert layer._cache is None  # the training pass's padded input is dropped too

    @pytest.mark.parametrize("kh, kw", [(2, 2), (2, 1), (4, 1)])
    def test_avgpool_is_the_window_mean_and_its_repeat_bit_for_bit(self, rng, kh, kw):
        x = rng.standard_normal((3, 8, 6, 5), dtype=np.float32) * 7
        layer = AvgPool2d(kh, kw)
        out = layer.forward(x, train=True)
        np.testing.assert_array_equal(out, x.reshape(3, 8 // kh, kh, 6 // kw, kw, 5).mean(axis=(2, 4)))
        dout = rng.standard_normal(out.shape, dtype=np.float32)
        up = np.repeat(np.repeat(dout, kh, axis=1), kw, axis=2)
        np.testing.assert_array_equal(layer.backward(dout), up * (1.0 / (kh * kw)))

    def test_avgpool_constant_preserved(self):
        from respdl.nn import AvgPool2d

        x = np.full((2, 4, 6, 3), 2.75)
        out = AvgPool2d(2, 2).forward(x)
        np.testing.assert_array_equal(out, np.full((2, 2, 3, 3), 2.75))

    def test_gradcheck_detects_broken_backward(self, rng):
        class Broken(Dense):
            def backward(self, dout):
                self.w.grad += 0.5 * (self._cache.T @ dout)
                self.b.grad += dout.sum(axis=0)
                return dout @ self.w.data.T

        report = grad_check(Broken(5, 4, rng, dtype=F64), rng.standard_normal((3, 5)))
        assert report["max_rel_err"] > 0.2

    def test_standard_suite_checks_every_layer_class_of_both_models(self, monkeypatch):
        """Every layer class a built model reaches, its conv block included,
        is checked by a row of its own or inside a smaller composite, not
        only through the whole-model rows."""
        checked = []
        monkeypatch.setattr(gradcheck, "grad_check", lambda layer, x, **kwargs: (
            checked.append(layer) or {"max_rel_err": 0.0, "per_tensor": {}}))
        gradcheck.standard_suite()

        def classes(layer):
            yield type(layer)
            for member in layer.layers:
                yield from classes(member)

        rows = {cls for layer in checked if not isinstance(layer, models.Sequential)
                for cls in classes(layer)}
        reached = {cls for name in ("cnn_moe", "crnn")
                   for cls in classes(models.build_model(name, 4, patch_width=32, gru_hidden=8))
                   if not issubclass(cls, models.Sequential)}
        assert ConvBlock in reached
        assert reached <= rows, f"no standard_suite row checks {reached - rows}"


def _one_shot_columns(layer, x):
    """The whole im2col matrix of ``layer`` at ``x`` in one copy: a row per
    output position, its (kh, kw, channel) window flattened."""
    b, h, w, _ = x.shape
    xp = np.pad(x, ((0, 0), layer.pad_h, layer.pad_w, (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (layer.kh, layer.kw), axis=(1, 2))
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(b * h * w, -1)


def _weight_matrix(layer):
    """The kernel as (out_ch, kh * kw * in_ch), in the columns' order."""
    return np.ascontiguousarray(layer.w.data.transpose(0, 2, 3, 1).reshape(layer.out_ch, -1))


def _column_caching_conv_grads(layer, x, dout):
    """(dW, db, dx) of ``layer`` at ``x`` and output gradient ``dout``, as a
    convolution that keeps its forward's im2col columns gets them: the same
    two GEMMs, then each kernel tap's share added back through a padded
    gradient."""
    b, h, w, _ = x.shape
    kh, kw = layer.kh, layer.kw
    cols = _one_shot_columns(layer, x)
    dmat = dout.reshape(b * h * w, layer.out_ch)
    dw = (dmat.T @ cols).reshape(layer.out_ch, kh, kw, layer.in_ch).transpose(0, 3, 1, 2)
    dcols = (dmat @ _weight_matrix(layer)).reshape(b, h, w, kh, kw, layer.in_ch)
    dx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            xp_rows, xp_cols = slice(i, i + h), slice(j, j + w)
            dxp = np.zeros((b, h + kh - 1, w + kw - 1, layer.in_ch), dtype=x.dtype)
            dxp[:, xp_rows, xp_cols] = dcols[:, :, :, i, j]
            dx += dxp[:, layer.pad_h[0]:layer.pad_h[0] + h, layer.pad_w[0]:layer.pad_w[0] + w]
    return dw, dmat.sum(axis=0), dx


CONV_KERNELS = pytest.mark.parametrize("kh, kw", [(3, 3), (4, 1)], ids=["3x3", "4x1"])


class TestChain:
    @staticmethod
    def _block_layers(seed):
        """The layers of one conv block at float64, initialized and
        dropping from one generator seeded with ``seed``."""
        rng = np.random.default_rng(seed)
        return [BatchNorm2d(2, name="bn_in", dtype=F64), Conv2d(2, 3, 3, 3, rng, dtype=F64),
                ReLU(), BatchNorm2d(3, name="bn_out", dtype=F64), AvgPool2d(2, 2),
                Dropout(0.3, rng)]

    def test_passes_are_its_members_one_by_one_bit_for_bit(self, rng):
        x = rng.standard_normal((2, 4, 6, 2))
        dout = rng.standard_normal((2, 2, 3, 3))
        chain, layers = Chain(*self._block_layers(5)), self._block_layers(5)
        out, dx = chain.forward(x, train=True), chain.backward(dout)
        ref = x
        for layer in layers:
            ref = layer.forward(ref, train=True)
        dref = dout
        for layer in reversed(layers):
            dref = layer.backward(dref)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(dx, dref)
        member_params = [p for layer in layers for p in layer.params()]
        for p, q in zip(chain.params(), member_params, strict=True):
            assert p.name == q.name
            np.testing.assert_array_equal(p.grad, q.grad)
        ref_buffers = {k: v for layer in layers for k, v in layer.buffers().items()}
        assert list(chain.buffers()) == list(ref_buffers)
        for name, data in chain.buffers().items():
            np.testing.assert_array_equal(data, ref_buffers[name])

        ref = x
        for layer in layers:
            ref = layer.forward(ref)
        np.testing.assert_array_equal(chain.forward(x), ref)


class TestConvCache:
    @CONV_KERNELS
    def test_training_forward_keeps_the_padded_input(self, rng, kh, kw):
        layer = Conv2d(3, 5, kh, kw, rng)
        x = rng.standard_normal((2, 8, 6, 3)).astype(np.float32)
        layer.forward(x, train=True)
        xp, shape = layer._cache
        assert xp.shape == (2, 8 + kh - 1, 6 + kw - 1, 3) and shape == (2, 8, 6)
        np.testing.assert_array_equal(
            xp[:, layer.pad_h[0]:layer.pad_h[0] + 8, layer.pad_w[0]:layer.pad_w[0] + 6], x)

    @CONV_KERNELS
    def test_backward_matches_a_column_caching_backward(self, rng, kh, kw):
        layer = Conv2d(3, 5, kh, kw, rng)
        layer.b.data[:] = rng.standard_normal(5)
        x = rng.standard_normal((2, 8, 6, 3)).astype(np.float32)
        dout = rng.standard_normal((2, 8, 6, 5)).astype(np.float32)
        layer.forward(x, train=True)
        col_bytes = 2 * 8 * 6 * kh * kw * 3 * 4
        held = [v for v in (*vars(layer).values(), *layer._cache) if isinstance(v, np.ndarray)]
        assert all(v.nbytes < col_bytes for v in held)  # no im2col matrix is kept
        dx = layer.backward(dout)
        dw, db, want_dx = _column_caching_conv_grads(layer, x, dout)
        np.testing.assert_array_equal(layer.w.grad, dw)
        np.testing.assert_array_equal(layer.b.grad, db)
        np.testing.assert_array_equal(dx, want_dx)

    @CONV_KERNELS
    def test_one_sample_of_one_channel(self, rng, kh, kw):
        # the shape at which an im2col matrix could be a view of the padded input
        layer = Conv2d(1, 4, kh, kw, rng)
        x = rng.standard_normal((1, 8, 6, 1)).astype(np.float32)
        dout = rng.standard_normal((1, 8, 6, 4)).astype(np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(dout)
        dw, db, want_dx = _column_caching_conv_grads(layer, x, dout)
        np.testing.assert_array_equal(layer.w.grad, dw)
        np.testing.assert_array_equal(dx, want_dx)


class TestConvSampleBlocks:
    # (kernel, in_ch, h, w): about 1.5 MB of columns per sample, so two
    # samples to a block, and seven samples make four blocks, the last of one
    @pytest.mark.parametrize("kh, kw, in_ch, h, w", [(3, 3, 40, 32, 32), (4, 1, 48, 64, 32)],
                             ids=["3x3", "4x1"])
    def test_blocked_passes_equal_one_shot_gemms_bit_for_bit(self, rng, kh, kw, in_ch, h, w):
        b, out_ch = 7, 16
        step = _COLUMN_BLOCK_BYTES // (h * w * kh * kw * in_ch * 4)
        assert b > 2 * step and b % step  # at least three blocks, the last one ragged
        layer = Conv2d(in_ch, out_ch, kh, kw, rng)
        layer.b.data[:] = rng.standard_normal(out_ch)
        x = rng.standard_normal((b, h, w, in_ch)).astype(np.float32)
        dout = rng.standard_normal((b, h, w, out_ch)).astype(np.float32)
        want = _one_shot_columns(layer, x) @ _weight_matrix(layer).T + layer.b.data

        out = layer.forward(x, train=True)
        dx = layer.backward(dout)
        np.testing.assert_array_equal(out.reshape(-1, out_ch), want)
        dw, db, want_dx = _column_caching_conv_grads(layer, x, dout)
        np.testing.assert_array_equal(layer.w.grad, dw)
        np.testing.assert_array_equal(layer.b.grad, db)
        np.testing.assert_array_equal(dx, want_dx)
        np.testing.assert_array_equal(layer.forward(x).reshape(-1, out_ch), want)

    # (kernel, in_ch, taps per group): 3x3 in runs of one kernel row's taps
    # and in whole kernel rows, 4x1 with a ragged last group, and one input
    # channel, where a one-column run joins the one before it
    @pytest.mark.parametrize("kh, kw, in_ch, taps", [
        (3, 3, 4, 2), (3, 3, 4, 6), (4, 1, 4, 3), (3, 3, 1, 2), (4, 1, 1, 2),
    ], ids=["3x3-runs", "3x3-rows", "4x1", "3x3-one-channel", "4x1-one-channel"])
    def test_backward_groups_and_blocks_equal_one_shot_gemms_bit_for_bit(
            self, rng, monkeypatch, kh, kw, in_ch, taps):
        b, h, w, out_ch = 7, 8, 6, 5
        tap_bytes = b * h * w * in_ch * 4
        monkeypatch.setattr(layers, "_TAP_GROUP_BYTES", taps * tap_bytes)
        monkeypatch.setattr(layers, "_DX_BLOCK_BYTES", 2 * h * w * kh * kw * in_ch * 4)
        layer = Conv2d(in_ch, out_ch, kh, kw, rng)
        groups = layer._tap_groups(tap_bytes)
        widths = [len(range(kh)[rows]) * len(range(kw)[cols]) * in_ch for rows, cols in groups]
        assert len(groups) >= 2 and min(widths) >= 2 and sum(widths) == kh * kw * in_ch
        # input-gradient blocks of two samples: [0, 2), [2, 4), [4, 6), [6, 7)
        layer.b.data[:] = rng.standard_normal(out_ch)
        x = rng.standard_normal((b, h, w, in_ch)).astype(np.float32)
        dout = rng.standard_normal((b, h, w, out_ch)).astype(np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(dout)
        dw, db, want_dx = _column_caching_conv_grads(layer, x, dout)
        np.testing.assert_array_equal(layer.w.grad, dw)
        np.testing.assert_array_equal(layer.b.grad, db)
        np.testing.assert_array_equal(dx, want_dx)

    def test_backward_never_holds_the_whole_column_matrix(self, rng, monkeypatch):
        # 32 taps of 64 KB: a 2 MB column matrix, 8x one 256 KB tap group
        b, h, w, in_ch, out_ch = 4, 16, 16, 16, 8
        tap_bytes = b * h * w * in_ch * 4
        monkeypatch.setattr(layers, "_TAP_GROUP_BYTES", 4 * tap_bytes)
        monkeypatch.setattr(layers, "_DX_BLOCK_BYTES", tap_bytes)
        layer = Conv2d(in_ch, out_ch, 4, 8, rng)
        col_bytes = 32 * tap_bytes
        x = rng.standard_normal((b, h, w, in_ch)).astype(np.float32)
        dout = rng.standard_normal((b, h, w, out_ch)).astype(np.float32)
        layer.forward(x, train=True)
        tracemalloc.start()  # counts only what backward allocates, not its inputs
        try:
            dx = layer.backward(dout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dx.shape == x.shape
        assert peak < col_bytes


class TestMean:
    """``Mean`` against the formulas of the three averaging layers it
    replaced: global pooling, per-frame feature pooling and the drop of the
    one frequency band the C-RNN front leaves."""

    @pytest.mark.parametrize("axes, shape, forward, backward", [
        ((1, 2), (2, 3, 5, 4), lambda x: x.mean(axis=(1, 2)),
         lambda d, s: np.broadcast_to(d[:, None, None, :], s) / (s[1] * s[2])),
        (2, (2, 6, 7), lambda x: x.mean(axis=2),
         lambda d, s: np.broadcast_to(d[:, :, None], s) / s[2]),
        (1, (2, 1, 6, 4), lambda x: x[:, 0], lambda d, s: d[:, None]),
    ], ids=["global_pool", "feature_pool", "drop_band"])
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_matches_the_replaced_layers_bit_for_bit(self, rng, axes, shape, forward,
                                                     backward, dtype):
        x = rng.standard_normal(shape).astype(dtype)
        layer = Mean(axes)
        out = layer.forward(x, train=True)
        dout = rng.standard_normal(out.shape).astype(dtype)
        dx = layer.backward(dout)
        for got, want in ((out, forward(x)), (dx, backward(dout, shape))):
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = softmax(rng.standard_normal((50, 7)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p >= 0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((10, 5))
        np.testing.assert_allclose(softmax(x), softmax(x + 123.0), atol=1e-9)

    def test_large_logits_stable(self):
        p = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        np.testing.assert_allclose(p, [[0.5, 0.5, 0.0]], atol=1e-12)


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        pred = np.eye(4)
        loss, _ = loss_ce_l2(pred, pred)
        assert loss <= 1e-10

    def test_uniform_prediction_is_ln_n(self):
        n = 4
        pred = np.full((6, n), 1.0 / n)
        target = np.eye(n)[np.arange(6) % n]
        loss, _ = loss_ce_l2(pred, target)
        assert abs(loss - np.log(n)) < 1e-9

    def test_l2_term_exact(self):
        theta = Param("w", np.ones(100, dtype=F64))
        assert l2_penalty([theta], 1e-4) == 0.5 * 1e-4 * 100.0
        assert abs(l2_penalty([theta], 1e-4) - 0.005) < 1e-15

    def test_l2_skips_non_decay_params(self):
        bias = Param("b", np.ones(10), decay=False)
        assert l2_penalty([bias], 1.0) == 0.0
        bias.grad[:] = 0
        add_l2_grads([bias], 1.0)
        assert np.all(bias.grad == 0)

    def test_fused_gradient_formula(self, rng):
        probs = softmax(rng.standard_normal((5, 3)))
        targets = np.eye(3)[rng.integers(0, 3, 5)]
        _, dlogits = loss_ce_l2(probs, targets)
        np.testing.assert_allclose(dlogits, (probs - targets) / 5.0)

    def test_soft_targets_allowed(self, rng):
        probs = softmax(rng.standard_normal((4, 3)))
        targets = softmax(rng.standard_normal((4, 3)))
        loss, _ = loss_ce_l2(probs, targets)
        assert np.isfinite(loss)

    def test_nan_prediction_aborts(self):
        pred = np.array([[np.nan, 0.5]])
        with pytest.raises(NumericalError):
            loss_ce_l2(pred, np.array([[1.0, 0.0]]))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Param("w", np.ones(5))
        adam = Adam([p], lr=0.1)
        adam.step()
        np.testing.assert_array_equal(p.data, np.ones(5))

    def test_first_step_magnitude_is_lr(self):
        p = Param("w", np.zeros(4, dtype=F64))
        p.grad[:] = np.array([3.0, -2.0, 0.5, -10.0])
        adam = Adam([p], lr=1e-3)
        adam.step()
        # bias-corrected m/sqrt(v) = g/|g| on the first step
        np.testing.assert_allclose(np.abs(p.data), 1e-3, rtol=1e-6)
        np.testing.assert_array_equal(np.sign(p.data), [-1, 1, -1, 1])

    def test_quadratic_bowl_convergence(self):
        w = Param("w", np.array([1.0]))
        adam = Adam([w], lr=0.01)
        for _ in range(500):
            w.zero_grad()
            w.grad[:] = 2.0 * w.data
            adam.step()
        assert abs(w.data[0]) < 1e-2

    def test_deterministic(self):
        def run():
            p = Param("w", np.full(3, 0.7, dtype=F64))
            adam = Adam([p], lr=1e-2)
            for i in range(10):
                p.zero_grad()
                p.grad[:] = np.sin(p.data * (i + 1))
                adam.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_step_is_the_written_out_formula_bit_for_bit(self):
        rng = np.random.default_rng(0)
        shapes = [(4, 3, 3, 3), (7,), (5, 2)]
        params = [Param(f"p{i}", rng.standard_normal(s, dtype=np.float32))
                  for i, s in enumerate(shapes)]
        want = [p.data.copy() for p in params]
        m = [np.zeros_like(w) for w in want]
        v = [np.zeros_like(w) for w in want]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        adam = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 13):
            for p in params:
                p.grad[...] = rng.standard_normal(p.shape, dtype=np.float32) * 10.0 ** (t % 5 - 3)
            adam.step()
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for i, p in enumerate(params):
                m[i] *= b1
                m[i] += (1 - b1) * p.grad
                v[i] *= b2
                v[i] += (1 - b2) * p.grad**2
                want[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
            for i, p in enumerate(params):
                np.testing.assert_array_equal(p.data, want[i])
                np.testing.assert_array_equal(adam.m[i], m[i])
                np.testing.assert_array_equal(adam.v[i], v[i])

    @staticmethod
    def _stepped():
        """An Adam over a matrix and a vector, three steps in."""
        adam = Adam([Param("w", np.zeros((2, 3), dtype=F64)), Param("b", np.zeros(3, dtype=F64))],
                    lr=1e-2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            for p in adam.params:
                p.grad[:] = rng.standard_normal(p.shape)
            adam.step()
        return adam

    def test_state_roundtrip(self):
        saved = self._stepped().state()
        assert sorted(saved) == ["b.m", "b.v", "t", "w.m", "w.v"]
        fresh = Adam([Param("w", np.zeros((2, 3), dtype=F64)), Param("b", np.zeros(3, dtype=F64))])
        fresh.load_state(saved)
        assert fresh.t == 3
        for name, value in fresh.state().items():
            np.testing.assert_array_equal(value, saved[name])
        fresh.m[0] += 1.0  # the state is a copy, not the optimizer's arrays
        assert not np.array_equal(fresh.m[0], saved["w.m"])

    @pytest.mark.parametrize("name,bad", [
        ("w.m", None), ("b.v", None), ("t", None),
        ("w.m", np.zeros((3, 2))), ("b.v", np.zeros(4)), ("t", np.zeros(1)),
    ], ids=["missing-w.m", "missing-b.v", "missing-t",
            "misshaped-w.m", "misshaped-b.v", "misshaped-t"])
    def test_bad_entry_is_format_error(self, name, bad):
        entries = self._stepped().state()
        if bad is None:
            del entries[name]
        else:
            entries[name] = bad
        adam = Adam([Param("w", np.zeros((2, 3), dtype=F64)), Param("b", np.zeros(3, dtype=F64))])
        with pytest.raises(FormatError, match=re.escape(name)):
            adam.load_state(entries)
        assert adam.t == 0 and not adam.m[0].any()  # nothing was copied in


class TestDropout:
    def test_p_zero_identity_in_train(self, rng):
        layer = Dropout(0.0, rng)
        x = rng.standard_normal((5, 6))
        assert layer.forward(x, train=True) is x

    def test_infer_identity_any_p(self, rng):
        layer = Dropout(0.5, rng)
        x = rng.standard_normal((5, 6))
        assert layer.forward(x, train=False) is x
        np.testing.assert_array_equal(layer.backward(x), x)

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_rate_outside_unit_interval_is_parameter_error(self, rng, p):
        with pytest.raises(ParameterError, match="dropout rate"):
            Dropout(p, rng)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_matches_float_mask_formula_bit_for_bit(self, rng, dtype):
        p = 0.25
        x = rng.standard_normal((6, 4, 8, 3)).astype(dtype)
        x[0, 0] = 0.0
        dout = rng.standard_normal(x.shape).astype(dtype)
        layer = Dropout(p, np.random.default_rng(8))
        out = layer.forward(x, train=True)
        dx = layer.backward(dout)
        # the float32 (or float64) mask of 0 and 1/keep it replaces
        keep = 1.0 - p
        draws = np.random.default_rng(8).random(x.shape, dtype=dtype)
        mask = (draws < keep).astype(dtype)
        mask /= keep
        assert out.dtype == dx.dtype == dtype
        assert out.tobytes() == (x * mask).tobytes()
        assert dx.tobytes() == (dout * mask).tobytes()

    def test_inverted_scaling_preserves_mean(self, rng):
        layer = Dropout(0.3, rng)
        x = np.ones((400, 50), dtype=np.float32)
        out = layer.forward(x, train=True)
        assert abs(out.mean() - 1.0) < 0.02
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-5)


class TestBatchNorm:
    def test_train_moments(self, rng):
        layer = BatchNorm2d(3, dtype=F64)
        x = rng.standard_normal((8, 4, 5, 3)) * 2.5 + 7.0
        out = layer.forward(x, train=True)
        flat = out.reshape(-1, 3)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(flat.var(axis=0), 1.0, atol=1e-4)

    def test_affine_law(self, rng):
        layer = BatchNorm2d(2, dtype=F64)
        layer.gamma.data[:] = 2.0
        layer.beta.data[:] = 3.0
        x = rng.standard_normal((16, 3, 3, 2))
        out = layer.forward(x, train=True).reshape(-1, 2)
        np.testing.assert_allclose(out.mean(axis=0), 3.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), 2.0, atol=1e-3)

    def test_running_stats_update_and_infer(self, rng):
        layer = BatchNorm2d(2, dtype=F64, momentum=0.0)  # adopt batch stats fully
        x = rng.standard_normal((32, 4, 4, 2)) + 5.0
        layer.forward(x, train=True)
        out = layer.forward(x, train=False).reshape(-1, 2)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)

    def test_infer_before_train_uses_init_stats(self, rng, caplog):
        layer = BatchNorm2d(2, dtype=F64)
        x = rng.standard_normal((4, 2, 2, 2))
        with caplog.at_level("WARNING"):
            out = layer.forward(x, train=False)
        assert "before any training step" in caplog.text
        np.testing.assert_allclose(out, x / np.sqrt(1 + layer.eps), atol=1e-12)

    def test_buffers_roundtrip(self, rng):
        layer = BatchNorm2d(3, name="bn0")
        layer.forward(rng.standard_normal((4, 2, 2, 3)).astype(np.float32), train=True)
        bufs = layer.buffers()
        assert set(bufs) == {"bn0.running_mean", "bn0.running_var"}
        assert bufs["bn0.running_mean"] is layer.running_mean  # live, not copies
        fresh = BatchNorm2d(3, name="bn0")
        for name, data in fresh.buffers().items():
            data[...] = bufs[name]
        np.testing.assert_array_equal(fresh.running_mean, layer.running_mean)
        np.testing.assert_array_equal(fresh.running_var, layer.running_var)


class TestBiGRU:
    def test_output_has_2t_frames(self, rng):
        gru = BiGRU(4, 3, rng, dtype=F64)
        out = gru.forward(rng.standard_normal((2, 7, 4)))
        assert out.shape == (2, 14, 3)

    def test_t1_shared_weights_symmetric(self, rng):
        gru = BiGRU(4, 3, rng, dtype=F64)
        for src, dst in zip(gru.fwd.params(), gru.bwd.params()):
            dst.data[...] = src.data
        out = gru.forward(rng.standard_normal((3, 1, 4)))
        assert out.shape == (3, 2, 3)
        np.testing.assert_allclose(out[:, 0], out[:, 1], atol=1e-12)

    def test_zero_input_zero_biases_fixed_point(self, rng):
        gru = BiGRU(4, 3, rng, dtype=F64)
        out = gru.forward(np.zeros((2, 6, 4)))
        np.testing.assert_array_equal(out, 0.0)

    def test_inference_equals_a_training_forward_bit_for_bit(self, rng):
        gru = BiGRU(6, 5, rng)
        x = rng.standard_normal((3, 9, 6)).astype(np.float32)
        assert np.array_equal(gru.forward(x, train=False), gru.forward(x, train=True))

    def test_inference_allocates_one_steps_gates(self, rng):
        # one direction's input projection (T, B, 3H), biased in place, its
        # states and the other direction's output come to about 3.4x the
        # (B, 2T, H) output; whole-sequence gate arrays (T, B, 4H) would add
        # 2x more, a biased copy of the projection 1.5x
        gru = BiGRU(32, 32, rng)
        x = rng.standard_normal((8, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            out = gru.forward(x, train=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * out.nbytes

    def test_shape_error(self, rng):
        gru = BiGRU(4, 3, rng, dtype=F64)
        with pytest.raises(ShapeError):
            gru.forward(rng.standard_normal((2, 6, 5)))


class TestShapeErrors:
    def test_avgpool_non_divisible(self, rng):
        from respdl.nn import AvgPool2d

        with pytest.raises(ShapeError):
            AvgPool2d(2, 2).forward(rng.standard_normal((1, 5, 4, 2)))

    def test_conv_channel_mismatch(self, rng):
        layer = Conv2d(3, 4, 3, 3, rng)
        with pytest.raises(ShapeError):
            layer.forward(rng.standard_normal((1, 8, 8, 2)))


class TestCheckpoint:
    def test_roundtrip_header_and_arrays(self, tmp_path, rng):
        model = models.build_model("crnn", 4, patch_width=32, gru_hidden=8, seed=1)
        model.forward(rng.standard_normal((2, 64, 32)).astype(np.float32), train=True)
        for p in model.params():
            p.data[...] = rng.standard_normal(p.data.shape)
        state = model.state()
        header = "task=T\nmember=m\nnorm_mean=0.30000000000000004\n"
        path = tmp_path / "model.rsdl"
        save_checkpoint(path, header, state)

        got_header, entries = load_checkpoint(path)
        assert got_header == header
        assert set(entries) == set(state)
        np.testing.assert_array_equal(entries["block1.bn_in.running_mean"],
                                      state["block1.bn_in.running_mean"])
        fresh = models.build_model("crnn", 4, patch_width=32, gru_hidden=8, seed=2)
        fresh.load_state(entries)
        for key, value in fresh.state().items():
            np.testing.assert_array_equal(value, state[key])

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.rsdl"
        save_checkpoint(path, "t", {"w": np.zeros(2, dtype=np.float32)})
        assert path.read_bytes()[:4] == b"RSDL"

    def test_every_truncation_and_seeded_flips_are_format_errors(self, tmp_path, rng):
        path = tmp_path / "m.rsdl"
        save_checkpoint(path, "k=v", {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                      "b": np.ones(1, dtype=np.float32)})
        data = path.read_bytes()
        bad = tmp_path / "bad.rsdl"
        cuts = [data[:n] for n in range(len(data))]
        flips = []
        for i in rng.choice(len(data), size=24, replace=False):
            flipped = bytearray(data)
            flipped[i] ^= 1 << int(rng.integers(8))
            flips.append(bytes(flipped))
        for blob in cuts + flips:
            bad.write_bytes(blob)
            with pytest.raises(FormatError):
                load_checkpoint(bad)

    def test_version_one_file_is_unsupported(self, tmp_path):
        path = tmp_path / "v1.rsdl"
        path.write_bytes(b"RSDL" + struct.pack("<HH", 1, 1) + b"t" + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)


class TestTrainingInvariants:
    def test_fixed_seed_bit_identical_trajectories(self, rng):
        def run():
            m = models.CNNMoE(3, patch_width=32, seed=5)
            adam = Adam(m.params(), lr=1e-3)
            x = np.random.default_rng(9).standard_normal((4, 64, 32)).astype(np.float32)
            y = np.eye(3, dtype=np.float32)[[0, 1, 2, 0]]
            for _ in range(3):
                probs = m.forward(x, train=True)
                _, dlogits = loss_ce_l2(probs, y, m.params(), 1e-4)
                adam.zero_grad()
                m.backward(dlogits.astype(np.float32))
                add_l2_grads(m.params(), 1e-4)
                adam.step()
            return {p.name: p.data.copy() for p in m.params()}

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_overfit_fixed_batch(self, rng):
        # 8-sample batch, 200 steps: loss must collapse below 10% of start
        class TinyNet:
            def __init__(self):
                r = np.random.default_rng(3)
                self.fc1 = Dense(10, 32, r, name="fc1", dtype=F64)
                self.fc2 = Dense(32, 4, r, name="fc2", dtype=F64)

            def forward(self, x, train=False):
                self._h = np.maximum(self.fc1.forward(x, train), 0.0)
                self._logits = self.fc2.forward(self._h, train)
                return softmax(self._logits)

            def backward(self, dlogits):
                dh = self.fc2.backward(dlogits)
                return self.fc1.backward(dh * (self._h > 0))

            def params(self):
                return self.fc1.params() + self.fc2.params()

        net = TinyNet()
        x = rng.standard_normal((8, 10))
        y = np.eye(4)[rng.integers(0, 4, 8)]
        adam = Adam(net.params(), lr=1e-2)
        losses = []
        for _ in range(200):
            probs = net.forward(x, train=True)
            loss, dlogits = loss_ce_l2(probs, y)
            losses.append(loss)
            adam.zero_grad()
            net.backward(dlogits)
            adam.step()
        assert losses[-1] < 0.1 * losses[0]

    def test_inference_is_pure(self, rng):
        m = models.CNNMoE(4, patch_width=32, seed=2)
        x = rng.standard_normal((3, 64, 32)).astype(np.float32)
        m.forward(x, train=True)  # settle running stats
        a = m.forward(x, train=False)
        b = m.forward(x, train=False)
        np.testing.assert_array_equal(a, b)

    def test_default_train_config_matches_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.batch_size == 50
        assert cfg.lr == 1e-4
        assert cfg.l2_lambda == 1e-4
        # the constants no config key sets live where they are used
        adam = Adam([Param("w", np.zeros(1))])
        assert (adam.beta1, adam.beta2, adam.eps) == (0.9, 0.999, 1e-8)
        assert MixupConfig().alpha == 0.2
        member = harness.build_member(harness.ExperimentConfig(patch_width=32), "cnn_moe")
        assert member.moe.expert_w.data.shape[0] == 10

    def test_decay_flags(self):
        m = models.CNNMoE(4, patch_width=32, seed=0)
        for p in m.params():
            expect = p.name.endswith(".W") or p.name.endswith("Wx") or p.name.endswith("Wh")
            assert p.decay == expect, p.name
        c = models.CRNN(4, patch_width=32, gru_hidden=8, seed=0)
        for p in c.params():
            expect = p.name.endswith(".W") or p.name.endswith("Wx") or p.name.endswith("Wh")
            assert p.decay == expect, p.name
