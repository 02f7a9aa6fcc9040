"""Layer gradients, loss semantics, Adam, GRU behavior, checkpoints."""

import struct

import numpy as np
import pytest

from respdl import models
from respdl.errors import FormatError, NumericalError, ShapeError
from respdl.nn import (
    Adam,
    BatchNorm2d,
    BiGRU,
    Conv2d,
    Dense,
    Dropout,
    Param,
    TrainConfig,
    add_l2_grads,
    assign_params,
    cross_entropy,
    grad_check,
    l2_penalty,
    load_checkpoint,
    loss_ce_l2,
    save_checkpoint,
    softmax,
)

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

    def test_avgpool_constant_preserved(self):
        from respdl.nn import AvgPool2d

        x = np.full((2, 4, 6, 3), 2.75)
        out = AvgPool2d(2, 2).forward(x)
        np.testing.assert_array_equal(out, np.full((2, 2, 3, 3), 2.75))

    def test_gradcheck_detects_broken_backward(self, rng):
        class Broken(Dense):
            def backward(self, dout):
                self.w.grad += 0.5 * (self._x.T @ dout)
                self.b.grad += dout.sum(axis=0)
                return dout @ self.w.data.T

        report = grad_check(Broken(5, 4, rng, dtype=F64), rng.standard_normal((3, 5)))
        assert report["max_rel_err"] > 0.2


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
        bufs = layer.get_buffers()
        fresh = BatchNorm2d(3, name="bn0")
        fresh.set_buffers(bufs)
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
        params = [
            Param("layer.W", rng.standard_normal((3, 4)).astype(np.float32)),
            Param("layer.b", rng.standard_normal(4).astype(np.float32), decay=False),
        ]
        arrays = {p.name: p.data for p in params}
        arrays["bn.running_mean"] = rng.standard_normal(5).astype(np.float32)
        header = "task=T\nmember=m\nnorm_mean=0.30000000000000004\n"
        path = tmp_path / "model.rsdl"
        save_checkpoint(path, header, arrays)

        got_header, entries = load_checkpoint(path)
        assert got_header == header
        assert set(entries) == set(arrays)
        np.testing.assert_array_equal(entries["bn.running_mean"], arrays["bn.running_mean"])
        fresh = [
            Param("layer.W", np.zeros((3, 4), dtype=np.float32)),
            Param("layer.b", np.zeros(4, dtype=np.float32), decay=False),
        ]
        assign_params(fresh, entries)
        np.testing.assert_array_equal(fresh[0].data, params[0].data)
        np.testing.assert_array_equal(fresh[1].data, params[1].data)

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
                self._h = np.maximum(self.fc1.forward(x), 0.0)
                self._logits = self.fc2.forward(self._h)
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
            probs = net.forward(x)
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
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
        assert cfg.l2_lambda == 1e-4

    def test_decay_flags(self):
        m = models.CNNMoE(4, patch_width=32, seed=0)
        for p in m.params():
            expect = p.name.endswith(".W") or p.name.endswith("Wx") or p.name.endswith("Wh")
            assert p.decay == expect, p.name
        c = models.CRNN(4, patch_width=32, gru_hidden=8, seed=0)
        for p in c.params():
            expect = p.name.endswith(".W") or p.name.endswith("Wx") or p.name.endswith("Wh")
            assert p.decay == expect, p.name
