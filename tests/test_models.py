"""Architecture schedules, MoE semantics, aggregation and fusion."""

import numpy as np
import pytest

from respdl import models
from respdl.errors import ParameterError, ShapeError
from respdl.harness import train_loop
from respdl.nn import TrainConfig, softmax

F64 = np.float64


class TestShapeTraces:
    def test_cnn_moe_matches_table(self):
        m = models.CNNMoE(n_classes=4, patch_width=128, seed=0)
        assert m.shape_trace() == (
            (32, 64, 64),
            (16, 32, 128),
            (16, 32, 256),
            (8, 16, 256),
            (8, 16, 512),
            (512,),
            (4,),
        )

    def test_crnn_matches_table(self):
        m = models.CRNN(n_classes=4, patch_width=128, gru_hidden=512, seed=0)
        assert m.shape_trace() == (
            (32, 128, 64),
            (16, 128, 128),
            (4, 128, 256),
            (128, 512),
            (256, 512),
            (256,),
            (1024,),
            (1024,),
            (4,),
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_class_count_follows_task(self, n):
        assert models.CNNMoE(n_classes=n, patch_width=128, seed=0).shape_trace()[-1] == (n,)
        assert models.CRNN(n_classes=n, patch_width=128, seed=0).shape_trace()[-1] == (n,)

    def test_indivisible_width_rejected(self):
        with pytest.raises(ShapeError):
            models.CNNMoE(n_classes=4, patch_width=50, seed=0)

    def test_forward_shapes_match_trace(self, rng):
        m = models.CNNMoE(n_classes=4, patch_width=128, seed=0)
        x = rng.standard_normal((2, 64, 128)).astype(np.float32)
        xx = x[:, :, :, None]
        seen = []
        for block in m.blocks:
            for layer in block:
                xx = layer.forward(xx, train=True)
            seen.append(xx.shape[1:] if xx.ndim == 4 else (xx.shape[1],))
        assert tuple(seen[:5]) == m.shape_trace()[:5]
        assert seen[5] == (512,)


class TestMoELayer:
    def _layer(self, rng, in_dim=6, n_classes=3, n_experts=4):
        return models.MoELayer(in_dim, n_classes, n_experts, rng, dtype=F64)

    def test_single_expert_gate_is_identity(self, rng):
        layer = self._layer(rng, n_experts=1)
        x = rng.standard_normal((5, 6))
        logits = layer.forward(x)
        e = np.maximum(
            np.einsum("bi,jin->bjn", x, layer.expert_w.data) + layer.expert_b.data, 0.0
        )[:, 0, :]
        np.testing.assert_allclose(logits, e, atol=1e-9)

    def test_equal_experts_collapse(self, rng):
        layer = self._layer(rng, n_experts=5)
        layer.expert_w.data[:] = layer.expert_w.data[0]
        layer.expert_b.data[:] = layer.expert_b.data[0]
        x = rng.standard_normal((7, 6))
        e0 = np.maximum(x @ layer.expert_w.data[0] + layer.expert_b.data[0], 0.0)
        np.testing.assert_allclose(layer.forward(x), e0, atol=1e-9)

    def test_symmetric_two_expert_fixture(self, rng):
        layer = models.MoELayer(3, 2, 2, rng, dtype=F64)
        layer.expert_w.data[:] = 0.0
        layer.expert_b.data[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        layer.gate.w.data[:] = 0.0
        layer.gate.b.data[:] = 0.0  # uniform gate (0.5, 0.5)
        logits = layer.forward(np.zeros((1, 3)))
        np.testing.assert_allclose(logits, [[0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(softmax(logits), [[0.5, 0.5]], atol=1e-9)

    def test_gate_on_simplex(self, rng):
        layer = self._layer(rng)
        g = layer.gate_weights(rng.standard_normal((40, 6)))
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(g >= 0)

    def test_gradients(self, rng):
        from respdl.nn import grad_check

        layer = self._layer(rng, in_dim=4, n_classes=3, n_experts=2)
        report = grad_check(layer, rng.standard_normal((3, 4)))
        assert report["max_rel_err"] < 1e-6


class TestModelOutputs:
    @pytest.mark.parametrize("build", [
        lambda: models.CNNMoE(4, patch_width=32, seed=3),
        lambda: models.CRNN(4, patch_width=32, gru_hidden=16, seed=3),
    ])
    def test_row_stochastic_train_and_infer(self, build, rng):
        m = build()
        for x in (rng.standard_normal((3, 64, 32)).astype(np.float32) * 10,
                  np.zeros((1, 64, 32), dtype=np.float32)):
            for train in (True, False):
                p = m.forward(x, train=train)
                assert p.shape == (x.shape[0], 4)
                np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-5)
                assert np.all(p >= 0)


class TestAggregateAndFuse:
    def test_single_patch_unchanged(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(models.aggregate_patches([p]), p)

    def test_two_patch_mean(self):
        out = models.aggregate_patches([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_mean_stays_on_simplex(self, rng):
        rows = [softmax(rng.standard_normal(5)) for _ in range(9)]
        agg = models.aggregate_patches(rows)
        assert agg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            models.aggregate_patches([])

    def test_fuse_idempotent(self, rng):
        p = softmax(rng.standard_normal((4, 3)))
        np.testing.assert_allclose(models.ensemble_fuse(p, p), p, atol=1e-12)

    def test_fuse_arithmetic_mean(self):
        out = models.ensemble_fuse(np.array([[0.8, 0.2]]), np.array([[0.6, 0.4]]))
        np.testing.assert_allclose(out, [[0.7, 0.3]], atol=1e-12)

    def test_fuse_symmetric(self, rng):
        a = softmax(rng.standard_normal((6, 4)))
        b = softmax(rng.standard_normal((6, 4)))
        np.testing.assert_allclose(
            models.ensemble_fuse(a, b), models.ensemble_fuse(b, a), atol=1e-12
        )

    def test_fused_rows_sum_to_one(self, rng):
        a = softmax(rng.standard_normal((6, 4)))
        b = softmax(rng.standard_normal((6, 4)))
        np.testing.assert_allclose(models.ensemble_fuse(a, b).sum(axis=1), 1.0,
                                   atol=1e-9)

    def test_fuse_shape_mismatch(self, rng):
        with pytest.raises(ParameterError):
            models.ensemble_fuse(np.ones((2, 3)) / 3, np.ones((2, 4)) / 4)


def gaussian_blob_set(rng, n_per_class=10, width=16):
    """Four class templates in gammatone space plus noise."""
    templates = []
    for c in range(4):
        t = np.zeros((64, width))
        t[c * 16 : c * 16 + 12, :] = 2.0
        templates.append(t)
    xs, ys = [], []
    eye = np.eye(4, dtype=np.float32)
    for c in range(4):
        for _ in range(n_per_class):
            xs.append(templates[c] + 0.3 * rng.standard_normal((64, width)))
            ys.append(eye[c])
    x = np.stack(xs).astype(np.float32)
    y = np.stack(ys)
    return x, y


class TestOverfitOracle:
    @pytest.mark.parametrize("build", [
        lambda: models.CNNMoE(4, patch_width=32, seed=7),
        lambda: models.CRNN(4, patch_width=32, gru_hidden=32, seed=7),
    ])
    def test_blob_overfit(self, build, rng):
        x, y = gaussian_blob_set(rng, n_per_class=10, width=32)
        model = build()
        cfg = TrainConfig(epochs=200, batch_size=10, lr=1e-3, seed=1)
        _, accs = train_loop(model, x, y, cfg, early_stop_acc=0.95,
                             early_stop_patience=2)
        assert max(accs) >= 0.95
        assert len(accs) <= 200
