"""Architecture schedules, MoE semantics, aggregation and fusion."""

import numpy as np
import pytest

from respdl import models
from respdl.augment import MixupConfig
from respdl.errors import ParameterError, ShapeError
from respdl.harness import evaluate_entities, train_loop
from respdl.nn import Chain, Conv2d, ConvBlock, Layer, TrainConfig, softmax

from conftest import forward_shapes

F64 = np.float64


class TestShapeTraces:
    def test_cnn_moe_matches_table(self):
        m = models.CNNMoE(n_classes=4, patch_width=128, seed=0)
        assert forward_shapes(m) == (
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
        assert forward_shapes(m) == (
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
        assert forward_shapes(models.CNNMoE(n_classes=n, patch_width=128, seed=0))[-1] == (n,)
        assert forward_shapes(models.CRNN(n_classes=n, patch_width=128, seed=0))[-1] == (n,)

    def test_indivisible_width_rejected(self):
        m = models.CNNMoE(n_classes=4, patch_width=50, seed=0)
        with pytest.raises(ShapeError):
            m.forward(np.zeros((1, 64, 50), dtype=np.float32), train=True)

    def test_channel_axis_input_rejected(self):
        m = models.CNNMoE(n_classes=4, patch_width=32, seed=0)
        with pytest.raises(ShapeError):
            m.forward(np.zeros((1, 64, 32, 1), dtype=np.float32))


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


@pytest.mark.parametrize("build", [
    lambda: models.CNNMoE(4, patch_width=32, seed=3),
    lambda: models.CRNN(4, patch_width=32, gru_hidden=16, seed=3),
], ids=["cnn_moe", "crnn"])
class TestLayerProtocol:
    def test_state_is_the_params_then_the_batchnorm_running_stats(self, build):
        model = build()
        assert all(isinstance(layer, Layer) for layer in _all_layers(model))
        running = [f"block{i}.{bn}.{stat}" for i in range(1, len(model.blocks) + 1)
                   for bn in ("bn_in", "bn_out") for stat in ("running_mean", "running_var")]
        assert list(model.state()) == [p.name for p in model.params()] + running

    def test_a_blocks_params_and_buffers_are_its_members_in_order(self, build):
        model = build()
        for i, block in enumerate(model.blocks, start=1):
            members = list(block)
            assert block.params() == [p for layer in members for p in layer.params()]
            assert [p.name for p in block.params()] == [
                f"block{i}.{layer}.{name}" for layer, names in
                (("bn_in", ("gamma", "beta")), ("conv", ("W", "b")), ("bn_out", ("gamma", "beta")))
                for name in names]
            buffers = [item for layer in members for item in layer.buffers().items()]
            assert [name for name, _ in buffers] == [
                f"block{i}.{bn}.{stat}" for bn in ("bn_in", "bn_out")
                for stat in ("running_mean", "running_var")]
            assert list(block.buffers()) == [name for name, _ in buffers]
            assert all(block.buffers()[name] is data for name, data in buffers)


def _all_layers(layer):
    """A layer and every layer inside it, through ``layers``: a model's
    blocks and head, each block's members, the GRU directions, the MoE
    gate."""
    yield layer
    for member in layer.layers:
        yield from _all_layers(member)


def _cache_arrays(cache):
    """The arrays in a layer's cache, however nested."""
    if isinstance(cache, np.ndarray):
        return [cache]
    if isinstance(cache, (tuple, list)):
        return [a for item in cache for a in _cache_arrays(item)]
    return []


def _caching(model, arrays=False):
    """Names of the layers that hold a cache for a backward pass (with
    ``arrays``, only those whose cache holds an array)."""
    return {getattr(layer, "name", type(layer).__name__) for layer in _all_layers(model)
            if layer._cache is not None and (not arrays or _cache_arrays(layer._cache))}


def _cache_bytes(model):
    """Bytes of the arrays in every layer's cache, each buffer counted once."""
    bases = {}
    for layer in _all_layers(model):
        for a in _cache_arrays(layer._cache):
            base = a if a.base is None else a.base
            bases[id(base)] = base.nbytes
    return sum(bases.values())


# each tiny model, with its head layers that cache, the last one first
TINY_MODELS = pytest.mark.parametrize("build, head", [
    (lambda: models.CNNMoE(4, patch_width=32, seed=3), ("moe", "moe.gate")),
    (lambda: models.CRNN(4, patch_width=32, gru_hidden=16, seed=3),
     ("fc3", "relu2", "fc2", "relu1", "fc1", "bigru.bwd", "bigru.fwd")),
], ids=["cnn_moe", "crnn"])


class TestActivationLifetime:
    @TINY_MODELS
    def test_no_activation_outlives_its_backward(self, build, head, rng):
        model = build()
        x = rng.standard_normal((6, 64, 32)).astype(np.float32)
        y = np.eye(4, dtype=np.float32)[[0, 1, 2, 3, 0, 1]]
        model.forward(x, train=True)  # the walk below sees every cache
        assert {"block1.bn_in", "block1.relu", "Dropout", *head} <= _caching(model, arrays=True)
        # a block's conv keeps only its shapes: backward rebuilds its input
        assert "block1.conv" in _caching(model) - _caching(model, arrays=True)

        model = build()
        cfg = TrainConfig(epochs=1, batch_size=6, lr=1e-3, seed=1)
        train_loop(model, x, y, cfg, mixup_cfg=MixupConfig(alpha=0.2))
        assert _caching(model) == set()
        evaluate_entities(model, {"a": x[:2], "b": x[2:]})
        assert _caching(model) == set()

    @TINY_MODELS
    def test_blocks_keep_all_but_their_padded_inputs(self, build, head, rng):
        # members run one by one keep what the fused blocks kept before they
        # rebuilt the conv input in backward: a standalone conv keeps its own
        x = rng.standard_normal((6, 64, 32)).astype(np.float32)
        fused, chained = build(), _chained(build())
        for model in (fused, chained):
            model.forward(x, train=True)
        convs = [layer for block in chained.blocks for layer in block
                 if isinstance(layer, Conv2d)]
        padded = [conv._cache[0] for conv in convs]
        assert len(padded) == len(fused.blocks)
        assert all(isinstance(a, np.ndarray) and a.base is None for a in padded)
        assert _cache_bytes(fused) == _cache_bytes(chained) - sum(a.nbytes for a in padded)

    @TINY_MODELS
    def test_backward_after_inference_names_the_layer(self, build, head, rng):
        model = build()
        x = rng.standard_normal((2, 64, 32)).astype(np.float32)
        model.forward(x, train=True)
        probs = model.forward(x, train=False)  # drops the training caches
        with pytest.raises(ParameterError, match=f"^{head[0]}: backward needs a forward"):
            model.backward(probs)


class TestAggregateAndFuse:
    # models.mean_probs is both means: an entity's patch rows, and the
    # ensemble members' entity rows
    def test_single_patch_unchanged(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(models.mean_probs([p]), p)

    def test_two_patch_mean(self):
        out = models.mean_probs([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_mean_stays_on_simplex(self, rng):
        rows = [softmax(rng.standard_normal(5)) for _ in range(9)]
        agg = models.mean_probs(rows)
        assert agg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="one shape"):
            models.mean_probs([])

    def test_fuse_idempotent(self, rng):
        p = softmax(rng.standard_normal((4, 3)))
        np.testing.assert_allclose(models.mean_probs([p, p]), p, atol=1e-12)

    def test_fuse_arithmetic_mean(self, rng):
        out = models.mean_probs([np.array([[0.8, 0.2]]), np.array([[0.6, 0.4]])])
        np.testing.assert_allclose(out, [[0.7, 0.3]], atol=1e-12)
        # the two-member mean is (a + b) / 2 bit for bit, from float32 rows too
        a = softmax(rng.standard_normal((20000, 4))).astype(np.float32)
        b = softmax(rng.standard_normal((20000, 4)))
        expected = (a.astype(np.float64) + b) / 2.0
        np.testing.assert_array_equal(models.mean_probs([a, b]), expected)

    def test_fuse_symmetric(self, rng):
        a = softmax(rng.standard_normal((6, 4)))
        b = softmax(rng.standard_normal((6, 4)))
        np.testing.assert_allclose(
            models.mean_probs([a, b]), models.mean_probs([b, a]), atol=1e-12
        )

    def test_fused_rows_sum_to_one(self, rng):
        a = softmax(rng.standard_normal((6, 4)))
        b = softmax(rng.standard_normal((6, 4)))
        np.testing.assert_allclose(models.mean_probs([a, b]).sum(axis=1), 1.0, atol=1e-9)

    def test_fuse_shape_mismatch(self):
        with pytest.raises(ParameterError, match="one shape"):
            models.mean_probs([np.ones((2, 3)) / 3, np.ones((2, 4)) / 4])
        with pytest.raises(ParameterError, match="one shape"):
            models.mean_probs([np.ones(3) / 3, np.ones(4) / 4])


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
        _, accs = train_loop(model, x, y, cfg, early_stop_acc=0.95)
        assert max(accs) >= 0.95
        assert len(accs) <= 200


def _chained(model):
    """``model`` with each fused block swapped for a plain ``Chain`` of the
    same members, which runs them one by one: the reference the fused
    passes are held to."""
    model.blocks = [Chain(*block) for block in model.blocks]
    model.layers = (*model.blocks, *model.layers[len(model.blocks):])
    return model


DESK_MODELS = pytest.mark.parametrize("build", [
    lambda: models.CNNMoE(4, patch_width=32, seed=3),
    lambda: models.CRNN(4, patch_width=32, gru_hidden=64, seed=3),
], ids=["cnn_moe", "crnn"])


class TestConvBlock:
    @staticmethod
    def _data(rng, n=21):
        x = rng.standard_normal((n, 64, 32)).astype(np.float32)
        return x, np.eye(4, dtype=np.float32)[rng.integers(0, 4, n)]

    @DESK_MODELS
    def test_blocks_are_fused_and_iterate_over_their_members(self, build):
        model = build()
        for i, block in enumerate(model.blocks, start=1):
            assert isinstance(block, ConvBlock)
            members = list(block)
            assert members[:4] == [block.bn_in, block.conv, block.relu, block.bn_out]
            assert members[-1] is block.drop
            assert [getattr(m, "name", None) for m in members[:4]] == [
                f"block{i}.bn_in", f"block{i}.conv", f"block{i}.relu", f"block{i}.bn_out"]

    @DESK_MODELS
    def test_training_is_the_chained_members_bit_for_bit(self, build, rng):
        x, y = self._data(rng)
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=1)
        fused, chained = build(), _chained(build())
        runs = [train_loop(model, x, y, cfg, mixup_cfg=MixupConfig(alpha=0.2), seed=5)
                for model in (fused, chained)]
        assert repr(runs[0]) == repr(runs[1])  # histories and train accuracies
        want = chained.state()
        for name, data in fused.state().items():
            np.testing.assert_array_equal(data, want[name], err_msg=name)

    @DESK_MODELS
    def test_inference_matches_the_chained_members(self, build, rng):
        x, y = self._data(rng)
        groups = {f"e{i:02d}": x[i:i + 3] for i in range(0, len(x), 3)}
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=1)
        fused, chained = build(), _chained(build())
        for _ in range(2):  # training and inference passes alternate
            for model in (fused, chained):
                train_loop(model, x, y, cfg, seed=5)
            # chunks of 8, 8 and 5 patches
            got, want = (evaluate_entities(model, groups, batch_size=8)
                         for model in (fused, chained))
            for eid in groups:
                np.testing.assert_allclose(got[eid], want[eid], rtol=0, atol=1e-6)
