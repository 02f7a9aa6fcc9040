"""Cycle duplication and mixup."""

import numpy as np
import pytest

from respdl import models
from respdl.augment import MixupConfig, duplicate_to_min, mixup_batch
from respdl.errors import ParameterError
from respdl.harness import train_loop
from respdl.nn import TrainConfig


class TestDuplicateToMin:
    def test_three_repetitions(self, rng):
        samples = rng.standard_normal(40000)  # 2.5 s
        out = duplicate_to_min(samples, 6.0)
        assert len(out) == 120000  # 7.5 s
        np.testing.assert_array_equal(out[:40000], samples)
        np.testing.assert_array_equal(out[40000:80000], samples)

    def test_long_enough_unchanged(self, rng):
        samples = rng.standard_normal(128000)  # 8 s
        out = duplicate_to_min(samples, 6.0)
        assert out is samples

    def test_idempotent_once_long(self, rng):
        samples = rng.standard_normal(10000)
        once = duplicate_to_min(samples, 3.0)
        twice = duplicate_to_min(once, 3.0)
        assert twice is once

    def test_repetition_period_via_autocorrelation(self):
        t = np.arange(9000)
        base = np.sin(2 * np.pi * 260.0 * t / 16000.0) + 0.1 * np.cos(t)
        out = duplicate_to_min(base, 2.0)
        x = out - out.mean()
        ac = np.correlate(x, x, mode="full")[len(x) - 1 :]
        # peak sits exactly at the original cycle length; for r repetitions
        # the unnormalized autocorrelation there approaches (r-1)/r of lag 0
        lag = 9000
        window = ac[lag - 50 : lag + 51]
        assert np.argmax(window) == 50
        assert window[50] > 0.7 * ac[0]

    def test_empty_cycle_rejected(self):
        with pytest.raises(ParameterError):
            duplicate_to_min(np.zeros(0), 1.0)


class TestMixup:
    def _batch(self, rng, b=6, n=4):
        x = rng.standard_normal((b, 8, 10))
        y = np.eye(n)[rng.integers(0, n, b)]
        return x, y

    def test_lambda_one_returns_first(self, rng):
        x, y = self._batch(rng)
        mx, my = mixup_batch(x, y, MixupConfig(), rng, lam=1.0)
        np.testing.assert_array_equal(mx, x)
        np.testing.assert_array_equal(my, y)

    def test_lambda_zero_returns_second(self, rng):
        x, y = self._batch(rng)
        perm = np.random.default_rng(5).permutation(len(x))
        mx, my = mixup_batch(x, y, MixupConfig(), np.random.default_rng(5), lam=0.0)
        np.testing.assert_array_equal(mx, x[perm])
        np.testing.assert_array_equal(my, y[perm])

    def test_draws_the_permutation_then_one_lambda_per_sample(self, rng):
        x, y = self._batch(rng)
        draws = np.random.default_rng(5)
        perm = draws.permutation(len(x))
        lam = draws.beta(0.4, 0.4, size=len(x))
        mx, my = mixup_batch(x, y, MixupConfig(alpha=0.4), np.random.default_rng(5))
        assert mx.tobytes() == (lam[:, None, None] * x
                                + (1.0 - lam[:, None, None]) * x[perm]).tobytes()
        assert my.tobytes() == (lam[:, None] * y + (1.0 - lam[:, None]) * y[perm]).tobytes()

    def test_targets_stay_on_simplex(self, rng):
        x, y = self._batch(rng)
        _, my = mixup_batch(x, y, MixupConfig(alpha=0.2), rng)
        np.testing.assert_allclose(my.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(my >= 0)

    def test_convex_combination_bounds(self, rng):
        x, y = self._batch(rng)
        perm = np.random.default_rng(5).permutation(len(x))
        mx, _ = mixup_batch(x, y, MixupConfig(alpha=0.4), np.random.default_rng(5))
        assert np.all(mx >= np.minimum(x, x[perm]) - 1e-12)
        assert np.all(mx <= np.maximum(x, x[perm]) + 1e-12)

    def test_disabled_trains_like_no_mixup(self, rng):
        x = rng.standard_normal((12, 64, 32)).astype(np.float32)
        y = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 12)]
        cfg = TrainConfig(epochs=2, batch_size=6, lr=1e-3, seed=1)
        runs = []
        for mixup_cfg in (None, MixupConfig(enabled=False)):
            model = models.CNNMoE(4, patch_width=32, seed=3)
            history, _ = train_loop(model, x, y, cfg, mixup_cfg=mixup_cfg, seed=2)
            runs.append(([loss for _, loss, _ in history], model.state()))
        (losses_none, state_none), (losses_off, state_off) = runs
        assert losses_off == losses_none
        assert all(state_off[k].tobytes() == state_none[k].tobytes() for k in state_none)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ParameterError):
            MixupConfig(alpha=0.0)
