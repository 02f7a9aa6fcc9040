"""Cycle duplication and mixup."""

import numpy as np
import pytest

from respdl.augment import LabeledBatch, MixupConfig, duplicate_to_min, mixup, mixup_batch
from respdl.errors import ParameterError


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
    def _batches(self, rng, b=6, n=4):
        xa = rng.standard_normal((b, 8, 10))
        xb = rng.standard_normal((b, 8, 10))
        eye = np.eye(n)
        ya = eye[rng.integers(0, n, b)]
        yb = eye[rng.integers(0, n, b)]
        return LabeledBatch(xa, ya), LabeledBatch(xb, yb)

    def test_lambda_one_returns_first(self, rng):
        a, b = self._batches(rng)
        out = mixup(a, b, MixupConfig(), rng, lam=1.0)
        np.testing.assert_array_equal(out.patches, a.patches)
        np.testing.assert_array_equal(out.targets, a.targets)

    def test_lambda_zero_returns_second(self, rng):
        a, b = self._batches(rng)
        out = mixup(a, b, MixupConfig(), rng, lam=0.0)
        np.testing.assert_array_equal(out.patches, b.patches)
        np.testing.assert_array_equal(out.targets, b.targets)

    def test_targets_stay_on_simplex(self, rng):
        a, b = self._batches(rng)
        out = mixup(a, b, MixupConfig(alpha=0.2), rng)
        np.testing.assert_allclose(out.targets.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.targets >= 0)

    def test_convex_combination_bounds(self, rng):
        a, b = self._batches(rng)
        out = mixup(a, b, MixupConfig(alpha=0.4), rng)
        lo = np.minimum(a.patches, b.patches)
        hi = np.maximum(a.patches, b.patches)
        assert np.all(out.patches >= lo - 1e-12)
        assert np.all(out.patches <= hi + 1e-12)

    def test_shape_mismatch_rejected(self, rng):
        a, _ = self._batches(rng)
        bad = LabeledBatch(a.patches[:, :4, :], a.targets)
        with pytest.raises(ParameterError):
            mixup(a, bad, MixupConfig(), rng)

    def test_disabled_keeps_one_hot(self, rng):
        a, _ = self._batches(rng)
        out = mixup_batch(a, MixupConfig(enabled=False), rng)
        assert out is a
        assert np.all(np.isin(out.targets, (0.0, 1.0)))

    def test_alpha_must_be_positive(self):
        with pytest.raises(ParameterError):
            MixupConfig(alpha=0.0)
