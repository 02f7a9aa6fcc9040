"""Augmentation: minimum-length waveform duplication and mixup."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ingest import TARGET_RATE


@dataclass
class MixupConfig:
    alpha: float = 0.2  # Beta(alpha, alpha) parameter
    enabled: bool = True

    def __post_init__(self):
        if self.alpha <= 0:
            raise ParameterError("mixup alpha must be positive")


@dataclass
class LabeledBatch:
    """A batch of spectrogram patches with class-probability targets."""

    patches: np.ndarray  # (B, n_channels, width)
    targets: np.ndarray  # (B, n_classes), rows sum to 1


def duplicate_to_min(
    samples: np.ndarray, min_seconds: float, sample_rate: int = TARGET_RATE
) -> np.ndarray:
    """Repeat a short waveform whole until it reaches the minimum length.

    The waveform is tiled r = ceil(min_samples/len) times with no truncation,
    so the output length is r*len >= min_samples. Waveforms already long
    enough come back as-is (r = 1).
    """
    n = len(samples)
    if n == 0:
        raise ParameterError("empty waveform")
    if min_seconds <= 0:
        raise ParameterError("min_seconds must be positive")
    min_samples = math.ceil(min_seconds * sample_rate)
    reps = math.ceil(min_samples / n)
    if reps <= 1:
        return samples
    return np.tile(samples, reps)


def mixup(
    batch_a: LabeledBatch,
    batch_b: LabeledBatch,
    cfg: MixupConfig,
    rng: np.random.Generator,
    lam=None,
) -> LabeledBatch:
    """Convex-combine two aligned batches: lam*a + (1-lam)*b.

    ``batch_b`` is conventionally a permutation of ``batch_a``. One lambda is
    drawn per pair from Beta(alpha, alpha) unless ``lam`` overrides it.
    """
    if batch_a.patches.shape != batch_b.patches.shape:
        raise ParameterError("mixup patch shapes differ")
    if batch_a.targets.shape != batch_b.targets.shape:
        raise ParameterError("mixup target shapes differ")
    b = batch_a.patches.shape[0]
    if lam is None:
        lam = rng.beta(cfg.alpha, cfg.alpha, size=b)
    lam = np.broadcast_to(np.asarray(lam, dtype=batch_a.patches.dtype), (b,))
    mixed_x = lam[:, None, None] * batch_a.patches + (1.0 - lam[:, None, None]) * batch_b.patches
    mixed_y = lam[:, None] * batch_a.targets + (1.0 - lam[:, None]) * batch_b.targets
    return LabeledBatch(patches=mixed_x, targets=mixed_y)


def mixup_batch(
    batch: LabeledBatch, cfg: MixupConfig, rng: np.random.Generator
) -> LabeledBatch:
    """Standard in-batch pairing: mix each sample with a permuted partner."""
    if not cfg.enabled:
        return batch
    perm = rng.permutation(batch.patches.shape[0])
    partner = LabeledBatch(patches=batch.patches[perm], targets=batch.targets[perm])
    return mixup(batch, partner, cfg, rng)
