"""Adam optimizer and the training hyperparameter record."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError


@dataclass
class TrainConfig:
    """Training hyperparameters (defaults: 100 epochs, batches of 50,
    Adam at 1e-4, L2 lambda 1e-4)."""

    epochs: int = 100
    batch_size: int = 50
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    l2_lambda: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be positive")
        if self.lr <= 0 or self.eps <= 0:
            raise ParameterError("lr and eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ParameterError("betas must lie in [0, 1)")
        if self.l2_lambda < 0:
            raise ParameterError("l2_lambda must be nonnegative")


class Adam:
    """Standard Adam with bias correction; deterministic given its inputs."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad**2
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
