"""Adam optimizer, the training hyperparameter record and the config field rule."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from ..errors import FormatError, ParameterError


def check_fields(config) -> None:
    """The field rule of a config record (a frozen dataclass), read from each
    field's declared type: an int field takes an integer, a float field a
    finite real, stored as ``float`` so ``2`` becomes ``2.0``, and neither
    takes a bool; a bool, str or nested-config field takes only its own
    type. Anything else is a ParameterError naming the field."""
    for name, kind in get_type_hints(type(config)).items():
        value = getattr(config, name)
        accepted = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
        if (not isinstance(value, accepted) or kind is not bool and isinstance(value, bool)
                or kind is float and not math.isfinite(value)):
            what = "a finite number" if kind is float else f"of type {kind.__name__}"
            raise ParameterError(f"{name} must be {what}, got {value!r}")
        if kind is float:
            object.__setattr__(config, name, float(value))


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (defaults: 100 epochs, batches of 50,
    Adam at 1e-4, L2 lambda 1e-4)."""

    epochs: int = 100
    batch_size: int = 50
    lr: float = 1e-4
    l2_lambda: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ParameterError("lr must be positive")
        if self.l2_lambda < 0:
            raise ParameterError("l2_lambda must be nonnegative")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


class Adam:
    """Standard Adam with bias correction; deterministic given its inputs.
    Training sets only ``lr``; the defaults of beta1, beta2 and eps are the
    protocol's constants."""

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
            # p.data -= lr * (m / bc1) / (sqrt(v / bc2) + eps), after the
            # moment updates, with the same operations in the same order,
            # computed in two temporaries
            tmp = np.multiply(p.grad, 1 - b1)
            m *= b1
            m += tmp
            np.square(p.grad, out=tmp)
            tmp *= 1 - b2
            v *= b2
            v += tmp
            den = np.divide(v, bc2)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(m, bc1, out=tmp)
            tmp *= self.lr
            tmp /= den
            p.data -= tmp

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def state(self) -> dict:
        """The step count ``t`` (a 0-d array) and a copy of each moment by
        parameter name (``<name>.m``, ``<name>.v``)."""
        entries = {"t": np.array(self.t)}
        for p, m, v in zip(self.params, self.m, self.v):
            entries.update({f"{p.name}.m": m.copy(), f"{p.name}.v": v.copy()})
        return entries

    def load_state(self, entries: dict) -> None:
        """Copy a ``state()`` back in. An entry that is missing or has
        another shape than the optimizer's is a FormatError."""
        for name, data in self.state().items():
            if name not in entries or np.shape(entries[name]) != data.shape:
                raise FormatError(f"Adam state: {name} missing or not of shape {data.shape}")
        for p, m, v in zip(self.params, self.m, self.v):
            m[...], v[...] = entries[f"{p.name}.m"], entries[f"{p.name}.v"]
        self.t = int(entries["t"])
