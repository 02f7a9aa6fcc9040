"""Cross-entropy loss with L2 penalty and the fused softmax backward."""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError, ParameterError

CE_EPS = 1e-12


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the batch of -sum_c target * log(prob + 1e-12)."""
    if probs.shape != targets.shape:
        raise ParameterError(f"pred {probs.shape} vs target {targets.shape}")
    return float(-(targets * np.log(probs + CE_EPS)).sum() / probs.shape[0])


def l2_penalty(params, lam: float) -> float:
    """(lam/2) * sum of squared weights over decaying parameters."""
    total = 0.0
    for p in params:
        if p.decay:
            total += float(np.square(p.data, dtype=np.float64).sum())
    return 0.5 * lam * total


def loss_ce_l2(probs, targets, params=(), lam: float = 0.0):
    """Total loss and the fused softmax+CE gradient at the logits.

    Returns (loss, dlogits) with dlogits = (probs - targets)/B, the gradient
    of the CE term with respect to the pre-softmax activations. The L2 term
    covers decaying parameters only (running stats and biases excluded); its
    gradient is applied separately via ``add_l2_grads``.
    """
    if not np.all(np.isfinite(probs)):
        raise NumericalError("non-finite values in predictions")
    loss = cross_entropy(probs, targets) + l2_penalty(params, lam)
    dlogits = (probs - targets) / probs.shape[0]
    return loss, dlogits


def add_l2_grads(params, lam: float) -> None:
    """Accumulate the L2 gradient lam * w into decaying parameters."""
    if lam == 0.0:
        return
    for p in params:
        if p.decay:
            p.grad += lam * p.data
