"""Minimal differentiable-layer toolkit backing the two classifiers."""

from ._heap import tune_malloc

tune_malloc()

from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Chain,
    Conv2d,
    ConvBlock,
    Dense,
    Dropout,
    Layer,
    Mean,
    Param,
    ReLU,
    softmax,
)
from .loss import add_l2_grads, cross_entropy, l2_penalty, loss_ce_l2
from .optim import Adam, TrainConfig
from .rnn import BiGRU
from .gradcheck import grad_check, standard_suite
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "AvgPool2d",
    "BatchNorm2d",
    "BiGRU",
    "Chain",
    "Conv2d",
    "ConvBlock",
    "Dense",
    "Dropout",
    "Layer",
    "Mean",
    "Param",
    "ReLU",
    "TrainConfig",
    "add_l2_grads",
    "cross_entropy",
    "grad_check",
    "l2_penalty",
    "load_checkpoint",
    "loss_ce_l2",
    "save_checkpoint",
    "softmax",
    "standard_suite",
]
