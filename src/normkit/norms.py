"""Contrast, batch, and instance normalization with exact backward passes.

The three variants differ only in what they reduce over:

* contrast:  y_tijk = x_tijk / sum_{l,m} x_tilm            (per (t,i) plane)
* batch:     y_tijk = (x_tijk - mu_i) / sqrt(var_i + eps)   reduced over (T,W,H)
* instance:  y_tijk = (x_tijk - mu_ti) / sqrt(var_ti + eps) reduced over (W,H)

Variances are biased (divide by the group size). Batch norm keeps
exponential running statistics for evaluation; instance norm behaves
identically in training and evaluation, which is the whole point of it.

A group is a numpy axis tuple: (0, 2, 3) for batch norm, (2, 3) for instance
norm. Every sum runs over a C-contiguous array, so its bits do not depend on
the input's memory layout, and an instance-norm group's sum is one row sum
that no other group touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, InvalidArgument, MissingForward, NotCalibrated, ShapeMismatch
from .tensor import Tensor4, require_tensor4

DEFAULT_EPS = 1e-5
DEFAULT_MOMENTUM = 0.1


@dataclass
class RunningStats:
    """Exponential moving averages of batch-norm statistics.

    Updated only by train-mode batch norm:
    r <- (1 - m) * r + m * batch_stat with m = DEFAULT_MOMENTUM. ``sample_count``
    counts update events; eval mode requires at least one.
    """

    channels: int
    running_mu: np.ndarray = field(default=None)
    running_var: np.ndarray = field(default=None)
    sample_count: int = 0

    def __post_init__(self):
        if self.running_mu is None:
            self.running_mu = np.zeros((1, self.channels, 1, 1))
        if self.running_var is None:
            self.running_var = np.ones((1, self.channels, 1, 1))


@dataclass
class NormCache:
    """Forward residue of a train-mode pass, consumed by the backward pass.

    ``mu`` and ``var`` are the per-group mean/variance the forward pass
    used: (1, C, 1, 1) for batch norm and (T, C, 1, 1) for instance norm,
    broadcastable against the input.
    """

    mu: np.ndarray
    var: np.ndarray
    normalized: np.ndarray
    inv_std: np.ndarray
    group_axes: tuple[int, ...]  # (0, 2, 3) for batch norm, (2, 3) for instance norm


def contrast_norm(x: Tensor4) -> Tensor4:
    """Divide every (t, i) spatial plane by its spatial sum.

    This is the motivating normalization the stack of convolutions cannot
    express; it is a standalone diagnostic, not a generator layer. There
    is no mean subtraction and no epsilon, so planes whose sum is within
    1e-12 of zero are rejected.
    """
    require_tensor4(x, "x")
    sums = np.ascontiguousarray(x).sum(axis=(2, 3), keepdims=True)
    bad = np.abs(sums) <= 1e-12
    if bad.any():
        t, i = np.argwhere(bad)[0][:2]
        raise DegenerateInput(
            f"spatial sum of plane (t={t}, i={i}) has magnitude <= 1e-12"
        )
    return x / sums


def _norm_forward(x, eps, group_axes, mu=None, var=None):
    x = np.ascontiguousarray(x)
    if mu is None:
        mu = x.mean(axis=group_axes, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=group_axes, keepdims=True)
    else:
        centered = x - mu
    std = np.sqrt(var + eps)
    return centered / std, mu, var, 1.0 / std


def batch_norm_forward(
    x: Tensor4,
    eps: float = DEFAULT_EPS,
    mode: str = "train",
    rs: RunningStats | None = None,
) -> tuple[Tensor4, NormCache | None]:
    """Normalize per channel over (T, W, H).

    Train mode uses batch statistics and updates ``rs``; eval mode
    normalizes with the running statistics, leaves them untouched and keeps
    no cache, so it cannot be backpropagated.
    """
    require_tensor4(x, "x")
    if eps < 0:
        raise InvalidArgument(f"eps must be >= 0, got {eps}")
    if mode not in ("train", "eval"):
        raise InvalidArgument(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" and (rs is None or rs.sample_count < 1):
        raise NotCalibrated("eval-mode batch norm requires trained running stats")
    if rs is not None and rs.running_mu.shape[1] != x.shape[1]:
        raise ShapeMismatch(
            f"running stats track {rs.running_mu.shape[1]} channels, input has {x.shape[1]}"
        )
    if mode == "eval":
        return _norm_forward(x, eps, (0, 2, 3), rs.running_mu, rs.running_var)[0], None
    y, mu, var, inv_std = _norm_forward(x, eps, (0, 2, 3))
    if rs is not None:
        m = DEFAULT_MOMENTUM
        rs.running_mu = (1.0 - m) * rs.running_mu + m * mu
        rs.running_var = (1.0 - m) * rs.running_var + m * var
        rs.sample_count += 1
    return y, NormCache(mu, var, normalized=y, inv_std=inv_std, group_axes=(0, 2, 3))


def instance_norm_forward(x: Tensor4, eps: float = DEFAULT_EPS) -> tuple[Tensor4, NormCache]:
    """Normalize per (t, i) pair over (W, H) only.

    No mode switch: the same map is applied during training and at test
    time, so each instance's contrast is discarded consistently.
    """
    require_tensor4(x, "x")
    if eps < 0:
        raise InvalidArgument(f"eps must be >= 0, got {eps}")
    y, mu, var, inv_std = _norm_forward(x, eps, (2, 3))
    return y, NormCache(mu, var, normalized=y, inv_std=inv_std, group_axes=(2, 3))


def norm_backward(grad_out: Tensor4, cache: NormCache) -> Tensor4:
    """Gradient of train-mode batch or instance norm w.r.t. its input.

    Differentiates through the group mean and variance; an eval-mode batch
    norm keeps no cache, so it has no backward.
    """
    if not isinstance(cache, NormCache):
        raise MissingForward("norm backward called without a forward cache")
    if grad_out.shape != cache.normalized.shape:
        raise ShapeMismatch(
            f"grad_out shape {grad_out.shape} != forward output {cache.normalized.shape}"
        )
    axes = cache.group_axes
    y = cache.normalized
    grad_out = np.ascontiguousarray(grad_out)
    g_mean = grad_out.mean(axis=axes, keepdims=True)
    gy_mean = (grad_out * y).mean(axis=axes, keepdims=True)
    return cache.inv_std * (grad_out - g_mean - y * gy_mean)
