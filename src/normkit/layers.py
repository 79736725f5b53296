"""Differentiable building blocks: convolution, ReLU, nearest upsampling.

Every forward returns ``(output, cache)``; the matching backward consumes
the cache and returns exact gradients of the forward map. Convolution is
cross-correlation (no kernel flip) so a direct nested-loop oracle matches
it term by term. Two padding modes are supported:

* ``zero``    - pad with zeros; backward drops gradient at padded cells.
* ``reflect`` - mirror without repeating the edge pixel; backward
                accumulates reflected contributions back onto their
                source pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    InvalidArgument,
    InvalidPadding,
    InvalidShape,
    MissingForward,
    ShapeMismatch,
)
from .tensor import Tensor4, require_tensor4

PADDING_MODES = ("zero", "reflect")


@dataclass
class ConvParams:
    """Convolution parameters: weights (C_out, C_in, K, K), optional bias (C_out,)."""

    weights: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding_mode: str = "zero"
    pad: int = 0

    def __post_init__(self):
        w = self.weights
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise InvalidShape(f"weights must be (C_out, C_in, K, K), got {w.shape}")
        if w.shape[2] % 2 != 1:
            raise InvalidShape(f"kernel size must be odd, got {w.shape[2]}")
        if self.bias is not None and self.bias.shape != (w.shape[0],):
            raise InvalidShape(
                f"bias must have shape ({w.shape[0]},), got {self.bias.shape}"
            )
        if self.stride < 1:
            raise InvalidArgument(f"stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise InvalidArgument(f"pad must be >= 0, got {self.pad}")
        if self.padding_mode not in PADDING_MODES:
            raise InvalidArgument(f"padding_mode must be one of {PADDING_MODES}")


@dataclass
class ConvCache:
    cols: list  # per instance: (OW*OH, C_in*K*K) patch matrix
    padded_shape: tuple
    in_shape: tuple
    out_shape: tuple


@dataclass
class ReluCache:
    x: np.ndarray


def _reflect_indices(size: int, pad: int) -> np.ndarray:
    # position p in [-pad, size+pad) maps to its mirror inside [0, size)
    p = np.arange(-pad, size + pad)
    return np.where(p < 0, -p, np.where(p >= size, 2 * size - 2 - p, p))


def _pad_input(x: Tensor4, pad: int, mode: str) -> np.ndarray:
    if pad == 0:
        return x
    T, C, W, H = x.shape
    if mode == "zero":
        out = np.zeros((T, C, W + 2 * pad, H + 2 * pad), dtype=np.float64)
        out[:, :, pad : pad + W, pad : pad + H] = x
        return out
    if pad > W - 1 or pad > H - 1:
        raise InvalidPadding(
            f"reflect pad {pad} needs pad <= W-1 and pad <= H-1, input is {W}x{H}"
        )
    iw = _reflect_indices(W, pad)
    ih = _reflect_indices(H, pad)
    return x[:, :, iw[:, None], ih[None, :]]


def _unpad_grad(g_padded: np.ndarray, in_shape: tuple, pad: int, mode: str) -> Tensor4:
    if pad == 0:
        return g_padded
    T, C, W, H = in_shape
    if mode == "zero":
        return g_padded[:, :, pad : pad + W, pad : pad + H].copy()
    iw = _reflect_indices(W, pad)
    ih = _reflect_indices(H, pad)
    gx = np.zeros(in_shape, dtype=np.float64)
    np.add.at(gx, (slice(None), slice(None), iw[:, None], ih[None, :]), g_padded)
    return gx


def _windows(xp: np.ndarray, kernel: int, stride: int, ow: int, oh: int) -> np.ndarray:
    # view with shape (T, C, OW, OH, K, K); no copy
    T, C = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    return as_strided(
        xp,
        shape=(T, C, ow, oh, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )


def conv2d_forward(x: Tensor4, p: ConvParams) -> tuple[Tensor4, ConvCache]:
    """Cross-correlate ``x`` with ``p.weights`` under the declared padding/stride.

    Output spatial size is floor((S + 2*pad - K) / stride) + 1 per dimension.
    """
    require_tensor4(x, "x")
    c_out, c_in, k, _ = p.weights.shape
    if x.shape[1] != c_in:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {c_in}")
    xp = _pad_input(x, p.pad, p.padding_mode)
    wp, hp = xp.shape[2], xp.shape[3]
    if wp < k or hp < k:
        raise InvalidShape(f"padded spatial dims {wp}x{hp} smaller than kernel {k}")
    ow = (wp - k) // p.stride + 1
    oh = (hp - k) // p.stride + 1
    win = _windows(xp, k, p.stride, ow, oh)
    w_mat = p.weights.reshape(c_out, c_in * k * k)
    # one GEMM per instance: the per-instance result is then bitwise
    # independent of its batch companions (BLAS blocking varies with the
    # batched matrix height, instance norm's independence contract doesn't)
    y = np.empty((x.shape[0], c_out, ow, oh))
    cols = []
    for t in range(x.shape[0]):
        cols_t = np.ascontiguousarray(win[t].transpose(1, 2, 0, 3, 4)).reshape(
            ow * oh, c_in * k * k
        )
        cols.append(cols_t)
        y[t] = (w_mat @ cols_t.T).reshape(c_out, ow, oh)
    if p.bias is not None:
        y += p.bias[None, :, None, None]
    cache = ConvCache(cols=cols, padded_shape=xp.shape, in_shape=x.shape, out_shape=y.shape)
    return y, cache


def conv2d_backward(
    grad_out: Tensor4, cache: ConvCache, p: ConvParams
) -> tuple[Tensor4, np.ndarray, np.ndarray | None]:
    """Gradients of conv2d_forward w.r.t. input, weights, and bias."""
    if not isinstance(cache, ConvCache):
        raise MissingForward("conv2d_backward called without a forward cache")
    if grad_out.shape != cache.out_shape:
        raise ShapeMismatch(
            f"grad_out shape {grad_out.shape} != forward output {cache.out_shape}"
        )
    c_out, c_in, k, _ = p.weights.shape
    t_count, _, ow, oh = cache.out_shape
    w_mat = p.weights.reshape(c_out, c_in * k * k)

    grad_b = grad_out.sum(axis=(0, 2, 3)) if p.bias is not None else None
    grad_w_mat = np.zeros((c_out, c_in * k * k))
    gcols = np.empty((t_count, ow, oh, c_in, k, k))
    for t in range(t_count):
        g_mat = grad_out[t].reshape(c_out, ow * oh)
        grad_w_mat += g_mat @ cache.cols[t]
        gcols[t] = (g_mat.T @ w_mat).reshape(ow, oh, c_in, k, k)
    grad_w = grad_w_mat.reshape(p.weights.shape)

    # scatter grad onto padded input: one strided slice-add per kernel offset
    gxp = np.zeros(cache.padded_shape)
    s = p.stride
    for kw in range(k):
        for kh in range(k):
            gxp[:, :, kw : kw + ow * s : s, kh : kh + oh * s : s] += gcols[
                :, :, :, :, kw, kh
            ].transpose(0, 3, 1, 2)
    grad_x = _unpad_grad(gxp, cache.in_shape, p.pad, p.padding_mode)
    return grad_x, grad_w, grad_b


def relu_forward(x: Tensor4) -> tuple[Tensor4, ReluCache]:
    """max(0, x) elementwise."""
    require_tensor4(x, "x")
    return np.maximum(x, 0.0), ReluCache(x=x)


def relu_backward(grad_out: Tensor4, cache: ReluCache) -> Tensor4:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0."""
    if not isinstance(cache, ReluCache):
        raise MissingForward("relu_backward called without a forward cache")
    if grad_out.shape != cache.x.shape:
        raise ShapeMismatch(
            f"grad_out shape {grad_out.shape} != forward input {cache.x.shape}"
        )
    return grad_out * (cache.x > 0.0)


def upsample_nearest_forward(x: Tensor4, factor: int) -> Tensor4:
    """Replicate every pixel into a factor x factor block."""
    require_tensor4(x, "x")
    if factor < 1:
        raise InvalidArgument(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return x.copy()
    return np.repeat(np.repeat(x, factor, axis=2), factor, axis=3)


def upsample_nearest_backward(grad_out: Tensor4, factor: int) -> Tensor4:
    """Adjoint of replication: sum each factor x factor block."""
    require_tensor4(grad_out, "grad_out")
    if factor < 1:
        raise InvalidArgument(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return grad_out.copy()
    T, C, W, H = grad_out.shape
    if W % factor or H % factor:
        raise ShapeMismatch(
            f"grad_out spatial dims {W}x{H} not divisible by factor {factor}"
        )
    blocks = grad_out.reshape(T, C, W // factor, factor, H // factor, factor)
    return blocks.sum(axis=(3, 5))
