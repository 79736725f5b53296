"""Differentiable building blocks: convolution, ReLU, nearest upsampling.

Every forward returns ``(output, cache)``; the matching backward consumes
the cache and returns exact gradients of the forward map. Convolution is
cross-correlation (no kernel flip) so a direct nested-loop oracle matches
it term by term. Two padding modes are supported:

* ``zero``    - pad with zeros; backward drops gradient at padded cells.
* ``reflect`` - mirror without repeating the edge pixel; backward folds
                each mirrored border row and column back onto its source.

Convolution is im2col plus GEMM. The forward lays every instance's patches
out as one ``(T, OW*OH, C_in*K*K)`` stack and multiplies it by the
``(C_out, C_in*K*K)`` kernel matrix with a stacked ``matmul``, one GEMM per
instance. The backward's input-gradient columns come out as
``(T, C_in, K, K, OW, OH)``, so each of the ``K*K`` strided slice-adds into
the padded gradient reads contiguous ``(OW, OH)`` planes.
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
    cols: np.ndarray  # (T, OW*OH, C_in*K*K): one patch matrix per instance
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
    return _fold_reflect(_fold_reflect(g_padded, pad, 2), pad, 3)


def _fold_reflect(g: np.ndarray, pad: int, axis: int) -> np.ndarray:
    # adjoint of reflect padding along one axis: keep the interior, then add
    # each mirrored border row onto its source row (padded row pad-i mirrors
    # row i, padded row pad+n-1+i mirrors row n-1-i, for i in 1..pad)
    n = g.shape[axis] - 2 * pad

    def rows(*s):
        return (slice(None),) * axis + (slice(*s),)

    out = g[rows(pad, pad + n)].copy()
    out[rows(1, pad + 1)] += g[rows(pad - 1, None, -1)]
    out[rows(n - 1 - pad, n - 1)] += g[rows(n + 2 * pad - 1, n + pad - 1, -1)]
    return out


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
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        x.shape[0], ow * oh, c_in * k * k
    )
    # stacked matmul: one GEMM per instance. BLAS blocking varies with the
    # matrix height, so one GEMM over all T*OW*OH rows would break instance
    # norm's contract that a row is bitwise independent of its companions
    y = np.matmul(w_mat, cols.transpose(0, 2, 1)).reshape(x.shape[0], c_out, ow, oh)
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
    g_mat = grad_out.reshape(t_count, c_out, ow * oh)
    grad_w = np.matmul(g_mat, cache.cols).sum(axis=0).reshape(p.weights.shape)
    # (T, C_in, K, K, OW, OH): each kernel offset's gradient is a contiguous
    # (OW, OH) plane per channel
    gcols = np.matmul(w_mat.T, g_mat).reshape(t_count, c_in, k, k, ow, oh)

    # scatter grad onto padded input: one strided slice-add per kernel offset
    gxp = np.zeros(cache.padded_shape)
    s = p.stride
    for kw in range(k):
        for kh in range(k):
            gxp[:, :, kw : kw + ow * s : s, kh : kh + oh * s : s] += gcols[:, :, kw, kh]
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
    # sum within each block row, then across rows: for factor 2 that is
    # (g00 + g01) + (g10 + g11), bitwise numpy's sum over the reshaped blocks
    rows = grad_out[..., 0::factor]
    for j in range(1, factor):
        rows = rows + grad_out[..., j::factor]
    out = rows[..., 0::factor, :]
    for i in range(1, factor):
        out = out + rows[..., i::factor, :]
    return out
