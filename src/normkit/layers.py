"""Differentiable building blocks: convolution, ReLU, and nearest-upsample
x2 fused with the 3x3 conv that follows it.

Every forward returns ``(output, cache)``; the matching backward consumes
the cache and returns exact gradients of the forward map. Convolution is
cross-correlation (no kernel flip) so a direct nested-loop oracle matches
it term by term. Two padding modes are supported:

* ``zero``    - pad with zeros; backward drops gradient at padded cells.
* ``reflect`` - mirror without repeating the edge pixel; backward folds
                each mirrored border row and column back onto its source.

Convolution is im2col plus GEMM. The patches of every instance form one
``(T, OW*OH, C_in*K*K)`` stack, multiplied by the ``(C_out, C_in*K*K)``
kernel matrix with a stacked ``matmul``, one GEMM per instance. The backward's
input-gradient columns come out as ``(T, C_in, K, K, OW, OH)``, so each of the
``K*K`` strided slice-adds into the padded gradient reads contiguous
``(OW, OH)`` planes.

Both forwards run one loop over bands of output rows (low-res rows for the
fused layer): each band builds its patches and runs its own GEMMs, which read
at most ``PATCH_BAND_BYTES`` of patches per instance. A train forward keeps
every band in the full patch stack, the backward's cache; an eval forward
reuses one band-sized buffer and returns no cache, so its patch memory no
longer grows with the image. The band height
depends only on one instance's geometry, never on the batch size or the mode,
so every band GEMM sees the same operands in train and eval, batched or
alone: eval output equals train output bitwise, and an instance's rows stay
bitwise independent of its batch companions.

The fused upsample-conv convolves the nearest x2 upsample of ``x`` with a
3x3, stride-1, pad-1 kernel without building the upsampled map. Each output
pixel of one parity (phase) along an axis sees two distinct low-res
pixels: phase 0 weights them ``(w0, w1 + w2)``, phase 1 ``(w0 + w1, w2)``.
So the layer is four 2x2 convolutions on the low-res map padded by 1,
whose outputs interleave into the high-res result. Reflect padding at the
high resolution repeats the edge pixel at the low resolution; zero padding
stays zero. The patch stack is ``(T, 4, C_in*4, W*H)``, one GEMM per instance
and phase; the backward scatters its input gradient with 16 slice-adds.
"""

from __future__ import annotations

import math
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

# one instance's patch bytes per band GEMM; a band is at least one row
PATCH_BAND_BYTES = 1 << 20


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
class UpsampleConvCache:
    cols: np.ndarray  # (T, 4, C_in*4, W*H): one 2x2 patch matrix per instance and phase
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
    return _fold(_fold(g_padded, pad, 2), pad, 3)


def _fold(g: np.ndarray, pad: int, axis: int, edge: bool = False) -> np.ndarray:
    # adjoint of reflect padding along one axis: keep the interior, then add
    # each mirrored border row onto its source (padded row pad-i mirrors row i,
    # row pad+n-1+i mirrors row n-1-i, for i in 1..pad). Edge padding by 1 is
    # the same fold one row outward (both onto row 0 when the axis has one row)
    n = g.shape[axis] - 2 * pad
    o = 0 if edge else 1

    def rows(*s):
        return (slice(None),) * axis + (slice(*s),)

    out = g[rows(pad, pad + n)].copy()
    out[rows(o, o + pad)] += g[rows(pad - 1, None, -1)]
    out[rows(n - o - pad, n - o)] += g[rows(n + 2 * pad - 1, n + pad - 1, -1)]
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


def _patch_bands(shape: tuple, axis: int, rows: int, mode: str):
    """Split a ``(T, ...)`` patch stack into bands of whole output rows.

    ``shape[axis]`` holds ``rows`` rows of patches. Returns ``(cols, bands)``,
    where ``bands`` lists ``(r0, r1, patches, kept)``: rows ``[r0, r1)``, the
    buffer their patches are built in and their GEMMs read, and the slice of
    the full stack ``cols`` that train copies them into (None when
    ``patches`` already is that slice, and in eval, where ``cols`` is None).
    """
    if mode not in ("train", "eval"):
        raise InvalidArgument(f"mode must be 'train' or 'eval', got {mode!r}")
    row_len = shape[axis] // rows
    step = min(rows, max(1, PATCH_BAND_BYTES // (8 * math.prod(shape[1:]) // rows)))
    band_shape = shape[:axis] + (step * row_len,) + shape[axis + 1 :]
    cols = np.empty(shape) if mode == "train" else None
    # train builds a band in place where that slice of ``cols`` has the band
    # buffer's strides: one band, or a band of a leading axis. A band of the
    # last axis has other strides, and BLAS can round differently for them
    # (a strided ddot does), so train builds it in the band buffer too
    in_place = cols is not None and (step == rows or axis < len(shape) - 1)
    buf = cols if in_place else np.empty(band_shape)
    bands = []
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        band = (slice(None),) * axis + (slice(r0 * row_len, r1 * row_len),)
        if in_place:
            bands.append((r0, r1, cols[band], None))
        else:
            index = (slice(None),) * axis + (slice(0, (r1 - r0) * row_len),)
            bands.append((r0, r1, buf[index], None if cols is None else cols[band]))
    return cols, bands


def conv2d_forward(
    x: Tensor4, p: ConvParams, mode: str = "train"
) -> tuple[Tensor4, ConvCache | None]:
    """Cross-correlate ``x`` with ``p.weights`` under the declared padding/stride.

    Output spatial size is floor((S + 2*pad - K) / stride) + 1 per dimension.
    An eval forward returns no cache.
    """
    require_tensor4(x, "x")
    c_out, c_in, k, _ = p.weights.shape
    if x.shape[1] != c_in:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {c_in}")
    xp = _pad_input(x, p.pad, p.padding_mode)
    wp, hp = xp.shape[2], xp.shape[3]
    if wp < k or hp < k:
        raise InvalidShape(f"padded spatial dims {wp}x{hp} smaller than kernel {k}")
    t_count = x.shape[0]
    ow = (wp - k) // p.stride + 1
    oh = (hp - k) // p.stride + 1
    win = _windows(xp, k, p.stride, ow, oh)
    w_mat = p.weights.reshape(c_out, c_in * k * k)
    cols, bands = _patch_bands((t_count, ow * oh, c_in * k * k), 1, ow, mode)
    y = np.empty((t_count, c_out, ow * oh))
    for r0, r1, patches, _ in bands:
        patches.reshape(t_count, r1 - r0, oh, c_in, k, k)[...] = win[:, :, r0:r1].transpose(
            0, 2, 3, 1, 4, 5
        )
        # stacked matmul: one GEMM per instance. BLAS blocking varies with the
        # matrix height, so one GEMM over all T*OW*OH rows would break instance
        # norm's contract that a row is bitwise independent of its companions
        np.matmul(w_mat, patches.transpose(0, 2, 1), out=y[:, :, r0 * oh : r1 * oh])
    y = y.reshape(t_count, c_out, ow, oh)
    if p.bias is not None:
        y += p.bias[None, :, None, None]
    if cols is None:
        return y, None
    return y, ConvCache(cols=cols, padded_shape=xp.shape, in_shape=x.shape, out_shape=y.shape)


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


# along one axis of a nearest x2 upsample, 2x2 tap d of phase a sums the 3x3
# taps k with _AXIS_TAPS[a, d, k] == 1: phase 0 sees (w0, w1 + w2), phase 1
# (w0 + w1, w2). _PHASE_TAPS[(a, b, d, e), (k, l)] applies it along both axes,
# so the 2x2 weights of every phase are one small GEMM away from the 3x3 ones.
_AXIS_TAPS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_PHASE_TAPS = np.einsum("adk,bel->abdekl", _AXIS_TAPS, _AXIS_TAPS).reshape(16, 9)


def _phase_weights(w: np.ndarray) -> np.ndarray:
    # (C_out, C_in, 3, 3) -> (4, C_out, C_in*4), phases ordered (a, b)
    c_out, c_in = w.shape[:2]
    pw = (w.reshape(c_out * c_in, 9) @ _PHASE_TAPS.T).reshape(c_out, c_in, 4, 4)
    return pw.transpose(2, 0, 1, 3).reshape(4, c_out, c_in * 4)


def upsample_conv_forward(
    x: Tensor4, p: ConvParams, mode: str = "train"
) -> tuple[Tensor4, UpsampleConvCache | None]:
    """``conv2d_forward`` of ``x`` upsampled nearest x2, for a 3x3, stride-1, pad-1 ``p``.

    Output is ``(T, C_out, 2W, 2H)``; no upsampled tensor is built. An eval
    forward returns no cache.
    """
    require_tensor4(x, "x")
    c_out, c_in, k, _ = p.weights.shape
    if (k, p.stride, p.pad) != (3, 1, 1):
        raise InvalidArgument(
            f"upsample-conv needs a 3x3 kernel, stride 1 and pad 1, got "
            f"{k}x{k}, stride {p.stride}, pad {p.pad}"
        )
    if x.shape[1] != c_in:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {c_in}")
    t_count, _, w, h = x.shape
    # reflect at 2W mirrors onto the edge pixel's own copy, i.e. edge padding at W.
    # np.pad, not an index gather like _pad_input's: a gathered map comes out
    # channel-innermost, so the patch copies below stop reading contiguous rows
    # (16 channels at 128x128, 1 BLAS thread: 6 ms per eval forward against 11)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                mode="edge" if p.padding_mode == "reflect" else "constant")
    s0, s1, s2, s3 = xp.strides
    # (T, C, a, b, W, H, d, e): the 2x2 window of phase (a, b) starts at (a, b)
    win = as_strided(xp, shape=(t_count, c_in, 2, 2, w, h, 2, 2),
                     strides=(s0, s1, s2, s3, s2, s3, s2, s3), writeable=False)
    pw = _phase_weights(p.weights)
    cols, bands = _patch_bands((t_count, 4, c_in * 4, w * h), 3, w, mode)
    y = np.empty((t_count, c_out, 2 * w, 2 * h))
    # (T, C_out, W, a, H, b): output pixel (2i + a, 2j + b) of phase (a, b)
    y_split = y.reshape(t_count, c_out, w, 2, h, 2)
    for r0, r1, patches, kept in bands:
        patches.reshape(t_count, 2, 2, c_in, 2, 2, r1 - r0, h)[...] = (
            win[:, :, :, :, r0:r1].transpose(0, 2, 3, 1, 6, 7, 4, 5)
        )
        if kept is not None:
            kept[...] = patches
        # one GEMM per (instance, phase), as in conv2d_forward
        y_ph = np.matmul(pw, patches).reshape(t_count, 2, 2, c_out, r1 - r0, h)
        y_split[:, :, r0:r1] = y_ph.transpose(0, 3, 4, 1, 5, 2)
    if p.bias is not None:
        y += p.bias[None, :, None, None]
    if cols is None:
        return y, None
    return y, UpsampleConvCache(cols=cols, in_shape=x.shape, out_shape=y.shape)


def upsample_conv_backward(
    grad_out: Tensor4, cache: UpsampleConvCache, p: ConvParams
) -> tuple[Tensor4, np.ndarray, np.ndarray | None]:
    """Gradients of upsample_conv_forward w.r.t. input, weights, and bias."""
    if not isinstance(cache, UpsampleConvCache):
        raise MissingForward("upsample_conv_backward called without a forward cache")
    if grad_out.shape != cache.out_shape:
        raise ShapeMismatch(
            f"grad_out shape {grad_out.shape} != forward output {cache.out_shape}"
        )
    c_out, c_in = p.weights.shape[:2]
    t_count, _, w, h = cache.in_shape

    grad_b = grad_out.sum(axis=(0, 2, 3)) if p.bias is not None else None
    # (T, 4, C_out, W*H): the output gradient of each phase (a, b)
    g_ph = np.ascontiguousarray(
        grad_out.reshape(t_count, c_out, w, 2, h, 2).transpose(0, 3, 5, 1, 2, 4)
    ).reshape(t_count, 4, c_out, w * h)
    grad_pw = np.matmul(g_ph, cache.cols.transpose(0, 1, 3, 2)).sum(axis=0)
    # adjoint of the tap sums: (4, C_out, C_in*4) back to (C_out, C_in, 3, 3)
    grad_pw = grad_pw.reshape(4, c_out * c_in, 4).transpose(1, 0, 2).reshape(c_out * c_in, 16)
    grad_w = (grad_pw @ _PHASE_TAPS).reshape(p.weights.shape)
    # (T, a, b, C_in, d, e, W, H): contiguous (W, H) planes per channel
    gcols = np.matmul(_phase_weights(p.weights).transpose(0, 2, 1), g_ph).reshape(
        t_count, 2, 2, c_in, 2, 2, w, h
    )

    # 2x2 tap (d, e) of phase (a, b) read the padded input at offset (a+d, b+e)
    gxp = np.zeros((t_count, c_in, w + 2, h + 2))
    for a, b, d, e in np.ndindex(2, 2, 2, 2):
        gxp[:, :, a + d : a + d + w, b + e : b + e + h] += gcols[:, a, b, :, d, e]
    if p.padding_mode == "zero":
        return gxp[:, :, 1 : w + 1, 1 : h + 1].copy(), grad_w, grad_b
    return _fold(_fold(gxp, 1, 2, edge=True), 1, 3, edge=True), grad_w, grad_b
