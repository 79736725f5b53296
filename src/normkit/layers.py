"""Differentiable building blocks: convolution, ReLU, and nearest-upsample
x2 fused with the 3x3 conv that follows it.

Every forward returns ``(output, cache)``; the matching backward consumes
the cache and returns exact gradients of the forward map. Convolution is
cross-correlation (no kernel flip) so a direct nested-loop oracle matches
it term by term. Two padding modes are supported:

* ``zero``    - pad with zeros; backward drops gradient at padded cells.
* ``reflect`` - mirror without repeating the edge pixel; backward folds
                each mirrored border row and column back onto its source.

Both convolutions run on one im2col-plus-GEMM core over ``P = phases**2``
phases of ``k x k`` windows; conv is the one-phase case. The fused layer
convolves the nearest x2 upsample of ``x`` with a 3x3, stride-1, pad-1 kernel
without building the upsampled map. Each output pixel of one parity (phase)
along an axis sees two distinct low-res pixels: phase 0 weights them
``(w0, w1 + w2)``, phase 1 ``(w0 + w1, w2)``. So the layer is four 2x2
convolutions on the low-res map padded by 1, whose outputs interleave into
the high-res result. Reflect padding at the high resolution repeats the edge
pixel at the low resolution; zero padding stays zero.

The core's patches are tap-major, ``(T, P, C_in*k*k, OW*OH)``: each copy
reads contiguous rows of the padded input, and each phase's GEMM is
``(C_out, C_in*k*k) @ (C_in*k*k, OW*OH)``, run by a stacked ``matmul`` as one
GEMM per instance and phase. The backward's input-gradient columns come out
in the same layout, so each of the ``P*k*k`` strided slice-adds into the
padded gradient reads contiguous ``(OW, OH)`` planes.

The forward runs one loop over bands of output rows (low-res rows for the
fused layer). Every band is copied into one buffer of at most
``PATCH_BAND_BYTES`` per instance, allocated once per call, and runs its own
GEMMs; the last, shorter band is a contiguous prefix of that buffer, so
each band GEMM's operand has the shape and strides of a fresh array.
Training and inference run the same forward. It returns its padded input
as the cache, and the backward rebuilds each band from it with the same
generator, so no layer's full patch matrix is ever held; a caller that
will not backpropagate drops the cache. The band height depends only on
one instance's geometry, never on the batch size, so an instance's rows
stay bitwise independent of its batch companions.
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
    xp: np.ndarray  # the padded input, owned; the backward rebuilds its patch bands
    window: tuple  # (phases, k, stride, pad, np.pad mode)
    out_shape: tuple  # (T, C_out, phases*OW, phases*OH)


@dataclass
class ReluCache:
    x: np.ndarray


def _pad(x: Tensor4, pad: int, mode: str) -> np.ndarray:
    # mode is np.pad's: "constant" (zeros), "reflect" or "edge". A new array
    # even at pad 0, so the cache owns its padded input
    if mode == "reflect" and pad > min(x.shape[2:]) - 1:
        raise InvalidPadding(
            f"reflect pad {pad} needs pad <= W-1 and pad <= H-1, input is "
            f"{x.shape[2]}x{x.shape[3]}"
        )
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode=mode)


def _unpad(g: np.ndarray, pad: int, mode: str) -> np.ndarray:
    # adjoint of _pad
    if pad == 0:
        return g
    if mode == "constant":
        return g[:, :, pad:-pad, pad:-pad].copy()
    return _fold(_fold(g, pad, 2, mode == "edge"), pad, 3, mode == "edge")


def _fold(g: np.ndarray, pad: int, axis: int, edge: bool) -> np.ndarray:
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


def _conv_window(p: ConvParams) -> tuple:
    return (1, p.weights.shape[2], p.stride, p.pad,
            "constant" if p.padding_mode == "zero" else "reflect")


def _patch_gemm(
    x: Tensor4, window: tuple, w_ph: np.ndarray, bias: np.ndarray | None
) -> tuple[Tensor4, ConvCache]:
    """Correlate ``x`` with every phase's ``(C_out, C_in*k*k)`` kernel matrix in ``w_ph``.

    ``window`` is ``(phases, k, stride, pad, np.pad mode)``: the k x k windows
    of phase ``(a, b)`` start at padded pixel ``(a, b)`` and step by
    ``stride``, and window ``(i, j)`` gives output pixel
    ``(phases*i + a, phases*j + b)``. Returns ``(T, C_out, phases*OW,
    phases*OH)`` and the cache.
    """
    require_tensor4(x, "x")
    phases, k, stride, pad, pad_mode = window
    c_out, taps = w_ph.shape[1:]
    if x.shape[1] * k * k != taps:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {taps // (k * k)}")
    xp = _pad(x, pad, pad_mode)
    t_count, _, wp, hp = xp.shape
    ow = (wp - phases + 1 - k) // stride + 1
    oh = (hp - phases + 1 - k) // stride + 1
    if ow < 1 or oh < 1:
        raise InvalidShape(f"padded spatial dims {wp}x{hp} smaller than kernel {k}")
    y = np.empty((t_count, phases * phases, c_out, ow * oh))
    for r0, r1, patches in _patch_bands(xp, window, ow, oh):
        # stacked matmul: one GEMM per (instance, phase). BLAS blocking varies
        # with the matrix width, so one GEMM over all instances would break
        # instance norm's contract that a row is bitwise independent of its
        # companions
        np.matmul(w_ph, patches, out=y[..., r0 * oh : r1 * oh])
    if bias is not None:
        y += bias[:, None]
    # interleave the phases (a view for one phase)
    y = y.reshape(t_count, phases, phases, c_out, ow, oh).transpose(0, 3, 4, 1, 5, 2)
    y = y.reshape(t_count, c_out, phases * ow, phases * oh)
    return y, ConvCache(xp, window, y.shape)


def _patch_bands(xp: np.ndarray, window: tuple, ow: int, oh: int):
    """Yield ``(r0, r1, patches)`` over bands of output rows: tap-major ``(T, P,
    C_in*k*k, (r1-r0)*OH)`` copies of ``xp``'s windows. Forward and backward
    both build their bands here, so they share one partition and its bits.
    Every band is a view of one buffer, overwritten by the next band."""
    phases, k, stride = window[:3]
    t_count, c_in = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    # (T, C, a, b, OW, OH, d, e): no copy
    win = as_strided(xp, shape=(t_count, c_in, phases, phases, ow, oh, k, k),
                     strides=(s0, s1, s2, s3, s2 * stride, s3 * stride, s2, s3),
                     writeable=False)
    rows = min(ow, max(1, PATCH_BAND_BYTES // (8 * phases * phases * c_in * k * k * oh)))
    buf = np.empty(t_count * phases * phases * c_in * k * k * rows * oh)
    for r0 in range(0, ow, rows):
        r1 = min(r0 + rows, ow)
        shape = (t_count, phases * phases, c_in * k * k, (r1 - r0) * oh)
        patches = buf[: np.prod(shape)].reshape(shape)
        patches.reshape(t_count, phases, phases, c_in, k, k, r1 - r0, oh)[...] = (
            win[:, :, :, :, r0:r1].transpose(0, 2, 3, 1, 6, 7, 4, 5)
        )
        yield r0, r1, patches


def _patch_gemm_backward(
    grad_out: Tensor4, cache: ConvCache, window: tuple, w_ph: np.ndarray,
    bias: np.ndarray | None,
) -> tuple[Tensor4, np.ndarray, np.ndarray | None]:
    """Gradients of ``_patch_gemm`` w.r.t. ``x``, ``w_ph`` and ``bias``."""
    if not isinstance(cache, ConvCache) or cache.window != window:
        raise MissingForward("backward called without the cache of its forward")
    if grad_out.shape != cache.out_shape:
        raise ShapeMismatch(
            f"grad_out shape {grad_out.shape} != forward output {cache.out_shape}"
        )
    phases, k, stride, pad, pad_mode = window
    t_count, c_in, wp, hp = cache.xp.shape
    c_out = w_ph.shape[1]
    ow, oh = grad_out.shape[2] // phases, grad_out.shape[3] // phases
    grad_b = grad_out.sum(axis=(0, 2, 3)) if bias is not None else None
    # (T, P, C_out, OW*OH): the output gradient of each phase (a, b)
    g = np.ascontiguousarray(
        grad_out.reshape(t_count, c_out, ow, phases, oh, phases).transpose(0, 3, 5, 1, 2, 4)
    ).reshape(t_count, phases * phases, c_out, ow * oh)
    # the forward's bands, rebuilt one at a time from the cached padded input
    grad_w = np.add.reduce([
        np.matmul(g[..., r0 * oh : r1 * oh], patches.transpose(0, 1, 3, 2)).sum(axis=0)
        for r0, r1, patches in _patch_bands(cache.xp, window, ow, oh)
    ])
    # (T, a, b, C_in, d, e, OW, OH): contiguous (OW, OH) planes per channel
    gcols = np.matmul(w_ph.transpose(0, 2, 1), g).reshape(
        t_count, phases, phases, c_in, k, k, ow, oh
    )
    # tap (d, e) of phase (a, b) read the padded input at offset (a+d, b+e)
    gxp = np.zeros((t_count, c_in, wp, hp))
    s = stride
    for a, b, d, e in np.ndindex(phases, phases, k, k):
        gxp[:, :, a + d : a + d + ow * s : s, b + e : b + e + oh * s : s] += gcols[:, a, b, :, d, e]
    return _unpad(gxp, pad, pad_mode), grad_w, grad_b


def conv2d_forward(x: Tensor4, p: ConvParams) -> tuple[Tensor4, ConvCache]:
    """Cross-correlate ``x`` with ``p.weights`` under the declared padding/stride.

    Output spatial size is floor((S + 2*pad - K) / stride) + 1 per dimension.
    The cache holds the padded input; a caller that will not backpropagate
    drops it.
    """
    w_mat = p.weights.reshape(1, p.weights.shape[0], -1)
    return _patch_gemm(x, _conv_window(p), w_mat, p.bias)


def conv2d_backward(
    grad_out: Tensor4, cache: ConvCache, p: ConvParams
) -> tuple[Tensor4, np.ndarray, np.ndarray | None]:
    """Gradients of conv2d_forward w.r.t. input, weights, and bias."""
    w_mat = p.weights.reshape(1, p.weights.shape[0], -1)
    grad_x, grad_w, grad_b = _patch_gemm_backward(grad_out, cache, _conv_window(p), w_mat, p.bias)
    return grad_x, grad_w.reshape(p.weights.shape), grad_b


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


def _upsample_window(p: ConvParams) -> tuple:
    # reflect at 2W mirrors onto the edge pixel's own copy, i.e. edge padding at W
    return (2, 2, 1, 1, "constant" if p.padding_mode == "zero" else "edge")


def upsample_conv_forward(x: Tensor4, p: ConvParams) -> tuple[Tensor4, ConvCache]:
    """``conv2d_forward`` of ``x`` upsampled nearest x2, for a 3x3, stride-1, pad-1 ``p``.

    Output is ``(T, C_out, 2W, 2H)``; no upsampled tensor is built. The cache
    holds the low-res padded input, as ``conv2d_forward``'s does.
    """
    k = p.weights.shape[2]
    if (k, p.stride, p.pad) != (3, 1, 1):
        raise InvalidArgument(
            f"upsample-conv needs a 3x3 kernel, stride 1 and pad 1, got "
            f"{k}x{k}, stride {p.stride}, pad {p.pad}"
        )
    return _patch_gemm(x, _upsample_window(p), _phase_weights(p.weights), p.bias)


def upsample_conv_backward(
    grad_out: Tensor4, cache: ConvCache, p: ConvParams
) -> tuple[Tensor4, np.ndarray, np.ndarray | None]:
    """Gradients of upsample_conv_forward w.r.t. input, weights, and bias."""
    grad_x, grad_pw, grad_b = _patch_gemm_backward(
        grad_out, cache, _upsample_window(p), _phase_weights(p.weights), p.bias
    )
    # adjoint of the tap sums: (4, C_out, C_in*4) back to (C_out, C_in, 3, 3)
    c_out, c_in = p.weights.shape[:2]
    grad_pw = grad_pw.reshape(4, c_out * c_in, 4).transpose(1, 0, 2).reshape(c_out * c_in, 16)
    return grad_x, (grad_pw @ _PHASE_TAPS).reshape(p.weights.shape), grad_b
