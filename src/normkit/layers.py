"""Differentiable building blocks: convolution, and nearest-upsample x2 fused
with the 3x3 conv that follows it.

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

The forward's patches are tap-major, ``(T, P, C_in*k*k, OW*OH)``, and each
phase's GEMM ``(C_out, C_in*k*k) @ (C_in*k*k, OW*OH)`` runs through a stacked
``matmul`` as one GEMM per instance and phase, in bands of output rows
(low-res rows for the fused layer). Each band is copied into one buffer of
at most ``PATCH_BAND_BYTES`` per instance; the last, shorter band is its
contiguous prefix, so each band GEMM's operand has the shape and strides of
a fresh array. 256 KiB per instance keeps a batch of four's buffer inside a
2 MiB L2. Train and eval run the same forward, which returns its padded
input as the cache; a caller that will not backpropagate drops it.

The backward builds no patches and runs in no bands. It reads the cached
padded input as its ``s*s`` parity planes for stride ``s`` (at stride 1, one
plane and no copy), flattened to row width ``hq``. With each phase's output
gradient padded with zero columns to rows of ``hq``, tap ``(d, e)`` of phase
``(a, b)`` reads plane ``((a+d)%s, (b+e)%s)`` from flat offset
``((a+d)//s)*hq + (b+e)//s`` on (Dumoulin & Visin, arXiv:1603.07285): one
contiguous slice. So a tap's weight gradient is one stacked GEMM on the
cache, summed over T, and its input-gradient columns ``W_tap^T @ g``, one
stacked GEMM into one reused ``(T, C_in, n)`` buffer, go back with one
contiguous slice-add into the whole plane. Every GEMM has one instance's
shape whatever the batch size, and every input-gradient element takes its
tap contributions in tap order, so an instance's rows are bitwise
independent of its batch companions and of the forward's band budget.
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

# one instance's forward patch bytes per band; a band is at least one row
PATCH_BAND_BYTES = 1 << 18


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
    xp: np.ndarray  # the padded input, owned; the backward reads its parity planes
    window: tuple  # (phases, k, stride, pad, np.pad mode)
    out_shape: tuple  # (T, C_out, phases*OW, phases*OH)


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
    C_in*k*k, (r1-r0)*OH)`` copies of ``xp``'s windows. Every band is a view
    of one buffer, overwritten by the next band."""
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
        patches = buf[: math.prod(shape)].reshape(shape)
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
    grad_w, gxp = _shift_gemms(grad_out, cache.xp, window, w_ph)
    # _shift_gemms' buffers are gone; interleave the planes (a copy unless s == 1)
    t_count, s, _, c_in, wq, hq = gxp.shape
    gxp = gxp.transpose(0, 3, 4, 1, 5, 2).reshape(t_count, c_in, wq * s, hq * s)
    gxp = gxp[:, :, : cache.xp.shape[2], : cache.xp.shape[3]]
    grad_b = grad_out.sum(axis=(0, 2, 3)) if bias is not None else None
    return _unpad(gxp, *window[3:]), grad_w, grad_b


def _shift_gemms(grad_out: Tensor4, xp: np.ndarray, window: tuple, w_ph: np.ndarray):
    """``grad_w`` and the gradient of ``xp``'s parity planes, ``(T, s, s, C_in, wq, hq)``."""
    phases, k, s = window[:3]
    t_count, c_in, wp, hp = xp.shape
    p_count, c_out, kk = phases * phases, w_ph.shape[1], k * k
    ow, oh = grad_out.shape[2] // phases, grad_out.shape[3] // phases
    # plane (p, q) holds xp[:, :, p::s, q::s], zero-filled to wq x hq
    wq, hq = -(-wp // s), -(-hp // s)
    if wp % s or hp % s:
        xp = np.pad(xp, ((0, 0), (0, 0), (0, wq * s - wp), (0, hq * s - hp)))
    xq = xp.reshape(t_count, c_in, wq, s, hq, s).transpose(0, 3, 5, 1, 2, 4)
    xq = xq.reshape(t_count, s * s, c_in, wq * hq)  # a copy unless s == 1
    g = np.zeros((t_count, phases, phases, c_out, ow, hq))
    g[..., :oh] = grad_out.reshape(t_count, c_out, ow, phases, oh, phases).transpose(
        0, 3, 5, 1, 2, 4)
    # (T, P, C_out, n): the last row's zero columns would run past a plane's end
    n = (ow - 1) * hq + oh
    g = g.reshape(t_count, p_count, c_out, ow * hq)[..., :n]
    taps = [(a * phases + b, d * k + e, (a + d) % s * s + (b + e) % s,
             (a + d) // s * hq + (b + e) // s) for a, b, d, e in np.ndindex(phases, phases, k, k)]
    grad_w = np.empty((p_count, c_out, c_in, kk))
    for ph, tap, pl, off in taps:
        x_tap = xq[:, pl, :, off : off + n].transpose(0, 2, 1)
        grad_w[ph, :, :, tap] = np.matmul(g[:, ph], x_tap).sum(axis=0)
    # (P, kk, C_in, C_out): each tap's W^T is contiguous
    w_t = np.ascontiguousarray(w_ph.reshape(p_count, c_out, c_in, kk).transpose(0, 3, 2, 1))
    gq = np.zeros(xq.shape)
    cols = np.empty((t_count, c_in, n))
    for ph, tap, pl, off in taps:
        gq[:, pl, :, off : off + n] += np.matmul(w_t[ph, tap], g[:, ph], out=cols)
    return grad_w.reshape(p_count, c_out, c_in * kk), gq.reshape(t_count, s, s, c_in, wq, hq)


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
