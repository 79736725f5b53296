import dataclasses

import numpy as np
import pytest
from helpers import (
    fd_grad,
    max_rel_err,
    naive_conv2d,
    traced_peak,
    upsample_nearest,
    upsample_nearest_adjoint,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from normkit import layers
from normkit.errors import (
    InvalidArgument,
    InvalidPadding,
    MissingForward,
    ShapeMismatch,
)
from normkit.layers import (
    ConvParams,
    conv2d_backward,
    conv2d_forward,
    upsample_conv_backward,
    upsample_conv_forward,
)
from normkit.generator import ReluUnit
from normkit.tensor import RngStream


def make_conv(rng, c_out, c_in, k, bias=True, stride=1, padding_mode="zero", pad=0):
    w = rng.normal((c_out, c_in, k, k))
    b = rng.normal((1, 1, 1, c_out)).ravel() if bias else None
    return ConvParams(w, b, stride=stride, padding_mode=padding_mode, pad=pad)


class TestConvForward:
    def test_identity_1x1_kernel(self):
        x = RngStream(1).normal((1, 1, 4, 4))
        p = ConvParams(np.ones((1, 1, 1, 1)), None)
        y, _ = conv2d_forward(x, p)
        assert np.array_equal(y, x)

    def test_reflect_averaging_preserves_constants(self):
        x = np.full((1, 1, 5, 5), 5.0)
        p = ConvParams(np.full((1, 1, 3, 3), 1.0 / 9.0), None, padding_mode="reflect", pad=1)
        y, _ = conv2d_forward(x, p)
        assert np.allclose(y, 5.0, atol=1e-12)
        assert y.shape == x.shape

    def test_matches_naive_oracle_seeded(self):
        rng = RngStream(7)
        x = rng.normal((1, 2, 5, 5))
        p = make_conv(rng, 3, 2, 3, bias=True, pad=1)
        y, _ = conv2d_forward(x, p)
        ref = naive_conv2d(x, p.weights, p.bias, p.stride, p.pad, p.padding_mode)
        assert np.max(np.abs(y - ref)) <= 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad,mode", [(0, "zero"), (1, "zero"), (1, "reflect"), (2, "reflect")])
    @pytest.mark.parametrize("k", [1, 3])
    def test_oracle_sweep(self, stride, pad, mode, k):
        if pad > 0 and k == 1 and mode == "reflect":
            pass  # still a valid case, keep it
        rng = RngStream(100 * stride + 10 * pad + k + (1 if mode == "reflect" else 0))
        x = rng.normal((2, 3, 6, 5))
        p = make_conv(rng, 2, 3, k, bias=True, stride=stride, padding_mode=mode, pad=pad)
        y, _ = conv2d_forward(x, p)
        ref = naive_conv2d(x, p.weights, p.bias, p.stride, p.pad, p.padding_mode)
        assert np.max(np.abs(y - ref)) <= 1e-12

    def test_same_padding_preserves_dims_both_modes(self):
        x = RngStream(3).normal((1, 2, 6, 7))
        for mode in ("zero", "reflect"):
            p = make_conv(RngStream(4), 2, 2, 3, padding_mode=mode, pad=1)
            y, _ = conv2d_forward(x, p)
            assert y.shape == (1, 2, 6, 7)

    def test_channel_mismatch(self):
        x = RngStream(1).normal((1, 2, 4, 4))
        p = make_conv(RngStream(2), 2, 3, 3)
        with pytest.raises(ShapeMismatch):
            conv2d_forward(x, p)

    def test_reflect_pad_bound(self):
        x = RngStream(1).normal((1, 1, 3, 3))
        p = make_conv(RngStream(2), 1, 1, 3, padding_mode="reflect", pad=3)
        with pytest.raises(InvalidPadding):
            conv2d_forward(x, p)

    def test_border_artifact_pair(self):
        # constant image, kernel with nonzero sum: reflect keeps the constant
        # everywhere, zero padding breaks it exactly at the borders
        x = np.full((1, 1, 6, 6), 2.0)
        w = RngStream(9).normal((1, 1, 3, 3)).reshape(1, 1, 3, 3)
        expect = 2.0 * w.sum()
        y_r, _ = conv2d_forward(x, ConvParams(w, None, padding_mode="reflect", pad=1))
        assert np.allclose(y_r, expect, atol=1e-12)
        y_z, _ = conv2d_forward(x, ConvParams(w, None, padding_mode="zero", pad=1))
        assert np.allclose(y_z[:, :, 1:-1, 1:-1], expect, atol=1e-12)
        assert not np.allclose(y_z[:, :, 0, :], expect, atol=1e-6)

    def test_forward_holds_one_patch_band(self):
        # every band is copied into one buffer, so above its padded input and
        # output a forward holds one band of patches, not two
        x = RngStream(15).normal((4, 8, 64, 64))
        p = make_conv(RngStream(16), 3, 8, 3, bias=True, padding_mode="reflect", pad=1)
        row_bytes = 8 * 8 * 9 * 64  # C_in * K * K * OH float64 per instance
        band_bytes = 4 * (layers.PATCH_BAND_BYTES // row_bytes) * row_bytes
        peak = traced_peak(conv2d_forward, x, p)
        y, cache = conv2d_forward(x, p)
        assert peak - y.nbytes - cache.xp.nbytes <= 1.1 * band_bytes


class TestConvBackward:
    def test_backward_holds_one_column_buffer(self):
        # every tap's input-gradient columns W^T @ g go into one reused
        # (T, C_in, n) buffer, so above its inputs, grad_x and the padded
        # gradient the backward holds one tap's columns, not every tap's
        x = RngStream(15).normal((4, 8, 64, 64))
        p = make_conv(RngStream(16), 3, 8, 3, bias=True, padding_mode="reflect", pad=1)
        col_bytes = 4 * 8 * (63 * 66 + 64) * 8  # T * C_in * n, n = (OW-1) * padded H + OH
        y, cache = conv2d_forward(x, p)
        g = RngStream(17).normal(y.shape)
        peak = traced_peak(conv2d_backward, g, cache, p)
        assert peak - x.nbytes - cache.xp.nbytes <= 1.5 * col_bytes

    @pytest.mark.parametrize("forward,x_shape,c_out,stride,col_bytes,copy_bytes", [
        # T * C_in * (31 * 33 + 32) on planes of 33 x 33, beside the four
        # parity planes of the (4, 8, 66, 66) padded input
        (conv2d_forward, (4, 8, 64, 64), 16, 2, 4 * 8 * (31 * 33 + 32) * 8, 4 * 8 * 66 * 66 * 8),
        # T * C_in * (31 * 34 + 32) on the 34 x 34 low-res plane, beside the
        # output gradient's phases padded to rows of 34: (4, 4, 8, 32 * 34)
        (upsample_conv_forward, (4, 16, 32, 32), 8, 1, 4 * 16 * (31 * 34 + 32) * 8,
         4 * 4 * 8 * 32 * 34 * 8),
    ])
    def test_stride_2_and_fused_backward_hold_one_column_buffer(self, forward, x_shape, c_out,
                                                                stride, col_bytes, copy_bytes):
        # the same bound at a 64x64 stride-2 conv and fused layer, above the
        # one image-sized copy each layer's layout adds
        x = RngStream(15).normal(x_shape)
        p = make_conv(RngStream(16), c_out, x_shape[1], 3, stride=stride, padding_mode="reflect",
                      pad=1)
        y, cache = forward(x, p)
        g = RngStream(17).normal(y.shape)
        peak = traced_peak(BACKWARD[forward], g, cache, p)
        assert peak - x.nbytes - cache.xp.nbytes - copy_bytes <= 1.5 * col_bytes

    def test_zero_grad_out(self):
        rng = RngStream(11)
        x = rng.normal((1, 2, 4, 4))
        p = make_conv(rng, 2, 2, 3, pad=1)
        y, cache = conv2d_forward(x, p)
        gx, gw, gb = conv2d_backward(np.zeros_like(y), cache, p)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_adjoint(self):
        x = RngStream(12).normal((1, 1, 4, 4))
        p = ConvParams(np.ones((1, 1, 1, 1)), None)
        y, cache = conv2d_forward(x, p)
        g = RngStream(13).normal(y.shape)
        gx, _, _ = conv2d_backward(g, cache, p)
        assert np.array_equal(gx, g)

    def test_missing_cache(self):
        p = make_conv(RngStream(1), 1, 1, 3)
        with pytest.raises(MissingForward):
            conv2d_backward(np.zeros((1, 1, 2, 2)), None, p)

    def test_grad_out_shape_check(self):
        rng = RngStream(14)
        x = rng.normal((1, 1, 4, 4))
        p = make_conv(rng, 1, 1, 3)
        _, cache = conv2d_forward(x, p)
        with pytest.raises(ShapeMismatch):
            conv2d_backward(np.zeros((1, 1, 4, 4)), cache, p)

    @pytest.mark.parametrize("mode,pad,stride", [("zero", 1, 1), ("reflect", 1, 1), ("zero", 0, 1), ("zero", 1, 2), ("reflect", 1, 2)])
    def test_gradients_match_finite_differences(self, mode, pad, stride):
        rng = RngStream(21)
        x = rng.normal((1, 2, 4, 4))
        p = make_conv(rng, 2, 2, 3, bias=True, stride=stride, padding_mode=mode, pad=pad)

        def loss():
            y, _ = conv2d_forward(x, p)
            return 0.5 * float((y * y).sum())

        y, cache = conv2d_forward(x, p)
        gx, gw, gb = conv2d_backward(y, cache, p)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert max_rel_err(gw, fd_grad(loss, p.weights)) < 1e-6
        assert max_rel_err(gb, fd_grad(loss, p.bias)) < 1e-6

    @pytest.mark.parametrize("mode", ["zero", "reflect"])
    def test_adjoint_identity(self, mode):
        # <L(x), u> == <x, L^T(u)> for the linear (bias-free) map
        rng = RngStream(31)
        x = rng.normal((2, 2, 5, 5))
        p = make_conv(rng, 3, 2, 3, bias=False, padding_mode=mode, pad=1)
        y, cache = conv2d_forward(x, p)
        u = rng.normal(y.shape)
        gx, _, _ = conv2d_backward(u, cache, p)
        assert abs(float((y * u).sum()) - float((x * gx).sum())) < 1e-10

    @pytest.mark.parametrize("size", [8, 32])
    @pytest.mark.parametrize("mode", ["zero", "reflect"])
    def test_rows_bitwise_independent_of_batch(self, mode, size):
        # BLAS picks kernels and blocking from the matrix shape. With numpy's
        # bundled OpenBLAS, one GEMM over all T*OW*OH rows rounds an
        # instance's rows differently from its lone GEMM at 8x8 (not at
        # 32x32), so 8x8 fails if the conv stops issuing per-instance GEMMs
        rng = RngStream(41)
        x = rng.normal((4, 16, size, size))
        p = make_conv(rng, 16, 16, 3, bias=True, padding_mode=mode, pad=1)
        y, cache = conv2d_forward(x, p)
        g = rng.normal(y.shape)
        gx, _, _ = conv2d_backward(g, cache, p)
        for t in range(4):
            y_t, cache_t = conv2d_forward(x[t : t + 1].copy(), p)
            gx_t, _, _ = conv2d_backward(g[t : t + 1].copy(), cache_t, p)
            assert np.array_equal(y[t : t + 1], y_t)
            assert np.array_equal(gx[t : t + 1], gx_t)


@st.composite
def conv_cases(draw):
    """(x, params) over shapes down to the smallest a reflect pad allows."""
    mode = draw(st.sampled_from(["zero", "reflect"]))
    pad = draw(st.integers(0, 4 if mode == "reflect" else 2))
    # reflect needs pad <= side - 1
    low = pad + 1 if mode == "reflect" else 1
    w, h = draw(st.integers(low, low + 4)), draw(st.integers(low, low + 4))
    k = draw(st.sampled_from([k for k in (1, 3, 5) if k <= min(w, h) + 2 * pad]))
    t, c_in, c_out = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = RngStream(draw(st.integers(0, 2**16)))
    x = rng.normal((t, c_in, w, h))
    p = make_conv(rng, c_out, c_in, k, bias=True, stride=draw(st.integers(1, 2)),
                  padding_mode=mode, pad=pad)
    return x, p


def check_conv_oracle_and_adjoint(x, p):
    y, _ = conv2d_forward(x, p)
    ref = naive_conv2d(x, p.weights, p.bias, p.stride, p.pad, p.padding_mode)
    assert np.max(np.abs(y - ref)) <= 1e-12
    # <L(x), u> == <x, L^T(u)> and == <w, dL/dw . u> for the bias-free map
    linear = ConvParams(p.weights, None, stride=p.stride, padding_mode=p.padding_mode,
                        pad=p.pad)
    y, cache = conv2d_forward(x, linear)
    u = RngStream(5).normal(y.shape)
    gx, gw, _ = conv2d_backward(u, cache, linear)
    yu = float((y * u).sum())
    assert abs(yu - float((x * gx).sum())) < 1e-10
    assert abs(yu - float((p.weights * gw).sum())) < 1e-10


class TestConvProperties:
    @given(conv_cases())
    def test_matches_oracle_and_adjoint(self, case):
        check_conv_oracle_and_adjoint(*case)


def rel_err(a, ref):
    return float(np.max(np.abs(a - ref))) / max(float(np.max(np.abs(ref))), 1e-300)


@st.composite
def upsample_conv_cases(draw):
    """(x, params) for the fused layer, low-res sides down to 1."""
    t, c_in, c_out = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = RngStream(draw(st.integers(0, 2**16)))
    x = rng.normal((t, c_in, w, h))
    p = make_conv(rng, c_out, c_in, 3, bias=draw(st.booleans()),
                  padding_mode=draw(st.sampled_from(["zero", "reflect"])), pad=1)
    return x, p


def check_upsample_conv_matches_upsample_then_conv(x, p):
    y, cache = upsample_conv_forward(x, p)
    ref, ref_cache = conv2d_forward(upsample_nearest(x, 2), p)
    assert y.shape == ref.shape
    assert np.max(np.abs(y - ref)) <= 1e-12
    g = RngStream(5).normal(y.shape)
    gx, gw, gb = upsample_conv_backward(g, cache, p)
    gu, ref_gw, ref_gb = conv2d_backward(g, ref_cache, p)
    assert rel_err(gx, upsample_nearest_adjoint(gu, 2)) <= 1e-12
    assert rel_err(gw, ref_gw) <= 1e-12
    if p.bias is None:
        assert gb is None
    else:
        assert rel_err(gb, ref_gb) <= 1e-12


class TestUpsampleConv:
    @given(upsample_conv_cases())
    def test_matches_upsample_then_conv(self, case):
        check_upsample_conv_matches_upsample_then_conv(*case)

    @pytest.mark.parametrize("size", [4, 6, 16])
    @pytest.mark.parametrize("mode", ["zero", "reflect"])
    def test_rows_bitwise_independent_of_batch(self, mode, size):
        # with numpy's bundled OpenBLAS, one GEMM per phase over all
        # instances rounds a row differently from its lone GEMM at 6x6
        # (not at 4x4 or 16x16), so 6x6 fails if per-instance GEMMs go
        rng = RngStream(43)
        x = rng.normal((4, 16, size, size))
        p = make_conv(rng, 16, 16, 3, bias=True, padding_mode=mode, pad=1)
        y, cache = upsample_conv_forward(x, p)
        g = rng.normal(y.shape)
        gx, _, _ = upsample_conv_backward(g, cache, p)
        for t in range(4):
            y_t, cache_t = upsample_conv_forward(x[t : t + 1].copy(), p)
            gx_t, _, _ = upsample_conv_backward(g[t : t + 1].copy(), cache_t, p)
            assert np.array_equal(y[t : t + 1], y_t)
            assert np.array_equal(gx[t : t + 1], gx_t)

    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (5, 1, 2), (3, 2, 1), (3, 1, 0)])
    def test_other_geometry_rejected(self, k, stride, pad):
        p = make_conv(RngStream(44), 2, 2, k, stride=stride, pad=pad)
        with pytest.raises(InvalidArgument):
            upsample_conv_forward(np.full((1, 2, 3, 3), 1.0), p)

    def test_channel_mismatch(self):
        p = make_conv(RngStream(45), 2, 3, 3, pad=1)
        with pytest.raises(ShapeMismatch):
            upsample_conv_forward(np.full((1, 2, 3, 3), 1.0), p)

    def test_missing_cache(self):
        p = make_conv(RngStream(46), 2, 2, 3, pad=1)
        with pytest.raises(MissingForward):
            upsample_conv_backward(np.zeros((1, 2, 4, 4)), None, p)


BACKWARD = {conv2d_forward: conv2d_backward, upsample_conv_forward: upsample_conv_backward}


def train_bands(cache, y):
    """The patch bands the forward builds from ``cache``'s padded input, at the current budget."""
    phases = cache.window[0]
    ow, oh = y.shape[2] // phases, y.shape[3] // phases
    # each band is a view of one reused buffer, so keep a copy of it
    return [patches.copy() for _, _, patches in layers._patch_bands(cache.xp, cache.window, ow, oh)]


def cache_arrays(obj):
    """Every array reachable from a cache through dataclass fields and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in cache_arrays(item)]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in cache_arrays(getattr(obj, f.name))]
    return []


# (forward, k, stride, pad): pad 0 caches a copy of the caller's input itself
TRAIN_CACHE_CASES = [
    (conv2d_forward, 1, 1, 0),
    (conv2d_forward, 3, 1, 1),
    (conv2d_forward, 3, 2, 1),
    (upsample_conv_forward, 3, 1, 1),
]


class TestTrainCache:
    """A forward caches its padded input, which it owns, and no patches."""

    @pytest.mark.parametrize("forward,k,stride,pad", TRAIN_CACHE_CASES)
    def test_no_cached_array_larger_than_padded_input(self, forward, k, stride, pad):
        rng = RngStream(60)
        x = rng.normal((2, 3, 9, 7))
        p = make_conv(rng, 4, 3, k, stride=stride, padding_mode="reflect", pad=pad)
        _, cache = forward(x, p)
        padded_bytes = 2 * 3 * (9 + 2 * pad) * (7 + 2 * pad) * 8
        assert max(a.nbytes for a in cache_arrays(cache)) <= padded_bytes

    @pytest.mark.parametrize("forward,k,stride,pad", TRAIN_CACHE_CASES)
    def test_backward_ignores_later_writes_to_the_input(self, forward, k, stride, pad):
        rng = RngStream(61)
        x = rng.normal((2, 3, 9, 7))
        p = make_conv(rng, 4, 3, k, stride=stride, padding_mode="reflect", pad=pad)
        y, cache = forward(x.copy(), p)
        g = rng.normal(y.shape)
        expected = BACKWARD[forward](g, cache, p)
        _, cache = forward(x, p)
        x[...] = rng.normal(x.shape)
        for got, want in zip(BACKWARD[forward](g, cache, p), expected):
            assert got.tobytes() == want.tobytes()


class TestBandedPath:
    """The oracle, adjoint and batch-independence contracts with every layer
    split into bands of one output row, and bands of several rows checked
    against one band."""

    @pytest.fixture(autouse=True, scope="class")
    def one_row_bands(self):
        # a budget below any row's patch bytes leaves one row per band
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "PATCH_BAND_BYTES", 1)
            yield

    @given(conv_cases())
    def test_conv_matches_oracle_and_adjoint(self, case):
        check_conv_oracle_and_adjoint(*case)

    @given(upsample_conv_cases())
    def test_upsample_conv_matches_upsample_then_conv(self, case):
        check_upsample_conv_matches_upsample_then_conv(*case)

    @pytest.mark.parametrize("size", [8, 32])
    @pytest.mark.parametrize("mode", ["zero", "reflect"])
    def test_conv_rows_bitwise_independent_of_batch(self, mode, size):
        TestConvBackward().test_rows_bitwise_independent_of_batch(mode, size)

    @pytest.mark.parametrize("size", [4, 6, 16])
    @pytest.mark.parametrize("mode", ["zero", "reflect"])
    def test_upsample_conv_rows_bitwise_independent_of_batch(self, mode, size):
        TestUpsampleConv().test_rows_bitwise_independent_of_batch(mode, size)

    @pytest.mark.parametrize("forward,k,stride,pad,side,row_bytes", [
        # conv: OH * C_in * K * K * 8 per output row; fused: 4 * C_in * 4 * H * 8
        (conv2d_forward, 3, 1, 1, 11, 13 * 3 * 9 * 8),
        (conv2d_forward, 3, 2, 1, 11, 7 * 3 * 9 * 8),
        (conv2d_forward, 1, 1, 0, 11, 13 * 3 * 8),
        (upsample_conv_forward, 3, 1, 1, 11, 4 * 3 * 4 * 13 * 8),
    ])
    def test_bands_of_three_rows_match_one_band(self, monkeypatch, forward, k, stride, pad, side,
                                                row_bytes):
        backward = BACKWARD[forward]
        rng = RngStream(47)
        x = rng.normal((2, 3, side, 13))
        p = make_conv(rng, 4, 3, k, stride=stride, padding_mode="reflect", pad=pad)
        y_one, cache_one = forward(x, p)
        g = rng.normal(y_one.shape)
        bands_one = train_bands(cache_one, y_one)
        grads_one = backward(g, cache_one, p)
        monkeypatch.setattr(layers, "PATCH_BAND_BYTES", 3 * row_bytes - 1)  # bands of 2
        y_two, _ = forward(x, p)
        monkeypatch.setattr(layers, "PATCH_BAND_BYTES", 3 * row_bytes)
        y_three, cache = forward(x, p)
        # side by side, the bands of one row and of three rows hold the same
        # patches
        bands = train_bands(cache, y_three)
        assert 1 < len(bands) < len(bands_one)
        assert np.array_equal(np.concatenate(bands, axis=3), np.concatenate(bands_one, axis=3))
        assert np.max(np.abs(y_three - y_one)) <= 1e-12
        assert np.max(np.abs(y_two - y_one)) <= 1e-12
        # the backward has no bands: it reads whole planes under any budget
        grad_x, grad_w, grad_b = backward(g, cache, p)
        assert grad_x.tobytes() == grads_one[0].tobytes()
        assert grad_w.tobytes() == grads_one[1].tobytes()
        assert grad_b.tobytes() == grads_one[2].tobytes()

    @pytest.mark.parametrize("forward,row_bytes", [
        (conv2d_forward, 13 * 3 * 9 * 8),  # OH * C_in * K * K * 8, OH = 13
        (upsample_conv_forward, 4 * 3 * 4 * 13 * 8),  # 4 phases * C_in * 2 * 2 * H * 8, H = 13
    ])
    def test_band_heights_follow_one_instances_row_bytes(self, monkeypatch, forward, row_bytes):
        # 3 rows per band; the batch size leaves the partition and every
        # band GEMM's operand layout unchanged
        monkeypatch.setattr(layers, "PATCH_BAND_BYTES", 3 * row_bytes)
        rng = RngStream(50)
        x = rng.normal((4, 3, 11, 13))
        p = make_conv(rng, 4, 3, 3, padding_mode="reflect", pad=1)
        layouts = set()
        for t_count in (1, 4):
            y, cache = forward(x[:t_count], p)
            bands = train_bands(cache, y)
            assert [patches.shape[3] // 13 for patches in bands] == [3, 3, 3, 2]
            for patches in bands:
                layouts.add((patches.shape[1:], patches.strides[1:]))
        assert len(layouts) == 2  # one for the bands of 3 rows, one for the last band

    def test_other_layers_cache_rejected_by_backward(self):
        # both layers return a ConvCache; each backward takes only its own
        rng = RngStream(51)
        p = make_conv(rng, 2, 2, 3, pad=1)
        y_conv, cache_conv = conv2d_forward(rng.normal((1, 2, 4, 4)), p)
        y_up, cache_up = upsample_conv_forward(rng.normal((1, 2, 2, 2)), p)
        assert y_conv.shape == y_up.shape
        with pytest.raises(MissingForward):
            conv2d_backward(np.zeros_like(y_up), cache_up, p)
        with pytest.raises(MissingForward):
            upsample_conv_backward(np.zeros_like(y_conv), cache_conv, p)


@st.composite
def batch_cases(draw):
    """(forward, x, params) for row independence of the input gradient."""
    forward, stride = draw(st.sampled_from(
        [(conv2d_forward, 1), (conv2d_forward, 2), (upsample_conv_forward, 1)]))
    side = st.integers(6, 24)
    t, c_in, c_out = draw(st.integers(2, 3)), draw(st.integers(1, 16)), draw(st.integers(1, 8))
    rng = RngStream(draw(st.integers(0, 2**16)))
    x = rng.normal((t, c_in, draw(side), draw(side)))
    p = make_conv(rng, c_out, c_in, 3, stride=stride,
                  padding_mode=draw(st.sampled_from(["zero", "reflect"])), pad=1)
    return forward, x, p


@settings(max_examples=50)
@given(batch_cases())
def test_input_gradient_rows_bitwise_independent_of_batch(case):
    # criterion 4 for grad_x: an instance's rows equal its solo backward's,
    # so no GEMM may run over more than one instance
    forward, x, p = case
    y, cache = forward(x, p)
    g = RngStream(5).normal(y.shape)
    grad_x = BACKWARD[forward](g, cache, p)[0]
    for t in range(x.shape[0]):
        _, cache_t = forward(x[t : t + 1].copy(), p)
        solo = BACKWARD[forward](g[t : t + 1].copy(), cache_t, p)[0]
        assert grad_x[t : t + 1].tobytes() == solo.tobytes()


class TestRelu:
    relu = ReluUnit("relu")

    def test_definition(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        y, _ = self.relu.forward(x, "train")
        assert np.array_equal(y.ravel(), [0.0, 0.0, 2.0])

    def test_identity_on_nonnegative(self):
        x = np.abs(RngStream(5).normal((1, 2, 3, 3)))
        y, _ = self.relu.forward(x, "train")
        assert np.array_equal(y, x)

    def test_gradient_matches_fd_away_from_kink(self):
        x = RngStream(6).normal((1, 2, 4, 4))
        x[np.abs(x) < 1e-3] = 0.5  # keep clear of the nondifferentiable point

        def loss():
            y, _ = self.relu.forward(x, "train")
            return 0.5 * float((y * y).sum())

        y, cache = self.relu.forward(x, "train")
        gx, grads = self.relu.backward(y, cache)
        assert grads == {}
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6

    def test_zero_subgradient_at_zero(self):
        x = np.zeros((1, 1, 2, 2))
        y, cache = self.relu.forward(x, "train")
        gx, _ = self.relu.backward(np.ones_like(y), cache)
        assert not gx.any()

    def test_missing_cache(self):
        with pytest.raises(MissingForward):
            self.relu.backward(np.zeros((1, 1, 2, 2)), None)


class TestUpsample:
    """The nearest upsample in helpers.py, the fused layer's oracle."""

    def test_factor_one_identity(self):
        x = RngStream(8).normal((1, 2, 3, 3))
        assert np.array_equal(upsample_nearest(x, 1), x)
        assert np.array_equal(upsample_nearest_adjoint(x, 1), x)

    def test_hand_case(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        y = upsample_nearest(x, 2)
        expect = np.array(
            [
                [1, 1, 2, 2],
                [1, 1, 2, 2],
                [3, 3, 4, 4],
                [3, 3, 4, 4],
            ],
            dtype=np.float64,
        ).reshape(1, 1, 4, 4)
        assert np.array_equal(y, expect)
        back = upsample_nearest_adjoint(np.ones_like(y), 2)
        assert np.all(back == 4.0)

    def test_forward_then_backward_counts(self):
        x = np.full((2, 3, 4, 4), 1.0)
        for f in (2, 3):
            y = upsample_nearest(x, f)
            assert np.all(upsample_nearest_adjoint(y, f) == f * f)

    @pytest.mark.parametrize("factor", [2, 3])
    def test_backward_matches_block_sum(self, factor):
        g = RngStream(10).normal((2, 3, 4 * factor, 2 * factor))
        blocks = g.reshape(2, 3, 4, factor, 2, factor).sum(axis=(3, 5))
        assert np.max(np.abs(upsample_nearest_adjoint(g, factor) - blocks)) < 1e-12

    def test_adjoint_identity(self):
        rng = RngStream(9)
        x = rng.normal((1, 2, 3, 4))
        y = upsample_nearest(x, 2)
        u = rng.normal(y.shape)
        assert abs(float((y * u).sum()) - float((x * upsample_nearest_adjoint(u, 2)).sum())) < 1e-10

    def test_adjoint_matches_finite_differences(self):
        x = RngStream(9).normal((1, 2, 3, 3))
        probe = RngStream(11).normal((1, 2, 6, 6))

        def f():
            return float((upsample_nearest(x, 2) * probe).sum())

        assert max_rel_err(upsample_nearest_adjoint(probe, 2), fd_grad(f, x)) < 1e-9
