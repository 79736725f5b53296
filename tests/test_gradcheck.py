import numpy as np
import pytest

from normkit.errors import InvalidArgument
from normkit.generator import NormUnit, ReluUnit
from normkit.gradcheck import gradcheck
from normkit.tensor import RngStream


class TestGradcheckHarness:
    def test_linear_conv_quadratic_loss_near_exact(self):
        # conv is linear, the probe quadratic, so central differences have
        # no truncation error at all; a wide step just drowns the rounding
        from helpers import fd_grad, max_rel_err

        from normkit.layers import ConvParams, conv2d_backward, conv2d_forward

        rng = RngStream(7)
        x = rng.normal((1, 2, 4, 4))
        p = ConvParams(rng.normal((2, 2, 3, 3)), None, stride=1, padding_mode="zero", pad=1)

        def loss():
            y, _ = conv2d_forward(x, p)
            return 0.5 * float((y * y).sum())

        y, cache = conv2d_forward(x, p)
        gx, gw, _ = conv2d_backward(y, cache, p)
        assert max_rel_err(gx, fd_grad(loss, x, h=1e-3)) < 1e-9
        assert max_rel_err(gw, fd_grad(loss, p.weights, h=1e-3)) < 1e-9

    def test_unknown_subject(self):
        with pytest.raises(InvalidArgument):
            gradcheck("nosuch")

    def test_bad_h(self):
        with pytest.raises(InvalidArgument):
            gradcheck("relu", h=0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_non_finite_h(self, h):
        with pytest.raises(InvalidArgument):
            gradcheck("relu", h=h)

    def test_single_subject(self):
        report = gradcheck("relu")
        assert set(report.keys()) == {"relu"}
        assert report["relu"] < 1e-9

    def test_upsample_conv_subject(self):
        # the fused decoder layer, reflect mode, with a bias
        assert gradcheck("upsample_conv")["upsample_conv"] < 1e-6

    @pytest.mark.parametrize("param", ["gamma", "beta"])
    @pytest.mark.parametrize("subject", ["batch_norm", "instance_norm"])
    def test_skewed_affine_gradient_caught(self, monkeypatch, subject, param):
        # the norm subjects must probe the learnable scale/shift, not just the input
        true_backward = NormUnit.backward

        def skewed(self, g, cache):
            gx, grads = true_backward(self, g, cache)
            grads[f"{self.name}.{param}"] = 1.01 * grads[f"{self.name}.{param}"]
            return gx, grads

        monkeypatch.setattr(NormUnit, "backward", skewed)
        assert gradcheck(subject)[subject] > 1e-3

    def test_nan_gradient_caught(self, monkeypatch):
        def nan_backward(self, g, cache):
            return np.full_like(g, np.nan), {}

        monkeypatch.setattr(ReluUnit, "backward", nan_backward)
        assert np.isnan(gradcheck("relu")["relu"])
