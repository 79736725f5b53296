import numpy as np
import pytest
from helpers import fd_grad, max_rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

from normkit.errors import DegenerateInput, InvalidArgument, MissingForward, NotCalibrated
from normkit.generator import NormUnit
from normkit.norms import (
    RunningStats,
    batch_norm_forward,
    contrast_norm,
    instance_norm_forward,
    norm_backward,
)
from normkit.tensor import RngStream, new_tensor, sample_gaussian


class TestContrastNorm:
    def test_uniform_plane(self):
        y = contrast_norm(new_tensor((1, 1, 2, 2), 1.0))
        assert np.array_equal(y, np.full((1, 1, 2, 2), 0.25))

    def test_hand_values(self):
        x = np.array([1.0, 3.0]).reshape(1, 1, 2, 1)
        y = contrast_norm(x)
        assert np.array_equal(y.ravel(), [0.25, 0.75])

    def test_zero_sum_plane_rejected(self):
        x = new_tensor((1, 2, 2, 2), 1.0)
        x[0, 1] = 0.0
        with pytest.raises(DegenerateInput, match=r"t=0, i=1"):
            contrast_norm(x)


class TestInstanceNormForward:
    def test_hand_values_eps_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        y, cache = instance_norm_forward(x, eps=0.0)
        assert cache.mu.ravel()[0] == 2.5
        assert cache.var.ravel()[0] == 1.25
        expect = [-1.341641, -0.447214, 0.447214, 1.341641]
        assert np.allclose(y.ravel(), expect, atol=1e-6)

    def test_constant_input_gives_zeros(self):
        for eps in (1e-5, 1e-2, 1.0):
            y, _ = instance_norm_forward(new_tensor((2, 3, 4, 4), 9.0), eps=eps)
            assert not y.any()

    def test_scale_invariance_up_to_eps(self):
        x = sample_gaussian(RngStream(50), (2, 3, 8, 8))  # per-plane var ~ 1 >= 1e-2
        y, _ = instance_norm_forward(x, eps=1e-5)
        y_big, _ = instance_norm_forward(x * 1000.0, eps=1e-5)
        assert np.max(np.abs(y_big - y)) < 1e-3

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidArgument):
            instance_norm_forward(new_tensor((1, 1, 2, 2), 1.0), eps=-1e-5)

    def test_post_norm_statistics(self):
        x = sample_gaussian(RngStream(51), (3, 4, 6, 6))
        y, cache = instance_norm_forward(x, eps=1e-5)
        means = y.mean(axis=(2, 3))
        assert np.max(np.abs(means)) < 1e-9
        variances = y.var(axis=(2, 3))
        pre_var = cache.var.reshape(3, 4)
        assert np.all(pre_var >= 1e-2)
        assert np.all(variances >= 1.0 - 1e-3)
        assert np.all(variances <= 1.0 + 1e-12)

    def test_shift_scale_invariance(self):
        x = 2.0 * sample_gaussian(RngStream(52), (2, 2, 8, 8))
        y, _ = instance_norm_forward(x, eps=1e-5)
        for a in (0.1, 0.5, 2.0, 10.0):
            for b in (-1.0, 1.0):
                y2, _ = instance_norm_forward(a * x + b, eps=1e-5)
                assert np.max(np.abs(y2 - y)) < 1e-3


class TestBatchNormForward:
    def test_constant_input_train(self):
        y, _ = batch_norm_forward(new_tensor((2, 2, 3, 3), 4.0), mode="train")
        assert not y.any()

    def test_two_plane_hand_values(self):
        x = np.zeros((2, 1, 2, 2))
        x[1] = 2.0
        y, cache = batch_norm_forward(x, eps=1e-5, mode="train")
        assert cache.mu.ravel()[0] == 1.0
        assert cache.var.ravel()[0] == 1.0
        assert np.allclose(y[0], -0.999995, atol=1e-6)
        assert np.allclose(y[1], +0.999995, atol=1e-6)

    def test_t1_coincides_with_instance_norm(self):
        for seed in range(10):
            x = sample_gaussian(RngStream(seed), (1, 3, 5, 4))
            yb, _ = batch_norm_forward(x, eps=1e-5, mode="train")
            yi, _ = instance_norm_forward(x, eps=1e-5)
            assert np.max(np.abs(yb - yi)) <= 1e-12

    def test_running_stats_update_rule(self):
        rs = RunningStats(channels=2)
        x = sample_gaussian(RngStream(60), (2, 2, 4, 4))
        _, cache = batch_norm_forward(x, mode="train", rs=rs)
        expect_mu = 0.9 * np.zeros((1, 2, 1, 1)) + 0.1 * cache.mu
        expect_var = 0.9 * np.ones((1, 2, 1, 1)) + 0.1 * cache.var
        assert np.array_equal(rs.running_mu, expect_mu)
        assert np.array_equal(rs.running_var, expect_var)
        assert rs.sample_count == 1

    def test_eval_uses_running_stats_without_update(self):
        rs = RunningStats(channels=1)
        train_x = sample_gaussian(RngStream(61), (4, 1, 4, 4))
        batch_norm_forward(train_x, mode="train", rs=rs)
        saved_mu = rs.running_mu.copy()
        x = sample_gaussian(RngStream(62), (2, 1, 4, 4))
        y, _ = batch_norm_forward(x, mode="eval", rs=rs)
        expect = (x - rs.running_mu) / np.sqrt(rs.running_var + 1e-5)
        assert np.array_equal(y, expect)
        assert np.array_equal(rs.running_mu, saved_mu)
        assert rs.sample_count == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgument):
            batch_norm_forward(new_tensor((1, 1, 2, 2), 1.0), mode="test")

    def test_eval_before_training_rejected(self):
        with pytest.raises(NotCalibrated):
            batch_norm_forward(new_tensor((1, 1, 2, 2), 1.0), mode="eval", rs=RunningStats(channels=1))
        with pytest.raises(NotCalibrated):
            batch_norm_forward(new_tensor((1, 1, 2, 2), 1.0), mode="eval", rs=None)


class TestBatchCoupling:
    def test_instance_norm_per_instance_independence(self):
        x = sample_gaussian(RngStream(70), (3, 2, 4, 4))
        y_full, _ = instance_norm_forward(x)
        perturbed = x.copy()
        perturbed[1] += 5.0
        y_pert, _ = instance_norm_forward(perturbed)
        assert np.array_equal(y_full[0], y_pert[0])
        assert np.array_equal(y_full[2], y_pert[2])
        y_alone, _ = instance_norm_forward(x[0:1].copy())
        assert np.array_equal(y_full[0], y_alone[0])

    def test_batch_norm_couples_instances(self):
        x = sample_gaussian(RngStream(71), (3, 2, 4, 4))
        y_full, _ = batch_norm_forward(x, mode="train")
        perturbed = x.copy()
        perturbed[1] += 5.0
        y_pert, _ = batch_norm_forward(perturbed, mode="train")
        assert not np.array_equal(y_full[0], y_pert[0])

    def test_instance_norm_permutation_equivariance(self):
        x = sample_gaussian(RngStream(72), (4, 2, 3, 3))
        perm = [2, 0, 3, 1]
        y, _ = instance_norm_forward(x)
        y_perm, _ = instance_norm_forward(x[perm].copy())
        assert np.array_equal(y_perm, y[perm])

    def test_batch_norm_permutation_invariance(self):
        # identical up to summation-order rounding: the batch statistics
        # accumulate in a different order once instances are permuted
        x = sample_gaussian(RngStream(73), (4, 2, 3, 3))
        perm = [2, 0, 3, 1]
        y, _ = batch_norm_forward(x, mode="train")
        y_perm, _ = batch_norm_forward(x[perm].copy(), mode="train")
        assert np.max(np.abs(y_perm - y[perm])) < 1e-12


class TestNormBackward:
    def test_zero_grad(self):
        x = sample_gaussian(RngStream(80), (2, 2, 3, 3))
        y, cache = instance_norm_forward(x)
        assert not norm_backward(np.zeros_like(y), cache).any()

    def test_instance_grad_planes_sum_to_zero(self):
        x = sample_gaussian(RngStream(81), (2, 3, 4, 4))
        y, cache = instance_norm_forward(x)
        g = sample_gaussian(RngStream(82), y.shape)
        gx = norm_backward(g, cache)
        assert np.max(np.abs(gx.sum(axis=(2, 3)))) < 1e-10

    @pytest.mark.parametrize("which", ["batch", "instance"])
    def test_matches_finite_differences(self, which):
        # probe with a random linear functional: a pure quadratic loss is
        # degenerate here (normalized outputs have a nearly fixed norm)
        x = sample_gaussian(RngStream(83), (2, 2, 3, 3))
        probe = sample_gaussian(RngStream(84), (2, 2, 3, 3))

        def forward():
            if which == "batch":
                return batch_norm_forward(x, mode="train")
            return instance_norm_forward(x)

        def loss():
            y, _ = forward()
            return float((y * probe).sum())

        _, cache = forward()
        gx = norm_backward(probe, cache)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6

    @settings(max_examples=50)
    @given(kind=st.sampled_from(["batch", "instance"]),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
                           st.integers(1, 4)),
           eps=st.floats(1e-5, 1.0), affine=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_unit_matches_finite_differences(self, kind, shape, eps, affine, seed):
        # through NormUnit, so a random affine scale/shift and its gradients are covered
        unit = NormUnit("n", kind, shape[1], eps, affine)
        rng = RngStream(seed)
        x, probe = rng.normal(shape), rng.normal(shape)
        params = unit.parameters()
        for value in params.values():
            value[...] = rng.normal(value.shape)

        def loss():
            return float((unit.forward(x, "train")[0] * probe).sum())

        gx, grads = unit.backward(probe, unit.forward(x, "train")[1])
        pairs = [(gx, fd_grad(loss, x))] + [(grads[k], fd_grad(loss, v)) for k, v in params.items()]
        for analytic, numeric in pairs:
            # relative to the largest element: a group of one or two members
            # can have a gradient near 0 whose differences are all rounding
            assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max() + 1e-9

    def test_eval_backward_treats_stats_as_constants(self):
        rs = RunningStats(channels=2)
        batch_norm_forward(sample_gaussian(RngStream(84), (4, 2, 4, 4)), mode="train", rs=rs)
        x = sample_gaussian(RngStream(85), (1, 2, 3, 3))

        def loss():
            y, _ = batch_norm_forward(x, mode="eval", rs=rs)
            return 0.5 * float((y * y).sum())

        y, cache = batch_norm_forward(x, mode="eval", rs=rs)
        gx = norm_backward(y, cache)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-9

    def test_missing_cache(self):
        with pytest.raises(MissingForward):
            norm_backward(np.zeros((1, 1, 2, 2)), None)
