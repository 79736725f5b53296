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
from normkit.tensor import RngStream


def group_sum_oracle(x, axes):
    """Each group over numpy ``axes``: its members alone, in ascending flat index order, summed."""
    members = {}
    for index in np.ndindex(x.shape):
        key = tuple(0 if a in axes else i for a, i in enumerate(index))
        members.setdefault(key, []).append(x[index])
    out = np.zeros(tuple(1 if a in axes else d for a, d in enumerate(x.shape)))
    for key, values in members.items():
        out[key] = np.array(values).sum()
    return out


class TestContrastNorm:
    def test_uniform_plane(self):
        y = contrast_norm(np.full((1, 1, 2, 2), 1.0))
        assert np.array_equal(y, np.full((1, 1, 2, 2), 0.25))

    def test_hand_values(self):
        x = np.array([1.0, 3.0]).reshape(1, 1, 2, 1)
        y = contrast_norm(x)
        assert np.array_equal(y.ravel(), [0.25, 0.75])

    def test_zero_sum_plane_rejected(self):
        x = np.full((1, 2, 2, 2), 1.0)
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
            y, _ = instance_norm_forward(np.full((2, 3, 4, 4), 9.0), eps=eps)
            assert not y.any()

    def test_scale_invariance_up_to_eps(self):
        x = RngStream(50).normal((2, 3, 8, 8))  # per-plane var ~ 1 >= 1e-2
        y, _ = instance_norm_forward(x, eps=1e-5)
        y_big, _ = instance_norm_forward(x * 1000.0, eps=1e-5)
        assert np.max(np.abs(y_big - y)) < 1e-3

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidArgument):
            instance_norm_forward(np.full((1, 1, 2, 2), 1.0), eps=-1e-5)

    def test_post_norm_statistics(self):
        x = RngStream(51).normal((3, 4, 6, 6))
        y, cache = instance_norm_forward(x, eps=1e-5)
        means = y.mean(axis=(2, 3))
        assert np.max(np.abs(means)) < 1e-9
        variances = y.var(axis=(2, 3))
        pre_var = cache.var.reshape(3, 4)
        assert np.all(pre_var >= 1e-2)
        assert np.all(variances >= 1.0 - 1e-3)
        assert np.all(variances <= 1.0 + 1e-12)

    def test_shift_scale_invariance(self):
        x = 2.0 * RngStream(52).normal((2, 2, 8, 8))
        y, _ = instance_norm_forward(x, eps=1e-5)
        for a in (0.1, 0.5, 2.0, 10.0):
            for b in (-1.0, 1.0):
                y2, _ = instance_norm_forward(a * x + b, eps=1e-5)
                assert np.max(np.abs(y2 - y)) < 1e-3


class TestBatchNormForward:
    def test_constant_input_train(self):
        y, _ = batch_norm_forward(np.full((2, 2, 3, 3), 4.0), mode="train")
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
            x = RngStream(seed).normal((1, 3, 5, 4))
            yb, _ = batch_norm_forward(x, eps=1e-5, mode="train")
            yi, _ = instance_norm_forward(x, eps=1e-5)
            assert np.max(np.abs(yb - yi)) <= 1e-12

    @settings(max_examples=50)
    @given(shape=st.tuples(st.just(1), st.integers(1, 6), st.integers(1, 8), st.integers(1, 8)),
           seed=st.integers(0, 2**32 - 1))
    def test_t1_train_batch_norm_is_instance_norm_bitwise(self, shape, seed):
        # at T=1 the (T, W, H) groups are the (W, H) groups, reduced in the
        # same member order, so the two norms are one map in both directions
        rng = RngStream(seed)
        x = rng.normal(shape)
        g = rng.normal(shape)
        yb, cache_b = batch_norm_forward(x, eps=1e-5, mode="train")
        yi, cache_i = instance_norm_forward(x, eps=1e-5)
        assert yb.tobytes() == yi.tobytes()
        assert norm_backward(g, cache_b).tobytes() == norm_backward(g, cache_i).tobytes()

    def test_running_stats_update_rule(self):
        rs = RunningStats(channels=2)
        x = RngStream(60).normal((2, 2, 4, 4))
        _, cache = batch_norm_forward(x, mode="train", rs=rs)
        expect_mu = 0.9 * np.zeros((1, 2, 1, 1)) + 0.1 * cache.mu
        expect_var = 0.9 * np.ones((1, 2, 1, 1)) + 0.1 * cache.var
        assert np.array_equal(rs.running_mu, expect_mu)
        assert np.array_equal(rs.running_var, expect_var)
        assert rs.sample_count == 1

    def test_eval_uses_running_stats_without_update(self):
        rs = RunningStats(channels=1)
        train_x = RngStream(61).normal((4, 1, 4, 4))
        batch_norm_forward(train_x, mode="train", rs=rs)
        saved_mu = rs.running_mu.copy()
        x = RngStream(62).normal((2, 1, 4, 4))
        y, _ = batch_norm_forward(x, mode="eval", rs=rs)
        expect = (x - rs.running_mu) / np.sqrt(rs.running_var + 1e-5)
        assert np.array_equal(y, expect)
        assert np.array_equal(rs.running_mu, saved_mu)
        assert rs.sample_count == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgument):
            batch_norm_forward(np.full((1, 1, 2, 2), 1.0), mode="test")

    def test_eval_before_training_rejected(self):
        with pytest.raises(NotCalibrated):
            batch_norm_forward(np.full((1, 1, 2, 2), 1.0), mode="eval", rs=RunningStats(channels=1))
        with pytest.raises(NotCalibrated):
            batch_norm_forward(np.full((1, 1, 2, 2), 1.0), mode="eval", rs=None)


class TestBatchCoupling:
    def test_instance_norm_per_instance_independence(self):
        x = RngStream(70).normal((3, 2, 4, 4))
        y_full, _ = instance_norm_forward(x)
        perturbed = x.copy()
        perturbed[1] += 5.0
        y_pert, _ = instance_norm_forward(perturbed)
        assert np.array_equal(y_full[0], y_pert[0])
        assert np.array_equal(y_full[2], y_pert[2])
        y_alone, _ = instance_norm_forward(x[0:1].copy())
        assert np.array_equal(y_full[0], y_alone[0])

    def test_batch_norm_couples_instances(self):
        x = RngStream(71).normal((3, 2, 4, 4))
        y_full, _ = batch_norm_forward(x, mode="train")
        perturbed = x.copy()
        perturbed[1] += 5.0
        y_pert, _ = batch_norm_forward(perturbed, mode="train")
        assert not np.array_equal(y_full[0], y_pert[0])

    def test_instance_norm_permutation_equivariance(self):
        x = RngStream(72).normal((4, 2, 3, 3))
        perm = [2, 0, 3, 1]
        y, _ = instance_norm_forward(x)
        y_perm, _ = instance_norm_forward(x[perm].copy())
        assert np.array_equal(y_perm, y[perm])

    def test_batch_norm_permutation_invariance(self):
        # identical up to summation-order rounding: the batch statistics
        # accumulate in a different order once instances are permuted
        x = RngStream(73).normal((4, 2, 3, 3))
        perm = [2, 0, 3, 1]
        y, _ = batch_norm_forward(x, mode="train")
        y_perm, _ = batch_norm_forward(x[perm].copy(), mode="train")
        assert np.max(np.abs(y_perm - y[perm])) < 1e-12


ORACLE_INPUTS = [
    pytest.param(RngStream(99).normal((2, 3, 4, 5)), id="random"),
    pytest.param(np.array([-0.0, 1.5, -2.0]).reshape(1, 3, 1, 1), id="one-member"),
    # 384 members per group: numpy's row sum splits rows longer than 128 in halves
    pytest.param(RngStream(98).normal((3, 2, 16, 24)), id="long-groups"),
]


def relaid(a, layout):
    """The same values as ``a`` in another memory layout."""
    if layout == "fortran":
        return np.asfortranarray(a)
    return np.ascontiguousarray(a.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)


class TestGroupStatistics:
    @pytest.mark.parametrize("x", ORACLE_INPUTS)
    def test_instance_mean_matches_oracle_bitwise(self, x):
        # each (t, c) plane is summed alone, so no batch companion can move its bits
        _, cache = instance_norm_forward(x)
        expect = group_sum_oracle(x, (2, 3)) / (x.shape[2] * x.shape[3])
        assert cache.mu.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("x", ORACLE_INPUTS)
    def test_batch_mean_matches_oracle(self, x):
        # numpy sums (T, W, H) one T slice at a time, not as one row, so only
        # within rounding: 1e-15 of the group's mean magnitude
        _, cache = batch_norm_forward(x, mode="train")
        expect = group_sum_oracle(x, (0, 2, 3)) / (x.shape[0] * x.shape[2] * x.shape[3])
        scale = np.abs(x).mean(axis=(0, 2, 3), keepdims=True)
        assert np.all(np.abs(cache.mu - expect) <= 1e-15 * scale)

    @settings(max_examples=50)
    @given(kind=st.sampled_from(["batch", "instance"]),
           layout=st.sampled_from(["fortran", "transposed"]),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9),
                           st.integers(1, 9)),
           seed=st.integers(0, 2**32 - 1))
    def test_bits_do_not_depend_on_memory_layout(self, kind, layout, shape, seed):
        rng = RngStream(seed)
        x, g = rng.normal(shape), rng.normal(shape)

        def run(x, g):
            if kind == "batch":
                y, cache = batch_norm_forward(x, mode="train")
            else:
                y, cache = instance_norm_forward(x)
            return y.tobytes(), cache.mu.tobytes(), norm_backward(g, cache).tobytes()

        assert run(relaid(x, layout), relaid(g, layout)) == run(x, g)


class TestNormBackward:
    def test_zero_grad(self):
        x = RngStream(80).normal((2, 2, 3, 3))
        y, cache = instance_norm_forward(x)
        assert not norm_backward(np.zeros_like(y), cache).any()

    def test_instance_grad_planes_sum_to_zero(self):
        x = RngStream(81).normal((2, 3, 4, 4))
        y, cache = instance_norm_forward(x)
        g = RngStream(82).normal(y.shape)
        gx = norm_backward(g, cache)
        assert np.max(np.abs(gx.sum(axis=(2, 3)))) < 1e-10

    @pytest.mark.parametrize("which", ["batch", "instance"])
    def test_matches_finite_differences(self, which):
        # probe with a random linear functional: a pure quadratic loss is
        # degenerate here (normalized outputs have a nearly fixed norm)
        x = RngStream(83).normal((2, 2, 3, 3))
        probe = RngStream(84).normal((2, 2, 3, 3))

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

    def test_eval_forward_keeps_no_cache(self):
        rs = RunningStats(channels=2)
        batch_norm_forward(RngStream(84).normal((4, 2, 4, 4)), mode="train", rs=rs)
        y, cache = batch_norm_forward(RngStream(85).normal((1, 2, 3, 3)), mode="eval", rs=rs)
        assert cache is None
        with pytest.raises(MissingForward):
            norm_backward(y, cache)

    def test_affine_unit_backward_after_eval_forward_raises(self):
        # the affine gradients read the cache too; norm_backward must reject it first
        unit = NormUnit("n", "batch", 2, 1e-5, affine=True)
        unit.forward(RngStream(86).normal((4, 2, 4, 4)), "train")
        y, cache = unit.forward(RngStream(87).normal((1, 2, 3, 3)), "eval")
        with pytest.raises(MissingForward):
            unit.backward(y, cache)

    def test_missing_cache(self):
        with pytest.raises(MissingForward):
            norm_backward(np.zeros((1, 1, 2, 2)), None)
