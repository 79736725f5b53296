from pathlib import Path

import numpy as np
import pytest
from helpers import fd_grad, gram_all_pairs, max_rel_err
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normkit.errors import InvalidShape, MissingForward, ShapeMismatch
from normkit.loss import FeatureExtractor, StyleTarget, gram, gram_backward, total_loss
from normkit.tensor import RngStream, new_tensor, sample_gaussian


@pytest.fixture(scope="module")
def phi():
    return FeatureExtractor.seeded(seed=1001)


def smooth_image(seed, size=32):
    """Seeded image-like tensor in [0,1] with some spatial structure."""
    rng = RngStream(seed)
    x = rng.uniform((1, 3, size, size))
    # cheap blur to give the taps correlated structure
    x = 0.5 * x + 0.25 * np.roll(x, 1, axis=2) + 0.25 * np.roll(x, 1, axis=3)
    return x


class TestExtractor:
    def test_deterministic_given_seed(self, phi):
        x = smooth_image(1)
        f1, _ = phi.forward(x)
        f2, _ = FeatureExtractor.seeded(seed=1001).forward(x)
        for tap in phi.taps:
            assert np.array_equal(f1[tap], f2[tap])

    def test_zero_input_zero_features(self, phi):
        feats, _ = phi.forward(new_tensor((1, 3, 16, 16), 0.0))
        for tap in phi.taps:
            assert not feats[tap].any()

    def test_default_tap_shapes(self, phi):
        x = sample_gaussian(RngStream(2), (1, 3, 32, 32))
        feats, _ = phi.forward(x)
        assert feats[1].shape == (1, 8, 16, 16)
        assert feats[2].shape == (1, 16, 8, 8)
        assert feats[3].shape == (1, 16, 8, 8)

    def test_too_small_input_rejected(self, phi):
        with pytest.raises(InvalidShape):
            phi.forward(new_tensor((1, 3, 4, 4), 0.5))

    def test_wrong_channel_count_rejected(self, phi):
        with pytest.raises(InvalidShape):
            phi.forward(new_tensor((1, 1, 16, 16), 0.5))

    def test_entries_round_trip(self, phi, tmp_path):
        path = str(tmp_path / "phi.nrmk")
        phi.save(path)
        clone = FeatureExtractor.load(path)
        resaved = str(tmp_path / "phi2.nrmk")
        clone.save(resaved)
        assert Path(resaved).read_bytes() == Path(path).read_bytes()
        assert clone.style_taps == phi.style_taps
        assert clone.content_tap == phi.content_tap
        x = smooth_image(3)
        f1, _ = phi.forward(x)
        f2, _ = clone.forward(x)
        for tap in phi.taps:
            assert np.array_equal(f1[tap], f2[tap])


    def test_from_entries_owns_its_weights(self):
        # writing into a clone's weights must leave the source extractor alone
        source = FeatureExtractor.seeded(seed=1001)
        before = {name: value.copy() for name, value in source.to_entries().items()}
        clone = FeatureExtractor.from_entries(source.to_entries())
        for conv in clone.convs:
            conv.params.weights[...] = 0.0
        for name, value in source.to_entries().items():
            assert np.array_equal(value, before[name]), name


class TestGram:
    def test_all_ones(self):
        g = gram(new_tensor((1, 2, 2, 2), 1.0))
        assert np.array_equal(g, np.ones((1, 2, 2)))

    def test_all_zeros(self):
        assert not gram(new_tensor((1, 3, 2, 2), 0.0)).any()

    @given(st.integers(2, 4), st.integers(1, 16), st.integers(1, 32), st.integers(1, 32),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_batch_equals_per_instance_calls_bitwise(self, t, c, w, h, seed):
        # one GEMM per instance: no shape may let a row depend on its companions
        rng = RngStream(seed)
        f = rng.normal((t, c, w, h))
        grad_g = rng.normal((t, c, c))
        g, gf = gram(f), gram_backward(grad_g, f)
        assert np.array_equal(g, g.transpose(0, 2, 1))
        for n in range(t):
            one = slice(n, n + 1)
            assert gram(f[one]).tobytes() == g[one].tobytes()
            assert gram_backward(grad_g[one], f[one]).tobytes() == gf[one].tobytes()

    def test_one_site_is_the_outer_product(self):
        # a zero product sums to +0.0, so compare values; nonzero entries keep their bits
        v = np.array([-0.0, 1.5, -2.0])
        g = gram(v.reshape(1, 3, 1, 1))[0]
        assert np.array_equal(g, np.outer(v, v))
        assert g[1:, 1:].tobytes() == np.outer(v[1:], v[1:]).tobytes()

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @example(3, 1, 2, 5, 0)  # one channel, several instances
    def test_matches_all_pairs_oracle_bitwise(self, t, c, w, h, seed):
        # the oracle rounds each entry once; a GEMM sums in its own order, which
        # stays within 1e-13 of the entry's absolute product sum
        f = RngStream(seed).normal((t, c, w, h))
        flat = np.abs(f.reshape(t, c, w * h))
        scale = (flat[:, :, None, :] * flat[:, None, :, :]).sum(axis=3) / (w * h)
        assert (np.abs(gram(f) - gram_all_pairs(f)) <= 1e-13 * scale).all()

    def test_symmetric_bitwise(self):
        g = gram(sample_gaussian(RngStream(6), (1, 5, 3, 3)))
        assert np.array_equal(g, g.transpose(0, 2, 1))

    def test_psd_up_to_rounding(self, phi):
        target = StyleTarget.from_style_image(phi, smooth_image(7))
        for mat in target.gram_targets.values():
            probe_rng = RngStream(8)
            for _ in range(20):
                v = probe_rng.normal((1, 1, 1, mat.shape[1])).ravel()
                assert v @ mat[0] @ v >= -1e-8


class TestTotalLoss:
    def test_global_minimum_is_zero(self, phi):
        x = smooth_image(10)
        target = StyleTarget.from_style_image(phi, x)
        loss, grad = total_loss(target, phi, x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_style_term_zero_on_style_image(self, phi):
        style = smooth_image(11)
        target = StyleTarget.from_style_image(phi, style, alpha=0.0, beta=3.0)
        other = smooth_image(12)
        loss, _ = total_loss(target, phi, other, style.copy())
        assert loss < 1e-20

    def test_loss_nonnegative(self, phi):
        target = StyleTarget.from_style_image(phi, smooth_image(13))
        loss, _ = total_loss(target, phi, smooth_image(14), smooth_image(15))
        assert loss >= 0.0

    def test_beta_linearity(self, phi):
        style = smooth_image(16)
        content = smooth_image(17)
        output = smooth_image(18)
        t1 = StyleTarget.from_style_image(phi, style, alpha=0.0, beta=1.0)
        t2 = StyleTarget.from_style_image(phi, style, alpha=0.0, beta=2.0)
        l1, _ = total_loss(t1, phi, content, output)
        l2, _ = total_loss(t2, phi, content, output)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-12)

    def test_batch_loss_is_mean_of_instance_losses(self, phi):
        target = StyleTarget.from_style_image(phi, smooth_image(19))
        content = np.concatenate([smooth_image(20), smooth_image(21)], axis=0)
        output = np.concatenate([smooth_image(22), smooth_image(23)], axis=0)
        batch_loss, _ = total_loss(target, phi, content, output)
        per = [
            total_loss(target, phi, content[t : t + 1].copy(), output[t : t + 1].copy())[0]
            for t in range(2)
        ]
        assert batch_loss == pytest.approx(sum(per) / 2.0, rel=1e-12)

    def test_shape_mismatch_rejected(self, phi):
        target = StyleTarget.from_style_image(phi, smooth_image(24))
        with pytest.raises(ShapeMismatch):
            total_loss(target, phi, smooth_image(25, 32), smooth_image(26, 16))

    def test_gradient_matches_finite_differences(self, phi):
        style = smooth_image(27, 16)
        content = smooth_image(28, 16)
        output = smooth_image(29, 16)
        target = StyleTarget.from_style_image(phi, style)

        def f():
            return total_loss(target, phi, content, output)[0]

        _, grad = total_loss(target, phi, content, output)
        numeric = fd_grad(f, output)
        assert max_rel_err(grad, numeric) < 1e-5


class TestFeaturesBackward:
    def test_matches_finite_differences_per_tap(self, phi):
        x = smooth_image(30, 16)
        probes = {}
        feats, caches = phi.forward(x)
        rng = RngStream(31)
        for tap in phi.taps:
            probes[tap] = rng.normal(feats[tap].shape)

        def f():
            fs, _ = phi.forward(x)
            return float(sum((fs[tap] * probes[tap]).sum() for tap in phi.taps))

        grad = phi.backward(caches, probes)
        assert max_rel_err(grad, fd_grad(f, x)) < 1e-6

    def test_one_cache_short_rejected(self, phi):
        feats, caches = phi.forward(smooth_image(35, 16))
        with pytest.raises(MissingForward):
            phi.backward(caches[:-1], {tap: np.ones_like(feats[tap]) for tap in phi.taps})

    def test_blocks_past_deepest_tap_are_not_run(self, phi):
        # block 4 feeds no tap; poisoning it must change neither the loss
        # nor its gradient, and the saved file must still carry the block
        # (poisoned in memory: a weight file holding NaN fails to load)
        entries = phi.to_entries()
        assert max(phi.taps) < int(entries["meta.blocks"].ravel()[0])
        poisoned = FeatureExtractor.from_entries(entries)
        poisoned.convs[3].params.weights = np.full_like(entries["block4.w"], np.nan)
        assert np.isnan(poisoned.to_entries()["block4.w"]).all()
        style, content, output = smooth_image(32, 16), smooth_image(33, 16), smooth_image(34, 16)
        target = StyleTarget.from_style_image(phi, style)
        loss, grad = total_loss(target, phi, content, output)
        loss_p, grad_p = total_loss(target, poisoned, content, output)
        assert np.isfinite(loss_p) and np.isfinite(grad_p).all()
        assert loss_p == loss
        assert np.array_equal(grad_p, grad)
