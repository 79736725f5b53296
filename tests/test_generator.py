import hashlib
import tracemalloc

import numpy as np
import pytest
from helpers import flip_bit
from normkit import layers
from normkit.errors import (
    FormatError,
    InvalidArgument,
    MissingForward,
    NotCalibrated,
    ShapeMismatch,
)
from normkit.generator import (
    Generator,
    GeneratorConfig,
    ResidualBlock,
    SigmoidUnit,
    UpsampleConvUnit,
    build,
)
from normkit.tensor import RngStream


def content_like(seed, t=1, size=16):
    return RngStream(seed).uniform((t, 3, size, size))


def noise_for(g, x, seed=99):
    nz = g.config.noise_channels
    if nz == 0:
        return None
    return RngStream(seed).normal((x.shape[0], nz, x.shape[2], x.shape[3]))


class TestBuild:
    def test_same_seed_same_parameters(self):
        a = build(GeneratorConfig(), RngStream(7))
        b = build(GeneratorConfig(), RngStream(7))
        pa, pb = a.parameters(), b.parameters()
        assert pa.keys() == pb.keys()
        for k in pa:
            assert np.array_equal(pa[k], pb[k])

    def test_norm_mode_does_not_change_conv_weights(self):
        bn = build(GeneratorConfig(norm_mode="batch"), RngStream(7))
        inn = build(GeneratorConfig(norm_mode="instance"), RngStream(7))
        none = build(GeneratorConfig(norm_mode="none"), RngStream(7))
        for k, v in bn.parameters().items():
            assert np.array_equal(v, inn.parameters()[k])
            if k.endswith(".w"):
                assert np.array_equal(v, none.parameters()[k])

    def test_parameter_count_parity_bn_in(self):
        bn = build(GeneratorConfig(norm_mode="batch"), RngStream(3))
        inn = build(GeneratorConfig(norm_mode="instance"), RngStream(3))
        count = lambda g: sum(v.size for v in g.parameters().values())
        assert count(bn) == count(inn)
        assert bn.parameters().keys() == inn.parameters().keys()

    def test_zero_residual_blocks_skeleton_count(self):
        g = build(GeneratorConfig(residual_blocks=0), RngStream(1))
        assert len(g.units) == 15
        g3 = build(GeneratorConfig(residual_blocks=3), RngStream(1))
        assert len(g3.units) == 18
        # each decoder stage's upsample runs inside its conv
        fused = {u.name for u in g.units if isinstance(u, UpsampleConvUnit)}
        assert fused == {"up1_conv", "up2_conv"}

    def test_fresh_parameters_match_recorded_checksum(self):
        # names, shapes and bytes of a default build, recorded before the
        # decoder's upsample and conv were fused; the weight file and the
        # equal-initialization contract depend on all three
        h = hashlib.sha256()
        for name, value in build(GeneratorConfig(), RngStream(7)).parameters().items():
            h.update(name.encode())
            h.update(str(value.shape).encode())
            h.update(value.tobytes())
        assert h.hexdigest() == (
            "11e12749e984948d03e272ff47443f8bd0b274f3ba74333e1fe18a0eea61abf0"
        )


class TestForward:
    def test_fully_convolutional_shapes(self):
        g = build(GeneratorConfig(), RngStream(11))  # one build, three sizes
        for size in (16, 32, 48):
            x = content_like(1, size=size)
            y, _ = g.forward(x, noise_for(g, x), mode="train")
            assert y.shape == (1, 3, size, size)
            assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_non_divisible_dims_rejected(self):
        g = build(GeneratorConfig(), RngStream(11))
        x = RngStream(1).uniform((1, 3, 30, 30))
        with pytest.raises(ShapeMismatch, match="divisible by 4"):
            g.forward(x, RngStream(2).normal((1, 1, 30, 30)))

    def test_wrong_noise_shape_rejected(self):
        g = build(GeneratorConfig(), RngStream(11))
        x = content_like(2)
        with pytest.raises(ShapeMismatch):
            g.forward(x, RngStream(2).normal((1, 1, 8, 8)))

    def test_unknown_mode_rejected(self):
        g = build(GeneratorConfig(), RngStream(11))
        x = content_like(2)
        with pytest.raises(InvalidArgument):
            g.forward(x, noise_for(g, x), mode="test")

    def test_instance_mode_contrast_invariance(self):
        g = build(GeneratorConfig(norm_mode="instance", noise_channels=0), RngStream(12))
        x = content_like(3, size=16)
        y, _ = g.forward(x, None)
        for a in (0.5, 2.0):
            ya, _ = g.forward(a * x, None)
            assert np.max(np.abs(ya - y)) < 1e-3

    def test_instance_mode_per_instance_independence(self):
        g = build(GeneratorConfig(norm_mode="instance"), RngStream(13))
        x = content_like(4, t=2)
        z = noise_for(g, x)
        y, _ = g.forward(x, z)
        solo0, _ = g.forward(x[0:1].copy(), z[0:1].copy())
        solo1, _ = g.forward(x[1:2].copy(), z[1:2].copy())
        assert np.array_equal(y[0:1], solo0)
        assert np.array_equal(y[1:2], solo1)

    def test_batch_mode_couples_instances(self):
        g = build(GeneratorConfig(norm_mode="batch"), RngStream(13))
        x = content_like(4, t=2)
        z = noise_for(g, x)
        y, _ = g.forward(x, z, mode="train")
        solo0, _ = g.forward(x[0:1].copy(), z[0:1].copy(), mode="train")
        assert not np.array_equal(y[0:1], solo0)

    def test_instance_mode_eval_equals_train(self):
        g = build(GeneratorConfig(norm_mode="instance"), RngStream(14))
        x = content_like(5)
        z = noise_for(g, x)
        y_train, _ = g.forward(x, z, mode="train")
        y_eval, _ = g.forward(x, z, mode="eval")
        assert np.array_equal(y_train, y_eval)

    @pytest.mark.parametrize("size", [128, 256])
    def test_instance_mode_eval_equals_train_in_bands(self, size):
        # at these sizes the default budget splits every conv into bands
        # (14 and 7 rows for head_conv); eval builds them one at a time
        g = build(GeneratorConfig(norm_mode="instance"), RngStream(14))
        x = content_like(5, size=size)
        z = noise_for(g, x)
        y_train, caches = g.forward(x, z, mode="train")
        del caches
        y_eval, _ = g.forward(x, z, mode="eval")
        assert np.array_equal(y_train, y_eval)

    def test_one_row_bands_keep_eval_equal_train_and_rows_independent(self, monkeypatch):
        monkeypatch.setattr(layers, "PATCH_BAND_BYTES", 1)
        self.test_instance_mode_eval_equals_train()
        self.test_instance_mode_per_instance_independence()

    def test_batch_mode_eval_without_training_rejected(self):
        g = build(GeneratorConfig(norm_mode="batch"), RngStream(14))
        x = content_like(6)
        with pytest.raises(NotCalibrated):
            g.forward(x, noise_for(g, x), mode="eval")

    def test_batch_mode_eval_after_training_batch(self):
        g = build(GeneratorConfig(norm_mode="batch"), RngStream(14))
        x = content_like(6, t=2)
        z = noise_for(g, x)
        g.forward(x, z, mode="train")
        y, _ = g.forward(x, z, mode="eval")
        assert y.shape == (2, 3, 16, 16)


class TestBackward:
    def test_zero_grad_out_zero_param_grads(self):
        g = build(GeneratorConfig(), RngStream(20))
        x = content_like(7)
        y, caches = g.forward(x, noise_for(g, x))
        grads = g.backward(np.zeros_like(y), caches)
        assert grads.keys() == g.parameters().keys()
        for v in grads.values():
            assert not v.any()

    def test_missing_caches_rejected(self):
        g = build(GeneratorConfig(), RngStream(20))
        with pytest.raises(MissingForward):
            g.backward(np.zeros((1, 3, 16, 16)), None)

    def test_eval_forward_keeps_no_caches(self):
        g = build(GeneratorConfig(), RngStream(20))
        x = content_like(7)
        y, caches = g.forward(x, noise_for(g, x), mode="eval")
        with pytest.raises(MissingForward):
            g.backward(np.zeros_like(y), caches)

    def test_residual_block_backward_after_eval_forward_rejected(self):
        # an eval walk returns no caches; the block must not read that as
        # a block with nothing to differentiate and pass the gradient through
        block = build(GeneratorConfig(), RngStream(20)).units[7]
        assert isinstance(block, ResidualBlock)
        x = RngStream(8).normal((1, 32, 8, 8))
        y, caches = block.forward(x, "eval")
        with pytest.raises(MissingForward):
            block.backward(np.ones_like(y), caches)

    def test_eval_forward_peak_memory_below_half_of_train(self):
        # numpy reports its buffers to tracemalloc, so the peaks repeat exactly
        g = build(GeneratorConfig(norm_mode="instance"), RngStream(21))
        x = content_like(8, size=128)
        z = noise_for(g, x)
        peaks = {}
        for mode in ("train", "eval"):
            tracemalloc.start()
            try:
                g.forward(x, z, mode=mode)
                peaks[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["eval"] < peaks["train"] / 2

    def test_eval_forward_peak_memory_at_256_within_3_5_activations(self):
        # an eval forward holds one band of patches per conv, never a
        # full-image patch matrix, and the walk drops each unit's cache as
        # the unit returns, so its peak stays a few activations
        g = build(GeneratorConfig(norm_mode="instance"), RngStream(21))
        x = content_like(8, size=256)
        z = noise_for(g, x)
        activation = 8 * 8 * 256 * 256  # bytes of one (1, 8, 256, 256) float64 map
        tracemalloc.start()
        try:
            g.forward(x, z, mode="eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * activation

    def test_train_step_peak_memory_at_128_within_30_activations(self):
        # each train conv caches its padded input, not its patches, and the
        # backward rebuilds one band at a time, so a step holds no layer's
        # full patch matrix
        g = build(GeneratorConfig(norm_mode="instance"), RngStream(21))
        x = content_like(8, size=128)
        z = noise_for(g, x)
        activation = 8 * 8 * 128 * 128  # bytes of one (1, 8, 128, 128) float64 map
        tracemalloc.start()
        try:
            y, caches = g.forward(x, z, mode="train")
            g.backward(np.ones_like(y), caches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * activation

    @pytest.mark.parametrize("norm_mode", ["none", "batch", "instance"])
    def test_sampled_parameter_gradients_match_fd(self, norm_mode):
        g = build(GeneratorConfig(norm_mode=norm_mode, residual_blocks=1), RngStream(21))
        x = content_like(8, size=8)
        z = noise_for(g, x)
        probe = RngStream(22).normal((1, 3, 8, 8))

        def loss():
            y, _ = g.forward(x, z, mode="train")
            return float((y * probe).sum())

        y, caches = g.forward(x, z, mode="train")
        grads = g.backward(probe, caches)

        rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        params = g.parameters()
        names = sorted(params.keys())
        worst = 0.0
        h = 1e-5
        for _ in range(12):
            name = names[rng.integers(0, len(names))]
            arr = params[name]
            flat_idx = int(rng.integers(0, arr.size))
            idx = np.unravel_index(flat_idx, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            fp = loss()
            arr[idx] = orig - h
            fm = loss()
            arr[idx] = orig
            numeric = (fp - fm) / (2 * h)
            analytic = grads[name][idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_bn_and_in_gradients_differ(self):
        x = content_like(9, t=2)
        outs = {}
        for mode in ("batch", "instance"):
            g = build(GeneratorConfig(norm_mode=mode), RngStream(23))
            z = noise_for(g, x)
            y, caches = g.forward(x, z, mode="train")
            grads = g.backward(np.ones_like(y), caches)
            outs[mode] = grads["stem_conv.w"]
        assert not np.array_equal(outs["batch"], outs["instance"])


class TestSigmoid:
    def test_matches_two_branch_reference_bitwise(self):
        def reference(x):
            y = np.empty_like(x)
            pos = x >= 0
            y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            y[~pos] = ex / (1.0 + ex)
            return y

        tiny = np.finfo(np.float64).tiny
        special = [0.0, np.inf, 709.0, 745.0, 1e308, tiny, tiny / 2, 5e-324, 1.0]
        special = np.array(special + [-v for v in special])
        x = np.concatenate([special, RngStream(24).normal(4096) * 20.0]).reshape(1, 1, 2, -1)
        y, cache = SigmoidUnit("s").forward(x, "eval")
        assert np.array_equal(y, reference(x))
        assert np.array_equal(np.signbit(y), np.signbit(reference(x)))
        assert cache is y


class TestPersistence:
    @pytest.mark.parametrize("norm_mode,affine", [("instance", False), ("batch", True), ("none", False)])
    def test_round_trip(self, tmp_path, norm_mode, affine):
        g = build(GeneratorConfig(norm_mode=norm_mode, affine=affine), RngStream(30))
        x = content_like(10, t=2)
        z = noise_for(g, x)
        if norm_mode == "batch":
            g.forward(x, z, mode="train")  # populate running stats
        path = str(tmp_path / "gen.nrmk")
        g.save(path)
        clone = Generator.load(path)
        assert clone.config == g.config
        for k, v in g.parameters().items():
            assert np.array_equal(v, clone.parameters()[k])
        mode = "eval" if norm_mode == "batch" else "train"
        y1, _ = g.forward(x, z, mode=mode)
        y2, _ = clone.forward(x, z, mode=mode)
        assert np.array_equal(y1, y2)

    def test_load_draws_nothing_and_round_trips(self, tmp_path, monkeypatch):
        g = build(GeneratorConfig(norm_mode="batch"), RngStream(31))
        x = content_like(11, t=2)
        g.forward(x, noise_for(g, x), mode="train")
        first, second = str(tmp_path / "a.nrmk"), str(tmp_path / "b.nrmk")
        g.save(first)
        draws = []
        original = RngStream.normal
        monkeypatch.setattr(RngStream, "normal",
                            lambda self, shape: draws.append(shape) or original(self, shape))
        Generator.load(first).save(second)
        assert draws == []
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_every_meta_bit_flip_loads_or_is_rejected(self):
        # the decoded sizes are checked against the arrays before the skeleton
        # is built: flipping bit 56 of meta.base_channels (8 -> 524288) once
        # died building it, and bit 51 of meta.residual_blocks (3 -> 2) loaded
        # a 2-block generator that ignored res2.*
        entries = build(GeneratorConfig(norm_mode="batch"), RngStream(32)).to_entries()
        meta = [name for name in entries if name.startswith("meta.")]
        loaded = 0
        for name in meta:
            for bit in range(64):
                try:
                    Generator.from_entries(flip_bit(entries, name, bit))
                    loaded += 1
                except FormatError:
                    pass
        assert 0 < loaded < len(meta) * 64
        for name, bit in [("meta.base_channels", 56), ("meta.residual_blocks", 51)]:
            with pytest.raises(FormatError, match=name):
                Generator.from_entries(flip_bit(entries, name, bit))

    def test_unexpected_entry_rejected(self):
        entries = build(GeneratorConfig(residual_blocks=1), RngStream(33)).to_entries()
        entries["extra.w"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(FormatError, match="'extra.w'"):
            Generator.from_entries(entries)

    def test_extractor_kind_rejected(self):
        entries = build(GeneratorConfig(residual_blocks=1), RngStream(33)).to_entries()
        entries["meta.kind"] = np.full((1, 1, 1, 1), 2.0)
        with pytest.raises(FormatError, match="'meta.kind'"):
            Generator.from_entries(entries)
