import numpy as np
import pytest
from helpers import traced_peak, write_fixture

from normkit.errors import Diverged, InputError, InvalidArgument, ShapeMismatch
from normkit.generator import build
from normkit.loss import FeatureExtractor, StyleTarget, total_loss
from normkit.tensor import RngStream
from normkit.training import (
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_SHUFFLE,
    AdamState,
    TrainConfig,
    _BatchSampler,
    adam_step,
    config_echo,
    load_image_tensor,
    parameter_checksum,
    serialize_report,
    train,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixture")
    return write_fixture(str(directory))


def tiny_config(paths, style, **kw):
    defaults = dict(style=style, dataset=paths, steps=3, seed=7, batch_size=2,
                    base_channels=4, residual_blocks=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdam:
    def params(self):
        rng = RngStream(1)
        return {"a": rng.normal((1, 2, 3, 3)), "b": rng.normal((1, 1, 1, 4))}

    def test_zero_grad_leaves_params(self):
        params = self.params()
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=1e-3)
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_moments_decay_toward_zero_on_zero_grad(self):
        params = self.params()
        grads = {k: np.ones_like(v) for k, v in params.items()}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=1e-3)
        m_before = {k: v.copy() for k, v in state.m.items()}
        zero = {k: np.zeros_like(v) for k, v in params.items()}
        adam_step(params, zero, state, lr=1e-3)
        for k in params:
            assert np.array_equal(state.m[k], 0.9 * m_before[k])

    def test_first_step_closed_form(self):
        params = {"p": np.zeros((1, 1, 1, 1))}
        grads = {"p": np.ones((1, 1, 1, 1))}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=1e-3)
        delta = float(params["p"].ravel()[0])
        assert abs(delta + 1e-3) < 1e-8

    def test_determinism(self):
        results = []
        for _ in range(2):
            params = self.params()
            state = AdamState.for_params(params)
            rng = RngStream(2)
            for _ in range(5):
                grads = {k: rng.normal(v.shape) for k, v in params.items()}
                adam_step(params, grads, state, lr=1e-2)
            results.append(parameter_checksum(params))
        assert results[0] == results[1]

    def test_name_mismatch_rejected(self):
        params = self.params()
        grads = {"a": np.zeros_like(params["a"])}
        with pytest.raises(ShapeMismatch):
            adam_step(params, grads, AdamState.for_params(params), lr=1e-3)


class TestBatchSampler:
    def test_round_robin_covers_dataset(self):
        sampler = _BatchSampler(4, 2, RngStream(3, STREAM_SHUFFLE))
        seen = []
        for _ in range(2):
            seen.extend(sampler.next_batch())
        assert sorted(seen) == [0, 1, 2, 3]

    def test_deterministic(self):
        a = _BatchSampler(5, 3, RngStream(4, STREAM_SHUFFLE))
        b = _BatchSampler(5, 3, RngStream(4, STREAM_SHUFFLE))
        for _ in range(7):
            assert a.next_batch() == b.next_batch()


class TestTrain:
    def test_zero_lr_leaves_params_bitwise(self, dataset):
        paths, style = dataset
        config = tiny_config(paths, style, steps=1, learning_rate=0.0)
        g, report = train(config)
        fresh = build(config.generator_config(), RngStream(config.seed, STREAM_INIT))
        assert parameter_checksum(g.parameters()) == parameter_checksum(fresh.parameters())
        assert len(report.losses) == 1

    def test_bitwise_reproducible(self, dataset):
        paths, style = dataset
        r1 = train(tiny_config(paths, style))[1]
        r2 = train(tiny_config(paths, style))[1]
        assert r1.losses == r2.losses
        assert r1.param_checksum == r2.param_checksum
        assert serialize_report(r1) == serialize_report(r2)

    def test_loss_decreases_on_short_run(self, dataset):
        paths, style = dataset
        _, report = train(tiny_config(paths, style, steps=30))
        assert report.losses[-1] < report.losses[0]
        assert all(np.isfinite(v) for v in report.losses)

    def test_bn_and_in_traces_differ(self, dataset):
        paths, style = dataset
        tr = {}
        for mode in ("batch", "instance"):
            _, rep = train(tiny_config(paths, style, steps=5, norm_mode=mode))
            tr[mode] = rep.losses
        assert tr["batch"] != tr["instance"]

    def test_objective_is_batch_mean_of_instance_losses(self, dataset):
        paths, style = dataset
        config = tiny_config(paths[:2], style, steps=1, batch_size=2, norm_mode="instance")
        _, report = train(config)

        phi = FeatureExtractor.seeded(config.extractor_seed)
        style_t = load_image_tensor(style)
        target = StyleTarget.from_style_image(phi, style_t, alpha=config.alpha, beta=config.beta)
        images = [load_image_tensor(p) for p in config.dataset]
        g = build(config.generator_config(), RngStream(config.seed, STREAM_INIT))
        idx = _BatchSampler(2, 2, RngStream(config.seed, STREAM_SHUFFLE)).next_batch()
        z = RngStream(config.seed, STREAM_NOISE).normal((2, 1, 32, 32))

        per_instance = []
        for row, i in enumerate(idx):
            y, _ = g.forward(images[i], z[row : row + 1].copy(), mode="train")
            per_instance.append(total_loss(target, phi, images[i], y)[0])
        assert report.losses[0] == pytest.approx(sum(per_instance) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("padding_mode", ["zero", "reflect"])
    @pytest.mark.parametrize("affine", [False, True])
    def test_batch_size_one_makes_the_arms_one_run(self, dataset, padding_mode, affine):
        # at T=1 train-mode batch norm reduces over instance norm's groups, so the
        # arms train bitwise alike; only batch norm's running statistics set them apart
        paths, style = dataset
        runs = {mode: train(tiny_config(paths, style, steps=15, batch_size=1, norm_mode=mode,
                                         padding_mode=padding_mode, affine=affine))
                for mode in ("batch", "instance")}
        (g_bn, r_bn), (g_in, r_in) = runs["batch"], runs["instance"]
        assert r_bn.losses == r_in.losses
        assert r_bn.param_checksum == r_in.param_checksum

        x = load_image_tensor(paths[-1])
        z = RngStream(3).normal((1, 1, 32, 32))
        y_in = g_in.forward(x, z, mode="eval")[0]
        assert not np.array_equal(g_bn.forward(x, z, mode="eval")[0], y_in)
        assert g_bn.forward(x, z, mode="train")[0].tobytes() == y_in.tobytes()

    def test_unreadable_image_raises_input_error(self, dataset):
        _, style = dataset
        with pytest.raises(InputError):
            train(tiny_config(["/nonexistent/foo.ppm"], style, steps=1))

    def test_mismatched_image_sizes_rejected(self, dataset, tmp_path):
        from helpers import make_fixture_image

        from normkit.imageio import write_ppm

        paths, style = dataset
        odd = str(tmp_path / "odd.ppm")
        write_ppm(odd, make_fixture_image(1, size=16))
        with pytest.raises(InputError):
            train(tiny_config([paths[0], odd], style, steps=1))

    def test_divergence_guard(self, dataset, monkeypatch):
        paths, style = dataset
        import normkit.training as training_module

        def bad_loss(*args, **kwargs):
            return float("nan"), np.zeros((2, 3, 32, 32))

        monkeypatch.setattr(training_module, "total_loss", bad_loss)
        with pytest.raises(Diverged) as info:
            train(tiny_config(paths, style, steps=3))
        assert info.value.step == 1

    def test_parameters_updated_in_place(self, dataset, monkeypatch):
        import normkit.training as training_module

        built = []

        def recording_build(*args, **kwargs):
            g = build(*args, **kwargs)
            built.append({k: (v, v.copy()) for k, v in g.parameters().items()})
            return g

        monkeypatch.setattr(training_module, "build", recording_build)
        paths, style = dataset
        g, _ = train(tiny_config(paths, style, steps=2))
        (initial,) = built
        params = g.parameters()
        assert params.keys() == initial.keys()
        for name, arr in params.items():
            live, start = initial[name]
            assert arr is live, name
            assert not np.array_equal(arr, start), name

    def test_second_step_adds_no_peak_memory(self, tmp_path):
        # train drops a step's caches and gradients before the next forward,
        # so a 2-step run peaks where a 1-step run does
        paths, style = write_fixture(str(tmp_path), size=64)
        peaks = [
            traced_peak(train, TrainConfig(style=style, dataset=paths, steps=steps,
                                           norm_mode="batch", padding_mode="zero"))
            for steps in (1, 2)
        ]
        assert peaks[1] <= 1.01 * peaks[0]

    def test_invalid_config_rejected(self, dataset):
        paths, style = dataset
        with pytest.raises(InvalidArgument):
            tiny_config(paths, style, steps=0)
        with pytest.raises(InvalidArgument):
            tiny_config(paths, style, batch_size=0)
        with pytest.raises(InvalidArgument):
            tiny_config([], style)


class TestReport:
    def test_exact_serialization_golden(self):
        from normkit.training import RunReport

        report = RunReport(
            losses=[0.5, 0.25],
            config_echo=[("seed", "7"), ("steps", "2")],
        )
        assert serialize_report(report) == (
            "step 1 loss 0.5\nstep 2 loss 0.25\n# config\n# seed 7\n# steps 2\n"
        )

    def test_serialization_format(self, dataset):
        paths, style = dataset
        config = tiny_config(paths, style, steps=2)
        _, report = train(config)
        text = serialize_report(report)
        lines = text.splitlines()
        assert lines[0].startswith("step 1 loss ")
        assert lines[1].startswith("step 2 loss ")
        assert lines[2] == "# config"
        assert any(line == "# seed 7" for line in lines)
        assert any(line.startswith("# norm_mode ") for line in lines)
        # loss lines parse back to the exact float
        val = float(lines[0].split()[-1])
        assert val == report.losses[0]

    def test_config_echo_covers_all_fields(self, dataset):
        paths, style = dataset
        config = tiny_config(paths, style)
        keys = [k for k, _ in config_echo(config)]
        assert "seed" in keys and "dataset" in keys and "learning_rate" in keys

    def test_checksum_tracks_parameters(self, dataset):
        paths, style = dataset
        g1, r1 = train(tiny_config(paths, style, steps=1))
        g2, r2 = train(tiny_config(paths, style, steps=2))
        assert r1.param_checksum != r2.param_checksum

