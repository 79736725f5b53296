"""Training loop and Adam optimizer.

The objective is the batch mean of the perceptual loss over content
images, with a fresh Gaussian noise draw per instance per step. The whole
trajectory is a deterministic function of the config: generator init,
dataset shuffling, and noise draws come from three fixed substreams of the
config seed, so identical configs give bitwise-identical parameters.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import Diverged, InputError, InvalidArgument, ShapeMismatch
from .generator import Generator, GeneratorConfig, build
from .imageio import read_ppm
from .loss import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_EXTRACTOR_SEED,
    FeatureExtractor,
    StyleTarget,
    total_loss,
)
from .tensor import RngStream

STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_NOISE = 2


@dataclass(kw_only=True)
class TrainConfig(GeneratorConfig):
    style: str
    dataset: list[str]
    seed: int = 42
    steps: int = 200
    batch_size: int = 4
    learning_rate: float = 1e-3
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    extractor_seed: int = DEFAULT_EXTRACTOR_SEED
    extractor_weights: str | None = None

    def __post_init__(self):
        if not np.all(np.isfinite([self.learning_rate, self.alpha, self.beta])):
            raise InvalidArgument("learning_rate, alpha and beta must be finite")
        if self.steps < 1:
            raise InvalidArgument("steps must be >= 1")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise InvalidArgument("learning_rate must be >= 0 (0 = measure-only run)")
        if not self.dataset:
            raise InvalidArgument("dataset must name at least one content image")
        super().__post_init__()  # validates the generator fields before any file is read

    def generator_config(self) -> GeneratorConfig:
        """The inherited generator fields alone, as a plain GeneratorConfig."""
        return GeneratorConfig(**{f.name: getattr(self, f.name) for f in fields(GeneratorConfig)})


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, applied in place to ``params`` and ``state``.

    Each parameter array is overwritten, so arrays obtained from
    :meth:`Generator.parameters` update the generator directly.
    """
    if params.keys() != grads.keys() or params.keys() != state.m.keys():
        raise ShapeMismatch("parameter, gradient, and state names must align")
    b1, b2, eps = 0.9, 0.999, 1e-8  # moment decay rates; eps keeps the step finite
    t = state.step + 1
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient for {name!r} has shape {g.shape}, param {p.shape}")
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        state.m[name] = m
        state.v[name] = v
    state.step = t


@dataclass
class RunReport:
    """Per-step losses plus enough metadata to audit a run."""

    losses: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    param_checksum: str = ""
    config_echo: list[tuple[str, str]] = field(default_factory=list)


def config_echo(config: TrainConfig) -> list[tuple[str, str]]:
    pairs = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "dataset":
            value = ",".join(value)
        pairs.append((f.name, str(value)))
    # the draws behind this run are auditable only if the algorithm travels
    pairs.append(("rng_algorithm", RngStream.ALGORITHM))
    return pairs


def serialize_report(report: RunReport) -> str:
    lines = [f"step {i} loss {v!r}" for i, v in enumerate(report.losses, 1)]
    lines.append("# config")
    lines.extend(f"# {key} {value}" for key, value in report.config_echo)
    return "\n".join(lines) + "\n"


def parameter_checksum(params: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return digest.hexdigest()


def load_extractor(config: TrainConfig) -> FeatureExtractor:
    if config.extractor_weights is not None:
        return FeatureExtractor.load(config.extractor_weights)
    return FeatureExtractor.seeded(config.extractor_seed)


def _batches(count: int, batch_size: int, rng: RngStream):
    """Yield batches of dataset indices: a seeded shuffled round-robin."""
    order: list[int] = []
    while True:
        batch = []
        while len(batch) < batch_size:
            if not order:
                order = list(rng.permutation(count))
            batch.append(order.pop(0))
        yield batch


def train(config: TrainConfig) -> tuple[Generator, RunReport]:
    """Minimize the batch-mean perceptual loss over the generator parameters."""
    started = time.perf_counter()
    phi = load_extractor(config)
    style = read_ppm(config.style)
    target = StyleTarget.from_style_image(phi, style, alpha=config.alpha, beta=config.beta)

    images = []
    for path in config.dataset:
        img = read_ppm(path)
        if images and img.shape != images[0].shape:
            raise InputError(
                f"content image {path!r} has shape {img.shape[2:]}, "
                f"expected {images[0].shape[2:]} (batching needs equal dims)"
            )
        images.append(img)
    # content-tap features are constant per image; compute them once
    content_feats = [phi.content_features(img) for img in images]

    g = build(config.generator_config(), RngStream(config.seed, STREAM_INIT))
    params = g.parameters()
    state = AdamState.for_params(params)
    batches = _batches(len(images), config.batch_size, RngStream(config.seed, STREAM_SHUFFLE))
    noise_rng = RngStream(config.seed, STREAM_NOISE)

    nz = config.noise_channels
    report = RunReport(config_echo=config_echo(config))
    for step in range(1, config.steps + 1):
        idx = next(batches)
        x = np.concatenate([images[i] for i in idx], axis=0)
        feats_c = np.concatenate([content_feats[i] for i in idx], axis=0)
        z = noise_rng.normal((x.shape[0], nz, x.shape[2], x.shape[3])) if nz > 0 else None

        y, caches = g.forward(x, z, mode="train")
        loss, grad_y = total_loss(target, phi, y, feats_c)
        if not np.isfinite(loss):
            raise Diverged(step, loss)
        report.losses.append(loss)

        adam_step(params, g.backward(grad_y, caches), state, config.learning_rate)
        del y, caches, grad_y  # so the next forward does not run beside them

    report.wall_time = time.perf_counter() - started
    report.param_checksum = parameter_checksum(g.parameters())
    return g, report

