"""Perceptual loss: frozen feature extractor, Gram statistics, weighted sum.

Style statistics are Gram matrices of shallow feature maps, averaged over
spatial sites so layout is discarded; content statistics keep the deeper
feature map as-is so layout is preserved. The loss is

    alpha * msd(content-tap features)  +  beta * mean over taps of
    msd(Gram(output tap), Gram target)

with msd = mean squared difference. Each instance of the batch has its own
Gram matrix, one GEMM per instance in one call per tap, and a style msd
averages over instances and channel pairs alike. Gradients flow back through
the Gram map and the frozen extractor to the image.

The extractor stands in for a classification-pretrained network, which is
far out of desk-scale scope: by default it is a frozen stack of seeded
random conv -> ReLU blocks (random filters still expose usable texture
statistics). Externally trained weights can be loaded from a weight file
instead; see :meth:`FeatureExtractor.load`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights as weightfile
from .errors import FormatError, InvalidShape, ShapeMismatch
from .generator import ConvUnit, ReluUnit, walk_backward, walk_forward
from .tensor import RngStream, Tensor4, require_tensor4

DEFAULT_EXTRACTOR_SEED = 1001
DEFAULT_CHANNELS = (3, 8, 16, 16, 16)
DEFAULT_STRIDES = (2, 2, 1, 1)
DEFAULT_STYLE_TAPS = (1, 2, 3)
DEFAULT_CONTENT_TAP = 3
DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 10.0

MIN_INPUT_SIDE = 8


@dataclass
class FeatureExtractor:
    """Frozen conv -> ReLU stack with named tap points (1-indexed blocks).

    ``units`` alternates conv and ReLU units; a tap is the output of its
    block's ReLU. Blocks past the deepest tap are kept (and saved) but never
    run, since no loss term depends on them.
    """

    units: list
    style_taps: tuple[int, ...] = DEFAULT_STYLE_TAPS
    content_tap: int = DEFAULT_CONTENT_TAP

    def __post_init__(self):
        last = max(self.style_taps + (self.content_tap,))
        if last > len(self.convs) or min(self.style_taps) < 1 or self.content_tap < 1:
            raise InvalidShape("tap indices must address existing blocks")

    @classmethod
    def seeded(cls, seed: int = DEFAULT_EXTRACTOR_SEED) -> "FeatureExtractor":
        """Build the frozen random extractor; identical seed, identical filters."""
        return cls(units=conv_relu_stack(RngStream(seed), DEFAULT_CHANNELS, DEFAULT_STRIDES, 3))

    @property
    def convs(self) -> list[ConvUnit]:
        return self.units[::2]

    @property
    def taps(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.style_taps) | {self.content_tap}))

    @property
    def tap_units(self) -> dict[int, int]:
        """{tap: index of its block's ReLU unit}; block b is units[2b-2 : 2b]."""
        return {tap: 2 * tap - 1 for tap in self.taps}

    def forward(self, x: Tensor4) -> tuple[dict[int, Tensor4], list]:
        """Run the stack up to its deepest tap; returns {tap: feature map} plus caches."""
        require_tensor4(x, "x")
        c_in = self.convs[0].params.weights.shape[1]
        if x.shape[1] != c_in:
            raise InvalidShape(f"input has {x.shape[1]} channels, extractor expects {c_in}")
        if x.shape[2] < MIN_INPUT_SIDE or x.shape[3] < MIN_INPUT_SIDE:
            raise InvalidShape(
                f"input spatial dims must be >= {MIN_INPUT_SIDE}, got {x.shape[2]}x{x.shape[3]}"
            )
        at = self.tap_units
        _, caches, outs = walk_forward(self.units[: max(at.values()) + 1], x, "train", at.values())
        return {tap: outs[i] for tap, i in at.items()}, caches

    def content_features(self, x: Tensor4) -> Tensor4:
        """The content-tap feature map of ``x``: the target of the content term."""
        return self.forward(x)[0][self.content_tap]

    def backward(self, caches: list, tap_grads: dict[int, Tensor4]) -> Tensor4:
        """Backpropagate {tap: gradient} through the stack to the input."""
        at = self.tap_units
        walked = self.units[: max(at.values()) + 1]
        return walk_backward(walked, caches, None, {at[t]: g for t, g in tap_grads.items()})[0]

    def to_entries(self) -> dict[str, np.ndarray]:
        entries = {
            "meta.kind": weightfile.scalar_entry(2.0),  # 2 = feature extractor
            "meta.blocks": weightfile.scalar_entry(len(self.convs)),
            "meta.content_tap": weightfile.scalar_entry(self.content_tap),
            "meta.style_taps": np.array(self.style_taps, dtype=np.float64).reshape(1, 1, 1, -1),
        }
        for i, conv in enumerate(self.convs, start=1):
            entries[f"block{i}.w"] = conv.params.weights
            entries[f"block{i}.stride"] = weightfile.scalar_entry(conv.params.stride)
        return entries

    @classmethod
    def from_entries(cls, entries: dict[str, np.ndarray]) -> "FeatureExtractor":
        # sizes come from block 1's kernel and each block's outputs, so a kernel
        # or input-channel count that breaks the chain is a shape error in fill()
        n = weightfile.entry_counts(entries, "meta.blocks")[0]
        shapes = [weightfile.entry(entries, f"block{i}.w").shape for i in range(1, n + 1)]
        strides = [weightfile.entry_counts(entries, f"block{i}.stride")[0] for i in range(1, n + 1)]
        channels = [shapes[0][1]] + [shape[0] for shape in shapes]
        if shapes[0][2] % 2 == 0:
            raise FormatError(f"entry 'block1.w' has shape {shapes[0]}; kernels must be odd")
        taps = {name: weightfile.entry_counts(entries, name)
                for name in ("meta.style_taps", "meta.content_tap")}
        for name, values in taps.items():
            if max(values) > n:
                raise FormatError(f"entry {name!r} holds {values}, past meta.blocks = {n}")
        phi = cls(
            units=conv_relu_stack(None, channels, strides, shapes[0][2]),
            style_taps=taps["meta.style_taps"],
            content_tap=taps["meta.content_tap"][0],
        )
        weightfile.fill(phi.to_entries(), entries)
        return phi

    def save(self, path: str) -> None:
        weightfile.save_entries(path, self.to_entries())

    @classmethod
    def load(cls, path: str) -> "FeatureExtractor":
        return cls.from_entries(weightfile.load_entries(path))


def conv_relu_stack(rng: RngStream | None, channels, strides, kernel: int) -> list:
    """Bias-free reflect-padded conv -> ReLU blocks; zero weights when ``rng`` is None."""
    units = []
    for i, (c_in, c_out, stride) in enumerate(zip(channels[:-1], channels[1:], strides), 1):
        conv = ConvUnit.he(f"phi{i}_conv", rng, c_in, c_out, stride, "reflect",
                           bias=False, k=kernel)
        units += [conv, ReluUnit(f"phi{i}_relu")]
    return units


def gram(feature_map: Tensor4) -> np.ndarray:
    """Per-instance spatially averaged channel products, shape (T, C, C):
    G_tij = (1/WH) sum_s F_tis F_tjs.

    One GEMM per instance (a stacked matmul), so instance t's matrix is
    bitwise the one it gets alone, whatever its batch companions.
    """
    require_tensor4(feature_map, "feature_map")
    t, c, w, h = feature_map.shape
    flat = feature_map.reshape(t, c, w * h)
    return np.matmul(flat, flat.transpose(0, 2, 1)) / (w * h)


def gram_backward(grad_g: np.ndarray, feature_map: Tensor4) -> Tensor4:
    """d/dF of sum_tij grad_g_tij * G_tij; one GEMM per instance."""
    t, c, w, h = feature_map.shape
    flat = feature_map.reshape(t, c, w * h)
    gf = (grad_g + grad_g.transpose(0, 2, 1)) @ flat / (w * h)
    return gf.reshape(feature_map.shape)


@dataclass
class StyleTarget:
    """Precomputed Gram targets plus the two loss weights."""

    gram_targets: dict[int, np.ndarray]
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    @classmethod
    def from_style_image(
        cls,
        phi: FeatureExtractor,
        style: Tensor4,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
    ) -> "StyleTarget":
        require_tensor4(style, "style")
        if style.shape[0] != 1:
            raise InvalidShape("style image must be a single instance")
        feats, _ = phi.forward(style)
        targets = {tap: gram(feats[tap]) for tap in phi.style_taps}
        return cls(gram_targets=targets, alpha=alpha, beta=beta)


def total_loss(
    target: StyleTarget, phi: FeatureExtractor, output: Tensor4, content_feats: Tensor4
) -> tuple[float, Tensor4]:
    """Weighted content + style loss and its exact gradient w.r.t. ``output``.

    ``content_feats`` are the content image's :meth:`FeatureExtractor.content_features`;
    they are deterministic, so a training loop computes them once per image.
    """
    require_tensor4(output, "output")
    feats_out, caches = phi.forward(output)
    tap_grads: dict[int, Tensor4] = {}

    f_out = feats_out[phi.content_tap]
    if f_out.shape != content_feats.shape:
        raise ShapeMismatch(
            f"content feature shape {content_feats.shape} != output feature shape {f_out.shape}"
        )
    diff = f_out - content_feats
    content_term = float(np.mean(diff * diff))
    tap_grads[phi.content_tap] = target.alpha * 2.0 * diff / diff.size

    n_taps = len(phi.style_taps)
    style_term = 0.0
    for tap in phi.style_taps:
        g_diff = gram(feats_out[tap]) - target.gram_targets[tap]
        style_term += float(np.mean(g_diff * g_diff)) / n_taps
        tap_grads[tap] = tap_grads.get(tap, 0.0) + gram_backward(
            target.beta * 2.0 * g_diff / (g_diff.size * n_taps), feats_out[tap])

    loss = target.alpha * content_term + target.beta * style_term
    grad = phi.backward(caches, tap_grads)
    return loss, grad
