"""Feed-forward stylization generator with a selectable normalization mode.

One fully convolutional encoder - residual - decoder skeleton:

    concat(x, z)
    -> conv s1                      (no bias when a norm follows)
    -> [norm -> ReLU -> conv s2] x2
    -> [conv -> norm -> ReLU -> conv -> norm, + skip] x residual_blocks
    -> [upsample x2 + conv -> norm -> ReLU] x2
    -> conv to 3 channels -> sigmoid

Each decoder stage's nearest upsample and 3x3 conv run as one fused unit
that convolves the low-res map (see :mod:`normkit.layers`); it holds and
draws the same conv weights as a plain conv would.

``norm_mode`` selects none / batch / instance for every norm site at once;
nothing else changes, so two generators built from the same seed with
different norm modes have bitwise-identical conv weights. That is the
controlled-experiment contract this module exists to support.

Instance-norm generators behave identically in train and eval mode. Batch
norm uses running statistics in eval mode and therefore must see at least
one training batch first; no other unit reads the mode. An eval forward
keeps no caches, so it cannot be backpropagated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import weights as weightfile
from .errors import FormatError, InvalidArgument, MissingForward, ShapeMismatch
from .layers import (
    PADDING_MODES,
    ConvParams,
    conv2d_backward,
    conv2d_forward,
    upsample_conv_backward,
    upsample_conv_forward,
)
from .norms import (
    DEFAULT_EPS,
    RunningStats,
    batch_norm_forward,
    instance_norm_forward,
    norm_backward,
)
from .tensor import RngStream, Tensor4, reduce, require_tensor4

NORM_MODES = ("none", "batch", "instance")


@dataclass
class GeneratorConfig:
    norm_mode: str = "instance"
    padding_mode: str = "reflect"
    base_channels: int = 8
    residual_blocks: int = 3
    noise_channels: int = 1
    eps: float = DEFAULT_EPS
    affine: bool = False

    def __post_init__(self):
        if self.norm_mode not in NORM_MODES:
            raise InvalidArgument(f"norm_mode must be one of {NORM_MODES}")
        if self.padding_mode not in PADDING_MODES:
            raise InvalidArgument(f"padding_mode must be one of {PADDING_MODES}")
        if self.base_channels < 1:
            raise InvalidArgument("base_channels must be >= 1")
        if self.residual_blocks < 0:
            raise InvalidArgument("residual_blocks must be >= 0")
        if self.noise_channels < 0:
            raise InvalidArgument("noise_channels must be >= 0")
        if not self.eps >= 0:
            raise InvalidArgument("eps must be >= 0")


def walk_forward(units: list, h: Tensor4, mode: str, taps=()) -> tuple[Tensor4, list, dict]:
    """Run units in order; returns (output, caches, {i: output of unit i} for i in taps).

    Only a train walk keeps the units' caches, and the walk drops its own
    reference to each cache as soon as its unit returns. So an eval walk
    frees every cache (a conv's padded input, a norm's or ReLU's saved input)
    before the next unit runs, and a backward over it fails as a missing
    forward.
    """
    caches, outs = [], {}
    for i, unit in enumerate(units):
        h, cache = unit.forward(h, mode)
        if mode == "train":
            caches.append(cache)
        del cache
        if i in taps:
            outs[i] = h
    return h, caches, outs


def walk_backward(units: list, caches: list, g: Tensor4 | None, tap_grads=None):
    """Backpropagate ``g`` through ``units``, last first, with the caches of their train walk.

    ``tap_grads[i]`` joins the gradient arriving at unit ``i``'s output, so
    ``g`` may be None when the last unit is a tap. Returns the input gradient
    and the parameter gradients of every unit. Raises ``MissingForward``
    unless ``caches`` holds one entry per unit.
    """
    if caches is None or len(caches) != len(units):
        raise MissingForward(f"backward over {len(units)} units needs their train walk's caches")
    tap_grads = tap_grads or {}
    grads = {}
    for i in reversed(range(len(units))):
        if i in tap_grads:
            g = tap_grads[i] if g is None else g + tap_grads[i]
        g, unit_grads = units[i].backward(g, caches[i])
        grads.update(unit_grads)
    return g, grads


def unit_parameters(units: list) -> dict[str, np.ndarray]:
    out = {}
    for unit in units:
        out.update(unit.parameters())
    return out


class ConvUnit:
    def __init__(self, name: str, params: ConvParams):
        self.name = name
        self.params = params

    @classmethod
    def he(cls, name, rng, c_in, c_out, stride, padding_mode, bias=True, k=3) -> "ConvUnit":
        """He-initialized weights drawn from ``rng``; zero bias, or none.

        With ``rng`` None the weights are zeros and nothing is drawn.
        """
        shape = (c_out, c_in, k, k)
        w = np.zeros(shape) if rng is None else rng.normal(shape) * np.sqrt(2.0 / (c_in * k * k))
        b = np.zeros(c_out) if bias else None
        params = ConvParams(w, b, stride=stride, padding_mode=padding_mode, pad=(k - 1) // 2)
        return cls(name, params)

    def forward(self, x, mode):
        return conv2d_forward(x, self.params)

    def backward(self, g, cache):
        gx, gw, gb = conv2d_backward(g, cache, self.params)
        # parameters() names the weight, then the bias if there is one
        return gx, dict(zip(self.parameters(), (gw, gb)))

    def parameters(self):
        out = {f"{self.name}.w": self.params.weights}
        if self.params.bias is not None:
            out[f"{self.name}.b"] = self.params.bias
        return out


class UpsampleConvUnit(ConvUnit):
    """Nearest upsample x2, then a 3x3 stride-1 conv, as one layer."""

    def forward(self, x, mode):
        return upsample_conv_forward(x, self.params)

    def backward(self, g, cache):
        gx, gw, gb = upsample_conv_backward(g, cache, self.params)
        return gx, dict(zip(self.parameters(), (gw, gb)))


class NormUnit:
    """One normalization site; ``kind`` decides everything it does."""

    def __init__(self, name, kind, channels, eps, affine):
        self.name = name
        self.kind = kind
        self.eps = eps
        self.affine = affine and kind != "none"
        self.running = RunningStats(channels=channels) if kind == "batch" else None
        if self.affine:
            self.gamma = np.ones((1, channels, 1, 1))
            self.beta = np.zeros((1, channels, 1, 1))

    def forward(self, x, mode):
        if self.kind == "none":
            return x, None
        if self.kind == "batch":
            y, cache = batch_norm_forward(x, eps=self.eps, mode=mode, rs=self.running)
        else:
            y, cache = instance_norm_forward(x, eps=self.eps)
        if self.affine:
            return self.gamma * y + self.beta, cache
        return y, cache

    def backward(self, g, cache):
        if self.kind == "none":
            return g, {}
        # norm_backward first: it rejects an eval forward's missing cache
        gx = norm_backward(g * self.gamma if self.affine else g, cache)
        if not self.affine:
            return gx, {}
        return gx, {f"{self.name}.gamma": reduce(g * cache.normalized, "TWH", "sum"),
                    f"{self.name}.beta": reduce(g, "TWH", "sum")}

    def parameters(self):
        if self.affine:
            return {f"{self.name}.gamma": self.gamma, f"{self.name}.beta": self.beta}
        return {}


class ParameterFreeUnit:
    def __init__(self, name):
        self.name = name

    def parameters(self):
        return {}


class ReluUnit(ParameterFreeUnit):
    def forward(self, x, mode):
        return np.maximum(x, 0.0), x

    def backward(self, g, cache):
        if cache is None:
            raise MissingForward("relu backward called without a forward cache")
        return g * (cache > 0.0), {}  # the subgradient at exactly 0 is 0


class SigmoidUnit(ParameterFreeUnit):
    def forward(self, x, mode):
        # exp of -|x| never overflows; both branches equal the logistic function
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return y, y

    def backward(self, g, cache):
        if cache is None:
            raise MissingForward("sigmoid backward called without a forward cache")
        return g * cache * (1.0 - cache), {}


class ResidualBlock:
    """conv -> norm -> ReLU -> conv -> norm, plus the identity skip."""

    def __init__(self, name, rng, channels, padding_mode, norm_mode, eps, affine, bias):
        self.name = name
        self.units = [
            ConvUnit.he(f"{name}.conv1", rng, channels, channels, 1, padding_mode, bias=bias),
            NormUnit(f"{name}.norm1", norm_mode, channels, eps, affine),
            ReluUnit(f"{name}.relu"),
            ConvUnit.he(f"{name}.conv2", rng, channels, channels, 1, padding_mode, bias=bias),
            NormUnit(f"{name}.norm2", norm_mode, channels, eps, affine),
        ]

    def forward(self, x, mode):
        h, caches, _ = walk_forward(self.units, x, mode)
        return x + h, caches

    def backward(self, g, caches):
        gh, grads = walk_backward(self.units, caches, g)
        return g + gh, grads

    def parameters(self):
        return unit_parameters(self.units)


class Generator:
    def __init__(self, config: GeneratorConfig, units: list):
        self.config = config
        self.units = units

    def parameters(self) -> dict[str, np.ndarray]:
        """Name -> parameter array, in unit order.

        The arrays are live: they are the units' own storage, not copies, so
        writing into one (as :func:`normkit.training.adam_step` does) changes
        what the next forward pass computes.
        """
        return unit_parameters(self.units)

    def norm_units(self):
        for unit in self.units:
            for sub in unit.units if isinstance(unit, ResidualBlock) else [unit]:
                if isinstance(sub, NormUnit):
                    yield sub

    def forward(self, x: Tensor4, z: Tensor4 | None, mode: str = "train"):
        require_tensor4(x, "x")
        if mode not in ("train", "eval"):
            raise InvalidArgument(f"mode must be 'train' or 'eval', got {mode!r}")
        if x.shape[1] != 3:
            raise ShapeMismatch(f"content input must have 3 channels, got {x.shape[1]}")
        if x.shape[2] % 4 or x.shape[3] % 4:
            raise ShapeMismatch(
                "spatial dims must be divisible by 4 (two stride-2 stages), "
                f"got {x.shape[2]}x{x.shape[3]}"
            )
        nz = self.config.noise_channels
        if nz > 0:
            require_tensor4(z, "z")
            if z.shape != (x.shape[0], nz, x.shape[2], x.shape[3]):
                raise ShapeMismatch(
                    f"noise must have shape {(x.shape[0], nz, x.shape[2], x.shape[3])}, "
                    f"got {z.shape}"
                )
        # no local name for the joined input, so the walk frees it after the stem conv
        h, caches, _ = walk_forward(
            self.units, np.concatenate([x, z], axis=1) if nz > 0 else x, mode
        )
        return h, caches

    def backward(self, grad_out: Tensor4, caches: list) -> dict[str, np.ndarray]:
        return walk_backward(self.units, caches, grad_out)[1]

    # -- persistence ------------------------------------------------------

    # the file stores every GeneratorConfig field as a scalar "meta.<field>";
    # the string fields as codes
    _CODES = {
        "norm_mode": {"none": 0.0, "batch": 1.0, "instance": 2.0},
        "padding_mode": {"zero": 0.0, "reflect": 1.0},
    }

    def to_entries(self) -> dict[str, np.ndarray]:
        entries = {"meta.kind": weightfile.scalar_entry(1.0)}  # 1 = generator
        for f in fields(GeneratorConfig):
            value = getattr(self.config, f.name)
            value = self._CODES[f.name][value] if f.name in self._CODES else value
            entries[f"meta.{f.name}"] = weightfile.scalar_entry(value)
        for name, value in self.parameters().items():
            entries[name] = value if value.ndim == 4 else value.reshape(1, len(value), 1, 1)
        for unit in self.norm_units():
            if unit.running is not None:
                entries[f"{unit.name}.running_mu"] = unit.running.running_mu
                entries[f"{unit.name}.running_var"] = unit.running.running_var
                entries[f"{unit.name}.count"] = weightfile.scalar_entry(unit.running.sample_count)
        return entries

    @classmethod
    def from_entries(cls, entries: dict[str, np.ndarray]) -> "Generator":
        # one field at a time on a valid default, so an InvalidArgument names the
        # entry just decoded; fill() rejects a value that int() or bool() rounded
        config = GeneratorConfig()
        for f in fields(GeneratorConfig):
            name = f"meta.{f.name}"
            value = float(weightfile.entry(entries, name).ravel()[0])
            codes = {v: k for k, v in cls._CODES.get(f.name, {}).items()}
            try:
                decoded = codes.get(value, value) if codes else type(getattr(config, f.name))(value)
                config = replace(config, **{f.name: decoded})
            except (InvalidArgument, ValueError, OverflowError) as exc:
                raise FormatError(f"entry {name!r} holds an invalid value {value!r}: {exc}")
        # the arrays fix the sizes: check them before a corrupt size builds the skeleton
        stem = weightfile.entry(entries, "stem_conv.w").shape
        blocks = len({name.split(".")[0] for name in entries if name.startswith("res")})
        for key, size in (("base_channels", stem[0]), ("noise_channels", stem[1] - 3),
                          ("residual_blocks", blocks)):
            if getattr(config, key) != size:
                raise FormatError(f"entry 'meta.{key}' is {getattr(config, key)}; 'stem_conv.w' "
                                  f"of shape {stem} and {blocks} res blocks say {size}")
        g = build(config, None)
        # the skeleton's arrays are the units' live storage (a bias as a
        # reshaped view), so fill() loads the values; only the counts are copies
        weightfile.fill(g.to_entries(), entries)
        for unit in g.norm_units():
            if unit.running is not None:
                if (unit.running.running_var < 0).any():
                    raise FormatError(f"entry '{unit.name}.running_var' holds negative variances")
                count = weightfile.entry_counts(entries, f"{unit.name}.count", minimum=0)
                unit.running.sample_count = count[0]
        return g

    def save(self, path: str) -> None:
        weightfile.save_entries(path, self.to_entries())

    @classmethod
    def load(cls, path: str) -> "Generator":
        return cls.from_entries(weightfile.load_entries(path))


def build(config: GeneratorConfig, rng: RngStream | None) -> Generator:
    """Construct a generator; conv weights depend only on (seed, layer order).

    Norm layers draw nothing from the stream, so generators built from the
    same seed with different norm modes share conv weights bitwise. With
    ``rng`` None every weight is zero and nothing is drawn: the skeleton a
    loader fills.
    """
    cfg = config
    c1, c2, c3 = cfg.base_channels, 2 * cfg.base_channels, 4 * cfg.base_channels
    in_ch = 3 + cfg.noise_channels
    norm = cfg.norm_mode
    padm = cfg.padding_mode

    # normalization annihilates per-channel shifts, so convs that feed a
    # norm carry no bias; only the head conv (and everything in norm-free
    # generators) keeps one
    bias = norm == "none"

    def norm_unit(name, channels):
        return NormUnit(name, norm, channels, cfg.eps, cfg.affine)

    units = [
        ConvUnit.he("stem_conv", rng, in_ch, c1, 1, padm, bias=bias),
        norm_unit("down1_norm", c1),
        ReluUnit("down1_relu"),
        ConvUnit.he("down1_conv", rng, c1, c2, 2, padm, bias=bias),
        norm_unit("down2_norm", c2),
        ReluUnit("down2_relu"),
        ConvUnit.he("down2_conv", rng, c2, c3, 2, padm, bias=bias),
    ]
    for i in range(cfg.residual_blocks):
        units.append(ResidualBlock(f"res{i}", rng, c3, padm, norm, cfg.eps, cfg.affine, bias))
    units += [
        UpsampleConvUnit.he("up1_conv", rng, c3, c2, 1, padm, bias=bias),
        norm_unit("up1_norm", c2),
        ReluUnit("up1_relu"),
        UpsampleConvUnit.he("up2_conv", rng, c2, c1, 1, padm, bias=bias),
        norm_unit("up2_norm", c1),
        ReluUnit("up2_relu"),
        ConvUnit.he("head_conv", rng, c1, 3, 1, padm, bias=True),
        SigmoidUnit("output_sigmoid"),
    ]
    return Generator(config=cfg, units=units)
