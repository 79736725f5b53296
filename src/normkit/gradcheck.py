"""Finite-difference audit of every backward pass.

Each layer subject is one unit driven through the unit protocol
(``forward``/``backward``/``parameters``) under a seeded random linear probe
of its output; every element of its input and of each parameter array is
checked against central differences. The ``generator`` subject samples
parameter gradients of a small generator under the full perceptual loss.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .generator import (
    ConvUnit,
    GeneratorConfig,
    NormUnit,
    ReluUnit,
    UpsampleConvUnit,
    build,
)
from .layers import ConvParams
from .loss import FeatureExtractor, StyleTarget, total_loss
from .norms import DEFAULT_EPS
from .tensor import RngStream


def _max_rel_err(f, probes, h):
    """Worst relative error of analytic gradients against central differences.

    ``probes`` yields (array, index, analytic d f / d array[index]); each
    element is perturbed in place and restored exactly. A NaN error makes
    the result NaN, which fails every tolerance.
    """
    errs = []
    for arr, idx, analytic in probes:
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        numeric = (fp - fm) / (2.0 * h)
        errs.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    return float(np.max(errs))


def _check_unit(unit, x):
    """Probe every element of ``x`` and of ``unit.parameters()``.

    The objective is a random linear probe of the output, not a quadratic:
    through a normalizer the output norm is nearly fixed, so a quadratic
    leaves only eps-scale gradients that finite differences cannot resolve.
    """
    y, cache = unit.forward(x, "train")
    probe = RngStream(11).normal(y.shape)

    def f():
        return float((unit.forward(x, "train")[0] * probe).sum())

    gx, grads = unit.backward(probe, cache)
    pairs = [(x, gx)] + [(arr, grads[name]) for name, arr in unit.parameters().items()]
    return f, ((arr, idx, grad[idx]) for arr, grad in pairs for idx in np.ndindex(arr.shape))


def _conv(padding_mode, unit=ConvUnit, side=4):
    rng = RngStream(7)
    x = rng.normal((1, 2, side, side))
    params = ConvParams(
        rng.normal((2, 2, 3, 3)), rng.normal((2,)), stride=1, padding_mode=padding_mode, pad=1
    )
    return unit("conv", params), x


def _relu():
    x = RngStream(8).normal((1, 2, 4, 4))
    x[np.abs(x) < 1e-3] = 0.25  # stay clear of the kink
    return ReluUnit("relu"), x


def _norm(kind):
    # affine, so the learnable scale/shift gradients are audited too
    rng = RngStream(10)
    x = rng.normal((2, 2, 3, 3))
    unit = NormUnit(kind, kind, channels=2, eps=DEFAULT_EPS, affine=True)
    unit.gamma[...] = rng.normal(unit.gamma.shape)
    unit.beta[...] = rng.normal(unit.beta.shape)
    return unit, x


def _check_generator(sample_count=20):
    content = RngStream(12).uniform((1, 3, 8, 8))
    style = RngStream(13).uniform((1, 3, 8, 8))
    z = RngStream(14).normal((1, 1, 8, 8))
    phi = FeatureExtractor.seeded()
    target = StyleTarget.from_style_image(phi, style)
    content_feats = phi.content_features(content)
    g = build(GeneratorConfig(residual_blocks=1), RngStream(15))

    def f():
        y, _ = g.forward(content, z, mode="train")
        return total_loss(target, phi, y, content_feats)[0]

    y, caches = g.forward(content, z, mode="train")
    _, grad_y = total_loss(target, phi, y, content_feats)
    grads = g.backward(grad_y, caches)

    params = g.parameters()
    names = sorted(params)
    picker = RngStream(16)

    def sampled():
        for _ in range(sample_count):
            name = names[picker.integers(0, len(names))]
            arr = params[name]
            idx = np.unravel_index(picker.integers(0, arr.size), arr.shape)
            yield arr, idx, grads[name][idx]

    return f, sampled()


_CHECKS = {
    "conv_zero": lambda: _check_unit(*_conv("zero")),
    "conv_reflect": lambda: _check_unit(*_conv("reflect")),
    "relu": lambda: _check_unit(*_relu()),
    "upsample_conv": lambda: _check_unit(*_conv("reflect", UpsampleConvUnit, side=3)),
    "batch_norm": lambda: _check_unit(*_norm("batch")),
    "instance_norm": lambda: _check_unit(*_norm("instance")),
    "generator": _check_generator,
}
SUBJECTS = tuple(_CHECKS)


def gradcheck(subject: str = "all", h: float = 1e-5) -> dict[str, float]:
    """Central-difference audit of every backward pass.

    Returns {subject: max relative error}. Unknown subjects raise
    InvalidArgument; failures are the caller's judgment against their
    tolerance.
    """
    if not (np.isfinite(h) and h > 0):
        raise InvalidArgument(f"h must be finite and > 0, got {h}")
    if subject != "all" and subject not in SUBJECTS:
        raise InvalidArgument(f"unknown subject {subject!r}; choose from {SUBJECTS} or 'all'")
    chosen = SUBJECTS if subject == "all" else (subject,)
    return {name: _max_rel_err(*_CHECKS[name](), h) for name in chosen}
