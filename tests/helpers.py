"""Shared oracles for the test suite.

These stay deliberately naive and independent of the library's vectorized
paths: direct nested-loop convolution and nearest upsampling, an exactly rounded
Gram, elementwise central differences.
"""

import math
import os
import tracemalloc
from pathlib import Path

import numpy as np


def reflect_index(i, size):
    if i < 0:
        return -i
    if i >= size:
        return 2 * size - 2 - i
    return i


def naive_conv2d(x, weights, bias, stride, pad, padding_mode):
    """Direct cross-correlation with explicit loops over every index."""
    T, C_in, W, H = x.shape
    C_out, _, K, _ = weights.shape
    WP, HP = W + 2 * pad, H + 2 * pad
    xp = np.zeros((T, C_in, WP, HP))
    for t in range(T):
        for c in range(C_in):
            for w in range(WP):
                for h in range(HP):
                    iw, ih = w - pad, h - pad
                    if padding_mode == "reflect":
                        xp[t, c, w, h] = x[t, c, reflect_index(iw, W), reflect_index(ih, H)]
                    elif 0 <= iw < W and 0 <= ih < H:
                        xp[t, c, w, h] = x[t, c, iw, ih]
    OW = (WP - K) // stride + 1
    OH = (HP - K) // stride + 1
    y = np.zeros((T, C_out, OW, OH))
    for t in range(T):
        for co in range(C_out):
            for ow in range(OW):
                for oh in range(OH):
                    acc = 0.0
                    for ci in range(C_in):
                        for kw in range(K):
                            for kh in range(K):
                                acc += (
                                    xp[t, ci, ow * stride + kw, oh * stride + kh]
                                    * weights[co, ci, kw, kh]
                                )
                    y[t, co, ow, oh] = acc + (bias[co] if bias is not None else 0.0)
    return y


def upsample_nearest(x, factor):
    """Nearest upsampling: output pixel (i, j) copies input pixel (i // factor, j // factor)."""
    T, C, W, H = x.shape
    y = np.zeros((T, C, W * factor, H * factor))
    for i in range(W * factor):
        for j in range(H * factor):
            y[:, :, i, j] = x[:, :, i // factor, j // factor]
    return y


def upsample_nearest_adjoint(g, factor):
    """Adjoint of upsample_nearest: each input pixel sums its factor x factor block."""
    T, C, W, H = g.shape
    out = np.zeros((T, C, W // factor, H // factor))
    for i in range(W):
        for j in range(H):
            out[:, :, i // factor, j // factor] += g[:, :, i, j]
    return out


def gram_all_pairs(f):
    """Gram entry by entry, each an exactly rounded sum (math.fsum) of its site products."""
    t, c, w, h = f.shape
    flat = f.reshape(t, c, w * h)
    g = np.zeros((t, c, c))
    for n in range(t):
        for i in range(c):
            for j in range(c):
                g[n, i, j] = math.fsum(flat[n, i] * flat[n, j]) / (w * h)
    return g


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f() w.r.t. array x (mutated in place)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def child_env(**overrides):
    """``os.environ`` and ``overrides``, with this checkout's ``src`` first on
    ``PYTHONPATH``, so a child ``python`` imports the normkit under test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, path] if path else [src]),
                **overrides)


def traced_peak(fn, *args):
    """Peak live bytes, of those allocated while ``fn(*args)`` runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def flip_bit(entries, name, bit):
    """A copy of weight-file ``entries`` with one bit of ``name``'s float64 payload flipped."""
    flipped = dict(entries)
    flipped[name] = entries[name].copy()
    flipped[name].view(np.uint64)[...] ^= np.uint64(1 << bit)
    return flipped


def max_rel_err(analytic, numeric):
    """max over elements of |a - n| / max(|a|, |n|, 1e-8)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom))


# -- canonical training fixture ----------------------------------------------
# Four 32x32 content images with varied brightness/contrast plus one style
# image. The reference-run numbers pinned in the acceptance tests were
# measured on exactly these images; do not change the tuples casually.

CONTENT_SPECS = [(100, 0.55, 0.10), (101, 0.75, 0.20), (102, 1.0, 0.0), (103, 0.6, 0.35)]
STYLE_SPEC = (500, 1.0, 0.0)


def make_fixture_image(seed, size=32, gain=1.0, offset=0.0):
    """Smooth seeded image with a chosen brightness/contrast envelope."""
    from normkit.imageio import tensor_to_image
    from normkit.tensor import RngStream

    rng = RngStream(seed)
    x = rng.uniform((1, 3, size, size))
    for _ in range(3):
        x = 0.5 * x + 0.25 * np.roll(x, 1, axis=2) + 0.25 * np.roll(x, 1, axis=3)
    x = (x - x.min()) / (x.max() - x.min())
    x = np.clip(gain * x + offset, 0.0, 1.0)
    return tensor_to_image(x)


def write_fixture(directory, size=32):
    """Write the canonical dataset; returns (content paths, style path)."""
    from normkit.imageio import write_ppm

    paths = []
    for i, (seed, gain, offset) in enumerate(CONTENT_SPECS):
        path = os.path.join(directory, f"content{i}.ppm")
        write_ppm(path, make_fixture_image(seed, size=size, gain=gain, offset=offset))
        paths.append(path)
    style = os.path.join(directory, "style.ppm")
    seed, gain, offset = STYLE_SPEC
    write_ppm(style, make_fixture_image(seed, size=size, gain=gain, offset=offset))
    return paths, style
