"""Dense 4-D float64 tensors: the shape check and a seeded counter-based
random stream.

A tensor is a plain ``numpy.ndarray`` with ``dtype == float64`` and rank 4,
laid out as (T, C, W, H): batch, channel, width, height.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShape

Tensor4 = np.ndarray  # rank 4, float64, (T, C, W, H)


def require_tensor4(x, name: str = "tensor") -> Tensor4:
    """Assert that ``x`` is a rank-4 float64 array with no empty axis and return it."""
    if not isinstance(x, np.ndarray) or x.ndim != 4 or x.dtype != np.float64:
        raise InvalidShape(
            f"{name} must be a 4-D float64 ndarray, got "
            f"{type(x).__name__} with shape {getattr(x, 'shape', None)} "
            f"dtype {getattr(x, 'dtype', None)}"
        )
    if 0 in x.shape:
        raise InvalidShape(f"{name} dimensions must be >= 1, got {x.shape}")
    return x


class RngStream:
    """Seeded counter-based random stream (Philox 4x64), one of many per seed.

    Identical (seed, stream) pairs produce identical sample sequences on
    every platform; the algorithm identifier travels with saved runs so a
    reader can verify what generated the draws.
    """

    ALGORITHM = "philox4x64"

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=shape, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))
