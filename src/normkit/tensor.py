"""Dense 4-D float64 tensors and a seeded counter-based Gaussian sampler.

A tensor is a plain ``numpy.ndarray`` with ``dtype == float64`` and rank 4,
laid out as (T, C, W, H): batch, channel, width, height. All operations
here are pure: inputs are never mutated.

In ``reduce``, each group's sum depends only on that group's values, not on
how many other groups are reduced with it, so results are bit-reproducible
and an instance's statistics never depend on its batch companions.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, InvalidShape

AXIS_NAMES = "TCWH"
_AXIS_INDEX = {name: i for i, name in enumerate(AXIS_NAMES)}

Tensor4 = np.ndarray  # rank 4, float64, (T, C, W, H)


def check_shape(shape) -> tuple[int, int, int, int]:
    """Validate a 4-tuple of positive integer dimensions."""
    try:
        dims = tuple(int(d) for d in shape)
        if any(d != orig for d, orig in zip(dims, shape)):
            raise ValueError
    except (TypeError, ValueError):
        raise InvalidShape(f"shape must be a 4-tuple of integers, got {shape!r}")
    if len(dims) != 4:
        raise InvalidShape(f"expected 4 dimensions, got {len(dims)}: {shape!r}")
    if any(d < 1 for d in dims):
        raise InvalidShape(f"all dimensions must be >= 1, got {dims}")
    return dims


def require_tensor4(x, name: str = "tensor") -> Tensor4:
    """Assert that ``x`` is a rank-4 float64 array and return it."""
    if not isinstance(x, np.ndarray) or x.ndim != 4 or x.dtype != np.float64:
        raise InvalidShape(
            f"{name} must be a 4-D float64 ndarray, got "
            f"{type(x).__name__} with shape {getattr(x, 'shape', None)} "
            f"dtype {getattr(x, 'dtype', None)}"
        )
    check_shape(x.shape)
    return x


def new_tensor(shape, fill: float = 0.0) -> Tensor4:
    """Allocate a (T, C, W, H) tensor with every element equal to ``fill``."""
    dims = check_shape(shape)
    return np.full(dims, float(fill), dtype=np.float64)


def _parse_axes(axes) -> list[int]:
    idx = set()
    for name in axes:
        if name not in _AXIS_INDEX:
            raise InvalidArgument(f"unknown axis {name!r}; expected letters from 'TCWH'")
        idx.add(_AXIS_INDEX[name])
    if not idx:
        raise InvalidArgument("axes set must be nonempty")
    return sorted(idx)


def reduce(x: Tensor4, axes, kind: str = "sum") -> Tensor4:
    """Reduce over a subset of axes; reduced axes collapse to size 1.

    Each group's sum depends only on that group's values: the members are
    laid out as one row of a C-contiguous (groups, members) block, and each
    row is summed on its own (numpy's pairwise row sum). ``mean`` is ``sum``
    divided by the element count, so the two are related exactly in 64-bit
    arithmetic.
    """
    require_tensor4(x, "x")
    reduced = _parse_axes(axes)
    if kind not in ("sum", "mean"):
        raise InvalidArgument(f"unknown reduction kind {kind!r}")
    kept = [d for d in range(4) if d not in reduced]
    # kept axes first, reduced axes last: each group's members form one row
    block = np.ascontiguousarray(x.transpose(kept + reduced))
    r = int(np.prod([x.shape[d] for d in reduced], dtype=np.int64))
    total = np.empty(tuple(1 if d in reduced else x.shape[d] for d in range(4)))
    block.reshape(-1, r).sum(axis=1, out=total.reshape(-1))
    return total / r if kind == "mean" else total


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

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=shape, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))


def sample_gaussian(rng: RngStream, shape) -> Tensor4:
    """Draw i.i.d. standard-normal values into a (T, C, W, H) tensor."""
    dims = check_shape(shape)
    return rng.normal(dims)
