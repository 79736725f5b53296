import numpy as np
import pytest

from normkit.errors import InvalidShape
from normkit.tensor import RngStream, require_tensor4


class TestRequireTensor4:
    @pytest.mark.parametrize("x", [
        pytest.param(np.zeros((1, 0, 2, 2)), id="zero-dim"),
        pytest.param(np.zeros((1, 2, 3)), id="rank-3"),
        pytest.param(np.zeros((1, 1, 2, 2), dtype=np.float32), id="float32"),
        pytest.param([[[[0.0]]]], id="nested-list"),
    ])
    def test_rejected(self, x):
        with pytest.raises(InvalidShape, match="^x "):
            require_tensor4(x, "x")


class TestRngStream:
    def test_determinism_bitwise(self):
        a = RngStream(123).normal((2, 2, 5, 5))
        b = RngStream(123).normal((2, 2, 5, 5))
        assert np.array_equal(a, b)

    def test_seed42_statistics(self):
        t = RngStream(42).normal((1, 1, 64, 64))
        assert -0.1 < t.mean() < 0.1
        assert 0.85 < t.var() < 1.15

    def test_streams_differ(self):
        a = RngStream(7, 1).normal((1, 1, 4, 4))
        b = RngStream(7, 2).normal((1, 1, 4, 4))
        assert not np.array_equal(a, b)
