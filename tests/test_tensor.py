import numpy as np
import pytest

from normkit.errors import InvalidArgument, InvalidShape
from normkit.tensor import RngStream, new_tensor, reduce, sample_gaussian


def group_sum_oracle(x, axes):
    """Each group's members, gathered alone in ascending flat index order, then summed."""
    axset = set(axes)
    out_shape = tuple(1 if a in axset else d for a, d in zip("TCWH", x.shape))
    members = {}
    for index in np.ndindex(x.shape):
        key = tuple(0 if a in axset else i for a, i in zip("TCWH", index))
        members.setdefault(key, []).append(x[index])
    out = np.zeros(out_shape)
    for key, values in members.items():
        out[key] = np.array(values).sum()
    return out


class TestNewTensor:
    def test_fill_zeros(self):
        t = new_tensor((1, 1, 2, 2), 0.0)
        assert t.shape == (1, 1, 2, 2)
        assert np.all(t == 0.0)

    def test_fill_ones_sum(self):
        t = new_tensor((2, 3, 4, 4), 1.0)
        assert t.size == 96
        assert t.sum() == 96.0

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidShape):
            new_tensor((1, 0, 2, 2), 0.0)

    def test_negative_dim_rejected(self):
        with pytest.raises(InvalidShape):
            new_tensor((1, -3, 2, 2))

    def test_wrong_rank_rejected(self):
        with pytest.raises(InvalidShape):
            new_tensor((1, 2, 3), 0.0)


class TestReduce:
    def test_mean_wh_hand_value(self):
        x = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
        assert reduce(x, "WH", "mean").ravel()[0] == 2.5

    def test_sum_all_counts_elements(self):
        t = new_tensor((2, 3, 2, 2), 1.0)
        assert reduce(t, "TCWH", "sum").ravel()[0] == 24.0

    def test_mean_of_constants(self):
        t = new_tensor((3, 2, 2, 2), 7.0)
        out = reduce(t, "T", "mean")
        assert out.shape == (1, 2, 2, 2)
        assert np.all(out == 7.0)

    def test_empty_axes_rejected(self):
        with pytest.raises(InvalidArgument):
            reduce(new_tensor((1, 1, 2, 2), 1.0), "", "sum")

    @pytest.mark.parametrize("axes,x", [
        *(pytest.param(axes, sample_gaussian(RngStream(99), (2, 3, 4, 5)), id=axes)
          for axes in ["T", "C", "W", "H", "WH", "TWH", "CW", "TCWH"]),
        pytest.param("TWH", np.array([-0.0, 1.5, -2.0]).reshape(1, 3, 1, 1), id="one-member"),
        # 384 members per group: numpy's row sum splits rows longer than 128 in halves
        pytest.param("WH", sample_gaussian(RngStream(98), (3, 2, 16, 24)), id="long-groups"),
    ])
    def test_matches_sequential_oracle_bitwise(self, axes, x):
        assert reduce(x, axes, "sum").tobytes() == group_sum_oracle(x, axes).tobytes()

    def test_result_owns_its_data(self):
        # 256 bytes of sums must not keep the 4 MiB transposed block alive
        out = reduce(np.ones((4, 32, 64, 64)), "TWH", "sum")
        assert out.flags.owndata and out.nbytes == 256

    @pytest.mark.parametrize("axes", ["WH", "TWH", "TCWH", "C"])
    def test_mean_is_sum_over_count_exactly(self, axes):
        x = sample_gaussian(RngStream(5), (2, 3, 4, 4))
        count = np.prod([d for a, d in zip("TCWH", x.shape) if a in set(axes)])
        assert np.array_equal(reduce(x, axes, "mean"), reduce(x, axes, "sum") / count)

    def test_axes_accept_any_iterable_of_names(self):
        x = sample_gaussian(RngStream(6), (2, 2, 3, 3))
        assert np.array_equal(reduce(x, ["W", "H"], "sum"), reduce(x, "WH", "sum"))
        assert np.array_equal(reduce(x, ("H", "W"), "sum"), reduce(x, "WH", "sum"))


class TestSampleGaussian:
    def test_determinism_bitwise(self):
        a = sample_gaussian(RngStream(123), (2, 2, 5, 5))
        b = sample_gaussian(RngStream(123), (2, 2, 5, 5))
        assert np.array_equal(a, b)

    def test_seed42_statistics(self):
        t = sample_gaussian(RngStream(42), (1, 1, 64, 64))
        assert -0.1 < t.mean() < 0.1
        assert 0.85 < t.var() < 1.15

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidShape):
            sample_gaussian(RngStream(1), (1, 0, 2, 2))

    def test_streams_differ(self):
        a = sample_gaussian(RngStream(7, 1), (1, 1, 4, 4))
        b = sample_gaussian(RngStream(7, 2), (1, 1, 4, 4))
        assert not np.array_equal(a, b)
