import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normkit.errors import FormatError
from normkit.tensor import RngStream
from normkit.weights import MAGIC, load_entries, save_entries


def some_entries(seed=0):
    rng = RngStream(seed)
    return {
        "alpha.w": rng.normal((2, 3, 3, 3)),
        "beta.b": rng.normal((1, 2, 1, 1)),
        "meta.x": np.full((1, 1, 1, 1), 1.25),
    }


@st.composite
def entry_sets(draw):
    """Unique arbitrary names, each with a small shape and arbitrary float64 bit patterns."""
    names = draw(st.lists(st.text(st.characters(exclude_categories=("Cs",)), max_size=8),
                          unique=True, max_size=5))
    entries = {}
    for name in names:
        shape = draw(st.tuples(*[st.integers(1, 3)] * 4))
        n = math.prod(shape)
        bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
        entries[name] = np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)
    return entries


class TestRoundTrip:
    @settings(max_examples=50)
    @given(entries=entry_sets())
    def test_any_names_shapes_and_bits_round_trip(self, tmp_path_factory, entries):
        path = str(tmp_path_factory.mktemp("nrmk") / "w.nrmk")
        save_entries(path, entries)
        back = load_entries(path)
        assert list(back) == list(entries)
        for name, value in entries.items():
            assert back[name].tobytes() == value.tobytes() and back[name].shape == value.shape
        blob = open(path, "rb").read()
        save_entries(path, back)
        assert open(path, "rb").read() == blob

    def test_bitwise_lossless(self, tmp_path):
        entries = some_entries()
        path = str(tmp_path / "w.nrmk")
        save_entries(path, entries)
        back = load_entries(path)
        assert list(back.keys()) == list(entries.keys())
        for k in entries:
            assert back[k].dtype == np.float64
            assert np.array_equal(back[k], entries[k])
            assert back[k].tobytes() == entries[k].tobytes()

    def test_resave_identical_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.nrmk"), str(tmp_path / "b.nrmk")
        save_entries(p1, some_entries())
        save_entries(p2, load_entries(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_magic_prefix(self, tmp_path):
        path = str(tmp_path / "w.nrmk")
        save_entries(path, some_entries())
        assert open(path, "rb").read(6) == MAGIC == b"NRMK1\n"

    def test_exact_byte_layout(self, tmp_path):
        import struct

        path = str(tmp_path / "w.nrmk")
        save_entries(path, {"a": np.full((1, 1, 1, 2), 1.5)})
        expect = (
            b"NRMK1\n"
            + struct.pack("<I", 1)
            + struct.pack("<H", 1)
            + b"a"
            + struct.pack("<4I", 1, 1, 1, 2)
            + struct.pack("<2d", 1.5, 1.5)
        )
        assert open(path, "rb").read() == expect

    def test_negative_zero_and_specials_preserved(self, tmp_path):
        arr = np.array([-0.0, 1e-308, 1e308, -1.5]).reshape(1, 1, 2, 2)
        path = str(tmp_path / "w.nrmk")
        save_entries(path, {"x": arr})
        back = load_entries(path)["x"]
        assert back.tobytes() == arr.tobytes()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "w.nrmk")
        open(path, "wb").write(b"NOPE!\n\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="magic"):
            load_entries(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "w.nrmk")
        save_entries(path, some_entries())
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_entries(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "w.nrmk")
        save_entries(path, some_entries())
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_entries(path)

    def test_non_tensor_entry_rejected(self, tmp_path):
        with pytest.raises(Exception):
            save_entries(str(tmp_path / "w.nrmk"), {"x": np.zeros((2, 2))})

    def test_unicode_names(self, tmp_path):
        path = str(tmp_path / "w.nrmk")
        entries = {"层.w": np.ones((1, 1, 1, 1))}
        save_entries(path, entries)
        assert np.array_equal(load_entries(path)["层.w"], entries["层.w"])

    def test_non_utf8_name_rejected_with_offset(self, tmp_path):
        path = str(tmp_path / "w.nrmk")
        save_entries(path, {"ab": np.ones((1, 1, 1, 1))})
        blob = bytearray(open(path, "rb").read())
        name_at = len(MAGIC) + 4 + 2  # after the entry count and the name length
        blob[name_at] = 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match=f"UTF-8 \\(byte offset {name_at}\\)"):
            load_entries(path)

    def test_dims_whose_int64_product_wraps_rejected_with_offset(self, tmp_path):
        # sized as an int64 product these dims need 0 payload bytes, so the
        # read would succeed and only the reshape would fail
        dims = (262144, 65536, 65536, 3489071104)
        assert int(np.prod(dims, dtype=np.int64)) == 0
        path = str(tmp_path / "w.nrmk")
        save_entries(path, {"ab": np.ones((1, 1, 1, 1))})
        blob = bytearray(open(path, "rb").read())
        dims_at = len(MAGIC) + 4 + 2 + 2  # after the count, the name length and "ab"
        blob[dims_at : dims_at + 16] = struct.pack("<4I", *dims)
        open(path, "wb").write(bytes(blob))
        match = f"truncated while reading payload of 'ab' \\(byte offset {dims_at + 16}\\)"
        with pytest.raises(FormatError, match=match):
            load_entries(path)

    def test_wrong_kind_files_rejected_cleanly(self, tmp_path):
        from normkit.generator import Generator, GeneratorConfig, build
        from normkit.loss import FeatureExtractor
        from normkit.tensor import RngStream

        phi_path = str(tmp_path / "phi.nrmk")
        FeatureExtractor.seeded().save(phi_path)
        with pytest.raises(FormatError):
            Generator.load(phi_path)

        gen_path = str(tmp_path / "gen.nrmk")
        build(GeneratorConfig(), RngStream(1)).save(gen_path)
        with pytest.raises(FormatError):
            FeatureExtractor.load(gen_path)
