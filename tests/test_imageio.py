import os
from pathlib import Path

import numpy as np
import pytest
from helpers import make_fixture_image
from hypothesis import given
from hypothesis import strategies as st

from normkit.errors import FormatError, InputError, InvalidShape
from normkit.imageio import read_ppm, write_ppm
from normkit.tensor import RngStream


def random_pixels(seed, w, h):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return rng.integers(0, 256, size=w * h * 3, dtype=np.uint8).tobytes()


def write_raw(path, w, h, pixels):
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    # hypothesis rejects function-scoped fixtures such as tmp_path
    return tmp_path_factory.mktemp("ppm")


class TestPpmRoundTrip:
    @pytest.mark.parametrize("w,h", [(1, 1), (2, 2), (7, 3), (32, 32)])
    def test_write_read_identical(self, tmp_path, w, h):
        pixels = random_pixels(w * 100 + h, w, h)
        src, dst = str(tmp_path / "src.ppm"), str(tmp_path / "dst.ppm")
        write_raw(src, w, h, pixels)
        t = read_ppm(src)
        assert t.shape == (1, 3, w, h)
        write_ppm(dst, t)
        assert Path(dst).read_bytes() == Path(src).read_bytes()

    @given(w=st.integers(1, 16), h=st.integers(1, 16), data=st.data())
    def test_write_read_identical_any_payload(self, scratch, w, h, data):
        pixels = data.draw(st.binary(min_size=w * h * 3, max_size=w * h * 3))
        src, dst = str(scratch / "src.ppm"), str(scratch / "dst.ppm")
        write_raw(src, w, h, pixels)
        t = read_ppm(src)
        assert t.dtype == np.float64 and t.shape == (1, 3, w, h)
        # payload byte (y*w + x)*3 + c is channel c of the pixel at column x, row y
        expected = [[[pixels[(y * w + x) * 3 + c] / 255.0 for y in range(h)]
                     for x in range(w)] for c in range(3)]
        assert np.array_equal(t[0], expected)
        write_ppm(dst, t)
        assert Path(dst).read_bytes() == Path(src).read_bytes()

    def test_exact_header_bytes(self, tmp_path):
        pixels = random_pixels(5, 2, 2)
        src, path = str(tmp_path / "src.ppm"), str(tmp_path / "img.ppm")
        write_raw(src, 2, 2, pixels)
        write_ppm(path, read_ppm(src))
        blob = Path(path).read_bytes()
        assert blob[:9] == b"P6\n2 2\n255\n"[:9]
        assert blob == b"P6\n2 2\n255\n" + pixels
        assert len(blob) == 11 + 12


class TestPpmReader:
    def test_accepts_comments_and_whitespace(self, tmp_path):
        pixels = random_pixels(6, 3, 2)
        plain, path = str(tmp_path / "plain.ppm"), str(tmp_path / "img.ppm")
        write_raw(plain, 3, 2, pixels)
        with open(path, "wb") as fh:
            fh.write(b"P6 # a comment\n# another line\n  3\t2 # dims\n255\n")
            fh.write(pixels)
        assert np.array_equal(read_ppm(path), read_ppm(plain))

    def test_non_whitespace_after_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        Path(path).write_bytes(b"P6\n1 1\n255#abc")
        with pytest.raises(FormatError, match="byte offset 10") as info:
            read_ppm(path)
        assert info.value.offset == 10

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        Path(path).write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_maxval_not_255(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        Path(path).write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        Path(path).write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 7)
        with pytest.raises(FormatError, match="byte offset"):
            read_ppm(path)

    def test_non_numeric_token(self, tmp_path):
        # netpbm headers are ASCII decimal; int() would take a sign or underscores
        path = str(tmp_path / "img.ppm")
        for header, offset in [(b"P6\nxx 2\n255\n", 3), (b"P6\n+2 2\n255\n", 3),
                               (b"P6\n2 1_0\n255\n", 5), (b"P6\n2 2\n+255\n", 7),
                               (b"P6\n2 2\n2_55\n", 7)]:
            Path(path).write_bytes(header + b"\x00" * 60)
            with pytest.raises(FormatError, match="non-numeric") as info:
                read_ppm(path)
            assert info.value.offset == offset, header

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_file_names_path(self, tmp_path, where):
        path = str(tmp_path / "void.ppm") if where == "missing" else str(tmp_path)
        with pytest.raises(InputError, match="cannot read image") as info:
            read_ppm(path)
        assert repr(path) in str(info.value)


class TestTensorConversion:
    def test_round_trip_within_quantization(self, tmp_path):
        t = RngStream(9).uniform((1, 3, 8, 6))
        path = str(tmp_path / "img.ppm")
        write_ppm(path, t)
        back = read_ppm(path)
        assert back.shape == t.shape
        assert np.max(np.abs(back - t)) < 1.0 / 255.0

    def test_image_tensor_image_exact(self, tmp_path):
        src, again = str(tmp_path / "src.ppm"), str(tmp_path / "again.ppm")
        write_raw(src, 5, 4, random_pixels(11, 5, 4))
        t = read_ppm(src)
        write_ppm(again, t)
        assert np.array_equal(read_ppm(again), t)

    def test_quantization_rule(self, tmp_path):
        t = np.zeros((1, 3, 1, 1))
        t[0, :, 0, 0] = [-0.5, 0.5, 1.7]  # clamp then round
        path = str(tmp_path / "img.ppm")
        write_ppm(path, t)
        assert list(Path(path).read_bytes()[-3:]) == [0, 128, 255]

    def test_rejects_batch(self, tmp_path):
        # the tensor is checked before the file is opened
        path = str(tmp_path / "img.ppm")
        with pytest.raises(InvalidShape):
            write_ppm(path, RngStream(1).uniform((2, 3, 4, 4)))
        assert not os.path.exists(path)

    def test_fixture_images_are_valid(self, tmp_path):
        img = make_fixture_image(100, gain=0.55, offset=0.1)
        assert img.shape == (1, 3, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0
