from pathlib import Path

import numpy as np
import pytest
from helpers import make_fixture_image

from normkit.errors import FormatError, InvalidShape
from normkit.imageio import ImageRGB, image_to_tensor, read_ppm, tensor_to_image, write_ppm
from normkit.tensor import RngStream


def random_image(seed, w, h):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    raw = rng.integers(0, 256, size=w * h * 3, dtype=np.uint8)
    return ImageRGB(width=w, height=h, pixels=raw.tobytes())


class TestPpmRoundTrip:
    @pytest.mark.parametrize("w,h", [(1, 1), (2, 2), (7, 3), (32, 32)])
    def test_write_read_identical(self, tmp_path, w, h):
        img = random_image(w * 100 + h, w, h)
        path = str(tmp_path / "img.ppm")
        write_ppm(path, img)
        back = read_ppm(path)
        assert (back.width, back.height) == (w, h)
        assert back.pixels == img.pixels

    def test_exact_header_bytes(self, tmp_path):
        img = random_image(5, 2, 2)
        path = str(tmp_path / "img.ppm")
        write_ppm(path, img)
        blob = Path(path).read_bytes()
        assert blob[:9] == b"P6\n2 2\n255\n"[:9]
        assert blob == b"P6\n2 2\n255\n" + img.pixels
        assert len(blob) == 11 + 12


class TestPpmReader:
    def test_accepts_comments_and_whitespace(self, tmp_path):
        img = random_image(6, 3, 2)
        path = str(tmp_path / "img.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6 # a comment\n# another line\n  3\t2 # dims\n255\n")
            fh.write(img.pixels)
        back = read_ppm(path)
        assert back.pixels == img.pixels

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


class TestTensorConversion:
    def test_round_trip_within_quantization(self):
        t = RngStream(9).uniform((1, 3, 8, 6))
        img = tensor_to_image(t)
        back = image_to_tensor(img)
        assert back.shape == t.shape
        assert np.max(np.abs(back - t)) < 1.0 / 255.0

    def test_image_tensor_image_exact(self):
        img = random_image(11, 5, 4)
        again = tensor_to_image(image_to_tensor(img))
        assert again.pixels == img.pixels

    def test_quantization_rule(self):
        t = np.zeros((1, 3, 1, 1))
        t[0, :, 0, 0] = [-0.5, 0.5, 1.7]  # clamp then round
        img = tensor_to_image(t)
        assert list(img.pixels) == [0, 128, 255]

    def test_rejects_batch(self):
        with pytest.raises(InvalidShape):
            tensor_to_image(RngStream(1).uniform((2, 3, 4, 4)))

    def test_fixture_images_are_valid(self, tmp_path):
        img = make_fixture_image(100, gain=0.55, offset=0.1)
        assert img.width == img.height == 32
        vals = np.frombuffer(img.pixels, dtype=np.uint8)
        assert vals.min() >= 0 and vals.max() <= 255
