"""Binary PPM (P6) image codec and image <-> tensor conversion.

The writer emits exactly ``P6\\n<w> <h>\\n255\\n`` followed by the RGB
payload. The reader is liberal in what it accepts: arbitrary whitespace
between header tokens and ``#`` comments wherever whitespace may appear,
except that exactly one whitespace byte follows maxval. Header numbers are
ASCII decimal digits, and only maxval 255 is supported.

Images convert to (1, 3, W, H) tensors by value/255 and back by
round(clamp(v, 0, 1) * 255).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidArgument, InvalidShape
from .tensor import Tensor4, require_tensor4

_WHITESPACE = b" \t\r\n\x0b\x0c"


@dataclass
class ImageRGB:
    """8-bit RGB image; ``pixels`` is row-major from the top-left corner."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidShape(f"image dims must be positive, got {self.width}x{self.height}")
        if len(self.pixels) != self.width * self.height * 3:
            raise InvalidShape(
                f"pixel payload has {len(self.pixels)} bytes, "
                f"expected {self.width * self.height * 3}"
            )


def _next_token(blob: bytes, off: int) -> tuple[bytes, int]:
    n = len(blob)
    while off < n:
        ch = blob[off : off + 1]
        if ch == b"#":
            while off < n and blob[off : off + 1] not in b"\r\n":
                off += 1
        elif ch in _WHITESPACE:
            off += 1
        else:
            break
    if off >= n:
        raise FormatError("truncated header", offset=off)
    start = off
    while off < n and blob[off : off + 1] not in _WHITESPACE and blob[off : off + 1] != b"#":
        off += 1
    return blob[start:off], off


def read_ppm(path: str) -> ImageRGB:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, off = _next_token(blob, 0)
    if magic != b"P6":
        raise FormatError(f"bad magic {magic!r}, expected b'P6'", offset=0)
    fields = []
    for what in ("width", "height", "maxval"):
        token, off = _next_token(blob, off)
        # ASCII decimal only: int() would also take b"+2" and b"1_0"
        if not token.isdigit():
            raise FormatError(f"non-numeric {what} token {token!r}", offset=off - len(token))
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", offset=off)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255", offset=off)
    # exactly one whitespace byte separates the header from the payload
    if blob[off : off + 1] not in _WHITESPACE:
        raise FormatError(
            f"byte {blob[off : off + 1]!r} after maxval is not whitespace", offset=off
        )
    off += 1
    need = width * height * 3
    payload = blob[off : off + need]
    if len(payload) != need:
        raise FormatError(
            f"truncated payload: expected {need} bytes, got {len(payload)}", offset=off
        )
    return ImageRGB(width=width, height=height, pixels=bytes(payload))


def write_ppm(path: str, img: ImageRGB) -> None:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels)


def image_to_tensor(img: ImageRGB) -> Tensor4:
    """(1, 3, W, H) float64 tensor with values in [0, 1]."""
    arr = np.frombuffer(img.pixels, dtype=np.uint8).reshape(img.height, img.width, 3)
    return arr.transpose(2, 1, 0).astype(np.float64)[None] / 255.0


def tensor_to_image(t: Tensor4) -> ImageRGB:
    """Quantize a (1, 3, W, H) tensor back to 8-bit RGB."""
    require_tensor4(t, "t")
    if t.shape[0] != 1 or t.shape[1] != 3:
        raise InvalidShape(f"expected a (1, 3, W, H) tensor, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise InvalidArgument("tensor contains non-finite values")
    quant = np.rint(np.clip(t[0], 0.0, 1.0) * 255.0).astype(np.uint8)
    pixels = quant.transpose(2, 1, 0).tobytes()
    return ImageRGB(width=t.shape[2], height=t.shape[3], pixels=pixels)
