"""Binary PPM (P6) codec for (1, 3, W, H) tensors.

The reader returns the 8-bit RGB payload (row-major from the top-left
corner) as a (1, 3, W, H) float64 tensor of value/255. It is liberal in
what it accepts: arbitrary whitespace between header tokens and ``#``
comments wherever whitespace may appear, except that exactly one
whitespace byte follows maxval. Header numbers are ASCII decimal digits,
and only maxval 255 is supported.

The writer quantizes each value by round(clamp(v, 0, 1) * 255) and emits
exactly ``P6\\n<w> <h>\\n255\\n`` followed by the RGB payload.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, InputError, InvalidArgument, InvalidShape
from .tensor import Tensor4, require_tensor4

_WHITESPACE = b" \t\r\n\x0b\x0c"


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


def read_ppm(path: str) -> Tensor4:
    """(1, 3, W, H) float64 tensor with values in [0, 1]."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read image {path!r}: {exc}")
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
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return arr.transpose(2, 1, 0).astype(np.float64)[None] / 255.0


def write_ppm(path: str, t: Tensor4) -> None:
    """Quantize a (1, 3, W, H) tensor to 8-bit RGB and write it as a PPM."""
    require_tensor4(t, "t")
    if t.shape[0] != 1 or t.shape[1] != 3:
        raise InvalidShape(f"expected a (1, 3, W, H) tensor, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise InvalidArgument("tensor contains non-finite values")
    quant = np.rint(np.clip(t[0], 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{t.shape[2]} {t.shape[3]}\n255\n".encode("ascii"))
        fh.write(quant.transpose(2, 1, 0).tobytes())
