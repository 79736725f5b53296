"""Flat binary container for named float64 tensors.

Layout (all integers little-endian):

    magic   6 bytes   b"NRMK1\\n"
    count   uint32    number of entries
    entry   repeated:
        name_len  uint16
        name      name_len bytes, UTF-8, unique within the file
        dims      4 x uint32  (T, C, W, H)
        data      T*C*W*H float64 values

The save -> load round trip is bitwise lossless; entry order is preserved.

A model loads a file by building its zero-weight skeleton and calling
:func:`fill`. Generator and extractor loads both raise ``FormatError``, naming
the entry or, for the container, the byte offset, on:

* bad magic, truncation, a zero dimension, a duplicate or non-UTF-8 name, or
  trailing bytes;
* a missing or unexpected entry, a wrong shape, or a non-finite value;
* a ``meta.*`` entry other than what the loaded model writes back, such as
  a wrong ``meta.kind``, a fractional count or an unknown code;
* a size that the arrays contradict: a generator's ``meta.*`` size, an
  extractor tap past ``meta.blocks``, an even kernel, or a kernel or channel
  count that breaks the block chain;
* a negative batch-norm variance, or a fractional or negative sample count.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, InvalidArgument
from .tensor import require_tensor4

MAGIC = b"NRMK1\n"


def save_entries(path: str, entries: dict[str, np.ndarray]) -> None:
    """Write named tensors in insertion order."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", len(entries))
    seen = set()
    for name, tensor in entries.items():
        require_tensor4(tensor, f"entry {name!r}")
        if name in seen:
            raise InvalidArgument(f"duplicate entry name {name!r}")
        seen.add(name)
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise InvalidArgument(f"entry name too long: {name!r}")
        blob += struct.pack("<H", len(raw))
        blob += raw
        blob += struct.pack("<4I", *tensor.shape)
        blob += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def load_entries(path: str) -> dict[str, np.ndarray]:
    """Read named tensors back, preserving file order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    off = len(MAGIC)

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"truncated while reading {what}", offset=off)
        piece = blob[off : off + n]
        off += n
        return piece

    (count,) = struct.unpack("<I", take(4, "entry count"))
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("entry name is not valid UTF-8", offset=off - name_len)
        if name in entries:
            raise FormatError(f"duplicate entry name {name!r}", offset=off)
        dims = struct.unpack("<4I", take(16, "dims"))
        if any(d < 1 for d in dims):
            raise FormatError(f"entry {name!r} has a zero dimension {dims}", offset=off - 16)
        # Python ints: an int64 product of four uint32 dims can wrap to a
        # small number, which take() would then accept
        data = take(8 * math.prod(dims), f"payload of {name!r}")
        arr = np.frombuffer(data, dtype="<f8").reshape(dims).astype(np.float64)
        entries[name] = arr
    if off != len(blob):
        raise FormatError("trailing bytes after final entry", offset=off)
    return entries


def scalar_entry(value: float) -> np.ndarray:
    """Encode one scalar as a (1,1,1,1) tensor entry."""
    return np.full((1, 1, 1, 1), float(value))


def entry(entries: dict[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return entries[name]
    except KeyError:
        raise FormatError(f"weight file missing entry {name!r}")


def entry_counts(entries: dict[str, np.ndarray], name: str, minimum: int = 1) -> tuple[int, ...]:
    """Every value of entry ``name`` as an int; each must be a whole number >= ``minimum``."""
    values = [float(v) for v in entry(entries, name).ravel()]
    if not all(v.is_integer() and v >= minimum for v in values):
        raise FormatError(f"entry {name!r} holds {values!r}, expected whole numbers >= {minimum}")
    return tuple(int(v) for v in values)


def fill(skeleton: dict[str, np.ndarray], entries: dict[str, np.ndarray]) -> None:
    """Copy ``entries`` into the live arrays of ``skeleton``, a model's own ``to_entries()``.

    A ``meta.*`` entry is compared, not copied: it must equal bit for bit what
    the decoded model re-encodes. The skeleton lists meta first, so a corrupt
    meta value is named before the arrays it would mis-size.
    """
    for name, live in skeleton.items():
        value = entry(entries, name)
        if value.shape != live.shape:
            raise FormatError(f"entry {name!r} has shape {value.shape}, expected {live.shape}")
        if not np.isfinite(value).all():
            raise FormatError(f"entry {name!r} holds non-finite values")
        if not name.startswith("meta."):
            live[...] = value
        elif value.tobytes() != live.tobytes():
            raise FormatError(f"entry {name!r} holds {value.ravel().tolist()}, "
                              f"which reads back as {live.ravel().tolist()}")
    unexpected = [name for name in entries if name not in skeleton]
    if unexpected:
        raise FormatError(f"weight file has unexpected entry {unexpected[0]!r}")
