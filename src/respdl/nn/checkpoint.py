"""Binary checkpoint container: a header text and named float32 arrays.

Layout (all little-endian): magic "RSDL", u16 version, u32 header length +
UTF-8 bytes, u32 entry count; then per entry u16 name length + bytes, u8
ndim, u32 dims, raw f32 data; last, the CRC-32 of everything before it as
a u32. The container does not interpret the header; ``harness`` writes and
reads it.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import FormatError

_MAGIC = b"RSDL"
_VERSION = 2


def save_checkpoint(path, header: str, arrays: dict) -> None:
    """Write ``arrays`` (name -> array, stored as float32 in name order)
    under ``header``; the file is replaced atomically."""
    head = header.encode()
    chunks = [_MAGIC, struct.pack("<HI", _VERSION, len(head)), head,
              struct.pack("<I", len(arrays))]
    for name, data in sorted(arrays.items()):
        nb = name.encode()
        a = np.ascontiguousarray(data, dtype="<f4")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}I", *a.shape))
        chunks.append(a.tobytes())
    body = b"".join(chunks)
    tmp = Path(str(path) + ".tmp")
    tmp.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    tmp.replace(path)


def load_checkpoint(path):
    """Returns (header, {name: float32 array}). A file that is not a
    version-2 checkpoint, or is truncated or corrupted, is a FormatError."""
    data = Path(path).read_bytes()
    if len(data) < 6 or data[:4] != _MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    body, crc = data[:-4], data[-4:]
    if zlib.crc32(body) != int.from_bytes(crc, "little"):
        raise FormatError(f"{path}: checkpoint truncated or corrupted (checksum mismatch)")
    try:
        return _parse(body)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint: {exc}") from None


def _parse(body: bytes):
    (headlen,) = struct.unpack_from("<I", body, 6)
    pos = 10
    header = body[pos : pos + headlen].decode()
    pos += headlen
    (count,) = struct.unpack_from("<I", body, pos)
    pos += 4

    entries = {}
    for _ in range(count):
        (namelen,) = struct.unpack_from("<H", body, pos)
        pos += 2
        name = body[pos : pos + namelen].decode()
        pos += namelen
        (ndim,) = struct.unpack_from("<B", body, pos)
        pos += 1
        shape = struct.unpack_from(f"<{ndim}I", body, pos)
        pos += 4 * ndim
        n = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(body, dtype="<f4", count=n, offset=pos).reshape(shape)
        pos += 4 * n
        entries[name] = arr.copy()
    if pos != len(body):
        raise ValueError("trailing bytes")
    return header, entries

