"""Binary tensor container and model checkpoint helpers.

Layout (all integers little-endian):

    magic   "KTNZ"                      4 bytes
    version u32                         (currently 1)
    count   u32                         number of tensors
    per tensor:
        name_len u16, name UTF-8
        dtype    u8   (1 = f32, 2 = f64)
        rank     u8
        dims     u64 x rank
        data     raw row-major, little-endian
    crc32   u32   of every preceding byte (IEEE polynomial)

Round trips are bit-exact; any single-byte corruption or truncation is
detected either structurally or by the trailing CRC. Writes go to a
temporary file and are renamed into place.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import (
    ArchiveError,
    BadMagicError,
    BadVersionError,
    CrcError,
    DuplicateNameError,
    KronlmError,
    ShapeError,
    TruncationError,
)
from .model import GPTConfig, TinyGPTModel

MAGIC = b"KTNZ"
VERSION = 1

_DTYPE_TAGS = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_TAG_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def archive_write(path, tensors) -> None:
    """Write named tensors (dict or (name, array) pairs) to ``path``.

    Only float32/float64 arrays are accepted; names must be unique.
    """
    items = list(tensors.items()) if isinstance(tensors, dict) else list(tensors)
    seen = set()
    chunks = [MAGIC, struct.pack("<II", VERSION, len(items))]
    for name, arr in items:
        if name in seen:
            raise DuplicateNameError(f"duplicate tensor name {name!r}")
        seen.add(name)
        arr = np.asarray(arr)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # never hit for 0-d, which it would promote
        if arr.dtype not in _DTYPE_TAGS:
            raise ArchiveError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ArchiveError(f"tensor name too long ({len(encoded)} bytes)")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    body = b"".join(chunks)
    payload = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncationError(
                f"archive truncated while reading {what}: "
                f"needed {n} bytes at offset {self.pos}, file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out


def archive_read(path) -> dict:
    """Read an archive back into an ordered {name: array} dict."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    cur = _Cursor(data)
    cur.take(4, "magic")
    version, count = struct.unpack("<II", cur.take(8, "header"))
    if version != VERSION:
        raise BadVersionError(f"unsupported archive version {version}")
    tensors = {}
    for i in range(count):
        label = f"tensor #{i}"
        (name_len,) = struct.unpack("<H", cur.take(2, f"{label} name length"))
        name = cur.take(name_len, f"{label} name").decode("utf-8", errors="replace")
        label = f"tensor #{i} ({name!r})"
        tag, rank = struct.unpack("<BB", cur.take(2, f"{label} dtype/rank"))
        if tag not in _TAG_DTYPES:
            raise ArchiveError(f"{label}: unknown dtype tag {tag}")
        dims = struct.unpack(f"<{rank}Q", cur.take(8 * rank, f"{label} dims"))
        dtype = _TAG_DTYPES[tag]
        n_bytes = int(np.prod(dims, dtype=np.uint64)) * dtype.itemsize  # rank 0: one element
        raw = cur.take(n_bytes, f"{label} data")
        if name in tensors:
            raise DuplicateNameError(f"duplicate tensor name {name!r}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
    remaining = len(data) - cur.pos
    if remaining < 4:
        raise TruncationError(f"archive truncated: {remaining} bytes left, CRC needs 4")
    if remaining > 4:
        raise ArchiveError(f"{remaining - 4} unexpected trailing bytes before CRC")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    actual = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual:
        raise CrcError(f"CRC mismatch: stored {stored_crc:#010x}, computed {actual:#010x}")
    return tensors


# ---- model checkpoints -------------------------------------------------------

_META_NAME = "__meta__"
# GPTConfig fields stored in __meta__, in order
_META_FIELDS = ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size", "max_seq_len", "seed")


def save_model(model: TinyGPTModel, path) -> None:
    meta = np.array([getattr(model.config, f) for f in _META_FIELDS], dtype=np.float64)
    tensors = [(_META_NAME, meta)] + [(n, a) for n, a in model.named_parameters()]
    archive_write(path, tensors)


def load_model(path) -> TinyGPTModel:
    tensors = {k: v.astype(np.float64, copy=False) for k, v in archive_read(path).items()}
    meta = tensors.pop(_META_NAME, None)
    if meta is None:
        raise ArchiveError("checkpoint has no __meta__ record; not a model archive")
    if meta.shape != (len(_META_FIELDS),):
        raise ArchiveError(
            f"checkpoint __meta__: expected shape ({len(_META_FIELDS)},), found {meta.shape}"
        )
    try:
        cfg = GPTConfig(**{f: int(x) for f, x in zip(_META_FIELDS, meta)})
    except (KronlmError, ValueError, ZeroDivisionError) as exc:
        raise ArchiveError(f"checkpoint __meta__ {meta.tolist()} is not a model config: {exc}") from exc
    try:
        return TinyGPTModel.from_tensors(cfg, tensors)
    except ShapeError as exc:
        raise ArchiveError(f"checkpoint {exc}") from exc
