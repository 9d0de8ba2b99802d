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
detected either structurally or by the trailing CRC. Writes and reads
stream one tensor at a time, straight from and into the arrays' buffers,
with the CRC accumulated as they go; a read checks every length against
the file size before it allocates. Writes go to a temporary file and are
renamed into place.
"""

from __future__ import annotations

import math
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

    Only float32/float64 arrays are accepted; names must be unique. Every
    tensor is checked before the file is opened; the data is then written
    from each array's own buffer, with the CRC accumulated on the way.
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
        if arr.dtype not in _DTYPE_TAGS:  # both tags are little-endian, so the data is too
            raise ArchiveError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ArchiveError(f"tensor name too long ({len(encoded)} bytes)")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(memoryview(arr.reshape(-1)))
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            crc = 0
            for chunk in chunks:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Reads an open archive front to back. Every length is checked against
    the file size before it is read or allocated, and the CRC of every byte
    read so far is kept."""

    def __init__(self, fh, head: bytes):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = len(head)
        self.crc = zlib.crc32(head)

    def _claim(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise TruncationError(
                f"archive truncated while reading {what}: "
                f"needed {n} bytes at offset {self.pos}, file has {self.size}"
            )

    def _advance(self, buf, n: int, what: str) -> None:
        if len(buf) != n:  # the file shrank after fstat
            raise TruncationError(f"archive truncated while reading {what}: "
                                  f"read {len(buf)} of {n} bytes at offset {self.pos}")
        self.pos += n
        self.crc = zlib.crc32(buf, self.crc)

    def take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        out = self.fh.read(n)
        self._advance(out, n, what)
        return out

    def take_array(self, dims, dtype: np.dtype, what: str) -> np.ndarray:
        n = math.prod(dims) * dtype.itemsize  # Python ints: no wrap; rank 0 is one element
        self._claim(n, what)
        try:
            out = np.empty(dims, dtype)
        except ValueError:  # a zero-size shape with a dim numpy cannot hold
            raise ArchiveError(f"{what}: dims {dims} are not a numpy shape") from None
        buf = memoryview(out.reshape(-1)).cast("B")
        self._advance(buf[: self.fh.readinto(buf)], n, what)
        return out


def archive_read(path) -> dict:
    """Read an archive back into an ordered {name: array} dict."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        cur = _Reader(fh, magic)
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
            arr = cur.take_array(dims, _TAG_DTYPES[tag], f"{label} data")
            if name in tensors:
                raise DuplicateNameError(f"duplicate tensor name {name!r}")
            tensors[name] = arr
        remaining = cur.size - cur.pos
        if remaining < 4:
            raise TruncationError(f"archive truncated: {remaining} bytes left, CRC needs 4")
        if remaining > 4:
            raise ArchiveError(f"{remaining - 4} unexpected trailing bytes before CRC")
        actual = cur.crc  # of every byte before the CRC
        (stored_crc,) = struct.unpack("<I", cur.take(4, "CRC"))
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
    """The model stored at ``path``; an archive error names the file."""
    try:
        return _model_from(archive_read(path))
    except ArchiveError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _model_from(tensors: dict) -> TinyGPTModel:
    tensors = {k: v.astype(np.float64, copy=False) for k, v in tensors.items()}
    meta = tensors.pop(_META_NAME, None)
    if meta is None:
        raise ArchiveError("checkpoint has no __meta__ record; not a model archive")
    if meta.shape != (len(_META_FIELDS),):
        raise ArchiveError(
            f"checkpoint __meta__: expected shape ({len(_META_FIELDS)},), found {meta.shape}"
        )
    for f, x in zip(_META_FIELDS, meta.tolist()):
        if not x.is_integer():  # nor are NaN and the infinities
            raise ArchiveError(f"checkpoint __meta__ {f} {x} is not a whole number")
    try:
        cfg = GPTConfig(**{f: int(x) for f, x in zip(_META_FIELDS, meta)})
    except (KronlmError, ValueError) as exc:
        raise ArchiveError(f"checkpoint __meta__ {meta.tolist()} is not a model config: {exc}") from exc
    try:
        return TinyGPTModel.from_tensors(cfg, tensors)
    except ShapeError as exc:
        raise ArchiveError(f"checkpoint {exc}") from exc
