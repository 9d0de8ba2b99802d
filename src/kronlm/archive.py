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
stream one tensor at a time, straight from and into the arrays' buffers;
a read checks every length against the file size before it allocates.
The CRC is computed on a worker thread that each read or write call starts
and joins before it returns or raises: the calling thread does the I/O
while the worker hashes the same buffers, in file order, with no copy
(``zlib.crc32`` releases the GIL for buffers over 5 KB). The bytes on disk
are the same as with a CRC computed in series. Names are UTF-8 both ways:
one that cannot be encoded or decoded is an ``ArchiveError``. Writes go to
a temporary file and are renamed into place.
"""

from __future__ import annotations

import math
import os
import queue
import struct
import tempfile
import threading
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


class _Crc32:
    """CRC-32 of the buffers ``put`` to it, in order, computed on a thread of
    its own. Use it as a context manager: leaving the block joins the thread,
    so none outlives the archive call, and a child made by ``fork`` after the
    call inherits no half-alive worker. The buffers are hashed where they
    lie, so they must not change once put."""

    def __init__(self):
        self._queue = queue.SimpleQueue()
        self._crc = 0
        self._error = None
        self._thread = threading.Thread(target=self._run, name="kronlm-archive-crc")
        self._thread.start()

    def _run(self) -> None:
        crc = 0
        try:
            while (buf := self._queue.get()) is not None:
                crc = zlib.crc32(buf, crc)
        except BaseException as exc:  # re-raised in the caller by value()
            self._error = exc
        self._crc = crc

    def put(self, buf) -> None:
        self._queue.put(buf)

    def _join(self) -> None:
        self._queue.put(None)
        self._thread.join()

    def value(self) -> int:
        """The CRC of every buffer put so far; the worker ends here."""
        self._join()
        if self._error is not None:
            raise self._error
        return self._crc

    def __enter__(self) -> "_Crc32":
        return self

    def __exit__(self, *exc_info) -> None:
        self._join()


def archive_write(path, tensors) -> None:
    """Write named tensors (dict or (name, array) pairs) to ``path``.

    Only float32/float64 arrays are accepted; names must be unique,
    UTF-8 encodable ``str``s. Every tensor is checked before the file is
    opened; the data is then written from each array's own buffer while a
    worker thread computes the CRC of the same chunks.
    """
    items = list(tensors.items()) if isinstance(tensors, dict) else list(tensors)
    seen = set()
    chunks = [MAGIC, struct.pack("<II", VERSION, len(items))]
    for i, (name, arr) in enumerate(items):
        if not isinstance(name, str):
            raise ArchiveError(f"tensor {name!r}: name must be a str, got {type(name).__name__}")
        if name in seen:
            raise DuplicateNameError(f"duplicate tensor name {name!r}")
        seen.add(name)
        arr = np.asarray(arr)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # never hit for 0-d, which it would promote
        if arr.dtype not in _DTYPE_TAGS:  # both tags are little-endian, so the data is too
            raise ArchiveError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        try:
            encoded = name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ArchiveError(f"tensor {name!r}: name is not valid UTF-8 ({exc.reason})") from None
        if len(encoded) > 0xFFFF:
            raise ArchiveError(f"tensor #{i}: name too long ({len(encoded)} bytes, at most 65535)")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(memoryview(arr.reshape(-1)))
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh, _Crc32() as crc:
            for chunk in chunks:
                crc.put(chunk)
            for chunk in chunks:
                fh.write(chunk)
            fh.write(struct.pack("<I", crc.value()))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Reads an open archive front to back. Every length is checked against
    the file size before it is read or allocated, and every byte ``take``
    and ``take_array`` return is put to ``crc``, in file order."""

    def __init__(self, fh, head: bytes, crc: _Crc32):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = len(head)
        self.crc = crc
        crc.put(head)

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

    def read(self, n: int, what: str) -> bytes:
        """The next ``n`` bytes, not hashed."""
        self._claim(n, what)
        out = self.fh.read(n)
        self._advance(out, n, what)
        return out

    def take(self, n: int, what: str) -> bytes:
        out = self.read(n, what)
        self.crc.put(out)
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
        self.crc.put(buf)
        return out


def archive_read(path) -> dict:
    """Read an archive back into an ordered {name: array} dict."""
    with open(path, "rb") as fh, _Crc32() as crc:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        cur = _Reader(fh, magic, crc)
        version, count = struct.unpack("<II", cur.take(8, "header"))
        if version != VERSION:
            raise BadVersionError(f"unsupported archive version {version}")
        tensors = {}
        for i in range(count):
            label = f"tensor #{i}"
            (name_len,) = struct.unpack("<H", cur.take(2, f"{label} name length"))
            try:
                name = cur.take(name_len, f"{label} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ArchiveError(f"{label} name is not valid UTF-8 "
                                   f"({exc.reason} at byte {exc.start})") from None
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
        (stored_crc,) = struct.unpack("<I", cur.read(4, "CRC"))
        actual = crc.value()  # of every byte before the CRC
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
