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
detected either structurally or by the trailing CRC. There is one writer,
``archive_write``, which writes each tensor straight from its array's
buffer, and one reader, ``archive_reader``, which yields one tensor at a
time, as it is read, after checking every length against the file size
before it allocates, and checks the trailing CRC once the last tensor has
been read; ``archive_read`` is a dict over it. Every error about a file's
contents, whichever reader raises it, is an ``ArchiveError`` whose message
starts with the file's path, once. The CRC is chained, in the calling
thread, over each buffer as it is written or read, in file order and with
no copy.
Names are UTF-8 both ways: one that cannot be encoded or decoded is an
``ArchiveError``. Writes go to a temporary file, which is renamed into
place only once every tensor is written, and removed on any error.

Model checkpoints add a ``__meta__`` record of the config. There is one
checkpoint reader, ``read_checkpoint``, which gives the config and then the
tensors one at a time, in file order, to the model's one layout walk:
``load_model`` is ``from_tensors`` over it, and ``kronlm compress`` passes
it to ``compress_model``, which so holds the student it builds and at most
one teacher tensor and its factors at a time (tensors stored ahead of their
layer wait for it), and writes the student only after the input's CRC has
been checked. Either way the walk names the offending tensor, and a file
that fails its CRC is reported as that before anything about its tensors.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager

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
from .model import GPTConfig, TinyGPTModel, check_tensor_count

MAGIC = b"KTNZ"
VERSION = 1

_DTYPE_TAGS = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_TAG_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def archive_write(path, tensors) -> None:
    """Write named tensors (dict or (name, array) pairs) to ``path``.

    Only float32/float64 arrays are accepted; names must be unique,
    UTF-8 encodable ``str``s. Every tensor is checked before the file is
    opened; the data is then written from each array's own buffer, and the
    CRC is chained over the same chunks as they are written.
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
        with os.fdopen(fd, "wb") as fh:
            crc = 0
            for chunk in chunks:
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Reads an open archive front to back. Every length is checked against
    the file size before it is read or allocated, and ``crc`` is chained
    over every byte ``take`` and ``take_array`` return, in file order."""

    def __init__(self, fh, head: bytes):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = len(head)
        self.crc = zlib.crc32(head)

    def _claim(self, n: int, what: str) -> None:
        if self.pos + n > self.size:  # n, from the file's dims, may have thousands of digits
            needed = n if n.bit_length() <= 128 else f"at least 2**{n.bit_length() - 1}"
            raise TruncationError(
                f"archive truncated while reading {what}: "
                f"needed {needed} bytes at offset {self.pos}, file has {self.size}"
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
        self.crc = zlib.crc32(out, self.crc)
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
        self.crc = zlib.crc32(buf, self.crc)
        return out

    def tensors(self, count: int):
        """The ``count`` (name, array) pairs after the header, each read when
        asked for; once the last is read, the trailing CRC is checked."""
        seen = set()
        for i in range(count):
            label = f"tensor #{i}"
            (name_len,) = struct.unpack("<H", self.take(2, f"{label} name length"))
            try:
                name = self.take(name_len, f"{label} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ArchiveError(f"{label} name is not valid UTF-8 "
                                   f"({exc.reason} at byte {exc.start})") from None
            label = f"tensor #{i} ({name!r})"
            tag, rank = struct.unpack("<BB", self.take(2, f"{label} dtype/rank"))
            if tag not in _TAG_DTYPES:
                raise ArchiveError(f"{label}: unknown dtype tag {tag}")
            dims = struct.unpack(f"<{rank}Q", self.take(8 * rank, f"{label} dims"))
            arr = self.take_array(dims, _TAG_DTYPES[tag], f"{label} data")
            if name in seen:
                raise DuplicateNameError(f"duplicate tensor name {name!r}")
            seen.add(name)
            yield name, arr
        remaining = self.size - self.pos
        if remaining < 4:
            raise TruncationError(f"archive truncated: {remaining} bytes left, CRC needs 4")
        if remaining > 4:
            raise ArchiveError(f"{remaining - 4} unexpected trailing bytes before CRC")
        (stored,) = struct.unpack("<I", self.read(4, "CRC"))
        if stored != self.crc:  # of every byte before the CRC
            raise CrcError(f"CRC mismatch: stored {stored:#010x}, computed {self.crc:#010x}")


@contextmanager
def archive_reader(path):
    """``(count, tensors)`` of the archive at ``path``: the number of tensors
    its header gives and an iterator over its (name, array) pairs in file
    order. Each pair is read when it is asked for, so a caller can drop one
    before it reads the next; the trailing CRC is checked once the last one
    is read, and a name stored twice is a DuplicateNameError. Leaving the
    block closes the file, however far the iteration got. An ArchiveError,
    the reader's or one raised in the block, is raised with ``path`` in
    front of its message."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
            cur = _Reader(fh, magic)
            version, count = struct.unpack("<II", cur.take(8, "header"))
            if version != VERSION:
                raise BadVersionError(f"unsupported archive version {version}")
            yield count, cur.tensors(count)
    except ArchiveError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def archive_read(path) -> dict:
    """Read an archive back into an ordered {name: array} dict."""
    with archive_reader(path) as (_, tensors):
        return dict(tensors)


# ---- model checkpoints -------------------------------------------------------

_META_NAME = "__meta__"
# GPTConfig fields stored in __meta__, in order
_META_FIELDS = ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size", "max_seq_len", "seed")


def save_model(model: TinyGPTModel, path) -> None:
    meta = np.array([getattr(model.config, f) for f in _META_FIELDS], dtype=np.float64)
    archive_write(path, [(_META_NAME, meta)] + model.named_parameters())


def load_model(path) -> TinyGPTModel:
    """The model stored at ``path``: read_checkpoint's tensors, built by
    ``from_tensors``. Its errors are read_checkpoint's."""
    with read_checkpoint(path) as (config, tensors):
        return TinyGPTModel.from_tensors(config, dict(tensors))


@contextmanager
def read_checkpoint(path):
    """``(config, tensors)`` of the model checkpoint at ``path``, read front
    to back (archive_reader): its GPTConfig and an iterator over every
    tensor but __meta__, as (name, float64 array) pairs. Tensors stored
    before __meta__ are held until it is read, and come first, each dropped
    as it goes. An error of the file is an ArchiveError naming it, and so is
    a ShapeError raised in the block, about the checkpoint's tensors; a
    KronlmError raised in the block is raised only once the rest of the file
    has been read, so that a file that fails its CRC is reported as that."""
    with archive_reader(path) as (count, stream):
        try:
            held, meta = {}, None
            for name, arr in stream:
                if name == _META_NAME:
                    meta = arr
                    break
                held[name] = arr
            config = _config(meta)
            check_tensor_count(config, count - 1)  # before the config sizes a layout
            early = ((name, held.pop(name)) for name in list(held))
            yield config, ((name, arr.astype(np.float64, copy=False))
                           for name, arr in itertools.chain(early, stream))
        except KronlmError as exc:
            for _ in stream:  # an error of the file itself comes first
                pass
            if isinstance(exc, ShapeError):
                raise ArchiveError(f"checkpoint {exc}") from exc
            raise


def _config(meta) -> GPTConfig:
    """The GPTConfig a checkpoint's __meta__ record (None if it has none) holds."""
    if meta is None:
        raise ArchiveError("checkpoint has no __meta__ record; not a model archive")
    meta = meta.astype(np.float64, copy=False)
    if meta.shape != (len(_META_FIELDS),):
        raise ArchiveError(
            f"checkpoint __meta__: expected shape ({len(_META_FIELDS)},), found {meta.shape}"
        )
    for f, x in zip(_META_FIELDS, meta.tolist()):
        if not x.is_integer():  # nor are NaN and the infinities
            raise ArchiveError(f"checkpoint __meta__ {f} {x} is not a whole number")
    try:
        return GPTConfig(**{f: int(x) for f, x in zip(_META_FIELDS, meta)})
    except (KronlmError, ValueError) as exc:
        raise ArchiveError(f"checkpoint __meta__ {meta.tolist()} is not a model config: {exc}") from exc
