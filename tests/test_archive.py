import errno
import hashlib
import io
import math
import os
import re
import signal
import struct
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from kronlm.archive import MAGIC, VERSION, archive_read, archive_write, load_model, save_model
from kronlm.errors import (
    ArchiveError,
    BadMagicError,
    BadVersionError,
    CrcError,
    DuplicateNameError,
    TruncationError,
)
from kronlm.layers import CompressionSchedule
from kronlm.model import GPTConfig, TinyGPTModel, compress_model, layer_tensors, param_layout
from kronlm.tensor_core import Rng


def test_empty_archive_is_16_bytes(tmp_path):
    path = tmp_path / "empty.knz"
    archive_write(path, {})
    assert path.stat().st_size == 16  # 12-byte header + 4-byte CRC
    assert archive_read(path) == {}


def test_single_tensor_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "one.knz"
    t = np.array([[1.5, -2.25], [3.0, 0.125]])
    archive_write(path, {"w": t})
    back = archive_read(path)
    assert list(back) == ["w"]
    assert back["w"].dtype == np.float64
    assert back["w"].tobytes() == t.tobytes()


def test_f32_roundtrip_and_order_preserved(tmp_path):
    path = tmp_path / "two.knz"
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = np.arange(4, dtype=np.float64)
    archive_write(path, [("beta", b), ("alpha", a)])
    back = archive_read(path)
    assert list(back) == ["beta", "alpha"]
    assert back["alpha"].dtype == np.float32
    assert np.array_equal(back["alpha"], a)


def test_every_single_byte_flip_is_detected(tmp_path):
    path = tmp_path / "fuzz.knz"
    archive_write(path, {"a": np.array([[1.0, 2.0]]), "b": np.float32([3.0, 4.0, 5.0])})
    data = bytearray(path.read_bytes())
    corrupt = tmp_path / "corrupt.knz"
    for pos in range(len(data)):
        for flip in (0x01, 0xFF):
            mutated = bytearray(data)
            mutated[pos] ^= flip
            corrupt.write_bytes(bytes(mutated))
            with pytest.raises(ArchiveError):
                archive_read(corrupt)


def test_truncation_names_the_tensor(tmp_path):
    path = tmp_path / "trunc.knz"
    archive_write(path, {"first": np.zeros((2, 2)), "second": np.ones((4, 4))})
    data = path.read_bytes()
    # cut inside the second tensor's data payload
    cut = tmp_path / "cut.knz"
    cut.write_bytes(data[: len(data) - 40])
    with pytest.raises(TruncationError, match="second"):
        archive_read(cut)


def test_truncation_at_random_offsets_always_detected(tmp_path):
    path = tmp_path / "t.knz"
    archive_write(path, {"x": Rng(0).normal(3, 5), "y": Rng(1).normal(2, 2)})
    data = path.read_bytes()
    rng = np.random.default_rng(0)
    for cut in sorted(set(int(c) for c in rng.integers(4, len(data) - 1, size=30))):
        p = path.parent / "cut.knz"
        p.write_bytes(data[:cut])
        with pytest.raises(ArchiveError):
            archive_read(p)


def test_bad_magic_reported(tmp_path):
    path = tmp_path / "m.knz"
    archive_write(path, {})
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError, match="magic"):
        archive_read(path)


def test_bad_version_reported(tmp_path):
    path = tmp_path / "v.knz"
    archive_write(path, {})
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(BadVersionError):
        archive_read(path)


def test_crc_error_reported(tmp_path):
    path = tmp_path / "c.knz"
    archive_write(path, {"t": np.ones((2, 2))})
    data = bytearray(path.read_bytes())
    data[-10] ^= 0x10  # inside the tensor payload
    path.write_bytes(bytes(data))
    with pytest.raises(CrcError, match="CRC"):
        archive_read(path)


def _archive_bytes(*records):
    """A CRC-valid archive of (name, dtype tag, dims, data) records, built by
    hand; a name given as bytes is stored as it is."""
    body = MAGIC + struct.pack("<II", VERSION, len(records))
    for name, tag, dims, data in records:
        encoded = name if isinstance(name, bytes) else name.encode("utf-8")
        body += struct.pack("<H", len(encoded)) + encoded
        body += struct.pack(f"<BB{len(dims)}Q", tag, len(dims), *dims) + data
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize(
    "dims, error, message",
    [
        # 2**64 f64 elements: a u64 product wraps to 0
        ((2**32, 2**32), TruncationError, rf"needed {2**67} bytes at offset 33, file has 37"),
        # zero-size, but a dim numpy cannot hold
        ((0, 2**63), ArchiveError, r"dims \(0, 9223372036854775808\)"),
    ],
    ids=["product_overflows_u64", "zero_size_beyond_numpy"],
)
def test_dims_numpy_cannot_take_are_rejected_by_name(tmp_path, dims, error, message):
    path = tmp_path / "dims.knz"
    path.write_bytes(_archive_bytes(("w", 2, dims, b"")))
    with pytest.raises(error, match=rf"tensor #0 \('w'\) data: {message}"):
        archive_read(path)


def test_huge_dims_are_rejected_before_anything_is_allocated(tmp_path):
    path = tmp_path / "huge.knz"
    path.write_bytes(_archive_bytes(("w", 1, (2**40,), b"\0" * 16)))  # 4 TiB of f32 claimed
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match=rf"tensor #0 \('w'\) data: needed {2**42} bytes"):
            archive_read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_file_that_shrinks_while_read_is_a_truncation(tmp_path, monkeypatch):
    path = tmp_path / "shrunk.knz"
    archive_write(path, {"first": np.zeros((2, 2)), "second": np.ones((4, 4))})
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-40])  # cut inside the second tensor's data
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        real_fstat(fd)[:6] + (full,) + real_fstat(fd)[7:]))  # st_size as before the cut
    with pytest.raises(TruncationError, match=r"tensor #1 \('second'\) data: read 92 of 128"):
        archive_read(path)


def test_duplicate_names_rejected(tmp_path):
    with pytest.raises(DuplicateNameError):
        archive_write(tmp_path / "d.knz", [("t", np.ones(2)), ("t", np.ones(3))])


def test_a_name_utf8_cannot_encode_is_rejected_before_the_file_is_opened(tmp_path):
    with pytest.raises(ArchiveError, match=r"tensor '\\ud800': name is not valid UTF-8"):
        archive_write(tmp_path / "s.knz", [("ok", np.ones(2)), ("\ud800", np.ones(2))])
    assert list(tmp_path.iterdir()) == []


def test_a_stored_name_that_is_not_utf8_is_rejected_by_index(tmp_path):
    path = tmp_path / "n.knz"
    path.write_bytes(_archive_bytes(("ok", 2, (1,), bytes(8)), (b"w\xff", 2, (1,), bytes(8))))
    with pytest.raises(ArchiveError,
                       match=r"tensor #1 name is not valid UTF-8 \(invalid start byte at byte 1\)"):
        archive_read(path)


def test_randomized_roundtrip_fuzz(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "rt.knz"
    for trial in range(100):
        n_tensors = int(rng.integers(0, 6))
        tensors = []
        for k in range(n_tensors):
            rank = int(rng.integers(0, 4))
            dims = tuple(int(d) for d in rng.integers(1, 5, size=rank))
            dtype = np.float32 if rng.random() < 0.5 else np.float64
            name_len = int(rng.integers(1, 40))
            name = f"{trial}_" + "".join(
                chr(int(c)) for c in rng.integers(97, 123, size=name_len)
            ) + f"_{k}"
            tensors.append((name, rng.standard_normal(dims).astype(dtype)))
        archive_write(path, tensors)
        back = archive_read(path)
        assert list(back) == [n for n, _ in tensors]
        for name, arr in tensors:
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()


def test_model_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, seed=4)
    model = TinyGPTModel.init_random(cfg)
    p1, p2 = tmp_path / "m1.knz", tmp_path / "m2.knz"
    save_model(model, p1)
    loaded = load_model(p1)
    assert loaded.state_hash() == model.state_hash()
    assert loaded.config == cfg
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


class _FullDisk(io.FileIO):
    """A raw file whose disk is full after its first 100 bytes."""

    def write(self, b):
        if self.tell() + memoryview(b).nbytes > 100:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(b)


def test_a_failed_write_leaves_the_old_archive_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "a.knz"
    archive_write(path, {"old": np.ones(3)})
    before = path.read_bytes()
    tensors = [("w", np.zeros((64, 64))), ("v", np.ones(8, dtype=np.float16))]
    with pytest.raises(ArchiveError, match="tensor 'v': unsupported dtype float16"):
        archive_write(path, tensors)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
    with monkeypatch.context() as patch:
        patch.setattr(os, "fdopen", lambda fd, mode: io.BufferedWriter(_FullDisk(fd, "w")))
        with pytest.raises(OSError, match="No space left"):
            archive_write(path, tensors[:1])
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_crc_covers_every_chunk_in_file_order(tmp_path):
    rng = np.random.default_rng(19)
    big = rng.standard_normal((2, 512, 1024))  # two 4 MiB tensors, hashed off the calling thread
    tensors = [("scalar", np.float64(2.5)), ("tiny32", np.float32([1, 2, 3])),
               ("big0", big[0]), ("tiny64", np.arange(3.0)), ("big1", big[1]),
               ("small32", rng.standard_normal((7, 5)).astype(np.float32))]
    path = tmp_path / "order.knz"
    archive_write(path, tensors)
    data = bytearray(path.read_bytes())
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])
    back = archive_read(path)
    assert [(n, a.dtype, a.tobytes()) for n, a in back.items()] == [
        (n, np.asarray(a).dtype, np.asarray(a).tobytes()) for n, a in tensors]
    first, second = (data.index(a.tobytes()) for a in big)
    n = big[0].nbytes
    data[first:first + n], data[second:second + n] = data[second:second + n], data[first:first + n]
    path.write_bytes(bytes(data))
    with pytest.raises(CrcError):
        archive_read(path)


def test_archive_calls_leave_no_thread_behind(tmp_path, monkeypatch):
    good = tmp_path / "good.knz"
    tensors = {"w": np.ones((256, 256)), "b": np.zeros(3)}
    archive_write(good, tensors)
    data = good.read_bytes()
    broken = {
        TruncationError: data[:-600],
        CrcError: data[:-12] + bytes([data[-12] ^ 1]) + data[-11:],
        BadMagicError: b"NOPE" + data[4:],
    }

    def full_disk_write():
        with monkeypatch.context() as patch:
            patch.setattr(os, "fdopen", lambda fd, mode: io.BufferedWriter(_FullDisk(fd, "w")))
            with pytest.raises(OSError, match="No space left"):
                archive_write(tmp_path / "full.knz", tensors)

    def bad_read(error, content):
        path = tmp_path / "bad.knz"
        path.write_bytes(content)
        with pytest.raises(error):
            archive_read(path)

    calls = [lambda: archive_write(good, tensors), lambda: archive_read(good), full_disk_write]
    calls += [lambda e=e, c=c: bad_read(e, c) for e, c in broken.items()]
    for call in calls:
        before = set(threading.enumerate())
        call()
        assert set(threading.enumerate()) == before


def test_an_error_in_the_crc_worker_is_raised_in_the_caller(tmp_path, monkeypatch):
    path = tmp_path / "w.knz"
    archive_write(path, {"w": np.ones(4096)})
    before = set(threading.enumerate())

    def failing_crc32(data, value=0):
        raise MemoryError("crc32 failed")

    monkeypatch.setattr(zlib, "crc32", failing_crc32)
    with pytest.raises(MemoryError, match="crc32 failed"):
        archive_write(tmp_path / "new.knz", {"w": np.ones(4096)})
    with pytest.raises(MemoryError, match="crc32 failed"):
        archive_read(path)
    assert set(threading.enumerate()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.knz"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork on Linux only")
def test_a_child_forked_after_an_archive_call_can_save_and_load(tmp_path):
    cfg = GPTConfig(n_layers=1, n_heads=2, d_model=64, d_ff=128, vocab_size=64, max_seq_len=8)
    model = TinyGPTModel.init_random(cfg)
    save_model(model, tmp_path / "parent.knz")
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if a save and a load both work
        code = 1
        try:
            save_model(load_model(tmp_path / "parent.knz"), tmp_path / "child.knz")
            code = 0 if load_model(tmp_path / "child.knz").state_hash() == model.state_hash() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish a save and a load in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


# sha256 of the two checkpoints below. The teacher's was taken before
# archive_write streamed its tensors, and streaming must not change a byte.
# Both pin the file format, not a solver: the teacher's weights come from
# init_random, and the student is the teacher with its compressed layers
# replaced by fixed dyadic factors, so no LAPACK rounding reaches its bytes.
PINNED_SHA256 = {
    "teacher": "4d34de3c329e31ca9cdbec33944260d9b09bec4b84129bc52dfa74b2f017efef",
    "student": "eb1b91a6a5865ae6fa3ea192a64aeb44db250dd4d509e657cfba83648e1c2433",
}


def _fixed_factor_student(teacher, schedule):
    """The teacher with every layer the schedule compresses held as factors
    whose k-th entry, (k mod 17 - 8) / 16, is exact in binary."""
    tensors = dict(teacher.named_parameters())
    for layer in param_layout(teacher.config):
        factors = schedule.factor_shapes(layer)
        if factors is None:
            continue
        del tensors[layer_tensors(layer)[0][0]]
        for name, shape in layer_tensors(layer, factors)[:2]:
            tensors[name] = (np.arange(math.prod(shape)).reshape(shape) % 17 - 8) / 16
    return TinyGPTModel.from_tensors(teacher.config, tensors)


def test_checkpoint_bytes_are_pinned(tmp_path):
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, seed=4)
    teacher = TinyGPTModel.init_random(cfg)
    schedule = CompressionSchedule.for_dims(2, 8, 16, factor=2)
    student = _fixed_factor_student(teacher, schedule)
    solved, _ = compress_model(teacher, schedule)
    layout = [(name, arr.shape) for name, arr in student.named_parameters()]
    assert layout == [(name, arr.shape) for name, arr in solved.named_parameters()]
    for name, model in (("teacher", teacher), ("student", student)):
        path = tmp_path / f"{name}.knz"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[name], name
        assert load_model(path).state_hash() == model.state_hash()


def test_compressed_checkpoint_roundtrip(tmp_path):
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, seed=4)
    teacher = TinyGPTModel.init_random(cfg)
    schedule = CompressionSchedule.for_dims(2, 8, 16, factor=2)
    student, _ = compress_model(teacher, schedule)
    path = tmp_path / "student.knz"
    save_model(student, path)
    loaded = load_model(path)
    assert loaded.state_hash() == student.state_hash()
    tokens = np.array([1, 2, 3])
    assert np.array_equal(loaded.forward(tokens).logits, student.forward(tokens).logits)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("block1.wq.weight", np.zeros((8, 4)),
         r"'block1\.wq\.weight': expected shape \(8, 8\), found \(8, 4\)"),
        ("block1.ln2.gain", np.ones(5), r"'block1\.ln2\.gain': expected shape \(8,\), found \(5,\)"),
        ("ln_f.bias", None, r"'ln_f\.bias': expected shape \(8,\), found no tensor"),
        ("block1.wq.extra", np.zeros(3), r"unexpected tensor 'block1\.wq\.extra' of shape \(3,\)"),
    ],
    ids=["wrong_linear_shape", "wrong_norm_length", "missing_tensor", "extra_tensor"],
)
def test_load_model_checks_every_tensor_against_layout(tmp_path, name, value, message):
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, seed=4)
    path = tmp_path / "m.knz"
    save_model(TinyGPTModel.init_random(cfg), path)
    tensors = archive_read(path)
    if value is None:
        del tensors[name]
    else:
        tensors[name] = value
    archive_write(path, tensors)
    with pytest.raises(ArchiveError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "replace, message",
    [
        # (8, 4) x (2, 1) is not (16, 8)
        ({"block1.c_fc.a": np.zeros((8, 4))},
         r"'block1\.c_fc\.a' x 'block1\.c_fc\.b'.*\(16, 8\)"),
        # the right product, but the embedding's A must keep one row per token
        ({"tok_emb.a": np.zeros((8, 8)), "tok_emb.b": np.zeros((2, 1))},
         r"'tok_emb\.a' x 'tok_emb\.b'.*\(16, 8\)"),
    ],
    ids=["product_shape", "embedding_b_rows"],
)
def test_load_model_checks_factor_pairs(tmp_path, replace, message):
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, seed=4)
    student, _ = compress_model(TinyGPTModel.init_random(cfg),
                                CompressionSchedule.for_dims(2, 8, 16))
    path = tmp_path / "s.knz"
    save_model(student, path)
    tensors = archive_read(path)
    tensors.update(replace)
    archive_write(path, tensors)
    with pytest.raises(ArchiveError, match=message):
        load_model(path)


def test_meta_holds_the_seven_config_fields_only(tmp_path):
    cfg = GPTConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8,
                    seed=5)
    path = tmp_path / "m.knz"
    save_model(TinyGPTModel.init_random(cfg), path)
    tensors = archive_read(path)
    assert tensors["__meta__"].tolist() == [1, 2, 8, 16, 16, 8, 5]
    tensors["__meta__"] = np.append(tensors["__meta__"], 0.0)  # an eighth value
    archive_write(path, tensors)
    with pytest.raises(ArchiveError, match=r"__meta__: expected shape \(7,\), found \(8,\)"):
        load_model(path)


# __meta__ order: n_layers, n_heads, d_model, d_ff, vocab_size, max_seq_len, seed
@pytest.mark.parametrize("field, index, value", [
    ("n_heads", 1, 0.0), ("n_heads", 1, np.nan), ("n_layers", 0, np.inf),
    ("n_layers", 0, 1.5), ("seed", 6, 2.5), ("seed", 6, -3.0), ("d_ff", 3, -np.inf),
], ids=["zero_heads", "nan_heads", "inf_layers", "fractional_layers", "fractional_seed",
        "negative_seed", "minus_inf_d_ff"])
def test_load_model_rejects_invalid_meta(tmp_path, field, index, value):
    cfg = GPTConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8)
    path = tmp_path / "m.knz"
    save_model(TinyGPTModel.init_random(cfg), path)
    tensors = archive_read(path)
    tensors["__meta__"][index] = value
    archive_write(path, tensors)
    shown = int(value) if float(value).is_integer() else value  # as the error prints it
    with pytest.raises(ArchiveError, match=rf"^{re.escape(str(path))}: checkpoint __meta__ ") as err:
        load_model(path)
    assert f"{field} " in str(err.value) and f"{shown}" in str(err.value), str(err.value)


def test_meta_claiming_more_blocks_than_stored_is_rejected_before_the_layout(tmp_path):
    cfg = GPTConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8)
    path = tmp_path / "m.knz"
    save_model(TinyGPTModel.init_random(cfg), path)
    tensors = archive_read(path)
    tensors["__meta__"][0] = 10**5  # n_layers
    archive_write(path, tensors)
    tracemalloc.start()
    try:
        with pytest.raises(ArchiveError, match=r"n_layers 100000: 21 tensors cannot hold"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak  # a layout of 10**5 blocks takes over 100 MB


def test_load_model_errors_name_the_file(tmp_path):
    bad_magic, no_meta = tmp_path / "bad.knz", tmp_path / "plain.knz"
    bad_magic.write_bytes(b"hello, no archive")
    archive_write(no_meta, {"w": np.zeros(2)})
    with pytest.raises(BadMagicError, match=rf"^{re.escape(str(bad_magic))}: bad magic"):
        load_model(bad_magic)
    with pytest.raises(ArchiveError, match=rf"^{re.escape(str(no_meta))}: checkpoint has no"):
        load_model(no_meta)
