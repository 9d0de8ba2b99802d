import numpy as np
import pytest

from kronlm.archive import archive_read, archive_write, load_model, save_model
from kronlm.errors import (
    ArchiveError,
    BadMagicError,
    BadVersionError,
    CrcError,
    DuplicateNameError,
    TruncationError,
)
from kronlm.layers import CompressionSchedule
from kronlm.model import GPTConfig, TinyGPTModel, compress_model
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


def test_duplicate_names_rejected(tmp_path):
    with pytest.raises(DuplicateNameError):
        archive_write(tmp_path / "d.knz", [("t", np.ones(2)), ("t", np.ones(3))])


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


@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero_heads", "nan_heads"])
def test_load_model_rejects_invalid_meta(tmp_path, value):
    cfg = GPTConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8)
    path = tmp_path / "m.knz"
    save_model(TinyGPTModel.init_random(cfg), path)
    tensors = archive_read(path)
    tensors["__meta__"][1] = value  # n_heads
    archive_write(path, tensors)
    with pytest.raises(ArchiveError, match="__meta__"):
        load_model(path)
