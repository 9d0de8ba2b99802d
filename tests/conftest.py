"""Shared fixtures: tiny model configs and a synthetic, learnable corpus."""

import os

# matmuls here are far below the size where BLAS threading pays off; pin to
# one thread (must happen before numpy first loads)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from kronlm.layers import CompressionSchedule
from kronlm.model import GPTConfig, TinyGPTModel, compress_model
from kronlm.tensor_core import Rng

# pseudo-English word stock for the synthetic corpus; Zipf-weighted draws
# give the byte-level model strong local statistics to learn
_WORDS = [
    "the", "of", "and", "to", "in", "for", "with", "on", "as", "by",
    "model", "matrix", "layer", "product", "factor", "tensor", "weight",
    "train", "token", "block", "value", "state", "loss", "scale", "data",
    "deep", "small", "large", "dense", "sparse", "linear", "hidden",
    "compress", "distill", "attention", "embedding", "gradient", "kernel",
    "norm", "vector", "stream", "byte", "head", "query", "key",
]


def synth_corpus_bytes(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-text: Zipf-weighted words, sentences, paragraphs."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(_WORDS) + 1, dtype=np.float64)
    probs = (1.0 / ranks) / np.sum(1.0 / ranks)
    pieces = []
    size = 0
    sentence_len = 0
    while size < n_bytes:
        word = _WORDS[rng.choice(len(_WORDS), p=probs)]
        sentence_len += 1
        if sentence_len > rng.integers(6, 14):
            sep = ". " if rng.random() < 0.9 else ".\n\n"
            sentence_len = 0
        else:
            sep = " "
        piece = word + sep
        pieces.append(piece)
        size += len(piece)
    return ("".join(pieces)[:n_bytes]).encode("utf-8")


def stored_param_count(model, exclude_lm_head: bool = False) -> int:
    """Sum of the sizes of the arrays a model holds, optionally without the LM head."""
    return sum(arr.size for name, arr in model.named_parameters()
               if not (exclude_lm_head and name.startswith("lm_head.")))


@pytest.fixture(scope="session")
def small_config():
    return GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16,
                     max_seq_len=12, seed=11)


@pytest.fixture(scope="session")
def small_teacher(small_config):
    return TinyGPTModel.init_random(small_config, Rng(small_config.seed))


@pytest.fixture()
def small_student(small_config, small_teacher):
    schedule = CompressionSchedule.for_dims(
        small_config.n_layers, small_config.d_model, small_config.d_ff, factor=2
    )
    student, _ = compress_model(small_teacher, schedule)
    return student


@pytest.fixture(scope="session")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "synth.txt"
    path.write_bytes(synth_corpus_bytes(200_000, seed=1))
    return path
