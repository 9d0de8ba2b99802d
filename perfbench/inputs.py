"""Benchmark inputs, made from the workload seed alone.

``make_inputs`` writes a synthetic corpus and a random-init dense teacher
checkpoint or, for ``compress_wide``, several teacher checkpoints and the
reference values the output checks compare against. It runs in a child
process, so that its memory does not count toward the measured process's
peak RSS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from kronlm.archive import save_model
from kronlm.layers import CompressionSchedule
from kronlm.model import GPTConfig, TinyGPTModel, compress_model
from kronlm.tensor_core import Rng

WORKLOADS = ("train_study", "infer_wide", "compress_wide")
# random-init teachers per compress_wide run: the solver's iteration count
# depends strongly on the weights, so one run averages over several draws
COMPRESS_TEACHERS = 4


@dataclass(frozen=True)
class Shapes:
    config: GPTConfig
    seq_len: int  # tokens per training row or evaluated window
    batch: int = 8  # training rows per step
    prompt_len: int = 32  # greedy_generate prompt
    gen_tokens: int = 8  # tokens generated per greedy_generate call
    corpus_bytes: int = 400_000


def shapes(workload: str, seed: int, quick: bool = False) -> Shapes:
    """The acceptance-study shape for training, GPT-2 width for the rest.

    ``quick`` shrinks every shape so the benchmark's own tests run in seconds.
    """
    if workload == "train_study":
        if quick:
            return Shapes(GPTConfig(n_layers=2, n_heads=2, d_model=16, d_ff=64, max_seq_len=32,
                                    seed=seed), seq_len=16, batch=2, corpus_bytes=40_000)
        return Shapes(GPTConfig(n_layers=4, n_heads=4, d_model=64, d_ff=256, max_seq_len=128,
                                seed=seed), seq_len=64)
    if workload in ("infer_wide", "compress_wide"):
        if quick:
            return Shapes(GPTConfig(n_layers=2, n_heads=12, d_model=96, d_ff=384, max_seq_len=32,
                                    seed=seed), seq_len=32, prompt_len=8, gen_tokens=4,
                          corpus_bytes=40_000)
        return Shapes(GPTConfig(n_layers=2, n_heads=12, d_model=768, d_ff=3072, max_seq_len=128,
                                seed=seed), seq_len=128, corpus_bytes=200_000)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def zipf_text(n_bytes: int, seed: int) -> bytes:
    """Pseudo-text: Zipf-weighted draws from a random stock of letter words,
    cut into sentences and paragraphs."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("etaoinshrdlcumwfgypbvkjxqz"))
    letter_p = 1.0 / np.arange(1, 27) ** 0.7
    letter_p /= letter_p.sum()
    words = ["".join(rng.choice(letters, size=rng.integers(1, 9), p=letter_p))
             for _ in range(600)]
    word_p = 1.0 / np.arange(1, len(words) + 1) ** 1.1
    word_p /= word_p.sum()
    n_words = n_bytes // 3
    picks = rng.choice(len(words), size=n_words, p=word_p)
    ends = rng.random(n_words)
    pieces = []
    for w, e in zip(picks, ends):
        pieces.append(words[w])
        pieces.append(".\n\n" if e < 0.01 else ". " if e < 0.1 else " ")
    text = "".join(pieces)
    while len(text) < n_bytes:
        text += text
    return text[:n_bytes].encode("ascii")


def compress_schedule(config: GPTConfig) -> CompressionSchedule:
    """The schedule ``kronlm compress`` uses by default: odd blocks and the
    embedding, factor 2, wo included."""
    return CompressionSchedule.for_dims(config.n_layers, config.d_model, config.d_ff)


def planned_shapes(config: GPTConfig) -> dict:
    """{weight name: (m1, n1, m2, n2)} for every tensor the schedule factors."""
    sched = compress_schedule(config)
    out = {"tok_emb.weight": sched.embedding_shapes(config.vocab_size, config.d_model)}
    roles = {"wq": sched.shape_qkv, "wk": sched.shape_qkv, "wv": sched.shape_qkv,
             "wo": sched.shape_wo, "c_fc": sched.shape_cfc, "c_proj": sched.shape_cproj}
    for i in sched.layer_indices:
        for role, shp in roles.items():
            out[f"block{i}.{role}.weight"] = shp
    return out


def svd_relative_residuals(teacher: TinyGPTModel) -> dict:
    """Reference ||W - A (x) B||_F / ||W||_F for every planned tensor, from the
    full singular spectrum of the rearranged matrix."""
    dense = dict(teacher.named_parameters())
    out = {}
    for name, (m1, n1, m2, n2) in planned_shapes(teacher.config).items():
        w = dense[name]
        r = w.reshape(m1, m2, n1, n2).transpose(0, 2, 1, 3).reshape(m1 * n1, m2 * n2)
        s = np.linalg.svd(r, compute_uv=False)
        out[name] = float(np.sqrt(np.sum(s[1:] ** 2)) / np.sqrt(np.sum(s**2)))
    return out


def make_inputs(workload: str, seed: int, quick: bool, out_dir: Path) -> None:
    shp = shapes(workload, seed, quick)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload != "compress_wide":
        (out_dir / "corpus.txt").write_bytes(zipf_text(shp.corpus_bytes, seed))
        save_model(TinyGPTModel.init_random(shp.config), out_dir / "teacher.knz")
        return
    refs = []
    for k in range(COMPRESS_TEACHERS):
        config = replace(shp.config, seed=seed * COMPRESS_TEACHERS + k)
        teacher = TinyGPTModel.init_random(config)
        save_model(teacher, out_dir / f"teacher{k}.knz")
        student, _ = compress_model(teacher, compress_schedule(config), rng=Rng(seed))
        refs.append({
            "student_hash": student.state_hash(),
            "residuals": svd_relative_residuals(teacher),
        })
    (out_dir / "refs.json").write_text(json.dumps(refs, indent=1))
