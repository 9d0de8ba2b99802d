"""Bit-identity fingerprint of a kronlm source tree.

    OPENBLAS_NUM_THREADS=1 python3 tools/bit_identity.py SRC_DIR [--quick]

Imports kronlm from SRC_DIR, runs a fixed, seeded set of work and prints one
sha256 per item, then the sha256 of all of them:

    train_phases    6-step run_phase of the teacher (lm) and of the lm, kd
                    and lm+kd arms: each final state_hash, and every step's
                    losses and grad_norm
    study_students  the factor-2 and factor-4 students of the trained
                    teacher and their decomposition reports
    eval_ce         evaluate_lm over 10 windows of the teacher, the untrained
                    student and each arm
    greedy_ids      16 greedy ids of each of those models
    wide_student    a GPT-2-width (2 blocks, d_model 768) compressed student
                    and its reports; its solves span many TSQR slabs

Run it on two trees (say, a checkout of the parent commit and the working
tree): a change that leaves the arithmetic alone prints the same lines.
``--quick`` runs the same items at tiny shapes in about a second.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ITEMS = ("train_phases", "study_students", "eval_ce", "greedy_ids", "wide_student")


def shapes(quick: bool) -> dict:
    if quick:
        return dict(study=dict(n_layers=2, n_heads=2, d_model=8, d_ff=32, vocab_size=256,
                               max_seq_len=16),
                    train=dict(batch_size=2, learning_rate=1e-3, steps=2, seed=1, seq_len=8),
                    wide=dict(n_layers=2, n_heads=2, d_model=16, d_ff=64, vocab_size=256,
                              max_seq_len=16))
    return dict(study=dict(n_layers=4, n_heads=4, d_model=64, d_ff=256, vocab_size=256,
                           max_seq_len=128),
                train=dict(batch_size=8, learning_rate=1e-3, steps=6, seed=1, seq_len=64),
                wide=dict(n_layers=2, n_heads=12, d_model=768, d_ff=3072, vocab_size=256,
                          max_seq_len=128))


def fingerprint(quick: bool) -> dict:
    """{item: sha256 hex} for the kronlm on sys.path."""
    from kronlm.distill import TrainConfig, evaluate_lm, run_phase, weights_for_mode
    from kronlm.layers import CompressionSchedule
    from kronlm.model import GPTConfig, TinyGPTModel, compress_model

    dims = shapes(quick)
    hashes = {item: hashlib.sha256() for item in ITEMS}

    def put(item, *values):
        for value in values:
            hashes[item].update(repr(value).encode())

    def compress(teacher, factor, item):
        cfg = teacher.config
        schedule = CompressionSchedule.for_dims(cfg.n_layers, cfg.d_model, cfg.d_ff, factor=factor)
        student, reports = compress_model(teacher, schedule)
        put(item, student.state_hash(), [(name, repr(report)) for name, report in reports])
        return student

    # a Zipf-distributed byte stream: the study corpus's shape, without its text
    tokens = (np.random.default_rng(1).zipf(1.3, 200_000) - 1) % 256
    train, val = tokens[:180_000], tokens[180_000:]
    tc = TrainConfig(**dims["train"])

    def trained(model, teacher, mode):
        history = run_phase(model, teacher, train, tc, weights_for_mode(mode))
        put("train_phases", mode, model.state_hash(),
            [(m.L_emb, m.L_att, m.L_hid, m.L_ce, m.L_total, m.grad_norm) for m in history])
        return model

    teacher = trained(TinyGPTModel.init_random(GPTConfig(**dims["study"])), None, "lm")
    student0 = compress(teacher, 2, "study_students")
    compress(teacher, 4, "study_students")
    models = {"teacher": teacher, "none": student0}
    for mode in ("lm", "kd", "lm+kd"):
        models[mode] = trained(student0.copy(), teacher, mode)
    for name, model in models.items():
        put("eval_ce", name, evaluate_lm(model, val, tc.seq_len, max_windows=10))
        put("greedy_ids", name, model.greedy_generate(val[:4], 16).tolist())

    wide = TinyGPTModel.init_random(GPTConfig(**dims["wide"]))
    compress(wide, 2, "wide_student")
    return {item: h.hexdigest() for item, h in hashes.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", type=Path, help="the directory that holds the kronlm package")
    p.add_argument("--quick", action="store_true", help="tiny shapes, about a second")
    args = p.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import kronlm

    if not Path(kronlm.__file__).resolve().is_relative_to(src):
        p.error(f"kronlm was imported from {kronlm.__file__}, not from {src}")
    digests = fingerprint(args.quick)
    for item, digest in digests.items():
        print(f"{item:<15} {digest}")
    total = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    print(f"{'total':<15} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
