import csv
import errno
import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import stored_param_count
from kronlm.archive import archive_read, archive_write, load_model, save_model
from kronlm import archive, cli
from kronlm.cli import build_parser, main
from kronlm.errors import KronlmError
from kronlm.kronecker import kron, rearrange
from kronlm.layers import CompressionSchedule, KroneckerEmbedding, KroneckerLinear
from kronlm.model import (
    GPTConfig,
    TinyGPTModel,
    compress_model,
    layer_tensors,
    param_layout,
    stored_factors,
)

CLI_CONFIG = GPTConfig(
    n_layers=2, n_heads=2, d_model=16, d_ff=32, vocab_size=256, max_seq_len=32, seed=21
)


@pytest.fixture()
def teacher_ckpt(tmp_path):
    model = TinyGPTModel.init_random(CLI_CONFIG)
    path = tmp_path / "teacher.knz"
    save_model(model, path)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def read_metrics(path):
    """The metrics JSONL records without wall_ms, the one nondeterministic field."""
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    for r in recs:
        r.pop("wall_ms")
    return recs


def test_compress_writes_report_with_consistent_totals(tmp_path, teacher_ckpt):
    out = tmp_path / "student.knz"
    report_path = tmp_path / "report.json"
    assert run_cli("compress", "--input", teacher_ckpt, "--output", out,
                   "--report", report_path, "--seed", 3) == 0
    report = json.loads(report_path.read_text())
    totals = report["totals"]
    assert totals["params_before"] == sum(e["params_before"] for e in report["tensors"])
    assert totals["params_after"] == sum(e["params_after"] for e in report["tensors"])
    assert totals["compression_factor"] == pytest.approx(
        totals["params_before"] / totals["params_after"]
    )
    student = load_model(out)
    # analytic check: report totals equal recounted params (minus the LM head)
    assert totals["params_after"] == stored_param_count(student, exclude_lm_head=True)


def test_compress_report_residuals_recomputable(tmp_path, teacher_ckpt):
    out = tmp_path / "student.knz"
    report_path = tmp_path / "report.json"
    run_cli("compress", "--input", teacher_ckpt, "--output", out, "--report", report_path)
    report = json.loads(report_path.read_text())
    teacher = load_model(teacher_ckpt)
    student = load_model(out)
    by_name = {e["name"]: e for e in report["tensors"]}

    def recompute(w, pair):
        return np.linalg.norm(w - kron(pair.a, pair.b)) / np.linalg.norm(w)

    emb = student.tok_emb
    assert isinstance(emb, KroneckerEmbedding)
    got = by_name["tok_emb.weight"]["relative_residual"]
    want = recompute(teacher.tok_emb, type("P", (), {"a": emb.a_e, "b": emb.b_e}))
    assert abs(got - want) < 1e-9
    for i in (1,):
        for role in ("wq", "wk", "wv", "wo", "c_fc", "c_proj"):
            layer = getattr(student.blocks[i], role)
            assert isinstance(layer, KroneckerLinear)
            got = by_name[f"block{i}.{role}.weight"]["relative_residual"]
            want = recompute(getattr(teacher.blocks[i], role).weight, layer.factors)
            assert abs(got - want) < 1e-9, (i, role)


def test_compress_report_gives_each_solve_its_singular_values(tmp_path, teacher_ckpt):
    report_path = tmp_path / "report.json"
    run_cli("compress", "--input", teacher_ckpt, "--output", tmp_path / "s.knz",
            "--report", report_path)
    dense = dict(load_model(teacher_ckpt).named_parameters())
    keys = {"name", "original_shape", "factor_shapes", "params_before", "params_after",
            "relative_residual"}
    entries = json.loads(report_path.read_text())["tensors"]
    # the embedding and block 1's q, k, v, wo, c_fc and c_proj
    assert sum(1 for e in entries if e["factor_shapes"]) == 7
    for e in entries:
        if not e["factor_shapes"]:
            assert set(e) == keys, e["name"]
            continue
        assert set(e) == keys | {"singular_value", "sv_ratio"}, e["name"]
        (m1, n1), (m2, n2) = e["factor_shapes"]
        s = np.linalg.svd(rearrange(dense[e["name"]], m1, n1, m2, n2), compute_uv=False)
        assert abs(e["singular_value"] - s[0]) <= 1e-12 * s[0], e["name"]
        assert abs(e["sv_ratio"] - s[1] / s[0]) <= 1e-12, e["name"]


def test_compress_output_does_not_depend_on_seed(tmp_path, teacher_ckpt):
    for seed in (0, 1):
        assert run_cli("compress", "--input", teacher_ckpt, "--output", tmp_path / f"{seed}.knz",
                       "--report", tmp_path / f"{seed}.json", "--seed", seed) == 0
    assert (tmp_path / "0.knz").read_bytes() == (tmp_path / "1.knz").read_bytes()
    assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()


def test_compress_embedding_factor_zero_errors(tmp_path, teacher_ckpt, capsys):
    rc = run_cli("compress", "--input", teacher_ckpt, "--output", tmp_path / "x.knz",
                 "--embedding-factor", 0)
    assert rc != 0
    assert "embedding factor 0" in capsys.readouterr().err


def test_compress_factor_is_named_when_it_sets_the_embedding_factor(tmp_path, capsys):
    # 4 is plannable for every matrix of this model but does not divide d_model 6
    path = tmp_path / "teacher6.knz"
    save_model(TinyGPTModel.init_random(replace(CLI_CONFIG, d_model=6, d_ff=12)), path)
    rc = run_cli("compress", "--input", path, "--output", tmp_path / "x.knz", "--factor", 4)
    assert rc == 1
    assert "--factor 4: embedding factor 4 is not a positive divisor of d_model 6" in (
        capsys.readouterr().err)


def test_compress_factor_one_errors(tmp_path, teacher_ckpt, capsys):
    rc = run_cli("compress", "--input", teacher_ckpt, "--output", tmp_path / "x.knz",
                 "--factor", 1)
    assert rc != 0
    assert "--factor 1: only the factors (2, 4) are plannable" in capsys.readouterr().err


@pytest.mark.parametrize("factor", [3, 6])
def test_compress_rejects_unplannable_factor_that_divides_d_model(tmp_path, capsys, factor):
    path = tmp_path / "teacher12.knz"
    save_model(TinyGPTModel.init_random(replace(CLI_CONFIG, d_model=12, d_ff=24)), path)
    out = tmp_path / "x.knz"
    rc = run_cli("compress", "--input", path, "--output", out, "--factor", factor)
    assert rc == 1
    assert f"--factor {factor}: only the factors (2, 4) are plannable" in capsys.readouterr().err
    assert not out.exists()


def test_compress_names_layers_when_a_block_index_is_out_of_range(tmp_path, capsys):
    path = tmp_path / "teacher1.knz"
    save_model(TinyGPTModel.init_random(replace(CLI_CONFIG, n_layers=1)), path)
    out = tmp_path / "x.knz"
    assert run_cli("compress", "--input", path, "--output", out, "--layers", "5") == 1
    assert "--layers 5: layer index 5 out of range for 1 blocks" in capsys.readouterr().err
    assert not out.exists()


def _compress_exit(tmp_path, teacher_ckpt, *flags):
    """Exit code of ``compress`` with extra flags: argparse's 2 or the command's."""
    try:
        return run_cli("compress", "--input", teacher_ckpt, "--output", tmp_path / "x.knz",
                       *flags)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flag, value, code, message", [
    ("--factor", "٢", 2, "argument --factor: expected an integer >= 0, got '٢'"),
    ("--factor", "2_0", 2, "argument --factor: expected an integer >= 0, got '2_0'"),
    ("--embedding-factor", "٢", 2, "argument --embedding-factor: expected an integer >= 0, got '٢'"),
    ("--layers", "0_1", 1, "bad --layers value '0_1': expected an integer >= 0, got '0_1'"),
    ("--layers", "٣", 1, "bad --layers value '٣': expected an integer >= 0, got '٣'"),
    ("--layers", "a,b", 1, "bad --layers value 'a,b': expected an integer >= 0, got 'a'"),
    ("--embedding", "maybe", 2, "argument --embedding: expected on|off, got 'maybe'"),
], ids=["factor_indic", "factor_underscore", "embedding_factor_indic", "layers_underscore",
        "layers_indic", "layers_letters", "embedding"])
def test_compress_rejects_a_malformed_flag_by_name(tmp_path, teacher_ckpt, capsys,
                                                   flag, value, code, message):
    assert _compress_exit(tmp_path, teacher_ckpt, flag, value) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.knz").exists()


def test_compress_layer_entries_may_be_spaced(tmp_path, teacher_ckpt):
    assert _compress_exit(tmp_path, teacher_ckpt, "--layers", " 1, 0 ,") == 0
    assert isinstance(load_model(tmp_path / "x.knz").blocks[0].wq, KroneckerLinear)


def test_eval_rejects_a_checkpoint_whose_meta_holds_inf(tmp_path, teacher_ckpt, corpus_file,
                                                       capsys):
    tensors = archive_read(teacher_ckpt)
    tensors["__meta__"][0] = np.inf  # n_layers
    archive_write(teacher_ckpt, tensors)
    assert run_cli("eval", "--checkpoint", teacher_ckpt, "--corpus", corpus_file) == 1
    err = capsys.readouterr().err
    assert f"--checkpoint {teacher_ckpt}: checkpoint __meta__ n_layers inf is not a whole" in err


def test_compress_layer_list_and_flags(tmp_path, teacher_ckpt):
    out = tmp_path / "s.knz"
    assert run_cli("compress", "--input", teacher_ckpt, "--output", out,
                   "--layers", "0", "--embedding", "off", "--include-wo", "off") == 0
    student = load_model(out)
    assert isinstance(student.tok_emb, np.ndarray)
    assert isinstance(student.blocks[0].wq, KroneckerLinear)
    assert not isinstance(student.blocks[0].wo, KroneckerLinear)
    assert not isinstance(student.blocks[1].wq, KroneckerLinear)


def test_train_mode_none_bit_equal(tmp_path, teacher_ckpt, corpus_file):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)
    out = tmp_path / "student_out.knz"
    assert run_cli("train", "--student", student_in, "--corpus", corpus_file,
                   "--mode", "none", "--output", out) == 0
    assert out.read_bytes() == student_in.read_bytes()


def test_train_alphas_0001_equals_mode_lm(tmp_path, teacher_ckpt, corpus_file):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)

    def train(tag, *extra):
        out = tmp_path / f"out_{tag}.knz"
        metrics = tmp_path / f"metrics_{tag}.jsonl"
        rc = run_cli("train", "--student", student_in, "--corpus", corpus_file,
                     "--output", out, "--metrics", metrics, "--seed", 5,
                     "--batch", 2, "--seq-len", 16, "--steps", 4, *extra)
        assert rc == 0
        return out.read_bytes(), read_metrics(metrics)

    ckpt_a, rec_a = train("alphas", "--mode", "lm+kd", "--alphas", "0,0,0,1")
    ckpt_b, rec_b = train("lm", "--mode", "lm")
    assert rec_a == rec_b
    assert ckpt_a == ckpt_b


def test_train_alphas_override_every_mode(tmp_path, teacher_ckpt, corpus_file):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)

    def train(mode):
        metrics = tmp_path / f"metrics_{mode}.jsonl"
        rc = run_cli("train", "--teacher", teacher_ckpt, "--student", student_in,
                     "--corpus", corpus_file, "--mode", mode, "--alphas", "1,1,1,1",
                     "--metrics", metrics, "--output", tmp_path / f"{mode}.knz", "--seed", 4,
                     "--batch", 2, "--seq-len", 16, "--steps", 3)
        assert rc == 0
        return read_metrics(metrics)

    recs = train("kd")
    for r in recs:
        assert r["L_emb"] > 0 and r["L_att"] > 0 and r["L_hid"] > 0 and r["L_ce"] > 0
        assert abs(r["L_total"] - (r["L_emb"] + r["L_att"] + r["L_hid"] + r["L_ce"])) < 1e-9
    assert train("lm") == recs
    assert train("lm+kd") == recs


@pytest.mark.parametrize("teacher_layers", [1, 3])
def test_train_teacher_of_another_depth_errors(tmp_path, teacher_ckpt, corpus_file, capsys,
                                               teacher_layers):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)
    teacher_cfg = replace(CLI_CONFIG, n_layers=teacher_layers)
    other = tmp_path / "other.knz"
    save_model(TinyGPTModel.init_random(replace(teacher_cfg, seed=1)), other)
    rc = run_cli("train", "--teacher", other, "--student", student_in, "--corpus", corpus_file,
                 "--mode", "kd", "--output", tmp_path / "out.knz",
                 "--batch", 2, "--seq-len", 16, "--steps", 1)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--teacher {other}: n_layers {teacher_layers} differs from the student's 2" in err


@pytest.mark.parametrize("field, value", [("n_heads", 4), ("d_model", 8), ("vocab_size", 16)])
def test_train_teacher_config_must_match_the_student(tmp_path, teacher_ckpt, corpus_file, capsys,
                                                     field, value):
    other = tmp_path / "other.knz"
    save_model(TinyGPTModel.init_random(replace(CLI_CONFIG, **{field: value})), other)
    out = tmp_path / "out.knz"
    rc = run_cli("train", "--teacher", other, "--student", teacher_ckpt, "--corpus", corpus_file,
                 "--mode", "lm+kd", "--output", out, "--batch", 2, "--seq-len", 16, "--steps", 1)
    assert rc == 1
    want = getattr(CLI_CONFIG, field)
    assert f"--teacher {other}: {field} {value} differs from the student's {want}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_train_metrics_reproduce_pretrain_weighting(tmp_path, teacher_ckpt, corpus_file):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)
    metrics = tmp_path / "metrics.jsonl"
    rc = run_cli("train", "--teacher", teacher_ckpt, "--student", student_in,
                 "--corpus", corpus_file, "--mode", "lm+kd",
                 "--alphas", "0.5,0.5,0.5,0.1", "--metrics", metrics,
                 "--output", tmp_path / "out.knz", "--seed", 7,
                 "--batch", 2, "--seq-len", 16, "--steps", 3)
    assert rc == 0
    for line in metrics.read_text().splitlines():
        r = json.loads(line)
        combo = 0.5 * r["L_emb"] + 0.5 * r["L_att"] + 0.5 * r["L_hid"] + 0.1 * r["L_ce"]
        assert abs(r["L_total"] - combo) < 1e-9
        assert r["L_emb"] > 0 and r["L_att"] > 0 and r["L_hid"] > 0 and r["L_ce"] > 0


def test_train_kd_mode_requires_teacher(tmp_path, teacher_ckpt, corpus_file, capsys):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)
    rc = run_cli("train", "--student", student_in, "--corpus", corpus_file, "--mode", "kd")
    assert rc != 0
    assert "teacher" in capsys.readouterr().err


def test_train_trace_alphas_require_teacher(tmp_path, teacher_ckpt, corpus_file, capsys):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)
    rc = run_cli("train", "--student", student_in, "--corpus", corpus_file, "--mode", "lm",
                 "--alphas", "1,1,1,1")
    assert rc == 1
    assert "--alphas 1,1,1,1 needs --teacher" in capsys.readouterr().err


@pytest.mark.parametrize("mode, alphas", [
    ("lm+kd", "nan,0,0,1"),
    ("kd", "0,0,0,nan"),
    ("lm+kd", "inf,0,0,1"),
    ("lm+kd", "-1,0,0,1"),
    ("lm+kd", "1,x,0,1"),
    ("lm+kd", "1,1,1"),
])
def test_train_rejects_bad_alphas(tmp_path, teacher_ckpt, corpus_file, capsys, mode, alphas):
    out = tmp_path / "out.knz"
    rc = run_cli("train", "--teacher", teacher_ckpt, "--student", teacher_ckpt,
                 "--corpus", corpus_file, "--mode", mode, f"--alphas={alphas}",
                 "--output", out, "--batch", 2, "--seq-len", 16, "--steps", 1)
    assert rc == 1
    assert f"bad --alphas {alphas!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("train", "--steps"), ("train", "--batch"), ("train", "--seq-len"),
    ("eval", "--seq-len"), ("eval", "--max-windows"),
    ("bench", "--rows"), ("bench", "--repeats"),
])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_count_flags_below_one_are_rejected(tmp_path, teacher_ckpt, corpus_file, capsys,
                                            command, flag, value):
    valid = {
        "train": ["--student", teacher_ckpt, "--corpus", corpus_file, "--mode", "lm",
                  "--output", tmp_path / "out.knz", "--steps", 1, "--batch", 2,
                  "--seq-len", 16],
        "eval": ["--checkpoint", teacher_ckpt, "--corpus", corpus_file, "--seq-len", 16,
                 "--max-windows", 1],
        "bench": ["--shapes", "12,12,6,12,2,1", "--rows", 2, "--repeats", 1],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, *valid, flag, value)  # the last occurrence of a flag wins
    assert exit_info.value.code == 2
    assert f"argument {flag}: expected an integer >= 1, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "compress", "bench"])
def test_a_negative_seed_is_rejected_by_name(tmp_path, teacher_ckpt, corpus_file, capsys,
                                             command):
    valid = {
        "train": ["--student", teacher_ckpt, "--corpus", corpus_file, "--mode", "lm",
                  "--output", tmp_path / "out.knz", "--steps", 1, "--batch", 2,
                  "--seq-len", 16],
        "compress": ["--input", teacher_ckpt, "--output", tmp_path / "out.knz"],
        "bench": ["--shapes", "12,12,6,12,2,1", "--rows", 2, "--repeats", 1],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, *valid, "--seed", "-1")
    assert exit_info.value.code == 2
    assert "argument --seed: expected an integer >= 0, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out.knz").exists()


@pytest.mark.parametrize("command, flag, value, low", [
    ("bench", "--rows", "²", 1), ("train", "--steps", "¹", 1), ("bench", "--seed", "٣", 0),
])
def test_count_flags_take_ascii_digits_only(tmp_path, teacher_ckpt, corpus_file, capsys,
                                            command, flag, value, low):
    valid = {
        "train": ["--student", teacher_ckpt, "--corpus", corpus_file, "--mode", "lm",
                  "--output", tmp_path / "out.knz", "--batch", 2, "--seq-len", 16],
        "bench": ["--shapes", "12,12,6,12,2,1", "--rows", 2, "--repeats", 1],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, *valid, flag, value)
    assert exit_info.value.code == 2
    assert f"argument {flag}: expected an integer >= {low}, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "x"])
def test_train_rejects_a_bad_lr(tmp_path, teacher_ckpt, corpus_file, capsys, value):
    out = tmp_path / "out.knz"
    with pytest.raises(SystemExit) as exit_info:
        run_cli("train", "--student", teacher_ckpt, "--corpus", corpus_file, "--mode", "lm",
                "--output", out, "--batch", 2, "--seq-len", 16, "--steps", 1,
                "--lr", value)
    assert exit_info.value.code == 2
    assert f"argument --lr: expected a finite number > 0, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_train_deterministic_checkpoints(tmp_path, teacher_ckpt, corpus_file):
    student_in = tmp_path / "student.knz"
    run_cli("compress", "--input", teacher_ckpt, "--output", student_in)

    def run(tag):
        out = tmp_path / f"det_{tag}.knz"
        rc = run_cli("train", "--teacher", teacher_ckpt, "--student", student_in,
                     "--corpus", corpus_file, "--mode", "lm+kd", "--output", out,
                     "--seed", 9, "--batch", 2, "--seq-len", 16, "--steps", 3)
        assert rc == 0
        return out.read_bytes()

    assert run("a") == run("b")


def test_eval_untrained_near_uniform_and_json(tmp_path, teacher_ckpt, corpus_file, capsys):
    assert run_cli("eval", "--checkpoint", teacher_ckpt, "--corpus", corpus_file,
                   "--json", "--seq-len", 16, "--max-windows", 40) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["perplexity"] - np.exp(out["val_ce"])) < 1e-9
    # untrained random model predicts near-uniformly over the byte vocabulary
    assert 256 * 0.95 <= out["perplexity"] <= 256 * 1.05


def test_eval_plain_output(teacher_ckpt, corpus_file, capsys):
    assert run_cli("eval", "--checkpoint", teacher_ckpt, "--corpus", corpus_file,
                   "--seq-len", 16, "--max-windows", 10) == 0
    text = capsys.readouterr().out
    assert "val_ce=" in text and "perplexity=" in text


def test_eval_names_an_out_of_vocabulary_target(tmp_path, capsys):
    ckpt = tmp_path / "vocab16.knz"
    save_model(TinyGPTModel.init_random(replace(CLI_CONFIG, vocab_size=16)), ckpt)
    corpus = tmp_path / "corpus.bin"
    # 40 bytes: the validation tail is the last 4, and only its last target is >= 16
    corpus.write_bytes(bytes(k % 15 + 1 for k in range(36)) + bytes([1, 2, 3, 200]))
    assert run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus, "--seq-len", 3) == 1
    assert "target id 200 out of range [0, 16)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "train-student", "train-teacher"])
def test_seq_len_above_max_seq_len_names_the_flag_and_checkpoint(tmp_path, teacher_ckpt,
                                                                 corpus_file, capsys, command):
    short = tmp_path / "short.knz"
    save_model(TinyGPTModel.init_random(replace(CLI_CONFIG, max_seq_len=16)), short)
    out = tmp_path / "out.knz"
    args = {
        "eval": ["eval", "--checkpoint", short],
        "train-student": ["train", "--student", short, "--mode", "lm", "--output", out],
        "train-teacher": ["train", "--teacher", short, "--student", teacher_ckpt, "--mode", "kd",
                          "--output", out],
    }[command]
    assert run_cli(*args, "--corpus", corpus_file, "--seq-len", 24) == 1
    assert f"--seq-len 24 exceeds max_seq_len 16 of {short}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, split", [("train", "training"), ("eval", "validation")])
def test_a_split_too_short_names_the_corpus_and_seq_len(tmp_path, teacher_ckpt, capsys,
                                                         command, split):
    head, tail = tmp_path / "head.txt", tmp_path / "tail.txt"
    head.write_bytes(b"a short corpus")
    tail.write_bytes(b" of 23 b.")  # 23 bytes: 21 train and 2 validation tokens
    out = tmp_path / "out.knz"
    args = {
        # the teacher does not exist: the split is checked before it is loaded
        "train": ["train", "--teacher", tmp_path / "absent.knz", "--student", teacher_ckpt,
                  "--mode", "kd", "--output", out],
        "eval": ["eval", "--checkpoint", teacher_ckpt],
    }[command]
    assert run_cli(*args, "--corpus", head, tail, "--seq-len", 24) == 1
    held = {"train": 21, "eval": 2}[command]
    assert (f"--corpus {head} {tail}: the {split} split holds {held} tokens, "
            "fewer than --seq-len 24 + 1") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_corpus_too_small_names_the_flag_and_files(tmp_path, teacher_ckpt, capsys, command):
    tiny = tmp_path / "tiny.txt"
    tiny.write_bytes(b"abc")
    out = tmp_path / "out.knz"
    args = {
        "train": ["train", "--student", teacher_ckpt, "--mode", "lm", "--output", out],
        "eval": ["eval", "--checkpoint", teacher_ckpt],
    }[command]
    assert run_cli(*args, "--corpus", tiny, "--seq-len", 8) == 1
    assert f"--corpus {tiny}: corpus too small: 3 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_train_mode_none_writes_an_empty_metrics_file(tmp_path, teacher_ckpt, corpus_file):
    metrics = tmp_path / "m.jsonl"
    assert run_cli("train", "--student", teacher_ckpt, "--corpus", corpus_file, "--mode", "none",
                   "--output", tmp_path / "out.knz", "--metrics", metrics) == 0
    assert metrics.read_bytes() == b""


def test_eval_takes_no_seed(teacher_ckpt, corpus_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("eval", "--checkpoint", teacher_ckpt, "--corpus", corpus_file, "--seed", 99)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err


def test_eval_missing_file_errors(tmp_path, corpus_file, capsys):
    rc = run_cli("eval", "--checkpoint", tmp_path / "nope.knz", "--corpus", corpus_file)
    assert rc != 0
    assert capsys.readouterr().err


def test_bench_csv_rows_and_flop_columns(tmp_path, capsys):
    assert run_cli("bench", "--shapes", "768,768,384,768,2,1;12,12,6,12,2,1",
                   "--rows", 4, "--repeats", 2) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    r = rows[0]
    assert int(r["flops_dense"]) == 2 * 4 * 768 * 768
    assert int(r["flops_kron"]) == 2 * 4 * (384 * 768 + 384 * 2)
    assert float(r["dense_ms"]) > 0 and float(r["kron_ms"]) > 0
    for row in rows:
        for col in ("dense_bwd_ms", "kron_bwd_ms", "bwd_speedup"):
            assert float(row[col]) > 0, (col, row)


def test_bench_param_ratio_for_1024_example(capsys):
    assert run_cli("bench", "--shapes", "1024,1024,512,512,2,2", "--rows", 2,
                   "--repeats", 1) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert 3.9 <= float(rows[0]["param_ratio"]) <= 4.1


def test_bench_rejects_bad_shape(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("bench", "--shapes", "10,10,3,10,2,1")
    assert exit_info.value.code == 2
    assert "argument --shapes: bad shape tuple '10,10,3,10,2,1'" in capsys.readouterr().err


@pytest.mark.parametrize("value, chunk", [
    ("12,x,6,12,2,1", "12,x,6,12,2,1"),  # not an integer
    ("12,12,6,12,2,1;", ""),  # an empty chunk after the trailing ';'
    ("12,12,6,12,2", "12,12,6,12,2"),  # five values
    ("12,12,6,12,2,1,1", "12,12,6,12,2,1,1"),  # seven values
    ("12,12,6,12,2,1;0,0,0,0,0,0", "0,0,0,0,0,0"),  # a zero product
    ("12,12,-6,12,-2,1", "12,12,-6,12,-2,1"),  # negative factors
    ("1_2,12,6,12,2,1", "1_2,12,6,12,2,1"),  # int() would read 12
    ("١٢,12,6,12,2,1", "١٢,12,6,12,2,1"),  # so would it these digits
], ids=["non_integer", "trailing_semicolon", "five_values", "seven_values", "zero_dims",
        "negative_dims", "underscore", "indic_digits"])
def test_bench_rejects_malformed_shapes_naming_the_flag(capsys, value, chunk):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("bench", "--shapes", value, "--rows", 2, "--repeats", 1)
    assert exit_info.value.code == 2
    assert f"argument --shapes: bad shape tuple {chunk!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("value", ["nan", "0", "1", "1.5", "x"])
def test_val_ratio_outside_zero_one_is_rejected(tmp_path, teacher_ckpt, corpus_file, capsys,
                                                command, value):
    valid = {
        "train": ["--student", teacher_ckpt, "--corpus", corpus_file, "--mode", "lm",
                  "--output", tmp_path / "out.knz", "--batch", 2, "--seq-len", 16, "--steps", 1],
        "eval": ["--checkpoint", teacher_ckpt, "--corpus", corpus_file, "--seq-len", 16,
                 "--max-windows", 1],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, *valid, "--val-ratio", value)
    assert exit_info.value.code == 2
    assert (f"argument --val-ratio: expected a number in (0, 1), got '{value}'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.knz").exists()


def test_knz_seed_is_not_read(tmp_path, teacher_ckpt, corpus_file, monkeypatch):
    # a malformed KNZ_SEED once broke every command while the parser was built
    monkeypatch.setenv("KNZ_SEED", "abc")
    assert run_cli("eval", "--checkpoint", teacher_ckpt, "--corpus", corpus_file,
                   "--seq-len", 16, "--max-windows", 1) == 0
    assert run_cli("compress", "--input", teacher_ckpt, "--output", tmp_path / "s.knz") == 0
    monkeypatch.setenv("KNZ_SEED", "123")
    assert build_parser().parse_args(["bench"]).seed == 0


@pytest.mark.parametrize("flag, problem", [
    ("--input", "missing"), ("--input", "bad_magic"),
    ("--student", "missing"), ("--student", "bad_magic"),
    ("--teacher", "missing"), ("--teacher", "bad_magic"),
    ("--checkpoint", "missing"), ("--checkpoint", "bad_magic"),
    ("--corpus", "missing"),
])
def test_an_unreadable_input_names_its_flag_and_file(tmp_path, teacher_ckpt, corpus_file, capsys,
                                                      flag, problem):
    bad = tmp_path / "bad.knz"
    if problem == "bad_magic":
        bad.write_bytes(b"hello, no archive")
    out = tmp_path / "out.knz"
    f = {"--input": teacher_ckpt, "--student": teacher_ckpt, "--teacher": teacher_ckpt,
         "--checkpoint": teacher_ckpt, "--corpus": corpus_file, flag: bad}
    args = {
        "compress": ["compress", "--input", f["--input"], "--output", out],
        "train": ["train", "--student", f["--student"], "--teacher", f["--teacher"], "--corpus",
                  f["--corpus"], "--mode", "kd", "--output", out, "--steps", 1, "--seq-len", 8],
        "eval": ["eval", "--checkpoint", f["--checkpoint"], "--corpus", f["--corpus"]],
    }[{"--input": "compress", "--checkpoint": "eval"}.get(flag, "train")]
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    reason = {"missing": "No such file or directory",
              "bad_magic": "bad magic b'hell', expected b'KTNZ'"}[problem]
    named = f"--corpus {bad}: {bad}" if flag == "--corpus" else f"{flag} {bad}"
    assert f"{named}: {reason}" in err and "Errno" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
@pytest.mark.parametrize("command, flag", [
    ("train", "--output"), ("train", "--metrics"), ("compress", "--output"),
    ("compress", "--report"), ("bench", "--output"),
])
def test_an_unwritable_output_fails_before_any_work(tmp_path, teacher_ckpt, corpus_file, capsys,
                                                    monkeypatch, command, flag, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the output path was checked")

    for name in ("run_phase", "read_checkpoint", "compress_model", "run_bench"):
        monkeypatch.setattr(cli, name, no_work)
    path = tmp_path / "missing" / "x.out" if where == "missing_directory" else tmp_path
    args = {
        "train": ["train", "--student", teacher_ckpt, "--corpus", corpus_file, "--mode", "lm",
                  "--seq-len", 8],
        "compress": ["compress", "--input", teacher_ckpt, "--output", tmp_path / "s.knz"],
        "bench": ["bench"],
    }[command]
    assert run_cli(*args, flag, path) == 1
    reason = (f"directory {path.parent} does not exist" if where == "missing_directory"
              else "is a directory")
    assert f"{flag} {path}: {reason}" in capsys.readouterr().err


def _reference_report(student, reports) -> dict:
    """The --report JSON of a compression, read off compress_model's student
    and reports: every tensor but the LM head under its dense name."""
    reports, tensors = dict(reports), dict(student.named_parameters())
    entries = []
    for layer in param_layout(student.config):
        factors = stored_factors(layer, tensors)
        for k, (name, shape) in enumerate(layer_tensors(layer) if layer.kind != "head" else ()):
            factored = factors is not None and k == 0
            entry = {"name": name, "original_shape": list(shape),
                     "factor_shapes": [list(factors[:2]), list(factors[2:])] if factored else None,
                     "params_before": int(np.prod(shape)),
                     "params_after": (factors[0] * factors[1] + factors[2] * factors[3]
                                      if factored else int(np.prod(shape))),
                     "relative_residual": 0.0}
            if name in reports:
                rep = reports[name]
                entry.update(relative_residual=rep.relative_residual,
                             singular_value=rep.singular_value, sv_ratio=rep.sv_ratio)
            entries.append(entry)
    before = sum(e["params_before"] for e in entries)
    after = sum(e["params_after"] for e in entries)
    return {"tensors": entries,
            "totals": {"params_before": before, "params_after": after,
                       "compression_factor": before / after},
            "excluded_lm_head_params": tensors["lm_head.weight"].size}


def _compress_model_files(teacher_path, flags, out):
    """save_model(compress_model(...)) at ``out`` for the compress flags, and
    the --report text of its reference report."""
    args = build_parser().parse_args(["compress", "--input", "-", "--output", "-", *flags])
    teacher = load_model(teacher_path)
    cfg = teacher.config
    schedule = CompressionSchedule.for_dims(
        cfg.n_layers, cfg.d_model, cfg.d_ff, factor=args.factor, layers=args.layers,
        compress_embedding=args.embedding, include_wo=args.include_wo)
    student, reports = compress_model(teacher, schedule)
    save_model(student, out)
    return json.dumps(_reference_report(student, reports), indent=2)


@pytest.mark.parametrize("flags", [[], ["--layers", "all"], ["--embedding", "off"],
                                   ["--include-wo", "off"], ["--factor", "4"]],
                         ids=["defaults", "layers_all", "embedding_off", "include_wo_off",
                              "factor_4"])
def test_streamed_compress_writes_what_compress_model_and_save_model_write(tmp_path, teacher_ckpt,
                                                                           flags):
    out, report, ref = tmp_path / "s.knz", tmp_path / "r.json", tmp_path / "ref.knz"
    assert run_cli("compress", "--input", teacher_ckpt, "--output", out, "--report", report,
                   *flags) == 0
    ref_report = _compress_model_files(teacher_ckpt, flags, ref)
    assert out.read_bytes() == ref.read_bytes()
    assert report.read_text() == ref_report


@pytest.mark.parametrize("variant", ["shuffled_meta_last", "float32"])
def test_any_valid_checkpoint_compresses_as_compress_model_does(tmp_path, teacher_ckpt, variant):
    tensors = list(archive_read(teacher_ckpt).items())
    assert tensors[0][0] == "__meta__"
    if variant == "float32":  # read back as float64, as load_model reads it
        tensors = [(name, arr.astype(np.float32)) for name, arr in tensors]
    else:
        shuffled = tensors[1:]
        np.random.default_rng(3).shuffle(shuffled)
        tensors = shuffled + tensors[:1]
    path, out, ref = tmp_path / f"{variant}.knz", tmp_path / "s.knz", tmp_path / "ref.knz"
    archive_write(path, tensors)
    assert run_cli("compress", "--input", path, "--output", out) == 0
    _compress_model_files(path, [], ref)
    assert out.read_bytes() == ref.read_bytes()
    if variant != "float32":  # the same bytes as from the checkpoint in layout order
        assert run_cli("compress", "--input", teacher_ckpt, "--output", ref) == 0
        assert out.read_bytes() == ref.read_bytes()


class _FullDisk(io.FileIO):
    """A raw file whose disk is full after its first 100 bytes."""

    def write(self, b):
        if self.tell() + memoryview(b).nbytes > 100:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(b)


@pytest.mark.parametrize("fault, reason", [
    ("crc_byte", "CRC mismatch"),
    ("truncated_tail", "archive truncated"),
    ("factored_teacher", "block1.wq.weight: compress_model expects a dense teacher layer"),
    ("read_error", "Input/output error"),
    ("full_disk", None),
])
def test_a_failed_compress_leaves_the_old_output_and_no_temporary_or_thread(
        tmp_path, teacher_ckpt, capsys, monkeypatch, fault, reason):
    data = teacher_ckpt.read_bytes()
    bad = tmp_path / "bad.knz"
    if fault == "crc_byte":
        bad.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    elif fault == "truncated_tail":
        bad.write_bytes(data[:-100])
    elif fault == "factored_teacher":  # the default flags plan the blocks it stores factored
        assert run_cli("compress", "--input", teacher_ckpt, "--output", bad, "--embedding",
                       "off") == 0
    elif fault == "read_error":  # the disk fails part-way through the input
        bad = teacher_ckpt
        take_array, calls = archive._Reader.take_array, []

        def failing_take_array(self, *args):
            calls.append(1)
            if len(calls) == 5:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return take_array(self, *args)

        monkeypatch.setattr(archive._Reader, "take_array", failing_take_array)
    else:
        bad = teacher_ckpt
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: io.BufferedWriter(_FullDisk(fd, "w")))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "s.knz"
    out.write_bytes(b"the previous output")
    threads = threading.active_count()
    capsys.readouterr()
    assert run_cli("compress", "--input", bad, "--output", out) == 1
    err = capsys.readouterr().err
    if reason is None:  # the output's error is not the input's
        assert "No space left on device" in err and "--input" not in err
    else:
        assert f"error: --input {bad}: " in err and reason in err
    assert out.read_bytes() == b"the previous output"
    assert list(out_dir.iterdir()) == [out]
    assert threading.active_count() == threads


def _structural_offsets(data: bytes) -> list:
    """The offsets of the header and of every tensor's name length, dtype,
    rank and dims in the archive ``data``."""
    offsets, pos = list(range(12)), 12
    for _ in range(struct.unpack_from("<I", data, 8)[0]):
        (name_len,) = struct.unpack_from("<H", data, pos)
        dims_at = pos + 4 + name_len
        tag, rank = data[dims_at - 2: dims_at]
        offsets += [pos, pos + 1, dims_at - 2, dims_at - 1, *range(dims_at, dims_at + 8 * rank)]
        size = math.prod(struct.unpack_from(f"<{rank}Q", data, dims_at))
        pos = dims_at + 8 * rank + size * {1: 4, 2: 8}[tag]
    return offsets


@pytest.mark.parametrize("entry", ["load_model", "compress"])
def test_every_structural_byte_flipped_or_cut_fails_typed(tmp_path, capsys, entry):
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=32, vocab_size=16, max_seq_len=16)
    good = tmp_path / "t.knz"
    save_model(TinyGPTModel.init_random(cfg), good)
    data = good.read_bytes()
    offsets = _structural_offsets(data)
    assert len(offsets) == 12 + sum(4 + 8 * arr.ndim for _, arr in archive_read(good).items())
    cases = [data[:i] + bytes([data[i] ^ flip]) + data[i + 1:]
             for i in offsets for flip in (0x01, 0x80, 0xFF)]
    cases += [data[:i] for i in offsets]
    bad, out = tmp_path / "bad.knz", tmp_path / "s.knz"
    for i, content in enumerate(cases):
        bad.write_bytes(content)
        if entry == "load_model":
            with pytest.raises(KronlmError):
                load_model(bad)
        else:
            assert run_cli("compress", "--input", bad, "--output", out) == 1, i
            assert f"error: --input {bad}: " in capsys.readouterr().err, i
    assert not out.exists()


@pytest.mark.parametrize("n_layers", [2, 4])
def test_compress_holds_the_student_and_one_teacher_tensor_at_a_time(tmp_path, n_layers):
    cfg = GPTConfig(n_layers=n_layers, n_heads=2, d_model=128, d_ff=512, vocab_size=16,
                    max_seq_len=8)
    teacher = TinyGPTModel.init_random(cfg)
    largest = max(arr.nbytes for _, arr in teacher.named_parameters())
    save_model(teacher, tmp_path / "t.knz")
    del teacher
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            assert run_cli("compress", "--input", tmp_path / "t.knz", "--output",
                           tmp_path / "s.knz", "--report", tmp_path / "r.json") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    student = sum(arr.nbytes for _, arr in load_model(tmp_path / "s.knz").named_parameters())
    # besides the student: one teacher tensor and the solver's copy of it; the
    # whole teacher is 6 (2 blocks) to 12 times the largest
    assert max(peaks) < student + 2.5 * largest, (peaks, student, largest)


def test_console_entry_point_subprocess(tmp_path, teacher_ckpt):
    out = tmp_path / "sub.knz"
    proc = subprocess.run(
        [sys.executable, "-m", "kronlm.cli", "compress", "--input", str(teacher_ckpt),
         "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
