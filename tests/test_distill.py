import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import log_softmax_rows, masked_softmax
from kronlm import autodiff, distill
from kronlm.autodiff import Tape, backward
from kronlm.distill import (
    Adam,
    DistillWeights,
    TrainConfig,
    build_batch_loss,
    clip_global_norm,
    evaluate_lm,
    perplexity,
    run_phase,
    sample_batch,
    train_step,
    weights_for_mode,
)
from kronlm.errors import NonFiniteLossError, ShapeError, TokenIdError
from kronlm.layers import CompressionSchedule
from kronlm.model import ForwardTrace, GPTConfig, TinyGPTModel, compress_model
from kronlm.tensor_core import Rng, causal_mask


def random_trace(rng, n_layers=2, h=2, t=4, d=6, v=8):
    """A random trace and the attention scores whose masked softmax are its
    attentions."""
    scores = [rng.normal(h, t * t).reshape(h, t, t) for _ in range(n_layers)]
    trace = ForwardTrace(
        embedding_out=rng.normal(t, d),
        attentions=[masked_softmax(s, causal_mask(t)) for s in scores],
        hidden=[rng.normal(t, d) for _ in range(n_layers)],
        logits=rng.normal(t, v),
    )
    return trace, scores


ALL_FOUR = DistillWeights(1.0, 1.0, 1.0, 1.0)


def trace_losses(student, teacher_trace, targets=None, w=ALL_FOUR):
    """build_batch_loss on a constant student graph: ``student`` is a
    (trace, scores) pair from random_trace. Returns the components and
    L_total."""
    trace, scores = student
    tape = Tape()
    const = lambda arrays: [tape.constant(a) for a in arrays]
    nodes = ForwardTrace(embedding_out=tape.constant(trace.embedding_out),
                         attentions=[tape.masked_softmax(s) for s in const(scores)],
                         hidden=const(trace.hidden), logits=tape.constant(trace.logits))
    if targets is None:
        targets = np.zeros(len(trace.logits), dtype=np.int64)
    total, values = build_batch_loss(tape, nodes, teacher_trace, targets, w)
    return {**values, "L_total": float(total.value)}


def offset(student, **arrays):
    """A copy of a (trace, scores) pair with some trace fields replaced."""
    trace, scores = student
    return replace(trace, **arrays), scores


def test_loss_embedding_identical_zero():
    student = random_trace(Rng(0))
    assert trace_losses(student, student[0])["L_emb"] == 0.0


def test_loss_embedding_constant_offset():
    student = random_trace(Rng(1))
    off = offset(student, embedding_out=student[0].embedding_out + 1.0)
    assert abs(trace_losses(off, student[0])["L_emb"] - 1.0) < 1e-12


def test_loss_embedding_formula_oracle():
    student, (tt, _) = random_trace(Rng(2)), random_trace(Rng(3))
    ts = student[0]
    expected = np.sum((ts.embedding_out - tt.embedding_out) ** 2) / ts.embedding_out.size
    assert abs(trace_losses(student, tt)["L_emb"] - expected) < 1e-12


def test_loss_attention_identical_zero():
    # the tape takes log_softmax of the scores, not the log of their
    # softmax, so identical distributions give 0 only up to roundoff
    student = random_trace(Rng(4))
    assert abs(trace_losses(student, student[0])["L_att"]) < 1e-15


def test_loss_attention_closed_form_two_token_row():
    # teacher row [1, 0], student row [0.5, 0.5]: KL = ln 2 for that row
    t = 2
    teacher, _ = random_trace(Rng(5), n_layers=1, h=1, t=t)
    student, scores = random_trace(Rng(5), n_layers=1, h=1, t=t)
    teacher.attentions[0][0] = [[1.0, 0.0], [1.0, 0.0]]
    scores[0][0, 1] = [0.0, 0.0]  # softmax [0.5, 0.5]; row 0 keeps only j = 0
    # layer mean over (1 head x 2 rows): (0 + ln 2) / 2
    assert abs(trace_losses((student, scores), teacher)["L_att"] - np.log(2.0) / 2) < 1e-12


def attention_oracle(ts, tt):
    """Sum over layers of the mean over heads and rows of KL(teacher || student),
    entry by entry."""
    expected = 0.0
    for att_s, att_t in zip(ts.attentions, tt.attentions):
        acc = 0.0
        for head in range(att_s.shape[0]):
            for i in range(att_s.shape[1]):
                for j in range(i + 1):
                    p, q = att_t[head, i, j], att_s[head, i, j]
                    if p > 0:
                        acc += p * np.log(p / q)
        expected += acc / (att_s.shape[0] * att_s.shape[1])
    return expected


def test_loss_attention_formula_oracle():
    student, (tt, _) = random_trace(Rng(6)), random_trace(Rng(7))
    assert abs(trace_losses(student, tt)["L_att"] - attention_oracle(student[0], tt)) < 1e-10


def test_loss_attention_positive_for_different_distributions():
    student, (tt, _) = random_trace(Rng(8)), random_trace(Rng(9))
    assert trace_losses(student, tt)["L_att"] > 0


def test_loss_hidden_identical_and_offset():
    student = random_trace(Rng(10))
    tr = student[0]
    assert trace_losses(student, tr)["L_hid"] == 0.0
    off = offset(student, hidden=[tr.hidden[0] + 2.0, *tr.hidden[1:]])
    # one layer offset by 2 -> MSE 4, others 0
    assert abs(trace_losses(off, tr)["L_hid"] - 4.0) < 1e-12


def test_loss_hidden_formula_oracle():
    student, (tt, _) = random_trace(Rng(11)), random_trace(Rng(12))
    expected = sum(
        np.sum((hs - ht) ** 2) / hs.size for hs, ht in zip(student[0].hidden, tt.hidden)
    )
    assert abs(trace_losses(student, tt)["L_hid"] - expected) < 1e-12


def cross_entropy(logits, ids):
    student = offset(random_trace(Rng(0), t=len(logits)), logits=logits)
    return trace_losses(student, None, ids, weights_for_mode("lm"))["L_ce"]


def test_loss_cross_entropy_cases():
    logits = np.full((3, 4), -1e3)
    for i in range(3):
        logits[i, i] = 1e3
    assert cross_entropy(logits, np.array([0, 1, 2])) < 1e-9

    uniform = np.zeros((5, 16))
    assert abs(cross_entropy(uniform, np.zeros(5, dtype=int)) - np.log(16)) < 1e-12

    rng = Rng(13)
    rl = rng.normal(6, 8)
    ids = np.array([1, 0, 7, 3, 3, 5])
    z = rl - rl.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(6), ids].mean()
    assert abs(cross_entropy(rl, ids) - expected) < 1e-10


def test_loss_total_degenerate_weights():
    student, (tt, _) = random_trace(Rng(14)), random_trace(Rng(15))
    ids = np.array([0, 1, 2, 3])
    losses = trace_losses(student, tt, ids, DistillWeights(0, 0, 0, 1.0))
    assert abs(losses["L_total"] - losses["L_ce"]) < 1e-12
    self_losses = trace_losses(student, student[0], ids, DistillWeights(0.5, 0.5, 0.5, 0.1))
    assert abs(self_losses["L_total"] - 0.1 * self_losses["L_ce"]) < 1e-12


def test_loss_total_pretrain_weights_hand_combination():
    student, (tt, _) = random_trace(Rng(16)), random_trace(Rng(17))
    ids = np.array([2, 2, 1, 0])
    w = weights_for_mode("lm+kd")
    assert (w.alpha1, w.alpha2, w.alpha3, w.alpha4) == (0.5, 0.5, 0.5, 0.1)
    total = trace_losses(student, tt, ids, w)["L_total"]
    c = trace_losses(student, tt, ids)  # each component at weight 1
    hand = 0.5 * c["L_emb"] + 0.5 * c["L_att"] + 0.5 * c["L_hid"] + 0.1 * c["L_ce"]
    assert abs(total - hand) < 1e-9


@pytest.mark.parametrize("teacher_layers", [1, 3])
def test_teacher_trace_of_another_depth_raises(teacher_layers):
    student, (tt, _) = random_trace(Rng(18)), random_trace(Rng(19), n_layers=teacher_layers)
    with pytest.raises(ShapeError, match=f"teacher trace has {teacher_layers} layers, "
                                         "the student has 2"):
        trace_losses(student, tt)


def test_distill_weights_validation():
    with pytest.raises(ValueError):
        DistillWeights(0, 0, 0, 0)
    with pytest.raises(ValueError):
        DistillWeights(-0.1, 0, 0, 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DistillWeights(0, 0, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            DistillWeights(bad, 0, 0, 1)


@pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1.0])
def test_train_config_rejects_a_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("lr", ["0.1", True, None, 1j])
def test_train_config_names_a_learning_rate_that_is_not_a_real_number(lr):
    with pytest.raises(ValueError, match=f"^learning_rate must be a real number, got {re.escape(repr(lr))}$"):
        TrainConfig(learning_rate=lr)


def test_train_config_is_frozen():
    config = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        config.learning_rate = "0.1"  # would get round __post_init__'s checks


@pytest.mark.parametrize("index, value", [(0, True), (1, "0.5"), (3, None), (2, False)])
def test_distill_weights_name_an_alpha_that_is_not_a_real_number(index, value):
    alphas = [0.5, 0.5, 0.5, 0.1]
    alphas[index] = value
    with pytest.raises(ValueError,
                       match=f"^alpha{index + 1} must be a real number, got {re.escape(repr(value))}$"):
        DistillWeights(*alphas)


@pytest.mark.parametrize("name, value", [("steps", 0), ("steps", -2), ("batch_size", 0),
                                         ("seq_len", 0)])
def test_train_config_rejects_counts_below_one(name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        TrainConfig(**{name: value})


def test_weights_for_mode():
    assert weights_for_mode("none") is None
    assert weights_for_mode("lm") == DistillWeights(0, 0, 0, 1.0)
    kd = weights_for_mode("kd")
    assert kd.alpha4 == 0.0 and kd.alpha1 == 0.5
    assert weights_for_mode("lm+kd") == DistillWeights(0.5, 0.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        weights_for_mode("bogus")


def make_batch(rng, vocab, batch, length):
    return rng.integers(0, vocab, size=(batch, length + 1)).astype(np.int64)


def test_train_step_zero_lr_leaves_student_unchanged(small_teacher, small_student):
    batch = make_batch(Rng(0), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=0.0)
    before = small_student.state_hash()
    train_step(small_student, small_teacher, batch, weights_for_mode("lm+kd"), opt)
    assert small_student.state_hash() == before


def test_train_step_descends_on_repeated_batch(small_teacher, small_student):
    batch = make_batch(Rng(1), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    losses = [
        train_step(small_student, small_teacher, batch, weights_for_mode("lm+kd"), opt,
                   step_index=i).L_total
        for i in range(50)
    ]
    drops = sum(1 for i in range(1, 50) if losses[i] < losses[i - 1])
    assert drops >= 45, f"only {drops}/49 decreasing steps"


def test_teacher_frozen_across_steps(small_teacher, small_student):
    batch = make_batch(Rng(2), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    h0 = small_teacher.state_hash()
    for i in range(10):
        train_step(small_student, small_teacher, batch, weights_for_mode("lm+kd"), opt, step_index=i)
    assert small_teacher.state_hash() == h0


def test_step_metrics_linear_combination_identity(small_teacher, small_student):
    batch = make_batch(Rng(3), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-4)
    w = weights_for_mode("lm+kd")
    for i in range(5):
        m = train_step(small_student, small_teacher, batch, w, opt, step_index=i)
        combo = w.alpha1 * m.L_emb + w.alpha2 * m.L_att + w.alpha3 * m.L_hid + w.alpha4 * m.L_ce
        assert abs(m.L_total - combo) < 1e-9


def test_train_step_lm_mode_needs_no_teacher(small_student):
    batch = make_batch(Rng(4), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    m = train_step(small_student, None, batch, weights_for_mode("lm"), opt)
    assert m.L_emb == 0.0 and m.L_att == 0.0 and m.L_hid == 0.0
    assert m.L_ce > 0


def test_train_step_kd_mode_requires_teacher(small_student):
    batch = make_batch(Rng(5), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    with pytest.raises(ValueError):
        train_step(small_student, None, batch, weights_for_mode("kd"), opt)


def test_train_step_takes_whole_number_float_ids_as_their_ints(small_student):
    ids = np.array([[1, 2, 3, 4]])
    runs = []
    for batch in (ids, ids.astype(np.float64)):
        s = small_student.copy()
        m = train_step(s, None, batch, weights_for_mode("lm"), Adam(s.named_parameters(), 1e-3))
        runs.append((m.L_total, m.grad_norm, s.state_hash()))
    assert runs[0] == runs[1]


def test_train_step_names_a_target_id_that_is_not_whole(small_student):
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    with pytest.raises(TokenIdError, match=r"token id 4\.5 is not a whole number"):
        train_step(small_student, None, np.array([[1, 2, 3, 4.5]]), weights_for_mode("lm"), opt)


def test_non_finite_loss_names_component(small_teacher, small_student):
    student = small_student.copy()
    student.pos_emb[0, 0] = np.nan
    batch = make_batch(Rng(6), student.config.vocab_size, 1, 4)
    opt = Adam(student.named_parameters(), lr=1e-3)
    with pytest.raises(NonFiniteLossError, match="L_"):
        train_step(student, small_teacher, batch, weights_for_mode("lm+kd"), opt)


def test_clip_global_norm_scales_and_rejects_non_finite():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    assert clip_global_norm(grads) == 5.0
    assert np.allclose(grads["a"], [0.6, 0.0]) and np.allclose(grads["b"], [[0.8]])
    for bad in (np.inf, -np.inf, np.nan):
        grads = {"a": np.array([bad, 3.0]), "b": np.array([[4.0]])}
        with pytest.raises(NonFiniteLossError, match="gradient norm"):
            clip_global_norm(grads)
        assert grads["a"][1] == 3.0 and grads["b"][0, 0] == 4.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_gradient_never_reaches_adam(monkeypatch, small_teacher, small_student, bad):
    real_backward = distill.backward

    def poisoned_backward(tape, total):
        grads = real_backward(tape, total)
        next(iter(grads.values())).flat[0] = bad
        return grads

    monkeypatch.setattr(distill, "backward", poisoned_backward)
    batch = make_batch(Rng(7), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    before = small_student.state_hash()
    with pytest.raises(NonFiniteLossError, match="gradient norm"):
        train_step(small_student, small_teacher, batch, weights_for_mode("lm+kd"), opt)
    assert small_student.state_hash() == before
    assert opt.t == 0
    assert all(not m.any() for m in opt.m.values())


def loss_and_grads(student, teacher, batch, w):
    """Loss components and gradients of one batched graph, no update."""
    tape = Tape()
    params = {n: tape.leaf(a, n) for n, a in student.named_parameters()}
    nodes = student.forward_tape(tape, batch[:, :-1], params)
    total, values = build_batch_loss(tape, nodes, teacher.forward(batch[:, :-1]),
                                     batch[:, 1:].reshape(-1), w)
    return {**values, "L_total": float(total.value)}, backward(tape, total)


def test_batched_graph_equals_mean_of_single_sequence_graphs(small_teacher, small_student):
    batch = make_batch(Rng(14), small_student.config.vocab_size, 3, 6)
    w = weights_for_mode("lm+kd")
    values, grads = loss_and_grads(small_student, small_teacher, batch, w)
    rows = [loss_and_grads(small_student, small_teacher, batch[b : b + 1], w) for b in range(3)]
    for name, value in values.items():
        mean = sum(v[name] for v, _ in rows) / 3
        assert value > 0 and abs(value - mean) <= 1e-12 * abs(mean), name
    assert set(grads) == set(dict(small_student.named_parameters()))
    largest = max(np.max(np.abs(g)) for g in grads.values())
    for name, g in grads.items():
        mean = sum(gr[name] for _, gr in rows) / 3
        # a key bias shifts each query's scores by a constant, which softmax
        # ignores: its gradient is zero up to roundoff, so it is held to the
        # scale of the largest gradient
        ref = largest if name.endswith(".wk.bias") else np.max(np.abs(mean))
        assert np.max(np.abs(g - mean)) <= 1e-12 * ref, name


def test_lm_kd_train_step_builds_one_student_and_one_teacher_tape(monkeypatch, small_teacher,
                                                                   small_student):
    tapes = []
    real_init = Tape.__init__

    def counting_init(tape):
        real_init(tape)
        tapes.append(tape)

    monkeypatch.setattr(Tape, "__init__", counting_init)
    batch = make_batch(Rng(15), small_student.config.vocab_size, 4, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    train_step(small_student, small_teacher, batch, weights_for_mode("lm+kd"), opt)
    assert len(tapes) == 2


@pytest.mark.parametrize("mode, calls", [("lm", 5), ("kd", 8), ("lm+kd", 9)])
def test_train_step_takes_each_attention_softmax_once(monkeypatch, mode, calls):
    # 4 blocks: one softmax per student block, one per teacher block when the
    # trace losses need the teacher, and one in the cross entropy
    cfg = GPTConfig(n_layers=4, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8)
    teacher = TinyGPTModel.init_random(cfg)
    student = teacher.copy()
    calls_made = []
    real_softmax = autodiff._softmax

    def counting_softmax(*args, **kwargs):
        calls_made.append(1)
        return real_softmax(*args, **kwargs)

    monkeypatch.setattr(autodiff, "_softmax", counting_softmax)
    batch = make_batch(Rng(15), cfg.vocab_size, 2, 6)
    opt = Adam(student.named_parameters(), lr=1e-3)
    train_step(student, teacher, batch, weights_for_mode(mode), opt)
    assert len(calls_made) == calls


def test_step_metrics_report_the_gradient_norm_before_clipping(small_teacher, small_student):
    batch = make_batch(Rng(16), small_student.config.vocab_size, 2, 6)
    w = weights_for_mode("lm")
    _, grads = loss_and_grads(small_student, small_teacher, batch, w)
    norm = float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
    assert norm > distill.CLIP_NORM  # so the step clips
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    m = train_step(small_student, None, batch, w, opt)
    assert m.grad_norm == pytest.approx(norm, rel=1e-12)


def test_train_step_rejects_a_1d_batch(small_teacher, small_student):
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    with pytest.raises(ShapeError, match=r"\(7,\)"):
        train_step(small_student, small_teacher, np.arange(7) % 16, weights_for_mode("lm+kd"), opt)
    assert opt.t == 0


def test_train_step_trace_losses_require_a_teacher(monkeypatch, small_student):
    tapes = []
    real_init = Tape.__init__

    def counting_init(tape):
        real_init(tape)
        tapes.append(tape)

    monkeypatch.setattr(Tape, "__init__", counting_init)
    batch = make_batch(Rng(18), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    with pytest.raises(ValueError, match="trace losses require a teacher model"):
        train_step(small_student, None, batch, weights_for_mode("lm+kd"), opt)
    assert tapes == [] and opt.t == 0


def test_sample_batch_shapes_and_determinism():
    tokens = np.arange(1000) % 256
    b1 = sample_batch(tokens, 4, 16, Rng(7))
    b2 = sample_batch(tokens, 4, 16, Rng(7))
    assert b1.shape == (4, 17)
    assert np.array_equal(b1, b2)
    with pytest.raises(ShapeError):
        sample_batch(np.arange(4), 1, 16, Rng(0))


def test_sample_batch_draws_every_window_start():
    # 12 tokens hold (seq_len + 1)-long windows at starts 0..3, the last included
    batch = sample_batch(np.arange(12), 200, 8, Rng(3))
    assert sorted(set(batch[:, 0].tolist())) == [0, 1, 2, 3]


def test_sample_batch_accepts_a_corpus_of_exactly_one_window():
    tokens = np.arange(9)
    assert np.array_equal(sample_batch(tokens, 3, 8, Rng(0)), np.tile(tokens, (3, 1)))


def test_run_phase_metrics_file(tmp_path, small_student):
    tokens = Rng(8).integers(0, 16, size=4000).astype(np.int64)
    cfg = TrainConfig(batch_size=2, learning_rate=1e-3, steps=5, seed=9, seq_len=8)
    path = tmp_path / "metrics.jsonl"
    hist = run_phase(small_student.copy(), None, tokens, cfg, weights_for_mode("lm"),
                     metrics_path=path)
    assert len(hist) == 5
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "L_emb", "L_att", "L_hid", "L_ce", "L_total", "grad_norm",
                        "wall_ms"}


def test_run_phase_deterministic_metrics(small_teacher, small_student):
    tokens = Rng(10).integers(0, 16, size=4000).astype(np.int64)
    cfg = TrainConfig(batch_size=2, learning_rate=1e-3, steps=4, seed=11, seq_len=8)

    def run():
        s = small_student.copy()
        hist = run_phase(s, small_teacher, tokens, cfg, weights_for_mode("lm+kd"))
        return [(m.L_emb, m.L_att, m.L_hid, m.L_ce, m.L_total) for m in hist], s.state_hash()

    r1, r2 = run(), run()
    assert r1 == r2


@pytest.mark.parametrize("n_tokens, steps", [(100, 6), (111, 6), (15, 1)])
def test_run_phase_default_steps_are_one_pass_over_the_tokens(small_student, n_tokens, steps):
    # B*T = 16 tokens a step; a split shorter than that still takes one step
    tokens = np.arange(n_tokens) % 16
    cfg = TrainConfig(batch_size=2, learning_rate=1e-3, seed=0, seq_len=8)
    assert cfg.steps is None
    hist = run_phase(small_student.copy(), None, tokens, cfg, weights_for_mode("lm"))
    assert [m.step for m in hist] == list(range(steps))


def test_evaluate_lm_and_perplexity(small_teacher):
    tokens = Rng(13).integers(0, 16, size=600).astype(np.int64)
    ce = evaluate_lm(small_teacher, tokens, seq_len=8)
    assert np.isfinite(ce) and ce > 0
    assert abs(perplexity(ce) - np.exp(ce)) < 1e-9
    with pytest.raises(ShapeError):
        evaluate_lm(small_teacher, tokens[:4], seq_len=8)
    # the mean over windows equals the mean over all targets: every window has seq_len
    windows = tokens[: 74 * 8 + 1]
    logp = log_softmax_rows(small_teacher.forward(windows[:-1].reshape(74, 8)).logits)
    oracle = -logp[np.arange(len(windows) - 1), windows[1:]].mean()
    assert abs(ce - oracle) < 1e-12


@pytest.mark.parametrize("kwargs, message", [
    ({"seq_len": 0}, "seq_len must be >= 1, got 0"),
    ({"seq_len": -3}, "seq_len must be >= 1, got -3"),
    ({"seq_len": 8, "max_windows": 0}, "max_windows must be >= 1, got 0"),
    ({"seq_len": 8, "max_windows": -1}, "max_windows must be >= 1, got -1"),
])
def test_evaluate_lm_rejects_window_arguments_below_one(small_teacher, kwargs, message):
    tokens = Rng(13).integers(0, 16, size=600).astype(np.int64)
    with pytest.raises(ValueError, match=message):
        evaluate_lm(small_teacher, tokens, **kwargs)


def test_evaluate_lm_rejects_a_2d_id_array_by_shape(small_teacher):
    tokens = Rng(13).integers(0, 16, size=(3, 40))
    with pytest.raises(ShapeError, match=r"^eval ids must be 1-D, got an array of shape \(3, 40\)$"):
        evaluate_lm(small_teacher, tokens, seq_len=8)


def test_evaluate_lm_names_an_out_of_vocabulary_target(small_teacher):
    # the inputs are in range; only the last target is not
    with pytest.raises(TokenIdError, match=r"target id 200 out of range \[0, 16\)"):
        evaluate_lm(small_teacher, np.array([1, 2, 3, 200]), seq_len=3)


@pytest.mark.parametrize("tokens, bad", [
    ([1.7, 2.0, 3.9], "1.7"),  # an input id
    ([1.0, 2.0, 3.5], "3.5"),  # the last id, which is only a target
])
def test_evaluate_lm_rejects_float_ids_that_are_not_whole(small_teacher, tokens, bad):
    with pytest.raises(TokenIdError, match=rf"token id {bad} is not a whole number"):
        evaluate_lm(small_teacher, np.array(tokens), seq_len=2)


@pytest.fixture(scope="module")
def study_models():
    """The acceptance study's teacher shape, untrained, and its factor-2 student."""
    cfg = GPTConfig(n_layers=4, n_heads=4, d_model=64, d_ff=256, vocab_size=256,
                    max_seq_len=128, seed=0)
    teacher = TinyGPTModel.init_random(cfg)
    student, _ = compress_model(teacher, CompressionSchedule.for_dims(4, 64, 256, factor=2))
    return teacher, student


# Traced heap of one study-shape step: 44.7 MB (lm) and 52.1 MB (lm+kd) with
# only the backward graph on the tape, freed as backward runs, and the teacher
# run first. A tape that keeps every node until it dies takes 67.1 and 72.7 MB,
# and running the teacher after the student forward takes 55.2 MB for lm+kd.
@pytest.mark.parametrize("mode, bound_mb", [("lm", 48.0), ("lm+kd", 54.0)])
def test_study_step_traced_heap_stays_under_its_bound(study_models, mode, bound_mb):
    teacher, student = study_models
    student = student.copy()
    optimizer = Adam(student.named_parameters(), lr=2.5e-4)
    batch = sample_batch(Rng(3).integers(0, 256, size=5000), 8, 64, Rng(4))
    w = weights_for_mode(mode)
    train_step(student, teacher, batch, w, optimizer)  # warm-up: lazily built state
    tracemalloc.start()
    try:
        train_step(student, teacher, batch, w, optimizer)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < bound_mb, f"{mode} step peaked at {peak_mb:.1f} MB of traced heap"
