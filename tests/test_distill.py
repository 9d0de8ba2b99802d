import json
from dataclasses import replace

import numpy as np
import pytest

from kronlm import distill
from kronlm.autodiff import Tape, backward
from kronlm.distill import (
    Adam,
    DistillWeights,
    TrainConfig,
    build_batch_loss,
    clip_global_norm,
    evaluate_lm,
    finetune_step,
    perplexity,
    run_phase,
    sample_batch,
    train_step,
    weights_for_mode,
)
from kronlm.errors import NonFiniteLossError, ShapeError, TokenIdError
from kronlm.model import ForwardTrace, TraceNodes, attach_classifier
from kronlm.tensor_core import Rng, causal_mask, log_softmax_rows, masked_softmax


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
    nodes = TraceNodes(embedding=tape.constant(trace.embedding_out), attn_scores=const(scores),
                       attn_probs=const(trace.attentions), hidden=const(trace.hidden),
                       logits=tape.constant(trace.logits))
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
    return trace_losses(student, None, ids, DistillWeights.lm_only())["L_ce"]


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
    w = DistillWeights.pretrain()
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
    assert DistillWeights.finetune().alpha4 == 0.02


@pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1.0])
def test_train_config_rejects_a_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
        TrainConfig(learning_rate=lr)


def test_weights_for_mode():
    assert weights_for_mode("none") is None
    assert weights_for_mode("lm") == DistillWeights(0, 0, 0, 1.0)
    kd = weights_for_mode("kd")
    assert kd.alpha4 == 0.0 and kd.alpha1 == 0.5
    assert weights_for_mode("lm+kd") == DistillWeights.pretrain()
    with pytest.raises(ValueError):
        weights_for_mode("bogus")


def make_batch(rng, vocab, batch, length):
    return rng.integers(0, vocab, size=(batch, length + 1)).astype(np.int64)


def test_train_step_zero_lr_leaves_student_unchanged(small_teacher, small_student):
    batch = make_batch(Rng(0), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=0.0)
    before = small_student.state_hash()
    train_step(small_student, small_teacher, batch, DistillWeights.pretrain(), opt)
    assert small_student.state_hash() == before


def test_train_step_descends_on_repeated_batch(small_teacher, small_student):
    batch = make_batch(Rng(1), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    losses = [
        train_step(small_student, small_teacher, batch, DistillWeights.pretrain(), opt,
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
        train_step(small_student, small_teacher, batch, DistillWeights.pretrain(), opt, step_index=i)
    assert small_teacher.state_hash() == h0


def test_step_metrics_linear_combination_identity(small_teacher, small_student):
    batch = make_batch(Rng(3), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-4)
    w = DistillWeights.pretrain()
    for i in range(5):
        m = train_step(small_student, small_teacher, batch, w, opt, step_index=i)
        combo = w.alpha1 * m.L_emb + w.alpha2 * m.L_att + w.alpha3 * m.L_hid + w.alpha4 * m.L_ce
        assert abs(m.L_total - combo) < 1e-9


def test_train_step_lm_mode_needs_no_teacher(small_student):
    batch = make_batch(Rng(4), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    m = train_step(small_student, None, batch, DistillWeights.lm_only(), opt)
    assert m.L_emb == 0.0 and m.L_att == 0.0 and m.L_hid == 0.0
    assert m.L_ce > 0


def test_train_step_kd_mode_requires_teacher(small_student):
    batch = make_batch(Rng(5), small_student.config.vocab_size, 2, 6)
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    with pytest.raises(ValueError):
        train_step(small_student, None, batch, weights_for_mode("kd"), opt)


def test_non_finite_loss_names_component(small_teacher, small_student):
    student = small_student.copy()
    student.pos_emb[0, 0] = np.nan
    batch = make_batch(Rng(6), student.config.vocab_size, 1, 4)
    opt = Adam(student.named_parameters(), lr=1e-3)
    with pytest.raises(NonFiniteLossError, match="L_"):
        train_step(student, small_teacher, batch, DistillWeights.pretrain(), opt)


def test_clip_global_norm_scales_and_rejects_non_finite():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    assert clip_global_norm(grads, 1.0) == 5.0
    assert np.allclose(grads["a"], [0.6, 0.0]) and np.allclose(grads["b"], [[0.8]])
    for bad in (np.inf, -np.inf, np.nan):
        grads = {"a": np.array([bad, 3.0]), "b": np.array([[4.0]])}
        with pytest.raises(NonFiniteLossError, match="gradient norm"):
            clip_global_norm(grads, 1.0)
        assert grads["a"][1] == 3.0 and grads["b"][0, 0] == 4.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("step", ["train", "finetune"])
def test_non_finite_gradient_never_reaches_adam(monkeypatch, small_teacher, small_student,
                                                step, bad):
    real_backward = distill.backward

    def poisoned_backward(tape, total):
        grads = real_backward(tape, total)
        next(iter(grads.values())).flat[0] = bad
        return grads

    monkeypatch.setattr(distill, "backward", poisoned_backward)
    rng = Rng(7)
    if step == "train":
        net = small_student
        batch = make_batch(rng, net.config.vocab_size, 2, 6)
        run = lambda opt: train_step(net, small_teacher, batch, DistillWeights.pretrain(), opt)
    else:
        net = attach_classifier(small_student, 2, rng=Rng(1))
        teacher_clf = attach_classifier(small_teacher, 2, rng=Rng(1))
        seqs = [rng.integers(0, 16, size=6).astype(np.int64) for _ in range(2)]
        run = lambda opt: finetune_step(net, teacher_clf, seqs, np.array([0, 1]),
                                        DistillWeights.finetune(), opt)
    opt = Adam(net.named_parameters(), lr=1e-3)
    before = net.state_hash()
    with pytest.raises(NonFiniteLossError, match="gradient norm"):
        run(opt)
    assert net.state_hash() == before
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
    w = DistillWeights.pretrain()
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
    train_step(small_student, small_teacher, batch, DistillWeights.pretrain(), opt)
    assert len(tapes) == 2


def test_step_metrics_report_the_gradient_norm_before_clipping(small_teacher, small_student):
    batch = make_batch(Rng(16), small_student.config.vocab_size, 2, 6)
    w = DistillWeights.lm_only()
    _, grads = loss_and_grads(small_student, small_teacher, batch, w)
    norm = float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
    assert norm > distill.CLIP_NORM  # so the step clips
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    m = train_step(small_student, None, batch, w, opt)
    assert m.grad_norm == pytest.approx(norm, rel=1e-12)


def test_train_step_rejects_a_1d_batch(small_teacher, small_student):
    opt = Adam(small_student.named_parameters(), lr=1e-3)
    with pytest.raises(ShapeError, match=r"\(7,\)"):
        train_step(small_student, small_teacher, np.arange(7) % 16, DistillWeights.pretrain(), opt)
    assert opt.t == 0


def _finetune(small_teacher, small_student, seqs, labels):
    student_clf = attach_classifier(small_student, 2, rng=Rng(1))
    teacher_clf = attach_classifier(small_teacher, 2, rng=Rng(1))
    opt = Adam(student_clf.named_parameters(), lr=1e-3)
    finetune_step(student_clf, teacher_clf, seqs, labels, DistillWeights.finetune(), opt)


def test_finetune_step_rejects_a_label_count_mismatch(small_teacher, small_student):
    seqs = [Rng(17).integers(0, 16, size=6) for _ in range(3)]
    with pytest.raises(ShapeError, match=r"shape \(3, 6\) need one label each, got labels of shape \(1,\)"):
        _finetune(small_teacher, small_student, seqs, np.array([1]))


def test_finetune_step_rejects_ragged_sequences(small_teacher, small_student):
    seqs = [np.arange(6) % 16, np.arange(4) % 16]
    with pytest.raises(ShapeError, match=r"lengths \[4, 6\]"):
        _finetune(small_teacher, small_student, seqs, np.array([0, 1]))


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


def test_run_phase_none_and_metrics_file(tmp_path, small_teacher, small_student):
    tokens = Rng(8).integers(0, 16, size=4000).astype(np.int64)
    cfg = TrainConfig(batch_size=2, learning_rate=1e-3, epochs=1, seed=9, seq_len=8)
    assert run_phase("none", small_student, small_teacher, tokens, cfg) == []

    path = tmp_path / "metrics.jsonl"
    hist = run_phase("lm", small_student.copy(), None, tokens, cfg,
                     metrics_path=path, steps_per_epoch=5)
    assert len(hist) == 5
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "L_emb", "L_att", "L_hid", "L_ce", "L_total", "grad_norm",
                        "wall_ms"}


def test_run_phase_deterministic_metrics(small_teacher, small_student):
    tokens = Rng(10).integers(0, 16, size=4000).astype(np.int64)
    cfg = TrainConfig(batch_size=2, learning_rate=1e-3, epochs=1, seed=11, seq_len=8)

    def run():
        s = small_student.copy()
        hist = run_phase("lm+kd", s, small_teacher, tokens, cfg, steps_per_epoch=4)
        return [(m.L_emb, m.L_att, m.L_hid, m.L_ce, m.L_total) for m in hist], s.state_hash()

    r1, r2 = run(), run()
    assert r1 == r2


def test_finetune_step_descends_and_freezes_teacher(small_teacher, small_student):
    rng = Rng(12)
    teacher_clf = attach_classifier(small_teacher, 2, rng=Rng(1))
    student_clf = attach_classifier(small_student, 2, rng=Rng(1))
    seqs = [rng.integers(0, 16, size=6).astype(np.int64) for _ in range(4)]
    labels = np.array([0, 1, 0, 1])
    opt = Adam(student_clf.named_parameters(), lr=1e-3)
    h0 = teacher_clf.state_hash()
    w = DistillWeights.finetune()
    losses = [
        finetune_step(student_clf, teacher_clf, seqs, labels, w, opt, step_index=i).L_total
        for i in range(20)
    ]
    assert losses[-1] < losses[0]
    assert teacher_clf.state_hash() == h0


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


def test_evaluate_lm_names_an_out_of_vocabulary_target(small_teacher):
    # the inputs are in range; only the last target is not
    with pytest.raises(TokenIdError, match=r"target id 200 out of range \[0, 16\)"):
        evaluate_lm(small_teacher, np.array([1, 2, 3, 200]), seq_len=3)
