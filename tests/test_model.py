import numpy as np
import pytest

from conftest import stored_param_count
from kronlm.autodiff import Tape
from kronlm.errors import KronlmError, ShapeError, TokenIdError
from kronlm.kronecker import kron
from kronlm.layers import CompressionSchedule, DenseLinear, KroneckerEmbedding, KroneckerLinear
from kronlm.model import (
    GPTConfig,
    TinyGPTModel,
    attach_classifier,
    compress_model,
    count_config_params,
)
from kronlm.tensor_core import Rng


def exactly_factorable_teacher(config, schedule, seed=0):
    """A dense model whose selected weights are exact Kronecker products."""
    rng = Rng(seed)
    model = TinyGPTModel.init_random(config, Rng(config.seed))
    v, d = config.vocab_size, config.d_model
    ve, de, one, f = schedule.embedding_shapes(v, d)
    model.tok_emb = kron(rng.normal(ve, de, scale=0.1), rng.normal(one, f, scale=0.5))
    shape_for = {
        "wq": schedule.shape_qkv, "wk": schedule.shape_qkv, "wv": schedule.shape_qkv,
        "wo": schedule.shape_wo, "c_fc": schedule.shape_cfc, "c_proj": schedule.shape_cproj,
    }
    for i, block in enumerate(model.blocks):
        if not schedule.selects(i):
            continue
        for role in ("wq", "wk", "wv", "wo", "c_fc", "c_proj"):
            m1, n1, m2, n2 = shape_for[role]
            layer = getattr(block, role)
            layer.weight[:] = kron(rng.normal(m1, n1, scale=0.05), rng.normal(m2, n2, scale=0.5))
    return model


def test_single_token_attention_is_one(small_teacher):
    trace = small_teacher.forward(np.array([3]))
    for att in trace.attentions:
        assert np.array_equal(att, np.ones((small_teacher.config.n_heads, 1, 1)))


def test_trace_shapes():
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, vocab_size=16, max_seq_len=8, seed=0)
    model = TinyGPTModel.init_random(cfg)
    trace = model.forward(np.array([1, 2, 3, 4, 5]))
    assert trace.embedding_out.shape == (5, 8)
    assert len(trace.attentions) == 2
    assert all(a.shape == (2, 5, 5) for a in trace.attentions)
    assert len(trace.hidden) == 2
    assert all(h.shape == (5, 8) for h in trace.hidden)
    assert trace.logits.shape == (5, 16)


def test_attention_rows_are_causal_distributions(small_teacher):
    trace = small_teacher.forward(np.array([1, 2, 3, 4, 5, 6]))
    for att in trace.attentions:
        assert np.max(np.abs(att.sum(axis=-1) - 1.0)) < 1e-6
        for i in range(6):
            assert np.all(att[:, i, i + 1 :] == 0.0)  # exact zeros above diagonal


def test_causality_prefix_bitwise(small_teacher):
    t1 = small_teacher.forward(np.array([1, 2, 3, 4, 5]))
    t2 = small_teacher.forward(np.array([1, 2, 3, 9, 9]))
    assert np.array_equal(t1.logits[:3], t2.logits[:3])
    assert not np.array_equal(t1.logits[3:], t2.logits[3:])


def test_forward_rejects_overlong_and_bad_ids(small_teacher):
    max_len = small_teacher.config.max_seq_len
    with pytest.raises(ShapeError):
        small_teacher.forward(np.arange(max_len + 1) % 4)
    with pytest.raises(TokenIdError):
        small_teacher.forward(np.array([0, small_teacher.config.vocab_size]))
    with pytest.raises(ShapeError):
        small_teacher.forward(np.zeros((1, 2, 3), dtype=np.int64))


def test_compress_model_empty_schedule_bitwise(small_teacher):
    schedule = CompressionSchedule.for_dims(
        small_teacher.config.n_layers, small_teacher.config.d_model,
        small_teacher.config.d_ff, layers=(), compress_embedding=False,
    )
    student, reports = compress_model(small_teacher, schedule)
    assert reports == []
    assert student.state_hash() == small_teacher.state_hash()


@pytest.mark.parametrize("layers,embedding", [("odd", True), ((), False), ("all", True)],
                         ids=["odd-True", "none-False", "all-True"])
def test_compress_model_student_shares_no_memory_with_teacher(small_teacher, layers, embedding):
    # Adam updates the student in place: an alias would train the teacher too
    cfg = small_teacher.config
    schedule = CompressionSchedule.for_dims(cfg.n_layers, cfg.d_model, cfg.d_ff, layers=layers,
                                            compress_embedding=embedding)
    student, _ = compress_model(small_teacher, schedule)
    for s_name, s_arr in student.named_parameters():
        for t_name, t_arr in small_teacher.named_parameters():
            assert not np.shares_memory(s_arr, t_arr), (s_name, t_name)


def test_compress_model_names_a_non_finite_weight(small_teacher):
    teacher = small_teacher.copy()
    teacher.blocks[1].wq.weight[2, 3] = np.nan
    cfg = teacher.config
    schedule = CompressionSchedule.for_dims(cfg.n_layers, cfg.d_model, cfg.d_ff)
    with pytest.raises(KronlmError, match=r"^block1\.wq\.weight: .*non-finite.*\(2, 3\)"):
        compress_model(teacher, schedule)


def test_compress_model_odd_layer_selection():
    cfg = GPTConfig(n_layers=4, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, seed=1)
    teacher = TinyGPTModel.init_random(cfg)
    schedule = CompressionSchedule.for_dims(4, 8, 16, factor=2)
    student, reports = compress_model(teacher, schedule)
    for i in (1, 3):
        block = student.blocks[i]
        for role in ("wq", "wk", "wv", "wo", "c_fc", "c_proj"):
            assert isinstance(getattr(block, role), KroneckerLinear), (i, role)
    for i in (0, 2):
        block = student.blocks[i]
        for role in ("wq", "wk", "wv", "wo", "c_fc", "c_proj"):
            assert isinstance(getattr(block, role), DenseLinear), (i, role)
    assert isinstance(student.tok_emb, KroneckerEmbedding)
    assert isinstance(student.lm_head, DenseLinear)
    # LM head and unselected blocks copied verbatim
    assert np.array_equal(student.lm_head.weight, teacher.lm_head.weight)
    assert np.array_equal(student.blocks[0].wq.weight, teacher.blocks[0].wq.weight)


def test_compress_model_include_wo_flag():
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, seed=1)
    teacher = TinyGPTModel.init_random(cfg)
    schedule = CompressionSchedule.for_dims(2, 8, 16, factor=2, include_wo=False)
    student, _ = compress_model(teacher, schedule)
    assert isinstance(student.blocks[1].wo, DenseLinear)
    assert isinstance(student.blocks[1].wq, KroneckerLinear)


def test_compress_exactly_factorable_reports_and_logits():
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=12, max_seq_len=8, seed=2)
    schedule = CompressionSchedule.for_dims(2, 8, 16, factor=2)
    teacher = exactly_factorable_teacher(cfg, schedule, seed=5)
    student, reports = compress_model(teacher, schedule)
    assert len(reports) > 0
    for name, report in reports:
        assert report.relative_residual <= 1e-6, name
    tokens = np.array([1, 5, 3, 7, 2])
    lt = teacher.forward(tokens).logits
    ls = student.forward(tokens).logits
    assert np.max(np.abs(lt - ls)) <= 1e-5


def test_trace_shape_equality_teacher_student(small_teacher, small_student):
    tokens = np.array([2, 4, 6, 8])
    tt, ts = small_teacher.forward(tokens), small_student.forward(tokens)
    assert tt.embedding_out.shape == ts.embedding_out.shape
    assert tt.logits.shape == ts.logits.shape
    for a, b in zip(tt.attentions, ts.attentions):
        assert a.shape == b.shape
    for a, b in zip(tt.hidden, ts.hidden):
        assert a.shape == b.shape


def test_forward_deterministic(small_teacher):
    tokens = np.array([1, 2, 3])
    l1 = small_teacher.forward(tokens).logits
    l2 = small_teacher.forward(tokens).logits
    assert np.array_equal(l1, l2)


def test_classifier_zero_projection_uniform():
    cfg = GPTConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=16, max_seq_len=8, seed=3)
    clf = attach_classifier(TinyGPTModel.init_random(cfg), n_classes=2)
    _, logits = clf.forward(np.array([1, 2, 3]))
    assert np.array_equal(logits, np.zeros((1, 2)))


def test_classifier_deterministic_for_seed():
    cfg = GPTConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=16, max_seq_len=8, seed=3)
    base = TinyGPTModel.init_random(cfg)
    c1 = attach_classifier(base, 3, rng=Rng(4))
    c2 = attach_classifier(base, 3, rng=Rng(4))
    t = np.array([5, 6])
    assert np.array_equal(c1.forward(t)[1], c2.forward(t)[1])


def test_classifier_matches_manual_pool_oracle(small_teacher):
    clf = attach_classifier(small_teacher, 4, rng=Rng(9))
    tokens = np.array([1, 2, 3, 4, 5])
    trace, logits = clf.forward(tokens)
    # manual: final-layernorm features of the last position through the head
    tape_trace = small_teacher.forward_tape(Tape(), tokens)
    feats = tape_trace.final_hidden.value[-1]
    expected = feats @ clf.head.weight.T + clf.head.bias
    assert np.max(np.abs(logits[0] - expected)) < 1e-12


def test_batched_forward_rows_match_single_sequences(small_student):
    clf = attach_classifier(small_student, 3, rng=Rng(5))
    b, t, h = 3, 7, small_student.config.n_heads
    batch = Rng(17).integers(0, small_student.config.vocab_size, size=(b, t))
    trace, class_logits = clf.forward(batch)
    assert trace.logits.shape == (b * t, small_student.config.vocab_size)
    assert all(a.shape == (b * h, t, t) for a in trace.attentions)
    assert class_logits.shape == (b, 3)

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for i, row in enumerate(batch):
        one, one_logits = clf.forward(row)
        rows = slice(i * t, (i + 1) * t)
        close(trace.embedding_out[rows], one.embedding_out)
        close(trace.logits[rows], one.logits)
        for got, want in zip(trace.hidden, one.hidden):
            close(got[rows], want)
        for got, want in zip(trace.attentions, one.attentions):
            close(got[i * h : (i + 1) * h], want)
        close(class_logits[i : i + 1], one_logits)


def test_greedy_generate_smoke(small_teacher):
    out = small_teacher.greedy_generate(np.array([1, 2]), 4)
    assert out.shape == (6,)
    assert np.all(out < small_teacher.config.vocab_size)
    # deterministic
    assert np.array_equal(out, small_teacher.greedy_generate(np.array([1, 2]), 4))


def test_param_count_matches_analytic_counter():
    cfg = GPTConfig(n_layers=4, n_heads=4, d_model=16, d_ff=64, vocab_size=32, max_seq_len=16, seed=0)
    model = TinyGPTModel.init_random(cfg)
    assert stored_param_count(model) == count_config_params(cfg)
    assert stored_param_count(model, exclude_lm_head=True) == count_config_params(
        cfg, exclude_lm_head=True)
    schedule = CompressionSchedule.for_dims(4, 16, 64, factor=2)
    student, _ = compress_model(model, schedule)
    assert stored_param_count(student) == count_config_params(cfg, schedule)
    assert stored_param_count(student) < stored_param_count(model)


def test_state_hash_tracks_changes(small_teacher):
    h0 = small_teacher.state_hash()
    copy = small_teacher.copy()
    assert copy.state_hash() == h0
    copy.pos_emb[0, 0] += 1.0
    assert copy.state_hash() != h0
