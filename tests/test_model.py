import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import stored_param_count
from kronlm.autodiff import Tape
from kronlm.distill import TrainConfig
from kronlm.errors import KronlmError, PlanningError, ShapeError, TokenIdError
from kronlm.kronecker import KroneckerPair, kron
from kronlm.layers import CompressionSchedule, DenseLinear, KroneckerEmbedding, KroneckerLinear
from kronlm.model import (
    GPTConfig,
    TinyGPTModel,
    compress_model,
    count_config_params,
    param_layout,
)
from kronlm.tensor_core import Rng


def exactly_factorable_teacher(config, schedule, seed=0):
    """A dense model whose selected weights are exact Kronecker products."""
    rng = Rng(seed)
    model = TinyGPTModel.init_random(config)
    v, d = config.vocab_size, config.d_model
    ve, de, one, f = schedule.embedding_shapes(v, d)
    model.tok_emb = kron(rng.normal(ve, de, scale=0.1), rng.normal(one, f, scale=0.5))
    shape_for = {
        "wq": schedule.shape_qkv, "wk": schedule.shape_qkv, "wv": schedule.shape_qkv,
        "wo": schedule.shape_wo, "c_fc": schedule.shape_cfc, "c_proj": schedule.shape_cproj,
    }
    for i, block in enumerate(model.blocks):
        if i not in schedule.layer_indices:
            continue
        for role in ("wq", "wk", "wv", "wo", "c_fc", "c_proj"):
            m1, n1, m2, n2 = shape_for[role]
            layer = getattr(block, role)
            layer.weight[:] = kron(rng.normal(m1, n1, scale=0.05), rng.normal(m2, n2, scale=0.5))
    return model


@pytest.mark.parametrize("field, low", [
    ("n_layers", 0), ("n_heads", 1), ("d_model", 1), ("d_ff", 1), ("vocab_size", 1),
    ("max_seq_len", 1), ("seed", 0),
])
def test_config_fields_below_their_minimum_are_rejected_by_name(field, low):
    GPTConfig(**{"n_heads": 1, field: low})  # the minimum itself is a valid config
    with pytest.raises(ValueError, match=rf"^{field} must be >= {low}, got {low - 1}$"):
        GPTConfig(**{"n_heads": 1, field: low - 1})


def test_config_rejects_d_model_not_divisible_by_n_heads():
    with pytest.raises(ShapeError, match=r"^d_model 10 not divisible by n_heads 3$"):
        GPTConfig(d_model=10, n_heads=3)


@pytest.mark.parametrize("build, name, value", [
    ("config", "d_model", 8.0), ("config", "n_heads", "2"), ("config", "n_layers", True),
    ("train", "seq_len", 4.0), ("train", "steps", False), ("generate", "n_tokens", 1.5),
])
def test_integer_arguments_reject_other_types_by_name(small_teacher, build, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got {re.escape(repr(value))}$"):
        if build == "config":
            GPTConfig(**{"n_layers": 2, "n_heads": 2, "d_model": 8, name: value})
        elif build == "train":
            TrainConfig(**{name: value})
        else:
            small_teacher.greedy_generate(np.array([1, 2]), value)


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


@pytest.mark.parametrize("build", ["copy", "compress", "from_tensors"])
def test_copy_and_compress_check_tensors_against_the_layout(small_teacher, build):
    cfg = small_teacher.config
    d = cfg.d_model
    float64 = r"'block0\.wq\.weight': expected a float64 array, found "
    for role, attr, value, message in [
        ("ln1", "gain", np.ones(d + 1),
         rf"'block0\.ln1\.gain': expected shape \({d},\), found \({d + 1},\)"),
        ("wq", "weight", np.ones((d, d), dtype=np.int64), float64 + "dtype int64$"),
        ("wq", "weight", np.ones((d, d)).tolist(), float64 + "list$"),
        ("wq", "weight", np.ones((d, d), dtype=np.complex128), float64 + "dtype complex128$"),
    ]:
        teacher = small_teacher.copy()
        setattr(getattr(teacher.blocks[0], role), attr, value)
        with pytest.raises(ShapeError, match=message):
            if build == "copy":
                teacher.copy()
            elif build == "compress":
                compress_model(teacher, CompressionSchedule.for_dims(cfg.n_layers, d, cfg.d_ff))
            else:
                TinyGPTModel.from_tensors(cfg, dict(teacher.named_parameters()))


def test_compress_model_rejects_an_already_factored_layer(small_student):
    cfg = small_student.config
    schedule = CompressionSchedule.for_dims(cfg.n_layers, cfg.d_model, cfg.d_ff)
    with pytest.raises(ShapeError,
                       match=r"^tok_emb\.weight: compress_model expects a dense teacher layer$"):
        compress_model(small_student, schedule)
    with pytest.raises(ShapeError, match=r"^block1\.wq\.weight: compress_model expects a dense"):
        compress_model(small_student, replace(schedule, compress_embedding=False))


def test_a_schedule_that_does_not_fit_the_layout_is_rejected(small_teacher, small_config):
    wider = CompressionSchedule.for_dims(2, 16, 64)  # q/k/v factors for d_model 16, not 8
    message = r"^block1\.wq\.weight: factors \(8x16, 2x1\) multiply to \(16, 16\), not its shape \(8, 8\)$"
    with pytest.raises(ShapeError, match=message):
        count_config_params(small_config, wider)
    with pytest.raises(ShapeError, match=message):
        compress_model(small_teacher, wider)
    past_the_end = replace(CompressionSchedule.for_dims(2, 8, 16), layer_indices=(5,))
    for call in (count_config_params, lambda cfg, s: compress_model(small_teacher, s)):
        with pytest.raises(PlanningError, match=r"^layer index 5 out of range for 2 blocks$"):
            call(small_config, past_the_end)


@pytest.mark.parametrize("fields, message", [
    ({}, r"^block1\.wq\.weight: the schedule's shape_qkv is \(\), not the factor shapes"),
    ({"shape_qkv": (4, 8, 2, 1)},
     r"^block1\.c_fc\.weight: the schedule's shape_cfc is \(\), not the factor shapes"),
    ({"shape_qkv": (4, 8, 2, 1), "shape_cfc": (8, 8, 2)},
     r"^block1\.c_fc\.weight: the schedule's shape_cfc is \(8, 8, 2\), not the factor"),
], ids=["no_shape_qkv", "no_shape_cfc", "short_shape_cfc"])
def test_a_schedule_without_factor_shapes_is_rejected_by_tensor_and_field(
        small_teacher, small_config, fields, message):
    schedule = CompressionSchedule(layer_indices=(1,), **fields)
    with pytest.raises(PlanningError, match=message):
        count_config_params(small_config, schedule)
    with pytest.raises(PlanningError, match=message):
        compress_model(small_teacher, schedule)
    # a schedule that selects no block needs no linear factor shapes
    assert count_config_params(small_config, CompressionSchedule(layer_indices=())) < (
        count_config_params(small_config))


def test_a_rejected_float_schedule_leaves_the_int_count_an_int():
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=32, vocab_size=16, max_seq_len=8)
    schedule = CompressionSchedule(layer_indices=(1,), shape_qkv=(4, 8, 2, 1),
                                   shape_cfc=(16, 8, 2, 1))
    with pytest.raises(ValueError, match=r"^embedding_factor must be an int, got 2\.0$"):
        replace(schedule, embedding_factor=2.0)
    count = count_config_params(cfg, schedule)
    assert type(count) is int and count == 1646


@pytest.mark.parametrize("kind", ["init_random", "compressed"])
def test_the_layout_places_each_layer_and_is_cached_on_the_frozen_config(
        small_teacher, small_student, kind):
    model = {"init_random": small_teacher, "compressed": small_student}[kind]
    layout = param_layout(model.config)
    for i, block in enumerate(model.blocks):
        assert list(vars(block)) == [layer.role for layer in layout if layer.block == i]
    top = [layer.role for layer in layout if layer.block is None]
    assert [name for name in vars(model) if name not in ("config", "blocks")] == top
    with pytest.raises(FrozenInstanceError):
        model.config.d_model = 16
    assert param_layout(model.config) is param_layout(replace(model.config))


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


def test_forward_reads_materialized_layer_objects(small_student):
    # the layer objects stay the source of the tensor map: a copy whose
    # factored layers are swapped for their dense products runs dense
    dense = small_student.copy()
    dense.tok_emb = KroneckerPair(dense.tok_emb.a_e, dense.tok_emb.b_e).materialize()
    for block in dense.blocks:
        for role in ("wq", "wk", "wv", "wo", "c_fc", "c_proj"):
            layer = getattr(block, role)
            if isinstance(layer, KroneckerLinear):
                setattr(block, role, DenseLinear(layer.factors.materialize(), layer.bias))
    names = [name for name, _ in dense.named_parameters()]
    assert names == [re.sub(r"\.a$", ".weight", name) for name, _ in small_student.named_parameters()
                     if not name.endswith(".b")]
    tokens = Rng(23).integers(0, dense.config.vocab_size, size=(2, 9))
    want = small_student.forward(tokens).logits
    assert np.max(np.abs(dense.forward(tokens).logits - want)) <= 1e-9


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


@pytest.mark.parametrize("compressed", [False, True], ids=["dense", "compressed"])
def test_forward_on_constants_equals_forward_tape_on_leaves(small_teacher, small_student,
                                                            compressed):
    # evaluation and training run the same ops; only the leaves' kind differs
    model = small_student if compressed else small_teacher
    tokens = Rng(19).integers(0, model.config.vocab_size, size=(2, 7))
    want = model.forward(tokens)
    tape = Tape()
    params = {name: tape.leaf(arr, name) for name, arr in model.named_parameters()}
    got = model.forward_tape(tape, tokens, params).arrays()
    assert np.array_equal(got.embedding_out, want.embedding_out)
    assert np.array_equal(got.logits, want.logits)
    for g, w in zip(got.attentions + got.hidden, want.attentions + want.hidden, strict=True):
        assert np.array_equal(g, w)


def test_batched_forward_rows_match_single_sequences(small_student):
    b, t, h = 3, 7, small_student.config.n_heads
    batch = Rng(17).integers(0, small_student.config.vocab_size, size=(b, t))
    trace = small_student.forward(batch)
    assert trace.logits.shape == (b * t, small_student.config.vocab_size)
    assert all(a.shape == (b * h, t, t) for a in trace.attentions)

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for i, row in enumerate(batch):
        one = small_student.forward(row)
        rows = slice(i * t, (i + 1) * t)
        close(trace.embedding_out[rows], one.embedding_out)
        close(trace.logits[rows], one.logits)
        for got, want in zip(trace.hidden, one.hidden):
            close(got[rows], want)
        for got, want in zip(trace.attentions, one.attentions):
            close(got[i * h : (i + 1) * h], want)


def test_greedy_generate_smoke(small_teacher):
    out = small_teacher.greedy_generate(np.array([1, 2]), 4)
    assert out.shape == (6,)
    assert np.all(out < small_teacher.config.vocab_size)
    # deterministic
    assert np.array_equal(out, small_teacher.greedy_generate(np.array([1, 2]), 4))


def last_rows(arr, b, n):
    """The last n rows of each of b sequences of a (B*T, ...) array."""
    return arr.reshape(b, -1, *arr.shape[1:])[:, -n:].reshape(-1, *arr.shape[1:])


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("compressed", [False, True], ids=["dense", "compressed"])
def test_cached_forward_matches_the_full_forward(small_teacher, small_student, compressed, b):
    model = small_student if compressed else small_teacher
    t, t_past = 9, 5
    tokens = Rng(31 + b).integers(0, model.config.vocab_size, size=(b, t))
    full = model.forward(tokens)

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def check(trace, n):
        """``trace`` holds the last n of the t positions and caches all t."""
        close(trace.embedding_out, last_rows(full.embedding_out, b, n))
        close(trace.logits, last_rows(full.logits, b, n))
        for got, want in zip(trace.hidden, full.hidden):
            close(got, last_rows(want, b, n))
        for got, want in zip(trace.attentions, full.attentions):
            close(got, want[:, -n:])
        for got, want in zip(trace.keys + trace.values, full.keys + full.values):
            close(got, want)

    check(model.forward_tape(Tape(), tokens[:, t_past:], past=model.forward(tokens[:, :t_past]))
          .arrays(), t - t_past)
    trace = model.forward(tokens[:, :t_past])
    for end in range(t_past + 1, t + 1):  # one row per step, as greedy_generate decodes
        trace = model.forward_tape(Tape(), tokens[:, end - 1 : end], past=trace).arrays()
    check(trace, 1)


def uncached_greedy(model, prompt, n_tokens):
    """greedy_generate as a loop of full forwards over the last max_seq_len ids."""
    ids = list(prompt)
    for _ in range(n_tokens):
        logits = model.forward(np.array(ids[-model.config.max_seq_len :])).logits
        ids.append(int(np.argmax(logits[-1])))
    return np.array(ids, dtype=np.int64)


@pytest.mark.parametrize("prompt_len", [3, 14])
@pytest.mark.parametrize("kind", ["dense", "compressed", "no_blocks"])
def test_greedy_generate_matches_the_uncached_loop(small_teacher, small_student, kind,
                                                   prompt_len):
    model = {"dense": small_teacher, "compressed": small_student,
             "no_blocks": TinyGPTModel.init_random(replace(small_teacher.config, n_layers=0))}[kind]
    prompt = Rng(prompt_len).integers(0, model.config.vocab_size, size=prompt_len)
    n_tokens = 2 * model.config.max_seq_len  # the window slides past max_seq_len
    out = model.greedy_generate(prompt, n_tokens)
    assert out.dtype == np.int64
    assert np.array_equal(out, uncached_greedy(model, prompt, n_tokens))


def test_cached_forward_rejects_overlong_and_params(small_teacher):
    max_len = small_teacher.config.max_seq_len
    past = small_teacher.forward(np.arange(max_len - 2))
    with pytest.raises(ShapeError, match=f"max_seq_len {max_len}"):
        small_teacher.forward_tape(Tape(), np.array([1, 2, 3]), past=past)
    params = {name: Tape().leaf(arr, name) for name, arr in small_teacher.named_parameters()}
    with pytest.raises(ValueError, match="past"):
        small_teacher.forward_tape(Tape(), np.array([1]), params, past=past)
    with pytest.raises(ShapeError, match="past"):  # a cache of one sequence for a batch of two
        small_teacher.forward_tape(Tape(), np.array([[1], [2]]), past=small_teacher.forward([1]))


def test_greedy_generate_rejects_a_negative_count(small_teacher):
    with pytest.raises(ValueError, match="n_tokens"):
        small_teacher.greedy_generate([1, 2], -3)


def test_greedy_generate_rejects_a_2d_prompt_by_shape(small_teacher):
    with pytest.raises(ShapeError, match=r"\(2, 2\)"):
        small_teacher.greedy_generate([[1, 2], [3, 4]], 2)


def test_non_integer_ids_are_rejected_and_whole_floats_pass(small_teacher):
    with pytest.raises(TokenIdError, match="1.7"):
        small_teacher.greedy_generate([1.7, 2], 2)
    with pytest.raises(TokenIdError, match="2.5"):
        small_teacher.forward(np.array([1.0, 2.5, 3.5]))
    for bad in (np.nan, np.inf, 1e30):
        with pytest.raises(TokenIdError, match=re.escape(str(bad))):
            small_teacher.forward([1.0, bad])
    with pytest.raises(TokenIdError, match="dtype"):
        small_teacher.forward(["a"])
    assert np.array_equal(small_teacher.forward(np.array([1.0, 2.0])).logits,
                          small_teacher.forward([1, 2]).logits)
    assert np.array_equal(small_teacher.greedy_generate(np.array([1.0, 2.0]), 3),
                          small_teacher.greedy_generate([1, 2], 3))


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
