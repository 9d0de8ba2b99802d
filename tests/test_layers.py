import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlm.autodiff import Tape
from kronlm.errors import PlanningError, ShapeError, TokenIdError
from kronlm.kronecker import KroneckerPair, kron, rearrange
from kronlm.layers import (
    CompressionSchedule,
    DenseLinear,
    KroneckerEmbedding,
    KroneckerLinear,
    decompose_linear,
    plan_shapes,
)
from kronlm.model import LayerSpec, layer_tensors
from kronlm.tensor_core import Rng

# layer forwards run through the Tape ops the model builds its graph from


def dense_forward(layer: DenseLinear, x):
    tape = Tape()
    bias = None if layer.bias is None else tape.constant(layer.bias)
    return tape.linear(tape.constant(x), tape.constant(layer.weight), bias).value


def kron_forward(layer: KroneckerLinear, x):
    tape = Tape()
    bias = None if layer.bias is None else tape.constant(layer.bias)
    a, b = tape.constant(layer.factors.a), tape.constant(layer.factors.b)
    return tape.kron_linear(tape.constant(x), a, b, bias).value


def embed_lookup(e: KroneckerEmbedding, ids):
    tape = Tape()
    return tape.kron_embed(tape.constant(e.a_e), tape.constant(e.b_e), ids).value


def test_dense_forward_identity():
    layer = DenseLinear(weight=np.eye(4), bias=np.zeros(4))
    x = Rng(0).normal(3, 4)
    assert np.array_equal(dense_forward(layer, x), x)


def test_dense_forward_zero_weight_replicates_bias():
    bias = np.array([1.0, 2.0, 3.0])
    layer = DenseLinear(weight=np.zeros((3, 4)), bias=bias)
    out = dense_forward(layer, Rng(1).normal(5, 4))
    assert np.array_equal(out, np.tile(bias, (5, 1)))


def test_dense_forward_loop_oracle():
    rng = Rng(2)
    layer = DenseLinear(weight=rng.normal(3, 4), bias=rng.normal(3))
    x = rng.normal(5, 4)
    out = dense_forward(layer, x)
    for r in range(5):
        for o in range(3):
            expected = layer.bias[o] + sum(x[r, k] * layer.weight[o, k] for k in range(4))
            assert abs(out[r, o] - expected) < 1e-12


def test_dense_forward_shape_error():
    with pytest.raises(ShapeError):
        dense_forward(DenseLinear(weight=np.zeros((3, 4))), np.zeros((2, 5)))


def test_kron_forward_identity_factors():
    layer = KroneckerLinear(KroneckerPair(np.eye(2), np.eye(3)), bias=np.arange(6.0))
    x = Rng(3).normal(4, 6)
    assert np.max(np.abs(kron_forward(layer, x) - (x + np.arange(6.0)))) < 1e-15


TABLE_SHAPES_SCALED = [(6, 12, 2, 1), (24, 12, 2, 1), (12, 24, 1, 2)]


@pytest.mark.parametrize("m1,n1,m2,n2", TABLE_SHAPES_SCALED)
def test_kron_forward_matches_materialized_dense(m1, n1, m2, n2):
    rng = Rng(4)
    a, b = rng.normal(m1, n1), rng.normal(m2, n2)
    bias = rng.normal(m1 * m2)
    klayer = KroneckerLinear(KroneckerPair(a, b), bias=bias)
    dlayer = DenseLinear(weight=kron(a, b), bias=bias)
    x = rng.normal(7, n1 * n2)
    got, want = kron_forward(klayer, x), dense_forward(dlayer, x)
    assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30) < 1e-9


def test_kron_forward_scalar_b_degenerates():
    rng = Rng(5)
    a = rng.normal(4, 3)
    klayer = KroneckerLinear(KroneckerPair(a, np.array([[1.0]])))
    dlayer = DenseLinear(weight=a)
    x = rng.normal(2, 3)
    assert np.max(np.abs(kron_forward(klayer, x) - dense_forward(dlayer, x))) < 1e-12


def test_embed_lookup_f1_returns_rows():
    rng = Rng(6)
    emb = KroneckerEmbedding(a_e=rng.normal(10, 8), b_e=np.array([[1.0]]))
    ids = np.array([0, 4, 9])
    assert np.array_equal(embed_lookup(emb, ids), emb.a_e[ids])


def test_embed_lookup_matches_materialized_table():
    rng = Rng(7)
    emb = KroneckerEmbedding(a_e=rng.normal(10, 4), b_e=rng.normal(1, 2))
    table = kron(emb.a_e, emb.b_e)  # (10, 8)
    for i in [0, 3, 7, 9]:
        got = embed_lookup(emb, np.array([i]))[0]
        assert np.max(np.abs(got - table[i])) < 1e-12


def test_embed_lookup_identical_ids_identical_rows():
    rng = Rng(8)
    emb = KroneckerEmbedding(a_e=rng.normal(6, 3), b_e=rng.normal(1, 2))
    out = embed_lookup(emb, np.array([2, 2]))
    assert np.array_equal(out[0], out[1])


def test_embed_lookup_out_of_range_names_id():
    emb = KroneckerEmbedding(a_e=np.zeros((5, 2)), b_e=np.ones((1, 2)))
    with pytest.raises(TokenIdError, match="6"):
        embed_lookup(emb, np.array([1, 6]))


def test_embed_lookup_cost_linear_in_d_and_vocab_free():
    # the lookup reads only the requested rows of A: every other row is NaN
    # here, so touching them (or building the v x d table) would leak NaNs
    rng = Rng(13)
    a_e = np.full((50, 4), np.nan)
    ids = np.array([3, 17, 3])
    a_e[ids] = rng.normal(3, 4)
    emb = KroneckerEmbedding(a_e=a_e, b_e=rng.normal(1, 2))
    out = embed_lookup(emb, ids)
    assert out.shape == (3, 8)  # one product per output cell: n_tokens * d
    assert np.all(np.isfinite(out))


def test_decompose_linear_exactly_factorable():
    rng = Rng(9)
    a0, b0 = rng.normal(3, 4), rng.normal(2, 1)
    dense = DenseLinear(weight=kron(a0, b0), bias=rng.normal(6))
    factored, report = decompose_linear(dense, (3, 4, 2, 1))
    assert report.relative_residual <= 1e-6
    x = rng.normal(5, 4)
    got, want = kron_forward(factored, x), dense_forward(dense, x)
    assert np.max(np.abs(got - want)) < 1e-6


def test_decompose_linear_zero_weight():
    bias = np.array([1.0, 2.0, 3.0, 4.0])
    dense = DenseLinear(weight=np.zeros((4, 4)), bias=bias)
    factored, report = decompose_linear(dense, (2, 2, 2, 2))
    assert report.residual_fro == 0.0
    out = kron_forward(factored, np.ones((2, 4)))
    assert np.array_equal(out, np.tile(bias, (2, 1)))


def test_decompose_linear_report_matches_svd_oracle():
    rng = Rng(10)
    weight = rng.normal(12, 12)
    dense = DenseLinear(weight=weight, bias=None)
    _, report = decompose_linear(dense, (6, 12, 2, 1))
    r = rearrange(weight, 6, 12, 2, 1)
    svals = np.linalg.svd(r, compute_uv=False)
    expected = np.sqrt(np.sum(svals[1:] ** 2)) / np.linalg.norm(weight)
    assert abs(report.relative_residual - expected) < 1e-8


def test_decompose_idempotent_in_effect():
    rng = Rng(11)
    dense = DenseLinear(weight=rng.normal(8, 8), bias=None)
    factored, _ = decompose_linear(dense, (4, 8, 2, 1))
    once = factored.factors.materialize()
    again, report = decompose_linear(DenseLinear(weight=once), (4, 8, 2, 1))
    assert np.max(np.abs(again.factors.materialize() - once)) < 1e-8


def stored_params(factors=None) -> int:
    """Stored parameters of a 768 x 768 linear layer with a bias, dense or
    with the given factor shapes, as the checkpoint layout spells them out."""
    layer = LayerSpec(0, "wq", "linear", (768, 768))
    return sum(math.prod(shape) for _, shape in layer_tensors(layer, factors))


def test_param_count_dense_768():
    assert stored_params() == 590_592


def test_param_count_kron_table_row():
    assert stored_params(plan_shapes(768, 768, 2)) == 294_914 + 768


def test_param_count_monotonic_for_planned_shapes():
    for m, n in [(768, 768), (3072, 768), (768, 3072), (64, 64), (256, 64)]:
        m1, n1, m2, n2 = plan_shapes(m, n, 2)
        dense = m * n + m
        factored = m1 * n1 + m2 * n2 + m
        assert factored < dense


def test_plan_shapes_table_rows():
    assert plan_shapes(768, 768, 2) == (384, 768, 2, 1)
    assert plan_shapes(3072, 768, 2) == (1536, 768, 2, 1)
    assert plan_shapes(1024, 1024, 4) == (512, 512, 2, 2)


def test_plan_shapes_odd_rows_falls_to_columns():
    assert plan_shapes(50527, 768, 2) == (50527, 384, 1, 2)


def test_plan_shapes_errors():
    with pytest.raises(PlanningError):
        plan_shapes(7, 7, 2)
    with pytest.raises(PlanningError):
        plan_shapes(8, 8, 3)
    with pytest.raises(PlanningError):
        plan_shapes(8, 8, 0)


def test_schedule_for_dims_roles_and_transpose_convention():
    s = CompressionSchedule.for_dims(12, 768, 3072, factor=2)
    assert s.layer_indices == (1, 3, 5, 7, 9, 11)
    assert s.shape_qkv == (384, 768, 2, 1)
    assert s.shape_cfc == (1536, 768, 2, 1)
    assert s.shape_cproj == (768, 1536, 1, 2)  # transpose of c_fc
    assert s.embedding_shapes(50527, 768) == (50527, 384, 1, 2)


def test_schedule_layer_selectors():
    assert CompressionSchedule.for_dims(4, 8, 16, layers="even").layer_indices == (0, 2)
    assert CompressionSchedule.for_dims(4, 8, 16, layers="all").layer_indices == (0, 1, 2, 3)
    assert CompressionSchedule.for_dims(4, 8, 16, layers=(3, 1)).layer_indices == (1, 3)
    with pytest.raises(PlanningError):
        CompressionSchedule.for_dims(4, 8, 16, layers=(5,))


@pytest.mark.parametrize("args, kwargs, message", [
    ((4, 64, 256), {"layers": (1.7, True)}, "layers[0] must be an int, got 1.7"),
    ((4, 64, 256), {"layers": (1, True)}, "layers[1] must be an int, got True"),
    ((4, 64.0, 256), {}, "d_model must be an int, got 64.0"),
])
def test_schedule_for_dims_takes_ints_only(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CompressionSchedule.for_dims(*args, **kwargs)


QKV, CFC = (4, 8, 2, 1), (16, 8, 2, 1)  # the factor-2 shapes of d_model 8, d_ff 32


@pytest.mark.parametrize("build, message", [
    (lambda: CompressionSchedule((1,), shape_qkv=(4.0, 8, 2, 1), shape_cfc=CFC),
     "shape_qkv[0] must be an int, got 4.0"),
    (lambda: CompressionSchedule((1,), embedding_factor=2.0, shape_qkv=QKV, shape_cfc=CFC),
     "embedding_factor must be an int, got 2.0"),
    (lambda: CompressionSchedule((1,), shape_qkv=(True, 8, 8, 1), shape_cfc=CFC),
     "shape_qkv[0] must be an int, got True"),
    (lambda: CompressionSchedule((1.0,), shape_qkv=QKV, shape_cfc=CFC),
     "layer_indices[0] must be an int, got 1.0"),
    (lambda: CompressionSchedule((True,), shape_qkv=QKV, shape_cfc=CFC),
     "layer_indices[0] must be an int, got True"),
    (lambda: CompressionSchedule.for_dims(2, 8, 32, include_wo="off"),
     "include_wo must be a bool, got 'off'"),
    (lambda: CompressionSchedule.for_dims(2, 8, 32, compress_embedding="no"),
     "compress_embedding must be a bool, got 'no'"),
    (lambda: CompressionSchedule((1,), shape_qkv=[4, 8, 2, 1], shape_cfc=CFC),
     "shape_qkv must be a tuple of ints, got [4, 8, 2, 1]"),
], ids=["float_shape", "float_embedding_factor", "bool_shape", "float_index", "bool_index",
        "str_include_wo", "str_compress_embedding", "list_shape"])
def test_schedule_fields_are_type_checked_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_schedule_fields_cannot_be_reassigned():
    # the type checks run once, at construction: an assignment would get round them
    s = CompressionSchedule((1,), shape_qkv=(4, 8, 2, 1), shape_cfc=CFC)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.shape_qkv = (4.0, 8, 2, 1)
    assert s.shape_qkv == (4, 8, 2, 1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: DenseLinear(np.zeros((4, 3)), np.zeros(3)), ShapeError,
     "bias length (3,) != weight rows 4"),
    (lambda: KroneckerLinear(KroneckerPair(np.zeros((2, 3)), np.zeros((2, 1))), np.zeros(2)),
     ShapeError, "bias length (2,) != product rows 4"),
    (lambda: KroneckerEmbedding(np.zeros((5, 2)), np.zeros((2, 2))), ShapeError,
     "b_e must be 1 x f, got (2, 2)"),
    (lambda: CompressionSchedule((), embedding_factor=3).embedding_shapes(16, 8), PlanningError,
     "embedding factor 3 is not a positive divisor of d_model 8"),
], ids=["dense_bias", "kron_bias", "embedding_b_e", "embedding_divisor"])
def test_layer_arguments_are_rejected_by_operand(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def _check_factor_shapes(shapes, m, n):
    m1, n1, m2, n2 = shapes
    assert m1 * m2 == m and n1 * n2 == n, (shapes, m, n)
    assert m2 in (1, 2) and n2 in (1, 2), shapes


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 5000), st.integers(-2, 6))
def test_plan_shapes_property(m, n, factor):
    try:
        shapes = plan_shapes(m, n, factor)
    except PlanningError:
        # the planner refuses only what B dims of 1 or 2 cannot express
        assert not (factor in (2, 4) and m % 2 == 0 and n % 2 == 0)
        return
    _check_factor_shapes(shapes, m, n)
    assert shapes[2] * shapes[3] == factor


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 40),
    st.integers(1, 160),
    st.integers(-1, 5),
    st.one_of(st.sampled_from(["odd", "even", "all", "none", "first"]),
              st.lists(st.integers(-2, 7), max_size=4).map(tuple)),
    st.booleans(),
    st.one_of(st.none(), st.integers(-2, 5)),
    st.booleans(),
)
def test_schedule_for_dims_property(n_layers, d, dff, factor, layers, emb, emb_factor, wo):
    try:
        s = CompressionSchedule.for_dims(n_layers, d, dff, factor=factor, layers=layers,
                                         compress_embedding=emb, embedding_factor=emb_factor,
                                         include_wo=wo)
    except PlanningError:
        return
    _check_factor_shapes(s.shape_qkv, d, d)
    _check_factor_shapes(s.shape_wo, d, d)
    _check_factor_shapes(s.shape_cfc, dff, d)
    _check_factor_shapes(s.shape_cproj, d, dff)
    assert all(0 <= i < n_layers for i in s.layer_indices)
    if emb:
        v, de, one, f = s.embedding_shapes(11, d)
        assert (v, one) == (11, 1) and f >= 1 and de * f == d


def test_factored_dense_equivalence_100_inputs():
    rng = Rng(12)
    s = CompressionSchedule.for_dims(2, 12, 48, factor=2)
    for shapes in (s.shape_qkv, s.shape_cfc, s.shape_cproj):
        m1, n1, m2, n2 = shapes
        a, b = rng.normal(m1, n1), rng.normal(m2, n2)
        klayer = KroneckerLinear(KroneckerPair(a, b), bias=rng.normal(m1 * m2))
        dlayer = DenseLinear(weight=kron(a, b), bias=klayer.bias)
        x = rng.normal(100, n1 * n2)
        got, want = kron_forward(klayer, x), dense_forward(dlayer, x)
        denom = max(np.max(np.abs(want)), 1e-30)
        assert np.max(np.abs(got - want)) / denom < 1e-9
