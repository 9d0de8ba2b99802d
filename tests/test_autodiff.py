import re

import numpy as np
import pytest

from conftest import masked_softmax
from kronlm import autodiff
from kronlm.autodiff import Tape, backward
from kronlm.errors import KronlmError, ShapeError, TokenIdError
from kronlm.kronecker import KroneckerPair, kron, rearrange
from kronlm.tensor_core import Rng, causal_mask


def finite_diff(loss_fn, arrays, h=1e-6):
    """Central finite differences of loss_fn() wrt each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss_fn()
            arr[idx] = orig - h
            lm = loss_fn()
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def check_op(build, arrays, rtol=1e-6, h=1e-6):
    """Gradient-check a scalar-valued tape construction against central FD."""

    def value():
        tape = Tape()
        return float(build(tape).value)

    tape = Tape()
    loss = build(tape)
    store = backward(tape, loss)
    fd = finite_diff(value, arrays, h=h)
    for i, (name, _) in enumerate((f"p{k}", None) for k in range(len(arrays))):
        an = store[f"p{i}"]
        num = fd[i]
        denom = max(np.max(np.abs(num)), np.max(np.abs(an)), 1e-8)
        err = np.max(np.abs(an - num)) / denom
        assert err < rtol, f"param {i}: rel err {err:.3e}"


def test_linear_case_grad_structure():
    # loss = sum(W @ x): dL/dW[i, j] = x[j] for every row i
    rng = Rng(0)
    w = rng.normal(3, 4)
    x = rng.normal(4, 1)
    tape = Tape()
    wn = tape.leaf(w, "w")
    xn = tape.constant(x)
    loss = tape.sum(tape.matmul(wn, xn))
    store = backward(tape, loss)
    expected = np.tile(x[:, 0], (3, 1))
    assert np.max(np.abs(store["w"] - expected)) < 1e-12


def test_mse_self_is_zero_gradient():
    x = Rng(1).normal(3, 3)
    tape = Tape()
    xn = tape.leaf(x, "x")
    loss = tape.mse(xn, x)
    assert loss.value == 0.0
    store = backward(tape, loss)
    assert np.all(store["x"] == 0)


def test_matmul_grad():
    rng = Rng(2)
    a, b = rng.normal(3, 4), rng.normal(4, 2)
    t = rng.normal(3, 2)
    check_op(
        lambda tape: tape.mse(
            tape.matmul(tape.leaf(a, "p0"), tape.leaf(b, "p1")), t
        ),
        [a, b],
    )


def test_linear_grad_with_bias():
    rng = Rng(3)
    x, w, bias = rng.normal(5, 4), rng.normal(3, 4), rng.normal(3)
    t = rng.normal(5, 3)
    check_op(
        lambda tape: tape.mse(
            tape.linear(tape.leaf(x, "p0"), tape.leaf(w, "p1"), tape.leaf(bias, "p2")), t
        ),
        [x, w, bias],
    )


def test_kron_linear_grad():
    rng = Rng(4)
    a, b = rng.normal(3, 2), rng.normal(2, 2)
    x = rng.normal(5, 4)
    bias = rng.normal(6)
    t = rng.normal(5, 6)
    check_op(
        lambda tape: tape.mse(
            tape.kron_linear(
                tape.leaf(x, "p0"), tape.leaf(a, "p1"), tape.leaf(b, "p2"), tape.leaf(bias, "p3")
            ),
            t,
        ),
        [x, a, b, bias],
    )


def test_gelu_layernorm_grads():
    rng = Rng(5)
    x, gain, bias = rng.normal(4, 6), rng.normal(6), rng.normal(6)
    t = rng.normal(4, 6)
    check_op(
        lambda tape: tape.mse(
            tape.gelu(tape.layernorm(tape.leaf(x, "p0"), tape.leaf(gain, "p1"), tape.leaf(bias, "p2"))),
            t,
        ),
        [x, gain, bias],
    )


def test_attention_pipeline_grads():
    rng = Rng(6)
    t_len, d, h = 5, 8, 2
    q, k, v = rng.normal(t_len, d), rng.normal(t_len, d), rng.normal(t_len, d)
    target = rng.normal(t_len, d)

    def build(tape):
        qn, kn, vn = tape.leaf(q, "p0"), tape.leaf(k, "p1"), tape.leaf(v, "p2")
        probs = tape.masked_softmax(tape.attn_scores(qn, kn, h, t_len))
        return tape.mse(tape.attn_mix(probs, vn, h), target)

    check_op(build, [q, k, v])


def test_attn_scores_scale_each_head_by_its_width():
    rng = Rng(24)
    b, t_len, d, h = 2, 3, 8, 2
    q, k = rng.normal(b * t_len, d), rng.normal(b * t_len, d)
    tape = Tape()
    scores = tape.attn_scores(tape.leaf(q), tape.leaf(k), h, t_len).value
    dk = d // h
    for seq in range(b):
        rows = slice(seq * t_len, (seq + 1) * t_len)
        for head in range(h):
            cols = slice(head * dk, (head + 1) * dk)
            expected = q[rows, cols] @ k[rows, cols].T / np.sqrt(dk)
            assert np.allclose(scores[seq * h + head], expected, rtol=0, atol=1e-12)


def test_causal_mask_offsets_rectangular_attention():
    rng = Rng(25)
    b, h, t_q, t_k, d = 2, 2, 3, 7, 8
    tape = Tape()
    q, k = tape.leaf(rng.normal(b * t_q, d)), tape.leaf(rng.normal(b * t_k, d))
    probs = tape.masked_softmax(tape.attn_scores(q, k, h, t_q)).value
    assert probs.shape == (b * h, t_q, t_k)
    assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-12
    for i in range(t_q):
        assert np.all(probs[:, i, i + t_k - t_q + 1:] == 0.0)
        assert np.all(probs[:, i, : i + t_k - t_q + 1] > 0.0)
    assert np.array_equal(causal_mask(t_q, t_k), np.arange(t_k) <= np.arange(t_q)[:, None] + 4)
    assert np.array_equal(causal_mask(5), causal_mask(5, 5))


def square_attention(q, k, v, n_heads, t, up):
    """The square attention formulas (Tq = Tk = t) as written before keys
    could outnumber queries: (scores, probs, mix) and each op's vjp of ``up``
    and of the upstreams the next op passes back."""
    rows, d = q.shape
    b, dk = rows // t, d // n_heads
    scale = 1.0 / np.sqrt(dk)
    qh = q.reshape(b, t, n_heads, dk).transpose(0, 2, 1, 3)
    kh = k.reshape(b, t, n_heads, dk).transpose(0, 2, 1, 3)
    s = (np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale).reshape(b * n_heads, t, t)
    p = masked_softmax(s, np.tril(np.ones((t, t), dtype=bool)))
    ph = p.reshape(b, n_heads, t, t)
    vh = v.reshape(b, t, n_heads, dk).transpose(0, 2, 1, 3)
    y = np.matmul(ph, vh).transpose(0, 2, 1, 3).reshape(rows, d)
    uh = up.reshape(b, t, n_heads, dk).transpose(0, 2, 1, 3)
    gp = np.matmul(uh, vh.transpose(0, 1, 3, 2)).reshape(p.shape)
    gv = np.matmul(ph.transpose(0, 1, 3, 2), uh).transpose(0, 2, 1, 3).reshape(rows, d)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gsh = gs.reshape(b, n_heads, t, t)
    gq = (np.matmul(gsh, kh) * scale).transpose(0, 2, 1, 3).reshape(rows, d)
    gk = (np.matmul(gsh.transpose(0, 1, 3, 2), qh) * scale).transpose(0, 2, 1, 3).reshape(rows, d)
    return (s, p, y), (gq, gk, gp, gv, gs)


def test_square_attention_is_bit_identical_to_the_square_formulas():
    rng = Rng(26)
    b, h, t, d = 2, 2, 5, 8
    q, k, v, up = (rng.normal(b * t, d) for _ in range(4))
    tape = Tape()
    qn, kn, vn = tape.leaf(q), tape.leaf(k), tape.leaf(v)
    scores = tape.attn_scores(qn, kn, h, t)
    probs = tape.masked_softmax(scores)
    mix = tape.attn_mix(probs, vn, h)
    gp, gv = mix._vjp(up)
    (gs,) = probs._vjp(gp)
    gq, gk = scores._vjp(gs)
    values, grads = square_attention(q, k, v, h, t, up)
    for got, want in zip((scores.value, probs.value, mix.value, gq, gk, gp, gv, gs),
                         values + grads):
        assert np.array_equal(got, want)


def test_gather_and_kron_embed_grads():
    rng = Rng(7)
    table = rng.normal(10, 6)
    ids = np.array([1, 3, 3, 9])
    t = rng.normal(4, 6)
    check_op(lambda tape: tape.mse(tape.gather_rows(tape.leaf(table, "p0"), ids), t), [table])

    a_e, b_e = rng.normal(10, 3), rng.normal(1, 2)
    t2 = rng.normal(4, 6)
    check_op(
        lambda tape: tape.mse(tape.kron_embed(tape.leaf(a_e, "p0"), tape.leaf(b_e, "p1"), ids), t2),
        [a_e, b_e],
    )


def test_cross_entropy_grad():
    rng = Rng(8)
    logits = rng.normal(6, 5)
    ids = np.array([0, 2, 4, 1, 1, 3])
    check_op(lambda tape: tape.cross_entropy(tape.leaf(logits, "p0"), ids), [logits])


def test_attn_kl_grad():
    rng = Rng(9)
    h, t_len = 2, 4
    teacher_scores = rng.normal(h, t_len * t_len).reshape(h, t_len, t_len)
    teacher_probs = masked_softmax(teacher_scores, causal_mask(t_len))
    scores = rng.normal(h, t_len * t_len).reshape(h, t_len, t_len)
    check_op(
        lambda tape: tape.attn_kl(tape.masked_softmax(tape.leaf(scores, "p0")), teacher_probs),
        [scores],
    )


def test_attn_kl_reads_the_softmax_masked_softmax_took(monkeypatch):
    rng = Rng(9)
    teacher_probs = masked_softmax(rng.normal(2, 16).reshape(2, 4, 4), causal_mask(4))
    tape = Tape()
    probs = tape.masked_softmax(tape.leaf(rng.normal(2, 16).reshape(2, 4, 4), "p0"))

    def forbidden(*args, **kwargs):
        raise AssertionError("attn_kl took a second softmax")

    for owner, name in ((autodiff, "_softmax"), (autodiff, "causal_mask"), (np, "exp")):
        monkeypatch.setattr(owner, name, forbidden)
    kl = tape.attn_kl(probs, teacher_probs)
    assert kl._parents == probs._parents  # the gradient goes to the scores


def test_attn_kl_rejects_a_node_masked_softmax_did_not_return():
    rng = Rng(9)
    teacher_probs = masked_softmax(rng.normal(2, 16).reshape(2, 4, 4), causal_mask(4))
    tape = Tape()
    scores = tape.leaf(rng.normal(2, 16).reshape(2, 4, 4), "p0")
    with pytest.raises(KronlmError, match="is not a node that masked_softmax returned"):
        tape.attn_kl(scores, teacher_probs)


@pytest.mark.parametrize("call, error, message", [
    (lambda tape, leaf: tape.add(leaf(2, 3), leaf(3, 2)), ShapeError,
     "add shape mismatch: (2, 3) vs (3, 2)"),
    (lambda tape, leaf: tape.add_n([]), ValueError, "add_n needs at least one node"),
    (lambda tape, leaf: tape.kron_embed(leaf(5, 2), leaf(2, 2), np.array([0, 1])), ShapeError,
     "kron_embed: b_e must be 1 x f, got (2, 2)"),
    (lambda tape, leaf: tape.attn_scores(leaf(8, 4), leaf(8, 6), 2, 4), ShapeError,
     "attn_scores: q (8, 4), k (8, 6) are not B sequences of 4 queries and at least 4 keys each"),
    (lambda tape, leaf: tape.mse(leaf(2, 3), np.zeros((3, 2))), ShapeError,
     "mse shape mismatch: (2, 3) vs (3, 2)"),
    (lambda tape, leaf: tape.attn_kl(tape.masked_softmax(leaf(2, 4, 4)), np.full((2, 4, 3), 1 / 3)),
     ShapeError, "attn_kl shape mismatch: (2, 4, 3) vs (2, 4, 4)"),
    (lambda tape, leaf: tape.cross_entropy(leaf(4, 5), np.zeros((4, 1), dtype=np.int64)),
     ShapeError, "cross_entropy: targets shape (4, 1) != (4,)"),
], ids=["add", "add_n", "kron_embed", "attn_scores", "mse", "attn_kl", "cross_entropy"])
def test_tape_ops_reject_mismatched_operands_by_name(call, error, message):
    rng, tape = Rng(4), Tape()
    leaf = lambda *shape: tape.leaf(rng.normal(*shape), "x")  # a fresh random leaf
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tape, leaf)


def test_fanout_accumulates_additively():
    x = np.array([[2.0, 3.0]])
    tape = Tape()
    xn = tape.leaf(x, "x")
    y = tape.add(xn, xn)  # y = 2x
    loss = tape.sum(y)
    store = backward(tape, loss)
    assert np.array_equal(store["x"], np.full((1, 2), 2.0))


def test_affine_combination_and_scale_grads():
    rng = Rng(10)
    a, b = rng.normal(2, 2), rng.normal(2, 2)
    t = np.zeros((2, 2))

    def build(tape):
        la = tape.mse(tape.leaf(a, "p0"), t)
        lb = tape.mse(tape.scale(tape.leaf(b, "p1"), 3.0), t)
        return tape.affine_combination([la, lb], [0.5, 0.1])

    check_op(build, [a, b])


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)), "x")
    y = tape.add(x, x)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_untouched_leaf_gets_zero_grad():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)), "x")
    unused = tape.leaf(np.ones(3), "unused")
    loss = tape.sum(x)
    store = backward(tape, loss)
    assert np.all(store["unused"] == 0)
    assert store["unused"].shape == (3,)


_R = Rng(23)
# op -> (graph over the parent nodes, parent values)
PARENT_GRAD_OPS = {
    "matmul": (lambda tape, a, b: tape.matmul(a, b), [_R.normal(3, 4), _R.normal(4, 2)]),
    "linear": (lambda tape, x, w, bias: tape.linear(x, w, bias),
               [_R.normal(5, 4), _R.normal(3, 4), _R.normal(3)]),
    "kron_linear": (lambda tape, x, a, b, bias: tape.kron_linear(x, a, b, bias),
                    [_R.normal(5, 4), _R.normal(3, 2), _R.normal(2, 2), _R.normal(6)]),
    "kron_embed": (lambda tape, a, b: tape.kron_embed(a, b, np.array([1, 3, 3, 9])),
                   [_R.normal(10, 3), _R.normal(1, 2)]),
    "layernorm": (lambda tape, x, gain, bias: tape.layernorm(x, gain, bias),
                  [_R.normal(4, 6), _R.normal(6), _R.normal(6)]),
    "attn_scores": (lambda tape, q, k: tape.attn_scores(q, k, 2, 5),
                    [_R.normal(5, 8), _R.normal(5, 8)]),
    "attn_mix": (lambda tape, probs, v: tape.attn_mix(probs, v, 2),
                 [masked_softmax(_R.normal(2, 5, 5), causal_mask(5)), _R.normal(5, 8)]),
    # rectangular attention, as in cached decoding: 2 sequences of 2 queries over 5 keys
    "attn_scores_rect": (lambda tape, q, k: tape.attn_scores(q, k, 2, 2),
                         [_R.normal(4, 8), _R.normal(10, 8)]),
    "attn_mix_rect": (lambda tape, probs, v: tape.attn_mix(probs, v, 2),
                      [masked_softmax(_R.normal(4, 2, 5), causal_mask(2, 5)), _R.normal(10, 8)]),
}


def cos_target(out):
    return np.cos(np.arange(out.value.size)).reshape(out.value.shape)


@pytest.mark.parametrize("op", sorted(PARENT_GRAD_OPS))
def test_parent_grads_match_finite_differences(op):
    build, values = PARENT_GRAD_OPS[op]
    values = [v.copy() for v in values]

    def loss(tape):
        out = build(tape, *(tape.leaf(v, f"p{i}") for i, v in enumerate(values)))
        return tape.mse(out, cos_target(out))

    check_op(loss, values)


@pytest.mark.parametrize("op", sorted(PARENT_GRAD_OPS))
def test_constant_parent_gets_no_grad_and_leaves_keep_theirs(op):
    build, values = PARENT_GRAD_OPS[op]

    def run(constant=None):
        """The parent nodes after backward, parent ``constant`` entering as a constant."""
        tape = Tape()
        nodes = [tape.constant(v) if i == constant else tape.leaf(v, f"p{i}")
                 for i, v in enumerate(values)]
        out = build(tape, *nodes)
        backward(tape, tape.mse(out, cos_target(out)))
        return nodes

    all_leaves = run()
    for constant in range(len(values)):
        nodes = run(constant)
        assert nodes[constant].grad is None
        for i, (node, leaf) in enumerate(zip(nodes, all_leaves)):
            if i != constant:
                assert np.array_equal(node.grad, leaf.grad), (constant, i)


def test_gather_rejects_out_of_range_and_names_id():
    tape = Tape()
    table = tape.leaf(np.ones((4, 2)), "t")
    with pytest.raises(TokenIdError, match="7"):
        tape.gather_rows(table, np.array([0, 7]))


# ---- Tape.kron_linear backward vs the materialized path ------------------------


def kron_backward(pair, x, upstream):
    """(grad_a, grad_b, grad_x) of Tape.kron_linear for an upstream gradient."""
    tape = Tape()
    xn, an, bn = tape.leaf(x, "x"), tape.leaf(pair.a, "a"), tape.leaf(pair.b, "b")
    grad_x, grad_a, grad_b = tape.kron_linear(xn, an, bn)._vjp(upstream)
    return grad_a, grad_b, grad_x


def materialized_path_grads(a, b, x, upstream):
    """Oracle: differentiate through W = kron(a, b) explicitly, then map the
    dense weight gradient back to the factors via the rearrangement."""
    w = kron(a, b)
    grad_w = upstream.T @ x  # for y = x @ W^T
    grad_x = upstream @ w
    r = rearrange(grad_w, a.shape[0], a.shape[1], b.shape[0], b.shape[1])
    grad_a = (r @ b.reshape(-1)).reshape(a.shape)
    grad_b = (r.T @ a.reshape(-1)).reshape(b.shape)
    return grad_a, grad_b, grad_x


def test_kron_backward_identity_a():
    rng = Rng(11)
    a = np.eye(3)
    b = rng.normal(2, 2)
    x = rng.normal(4, 6)
    up = rng.normal(4, 6)
    ga, gb, gx = kron_backward(KroneckerPair(a, b), x, up)
    oa, ob, ox = materialized_path_grads(a, b, x, up)
    assert np.max(np.abs(gb - ob)) < 1e-9
    assert np.max(np.abs(gx - ox)) < 1e-9


def test_kron_backward_zero_upstream():
    rng = Rng(12)
    pair = KroneckerPair(rng.normal(3, 2), rng.normal(2, 2))
    x = rng.normal(2, 4)
    ga, gb, gx = kron_backward(pair, x, np.zeros((2, 6)))
    assert np.all(ga == 0) and np.all(gb == 0) and np.all(gx == 0)


def test_kron_backward_random_shapes_vs_materialized():
    rng = Rng(13)
    a, b = rng.normal(3, 2), rng.normal(2, 2)
    x = rng.normal(5, 4)
    up = rng.normal(5, 6)
    ga, gb, gx = kron_backward(KroneckerPair(a, b), x, up)
    oa, ob, ox = materialized_path_grads(a, b, x, up)
    for got, want in ((ga, oa), (gb, ob), (gx, ox)):
        denom = max(np.max(np.abs(want)), 1e-30)
        assert np.max(np.abs(got - want)) / denom < 1e-9


TABLE_SHAPES_SCALED = [(6, 12, 2, 1), (24, 12, 2, 1), (12, 24, 1, 2)]


@pytest.mark.parametrize("m1,n1,m2,n2", TABLE_SHAPES_SCALED)
def test_factored_grads_match_materialized_on_table_shapes(m1, n1, m2, n2):
    rng = Rng(14)
    a, b = rng.normal(m1, n1), rng.normal(m2, n2)
    x = rng.normal(3, n1 * n2)
    up = rng.normal(3, m1 * m2)
    got = kron_backward(KroneckerPair(a, b), x, up)
    want = materialized_path_grads(a, b, x, up)
    for g, w in zip(got, want):
        denom = max(np.max(np.abs(w)), 1e-30)
        assert np.max(np.abs(g - w)) / denom < 1e-9


def test_gradients_deterministic_across_runs():
    def run():
        rng = Rng(55)
        a, b = rng.normal(4, 3), rng.normal(3, 5)
        tape = Tape()
        an, bn = tape.leaf(a, "a"), tape.leaf(b, "b")
        loss = tape.mse(tape.matmul(an, bn), np.zeros((4, 5)))
        return backward(tape, loss)

    g1, g2 = run(), run()
    assert np.array_equal(g1["a"], g2["a"])
    assert np.array_equal(g1["b"], g2["b"])


# ---- the tape holds only the backward graph, and backward frees it --------------


def linear_gelu_mse(tape, make):
    """linear -> gelu -> mse over x (4, 3) and w (5, 3), each entering through
    ``make`` (``tape.leaf`` or ``tape.constant``); returns (loss, interior nodes)."""
    rng = Rng(60)
    x, w = make(rng.normal(4, 3), "x"), make(rng.normal(5, 3), "w")
    lin = tape.linear(x, w)
    act = tape.gelu(lin)
    return tape.mse(act, rng.normal(4, 5)), (lin, act)


def test_a_graph_of_constants_is_not_recorded():
    tape = Tape()
    loss, interior = linear_gelu_mse(tape, tape.constant)
    assert tape.nodes == []
    for node in (loss, *interior):
        assert node._parents == () and node._vjp is None and node.idx == -1


def test_backward_frees_interior_nodes_and_leaves_keep_their_grads():
    tape = Tape()
    loss, (lin, act) = linear_gelu_mse(tape, tape.leaf)
    x, w = tape.nodes[:2]
    # the reference walk: the same vjps, called by hand in reverse order
    (g_act,) = loss._vjp(1.0)
    (g_lin,) = act._vjp(g_act)
    want_x, want_w = lin._vjp(g_lin)
    store = backward(tape, loss)
    assert np.array_equal(store["x"], want_x) and np.array_equal(store["w"], want_w)
    assert store["x"] is x.grad and store["w"] is w.grad
    for node in (loss, act, lin):
        assert node.grad is None and node._vjp is None and node._parents


def test_a_second_backward_over_the_same_tape_is_refused():
    tape = Tape()
    loss, _ = linear_gelu_mse(tape, tape.leaf)
    first = {name: g.copy() for name, g in backward(tape, loss).items()}
    with pytest.raises(KronlmError, match=r"^backward: Node\(idx=4, shape=\(\), name=None\) "
                                          r"was freed by an earlier backward"):
        backward(tape, loss)
    assert all(np.array_equal(leaf.grad, first[leaf.name]) for leaf in tape.nodes[:2])
