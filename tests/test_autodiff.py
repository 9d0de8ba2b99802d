import numpy as np
import pytest

from kronlm.autodiff import Tape, backward
from kronlm.errors import ShapeError, TokenIdError
from kronlm.kronecker import KroneckerPair, kron, rearrange
from kronlm.tensor_core import Rng, causal_mask, masked_softmax


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
    mask = causal_mask(t_len)

    def build(tape):
        qn, kn, vn = tape.leaf(q, "p0"), tape.leaf(k, "p1"), tape.leaf(v, "p2")
        scores = tape.attn_scores(qn, kn, h, t_len, 1.0 / np.sqrt(d / h))
        probs = tape.masked_softmax(scores, mask)
        return tape.mse(tape.attn_mix(probs, vn, h), target)

    check_op(build, [q, k, v])


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
    mask = causal_mask(t_len)
    teacher_scores = rng.normal(h, t_len * t_len).reshape(h, t_len, t_len)
    teacher_probs = masked_softmax(teacher_scores, mask)
    scores = rng.normal(h, t_len * t_len).reshape(h, t_len, t_len)
    check_op(
        lambda tape: tape.attn_kl(tape.leaf(scores, "p0"), teacher_probs, mask),
        [scores],
    )


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
    "attn_scores": (lambda tape, q, k: tape.attn_scores(q, k, 2, 5, 0.5),
                    [_R.normal(5, 8), _R.normal(5, 8)]),
    "attn_mix": (lambda tape, probs, v: tape.attn_mix(probs, v, 2),
                 [masked_softmax(_R.normal(2, 5, 5), causal_mask(5)), _R.normal(5, 8)]),
}


@pytest.mark.parametrize("op", sorted(PARENT_GRAD_OPS))
def test_constant_parent_gets_no_grad_and_leaves_keep_theirs(op):
    build, values = PARENT_GRAD_OPS[op]

    def run(constant=None):
        """The parent nodes after backward, parent ``constant`` entering as a constant."""
        tape = Tape()
        nodes = [tape.constant(v) if i == constant else tape.leaf(v, f"p{i}")
                 for i, v in enumerate(values)]
        out = build(tape, *nodes)
        backward(tape, tape.mse(out, np.cos(np.arange(out.value.size)).reshape(out.value.shape)))
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
