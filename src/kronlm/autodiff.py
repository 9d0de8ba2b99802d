"""Tape-based reverse-mode autodiff over the op set the model needs.

A ``Tape`` records primitive ops in execution order; ``backward`` replays the
records in exact reverse, accumulating gradients additively across fan-out.
Node values are float64 numpy arrays (losses are Python floats). Kronecker
layers receive gradients for their factors directly, in factored form, at
the same asymptotic cost as the forward pass.

Each nonlinearity is computed once, inside its op. One routine, ``_softmax``,
gives a row softmax and its log from a single exp pass. ``cross_entropy``
calls it; ``masked_softmax`` calls it and keeps both on its node, where
``attn_kl`` reads them. The two losses are fused primitives whose backward
passes reuse these values. ``gelu`` evaluates its tanh once and forms the
derivative in its vjp. Attention is causal and scaled by 1/sqrt(d/h) in one
place: the attention ops work out the scale and the causal mask from their
operands' shapes. Keys may outnumber queries, as in cached decoding: with Tk
keys and Tq queries per sequence, query i sits at key position i + Tk - Tq.

The tape records only the backward graph. A node requires a gradient when
it is a leaf or any of its parents requires one; only such nodes go on the
tape and keep their parents and vjp. A constant, and an op on constants,
keeps only its value: an evaluation forward holds nothing beyond what its
caller keeps, and each intermediate is freed once nothing refers to it.

Every vjp returns a gradient for each of its parents. ``backward`` routes
them and drops the gradient of a parent that is a constant. It frees the
graph as it goes: once a node's vjp has run, the node drops its vjp and its
gradient, so the graph can be walked back only once. A second ``backward``
that reaches a freed node raises ``KronlmError``.
"""

from __future__ import annotations

import numpy as np

from .errors import KronlmError, ShapeError, TokenIdError
from .kronecker import KroneckerPair, _spread, kron_matmul, kron_matmul_grads
from .tensor_core import GELU_CUBIC_COEFF, GELU_SQRT_2_OVER_PI, causal_mask


def _softmax(z: np.ndarray, causal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(p, log p) of the row softmax over the last axis, from one exp pass.

    ``causal`` keeps entry j of row i of (..., Tq, Tk) scores only where
    j <= i + Tk - Tq; beyond it p is exactly 0 and log p is -inf.
    """
    if causal:
        z = np.where(causal_mask(*z.shape[-2:]), z, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)  # exp(-inf) is an exact 0
    total = e.sum(axis=-1, keepdims=True)
    return e / total, z - np.log(total)


def _check_ids(ids: np.ndarray, limit: int, what: str):
    """Raise TokenIdError naming the first id outside [0, limit)."""
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        bad = int(ids[(ids < 0) | (ids >= limit)][0])
        raise TokenIdError(f"{what} id {bad} out of range [0, {limit})")


class Node:
    __slots__ = ("value", "grad", "requires_grad", "name", "idx", "_parents", "_vjp", "log_value")

    def __init__(self, value, requires_grad, name=None):
        self.value = value
        self.log_value = None  # log of value, on the nodes masked_softmax returns
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self.idx = -1
        self._parents = ()
        self._vjp = None

    def __repr__(self):
        shape = np.shape(self.value)
        return f"Node(idx={self.idx}, shape={shape}, name={self.name!r})"


class Tape:
    """Record of the nodes that require a gradient, in creation order, which
    is a topological order. Constants and ops on constants are not recorded
    and keep idx -1."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _register(self, node: Node) -> Node:
        if node.requires_grad:
            node.idx = len(self.nodes)
            self.nodes.append(node)
        return node

    def leaf(self, value, name=None) -> Node:
        return self._register(Node(np.asarray(value, dtype=np.float64), True, name))

    def constant(self, value, name=None) -> Node:
        return self._register(Node(np.asarray(value, dtype=np.float64), False, name))

    def _op(self, value, parents, vjp) -> Node:
        node = Node(value, any(p.requires_grad for p in parents))
        if node.requires_grad:  # an op on constants keeps neither, so its inputs can be freed
            node._parents = tuple(parents)
            node._vjp = vjp
        return self._register(node)

    # ---- arithmetic -----------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        if np.shape(a.value) != np.shape(b.value):
            raise ShapeError(f"add shape mismatch: {np.shape(a.value)} vs {np.shape(b.value)}")
        return self._op(a.value + b.value, (a, b), lambda up: (up, up))

    def add_n(self, nodes: list[Node]) -> Node:
        if not nodes:
            raise ValueError("add_n needs at least one node")
        total = nodes[0].value
        for n in nodes[1:]:
            total = total + n.value
        return self._op(total, tuple(nodes), lambda up: tuple(up for _ in nodes))

    def scale(self, a: Node, c: float) -> Node:
        return self._op(a.value * c, (a,), lambda up: (up * c,))

    def sum(self, a: Node) -> Node:
        shape = np.shape(a.value)
        return self._op(float(np.sum(a.value)), (a,), lambda up: (np.full(shape, up),))

    def affine_combination(self, nodes: list[Node], coeffs: list[float]) -> Node:
        """Scalar node sum_i coeffs[i] * nodes[i] (nodes must be scalars)."""
        value = float(sum(c * float(n.value) for n, c in zip(nodes, coeffs)))
        cs = tuple(float(c) for c in coeffs)
        return self._op(value, tuple(nodes), lambda up: tuple(up * c for c in cs))

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {a.value.shape} x {b.value.shape}")

        return self._op(a.value @ b.value, (a, b), lambda up: (up @ b.value.T, a.value.T @ up))

    # ---- layers ---------------------------------------------------------

    def linear(self, x: Node, w: Node, bias: Node | None = None) -> Node:
        """y = x @ w^T (+ bias per row); w is (out, in)."""
        if x.value.shape[1] != w.value.shape[1]:
            raise ShapeError(f"linear: input cols {x.value.shape} vs weight {w.value.shape}")
        y = x.value @ w.value.T
        if bias is not None:
            y = y + bias.value

        def vjp(up):
            grads = (up @ w.value, up.T @ x.value)
            return grads if bias is None else grads + (up.sum(axis=0),)

        parents = (x, w) if bias is None else (x, w, bias)
        return self._op(y, parents, vjp)

    def kron_linear(self, x: Node, a: Node, b: Node, bias: Node | None = None) -> Node:
        """y = (a (x) b) applied to rows of x, never materialized."""
        pair = KroneckerPair(a.value, b.value)
        y = kron_matmul(pair, x.value)
        if bias is not None:
            y = y + bias.value

        def vjp(up):
            ga, gb, gx = kron_matmul_grads(pair, x.value, up)
            return (gx, ga, gb) if bias is None else (gx, ga, gb, up.sum(axis=0))

        parents = (x, a, b) if bias is None else (x, a, b, bias)
        return self._op(y, parents, vjp)

    def gather_rows(self, table: Node, ids: np.ndarray) -> Node:
        ids = np.asarray(ids)
        _check_ids(ids, table.value.shape[0], "token")

        def vjp(up):
            g = np.zeros_like(table.value)
            np.add.at(g, ids, up)
            return (g,)

        return self._op(table.value[ids], (table,), vjp)

    def kron_embed(self, a_e: Node, b_e: Node, ids: np.ndarray) -> Node:
        """Row t of the output is kron(a_e[ids[t]], b_e) flattened to length d.

        Never builds the v x d table; per-token cost is Theta(d).
        """
        ids = np.asarray(ids)
        v, dpf = a_e.value.shape
        f = b_e.value.shape[1]
        if b_e.value.shape[0] != 1:
            raise ShapeError(f"kron_embed: b_e must be 1 x f, got {b_e.value.shape}")
        _check_ids(ids, v, "token")
        rows = a_e.value[ids]  # (T, d/f)
        y = _spread(rows[:, None, :], b_e.value.T)  # y[t, i*f + k] = rows[t, i] * b_e[0, k]

        def vjp(up):
            u = up.reshape(len(ids), dpf, f)
            ga = np.zeros_like(a_e.value)
            np.add.at(ga, ids, u @ b_e.value[0])
            return ga, np.array([[np.vdot(u[:, :, k], rows) for k in range(f)]])

        return self._op(y, (a_e, b_e), vjp)

    def layernorm(self, x: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
        cols = x.value.shape[-1:]
        if gain.value.shape != cols or bias.value.shape != cols:
            raise ShapeError(
                f"layernorm gain/bias {gain.value.shape}/{bias.value.shape} != cols {cols}"
            )
        mu = x.value.mean(axis=-1, keepdims=True)
        centered = x.value - mu
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv
        y = xhat * gain.value + bias.value

        def vjp(up):
            dxhat = up * gain.value
            gx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            return gx, (up * xhat).sum(axis=0), up.sum(axis=0)

        return self._op(y, (x, gain, bias), vjp)

    def gelu(self, x: Node) -> Node:
        """GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
        xv = x.value
        t = np.tanh(GELU_SQRT_2_OVER_PI * (xv + GELU_CUBIC_COEFF * (xv * xv * xv)))

        def vjp(up):
            d_inner = GELU_SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC_COEFF * (xv * xv))
            return (up * (0.5 * (1.0 + t) + 0.5 * xv * (1.0 - t * t) * d_inner),)

        return self._op(0.5 * xv * (1.0 + t), (x,), vjp)

    # ---- attention ------------------------------------------------------

    def attn_scores(self, q: Node, k: Node, n_heads: int, seq_len: int) -> Node:
        """Per-head dot products scaled by 1/sqrt(d/h): (B*h, Tq, Tk) from q of
        shape (B*Tq, d), Tq = ``seq_len``, and k of shape (B*Tk, d), the rows of
        each sequence contiguous. Tk >= Tq; the last Tq keys share the queries'
        positions."""
        rows, d = q.value.shape
        b = rows // seq_len
        t_k = k.value.shape[0] // max(b, 1)
        if rows % seq_len or k.value.shape != (b * t_k, d) or t_k < seq_len:
            raise ShapeError(f"attn_scores: q {q.value.shape}, k {k.value.shape} are not B "
                             f"sequences of {seq_len} queries and at least {seq_len} keys each")
        dk = d // n_heads
        scale = 1.0 / np.sqrt(dk)
        qh = q.value.reshape(b, seq_len, n_heads, dk).transpose(0, 2, 1, 3)  # (B, h, Tq, dk)
        kh = k.value.reshape(b, t_k, n_heads, dk).transpose(0, 2, 1, 3)  # (B, h, Tk, dk)
        s = (np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale).reshape(b * n_heads, seq_len, t_k)

        def vjp(up):
            up = up.reshape(b, n_heads, seq_len, t_k)
            gq = (np.matmul(up, kh) * scale).transpose(0, 2, 1, 3).reshape(rows, d)
            gk = (np.matmul(up.transpose(0, 1, 3, 2), qh) * scale).transpose(0, 2, 1, 3)
            return gq, gk.reshape(b * t_k, d)

        return self._op(s, (q, k), vjp)

    def masked_softmax(self, scores: Node) -> Node:
        """Causal row softmax of (..., Tq, Tk) scores: entry j of row i is kept
        where j <= i + Tk - Tq, and is exactly zero beyond."""
        p, logp = _softmax(scores.value, causal=True)

        def vjp(up):
            return (p * (up - (up * p).sum(axis=-1, keepdims=True)),)

        node = self._op(p, (scores,), vjp)
        node.log_value = logp  # for attn_kl
        return node

    def attn_mix(self, probs: Node, v: Node, n_heads: int) -> Node:
        """Weighted value mix: (B*h, Tq, Tk) probs x (B*Tk, d) values -> (B*Tq, d)."""
        rows, d = v.value.shape
        t_q, t_k = probs.value.shape[-2:]
        b, dk = rows // t_k, d // n_heads
        ph = probs.value.reshape(b, n_heads, t_q, t_k)
        vh = v.value.reshape(b, t_k, n_heads, dk).transpose(0, 2, 1, 3)  # (B, h, Tk, dk)
        y = np.matmul(ph, vh).transpose(0, 2, 1, 3).reshape(b * t_q, d)

        def vjp(up):
            uh = up.reshape(b, t_q, n_heads, dk).transpose(0, 2, 1, 3)
            gp = np.matmul(uh, vh.transpose(0, 1, 3, 2)).reshape(probs.value.shape)
            gv = np.matmul(ph.transpose(0, 1, 3, 2), uh).transpose(0, 2, 1, 3).reshape(rows, d)
            return gp, gv

        return self._op(y, (probs, v), vjp)

    # ---- losses (scalar-valued, fused for stability) ----------------------

    def mse(self, pred: Node, target: np.ndarray) -> Node:
        target = np.asarray(target, dtype=np.float64)
        if pred.value.shape != target.shape:
            raise ShapeError(f"mse shape mismatch: {pred.value.shape} vs {target.shape}")
        diff = pred.value - target
        value = float(np.mean(diff * diff))
        return self._op(value, (pred,), lambda up: (up * 2.0 * diff / diff.size,))

    def cross_entropy(self, logits: Node, targets: np.ndarray) -> Node:
        """Mean negative log-likelihood of integer targets under row softmax."""
        targets = np.asarray(targets)
        rows, cols = logits.value.shape
        if targets.shape != (rows,):
            raise ShapeError(f"cross_entropy: targets shape {targets.shape} != ({rows},)")
        _check_ids(targets, cols, "target")
        p, logp = _softmax(logits.value)
        value = float(-logp[np.arange(rows), targets].mean())

        def vjp(up):
            g = p.copy()
            g[np.arange(rows), targets] -= 1.0
            return (up * g / rows,)

        return self._op(value, (logits,), vjp)

    def attn_kl(self, probs: Node, teacher_probs: np.ndarray) -> Node:
        """KL(teacher || student) between teacher attention rows and ``probs``,
        the node ``masked_softmax`` returned for (B*h, T, T) student scores.

        The teacher rows are causal softmaxes, exactly zero where j > i, so
        only positions j <= i enter; the result is averaged over all
        (B*h) x T rows. The gradient goes to the scores, not through the softmax.
        """
        if probs.log_value is None:
            raise KronlmError(f"attn_kl: {probs!r} is not a node that masked_softmax returned")
        p = np.asarray(teacher_probs, dtype=np.float64)
        q, logq = probs.value, probs.log_value
        if p.shape != q.shape:
            raise ShapeError(f"attn_kl shape mismatch: {p.shape} vs {q.shape}")
        n_rows = p.shape[0] * p.shape[1]
        with np.errstate(invalid="ignore"):  # 0 * inf at masked entries, dropped by where
            terms = np.where(p > 0, p * (np.log(np.where(p > 0, p, 1.0)) - logq), 0.0)
        value = float(terms.sum() / n_rows)
        return self._op(value, probs._parents, lambda up: (up * (q - p) / n_rows,))


def backward(tape: Tape, loss: Node) -> dict:
    """Gradients of a scalar loss wrt every named leaf on the tape.

    Visits the tape strictly in reverse creation order; fan-out contributions
    accumulate additively. Each interior node drops its vjp and its gradient
    once its vjp has run, so the graph is freed as the walk goes, and a
    second walk over it raises KronlmError. Returns a map name -> gradient;
    the leaves keep their ``.grad``.
    """
    if np.ndim(loss.value) != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {np.shape(loss.value)}")
    loss.grad = 1.0
    for node in reversed(tape.nodes[: loss.idx + 1]):
        if node.grad is None or not node._parents:  # not on the loss's path, or a leaf
            continue
        if node._vjp is None:
            raise KronlmError(f"backward: {node!r} was freed by an earlier backward over "
                              f"this tape; a graph can be walked back only once")
        grads = node._vjp(node.grad)
        node._vjp = node.grad = None
        for parent, g in zip(node._parents, grads):
            if parent.requires_grad:  # a constant's gradient is dropped here
                parent.grad = g if parent.grad is None else parent.grad + g
    store = {}
    for node in tape.nodes:
        if not node._parents and node.name is not None:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
            store[node.name] = node.grad
    return store
