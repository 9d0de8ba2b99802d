"""Tape-based reverse-mode autodiff over the op set the model needs.

A ``Tape`` records primitive ops in execution order; ``backward`` replays the
records in exact reverse, accumulating gradients additively across fan-out.
Node values are float64 numpy arrays (losses are Python floats). Kronecker
layers receive gradients for their factors directly, in factored form, at
the same asymptotic cost as the forward pass.

Softmax+cross-entropy and softmax+KL are fused primitives so their backward
passes stay numerically stable.

Every vjp returns a gradient for each of its parents. ``backward`` routes
them: it runs the vjp of a node only when the node requires a gradient, and
it drops the gradient of a parent that does not (a constant).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, TokenIdError
from .kronecker import KroneckerPair, kron_matmul, kron_matmul_grads
from .tensor_core import gelu, gelu_with_grad, log_softmax_rows, masked_softmax, softmax_rows

# GradStore: map from leaf parameter name -> gradient array of identical shape
GradStore = dict


def _check_ids(ids: np.ndarray, limit: int, what: str):
    """Raise TokenIdError naming the first id outside [0, limit)."""
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        bad = int(ids[(ids < 0) | (ids >= limit)][0])
        raise TokenIdError(f"{what} id {bad} out of range [0, {limit})")


class Node:
    __slots__ = ("value", "grad", "requires_grad", "name", "idx", "_parents", "_vjp")

    def __init__(self, value, requires_grad, name=None):
        self.value = value
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
    """Append-only op record; topological order is append order."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _register(self, node: Node) -> Node:
        node.idx = len(self.nodes)
        self.nodes.append(node)
        return node

    def leaf(self, value, name=None) -> Node:
        return self._register(Node(np.asarray(value, dtype=np.float64), True, name))

    def constant(self, value, name=None) -> Node:
        return self._register(Node(np.asarray(value, dtype=np.float64), False, name))

    def _op(self, value, parents, vjp) -> Node:
        node = Node(value, any(p.requires_grad for p in parents))
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
        b_row = b_e.value[0]
        y = (rows[:, :, None] * b_row[None, None, :]).reshape(len(ids), dpf * f)

        def vjp(up):
            u = up.reshape(len(ids), dpf, f)
            ga = np.zeros_like(a_e.value)
            np.add.at(ga, ids, u @ b_row)
            return ga, np.einsum("tjk,tj->k", u, rows)[None, :]

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
        if not x.requires_grad:  # evaluation path skips the derivative
            return self._op(gelu(x.value), (x,), lambda up: (None,))
        value, grad = gelu_with_grad(x.value)
        return self._op(value, (x,), lambda up: (up * grad,))

    # ---- attention ------------------------------------------------------

    def attn_scores(self, q: Node, k: Node, n_heads: int, seq_len: int, scale: float) -> Node:
        """Per-head scaled dot products: (B*h, T, T) from q, k of shape (B*T, d),
        the rows of each sequence contiguous."""
        rows, d = q.value.shape
        if rows % seq_len or k.value.shape != q.value.shape:
            raise ShapeError(f"attn_scores: q {q.value.shape}, k {k.value.shape} "
                             f"are not sequences of length {seq_len}")
        b, dk = rows // seq_len, d // n_heads
        qh = q.value.reshape(b, seq_len, n_heads, dk).transpose(0, 2, 1, 3)  # (B, h, T, dk)
        kh = k.value.reshape(b, seq_len, n_heads, dk).transpose(0, 2, 1, 3)
        s = (np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale).reshape(b * n_heads, seq_len, seq_len)

        def vjp(up):
            up = up.reshape(b, n_heads, seq_len, seq_len)
            gq = (np.matmul(up, kh) * scale).transpose(0, 2, 1, 3).reshape(rows, d)
            gk = (np.matmul(up.transpose(0, 1, 3, 2), qh) * scale).transpose(0, 2, 1, 3)
            return gq, gk.reshape(rows, d)

        return self._op(s, (q, k), vjp)

    def masked_softmax(self, scores: Node, mask: np.ndarray) -> Node:
        p = masked_softmax(scores.value, mask)

        def vjp(up):
            return (p * (up - (up * p).sum(axis=-1, keepdims=True)),)

        return self._op(p, (scores,), vjp)

    def attn_mix(self, probs: Node, v: Node, n_heads: int) -> Node:
        """Weighted value mix: (B*h, T, T) probs x (B*T, d) values -> (B*T, d)."""
        rows, d = v.value.shape
        t = probs.value.shape[-1]
        b, dk = rows // t, d // n_heads
        ph = probs.value.reshape(b, n_heads, t, t)
        vh = v.value.reshape(b, t, n_heads, dk).transpose(0, 2, 1, 3)  # (B, h, T, dk)
        y = np.matmul(ph, vh).transpose(0, 2, 1, 3).reshape(rows, d)

        def vjp(up):
            uh = up.reshape(b, t, n_heads, dk).transpose(0, 2, 1, 3)
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
        logp = log_softmax_rows(logits.value)
        value = float(-logp[np.arange(rows), targets].mean())

        def vjp(up):
            g = softmax_rows(logits.value)
            g[np.arange(rows), targets] -= 1.0
            return (up * g / rows,)

        return self._op(value, (logits,), vjp)

    def attn_kl(self, scores: Node, teacher_probs: np.ndarray, mask: np.ndarray) -> Node:
        """KL(teacher || student) between teacher attention rows and the
        softmax of ``scores``.

        Only causal-valid positions enter; the result is averaged over all
        (B*h) x T rows.
        """
        p = np.asarray(teacher_probs, dtype=np.float64)
        if p.shape != scores.value.shape:
            raise ShapeError(f"attn_kl shape mismatch: {p.shape} vs {scores.value.shape}")
        neg = np.where(mask, scores.value, -np.inf)
        logq = log_softmax_rows(neg)  # -inf at masked entries
        q = np.where(mask, np.exp(logq), 0.0)
        n_rows = p.shape[0] * p.shape[1]
        valid = np.broadcast_to(mask, p.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * (np.log(np.where(p > 0, p, 1.0)) - logq), 0.0)
        value = float(terms.sum() / n_rows)

        def vjp(up):
            return (up * np.where(valid, q - p, 0.0) / n_rows,)

        return self._op(value, (scores,), vjp)


def backward(tape: Tape, loss: Node) -> GradStore:
    """Gradients of a scalar loss wrt every named, grad-requiring leaf.

    Visits the tape strictly in reverse append order; fan-out contributions
    accumulate additively. Returns a map name -> gradient and also leaves
    ``.grad`` set on the visited nodes.
    """
    if np.ndim(loss.value) != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {np.shape(loss.value)}")
    loss.grad = 1.0
    for node in reversed(tape.nodes[: loss.idx + 1]):
        if node.grad is None or node._vjp is None or not node.requires_grad:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if parent.requires_grad:  # a constant's gradient is dropped here
                parent.grad = g if parent.grad is None else parent.grad + g
    store: GradStore = {}
    for node in tape.nodes:
        if node._vjp is None and node.requires_grad and node.name is not None:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
            store[node.name] = node.grad
    return store

