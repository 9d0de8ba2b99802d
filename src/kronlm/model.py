"""Decoder-only tiny GPT whose linear and embedding sublayers are either
dense or Kronecker-factored, with forward passes that capture the per-layer
trace (embedding output, attention distributions, hidden states, logits)
needed for intermediate-layer distillation.

A (B, T) batch of token windows is one graph: activations are (B*T, d) with
each sequence's rows contiguous, and attention is (B*h, T, T). A 1-D
sequence is a batch of one. Compressed and uncompressed variants of the
same config produce identically-shaped traces, so teacher/student
differences can be taken directly without projections.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import Node, Tape
from .errors import KronlmError, ShapeError
from .kronecker import KroneckerPair, nearest_kron
from .layers import (
    CompressionSchedule,
    DenseLinear,
    KroneckerEmbedding,
    KroneckerLinear,
    LayerNorm,
    decompose_linear,
)
from .tensor_core import Rng, causal_mask

INIT_STD = 0.02


@dataclass
class GPTConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 64
    d_ff: int | None = None  # defaults to 4 * d_model
    vocab_size: int = 256
    max_seq_len: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass
class ForwardTrace:
    """Per-layer record of one forward pass over B sequences of length T.

    attentions[l] has shape (B*n_heads, T, T) with rows summing to 1 and
    exact zeros above the diagonal; hidden[l] is the block output, after the
    residual add. Sequence b owns rows b*T:(b+1)*T of the 2-D arrays and rows
    b*h:(b+1)*h of each attention array.
    """

    embedding_out: np.ndarray  # (B*T, d)
    attentions: list = field(default_factory=list)  # N x (B*h, T, T)
    hidden: list = field(default_factory=list)  # N x (B*T, d)
    logits: np.ndarray | None = None  # (B*T, v)


@dataclass
class TraceNodes:
    """Tape handles mirroring ForwardTrace, for loss construction."""

    embedding: Node
    attn_scores: list  # raw per-head scores, for fused softmax+KL
    attn_probs: list
    hidden: list
    logits: Node
    final_hidden: Node = None  # post-final-layernorm features feeding the LM head

    def values(self) -> ForwardTrace:
        return ForwardTrace(
            embedding_out=self.embedding.value,
            attentions=[p.value for p in self.attn_probs],
            hidden=[h.value for h in self.hidden],
            logits=self.logits.value,
        )


@dataclass
class Block:
    ln1: LayerNorm
    wq: DenseLinear | KroneckerLinear
    wk: DenseLinear | KroneckerLinear
    wv: DenseLinear | KroneckerLinear
    wo: DenseLinear | KroneckerLinear
    ln2: LayerNorm
    c_fc: DenseLinear | KroneckerLinear
    c_proj: DenseLinear | KroneckerLinear


# ---- parameter layout ------------------------------------------------------


class LayerSpec(NamedTuple):
    """One parameter-holding layer of the model."""

    block: int | None  # owning transformer block; None for a model-level layer
    role: str  # attribute name on the block or the model
    kind: str  # "embedding", "table", "norm", "linear" or "head"
    shape: tuple  # dense shape: (rows, cols), or (d,) for a norm

    @property
    def prefix(self) -> str:
        return self.role if self.block is None else f"block{self.block}.{self.role}"


def param_layout(config: GPTConfig) -> tuple:
    """Every parameter-holding layer of a model, in named_parameters order.

    This is the single definition of the tensor naming scheme;
    ``layer_tensors`` spells out the tensors of each layer.
    """
    return _layout(config.n_layers, config.d_model, config.d_ff, config.vocab_size,
                   config.max_seq_len)


@functools.lru_cache(maxsize=64)
def _layout(n_layers: int, d: int, dff: int, v: int, max_seq_len: int) -> tuple:
    block = [
        ("ln1", "norm", (d,)),
        ("wq", "linear", (d, d)), ("wk", "linear", (d, d)),
        ("wv", "linear", (d, d)), ("wo", "linear", (d, d)),
        ("ln2", "norm", (d,)),
        ("c_fc", "linear", (dff, d)), ("c_proj", "linear", (d, dff)),
    ]
    return tuple(
        [LayerSpec(None, "tok_emb", "embedding", (v, d)),
         LayerSpec(None, "pos_emb", "table", (max_seq_len, d))]
        + [LayerSpec(i, *entry) for i in range(n_layers) for entry in block]
        + [LayerSpec(None, "ln_f", "norm", (d,)), LayerSpec(None, "lm_head", "head", (v, d))]
    )


@functools.lru_cache(maxsize=4096)  # named_parameters runs on every forward
def layer_tensors(layer: LayerSpec, factors: tuple | None = None) -> tuple:
    """(name, shape) of each tensor of a layer, in checkpoint order.

    The weight is dense, or with ``factors`` (m1, n1, m2, n2) the pair
    ``a`` (m1, n1), ``b`` (m2, n2); it comes first. Linear layers add a dense
    bias and norms hold a gain and a bias.
    """
    p = layer.prefix
    if layer.kind == "norm":
        return ((f"{p}.gain", layer.shape), (f"{p}.bias", layer.shape))
    if factors is None:
        weight = ((f"{p}.weight", layer.shape),)
    else:
        m1, n1, m2, n2 = factors
        weight = ((f"{p}.a", (m1, n1)), (f"{p}.b", (m2, n2)))
    return weight + ((f"{p}.bias", layer.shape[:1]),) if layer.kind == "linear" else weight


def stored_factors(layer: LayerSpec, tensors: dict):
    """(m1, n1, m2, n2) of a layer that ``tensors`` holds as a 2-D (a, b)
    pair, else None."""
    if layer.kind not in ("embedding", "linear"):
        return None
    (a_name, _), (b_name, _) = layer_tensors(layer, (0, 0, 0, 0))[:2]  # names only
    a, b = tensors.get(a_name), tensors.get(b_name)
    if a is None or b is None:
        return None
    return a.shape + b.shape if a.ndim == b.ndim == 2 else None


def _arrays(obj) -> list:
    """The arrays of a layer object, in layer_tensors order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, LayerNorm):
        return [obj.gain, obj.bias]
    if isinstance(obj, KroneckerEmbedding):
        return [obj.a_e, obj.b_e]
    weight = [obj.factors.a, obj.factors.b] if isinstance(obj, KroneckerLinear) else [obj.weight]
    return weight if obj.bias is None else weight + [obj.bias]


def _make_layer(kind: str, arrays: list, factored: bool):
    """The layer object over ``arrays`` (in layer_tensors order); inverse of _arrays."""
    if kind == "norm":
        return LayerNorm(*arrays)
    if kind == "table" or (kind == "embedding" and not factored):
        return arrays[0]
    if kind == "embedding":
        return KroneckerEmbedding(*arrays)
    bias = arrays[-1] if kind == "linear" else None
    if factored:
        return KroneckerLinear(KroneckerPair(arrays[0], arrays[1]), bias)
    return DenseLinear(arrays[0], bias)


def _named(layer: LayerSpec, obj) -> list:
    arrays = _arrays(obj)
    factored = isinstance(obj, (KroneckerEmbedding, KroneckerLinear))
    names = layer_tensors(layer, arrays[0].shape + arrays[1].shape if factored else None)
    return [(name, arr) for (name, _), arr in zip(names, arrays)]


class TinyGPTModel:
    def __init__(self, config: GPTConfig, tok_emb, pos_emb, blocks, ln_f, lm_head):
        self.config = config
        self.tok_emb = tok_emb  # (v, d) ndarray or KroneckerEmbedding
        self.pos_emb = pos_emb  # (max_seq_len, d)
        self.blocks = blocks
        self.ln_f = ln_f
        self.lm_head = lm_head  # DenseLinear, never factored

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_tensors(cls, config: GPTConfig, tensors: dict) -> "TinyGPTModel":
        """Model over the arrays of ``{name: array}``, taken as they are (no
        copy). Names follow param_layout; a layer held as an (a, b) pair is
        factored."""
        made = {}
        for layer in param_layout(config):
            factors = stored_factors(layer, tensors)
            arrays = [tensors.get(name) for name, _ in layer_tensors(layer, factors)]
            made[layer] = _make_layer(layer.kind, arrays, factors is not None)
        blocks = [
            Block(**{layer.role: obj for layer, obj in made.items() if layer.block == i})
            for i in range(config.n_layers)
        ]
        top = {layer.role: obj for layer, obj in made.items() if layer.block is None}
        return cls(config, blocks=blocks, **top)

    @classmethod
    def init_random(cls, config: GPTConfig, rng: Rng | None = None) -> "TinyGPTModel":
        if rng is None:
            rng = Rng(config.seed)
        tensors = {}
        # block weights are drawn before the model-level tables
        for layer in sorted(param_layout(config), key=lambda layer: layer.block is None):
            if layer.kind == "norm":
                arrays = [np.ones(layer.shape), np.zeros(layer.shape)]
            else:
                arrays = [rng.normal(*layer.shape, scale=INIT_STD)]
                if layer.kind == "linear":
                    arrays.append(np.zeros(layer.shape[0]))
            tensors.update(zip((name for name, _ in layer_tensors(layer)), arrays))
        return cls.from_tensors(config, tensors)

    def copy(self) -> "TinyGPTModel":
        tensors = {name: arr.copy() for name, arr in self.named_parameters()}
        return self.from_tensors(self.config, tensors)

    # ---- parameters --------------------------------------------------------

    def layers(self) -> list:
        """(LayerSpec, layer object) for every parameter-holding layer."""
        return [
            (layer, getattr(self if layer.block is None else self.blocks[layer.block], layer.role))
            for layer in param_layout(self.config)
        ]

    def named_parameters(self) -> list:
        return [pair for layer, obj in self.layers() for pair in _named(layer, obj)]

    def state_hash(self) -> str:
        h = hashlib.sha256()
        for name, arr in self.named_parameters():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # ---- forward -----------------------------------------------------------

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """``tokens`` as a (B, T) id array; a 1-D sequence is a batch of one."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.ndim != 2 or tokens.size < 1:
            raise ShapeError(
                f"tokens must be a non-empty 1-D sequence or (B, T) batch, got {tokens.shape}"
            )
        if tokens.shape[1] > self.config.max_seq_len:
            raise ShapeError(
                f"sequence length {tokens.shape[1]} exceeds max_seq_len {self.config.max_seq_len}"
            )
        return tokens

    def forward_tape(self, tape: Tape, tokens, params: dict | None = None) -> TraceNodes:
        """Build the forward graph of a 1-D sequence or a (B, T) batch on
        ``tape``; returns trace handles with the ForwardTrace shapes.

        ``params`` maps parameter names to tape leaves; when omitted the
        current weights enter as constants (evaluation mode).
        """
        tokens = self._check_tokens(tokens)
        b, t = tokens.shape
        cfg = self.config
        if params is None:
            params = {name: tape.constant(arr, name) for name, arr in self.named_parameters()}
        # each layer's nodes in layer_tensors order, which is the argument
        # order of Tape.linear, kron_linear, layernorm, gather_rows and kron_embed
        layer_nodes = {
            (layer.block, layer.role): (obj, [params[name] for name, _ in _named(layer, obj)])
            for layer, obj in self.layers()
        }

        def apply(block, role, x):
            obj, args = layer_nodes[block, role]
            if isinstance(obj, LayerNorm):
                return tape.layernorm(x, *args)
            if isinstance(obj, KroneckerLinear):
                return tape.kron_linear(x, *args)
            return tape.linear(x, *args)

        tok_obj, tok_args = layer_nodes[None, "tok_emb"]
        embed = tape.kron_embed if isinstance(tok_obj, KroneckerEmbedding) else tape.gather_rows
        tok = embed(*tok_args, tokens.reshape(-1))
        pos = tape.gather_rows(*layer_nodes[None, "pos_emb"][1], np.tile(np.arange(t), b))
        x = tape.add(tok, pos)
        embedding_node = x

        mask = causal_mask(t)
        scale = 1.0 / np.sqrt(cfg.d_model / cfg.n_heads)
        scores_nodes, probs_nodes, hidden_nodes = [], [], []
        for i in range(cfg.n_layers):
            h0 = apply(i, "ln1", x)
            q, k, v = (apply(i, role, h0) for role in ("wq", "wk", "wv"))
            scores = tape.attn_scores(q, k, cfg.n_heads, t, scale)
            probs = tape.masked_softmax(scores, mask)
            ctx = tape.attn_mix(probs, v, cfg.n_heads)
            x = tape.add(x, apply(i, "wo", ctx))
            ff = apply(i, "c_proj", tape.gelu(apply(i, "c_fc", apply(i, "ln2", x))))
            x = tape.add(x, ff)
            scores_nodes.append(scores)
            probs_nodes.append(probs)
            hidden_nodes.append(x)

        xf = apply(None, "ln_f", x)
        logits = apply(None, "lm_head", xf)
        return TraceNodes(embedding_node, scores_nodes, probs_nodes, hidden_nodes, logits, xf)

    def forward(self, tokens) -> ForwardTrace:
        """Plain forward pass of a 1-D sequence or a (B, T) batch, returning
        the full ILKD trace."""
        return self.forward_tape(Tape(), tokens).values()

    def greedy_generate(self, prompt, n_tokens: int) -> np.ndarray:
        """Greedy argmax continuation; smoke-test utility only."""
        ids = list(np.asarray(prompt, dtype=np.int64))
        for _ in range(n_tokens):
            window = ids[-self.config.max_seq_len:]
            trace = self.forward(np.array(window))
            ids.append(int(np.argmax(trace.logits[-1])))
        return np.array(ids, dtype=np.int64)


class ClassifierModel:
    """A TinyGPTModel with a last-token classification head: the final
    features at each sequence's last position through a dense projection."""

    def __init__(self, base: TinyGPTModel, head: DenseLinear):
        self.base = base
        self.head = head

    def _head_layer(self) -> LayerSpec:
        return LayerSpec(None, "classifier", "linear", self.head.shape)

    def named_parameters(self) -> list:
        return self.base.named_parameters() + _named(self._head_layer(), self.head)

    def forward_tape(self, tape: Tape, tokens, params: dict | None = None):
        """Trace handles and (B, n_classes) class logits of a 1-D sequence or a
        (B, T) batch; each sequence is pooled at its last position."""
        tokens = self.base._check_tokens(tokens)
        b, t = tokens.shape
        if params is None:
            params = {name: tape.constant(arr, name) for name, arr in self.named_parameters()}
        nodes = self.base.forward_tape(tape, tokens, params)
        pooled = tape.gather_rows(nodes.final_hidden, np.arange(b) * t + t - 1)
        head = [params[name] for name, _ in _named(self._head_layer(), self.head)]
        return nodes, tape.linear(pooled, *head)

    def forward(self, tokens):
        nodes, class_logits = self.forward_tape(Tape(), tokens)
        return nodes.values(), class_logits.value

    state_hash = TinyGPTModel.state_hash


def attach_classifier(model: TinyGPTModel, n_classes: int, rng: Rng | None = None) -> ClassifierModel:
    """Wrap a model with a last-token classifier projection.

    Zero-initialized (uniform class logits) unless an rng is supplied.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    d = model.config.d_model
    weight = np.zeros((n_classes, d)) if rng is None else rng.normal(n_classes, d, scale=INIT_STD)
    return ClassifierModel(model, DenseLinear(weight=weight, bias=np.zeros(n_classes)))


# ---- compression -----------------------------------------------------------


def compress_model(
    teacher: TinyGPTModel, schedule: CompressionSchedule, rng: Rng | None = None
) -> tuple[TinyGPTModel, list]:
    """Kronecker-compress a dense model per the schedule.

    Selected blocks get their q/k/v (optionally wo) and both FFN projections
    replaced by nearest-Kronecker factors; the embedding table becomes a
    KroneckerEmbedding. Everything else (biases, layer norms, positions, the
    LM head, unselected blocks) is copied verbatim; the student shares no
    array with the teacher. Returns the student and a list of (tensor name,
    DecompositionReport) in named_parameters order. ``rng`` is accepted and
    ignored: the decomposition is exact and draws nothing random.
    """
    tensors, reports = {}, []
    for layer, obj in teacher.layers():
        factors = schedule.factor_shapes(layer)
        if factors is None:
            tensors.update((name, arr.copy()) for name, arr in _named(layer, obj))
            continue
        name = layer_tensors(layer)[0][0]
        if not isinstance(obj, np.ndarray if layer.kind == "embedding" else DenseLinear):
            raise ShapeError(f"{name}: compress_model expects a dense teacher layer")
        try:
            if layer.kind == "embedding":
                pair, report = nearest_kron(obj, *factors)
                factored = KroneckerEmbedding(a_e=pair.a, b_e=pair.b)
            else:
                factored, report = decompose_linear(obj, factors)
        except (KronlmError, np.linalg.LinAlgError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        tensors.update(_named(layer, factored))
        reports.append((name, report))
    return TinyGPTModel.from_tensors(teacher.config, tensors), reports


def count_config_params(
    config: GPTConfig,
    schedule: CompressionSchedule | None = None,
    exclude_lm_head: bool = False,
) -> int:
    """Parameter count from shape arithmetic alone; no weights allocated."""
    return sum(
        math.prod(shape)
        for layer in param_layout(config)
        if not (exclude_lm_head and layer.kind == "head")
        for _, shape in layer_tensors(layer, schedule and schedule.factor_shapes(layer))
    )
