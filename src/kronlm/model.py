"""Decoder-only tiny GPT whose linear and embedding sublayers are either
dense or Kronecker-factored, with forward passes that capture the per-layer
trace (embedding output, attention distributions, hidden states, logits)
needed for intermediate-layer distillation.

A (B, T) batch of token windows is one graph: activations are (B*T, d) with
each sequence's rows contiguous, and attention is (B*h, T, T). A 1-D
sequence is a batch of one. Compressed and uncompressed variants of the
same config produce identically-shaped traces, so teacher/student
differences can be taken directly without projections. ``forward_tape``
returns the trace as tape nodes, ``forward`` as arrays.

``param_layout`` is the one list of the model's parts, and the model sets
each layer under its role: on the model, or on ``blocks[i]``, a namespace,
for block i. The forward reads the named tensor map of
``named_parameters``: a layer whose ``a``/``b`` pair is stored is factored.
Compression is one loop, in ``compress_model``, over a stream of (name,
array) pairs: a model's tensors, or for ``kronlm compress`` a checkpoint's,
read one at a time. The layer objects are read only through ``_arrays`` and
built only by ``_make_layer``.

A trace also keeps each block's attention keys and values. Passed back as
``forward_tape(..., past=trace)``, it makes the forward incremental: the new
tokens take the positions after the cached ones and attend to the cached
keys and values, which enter as constants. That is the evaluation-only
path ``greedy_generate`` decodes on.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .autodiff import Tape
from .errors import KronlmError, PlanningError, ShapeError, TokenIdError, _check_int
from .kronecker import KroneckerPair, nearest_kron
from .layers import (
    SHAPE_FIELDS,
    CompressionSchedule,
    DenseLinear,
    KroneckerEmbedding,
    KroneckerLinear,
    LayerNorm,
    check_blocks,
    decompose_linear,  # unused here: the benchmark tracer patches model.decompose_linear
)
from .tensor_core import Rng

INIT_STD = 0.02


@dataclass(frozen=True)
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
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        for f in fields(self):
            _check_int(f.name, getattr(self, f.name), 0 if f.name in ("n_layers", "seed") else 1)
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass
class ForwardTrace:
    """Per-layer record of one forward pass over B sequences of length T.

    attentions[l] has shape (B*n_heads, T, T) with rows summing to 1 and
    exact zeros above the diagonal; hidden[l] is the block output, after the
    residual add. keys[l] and values[l] are block l's attention keys and
    values, the cache a later ``forward_tape(..., past=trace)`` reads.
    Sequence b owns rows b*T:(b+1)*T of the 2-D arrays and rows
    b*h:(b+1)*h of each attention array.

    After a pass over T new tokens with Tc cached ones, keys and values hold
    all Tk = Tc + T positions, attentions are (B*h, T, Tk) with exact zeros
    where key j > i + Tc, and the other arrays hold the T new positions.
    """

    embedding_out: np.ndarray  # (B*T, d)
    attentions: list = field(default_factory=list)  # N x (B*h, T, Tk)
    hidden: list = field(default_factory=list)  # N x (B*T, d)
    logits: np.ndarray | None = None  # (B*T, v)
    keys: list = field(default_factory=list)  # N x (B*Tk, d)
    values: list = field(default_factory=list)  # N x (B*Tk, d)

    def arrays(self) -> "ForwardTrace":
        """This trace of tape nodes as arrays: each node replaced by its value."""
        return ForwardTrace(
            embedding_out=self.embedding_out.value,
            attentions=[p.value for p in self.attentions],
            hidden=[h.value for h in self.hidden],
            logits=self.logits.value,
            keys=[k.value for k in self.keys],
            values=[v.value for v in self.values],
        )


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


@functools.lru_cache(maxsize=64)
def param_layout(config: GPTConfig) -> tuple:
    """Every parameter-holding layer of a model, in named_parameters order.

    This is the single definition of the tensor naming scheme;
    ``layer_tensors`` spells out the tensors of each layer.
    """
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    block = [
        ("ln1", "norm", (d,)),
        ("wq", "linear", (d, d)), ("wk", "linear", (d, d)),
        ("wv", "linear", (d, d)), ("wo", "linear", (d, d)),
        ("ln2", "norm", (d,)),
        ("c_fc", "linear", (dff, d)), ("c_proj", "linear", (d, dff)),
    ]
    return tuple(
        [LayerSpec(None, "tok_emb", "embedding", (v, d)),
         LayerSpec(None, "pos_emb", "table", (config.max_seq_len, d))]
        + [LayerSpec(i, *entry) for i in range(config.n_layers) for entry in block]
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


def check_tensor_count(config: GPTConfig, n_tensors: int) -> None:
    """Raises ShapeError if ``n_tensors`` tensors are too few for
    ``config``'s blocks; checked before a claimed n_layers sizes a layout."""
    if 16 * config.n_layers > n_tensors:
        raise ShapeError(f"n_layers {config.n_layers}: {n_tensors} tensors cannot hold "
                         "that many blocks, which store at least 16 each")


def _checked_factors(layer: LayerSpec, tensors: dict):
    """stored_factors of a layer, once ``tensors`` is found to hold each of
    its tensors with its shape; raises ShapeError naming the first that it
    does not, or a factor pair whose product is not the layer's shape."""
    factors = stored_factors(layer, tensors)
    expected = layer_tensors(layer, factors)
    if factors is not None and (
        (factors[0] * factors[2], factors[1] * factors[3]) != layer.shape
        or (layer.kind == "embedding" and factors[2] != 1)  # one A row per token
    ):
        (a, a_shape), (b, b_shape) = expected[:2]
        raise ShapeError(f"tensors {a!r} x {b!r}: expected a {layer.kind} product of "
                         f"shape {layer.shape}, found {a_shape} x {b_shape}")
    for name, shape in expected:
        found = tensors[name].shape if name in tensors else "no tensor"
        if found != shape:
            raise ShapeError(f"tensor {name!r}: expected shape {shape}, found {found}")
    return factors


def _reject_extra(pairs) -> None:
    """Raises ShapeError naming the first of the (name, array) ``pairs``
    left over once every layer has taken its tensors."""
    for name, arr in pairs:
        raise ShapeError(f"tensors include an unexpected tensor {name!r} of shape {arr.shape}")


def _token_ids(tokens) -> np.ndarray:
    """``tokens`` as an int64 array. Raises TokenIdError naming the first
    float that is not a whole number in the int64 range, rather than
    truncating it, and for ids that are not numbers at all."""
    tokens = np.asarray(tokens)
    if tokens.dtype.kind not in "biuf":
        raise TokenIdError(f"token ids must be integers, got an array of dtype {tokens.dtype}")
    if tokens.dtype.kind == "f":
        bad = ~(np.abs(tokens) < 2.0**63) | (tokens != np.round(tokens))  # NaN is bad too
        if bad.any():
            raise TokenIdError(f"token id {tokens[bad][0]} is not a whole number in the int64 range")
    return np.asarray(tokens, dtype=np.int64)


def _append_rows(cached: np.ndarray, new: np.ndarray, b: int) -> np.ndarray:
    """Each of b sequences' cached (Tc, d) rows followed by its new (T, d)
    rows, as one (B*(Tc+T), d) array."""
    d = new.shape[1]
    return np.concatenate([cached.reshape(b, -1, d), new.reshape(b, -1, d)], axis=1).reshape(-1, d)


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


class TinyGPTModel:
    def __init__(self, config: GPTConfig, layers: dict):
        """Model over ``{LayerSpec: layer object}`` for param_layout(config):
        each layer is set under its role on the model or on its block."""
        self.config = config
        self.blocks = [SimpleNamespace() for _ in range(config.n_layers)]
        for layer, obj in layers.items():
            setattr(self if layer.block is None else self.blocks[layer.block], layer.role, obj)

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_tensors(cls, config: GPTConfig, tensors: dict) -> "TinyGPTModel":
        """Model over the arrays of ``{name: array}``, taken as they are (no
        copy). Names follow param_layout; a layer held as an (a, b) pair is
        factored.

        Raises ShapeError unless ``tensors`` holds exactly the tensors that
        param_layout names for ``config``, each with its shape, and each
        factor pair's product has its layer's dense shape.
        """
        check_tensor_count(config, len(tensors))
        made, names = {}, set()
        for layer in param_layout(config):
            factors = _checked_factors(layer, tensors)
            expected = [name for name, _ in layer_tensors(layer, factors)]
            names.update(expected)
            made[layer] = _make_layer(layer.kind, [tensors[name] for name in expected],
                                      factors is not None)
        _reject_extra((name, arr) for name, arr in tensors.items() if name not in names)
        return cls(config, made)

    @classmethod
    def init_random(cls, config: GPTConfig) -> "TinyGPTModel":
        """Weights drawn from ``config.seed`` alone, so the seed a checkpoint
        records is the seed that drew it."""
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

    def named_parameters(self) -> list:
        pairs = []
        for layer in param_layout(self.config):
            obj = getattr(self if layer.block is None else self.blocks[layer.block], layer.role)
            arrays = _arrays(obj)
            factored = isinstance(obj, (KroneckerEmbedding, KroneckerLinear))
            names = layer_tensors(layer, arrays[0].shape + arrays[1].shape if factored else None)
            pairs += [(name, arr) for (name, _), arr in zip(names, arrays)]
        return pairs

    def state_hash(self) -> str:
        h = hashlib.sha256()
        for name, arr in self.named_parameters():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr))
        return h.hexdigest()

    # ---- forward -----------------------------------------------------------

    def _check_tokens(self, tokens) -> np.ndarray:
        """``tokens`` as a (B, T) id array; a 1-D sequence is a batch of one."""
        tokens = _token_ids(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.ndim != 2 or tokens.size < 1:
            raise ShapeError(
                f"tokens must be a non-empty 1-D sequence or (B, T) batch, got {tokens.shape}"
            )
        return tokens

    def _cached_length(self, past: ForwardTrace, b: int) -> int:
        """Positions per sequence that ``past`` caches for a batch of ``b``."""
        cfg = self.config
        rows = len(past.keys[0]) if past.keys else 0
        shapes = [a.shape for a in past.keys + past.values]
        if (rows == 0 or rows % b or len(past.keys) != cfg.n_layers
                or shapes != [(rows, cfg.d_model)] * (2 * cfg.n_layers)):
            raise ShapeError(f"past: expected the keys and values of {cfg.n_layers} blocks as "
                             f"(B*T, {cfg.d_model}) arrays, B = {b}, found {shapes}")
        return rows // b

    def forward_tape(self, tape: Tape, tokens, params: dict | None = None,
                     past: ForwardTrace | None = None) -> ForwardTrace:
        """Build the forward graph of a 1-D sequence or a (B, T) batch on
        ``tape``; returns the ForwardTrace of its nodes.

        ``params`` maps parameter names to tape leaves; when omitted the
        current weights enter as constants (evaluation mode).

        ``past``, a trace of an earlier pass over the same B sequences, makes
        the pass incremental: the tokens take the positions after its cached
        ones and attend to its keys and values too. Evaluation only, so it
        cannot be combined with ``params``: no gradient reaches the cache.
        """
        if past is not None and params is not None:
            raise ValueError("past is evaluation-only: no gradient reaches its cached keys "
                             "and values, so it cannot be combined with params")
        tokens = self._check_tokens(tokens)
        b, t = tokens.shape
        cfg = self.config
        start = 0 if past is None else self._cached_length(past, b)
        if start + t > cfg.max_seq_len:
            cached = f" ({start} cached + {t} new)" if start else ""
            raise ShapeError(f"sequence length {start + t}{cached} exceeds "
                             f"max_seq_len {cfg.max_seq_len}")
        if params is None:
            params = {name: tape.constant(arr, name) for name, arr in self.named_parameters()}
        layout = {(layer.block, layer.role): layer for layer in param_layout(cfg)}

        def apply(block, role, x):  # x: the input node, or the ids of an embedding or table
            layer = layout[block, role]
            names = layer_tensors(layer, (0, 0, 0, 0))  # names only
            factored = layer.kind != "norm" and names[0][0] in params
            # the nodes in layer_tensors order, which is the argument order of the Tape op
            args = [params[name] for name, _ in (names if factored else layer_tensors(layer))]
            if layer.kind == "norm":
                return tape.layernorm(x, *args)
            if layer.kind in ("embedding", "table"):
                return (tape.kron_embed if factored else tape.gather_rows)(*args, x)
            return (tape.kron_linear if factored else tape.linear)(x, *args)

        tok = apply(None, "tok_emb", tokens.reshape(-1))
        pos = apply(None, "pos_emb", np.tile(np.arange(start, start + t), b))
        x = tape.add(tok, pos)
        trace = ForwardTrace(embedding_out=x)
        for i in range(cfg.n_layers):
            h0 = apply(i, "ln1", x)
            q, k, v = (apply(i, role, h0) for role in ("wq", "wk", "wv"))
            if past is not None:
                k = tape.constant(_append_rows(past.keys[i], k.value, b))
                v = tape.constant(_append_rows(past.values[i], v.value, b))
            probs = tape.masked_softmax(tape.attn_scores(q, k, cfg.n_heads, t))
            ctx = tape.attn_mix(probs, v, cfg.n_heads)
            x = tape.add(x, apply(i, "wo", ctx))
            ff = apply(i, "c_proj", tape.gelu(apply(i, "c_fc", apply(i, "ln2", x))))
            x = tape.add(x, ff)
            trace.attentions.append(probs)
            trace.hidden.append(x)
            trace.keys.append(k)
            trace.values.append(v)
        trace.logits = apply(None, "lm_head", apply(None, "ln_f", x))
        return trace

    def forward(self, tokens) -> ForwardTrace:
        """Plain forward pass of a 1-D sequence or a (B, T) batch, returning
        the full ILKD trace."""
        return self.forward_tape(Tape(), tokens).arrays()

    def greedy_generate(self, prompt, n_tokens: int) -> np.ndarray:
        """The 1-D ``prompt`` followed by ``n_tokens`` greedy (argmax) tokens.

        The prompt runs through ``forward``; each further token is a one-row
        ``forward_tape`` over the keys and values cached by the passes before.
        Positions are absolute, so once the ids fill ``max_seq_len`` each step
        runs ``forward`` over the last ``max_seq_len`` ids instead.
        """
        _check_int("n_tokens", n_tokens, 0)
        prompt = _token_ids(prompt)
        if prompt.ndim != 1 or prompt.size < 1:
            raise ShapeError(f"prompt must be a non-empty 1-D sequence, got shape {prompt.shape}")
        max_len = self.config.max_seq_len
        ids = np.concatenate([prompt, np.zeros(n_tokens, dtype=np.int64)])
        trace = None
        for end in range(len(prompt), len(ids)):
            # the cache holds min(end - 1, max_len) positions; a model without blocks, none
            if trace is None or end > max_len or not trace.keys:
                trace = self.forward(ids[max(0, end - max_len):end])
            else:
                trace = self.forward_tape(Tape(), ids[end - 1:end], past=trace).arrays()
            ids[end] = np.argmax(trace.logits[-1])
        return ids


# ---- compression -----------------------------------------------------------


def compress_model(
    teacher: TinyGPTModel | tuple, schedule: CompressionSchedule, rng: Rng | None = None
) -> tuple[TinyGPTModel, list]:
    """Kronecker-compress a dense model per the schedule.

    Selected blocks get their q/k/v (optionally wo) and both FFN projections
    replaced by nearest-Kronecker factors, and so does the embedding table:
    each planned weight is stored as the (a, b) pair of one ``nearest_kron``
    solve. Everything else (biases, layer norms, positions, the LM head,
    unselected blocks) is kept verbatim. Returns the student and a list of
    (tensor name, DecompositionReport) in named_parameters order. ``rng`` is
    accepted and ignored: the decomposition is exact and draws nothing
    random.

    ``teacher`` is a TinyGPTModel, whose kept arrays are copied, so that the
    student shares none with it; or the ``(config, tensors)`` of a
    checkpoint read front to back (archive.read_checkpoint), whose (name,
    array) pairs are taken as they come, in any order, and kept as they are.
    A tensor read ahead of its layer is held until the layer comes up, and
    each planned weight is dropped once solved, so the teacher is never held
    whole. Each layer gets the checks of ``from_tensors`` when it comes up,
    and a tensor left once the layout is done is unexpected: each is a
    ShapeError naming the tensor, as is a planned layer that the teacher
    already stores factored. A schedule that does not fit the teacher raises
    as in _planned_factors.
    """
    if isinstance(teacher, TinyGPTModel):
        config, own = teacher.config, dict(teacher.named_parameters())
        source = iter(own.items())
    else:
        (config, tensors), own = teacher, {}
        source = iter(tensors)
    held, student, reports = {}, {}, []

    def read_until(ready) -> None:
        """Hold the pairs of ``source`` until ``ready()`` or its end."""
        while not ready() and (pair := next(source, None)) is not None:
            held[pair[0]] = pair[1]

    def keep(name: str) -> None:
        arr = held.pop(name)
        student[name] = arr.copy() if arr is own.get(name) else arr

    for layer, factors in _planned_factors(config, schedule):
        weight = layer_tensors(layer)[0][0]
        read_until(lambda: weight in held or stored_factors(layer, held) is not None)
        names = [name for name, _ in layer_tensors(layer, stored_factors(layer, held))]
        read_until(lambda: all(name in held for name in names))
        stored = _checked_factors(layer, held)
        if factors is None:
            for name in names:
                keep(name)
            continue
        if stored is not None:
            raise ShapeError(f"{weight}: compress_model expects a dense teacher layer")
        try:
            pair, report = nearest_kron(held.pop(weight), *factors)
        except (KronlmError, np.linalg.LinAlgError) as exc:
            raise type(exc)(f"{weight}: {exc}") from exc
        (a, _), (b, _) = layer_tensors(layer, factors)[:2]
        student[a], student[b] = pair.a, pair.b
        reports.append((weight, report))
        for name in names[1:]:  # the bias, if any
            keep(name)
    _reject_extra(itertools.chain(held.items(), source))
    return TinyGPTModel.from_tensors(config, student), reports


def _planned_factors(config: GPTConfig, schedule: CompressionSchedule | None) -> list:
    """(LayerSpec, factor shapes) for every layer of ``config``'s layout:
    the (m1, n1, m2, n2) ``schedule`` factors it into, or None.

    Raises PlanningError naming a selected block that ``config`` lacks or a
    tensor with no four factor dimensions, and ShapeError naming a tensor
    whose factor shapes do not multiply to its shape.
    """
    layout = param_layout(config)
    if schedule is None:
        return [(layer, None) for layer in layout]
    check_blocks(schedule.layer_indices, config.n_layers)
    planned = []
    for layer in layout:  # in order: c_fc's shapes are checked before c_proj's transpose them
        factors = schedule.factor_shapes(layer)
        if factors is not None:
            name = layer_tensors(layer)[0][0]
            if len(factors) != 4:
                raise PlanningError(f"{name}: the schedule's {SHAPE_FIELDS[layer.role]} is "
                                    f"{factors!r}, not the factor shapes (m1, n1, m2, n2)")
            m1, n1, m2, n2 = factors
            if (m1 * m2, n1 * n2) != layer.shape:
                raise ShapeError(f"{name}: factors ({m1}x{n1}, {m2}x{n2}) multiply to "
                                 f"({m1 * m2}, {n1 * n2}), not its shape {layer.shape}")
        planned.append((layer, factors))
    return planned


def count_config_params(
    config: GPTConfig,
    schedule: CompressionSchedule | None = None,
    exclude_lm_head: bool = False,
) -> int:
    """Parameter count from shape arithmetic alone; no weights allocated. A
    schedule that does not fit ``config`` raises as in _planned_factors."""
    return sum(
        math.prod(shape)
        for layer, factors in _planned_factors(config, schedule)
        if not (exclude_lm_head and layer.kind == "head")
        for _, shape in layer_tensors(layer, factors)
    )
