"""Intermediate-layer knowledge distillation: the weighted ILKD objective,
the Adam optimizer, the training step and phase loop, and LM evaluation at
desk scale.

The total objective is

    alpha1 * L_embedding + alpha2 * L_attention + alpha3 * L_hidden
        + alpha4 * L_cross_entropy

with MSE taken as the mean over all entries, attention KL taken as
KL(teacher || student) over causal-valid positions averaged within each
layer (heads and rows) and summed over every block, and hidden-state MSE
summed over every block. The teacher is frozen throughout. Each component
is defined once, as a Tape op (``Tape.mse``, ``Tape.attn_kl``,
``Tape.cross_entropy``), and ``build_batch_loss`` combines them; every
training step and every loss value the tests check goes through it. The
attention KL reuses the student forward's softmax instead of taking another.

A training step is one graph per batch: one student ``forward_tape`` and one
teacher ``forward`` over the (B, T) inputs, whose traces are (B*T, d)
activations and (B*h, T, T) attentions, and one loss node per component.
Since every sequence has the same length, each batched mean equals the mean
over sequences of the per-sequence losses. Each step clips the global
gradient norm to ``CLIP_NORM`` and then takes one Adam step.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import Tape, backward
from .errors import NonFiniteLossError, ShapeError, _check_int, _check_real
from .model import ForwardTrace, TinyGPTModel, _token_ids
from .tensor_core import Rng


@dataclass(frozen=True)
class DistillWeights:
    alpha1: float  # embedding MSE
    alpha2: float  # attention KL
    alpha3: float  # hidden-state MSE
    alpha4: float  # cross entropy

    def __post_init__(self):
        for f in fields(self):
            _check_real(f.name, getattr(self, f.name))
        a = (self.alpha1, self.alpha2, self.alpha3, self.alpha4)
        if not all(math.isfinite(x) for x in a):
            raise ValueError(f"loss weights must be finite, got {a}")
        if any(x < 0 for x in a):
            raise ValueError(f"loss weights must be non-negative, got {a}")
        if all(x == 0 for x in a):
            raise ValueError("at least one loss weight must be positive")

    def needs_teacher(self) -> bool:
        return self.alpha1 > 0 or self.alpha2 > 0 or self.alpha3 > 0


@dataclass
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 2.5e-4
    steps: int | None = None  # None: one pass over the training split
    seed: int = 0
    seq_len: int = 64

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("seq_len", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), low)
        if self.steps is not None:
            _check_int("steps", self.steps, 1)
        _check_real("learning_rate", self.learning_rate)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class StepMetrics:
    step: int
    L_emb: float
    L_att: float
    L_hid: float
    L_ce: float
    L_total: float
    grad_norm: float  # global L2 norm of the gradients before clipping
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# ---- the objective --------------------------------------------------------------


def build_batch_loss(
    tape: Tape,
    student_nodes: ForwardTrace,
    teacher_trace: ForwardTrace | None,
    targets: np.ndarray,
    w: DistillWeights,
):
    """Weighted loss of the student's ``forward_tape`` trace of nodes against
    the teacher trace of the same inputs; ``targets`` holds one id per logits row.

    Components with zero weight are skipped entirely (and reported as 0.0);
    skipping the trace losses means the teacher is never consulted in pure-LM
    training. The attention and hidden sums run over every block. Returns
    (total_node, component_values).
    """
    s, t = student_nodes, teacher_trace
    if t is not None and len(t.hidden) != len(s.hidden):
        raise ShapeError(f"build_batch_loss: the teacher trace has {len(t.hidden)} layers, "
                         f"the student has {len(s.hidden)}")
    terms = {}  # component name -> (weight, node)
    if w.alpha1 > 0:
        terms["L_emb"] = w.alpha1, tape.mse(s.embedding_out, t.embedding_out)
    if w.alpha2 > 0:
        terms["L_att"] = w.alpha2, tape.add_n([
            tape.attn_kl(ps, pt) for ps, pt in zip(s.attentions, t.attentions)
        ])
    if w.alpha3 > 0:
        terms["L_hid"] = w.alpha3, tape.add_n([
            tape.mse(hs, ht) for hs, ht in zip(s.hidden, t.hidden)
        ])
    if w.alpha4 > 0:
        terms["L_ce"] = w.alpha4, tape.cross_entropy(s.logits, targets)

    values = {"L_emb": 0.0, "L_att": 0.0, "L_hid": 0.0, "L_ce": 0.0}
    values.update((name, float(node.value)) for name, (_, node) in terms.items())
    total = tape.affine_combination([node for _, node in terms.values()],
                                    [weight for weight, _ in terms.values()])
    for name, val in values.items():
        if not np.isfinite(val):
            raise NonFiniteLossError(f"non-finite loss component {name}: {val}")
    return total, values


# ---- optimizer ----------------------------------------------------------------


CLIP_NORM = 1.0  # every step scales the global gradient norm down to at most this


class Adam:
    """Plain Adam with bias correction, updating parameter arrays in place."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float):
        self.params = list(params)  # [(name, array)]
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in self.params}
        self.v = {name: np.zeros_like(p) for name, p in self.params}

    def step(self, grads: dict):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_global_norm(grads: dict) -> float:
    """Scale all gradients so their joint L2 norm is at most CLIP_NORM;
    returns the norm before clipping.

    Raises NonFiniteLossError, leaving every gradient as it was, when the norm
    is NaN or infinite: no such step may reach the optimizer.
    """
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if not np.isfinite(total):
        raise NonFiniteLossError(f"non-finite gradient norm: {total}")
    if total > CLIP_NORM:
        factor = CLIP_NORM / total
        for g in grads.values():
            g *= factor
    return total


# ---- the training step ----------------------------------------------------------


def train_step(
    student: TinyGPTModel,
    teacher: TinyGPTModel | None,
    batch: np.ndarray,
    w: DistillWeights,
    optimizer: Adam,
    step_index: int = 0,
) -> StepMetrics:
    """One optimization step on a (B, L) batch of token windows.

    Inputs are batch[:, :-1], next-token targets batch[:, 1:]. Both models
    see the same inputs, each as one graph; only the student's parameters
    are updated: backward, clip to CLIP_NORM, then one Adam step.
    """
    t0 = time.perf_counter()
    if w.needs_teacher() and teacher is None:
        raise ValueError("trace losses require a teacher model")
    batch = _token_ids(batch)
    if batch.ndim != 2 or batch.shape[1] < 2:
        raise ShapeError(f"train_step: batch must be (B, L) token windows with L >= 2, "
                         f"got shape {batch.shape}")
    inputs = batch[:, :-1]
    # the teacher first, so its transient arrays are freed before the student's graph exists
    trace = teacher.forward(inputs) if w.needs_teacher() else None
    tape = Tape()
    params = {name: tape.leaf(arr, name) for name, arr in student.named_parameters()}
    nodes = student.forward_tape(tape, inputs, params)
    total, values = build_batch_loss(tape, nodes, trace, batch[:, 1:].reshape(-1), w)
    del trace  # the loss nodes hold what backward needs; free the rest before it runs
    grads = backward(tape, total)
    grad_norm = clip_global_norm(grads)
    optimizer.step(grads)
    return StepMetrics(step=step_index, **values, L_total=float(total.value),
                       grad_norm=grad_norm, wall_ms=(time.perf_counter() - t0) * 1e3)


# ---- phases ------------------------------------------------------------------

# the ablation grid: each arm's loss weights; 'none' trains nothing
ARM_WEIGHTS = {
    "none": None,
    "lm": DistillWeights(0.0, 0.0, 0.0, 1.0),
    "kd": DistillWeights(0.5, 0.5, 0.5, 0.0),
    "lm+kd": DistillWeights(0.5, 0.5, 0.5, 0.1),
}
PHASE_MODES = tuple(ARM_WEIGHTS)


def weights_for_mode(mode: str) -> DistillWeights | None:
    """Loss weights of an ablation-grid arm; None for 'none', which trains nothing."""
    if mode not in ARM_WEIGHTS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {PHASE_MODES}")
    return ARM_WEIGHTS[mode]


def sample_batch(tokens: np.ndarray, batch_size: int, seq_len: int, rng: Rng) -> np.ndarray:
    """Random (batch_size, seq_len + 1) windows from a token stream."""
    if len(tokens) < seq_len + 1:
        raise ShapeError(f"corpus too short: {len(tokens)} tokens < seq_len + 1 = {seq_len + 1}")
    starts = rng.integers(0, len(tokens) - seq_len, size=batch_size)  # high is exclusive
    return np.stack([tokens[s : s + seq_len + 1] for s in starts]).astype(np.int64)


def run_phase(
    student: TinyGPTModel,
    teacher: TinyGPTModel | None,
    train_tokens: np.ndarray,
    config: TrainConfig,
    w: DistillWeights,
    metrics_path=None,
) -> list:
    """Train ``student`` for ``config.steps`` steps under the loss weights
    ``w``; returns the metrics history.

    ``config.steps`` None is one pass over ``train_tokens``: len // (B * T)
    steps, at least one. Fixed config.seed makes the whole run deterministic
    (batch order, updates, metrics values).
    """
    steps = config.steps or max(1, len(train_tokens) // (config.batch_size * config.seq_len))
    rng = Rng(config.seed)
    optimizer = Adam(student.named_parameters(), lr=config.learning_rate)
    history = []
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        for step in range(steps):
            batch = sample_batch(train_tokens, config.batch_size, config.seq_len, rng)
            metrics = train_step(student, teacher, batch, w, optimizer, step_index=step)
            history.append(metrics)
            if sink:
                sink.write(metrics.to_json() + "\n")
    finally:
        if sink:
            sink.close()
    return history


# ---- evaluation -----------------------------------------------------------------


def evaluate_lm(model: TinyGPTModel, tokens: np.ndarray, seq_len: int,
                max_windows: int | None = None) -> float:
    """Mean per-token cross entropy over non-overlapping windows of seq_len
    targets, through ``Tape.cross_entropy`` as in training. An id that is not
    a whole number, or a target outside the vocabulary, raises TokenIdError;
    ids that are not 1-D raise ShapeError; a seq_len or max_windows that is
    not an int of at least 1 raises ValueError."""
    _check_int("seq_len", seq_len, 1)
    if max_windows is not None:
        _check_int("max_windows", max_windows, 1)
    tokens = _token_ids(tokens)
    if tokens.ndim != 1:
        raise ShapeError(f"eval ids must be 1-D, got an array of shape {tokens.shape}")
    n_windows = (len(tokens) - 1) // seq_len
    if max_windows is not None:
        n_windows = min(n_windows, max_windows)
    if n_windows < 1:
        raise ShapeError(f"eval stream too short: {len(tokens)} tokens for seq_len {seq_len}")
    total = 0.0
    for i in range(n_windows):
        window = tokens[i * seq_len : i * seq_len + seq_len + 1]
        tape = Tape()
        logits = model.forward_tape(tape, window[:-1]).logits
        total += float(tape.cross_entropy(logits, window[1:]).value)
    return total / n_windows


def perplexity(mean_ce: float) -> float:
    return float(np.exp(mean_ce))
