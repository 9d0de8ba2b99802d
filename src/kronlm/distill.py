"""Intermediate-layer knowledge distillation: the weighted ILKD objective,
the Adam optimizer, and the pre-train / fine-tune loops at desk scale.

The total objective is

    alpha1 * L_embedding + alpha2 * L_attention + alpha3 * L_hidden
        + alpha4 * L_cross_entropy

with MSE taken as the mean over all entries, attention KL taken as
KL(teacher || student) over causal-valid positions averaged within each
layer (heads and rows) and summed over every block, and hidden-state MSE
summed over every block. The teacher is frozen throughout. Each component
is defined once, as a Tape op (``Tape.mse``, ``Tape.attn_kl``,
``Tape.cross_entropy``), and ``build_batch_loss`` combines them; every
training step and every loss value the tests check goes through it.

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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import Tape, backward
from .errors import NonFiniteLossError, ShapeError
from .model import ForwardTrace, TinyGPTModel, TraceNodes
from .tensor_core import Rng, causal_mask


@dataclass
class DistillWeights:
    alpha1: float  # embedding MSE
    alpha2: float  # attention KL
    alpha3: float  # hidden-state MSE
    alpha4: float  # cross entropy

    def __post_init__(self):
        a = (self.alpha1, self.alpha2, self.alpha3, self.alpha4)
        if not all(math.isfinite(x) for x in a):
            raise ValueError(f"loss weights must be finite, got {a}")
        if any(x < 0 for x in a):
            raise ValueError(f"loss weights must be non-negative, got {a}")
        if all(x == 0 for x in a):
            raise ValueError("at least one loss weight must be positive")

    @classmethod
    def pretrain(cls) -> "DistillWeights":
        return cls(0.5, 0.5, 0.5, 0.1)

    @classmethod
    def finetune(cls) -> "DistillWeights":
        return cls(0.5, 0.5, 0.5, 0.02)

    @classmethod
    def lm_only(cls) -> "DistillWeights":
        return cls(0.0, 0.0, 0.0, 1.0)

    def needs_teacher(self) -> bool:
        return self.alpha1 > 0 or self.alpha2 > 0 or self.alpha3 > 0


@dataclass
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 2.5e-4
    epochs: int = 1
    seed: int = 0
    seq_len: int = 64

    def __post_init__(self):
        for name in ("batch_size", "epochs", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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
    student_nodes: TraceNodes,
    teacher_trace: ForwardTrace | None,
    targets: np.ndarray,
    w: DistillWeights,
):
    """Weighted loss of one batched student graph against the teacher trace
    of the same inputs; ``targets`` holds one id per logits row.

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
        terms["L_emb"] = w.alpha1, tape.mse(s.embedding, t.embedding_out)
    if w.alpha2 > 0:
        mask = causal_mask(s.attn_scores[0].value.shape[-1])
        terms["L_att"] = w.alpha2, tape.add_n([
            tape.attn_kl(scores, probs, mask)
            for scores, probs in zip(s.attn_scores, t.attentions)
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


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Raises NonFiniteLossError, leaving every gradient as it was, when the norm
    is NaN or infinite: no such step may reach the optimizer.
    """
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if not np.isfinite(total):
        raise NonFiniteLossError(f"non-finite gradient norm: {total}")
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


# ---- training steps -------------------------------------------------------------


def _update(tape: Tape, total, values: dict, optimizer: Adam, step_index: int,
            t0: float) -> StepMetrics:
    """backward -> clip to CLIP_NORM -> Adam on a built loss; the step's metrics."""
    grads = backward(tape, total)
    grad_norm = clip_global_norm(grads, CLIP_NORM)
    optimizer.step(grads)
    return StepMetrics(step=step_index, **values, L_total=float(total.value),
                       grad_norm=grad_norm, wall_ms=(time.perf_counter() - t0) * 1e3)


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
    are updated.
    """
    t0 = time.perf_counter()
    if w.needs_teacher() and teacher is None:
        raise ValueError("trace losses require a teacher model")
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] < 2:
        raise ShapeError(f"train_step: batch must be (B, L) token windows with L >= 2, "
                         f"got shape {batch.shape}")
    inputs = batch[:, :-1]
    tape = Tape()
    params = {name: tape.leaf(arr, name) for name, arr in student.named_parameters()}
    nodes = student.forward_tape(tape, inputs, params)
    trace = teacher.forward(inputs) if w.needs_teacher() else None
    total, values = build_batch_loss(tape, nodes, trace, batch[:, 1:].reshape(-1), w)
    return _update(tape, total, values, optimizer, step_index, t0)


def finetune_step(
    student_clf,
    teacher_clf,
    sequences,
    labels: np.ndarray,
    w: DistillWeights,
    optimizer: Adam,
    step_index: int = 0,
) -> StepMetrics:
    """Classification fine-tuning step on equal-length sequences, one label
    each: trace losses plus class cross entropy, with the class logits
    standing in for the next-token logits."""
    t0 = time.perf_counter()
    try:
        tokens = np.asarray(sequences, dtype=np.int64)
    except ValueError:
        raise ShapeError(f"finetune_step: sequences must share one length, got lengths "
                         f"{sorted({len(seq) for seq in sequences})}") from None
    labels = np.asarray(labels)
    if tokens.ndim != 2 or labels.shape != tokens.shape[:1]:
        raise ShapeError(f"finetune_step: sequences of shape {tokens.shape} need one label "
                         f"each, got labels of shape {labels.shape}")
    tape = Tape()
    params = {name: tape.leaf(arr, name) for name, arr in student_clf.named_parameters()}
    nodes, class_logits = student_clf.forward_tape(tape, tokens, params)
    trace = teacher_clf.forward(tokens)[0] if w.needs_teacher() else None
    total, values = build_batch_loss(tape, replace(nodes, logits=class_logits), trace, labels, w)
    return _update(tape, total, values, optimizer, step_index, t0)


# ---- phases ------------------------------------------------------------------

PHASE_MODES = ("none", "lm", "kd", "lm+kd")


def weights_for_mode(mode: str, weights: DistillWeights | None = None) -> DistillWeights | None:
    """Loss weights of an ablation-grid arm: none / lm / kd / lm+kd.

    Mode 'none' trains nothing (None). For every other mode explicit
    ``weights`` win entirely; without them the mode picks its defaults.
    """
    if mode not in PHASE_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {PHASE_MODES}")
    if mode == "none":
        return None
    if weights is not None:
        return weights
    if mode == "lm":
        return DistillWeights.lm_only()
    pretrain = DistillWeights.pretrain()
    if mode == "kd":
        return replace(pretrain, alpha4=0.0)
    return pretrain


def sample_batch(tokens: np.ndarray, batch_size: int, seq_len: int, rng: Rng) -> np.ndarray:
    """Random (batch_size, seq_len + 1) windows from a token stream."""
    if len(tokens) < seq_len + 1:
        raise ShapeError(f"corpus too short: {len(tokens)} tokens < seq_len + 1 = {seq_len + 1}")
    starts = rng.integers(0, len(tokens) - seq_len, size=batch_size)  # high is exclusive
    return np.stack([tokens[s : s + seq_len + 1] for s in starts]).astype(np.int64)


def run_phase(
    mode: str,
    student: TinyGPTModel,
    teacher: TinyGPTModel | None,
    train_tokens: np.ndarray,
    config: TrainConfig,
    weights: DistillWeights | None = None,
    metrics_path=None,
    steps_per_epoch: int | None = None,
) -> list:
    """Run one training phase of the ablation grid; returns the metrics history.

    mode 'none' performs zero training steps; for the other modes explicit
    ``weights`` replace the mode's defaults (see weights_for_mode). Fixed
    config.seed makes the whole run deterministic (batch order, updates,
    metrics values).
    """
    w = weights_for_mode(mode, weights)
    if w is None:
        return []
    if steps_per_epoch is None:
        steps_per_epoch = max(1, len(train_tokens) // (config.batch_size * config.seq_len))
    rng = Rng(config.seed)
    optimizer = Adam(student.named_parameters(), lr=config.learning_rate)
    history = []
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        step = 0
        for _ in range(config.epochs):
            for _ in range(steps_per_epoch):
                batch = sample_batch(train_tokens, config.batch_size, config.seq_len, rng)
                metrics = train_step(student, teacher, batch, w, optimizer, step_index=step)
                history.append(metrics)
                if sink:
                    sink.write(metrics.to_json() + "\n")
                step += 1
    finally:
        if sink:
            sink.close()
    return history


# ---- evaluation -----------------------------------------------------------------


def evaluate_lm(model: TinyGPTModel, tokens: np.ndarray, seq_len: int,
                max_windows: int | None = None) -> float:
    """Mean per-token cross entropy over non-overlapping windows of seq_len
    targets: the mean over windows of ``Tape.cross_entropy``, the loss that
    training takes. A target id outside the vocabulary raises TokenIdError."""
    n_windows = (len(tokens) - 1) // seq_len
    if max_windows is not None:
        n_windows = min(n_windows, max_windows)
    if n_windows < 1:
        raise ShapeError(f"eval stream too short: {len(tokens)} tokens for seq_len {seq_len}")
    total = 0.0
    for i in range(n_windows):
        window = tokens[i * seq_len : i * seq_len + seq_len + 1].astype(np.int64)
        tape = Tape()
        logits = model.forward_tape(tape, window[:-1]).logits
        total += float(tape.cross_entropy(logits, window[1:]).value)
    return total / n_windows


def perplexity(mean_ce: float) -> float:
    return float(np.exp(mean_ce))
