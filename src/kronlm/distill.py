"""Intermediate-layer knowledge distillation: the four loss components,
their weighted combination, the Adam optimizer, and the pre-train /
fine-tune loops at desk scale.

The total objective is

    alpha1 * L_embedding + alpha2 * L_attention + alpha3 * L_hidden
        + alpha4 * L_cross_entropy

with MSE taken as the mean over all entries, attention KL taken as
KL(teacher || student) over causal-valid positions averaged within each
layer (heads and rows) and summed over layers, and hidden-state MSE summed
over layers. The teacher is frozen throughout.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tape, backward
from .errors import NonFiniteLossError, ShapeError
from .model import ForwardTrace, TinyGPTModel, TraceNodes
from .tensor_core import Rng, causal_mask, log_softmax_rows


@dataclass
class DistillWeights:
    alpha1: float  # embedding MSE
    alpha2: float  # attention KL
    alpha3: float  # hidden-state MSE
    alpha4: float  # cross entropy

    def __post_init__(self):
        a = (self.alpha1, self.alpha2, self.alpha3, self.alpha4)
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

    @classmethod
    def kd_only(cls) -> "DistillWeights":
        return cls(0.5, 0.5, 0.5, 0.0)

    def needs_teacher(self) -> bool:
        return self.alpha1 > 0 or self.alpha2 > 0 or self.alpha3 > 0


@dataclass
class TrainConfig:
    phase: str = "pretrain"
    batch_size: int = 8
    learning_rate: float = 2.5e-4
    epochs: int = 1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seq_len: int = 64
    clip_norm: float = 1.0
    kl_direction: str = "teacher"
    distill_layers: tuple | None = None  # None = trace losses over all blocks

    def __post_init__(self):
        for name in ("batch_size", "epochs", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("learning_rate", "beta1", "beta2", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def finetune_defaults(cls, **overrides) -> "TrainConfig":
        base = dict(phase="finetune", batch_size=16, learning_rate=2e-5)
        base.update(overrides)
        return cls(**base)


@dataclass
class StepMetrics:
    step: int
    L_emb: float
    L_att: float
    L_hid: float
    L_ce: float
    L_total: float
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# ---- component losses on plain traces ---------------------------------------


def _check_same_shape(a, b, what):
    if np.shape(a) != np.shape(b):
        raise ShapeError(f"{what}: trace shapes differ, {np.shape(a)} vs {np.shape(b)}")


def loss_embedding(trace_s: ForwardTrace, trace_t: ForwardTrace) -> float:
    """MSE between student and teacher embedding-layer outputs."""
    _check_same_shape(trace_s.embedding_out, trace_t.embedding_out, "loss_embedding")
    d = trace_s.embedding_out - trace_t.embedding_out
    return float(np.mean(d * d))


def _select_layers(n: int, layers) -> list:
    if layers is None:
        return list(range(n))
    return [i for i in layers if 0 <= i < n]


def loss_hidden(trace_s: ForwardTrace, trace_t: ForwardTrace, layers=None) -> float:
    """Per-layer hidden-state MSE, summed over layers.

    ``layers`` restricts the sum to a subset of block indices (e.g. only the
    compressed ones); the default covers every layer.
    """
    if len(trace_s.hidden) != len(trace_t.hidden):
        raise ShapeError("loss_hidden: different layer counts")
    total = 0.0
    for i in _select_layers(len(trace_s.hidden), layers):
        hs, ht = trace_s.hidden[i], trace_t.hidden[i]
        _check_same_shape(hs, ht, "loss_hidden")
        d = hs - ht
        total += float(np.mean(d * d))
    return total


def kl_rows(p: np.ndarray, q: np.ndarray, mask: np.ndarray) -> float:
    """Mean over rows (and heads) of KL(p_row || q_row) on masked entries."""
    valid = np.broadcast_to(mask, p.shape)
    safe_p = np.where((p > 0) & valid, p, 1.0)
    safe_q = np.where((q > 0) & valid, q, 1.0)
    terms = np.where((p > 0) & valid, p * (np.log(safe_p) - np.log(safe_q)), 0.0)
    n_rows = int(np.prod(p.shape[:-1]))
    return float(terms.sum() / n_rows)


def loss_attention(
    trace_s: ForwardTrace, trace_t: ForwardTrace, direction: str = "teacher", layers=None
) -> float:
    """Attention-distribution KL, averaged within each layer over heads and
    positions (causal-valid entries only), summed over layers.

    ``layers`` optionally restricts the sum to a subset of block indices.
    """
    if len(trace_s.attentions) != len(trace_t.attentions):
        raise ShapeError("loss_attention: different layer counts")
    total = 0.0
    for i in _select_layers(len(trace_s.attentions), layers):
        att_s, att_t = trace_s.attentions[i], trace_t.attentions[i]
        _check_same_shape(att_s, att_t, "loss_attention")
        mask = causal_mask(att_s.shape[-1])
        if direction == "teacher":
            total += kl_rows(att_t, att_s, mask)
        elif direction == "student":
            total += kl_rows(att_s, att_t, mask)
        else:
            raise ValueError(f"unknown KL direction {direction!r}")
    return total


def loss_cross_entropy(logits: np.ndarray, targets) -> float:
    """Mean negative log-likelihood with a stable log-softmax."""
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise ShapeError(f"loss_cross_entropy: targets {targets.shape} vs logits {logits.shape}")
    logp = log_softmax_rows(logits)
    return float(-logp[np.arange(len(targets)), targets].mean())


def loss_total(
    trace_s: ForwardTrace,
    trace_t: ForwardTrace,
    targets,
    w: DistillWeights,
    kl_direction: str = "teacher",
) -> tuple[float, dict]:
    """Weighted combination of the four components on plain traces."""
    comps = {
        "L_emb": loss_embedding(trace_s, trace_t),
        "L_att": loss_attention(trace_s, trace_t, direction=kl_direction),
        "L_hid": loss_hidden(trace_s, trace_t),
        "L_ce": loss_cross_entropy(trace_s.logits, targets),
    }
    total = (
        w.alpha1 * comps["L_emb"]
        + w.alpha2 * comps["L_att"]
        + w.alpha3 * comps["L_hid"]
        + w.alpha4 * comps["L_ce"]
    )
    return float(total), comps


# ---- tape-side loss construction ---------------------------------------------


def build_batch_loss(
    tape: Tape,
    student_nodes: list,
    teacher_traces: list,
    targets: list,
    w: DistillWeights,
    kl_direction: str = "teacher",
    distill_layers=None,
):
    """Batch-averaged weighted loss over per-sequence trace nodes.

    Components with zero weight are skipped entirely (and reported as 0.0);
    skipping the trace losses means the teacher is never consulted in pure-LM
    training. ``distill_layers`` restricts the attention/hidden sums to a
    subset of blocks (default: all). Returns (total_node, component_values).
    """
    n = len(student_nodes)
    comp_nodes, coeffs = [], []
    values = {"L_emb": 0.0, "L_att": 0.0, "L_hid": 0.0, "L_ce": 0.0}

    def batch_mean(nodes):
        return tape.scale(tape.add_n(nodes), 1.0 / n)

    if w.alpha1 > 0:
        node = batch_mean(
            [tape.mse(s.embedding, t.embedding_out) for s, t in zip(student_nodes, teacher_traces)]
        )
        values["L_emb"] = float(node.value)
        comp_nodes.append(node)
        coeffs.append(w.alpha1)
    if w.alpha2 > 0:
        per_seq = []
        for s, t in zip(student_nodes, teacher_traces):
            mask = causal_mask(s.embedding.value.shape[0])
            layer_terms = [
                tape.attn_kl(s.attn_scores[i], t.attentions[i], mask, direction=kl_direction)
                for i in _select_layers(len(s.attn_scores), distill_layers)
            ]
            per_seq.append(tape.add_n(layer_terms))
        node = batch_mean(per_seq)
        values["L_att"] = float(node.value)
        comp_nodes.append(node)
        coeffs.append(w.alpha2)
    if w.alpha3 > 0:
        per_seq = []
        for s, t in zip(student_nodes, teacher_traces):
            per_seq.append(
                tape.add_n(
                    [tape.mse(s.hidden[i], t.hidden[i])
                     for i in _select_layers(len(s.hidden), distill_layers)]
                )
            )
        node = batch_mean(per_seq)
        values["L_hid"] = float(node.value)
        comp_nodes.append(node)
        coeffs.append(w.alpha3)
    if w.alpha4 > 0:
        node = batch_mean(
            [tape.cross_entropy(s.logits, y) for s, y in zip(student_nodes, targets)]
        )
        values["L_ce"] = float(node.value)
        comp_nodes.append(node)
        coeffs.append(w.alpha4)

    total = tape.affine_combination(comp_nodes, coeffs)
    for name, val in values.items():
        if not np.isfinite(val):
            raise NonFiniteLossError(f"non-finite loss component {name}: {val}")
    return total, values


# ---- optimizer ----------------------------------------------------------------


class Adam:
    """Plain Adam with bias correction, updating parameter arrays in place."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = list(params)  # [(name, array)]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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


def train_step(
    student: TinyGPTModel,
    teacher: TinyGPTModel | None,
    batch: np.ndarray,
    w: DistillWeights,
    optimizer: Adam,
    kl_direction: str = "teacher",
    clip_norm: float = 1.0,
    step_index: int = 0,
    distill_layers=None,
) -> StepMetrics:
    """One optimization step on a (B, L) batch of token windows.

    Inputs are batch[:, :-1], next-token targets batch[:, 1:]. Both models
    see the same inputs; only the student's parameters are updated.
    """
    t0 = time.perf_counter()
    if w.needs_teacher() and teacher is None:
        raise ValueError("trace losses require a teacher model")
    tape = Tape()
    params = {name: tape.leaf(arr, name) for name, arr in student.named_parameters()}
    student_nodes, teacher_traces, targets = [], [], []
    for row in batch:
        inputs, target = row[:-1], row[1:]
        student_nodes.append(student.forward_tape(tape, inputs, params))
        teacher_traces.append(teacher.forward(inputs) if w.needs_teacher() else None)
        targets.append(target)
    total, values = build_batch_loss(
        tape, student_nodes, teacher_traces, targets, w, kl_direction, distill_layers
    )
    grads = backward(tape, total)
    clip_global_norm(grads, clip_norm)
    optimizer.step(grads)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepMetrics(
        step=step_index,
        L_emb=values["L_emb"],
        L_att=values["L_att"],
        L_hid=values["L_hid"],
        L_ce=values["L_ce"],
        L_total=float(total.value),
        wall_ms=wall_ms,
    )


def finetune_step(
    student_clf,
    teacher_clf,
    sequences: list,
    labels: np.ndarray,
    w: DistillWeights,
    optimizer: Adam,
    kl_direction: str = "teacher",
    clip_norm: float = 1.0,
    step_index: int = 0,
) -> StepMetrics:
    """Classification fine-tuning step: trace losses plus class cross entropy."""
    t0 = time.perf_counter()
    tape = Tape()
    params = {name: tape.leaf(arr, name) for name, arr in student_clf.named_parameters()}
    student_nodes, teacher_traces, class_targets = [], [], []
    for seq, label in zip(sequences, labels):
        nodes, class_logits = student_clf.forward_tape(tape, seq, params)
        if w.needs_teacher():
            t_trace, _ = teacher_clf.forward(seq)
        else:
            t_trace = None
        # reuse the LM-loss builder with the class logits standing in for
        # next-token logits: one row, one label
        nodes = TraceNodes(
            embedding=nodes.embedding,
            attn_scores=nodes.attn_scores,
            attn_probs=nodes.attn_probs,
            hidden=nodes.hidden,
            logits=class_logits,
            final_hidden=nodes.final_hidden,
        )
        student_nodes.append(nodes)
        teacher_traces.append(t_trace)
        class_targets.append(np.array([label]))
    total, values = build_batch_loss(
        tape, student_nodes, teacher_traces, class_targets, w, kl_direction
    )
    grads = backward(tape, total)
    clip_global_norm(grads, clip_norm)
    optimizer.step(grads)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepMetrics(
        step=step_index,
        L_emb=values["L_emb"],
        L_att=values["L_att"],
        L_hid=values["L_hid"],
        L_ce=values["L_ce"],
        L_total=float(total.value),
        wall_ms=wall_ms,
    )


# ---- phases ------------------------------------------------------------------

PHASE_MODES = ("none", "lm", "kd", "lm+kd")


def weights_for_mode(mode: str, base: DistillWeights | None = None) -> DistillWeights | None:
    """Ablation-grid weights: none / lm / kd / lm+kd."""
    if mode == "none":
        return None
    if base is None:
        base = DistillWeights.pretrain()
    if mode == "lm":
        return DistillWeights.lm_only()
    if mode == "kd":
        return DistillWeights(base.alpha1, base.alpha2, base.alpha3, 0.0)
    if mode == "lm+kd":
        return base
    raise ValueError(f"unknown mode {mode!r}; expected one of {PHASE_MODES}")


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
    log_every: int = 0,
) -> list:
    """Run one training phase of the ablation grid; returns the metrics history.

    mode 'none' performs zero training steps. Fixed config.seed makes the
    whole run deterministic (batch order, updates, metrics values).
    """
    w = weights_for_mode(mode, weights)
    if w is None:
        return []
    if steps_per_epoch is None:
        steps_per_epoch = max(1, len(train_tokens) // (config.batch_size * config.seq_len))
    rng = Rng(config.seed)
    optimizer = Adam(
        student.named_parameters(),
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
    )
    history = []
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        step = 0
        for _ in range(config.epochs):
            for _ in range(steps_per_epoch):
                batch = sample_batch(train_tokens, config.batch_size, config.seq_len, rng)
                metrics = train_step(
                    student, teacher, batch, w, optimizer,
                    kl_direction=config.kl_direction,
                    clip_norm=config.clip_norm,
                    step_index=step,
                    distill_layers=config.distill_layers,
                )
                history.append(metrics)
                if sink:
                    sink.write(metrics.to_json() + "\n")
                if log_every and step % log_every == 0:
                    print(f"[{mode}] step {step}: total {metrics.L_total:.4f}")
                step += 1
    finally:
        if sink:
            sink.close()
    return history


# ---- evaluation -----------------------------------------------------------------


def evaluate_lm(model: TinyGPTModel, tokens: np.ndarray, seq_len: int,
                max_windows: int | None = None) -> float:
    """Mean per-token cross entropy over non-overlapping windows."""
    n_windows = (len(tokens) - 1) // seq_len
    if max_windows is not None:
        n_windows = min(n_windows, max_windows)
    if n_windows < 1:
        raise ShapeError(f"eval stream too short: {len(tokens)} tokens for seq_len {seq_len}")
    total_nll = 0.0
    total_count = 0
    for i in range(n_windows):
        window = tokens[i * seq_len : i * seq_len + seq_len + 1].astype(np.int64)
        trace = model.forward(window[:-1])
        logp = log_softmax_rows(trace.logits)
        total_nll -= float(logp[np.arange(len(window) - 1), window[1:]].sum())
        total_count += len(window) - 1
    return total_nll / total_count


def perplexity(mean_ce: float) -> float:
    return float(np.exp(mean_ce))
