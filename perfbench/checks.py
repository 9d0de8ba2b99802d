"""Output checks. Each returns True when the program's output is correct;
a False counts as a failed operation in the benchmark result."""

from __future__ import annotations

import json
import math

import numpy as np

from kronlm import archive, distill
from kronlm.kronecker import KroneckerPair
from kronlm.layers import DenseLinear, KroneckerEmbedding, KroneckerLinear

CE_TOL = 1e-9  # factored vs materialized eval cross entropy, absolute
RESIDUAL_RTOL = 1e-6  # reported vs SVD relative residual


def losses_finite(metrics) -> bool:
    """Every loss component of one train_step is finite."""
    return all(math.isfinite(v) for v in (metrics.L_emb, metrics.L_att, metrics.L_hid,
                                          metrics.L_ce, metrics.L_total))


def hashes_agree(hashes: list) -> bool:
    """Repeats of the same seeded work left bit-identical parameters."""
    return len(hashes) >= 2 and len(set(hashes)) == 1


def materialized(model):
    """Dense copy of a compressed model, each factor pair replaced by its
    explicit Kronecker product."""
    dense = model.copy()
    if isinstance(dense.tok_emb, KroneckerEmbedding):
        dense.tok_emb = KroneckerPair(dense.tok_emb.a_e, dense.tok_emb.b_e).materialize()
    for block in dense.blocks:
        for role in ("wq", "wk", "wv", "wo", "c_fc", "c_proj"):
            layer = getattr(block, role)
            if isinstance(layer, KroneckerLinear):
                setattr(block, role, DenseLinear(layer.factors.materialize(), layer.bias))
    return dense


def ce_matches_materialized(model, tokens, seq_len: int, windows: int) -> bool:
    """Eval cross entropy through the factored kernels equals the one through
    the materialized dense weights, to CE_TOL."""
    ce = distill.evaluate_lm(model, tokens, seq_len, max_windows=windows)
    ce_dense = distill.evaluate_lm(materialized(model), tokens, seq_len, max_windows=windows)
    return math.isfinite(ce) and abs(ce - ce_dense) <= CE_TOL


def greedy_matches_forward(model, prompt, generated) -> bool:
    """Each generated token is the argmax the model gives at its position in
    one teacher-forced forward over the whole generated window."""
    generated = np.asarray(generated)
    n_prompt = len(prompt)
    if len(generated) <= n_prompt or not np.array_equal(generated[:n_prompt], prompt):
        return False
    logits = model.forward(generated[:-1]).logits
    return bool(np.array_equal(np.argmax(logits[n_prompt - 1:], axis=1), generated[n_prompt:]))


def residuals_match(report_path, reference: dict) -> bool:
    """Every factored tensor in a ``compress --report`` file carries the
    relative residual of the SVD reference, and no planned tensor is missing."""
    with open(report_path) as fh:
        report = json.load(fh)
    got = {e["name"]: e["relative_residual"] for e in report["tensors"] if e["factor_shapes"]}
    if set(got) != set(reference):
        return False
    return all(abs(got[n] - ref) <= RESIDUAL_RTOL * ref for n, ref in reference.items())


def reloaded_hash_matches(path, expected: str) -> bool:
    """The checkpoint on disk loads back to the expected parameters."""
    try:
        model = archive.load_model(path)
    except (archive.ArchiveError, OSError):
        return False
    return model.state_hash() == expected
