"""Kronecker-factored transformer compression with intermediate-layer
knowledge distillation, at desk scale.

Importing the package sets two glibc malloc thresholds for the whole process
(see ``_steady_malloc``); elsewhere that is a no-op.
"""

import ctypes


def _steady_malloc() -> tuple:
    """Keep freed heap memory in the process; returns what mallopt returned.

    By default glibc serves large blocks by mmap and hands freed memory back
    to the kernel, so every training step page-faults its temporaries in
    afresh: about 16,000 minor faults per study-shape ``lm+kd`` step. With
    M_MMAP_THRESHOLD (-3) at 32 MiB, glibc's 64-bit maximum, and
    M_TRIM_THRESHOLD (-1) at 1 GiB the step takes none. Either setting alone
    faults more than neither, so the trim threshold is set only once the mmap
    threshold was accepted. Without glibc's ``mallopt`` nothing is set.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except TypeError:  # Windows: CDLL(None) has no process symbol table to open
        mallopt = None
    if mallopt is None:
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    results = (mallopt(-3, 32 << 20),)
    if results[0] == 1:
        results += (mallopt(-1, 1 << 30),)
    return results


MALLOPT_RESULTS = _steady_malloc()  # (1, 1) when both thresholds are set

from .distill import DistillWeights, TrainConfig, evaluate_lm, perplexity, run_phase
from .kronecker import (
    KroneckerPair,
    compression_factor,
    kron,
    kron_matmul,
    nearest_kron,
    rearrange,
)
from .layers import CompressionSchedule, DenseLinear, KroneckerEmbedding, KroneckerLinear
from .model import GPTConfig, TinyGPTModel, compress_model, count_config_params
from .tensor_core import Rng

__all__ = [
    "CompressionSchedule",
    "DenseLinear",
    "DistillWeights",
    "GPTConfig",
    "KroneckerEmbedding",
    "KroneckerLinear",
    "KroneckerPair",
    "Rng",
    "TinyGPTModel",
    "TrainConfig",
    "compress_model",
    "compression_factor",
    "count_config_params",
    "evaluate_lm",
    "kron",
    "kron_matmul",
    "nearest_kron",
    "perplexity",
    "rearrange",
    "run_phase",
]
