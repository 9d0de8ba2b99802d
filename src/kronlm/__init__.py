"""Kronecker-factored transformer compression with intermediate-layer
knowledge distillation, at desk scale."""

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
