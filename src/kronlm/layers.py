"""Neural sublayers in dense and Kronecker-factored forms and shape
planning.

Biases and layer-norm parameters are never factored; they are O(d) and
factoring them saves nothing. The factored embedding keeps one row per
vocabulary item in its A factor so lookups stay O(d) per token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlanningError, ShapeError, _check_int
from .kronecker import DecompositionReport, KroneckerPair, nearest_kron


@dataclass
class DenseLinear:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray | None = None  # (out,)

    def __post_init__(self):
        if self.bias is not None and self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias length {self.bias.shape} != weight rows {self.weight.shape[0]}"
            )


@dataclass
class KroneckerLinear:
    factors: KroneckerPair
    bias: np.ndarray | None = None  # (out,), kept dense

    def __post_init__(self):
        if self.bias is not None and self.bias.shape != (self.factors.shape[0],):
            raise ShapeError(
                f"bias length {self.bias.shape} != product rows {self.factors.shape[0]}"
            )


@dataclass
class LayerNorm:
    gain: np.ndarray  # (d,)
    bias: np.ndarray  # (d,)


@dataclass
class KroneckerEmbedding:
    """Factored lookup table: row i of the implied v x d table is
    kron(a_e[i], b_e)."""

    a_e: np.ndarray  # (v, d/f)
    b_e: np.ndarray  # (1, f)

    def __post_init__(self):
        if self.b_e.shape[0] != 1:
            raise ShapeError(f"b_e must be 1 x f, got {self.b_e.shape}")


def decompose_linear(
    layer: DenseLinear, shapes: tuple[int, int, int, int]
) -> tuple[KroneckerLinear, DecompositionReport]:
    """Nearest-Kronecker initialization of a factored layer from a dense one.

    The bias is copied unchanged.
    """
    m1, n1, m2, n2 = shapes
    pair, report = nearest_kron(layer.weight, m1, n1, m2, n2)
    bias = None if layer.bias is None else layer.bias.copy()
    return KroneckerLinear(factors=pair, bias=bias), report


PLANNABLE_FACTORS = (2, 4)  # the target factors B dims of 1 or 2 can express

# the schedule field that holds each linear role's factor shapes
SHAPE_FIELDS = {"wq": "shape_qkv", "wk": "shape_qkv", "wv": "shape_qkv", "wo": "shape_wo",
                "c_fc": "shape_cfc", "c_proj": "shape_cproj"}


def check_blocks(indices, n_layers: int) -> None:
    """Raises PlanningError naming the first block index outside range(n_layers)."""
    for i in indices:
        if not 0 <= i < n_layers:
            raise PlanningError(f"layer index {i} out of range for {n_layers} blocks")


def check_embedding_factor(f: int, d_model: int) -> None:
    """Raises PlanningError unless f is a positive divisor of d_model."""
    if f < 1 or d_model % f:
        raise PlanningError(f"embedding factor {f} is not a positive divisor of d_model {d_model}")


def plan_shapes(m: int, n: int, target_factor: int) -> tuple[int, int, int, int]:
    """Factor shapes (m1, n1, m2, n2) for compressing an m x n matrix.

    Follows the convention that B stays tiny (each dim 1 or 2) and A carries
    the bulk: factor 2 halves m when possible (B = 2x1), otherwise halves n
    (B = 1x2); factor 4 halves both (B = 2x2). The achieved compression
    factor approaches ``target_factor`` as m*n grows.
    """
    if target_factor not in PLANNABLE_FACTORS:
        raise PlanningError(
            f"target factor {target_factor} unsupported: B dims are limited to 1 or 2, "
            f"so only factors {PLANNABLE_FACTORS} are plannable"
        )
    if target_factor == 2:
        if m % 2 == 0:
            return (m // 2, n, 2, 1)
        if n % 2 == 0:
            return (m, n // 2, 1, 2)
        raise PlanningError(f"no divisor split for ({m}, {n}) at factor 2: both dims odd")
    if m % 2 == 0 and n % 2 == 0:
        return (m // 2, n // 2, 2, 2)
    raise PlanningError(f"no divisor split for ({m}, {n}) at factor 4: need both dims even")


@dataclass(frozen=True)
class CompressionSchedule:
    """Which tensors get factored and into what shapes.

    ``layer_indices`` lists the transformer blocks (numbered from 0) whose
    projection matrices are replaced. The default selects blocks 1, 3, ... ,
    i.e. half of the layers. ``include_wo`` also factors the attention output
    projection of a selected block; the feed-forward projections follow the
    convention that c_proj's factor shapes are the transpose of c_fc's.
    """

    layer_indices: tuple[int, ...]
    compress_embedding: bool = True
    embedding_factor: int = 2
    include_wo: bool = True
    shape_qkv: tuple[int, int, int, int] = ()
    shape_cfc: tuple[int, int, int, int] = ()

    def __post_init__(self):
        """Types only, each rejected by name with ValueError; ranges and
        lengths are checked where the schedule meets a config. The schedule
        is frozen, so no later assignment gets round these checks."""
        for name in ("layer_indices", "shape_qkv", "shape_cfc"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise ValueError(f"{name} must be a tuple of ints, got {value!r}")
            for j, i in enumerate(value):
                _check_int(f"{name}[{j}]", i)
        _check_int("embedding_factor", self.embedding_factor)
        for name in ("compress_embedding", "include_wo"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")

    @property
    def shape_wo(self) -> tuple[int, int, int, int]:
        """wo is square like q/k/v and takes their factor shapes."""
        return self.shape_qkv

    @property
    def shape_cproj(self) -> tuple[int, int, int, int]:
        """The transpose of c_fc's factor shapes, per the shape table."""
        m1, n1, m2, n2 = self.shape_cfc
        return (n1, m1, n2, m2)

    @staticmethod
    def for_dims(
        n_layers: int,
        d_model: int,
        d_ff: int,
        factor: int = 2,
        layers: str | tuple[int, ...] = "odd",
        compress_embedding: bool = True,
        embedding_factor: int | None = None,
        include_wo: bool = True,
    ) -> "CompressionSchedule":
        """The schedule for these dimensions. Dimensions, factors and block
        indices must be ints (not bools), else ValueError names the argument;
        ranges and splits are PlanningError's."""
        if embedding_factor is None:
            embedding_factor = factor
        args = {"n_layers": n_layers, "d_model": d_model, "d_ff": d_ff, "factor": factor,
                "embedding_factor": embedding_factor}
        if not isinstance(layers, str):
            args.update((f"layers[{j}]", i) for j, i in enumerate(layers))
        for name, value in args.items():
            _check_int(name, value)
        if isinstance(layers, str):
            if layers == "odd":
                idx = tuple(i for i in range(n_layers) if i % 2 == 1)
            elif layers == "even":
                idx = tuple(i for i in range(n_layers) if i % 2 == 0)
            elif layers == "all":
                idx = tuple(range(n_layers))
            else:
                raise PlanningError(f"unknown layer selector {layers!r}")
        else:
            idx = tuple(sorted(set(layers)))
            check_blocks(idx, n_layers)
        if compress_embedding:
            check_embedding_factor(embedding_factor, d_model)
        return CompressionSchedule(
            layer_indices=idx,
            compress_embedding=compress_embedding,
            embedding_factor=embedding_factor,
            include_wo=include_wo,
            shape_qkv=plan_shapes(d_model, d_model, factor),
            shape_cfc=plan_shapes(d_ff, d_model, factor),
        )

    def factor_shapes(self, layer) -> tuple[int, int, int, int] | None:
        """(m1, n1, m2, n2) the schedule factors a layer into, or None if it
        stays dense; ``layer`` is a ``kronlm.model.LayerSpec``."""
        if layer.kind == "embedding":
            return self.embedding_shapes(*layer.shape) if self.compress_embedding else None
        if layer.kind != "linear" or layer.block not in self.layer_indices:
            return None
        if layer.role == "wo" and not self.include_wo:
            return None
        return getattr(self, SHAPE_FIELDS[layer.role])

    def embedding_shapes(self, vocab: int, d_model: int) -> tuple[int, int, int, int]:
        f = self.embedding_factor
        check_embedding_factor(f, d_model)
        return (vocab, d_model // f, 1, f)
