"""Dense numeric foundation: matrices as 2-D float64 numpy arrays plus the
elementwise and softmax kernels the model is built from.

Conventions, fixed once for the whole package:
  * matrices are row-major (numpy C order) float64 arrays
  * vec() of a matrix means row-major flattening (``.reshape(-1)``)
  * all kernels are pure functions of their inputs
"""

from __future__ import annotations

import numpy as np

# tanh-approximation GELU constants (pinned for reproducibility)
GELU_SQRT_2_OVER_PI = 0.7978845608028654  # sqrt(2/pi)
GELU_CUBIC_COEFF = 0.044715


class Rng:
    """Deterministic seeded random source.

    Thin wrapper over numpy's PCG64 so that one seed gives one draw sequence
    on every platform and every run.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, *shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(shape, dtype=np.float64) * scale

    def uniform(self, *shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row softmax with max-subtraction; rows of the result sum to 1."""
    z = m - m.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis restricted to ``mask`` (True = keep).

    Masked entries are exactly zero in the output. Every row must keep at
    least one entry. Works on (T, T) or stacked (h, T, T) scores with a
    (T, T) mask broadcast over heads.
    """
    neg = np.where(mask, scores, -np.inf)
    z = neg - neg.max(axis=-1, keepdims=True)
    e = np.exp(z)  # exp(-inf) underflows to an exact 0 at masked entries
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(m: np.ndarray) -> np.ndarray:
    z = m - m.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation:

        0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))
    """
    inner = GELU_SQRT_2_OVER_PI * (x + GELU_CUBIC_COEFF * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_with_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(x), gelu'(x)) sharing one tanh evaluation."""
    x2 = x * x
    inner = GELU_SQRT_2_OVER_PI * (x + GELU_CUBIC_COEFF * (x2 * x))
    t = np.tanh(inner)
    value = 0.5 * x * (1.0 + t)
    d_inner = GELU_SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC_COEFF * x2)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
    return value, grad


def causal_mask(t: int) -> np.ndarray:
    """Boolean (t, t) lower-triangular mask: True where j <= i."""
    return np.tril(np.ones((t, t), dtype=bool))
