"""Dense numeric foundation: the seeded random source and the causal mask.

Conventions, fixed once for the whole package:
  * matrices are row-major (numpy C order) float64 arrays
  * vec() of a matrix means row-major flattening (``.reshape(-1)``)

The softmax and the GELU are computed inside their ``autodiff.Tape`` ops;
the GELU constants are pinned here.
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

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)


def causal_mask(t_q: int, t_k: int | None = None) -> np.ndarray:
    """Boolean (t_q, t_k) causal mask, t_k defaulting to t_q: True where
    j <= i + t_k - t_q, so query i sits at key position i + t_k - t_q."""
    t_k = t_q if t_k is None else t_k
    return np.tril(np.ones((t_q, t_k), dtype=bool), k=t_k - t_q)
