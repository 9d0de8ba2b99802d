"""Kronecker algebra: the product itself, the Van Loan-Pitsianis
rearrangement, nearest-Kronecker decomposition by a thin SVD, and factored
matvec/matmul kernels that never materialize the full product.

All vec/reshape conventions are row-major. Under that convention, for
W (m1*m2 x n1*n2) sliced into an m1 x n1 grid of m2 x n2 blocks,

    rearrange(W)[i1*n1 + j1, i2*n2 + j2] = W[i1*m2 + i2, j1*n2 + j2]

is an entry bijection, so Frobenius norms are preserved and

    || W - A (x) B ||_F  ==  || rearrange(W) - vec(A) vec(B)^T ||_F

for every A (m1 x n1), B (m2 x n2). The nearest Kronecker pair is
therefore the rank-1 truncation of the rearranged matrix. For every planned
shape B is tiny (2x1, 1x2, 2x2 or 1xf), so the rearranged matrix has only a
few columns and its thin SVD is exact and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KronlmError, ShapeError


@dataclass
class KroneckerPair:
    """Factors (a, b) standing in for the product a (x) b, never stored."""

    a: np.ndarray  # (m1, n1)
    b: np.ndarray  # (m2, n2)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0] * self.b.shape[0], self.a.shape[1] * self.b.shape[1])

    @property
    def param_count(self) -> int:
        return self.a.size + self.b.size

    def materialize(self) -> np.ndarray:
        return kron(self.a, self.b)


@dataclass
class DecompositionReport:
    residual_fro: float
    relative_residual: float
    singular_value: float
    power_iterations_used: int  # always 0 (the solver is direct); the benchmark tracer reads it


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is a[i, j] * b."""
    m1, n1 = a.shape
    m2, n2 = b.shape
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(m1 * m2, n1 * n2)


def rearrange(w: np.ndarray, m1: int, n1: int, m2: int, n2: int) -> np.ndarray:
    """Van Loan-Pitsianis rearrangement of w into shape (m1*n1, m2*n2).

    Row (i1*n1 + j1) holds the row-major vec of the m2 x n2 block of w at
    block coordinates (i1, j1).
    """
    if w.shape != (m1 * m2, n1 * n2):
        raise ShapeError(
            f"rearrange: w has shape {w.shape}, expected ({m1 * m2}, {n1 * n2}) "
            f"for factors ({m1}x{n1}, {m2}x{n2})"
        )
    return np.ascontiguousarray(
        w.reshape(m1, m2, n1, n2).transpose(0, 2, 1, 3).reshape(m1 * n1, m2 * n2)
    )


def unrearrange(r: np.ndarray, m1: int, n1: int, m2: int, n2: int) -> np.ndarray:
    """Inverse of :func:`rearrange`."""
    if r.shape != (m1 * n1, m2 * n2):
        raise ShapeError(f"unrearrange: r has shape {r.shape}, expected ({m1 * n1}, {m2 * n2})")
    return np.ascontiguousarray(
        r.reshape(m1, n1, m2, n2).transpose(0, 2, 1, 3).reshape(m1 * m2, n1 * n2)
    )


def nearest_kron(
    w: np.ndarray, m1: int, n1: int, m2: int, n2: int
) -> tuple[KroneckerPair, DecompositionReport]:
    """Best Frobenius-norm approximation of w by a single Kronecker product.

    Solves argmin ||w - A (x) B||_F over A (m1 x n1), B (m2 x n2) exactly,
    from a thin SVD of the rearranged w; sigma is split evenly (sqrt(sigma)
    into each factor) so the factors have balanced magnitudes. The sign is
    fixed so the largest-magnitude entry of vec(A) is positive, and the
    residual is read off the remaining singular values.

    Raises KronlmError if w holds a NaN or an infinity.
    """
    r = rearrange(w, m1, n1, m2, n2)
    bad = ~np.isfinite(w)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise KronlmError(
            f"nearest_kron: w holds {int(bad.sum())} non-finite entries (first at {first})"
        )
    u, s, vt = np.linalg.svd(r, full_matrices=False)
    u, v = u[:, 0], vt[0]
    if u[np.argmax(np.abs(u))] < 0:
        u, v = -u, -v
    scale = np.sqrt(s[0])
    residual = float(np.sqrt(np.sum(s[1:] ** 2)))
    w_norm = float(np.sqrt(np.sum(s**2)))
    report = DecompositionReport(
        residual_fro=residual,
        relative_residual=residual / w_norm if w_norm > 0 else 0.0,
        singular_value=float(s[0]),
        power_iterations_used=0,
    )
    return KroneckerPair(a=(scale * u).reshape(m1, n1), b=(scale * v).reshape(m2, n2)), report


def kron_matmul(pair: KroneckerPair, x: np.ndarray) -> np.ndarray:
    """Apply W = a (x) b to each row of x without materializing W.

    Row r of the output equals materialize(pair) @ x[r]. Uses the row-major
    identity (A (x) B) vec(X) = vec(A X B^T) with X = reshape(row, n1 x n2),
    picking whichever multiplication order is cheaper.
    """
    m1, n1 = pair.a.shape
    m2, n2 = pair.b.shape
    if x.ndim != 2 or x.shape[1] != n1 * n2:
        raise ShapeError(
            f"kron_matmul: x has shape {getattr(x, 'shape', None)}, "
            f"expected (rows, {n1 * n2}) for factors ({m1}x{n1}, {m2}x{n2})"
        )
    rows = x.shape[0]
    xt = x.reshape(rows, n1, n2)
    if m1 * n1 * n2 + m1 * n2 * m2 <= n1 * n2 * m2 + m1 * n1 * m2:
        t = np.matmul(pair.a, xt)  # (rows, m1, n2)
        y = np.matmul(t, pair.b.T)  # (rows, m1, m2)
    else:
        t = np.matmul(xt, pair.b.T)  # (rows, n1, m2)
        y = np.matmul(pair.a, t)  # (rows, m1, m2)
    return y.reshape(rows, m1 * m2)


def kron_matvec(pair: KroneckerPair, x: np.ndarray) -> np.ndarray:
    """(a (x) b) @ x for a single vector x of length n1*n2."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"kron_matvec expects a vector, got shape {x.shape}")
    return kron_matmul(pair, x[None, :])[0]


def kron_matmul_grads(
    pair: KroneckerPair, x: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * kron_matmul(pair, x)) wrt (a, b, x).

    Equal to the gradients through the materialized product, but computed in
    factored form at the cost of a few small matmuls per row.
    """
    m1, n1 = pair.a.shape
    m2, n2 = pair.b.shape
    rows = x.shape[0]
    if upstream.shape != (rows, m1 * m2):
        raise ShapeError(
            f"kron_matmul_grads: upstream shape {upstream.shape} != ({rows}, {m1 * m2})"
        )
    g = upstream.reshape(rows, m1, m2)
    xt = x.reshape(rows, n1, n2)
    gb = np.matmul(g, pair.b)  # (rows, m1, n2)
    # sum_r G_r B X_r^T and sum_r G_r^T (A X_r), as single GEMMs
    grad_a = np.tensordot(gb, xt, axes=([0, 2], [0, 2]))
    ax = np.matmul(pair.a, xt)  # (rows, m1, n2)
    grad_b = np.tensordot(g, ax, axes=([0, 1], [0, 1]))
    grad_x = np.matmul(pair.a.T, gb).reshape(rows, n1 * n2)  # A^T G_r B
    return grad_a, grad_b, grad_x


def compression_factor(m: int, n: int, m1: int, n1: int, m2: int, n2: int) -> float:
    """Dense-to-factored parameter ratio m*n / (m1*n1 + m2*n2)."""
    if m != m1 * m2 or n != n1 * n2:
        raise ShapeError(
            f"compression_factor: ({m}, {n}) != ({m1}*{m2}, {n1}*{n2})"
        )
    return (m * n) / (m1 * n1 + m2 * n2)


def dense_matmul_flops(rows: int, m: int, n: int) -> int:
    """Mul+add count for applying a dense (m x n) map to ``rows`` vectors."""
    return 2 * rows * m * n


def kron_matmul_flops(rows: int, m1: int, n1: int, m2: int, n2: int) -> int:
    """Mul+add count for the factored kernel (cheaper multiplication order)."""
    path_a_first = m1 * n1 * n2 + m1 * n2 * m2
    path_b_first = n1 * n2 * m2 + m1 * n1 * m2
    return 2 * rows * min(path_a_first, path_b_first)
