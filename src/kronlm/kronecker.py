"""Kronecker algebra: the Van Loan-Pitsianis rearrangement, exact
nearest-Kronecker decomposition by R-SVD, and factored matmul kernels that
never materialize the full product. The product itself is numpy's
``np.kron``, exported here as ``kron``.

All vec/reshape conventions are row-major. Under that convention, for
W (m1*m2 x n1*n2) sliced into an m1 x n1 grid of m2 x n2 blocks,

    rearrange(W)[i1*n1 + j1, i2*n2 + j2] = W[i1*m2 + i2, j1*n2 + j2]

is an entry bijection, so Frobenius norms are preserved and

    || W - A (x) B ||_F  ==  || rearrange(W) - vec(A) vec(B)^T ||_F

for every A (m1 x n1), B (m2 x n2). The nearest Kronecker pair is
therefore the rank-1 truncation of the rearranged matrix. For every planned
shape B is tiny (2x1, 1x2, 2x2 or 1xf), so the rearranged matrix R has only
k = m2*n2 <= 4 columns but, at GPT-2 width, over a million rows. Its SVD is
taken as R-SVD (Chan 1982; Golub & Van Loan, section 5.4): the triangle T (at
most k x k) of a QR of R, then the SVD of T, which has R's singular values
and right singular vectors; the left vector is R v0 / s0. T comes from a
TSQR (Demmel, Grigori, Hoemmen & Langou 2012): R is cut into slabs of whole
rows of A, each at most SLAB_BYTES, each slab is QR'd on its own, and the
stacked slab triangles are QR'd once more, one slab or many: a second QR of
one triangle returns it unchanged. R is never formed whole: each
slab is rearranged from its rows of W when it is needed, once for T and once
for R v0, and numpy's copies of it stay in cache. This is as exact as a
thin SVD of R, with Householder stability, and no array the size of W is
allocated besides A itself.

The factored kernels use the row-major identity (A (x) B) vec(X) =
vec(A X B^T), X being the n1 x n2 reshape of one input row. They stack all
rows, so every product with A, the bulk factor, is one BLAS GEMM; the tiny B
is applied before or after it, whichever takes fewer multiply-adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KronlmError, ShapeError

SLAB_BYTES = 1 << 18  # one slab of the rearrangement: numpy's QR copies of it stay in L2


@dataclass
class KroneckerPair:
    """Factors (a, b) standing in for the product a (x) b, never stored."""

    a: np.ndarray  # (m1, n1)
    b: np.ndarray  # (m2, n2)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0] * self.b.shape[0], self.a.shape[1] * self.b.shape[1])

    def materialize(self) -> np.ndarray:
        return kron(self.a, self.b)


@dataclass
class DecompositionReport:
    residual_fro: float
    relative_residual: float
    singular_value: float
    sv_ratio: float  # s[1] / s[0], the next term against the kept one; 0.0 if s[0] is 0 or no s[1]
    power_iterations_used: int  # always 0 (the solver is direct); the benchmark tracer reads it


kron = np.kron  # block (i, j) of kron(a, b) is a[i, j] * b


def _check_shape(w: np.ndarray, m1: int, n1: int, m2: int, n2: int) -> None:
    if min(m1, n1, m2, n2) < 1:
        raise ShapeError(f"rearrange: factors ({m1}x{n1}, {m2}x{n2}) need every dimension >= 1")
    if w.shape != (m1 * m2, n1 * n2):
        raise ShapeError(
            f"rearrange: w has shape {w.shape}, expected ({m1 * m2}, {n1 * n2}) "
            f"for factors ({m1}x{n1}, {m2}x{n2})"
        )


def rearrange(w: np.ndarray, m1: int, n1: int, m2: int, n2: int) -> np.ndarray:
    """Van Loan-Pitsianis rearrangement of w into shape (m1*n1, m2*n2).

    Row (i1*n1 + j1) holds the row-major vec of the m2 x n2 block of w at
    block coordinates (i1, j1). The result is in column-major order, the
    layout LAPACK's QR reads: each column is one contiguous run of memory.
    """
    _check_shape(w, m1, n1, m2, n2)
    return np.ascontiguousarray(
        w.reshape(m1, m2, n1, n2).transpose(1, 3, 0, 2).reshape(m2 * n2, m1 * n1)
    ).T


def nearest_kron(
    w: np.ndarray, m1: int, n1: int, m2: int, n2: int
) -> tuple[KroneckerPair, DecompositionReport]:
    """Best Frobenius-norm approximation of w by a single Kronecker product.

    Solves argmin ||w - A (x) B||_F over A (m1 x n1), B (m2 x n2) exactly.
    The rearranged w, R, has k = m2*n2 columns, a handful, so its SVD is
    taken as R-SVD: the triangle T (at most k x k) of a QR of R, then the SVD
    of T, whose singular values and right vectors are R's; the left vector is
    u0 = R v0 / s0. T is a TSQR over slabs of R, each the rearrangement of
    ``step`` whole rows of A (at most SLAB_BYTES): the triangles of the
    slabs' QRs are stacked and QR'd once more, and a second pass over the
    slabs forms R v0. R is never formed whole, nor is R's U, as tall as R.
    sigma is split evenly (sqrt(sigma) into each factor) so the factors have
    balanced magnitudes.
    The sign is fixed so the largest-magnitude entry of vec(A) (the first,
    on a tie) is positive, and the residual is read off the remaining
    singular values of T.

    Raises ShapeError if a factor dimension is below 1 or w is not
    (m1*m2, n1*n2), and KronlmError if w holds a NaN or an infinity.
    """
    _check_shape(w, m1, n1, m2, n2)
    if not np.isfinite(w).all():
        bad = ~np.isfinite(w)
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise KronlmError(
            f"nearest_kron: w holds {int(bad.sum())} non-finite entries (first at {first})"
        )
    step = max(1, SLAB_BYTES // (8 * n1 * m2 * n2))
    bounds = [(i, min(i + step, m1)) for i in range(0, m1, step)]

    def slab(i: int, j: int) -> np.ndarray:
        return rearrange(w[i * m2 : j * m2], j - i, n1, m2, n2)

    tris = [np.linalg.qr(slab(i, j), mode="r") for i, j in bounds]
    t = np.linalg.qr(np.vstack(tris), mode="r")
    _, s, vt = np.linalg.svd(t)
    scale = np.sqrt(s[0])
    # a = sqrt(s0) u0 = R v0 / sqrt(s0), slab by slab; s0 is 0 only if w is
    a = np.empty((m1, n1), dtype=vt.dtype)
    if scale > 0:
        v = vt[0] / scale
        for i, j in bounds:
            np.matmul(slab(i, j), v, out=a[i:j].reshape(-1))
    else:
        a.fill(0.0)
    b = scale * vt[0]
    hi, lo = a.argmax(), a.argmin()
    top, bottom = a.flat[hi], a.flat[lo]
    if bottom < 0 and (-bottom > top or (-bottom == top and lo < hi)):
        a *= -1
        b *= -1
    residual = float(np.sqrt(np.sum(s[1:] ** 2)))
    w_norm = float(np.sqrt(np.sum(s**2)))
    report = DecompositionReport(
        residual_fro=residual,
        relative_residual=residual / w_norm if w_norm > 0 else 0.0,
        singular_value=float(s[0]),
        sv_ratio=float(s[1] / s[0]) if len(s) > 1 and s[0] > 0 else 0.0,
        power_iterations_used=0,
    )
    return KroneckerPair(a=a, b=b.reshape(m2, n2)), report


def _row_macs(m1: int, n1: int, m2: int, n2: int, a_first: bool) -> int:
    """Multiply-adds per row: A X then (A X) B^T, or X B^T then A (X B^T)."""
    return m1 * n2 * (n1 + m2) if a_first else n1 * m2 * (n2 + m1)


def _a_first(m1: int, n1: int, m2: int, n2: int) -> bool:
    """The multiplication order both kernels take: A first unless B first is cheaper."""
    return _row_macs(m1, n1, m2, n2, True) <= _row_macs(m1, n1, m2, n2, False)


def _spread(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[r, i, k] = sum_l z[r, l, i] * b[k, l], flattened to (rows, m * s).

    Each out[:, :, k] is filled by scaled strided writes: a broadcast whose
    innermost axis has b's tiny length would run numpy's loop over 1 or 2
    elements at a time.
    """
    rows, n, m = z.shape
    s = b.shape[0]
    out = np.empty((rows, m, s), dtype=np.result_type(z, b))
    for k in range(s):
        np.multiply(z[:, 0], b[k, 0], out=out[:, :, k])
        for l in range(1, n):
            out[:, :, k] += b[k, l] * z[:, l]
    return out.reshape(rows, m * s)


def _contract(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[r * s + k, i] = sum_l v[r, i, l] * b[k, l], shape (rows * s, p).

    One product with an inner dimension of b's tiny length over contiguous
    rows of v; for s == 1 the reshapes around it are views.
    """
    rows, p, q = v.shape
    s = b.shape[0]
    out = (v.reshape(rows * p, q) @ b.T).reshape(rows, p, s)
    return out.transpose(0, 2, 1).reshape(rows * s, p)


def kron_matmul(pair: KroneckerPair, x: np.ndarray) -> np.ndarray:
    """Apply W = a (x) b to each row of x without materializing W.

    Row r of the output equals materialize(pair) @ x[r]. Uses the row-major
    identity (A (x) B) vec(X) = vec(A X B^T) with X = reshape(row, n1 x n2),
    in whichever multiplication order is cheaper. A, the bulk factor, is one
    BLAS GEMM over all rows, (rows*n2, n1) @ A^T when A goes first and
    (rows*m2, n1) @ A^T when B goes first; the tiny B is applied around it by
    strided writes or a product with an inner dimension of 1 or 2.
    """
    a, b = pair.a, pair.b
    m1, n1 = a.shape
    m2, n2 = b.shape
    if x.ndim != 2 or x.shape[1] != n1 * n2:
        raise ShapeError(
            f"kron_matmul: x has shape {getattr(x, 'shape', None)}, "
            f"expected (rows, {n1 * n2}) for factors ({m1}x{n1}, {m2}x{n2})"
        )
    rows = x.shape[0]
    x3 = x.reshape(rows, n1, n2)
    if _a_first(m1, n1, m2, n2):
        xt = x3.transpose(0, 2, 1).reshape(rows * n2, n1)  # a view for n2 == 1
        return _spread((xt @ a.T).reshape(rows, n2, m1), b)
    yt = _contract(x3, b) @ a.T  # row r*m2 + k is column k of A X_r B^T
    return yt.reshape(rows, m2, m1).transpose(0, 2, 1).reshape(rows, m1 * m2)


def kron_matmul_grads(
    pair: KroneckerPair, x: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * kron_matmul(pair, x)) wrt (a, b, x).

    Equal to the gradients through the materialized product, computed in
    factored form in the forward's multiplication order. With G_r the
    (m1, m2) upstream of row r: grad_a = sum_r G_r B X_r^T,
    grad_b = sum_r G_r^T A X_r and grad_x_r = A^T G_r B. Every product with
    A is one GEMM over all rows, and grad_b is one product whose inner
    dimension runs over all rows.
    """
    a, b = pair.a, pair.b
    m1, n1 = a.shape
    m2, n2 = b.shape
    rows = x.shape[0]
    if upstream.shape != (rows, m1 * m2):
        raise ShapeError(
            f"kron_matmul_grads: upstream shape {upstream.shape} != ({rows}, {m1 * m2})"
        )
    g = upstream.reshape(rows, m1, m2)
    x3 = x.reshape(rows, n1, n2)
    if _a_first(m1, n1, m2, n2):
        xt = x3.transpose(0, 2, 1).reshape(rows * n2, n1)
        gb = _contract(g, b.T)  # row r*n2 + l is column l of G_r B
        # row r*m1 + i is row i of A X_r
        ax = (xt @ a.T).reshape(rows, n2, m1).transpose(0, 2, 1).reshape(rows * m1, n2)
        grad_a = gb.T @ xt
        grad_b = g.reshape(rows * m1, m2).T @ ax
        grad_x = (gb @ a).reshape(rows, n2, n1).transpose(0, 2, 1).reshape(rows, n1 * n2)
        return grad_a, grad_b, grad_x
    gt = g.transpose(0, 2, 1).reshape(rows * m2, m1)  # a view for m2 == 1
    grad_a = gt.T @ _contract(x3, b)
    u = (gt @ a).reshape(rows, m2, n1)  # u[r, k] is column k of A^T G_r
    grad_b = u.transpose(0, 2, 1).reshape(rows * n1, m2).T @ x3.reshape(rows * n1, n2)
    return grad_a, grad_b, _spread(u, b.T)


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
    """Mul+add count for the factored kernel, in the order kron_matmul takes."""
    return 2 * rows * _row_macs(m1, n1, m2, n2, _a_first(m1, n1, m2, n2))
