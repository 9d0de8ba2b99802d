"""Dense vs factored matmul microbenchmark: forward and backward wall time,
analytic flop counts, and parameter ratios across the standard shape table."""

from __future__ import annotations

import io
import timeit
from dataclasses import dataclass, fields

from .kronecker import (
    KroneckerPair,
    compression_factor,
    dense_matmul_flops,
    kron,
    kron_matmul,
    kron_matmul_flops,
    kron_matmul_grads,
)
from .tensor_core import Rng

# GPT-2-Small shape table with its 1/64-scale desk variants, plus the
# 1024 x 1024 -> (512x512, 2x2) compression-factor illustration
DEFAULT_SHAPES = (
    (768, 768, 384, 768, 2, 1),
    (3072, 768, 1536, 768, 2, 1),
    (768, 3072, 768, 1536, 1, 2),
    (1024, 1024, 512, 512, 2, 2),
    (12, 12, 6, 12, 2, 1),
    (48, 12, 24, 12, 2, 1),
    (12, 48, 12, 24, 1, 2),
)


@dataclass
class BenchRow:
    m: int
    n: int
    m1: int
    n1: int
    m2: int
    n2: int
    params_dense: int
    params_kron: int
    param_ratio: float
    flops_dense: int
    flops_kron: int
    flop_ratio: float
    dense_ms: float
    kron_ms: float
    speedup: float
    dense_bwd_ms: float
    kron_bwd_ms: float
    bwd_speedup: float


def _time_call(fn, repeats: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=repeats)) * 1e3


def _ratio(dense_ms: float, kron_ms: float) -> float:
    return dense_ms / kron_ms if kron_ms > 0 else float("inf")


def run_bench(shapes=DEFAULT_SHAPES, rows: int = 32, repeats: int = 5, seed: int = 0) -> list:
    rng = Rng(seed)
    out = []
    for m, n, m1, n1, m2, n2 in shapes:
        a = rng.normal(m1, n1)
        b = rng.normal(m2, n2)
        pair = KroneckerPair(a, b)
        w = kron(a, b)
        x = rng.normal(rows, n)
        up = rng.normal(rows, m)
        dense_ms = _time_call(lambda: x @ w.T, repeats)
        kron_ms = _time_call(lambda: kron_matmul(pair, x), repeats)
        dense_bwd_ms = _time_call(lambda: (up @ w, up.T @ x), repeats)
        kron_bwd_ms = _time_call(lambda: kron_matmul_grads(pair, x, up), repeats)
        fd = dense_matmul_flops(rows, m, n)
        fk = kron_matmul_flops(rows, m1, n1, m2, n2)
        out.append(
            BenchRow(
                m=m, n=n, m1=m1, n1=n1, m2=m2, n2=n2,
                params_dense=m * n,
                params_kron=m1 * n1 + m2 * n2,
                param_ratio=compression_factor(m, n, m1, n1, m2, n2),
                flops_dense=fd,
                flops_kron=fk,
                flop_ratio=fd / fk,
                dense_ms=dense_ms,
                kron_ms=kron_ms,
                speedup=_ratio(dense_ms, kron_ms),
                dense_bwd_ms=dense_bwd_ms,
                kron_bwd_ms=kron_bwd_ms,
                bwd_speedup=_ratio(dense_bwd_ms, kron_bwd_ms),
            )
        )
    return out


def rows_to_csv(rows) -> str:
    names = [f.name for f in fields(BenchRow)]
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    for row in rows:
        buf.write(",".join(str(getattr(row, name)) for name in names) + "\n")
    return buf.getvalue()
