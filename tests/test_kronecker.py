import numpy as np
import pytest

from kronlm.errors import KronlmError, ShapeError
from kronlm.kronecker import (
    KroneckerPair,
    compression_factor,
    dense_matmul_flops,
    kron,
    kron_matmul,
    kron_matmul_flops,
    kron_matvec,
    nearest_kron,
    rearrange,
    unrearrange,
)
from kronlm.tensor_core import Rng


def kron_block_oracle(a, b):
    """Direct expansion of the block definition: block (i,j) = a[i,j] * b."""
    m1, n1 = a.shape
    m2, n2 = b.shape
    out = np.zeros((m1 * m2, n1 * n2))
    for i in range(m1):
        for j in range(n1):
            out[i * m2 : (i + 1) * m2, j * n2 : (j + 1) * n2] = a[i, j] * b
    return out


# ---- kron ---------------------------------------------------------------------


def test_kron_scalar_identity():
    b = Rng(0).normal(3, 4)
    assert np.array_equal(kron(np.array([[1.0]]), b), b)


def test_kron_identity_blocks():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_hand_expansion():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ]
    )
    assert np.array_equal(kron(a, b), expected)


def test_kron_matches_block_oracle():
    rng = Rng(5)
    for _ in range(10):
        a, b = rng.normal(3, 2), rng.normal(2, 4)
        assert np.array_equal(kron(a, b), kron_block_oracle(a, b))


# ---- rearrangement -------------------------------------------------------------


def test_rearrange_of_kron_is_outer_product():
    rng = Rng(1)
    a, b = rng.normal(2, 3), rng.normal(2, 2)
    r = rearrange(kron(a, b), 2, 3, 2, 2)
    outer = np.outer(a.reshape(-1), b.reshape(-1))
    assert np.array_equal(r, outer)


def test_rearrange_zero():
    assert np.all(rearrange(np.zeros((6, 6)), 3, 2, 2, 3) == 0)


def test_rearrange_frobenius_preservation():
    rng = Rng(2)
    for _ in range(10):
        w = rng.normal(6, 6)
        a, b = rng.normal(3, 2), rng.normal(2, 3)
        lhs = np.linalg.norm(w - kron(a, b))
        r = rearrange(w, 3, 2, 2, 3)
        rhs = np.linalg.norm(r - np.outer(a.reshape(-1), b.reshape(-1)))
        assert abs(lhs - rhs) < 1e-10


def test_rearrange_roundtrip_and_shape_error():
    rng = Rng(3)
    w = rng.normal(6, 4)
    assert np.array_equal(unrearrange(rearrange(w, 2, 2, 3, 2), 2, 2, 3, 2), w)
    with pytest.raises(ShapeError):
        rearrange(w, 2, 2, 2, 2)


# ---- nearest Kronecker -----------------------------------------------------------


def test_nearest_kron_exactly_factorable():
    rng = Rng(8)
    a0, b0 = rng.normal(3, 2), rng.normal(2, 2)
    w = kron(a0, b0)
    pair, report = nearest_kron(w, 3, 2, 2, 2)
    assert report.relative_residual <= 1e-6
    assert np.max(np.abs(pair.materialize() - w)) < 1e-8


def test_nearest_kron_exact_rank_one_input():
    # rearrange(w) = 5 u0 v0^T: the factors are u0, v0 up to sign, each
    # scaled by sqrt(5), with the largest-|a| entry pinned positive
    rng = Rng(4)
    u0 = rng.normal(6)
    v0 = rng.normal(4)
    u0, v0 = u0 / np.linalg.norm(u0), v0 / np.linalg.norm(v0)
    w = unrearrange(5.0 * np.outer(u0, v0), 3, 2, 2, 2)
    pair, report = nearest_kron(w, 3, 2, 2, 2)
    a, b = pair.a.reshape(-1), pair.b.reshape(-1)
    assert abs(report.singular_value - 5.0) < 1e-12
    assert report.relative_residual < 1e-12
    assert min(np.linalg.norm(a - np.sqrt(5) * u0), np.linalg.norm(a + np.sqrt(5) * u0)) < 1e-12
    assert min(np.linalg.norm(b - np.sqrt(5) * v0), np.linalg.norm(b + np.sqrt(5) * v0)) < 1e-12
    assert a[np.argmax(np.abs(a))] > 0
    # flipping the sign of w flips b, never a
    neg, _ = nearest_kron(-w, 3, 2, 2, 2)
    assert np.allclose(neg.a, pair.a, rtol=0, atol=1e-12)
    assert np.allclose(neg.b, -pair.b, rtol=0, atol=1e-12)


def test_nearest_kron_zero():
    pair, report = nearest_kron(np.zeros((4, 4)), 2, 2, 2, 2)
    assert report.residual_fro == 0.0
    assert report.relative_residual == 0.0
    assert report.singular_value == 0.0
    assert np.all(pair.a == 0) and np.all(pair.b == 0)


def test_rank1_zero_matrix():
    # the rank-1 term of a zero matrix whose rearrangement is not square (4 x 3)
    pair, report = nearest_kron(np.zeros((2, 6)), 2, 2, 1, 3)
    assert rearrange(np.zeros((2, 6)), 2, 2, 1, 3).shape == (4, 3)
    assert report.singular_value == 0.0
    assert report.residual_fro == 0.0
    assert report.relative_residual == 0.0
    assert pair.a.shape == (2, 2) and pair.b.shape == (1, 3)
    assert np.all(pair.a == 0) and np.all(pair.b == 0)


@pytest.mark.parametrize(
    "shape,shapes",
    [((6, 6), (3, 3, 2, 2)), ((12, 12), (6, 12, 2, 1)), ((10, 12), (10, 3, 1, 4))],
)
def test_nearest_kron_residual_matches_full_svd_oracle(shape, shapes):
    # the last case is an embedding table, (v, d/f, 1, f) with f = 4
    rng = Rng(6)
    for _ in range(5):
        w = rng.normal(*shape)
        pair, report = nearest_kron(w, *shapes)
        svals = np.linalg.svd(rearrange(w, *shapes), compute_uv=False)
        expected = np.sqrt(np.sum(svals[1:] ** 2))
        assert abs(report.residual_fro - expected) < 1e-10
        assert abs(np.linalg.norm(w - pair.materialize()) - expected) < 1e-10
        assert abs(report.relative_residual - expected / np.linalg.norm(w)) < 1e-12
        assert abs(report.singular_value - svals[0]) < 1e-10


def test_nearest_kron_deterministic():
    w = Rng(10).normal(6, 6)
    p1, r1 = nearest_kron(w, 3, 3, 2, 2)
    p2, r2 = nearest_kron(w.copy(), 3, 3, 2, 2)
    assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.b, p2.b)
    assert r1 == r2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_kron_rejects_non_finite_weights(bad):
    w = Rng(3).normal(4, 4)
    w[2, 1] = bad
    with pytest.raises(KronlmError, match=r"1 non-finite entries \(first at \(2, 1\)\)"):
        nearest_kron(w, 2, 2, 2, 2)


@pytest.mark.parametrize("n,shapes", [(4, (2, 2, 2, 2)), (6, (3, 2, 2, 3))])
def test_nearest_kron_beats_random_candidates(n, shapes):
    rng = Rng(100 + n)
    w = rng.normal(n, n)
    pair, report = nearest_kron(w, *shapes)
    m1, n1, m2, n2 = shapes
    best_random = np.inf
    cand = Rng(999)
    for _ in range(1000):
        a = cand.normal(m1, n1)
        b = cand.normal(m2, n2)
        best_random = min(best_random, np.linalg.norm(w - kron(a, b)))
    assert report.residual_fro <= best_random + 1e-12


# ---- factored matvec/matmul -------------------------------------------------------


def test_kron_matvec_identity_pair():
    pair = KroneckerPair(np.eye(3), np.eye(2))
    x = Rng(0).normal(6)
    assert np.max(np.abs(kron_matvec(pair, x) - x)) < 1e-15


def test_kron_matvec_scalar_b_degenerates_to_dense():
    rng = Rng(1)
    a = rng.normal(3, 4)
    pair = KroneckerPair(a, np.array([[1.0]]))
    x = rng.normal(4)
    assert np.max(np.abs(kron_matvec(pair, x) - a @ x)) < 1e-12


def test_kron_matvec_matches_materialized():
    rng = Rng(2)
    a, b = rng.normal(3, 2), rng.normal(2, 2)
    pair = KroneckerPair(a, b)
    w = kron(a, b)
    x = rng.normal(4)
    y = kron_matvec(pair, x)
    ref = w @ x
    assert np.max(np.abs(y - ref)) / max(np.max(np.abs(ref)), 1e-30) < 1e-10


def test_kron_matmul_single_row_equals_matvec():
    rng = Rng(3)
    pair = KroneckerPair(rng.normal(2, 3), rng.normal(3, 2))
    x = rng.normal(6)
    assert np.array_equal(kron_matmul(pair, x[None, :])[0], kron_matvec(pair, x))


def test_kron_matmul_batch_matches_row_loop():
    rng = Rng(4)
    pair = KroneckerPair(rng.normal(3, 2), rng.normal(2, 2))
    x = rng.normal(4, 4)
    out = kron_matmul(pair, x)
    for r in range(4):
        assert np.max(np.abs(out[r] - kron_matvec(pair, x[r]))) < 1e-12


def test_kron_matmul_identity_pair_batch():
    pair = KroneckerPair(np.eye(2), np.eye(3))
    x = Rng(5).normal(4, 6)
    assert np.max(np.abs(kron_matmul(pair, x) - x)) < 1e-15


def test_kron_matmul_shape_error():
    pair = KroneckerPair(np.eye(2), np.eye(3))
    with pytest.raises(ShapeError):
        kron_matmul(pair, np.zeros((2, 5)))


# ---- compression factor -------------------------------------------------------------


def test_compression_factor_paper_example():
    cf = compression_factor(1024, 1024, 512, 512, 2, 2)
    assert 3.9 <= cf <= 4.1


def test_compression_factor_degenerate_scalar_b():
    cf = compression_factor(8, 6, 8, 6, 1, 1)
    assert abs(cf - 48 / 49) < 1e-12


def test_compression_factor_table_row():
    cf = compression_factor(768, 768, 384, 768, 2, 1)
    assert abs(cf - 589824 / 294914) < 1e-12
    assert 1.9 <= cf <= 2.1


def test_compression_factor_shape_error():
    with pytest.raises(ShapeError):
        compression_factor(10, 10, 3, 10, 2, 1)


# ---- algebraic identities (randomized) -----------------------------------------------


def brute_force_det(m: np.ndarray) -> float:
    """Permutation-expansion determinant; independent of LAPACK."""
    from itertools import permutations

    n = m.shape[0]
    total = 0.0
    for perm in permutations(range(n)):
        sign = 1.0
        seen = list(perm)
        # count inversions for parity
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1.0 if inv % 2 else 1.0
        prod = 1.0
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def test_transpose_identity_exact():
    rng = Rng(21)
    for _ in range(200):
        a, b = rng.normal(2, 3), rng.normal(3, 2)
        assert np.array_equal(kron(a, b).T, kron(a.T, b.T))


def test_mixed_product_identity():
    rng = Rng(22)
    for _ in range(200):
        a, c = rng.normal(2, 3), rng.normal(3, 2)
        b, d = rng.normal(3, 2), rng.normal(2, 3)
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        denom = max(np.linalg.norm(right), 1e-30)
        assert np.linalg.norm(left - right) / denom < 1e-9


def test_distributivity_exact_on_integer_entries():
    # a*(b+c) == a*b + a*c is bitwise only when the arithmetic is exact;
    # small-integer entries keep every intermediate representable
    rng = Rng(23)
    for _ in range(200):
        a = rng.integers(-8, 9, size=(2, 2)).astype(np.float64)
        b = rng.integers(-8, 9, size=(3, 2)).astype(np.float64)
        c = rng.integers(-8, 9, size=(3, 2)).astype(np.float64)
        assert np.array_equal(kron(a, b + c), kron(a, b) + kron(a, c))


def test_distributivity_near_exact_on_reals():
    rng = Rng(27)
    for _ in range(200):
        a = rng.normal(2, 2)
        b, c = rng.normal(3, 2), rng.normal(3, 2)
        assert np.max(np.abs(kron(a, b + c) - (kron(a, b) + kron(a, c)))) < 1e-12


def well_conditioned(rng, n):
    # diagonally dominant, keeps the condition number small
    return rng.normal(n, n, scale=0.3) + np.eye(n) * n


def test_inverse_identity():
    rng = Rng(24)
    for _ in range(200):
        a = well_conditioned(rng, 2)
        b = well_conditioned(rng, 3)
        prod = kron(a, b) @ kron(np.linalg.inv(a), np.linalg.inv(b))
        assert np.max(np.abs(prod - np.eye(6))) < 1e-6


def test_determinant_identity_brute_force():
    # det(A (x) B) == det(A)^m * det(B)^n for A n x n, B m x m;
    # all three determinants evaluated by permutation expansion
    rng = Rng(25)
    for _ in range(200):
        a = rng.normal(2, 2)
        b = rng.normal(3, 3)
        lhs = brute_force_det(kron(a, b))
        rhs = brute_force_det(a) ** 3 * brute_force_det(b) ** 2
        assert abs(lhs - rhs) / max(abs(rhs), 1e-12) < 1e-6


def test_exact_factorization_recovery_property():
    rng = Rng(26)
    for _ in range(20):
        a0, b0 = rng.normal(4, 3), rng.normal(2, 2)
        w = kron(a0, b0)
        _, report = nearest_kron(w, 4, 3, 2, 2)
        assert report.relative_residual <= 1e-6


TABLE_SHAPES_SCALED = [
    # GPT-2-Small shape table divided by 64
    (12, 12, 6, 12, 2, 1),  # q/k/v
    (48, 12, 24, 12, 2, 1),  # FFN expand
    (12, 48, 12, 24, 1, 2),  # FFN contract
]


@pytest.mark.parametrize("m,n,m1,n1,m2,n2", TABLE_SHAPES_SCALED)
def test_kron_matvec_equivalence_on_table_shapes(m, n, m1, n1, m2, n2):
    rng = Rng(30)
    a, b = rng.normal(m1, n1), rng.normal(m2, n2)
    pair = KroneckerPair(a, b)
    w = kron(a, b)
    for _ in range(10):
        x = rng.normal(n)
        y = kron_matvec(pair, x)
        ref = w @ x
        assert np.linalg.norm(y - ref) / max(np.linalg.norm(ref), 1e-30) < 1e-10


def test_flop_formulas():
    # dense: 2*rows*m*n; factored: cheaper order of the two-step product
    assert dense_matmul_flops(1, 768, 768) == 2 * 768 * 768
    assert kron_matmul_flops(1, 384, 768, 2, 1) == 2 * (384 * 768 * 1 + 384 * 1 * 2)
    assert kron_matmul_flops(3, 384, 768, 2, 1) == 3 * kron_matmul_flops(1, 384, 768, 2, 1)


def test_factored_flops_beat_dense_on_table_shapes():
    for m, n, m1, n1, m2, n2 in [
        (768, 768, 384, 768, 2, 1),
        (3072, 768, 1536, 768, 2, 1),
        (768, 3072, 768, 1536, 1, 2),
        (1024, 1024, 512, 512, 2, 2),
    ]:
        assert kron_matmul_flops(1, m1, n1, m2, n2) < dense_matmul_flops(1, m, n)
