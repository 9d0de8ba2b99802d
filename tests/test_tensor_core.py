import subprocess
import sys

import numpy as np
import pytest

from conftest import softmax_rows
from kronlm.autodiff import Tape
from kronlm.errors import ShapeError
from kronlm.tensor_core import Rng

# matmul, layernorm, softmax and gelu run as Tape ops; these adapters test them on arrays


def matmul(a, b):
    tape = Tape()
    return tape.matmul(tape.constant(a), tape.constant(b)).value


def layernorm(x, gain, bias, eps=1e-5):
    tape = Tape()
    return tape.layernorm(tape.constant(x), tape.constant(gain), tape.constant(bias), eps).value


def tape_softmax_rows(m):
    """Row softmax through Tape.masked_softmax: each row is one query that
    sees every key, so the causal mask keeps the whole row."""
    tape = Tape()
    return tape.masked_softmax(tape.constant(m[:, None, :])).value[:, 0, :]


# the reference softmax of conftest and the Tape op must both pass each softmax test
SOFTMAXES = (softmax_rows, tape_softmax_rows)


def gelu(x):
    tape = Tape()
    return tape.gelu(tape.constant(x)).value


def test_matmul_identity():
    rng = Rng(0)
    m = rng.normal(3, 5)
    assert np.array_equal(matmul(np.eye(3), m), m)


def test_matmul_hand_sum():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    assert np.array_equal(matmul(a, b), np.array([[3.0], [7.0]]))


def test_matmul_triple_loop_oracle():
    rng = Rng(42)
    a = rng.normal(5, 4)
    b = rng.normal(4, 3)
    expected = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(matmul(a, b) - expected)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_associativity():
    rng = Rng(7)
    for _ in range(20):
        a, b, c = rng.normal(4, 5), rng.normal(5, 3), rng.normal(3, 6)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.linalg.norm(left - right) / np.linalg.norm(left) < 1e-9


def test_softmax_symmetry():
    for softmax in SOFTMAXES:
        out = softmax(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0)


def test_softmax_extreme_no_overflow():
    for softmax in SOFTMAXES:
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1 - 1e-12
        assert out[0, 1] < 1e-12


def test_softmax_formula_oracle():
    row = np.array([[1.0, 2.0, 3.0]])
    expected = np.exp(row) / np.exp(row).sum()
    for softmax in SOFTMAXES:
        assert np.max(np.abs(softmax(row) - expected)) < 1e-12


def test_softmax_rows_sum_to_one_extreme_magnitudes():
    m = np.random.Generator(np.random.PCG64(9)).uniform(-1e4, 1e4, (40, 7))
    for softmax in SOFTMAXES:
        out = softmax(m)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
        # tails this far out underflow to exactly 0; only [0, 1] bounds hold here
        assert np.all(out >= 0) and np.all(out <= 1)


def test_softmax_entries_strictly_inside_unit_interval_moderate():
    for softmax in SOFTMAXES:
        out = softmax(Rng(10).normal(20, 6))
        assert np.all(out > 0) and np.all(out < 1)


def test_layernorm_constant_row_zero():
    x = np.full((1, 6), 3.7)
    out = layernorm(x, np.ones(6), np.zeros(6), eps=1e-5)
    assert np.allclose(out, 0.0)


def test_layernorm_already_normalized():
    x = np.array([[1.0, -1.0]])
    out = layernorm(x, np.ones(2), np.zeros(2), eps=1e-12)
    assert np.max(np.abs(out - x)) < 1e-6


def test_layernorm_formula_oracle():
    rng = Rng(12)
    x = rng.normal(4, 10)
    gain = rng.normal(10)
    bias = rng.normal(10)
    eps = 1e-5
    out = layernorm(x, gain, bias, eps)
    for i in range(4):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        expected = (row - mu) / np.sqrt(var + eps) * gain + bias
        assert np.max(np.abs(out[i] - expected)) < 1e-10


def test_layernorm_length_mismatch():
    with pytest.raises(ShapeError):
        layernorm(np.zeros((2, 4)), np.ones(3), np.zeros(4))


def test_gelu_zero():
    assert gelu(np.array([[0.0]]))[0, 0] == 0.0


def test_gelu_asymptote():
    assert abs(gelu(np.array([[10.0]]))[0, 0] - 10.0) < 1e-4


def test_gelu_scalar_formula_oracle():
    x = 1.0
    expected = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
    assert abs(gelu(np.array([[x]]))[0, 0] - expected) < 1e-10


def gelu_with_grad(x):
    """Reference (gelu(x), gelu'(x)) from the tanh-approximation formulas."""
    x2 = x * x
    t = np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * (x2 * x)))
    d_inner = np.sqrt(2 / np.pi) * (1.0 + 3.0 * 0.044715 * x2)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner


def test_gelu_value_and_gradient_equal_the_reference_bit_for_bit():
    x, up = Rng(13).normal(6, 9, scale=3.0), Rng(14).normal(6, 9)
    value, grad = gelu_with_grad(x)
    tape = Tape()
    node = tape.gelu(tape.leaf(x))
    assert np.array_equal(node.value, value)
    assert np.array_equal(node._vjp(up)[0], up * grad)
    # on a constant the value is the same, and no vjp holds the tanh
    const = tape.gelu(tape.constant(x))
    assert np.array_equal(const.value, value) and const._vjp is None


def test_rng_identical_across_processes():
    snippet = (
        "from kronlm.tensor_core import Rng;"
        "r = Rng(1234);"
        "print(r.normal(4, 4).tobytes().hex());"
        "print(r.integers(0, 1000, size=16).tobytes().hex())"
    )
    outs = [
        subprocess.run([sys.executable, "-c", snippet], capture_output=True, check=True).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
    assert len(outs[0]) > 10
