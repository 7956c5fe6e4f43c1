"""Numeric kernels: forward semantics against brute-force oracles."""

import numpy as np
import pytest

from conftest import RTOL, count_tensors
from codesum.errors import DimensionMismatch, KernelTooLong
from codesum.tensorcore import (
    GruParams,
    Tensor,
    add,
    conv1d_narrow,
    gradient_check,
    gru_step,
    l2_normalize,
    log,
    matmul,
    matvec,
    mul,
    neg,
    prelu,
    reshape,
    rows,
    sigmoid,
    softmax,
    stack,
    tanh,
    tmax,
    tsum,
)


def einsum_conv1d(x, k, g):
    """Forward, input gradient and kernel gradient of the narrow convolution
    as einsums over sliding windows: the definition, summed in another order."""
    w = k.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(x, w, axis=0)
    out = np.einsum("piw,iwo->po", windows, k)
    # The input gradient is the full correlation of g with the flipped kernel.
    padded = np.pad(g, ((w - 1, w - 1), (0, 0)))
    g_windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=0)
    grad_x = np.einsum("tow,iwo->ti", g_windows, k[:, ::-1, :])
    grad_k = np.einsum("piw,po->iwo", windows, g)
    return out, grad_x, grad_k


class TestConv1dNarrow:
    def test_output_length(self):
        out = conv1d_narrow(Tensor(np.ones((5, 2))), Tensor(np.ones((2, 3, 4))))
        assert out.shape == (3, 4)

    def test_width_one_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        kernel = np.eye(3).reshape(3, 1, 3)
        out = conv1d_narrow(Tensor(x), Tensor(kernel))
        np.testing.assert_allclose(out.data, x)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(4, 2))
        k = rng.normal(size=(2, 2, 1))
        out = conv1d_narrow(Tensor(x), Tensor(k))
        ref = np.zeros((3, 1))
        for p in range(3):
            for o in range(1):
                for j in range(2):
                    for i in range(2):
                        ref[p, o] += x[p + j, i] * k[i, j, o]
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_kernel_too_long(self):
        with pytest.raises(KernelTooLong):
            conv1d_narrow(Tensor(np.ones((2, 1))), Tensor(np.ones((1, 3, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionMismatch):
            conv1d_narrow(Tensor(np.ones((4, 2))), Tensor(np.ones((3, 1, 1))))

    def test_width_zero_kernel(self):
        with pytest.raises(DimensionMismatch, match="kernel width must be >= 1"):
            conv1d_narrow(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 0, 1))))

    def test_linear_in_both_arguments(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 3))
        k = rng.normal(size=(3, 2, 2))
        a, b = 0.7, -1.3
        lhs = conv1d_narrow(Tensor(a * x + b * y), Tensor(k)).data
        rhs = a * conv1d_narrow(Tensor(x), Tensor(k)).data \
            + b * conv1d_narrow(Tensor(y), Tensor(k)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        k2 = rng.normal(size=(3, 2, 2))
        lhs = conv1d_narrow(Tensor(x), Tensor(a * k + b * k2)).data
        rhs = a * conv1d_narrow(Tensor(x), Tensor(k)).data \
            + b * conv1d_narrow(Tensor(x), Tensor(k2)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("length, d_in, width, d_out", [
        (104, 128, 18, 32),  # copy preset, first layer
        (16, 8, 10, 1),      # conv preset, attention head (k2=8, w3=10)
        (7, 3, 1, 4),        # width one
        (5, 3, 5, 2),        # width equal to the length
    ])
    def test_matches_einsum_definition(self, rng, length, d_in, width, d_out):
        x = Tensor(rng.normal(size=(length, d_in)), requires_grad=True)
        k = Tensor(rng.normal(size=(d_in, width, d_out)), requires_grad=True)
        g = rng.normal(size=(length - width + 1, d_out))
        out = conv1d_narrow(x, k)
        out.backward(g)
        for got, want in zip((out.data, x.grad, k.grad), einsum_conv1d(x.data, k.data, g)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("length, d_in, width, d_out", [
        (109, 128, 18, 32), (92, 32, 19, 16), (74, 16, 2, 1), (55, 128, 24, 8),
        (32, 8, 29, 8), (9, 3, 2, 2), (6, 2, 1, 3), (4, 2, 4, 1),
    ])
    def test_batched_offsets_equal_the_per_offset_loop_bitwise(
            self, rng, length, d_in, width, d_out):
        x = Tensor(rng.normal(size=(length, d_in)), requires_grad=True)
        k = Tensor(rng.normal(size=(d_in, width, d_out)), requires_grad=True)
        g = rng.normal(size=(length - width + 1, d_out))
        out = conv1d_narrow(x, k)
        out.backward(g)
        # The w shifted products, one at a time, summed in offset order.
        positions, xd, kd = length - width + 1, x.data, k.data
        want_out = sum(xd[j:j + positions] @ kd[:, j, :] for j in range(width))
        want_x = np.zeros_like(xd)
        for j in range(width):
            want_x[j:j + positions] += g @ kd[:, j, :].T
        want_k = np.stack([xd[j:j + positions].T @ g for j in range(width)], axis=1)
        for got, want in ((out.data, want_out), (x.grad, want_x), (k.grad, want_k)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        on_arrays = conv1d_narrow(xd, kd)
        assert type(on_arrays) is np.ndarray and on_arrays.tobytes() == want_out.tobytes()


class TestActivations:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_softmax_sums_to_one(self, rng):
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 20)) * 10
            out = softmax(Tensor(v)).data
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0)

    def test_softmax_shift_invariance(self, rng):
        v = rng.normal(size=7)
        np.testing.assert_allclose(
            softmax(Tensor(v)).data, softmax(Tensor(v + 100.0)).data, atol=1e-12)

    def test_softmax_large_values_stable(self):
        out = softmax(Tensor([1000.0, 1000.0, -1000.0])).data
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-12)

    def test_prelu_definition(self):
        out = prelu(Tensor([-2.0, 3.0]), Tensor(0.3))
        np.testing.assert_allclose(out.data, [-0.6, 3.0])

    def test_prelu_zero_leak_is_relu(self, rng):
        x = rng.normal(size=10)
        out = prelu(Tensor(x), Tensor(0.0)).data
        np.testing.assert_allclose(out, np.maximum(x, 0.0))

    def test_sigmoid_at_zero(self):
        assert float(sigmoid(Tensor(0.0)).data) == 0.5

    def test_sigmoid_one_exponential_equals_three(self, rng):
        x = np.concatenate([[0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 750.0, -750.0],
                            rng.normal(scale=30.0, size=500)])
        three = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert sigmoid(Tensor(x)).data.tobytes() == three.tobytes()

    def test_sigmoid_on_an_array_is_the_tensor_op(self, rng):
        x = np.concatenate([[0.0, -0.0, 700.0, -700.0, 750.0, -750.0],
                            rng.normal(scale=30.0, size=100)])
        got = sigmoid(x)
        assert type(got) is np.ndarray
        assert got.tobytes() == sigmoid(Tensor(x)).data.tobytes()

    def test_softmax_on_an_array_is_the_tensor_op(self, rng):
        for v in (rng.normal(size=9) * 10, rng.normal(size=(4, 9)) * 10):
            got = softmax(v)
            assert type(got) is np.ndarray
            assert got.tobytes() == softmax(Tensor(v)).data.tobytes()

    def test_softmax_of_a_3d_array_raises(self):
        with pytest.raises(DimensionMismatch, match="softmax expects a vector or a matrix"):
            softmax(np.zeros((2, 2, 2)))

    def test_prelu_leak_must_be_a_scalar(self):
        with pytest.raises(DimensionMismatch, match="prelu leak must be a scalar"):
            prelu(Tensor([-2.0, 3.0]), Tensor([0.3, 0.3]))

    def test_log_of_zero_raises(self):
        with pytest.raises(ValueError, match="log of a non-positive value"):
            log(Tensor([1.0, 0.0]))

    def test_backward_of_a_vector_needs_a_seed(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match="needs a scalar"):
            x.backward()

    def test_sigmoid_extremes(self):
        assert float(sigmoid(Tensor(50.0)).data) == pytest.approx(1.0)
        assert float(sigmoid(Tensor(-50.0)).data) == pytest.approx(0.0, abs=1e-20)


class TestL2Normalize:
    def test_scaling(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])  # frobenius norm 2
        out = l2_normalize(Tensor(m)).data
        np.testing.assert_allclose(out, m / 2, atol=1e-7)

    def test_zero_matrix(self):
        out = l2_normalize(Tensor(np.zeros((3, 2)))).data
        np.testing.assert_allclose(out, 0.0)

    def test_on_an_array_is_the_tensor_op(self, rng):
        for m in (rng.normal(size=(5, 3)) * 5, np.zeros((2, 2))):
            got = l2_normalize(m)
            assert type(got) is np.ndarray
            assert got.tobytes() == l2_normalize(Tensor(m)).data.tobytes()

    def test_unit_norm_output(self, rng):
        m = rng.normal(size=(3, 4)) * 5
        out = l2_normalize(Tensor(m)).data
        norm = np.sqrt((out ** 2).sum())
        assert 1.0 - 1e-6 <= norm <= 1.0


class TestBatchesOfArrays:
    """conv1d_narrow, l2_normalize, tmax and matmul on arrays with a leading
    batch axis: each entry's result is its own alone, byte for byte."""

    def test_conv1d_narrow(self, rng):
        for trial in range(60):
            width = int(rng.integers(1, 25))
            length = width if trial % 4 == 0 else width + int(rng.integers(0, 60))
            d_in, d_out = int(rng.integers(1, 130)), int(rng.choice([1, 2, 8, 16, 33]))
            x = rng.normal(size=(int(rng.integers(1, 17)), length, d_in))
            k = rng.normal(size=(d_in, width, d_out))
            got = conv1d_narrow(x, k)
            assert got.shape == (len(x), length - width + 1, d_out)
            for entry, one in zip(got, x):
                assert entry.tobytes() == conv1d_narrow(one, k).tobytes()

    def test_conv1d_narrow_batch_of_tensors_is_rejected(self, rng):
        x, k = rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 2, 1))
        for operands in [(Tensor(x), k), (x, Tensor(k))]:
            with pytest.raises(DimensionMismatch, match="a batch of inputs must be arrays"):
                conv1d_narrow(*operands)

    def test_l2_normalize(self, rng):
        for _ in range(60):
            shape = tuple(int(n) for n in rng.integers(1, 70, size=2))
            m = rng.normal(size=(int(rng.integers(1, 17)), *shape)) * 5
            m[0] = 0.0  # the guard, not a division by zero
            got = l2_normalize(m)
            for entry, one in zip(got, m):
                assert entry.tobytes() == l2_normalize(one).tobytes()
                assert entry.tobytes() == l2_normalize(Tensor(one)).data.tobytes()

    def test_l2_normalize_takes_matrices(self, rng):
        for m in [Tensor(rng.normal(size=(2, 3, 4))), rng.normal(size=4)]:
            with pytest.raises(DimensionMismatch):
                l2_normalize(m)

    def test_tmax_rows_and_their_gradient(self, rng):
        x = rng.normal(size=(6, 9))
        x[2, 4] = x[2, 7] = x[2].max() + 1.0  # a tie: the first argmax takes it
        got = tmax(x)
        assert got.shape == (6,)
        assert [v.hex() for v in got.tolist()] == [float(tmax(row)).hex() for row in x]
        t = Tensor(x, requires_grad=True)
        g = rng.normal(size=6)
        tmax(t).backward(g)
        want = np.zeros_like(x)
        want[np.arange(6), np.argmax(x, axis=1)] = g
        assert t.grad.tobytes() == want.tobytes()

    def test_matmul_rows(self, rng):
        for trial in range(40):
            n = trial if trial < 2 else int(rng.integers(2, 140))  # n = 0 and one row first
            k, m = (int(v) for v in rng.integers(0, 140, size=2))
            x, w = rng.normal(size=(n, k)), rng.normal(size=(k, m))
            got = matmul(x, w)
            assert got.shape == (n, m)
            assert got.tobytes() == np.array([row @ w for row in x]).reshape(n, m).tobytes()
            for row, one in zip(got, x):
                assert row.tobytes() == matmul(one, w).tobytes()


class TestProducts:
    """``matmul`` takes a vector first, or array rows with an array matrix;
    ``matvec`` makes each row its own row's product."""

    @pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((3, 4), (4, 2)), ((), (3,)),
                                        ((2, 2, 2), (2,)), ((3,), (3, 3, 3))])
    def test_matmul_needs_a_vector_first(self, rng, shapes):
        a, b = (rng.normal(size=s) for s in shapes)
        cases = [(a, b), (Tensor(a), Tensor(b)), (a, Tensor(b)), (Tensor(a), b)]
        if shapes == ((3, 4), (4, 2)):  # array rows with an array matrix: the rows form
            assert matmul(a, b).tobytes() == np.array([row @ b for row in a]).tobytes()
            cases = cases[1:]
        for operands in cases:
            with pytest.raises(DimensionMismatch):
                matmul(*operands)

    @pytest.mark.parametrize("t", [8, 1])
    def test_matvec_rows_equal_per_row_products_bitwise(self, rng, t):
        # |V| x D of the benchmark's evaluate-conv vocabulary head.  One row
        # is the vector product bit for bit; each of several rows is within
        # RTOL of it, relative to the sum of the product's absolute terms.
        m, xs = rng.normal(size=(8378, 128)), rng.normal(size=(t, 128))
        got = matvec(m, xs)
        assert got.shape == (t, 8378)
        for row, x in zip(got, xs):
            if t == 1:
                assert row.tobytes() == (m @ x).tobytes()
            assert np.all(np.abs(row - m @ x) <= RTOL * (np.abs(m) @ np.abs(x)))


class TestRows:
    """``rows`` gathers rows of a matrix or entries of a vector."""

    def test_vector_entries_by_ids_and_their_scatter_gradient(self, rng):
        v = rng.normal(size=6)
        assert rows(v, 4).shape == () and type(rows(v, 4)) is np.ndarray
        assert rows(v, 4).tobytes() == v[4].tobytes()
        t = Tensor(v, requires_grad=True)
        got = rows(t, [5, 0, 5])
        assert got.data.tobytes() == v[[5, 0, 5]].tobytes()
        g = rng.normal(size=3)
        got.backward(g)
        assert t.grad.tolist() == [g[1], 0.0, 0.0, 0.0, 0.0, g[0] + g[2]]

    def test_a_3d_table_is_rejected(self, rng):
        table = rng.normal(size=(2, 3, 4))
        for operand in [table, Tensor(table)]:
            with pytest.raises(DimensionMismatch, match="rows expects a vector or a matrix"):
                rows(operand, 0)


def zero_gru(d, k):
    z = lambda *s: Tensor(np.zeros(s))
    return GruParams(W_xr=z(d, k), W_hr=z(k, k), W_xu=z(d, k), W_hu=z(k, k),
                     W_xc=z(d, k), W_hc=z(k, k), b_r=z(k), b_u=z(k), b_c=z(k))


class TestGruStep:
    def test_zero_params_halve_state(self):
        h = np.array([2.0, -4.0, 6.0])
        out = gru_step(Tensor(np.zeros(2)), Tensor(h), zero_gru(2, 3))
        np.testing.assert_allclose(out.data, 0.5 * h)

    def test_update_gate_forced_closed(self):
        # A hugely negative update bias keeps the previous state.
        p = zero_gru(2, 3)
        p.b_u = Tensor(np.full(3, -50.0))
        h = np.array([1.0, 2.0, 3.0])
        out = gru_step(Tensor(np.ones(2)), Tensor(h), p)
        np.testing.assert_allclose(out.data, h, atol=1e-9)

    def test_matches_straight_line_oracle(self, rng):
        d, k = 3, 2
        weights = {n: rng.normal(size=s) for n, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]}
        p = GruParams(**{n: Tensor(w) for n, w in weights.items()})
        x = rng.normal(size=d)
        h = rng.normal(size=k)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        r = sig(x @ weights["W_xr"] + h @ weights["W_hr"] + weights["b_r"])
        u = sig(x @ weights["W_xu"] + h @ weights["W_hu"] + weights["b_u"])
        c = np.tanh(x @ weights["W_xc"] + r * (h @ weights["W_hc"]) + weights["b_c"])
        expected = (1 - u) * h + u * c
        out = gru_step(Tensor(x), Tensor(h), p)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        # x of the wrong D, as one input or as rows; x of three dimensions
        # or none; h of the wrong size; state rows for one input, or not
        # one per input row.
        for x, h in [((4,), (3,)), ((5, 4), (3,)), ((1, 1, 2), (3,)), ((), (3,)),
                     ((2,), (2,)), ((2,), (5, 3)), ((5, 2), (4, 3)), ((5, 2), (5, 2))]:
            with pytest.raises(DimensionMismatch):
                gru_step(Tensor(np.zeros(x)), Tensor(np.zeros(h)), zero_gru(2, 3))
            with pytest.raises(DimensionMismatch):
                gru_step(np.zeros(x), np.zeros(h), zero_gru(2, 3))

    def test_over_arrays_equals_over_tensors(self, rng):
        d, k = 3, 64
        weights = {n: rng.normal(size=s) for n, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]}
        tensors = GruParams(**{n: Tensor(w) for n, w in weights.items()})
        arrays = GruParams(**weights)
        x, h = rng.normal(size=d), rng.normal(size=k)
        want = gru_step(Tensor(x), Tensor(h), tensors).data
        got = gru_step(x, h, arrays)
        assert type(got) is np.ndarray
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [13, 64])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_stacked_products_equal_per_row_steps(self, rng, n, k):
        d = 3
        p = GruParams(**{name: rng.normal(size=s) for name, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]})
        # (n, D) input rows step as n inputs, each row bit for bit.
        h, x = rng.normal(size=k), rng.normal(size=(n, d))
        got = gru_step(x, h, p)
        want = np.array([gru_step(row, h, p) for row in x]).reshape(n, k)
        assert got.shape == (n, k)
        assert got.tobytes() == want.tobytes()

    def test_state_rows_step_as_their_rows_alone(self, rng):
        # A decode's children of several parents: input row i steps from
        # state row i, bit for bit as that child alone.
        for _ in range(30):
            d, k, n = (int(v) for v in rng.integers(1, 70, size=3))
            p = GruParams(**{name: rng.normal(size=s) for name, s in [
                ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
                ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)),
                ("b_c", (k,))]})
            x, h = rng.normal(size=(n, d)), rng.normal(size=(n, k))
            got = gru_step(x, h, p)
            assert got.shape == (n, k)
            for row, (xi, hi) in zip(got, zip(x, h)):
                assert row.tobytes() == gru_step(xi, hi, p).tobytes()

    @pytest.mark.parametrize("d, k", [(3, 2), (4, 3), (2, 2), (128, 16)])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_batched_input_products_equal_per_row_products_bitwise(self, rng, n, d, k):
        # gru_step's products of its input rows: one batched vector-matrix
        # product per weight, never a plain (n, D) @ (D, k) product, which
        # may differ in the last bits.
        p = GruParams(**{name: rng.normal(size=s) for name, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]})
        for _ in range(20):
            x = rng.normal(size=(n, d))
            for w in (p.W_xr, p.W_xu, p.W_xc):
                products = matmul(x, w)
                assert products.shape == (n, k)
                want = np.array([row @ w for row in x]).reshape(n, k)
                assert products.tobytes() == want.tobytes()


class TestArrayOperands:
    """An ndarray on the left of an operator defers to the Tensor."""

    @pytest.mark.parametrize("op, grad", [
        (lambda a, t: a + t, lambda a: np.ones(3)),
        (lambda a, t: a * t, lambda a: a),
        (lambda a, t: a - t, lambda a: -np.ones(3)),
    ], ids=["add", "mul", "sub"])
    def test_result_is_a_tensor_with_gradients(self, rng, op, grad):
        a, b = rng.normal(size=3), rng.normal(size=3)
        t = Tensor(b, requires_grad=True)
        out = op(a, t)
        assert type(out) is Tensor and out.data.dtype == np.float64
        assert out.data.tobytes() == op(a, b).tobytes()
        tsum(out).backward()
        np.testing.assert_array_equal(t.grad, grad(a))


def op_cases(rng):
    """Every op, each with array operands: name -> (op, operands)."""
    x, v = rng.normal(size=(7, 3)), rng.normal(size=4)
    return {
        "add": (add, (x, rng.normal(size=3))),
        "add_number": (lambda a: add(1.0, neg(a)), (x,)),
        "neg": (neg, (x,)),
        "mul": (mul, (x, rng.normal(size=(7, 1)))),
        "mul_number": (lambda a: mul(a, 0.5), (x,)),
        "matmul": (matmul, (v, rng.normal(size=4))),
        "matmul_vector": (matmul, (v, rng.normal(size=(4, 3)))),
        "tsum": (tsum, (x,)),
        "rows_of_a_vector": (lambda a: rows(a, 2), (v,)),
        "prelu": (prelu, (x, np.array(0.3))),
        "log": (log, (np.abs(x) + 0.1,)),
        "rows": (lambda t: rows(t, [3, 0, 3]), (rng.normal(size=(6, 4)),)),
        "rows_one_id": (lambda t: rows(t, 2), (rng.normal(size=(6, 4)),)),
        "conv1d_narrow": (conv1d_narrow, (x, rng.normal(size=(3, 2, 4)))),
        "l2_normalize": (l2_normalize, (rng.normal(size=(5, 3)) * 5,)),
        "softmax": (softmax, (rng.normal(size=9) * 10,)),
        "softmax_rows": (softmax, (rng.normal(size=(2, 9)) * 10,)),
        "sigmoid": (sigmoid, (x * 30.0,)),
        "tanh": (tanh, (x,)),
        "tmax": (tmax, (x,)),
        "reshape": (lambda a: reshape(a, (21,)), (x,)),
        "stack": (lambda *vs: stack(vs), (v, rng.normal(size=4), -v)),
        "matvec": (matvec, (rng.normal(size=(5, 3)), rng.normal(size=(4, 3)))),
    }


CASE_NAMES = sorted(op_cases(np.random.default_rng(0)))


TWO_OPERANDS = ["conv1d_narrow", "stack", "matvec", "add", "mul", "matmul", "prelu"]


class TestOpsOnPlainArrays:
    """With no Tensor operand an op returns the array it computed, byte for
    byte the Tensor op's data, and makes no Tensor; an array next to a
    Tensor is a constant."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_array_result_is_the_tensor_ops_data(self, rng, monkeypatch, name):
        op, operands = op_cases(rng)[name]
        made = count_tensors(monkeypatch)
        got = op(*operands)
        assert made == []
        monkeypatch.undo()
        want = op(*(Tensor(a) for a in operands))
        assert type(got) is np.ndarray and type(want) is Tensor
        assert got.dtype == want.data.dtype and got.shape == want.shape
        assert got.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("name", TWO_OPERANDS)
    @pytest.mark.parametrize("tensor_at", [0, 1])
    def test_gradient_free_tensor_next_to_an_array(self, rng, name, tensor_at):
        op, operands = op_cases(rng)[name]
        mixed = [Tensor(a) if i == tensor_at else a for i, a in enumerate(operands)]
        got = op(*mixed)
        assert type(got) is Tensor and not got.requires_grad and got._prev == ()
        assert got.data.tobytes() == op(*operands).tobytes()

    @pytest.mark.parametrize("name", TWO_OPERANDS)
    @pytest.mark.parametrize("tensor_at", [0, 1])
    def test_array_next_to_a_trained_tensor_is_a_constant(self, rng, name, tensor_at):
        op, operands = op_cases(rng)[name]
        weights = rng.normal(size=op(*operands).shape)
        leaf = Tensor(operands[tensor_at].copy(), requires_grad=True)
        arrays = [a.copy() for a in operands]

        def build(wrap):
            return tsum(mul(op(*[leaf if i == tensor_at else wrap(a)
                                 for i, a in enumerate(arrays)]), weights))

        gradient_check(lambda: build(lambda a: a), {"leaf": leaf})
        build(lambda a: a).backward()
        with_arrays, leaf.grad = leaf.grad, None
        build(Tensor).backward()  # the same operands as constant Tensors
        assert with_arrays.tobytes() == leaf.grad.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, operands))


class TestAccumulate:
    """A leaf's first gradient is the array its VJP just made, not a copy;
    the upstream gradient passed through, a view or a seed is copied, so
    later sums stay its own."""

    def recorded(self, monkeypatch):
        made = []
        real = Tensor._accumulate

        def recording(self, g, upstream):
            made.append((self, g))
            real(self, g, upstream)

        monkeypatch.setattr(Tensor, "_accumulate", recording)
        return made

    def test_fresh_product_is_kept(self, rng, monkeypatch):
        m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        xs = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        made = self.recorded(monkeypatch)
        tsum(matvec(m, xs)).backward()
        [g_m] = [g for t, g in made if t is m]
        assert m.grad is g_m

    def test_pass_through_and_view_are_copied(self, rng, monkeypatch):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=6), requires_grad=True)
        w1, w2, w3 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=6)
        made = self.recorded(monkeypatch)
        # add passes its g to a and b; reshape passes c a view of its g.
        # a and c then take a second sum, which must not reach s, b or r.
        s = add(a, b)
        r = reshape(c, (2, 3))
        loss = (tsum(mul(add(s, r), Tensor(w1))) + tsum(mul(a, Tensor(w2)))
                + tsum(mul(c, Tensor(w3))))
        loss.backward()
        for leaf in (a, b, c):
            assert all(leaf.grad is not g for t, g in made if t is leaf)
        np.testing.assert_array_equal(s.grad, w1)
        np.testing.assert_array_equal(r.grad, w1)
        np.testing.assert_array_equal(a.grad, w1 + w2)
        np.testing.assert_array_equal(b.grad, w1)
        np.testing.assert_array_equal(c.grad, w1.reshape(6) + w3)

    def test_a_callers_seed_is_never_aliased(self, rng, monkeypatch):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        seed = rng.integers(-9, 10, size=(2, 3)).astype(np.float64)  # exact sums
        before = seed.copy()
        made = self.recorded(monkeypatch)
        # add passes the seed through to x twice; the second is a sum into
        # x's gradient, and a second backward sums into the root's.
        y = add(x, x)
        y.backward(seed)
        y.backward(seed)
        x.backward(seed)
        x.backward(seed)
        assert seed.tobytes() == before.tobytes()
        assert all(g is seed for t, g in made if t is y)
        assert y.grad is not seed and x.grad is not seed
        np.testing.assert_array_equal(y.grad, 2 * before)
        np.testing.assert_array_equal(x.grad, 8 * before)

    def test_scalar_gradient_is_an_array(self):
        lam = Tensor(0.5, requires_grad=True)
        (lam * Tensor(3.0)).backward()
        assert type(lam.grad) is np.ndarray and lam.grad.shape == ()
        assert float(lam.grad) == 3.0
