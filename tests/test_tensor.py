"""Numeric kernels: forward semantics against brute-force oracles."""

import numpy as np
import pytest

from codesum.errors import DimensionMismatch, KernelTooLong
from codesum.tensorcore import (
    GruParams,
    Tensor,
    add,
    conv1d_narrow,
    gradient_check,
    gru_step,
    input_products,
    l2_normalize,
    matvec,
    mul,
    prelu,
    reshape,
    rows,
    sigmoid,
    softmax,
    stack,
    state_products,
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
        with pytest.raises(DimensionMismatch):
            gru_step(Tensor(np.zeros(4)), Tensor(np.zeros(3)), zero_gru(2, 3))

    def test_over_arrays_equals_over_tensors(self, rng):
        d, k = 3, 64
        weights = {n: rng.normal(size=s) for n, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]}
        tensors = GruParams(**{n: Tensor(w) for n, w in weights.items()})
        arrays = GruParams(**weights)
        x, h = rng.normal(size=d), rng.normal(size=k)
        want = gru_step(Tensor(x), Tensor(h), tensors).data
        for got in (gru_step(x, h, arrays),
                    gru_step(None, h, arrays, input_products(x, arrays),
                             state_products(h, arrays))):
            assert type(got) is np.ndarray
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [13, 64])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_stacked_products_equal_per_row_steps(self, rng, n, k):
        d = 3
        p = GruParams(**{name: rng.normal(size=s) for name, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]})
        h = rng.normal(size=k)
        hs = state_products(h, p)
        rows = [input_products(rng.normal(size=d), p) for _ in range(n)]
        stacked = tuple(np.array([xs[j] for xs in rows]).reshape(n, k) for j in range(3))
        got = gru_step(None, h, p, stacked, hs)
        want = np.array([gru_step(None, h, p, xs, hs) for xs in rows]).reshape(n, k)
        assert got.shape == (n, k)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, k", [(3, 2), (4, 3), (2, 2), (128, 16)])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_batched_input_products_equal_per_row_products_bitwise(self, rng, n, d, k):
        # One batched vector-matrix product per weight, never a plain
        # (n, D) @ (D, k) product, which may differ in the last bits.
        p = GruParams(**{name: rng.normal(size=s) for name, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]})
        for _ in range(20):
            x = rng.normal(size=(n, d))
            got = input_products(x, p)
            for w, products in zip((p.W_xr, p.W_xu, p.W_xc), got):
                assert products.shape == (n, k)
                want = np.array([row @ w for row in x]).reshape(n, k)
                assert products.tobytes() == want.tobytes()

    def test_given_products_equal_computed_ones(self, rng):
        d, k = 3, 4
        p = GruParams(**{n: Tensor(rng.normal(size=s)) for n, s in [
            ("W_xr", (d, k)), ("W_hr", (k, k)), ("W_xu", (d, k)), ("W_hu", (k, k)),
            ("W_xc", (d, k)), ("W_hc", (k, k)), ("b_r", (k,)), ("b_u", (k,)), ("b_c", (k,))]})
        x, h = Tensor(rng.normal(size=d)), Tensor(rng.normal(size=k))
        computed = gru_step(x, h, p).data
        given = gru_step(None, h, p, input_products(x, p), state_products(h, p)).data
        assert given.tobytes() == computed.tobytes()


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

    def test_matmul(self, rng):
        a, m = rng.normal(size=3), rng.normal(size=(3, 2))
        t = Tensor(m, requires_grad=True)
        out = a @ t
        assert type(out) is Tensor
        assert out.data.tobytes() == (a @ m).tobytes()
        tsum(out).backward()
        np.testing.assert_array_equal(t.grad, np.outer(a, np.ones(2)))


def decode_op_cases(rng):
    """The ops a decode calls, each with array operands: name -> (op, operands)."""
    x, v = rng.normal(size=(7, 3)), rng.normal(size=4)
    return {
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


CASE_NAMES = sorted(decode_op_cases(np.random.default_rng(0)))


def count_tensors(monkeypatch):
    made = []
    real = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return made


class TestOpsOnPlainArrays:
    """With no Tensor operand an op returns the array it computed, byte for
    byte the Tensor op's data, and makes no Tensor; an array next to a
    Tensor is a constant."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_array_result_is_the_tensor_ops_data(self, rng, monkeypatch, name):
        op, operands = decode_op_cases(rng)[name]
        made = count_tensors(monkeypatch)
        got = op(*operands)
        assert made == []
        monkeypatch.undo()
        want = op(*(Tensor(a) for a in operands))
        assert type(got) is np.ndarray and type(want) is Tensor
        assert got.dtype == want.data.dtype and got.shape == want.shape
        assert got.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("name", ["conv1d_narrow", "stack", "matvec"])
    @pytest.mark.parametrize("tensor_at", [0, 1])
    def test_gradient_free_tensor_next_to_an_array(self, rng, name, tensor_at):
        op, operands = decode_op_cases(rng)[name]
        mixed = [Tensor(a) if i == tensor_at else a for i, a in enumerate(operands)]
        got = op(*mixed)
        assert type(got) is Tensor and not got.requires_grad and got._prev == ()
        assert got.data.tobytes() == op(*operands).tobytes()

    @pytest.mark.parametrize("name", ["conv1d_narrow", "stack", "matvec"])
    @pytest.mark.parametrize("tensor_at", [0, 1])
    def test_array_next_to_a_trained_tensor_is_a_constant(self, rng, name, tensor_at):
        op, operands = decode_op_cases(rng)[name]
        weights = rng.normal(size=op(*operands).shape)
        leaf = Tensor(operands[tensor_at].copy(), requires_grad=True)
        arrays = [a.copy() for a in operands]

        def build(wrap):
            return tsum(mul(op(*[leaf if i == tensor_at else wrap(a)
                                 for i, a in enumerate(arrays)]), Tensor(weights)))

        gradient_check(lambda: build(lambda a: a), {"leaf": leaf})
        build(lambda a: a).backward()
        with_arrays, leaf.grad = leaf.grad, None
        build(Tensor).backward()  # the same operands as constant Tensors
        assert with_arrays.tobytes() == leaf.grad.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, operands))


class TestAccumulate:
    """A leaf's first gradient is the array its op just made, not a copy;
    a pass-through or a view is copied, so later sums stay its own."""

    def recorded(self, monkeypatch):
        made = []
        real = Tensor._accumulate

        def recording(self, g, fresh=False):
            made.append((self, g))
            real(self, g, fresh)

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

    def test_scalar_gradient_is_an_array(self):
        lam = Tensor(0.5, requires_grad=True)
        (lam * Tensor(3.0)).backward()
        assert type(lam.grad) is np.ndarray and lam.grad.shape == ()
        assert float(lam.grad) == 3.0
