"""Gradient contract: every differentiable op against central differences."""

import numpy as np
import pytest

from codesum.tensorcore import (
    GruParams,
    Tensor,
    conv1d_narrow,
    gradient_check,
    gru_step,
    l2_normalize,
    log,
    matmul,
    matvec,
    mul,
    pick,
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
from codesum.tensorcore.gradcheck import GradientMismatch


def leaf(rng, *shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def test_sigmoid_derivative_at_zero():
    x = Tensor(0.0, requires_grad=True)
    sigmoid(x).backward()
    assert x.grad == pytest.approx(0.25)


def test_gradcheck_catches_wrong_gradients(rng):
    x = leaf(rng, 4)

    def correct():
        return tsum(mul(x, x))

    gradient_check(correct, {"x": x})

    # A loss that depends on hidden state cannot agree with its own
    # recorded gradients; the checker must notice.
    state = {"flip": 1.0}

    def unstable():
        state["flip"] = -state["flip"]
        return tsum(mul(x, np.full(4, state["flip"])))

    with pytest.raises(GradientMismatch):
        gradient_check(unstable, {"x": x})


class TestElementwiseGrads:
    def test_add_mul_broadcast(self, rng):
        a = leaf(rng, 3, 4)
        v = leaf(rng, 4)

        def build():
            return tsum(mul(a + v, a * v))

        gradient_check(build, {"a": a, "v": v})

    def test_scalar_mix(self, rng):
        s = leaf(rng, )

        def build():
            return s * 3.0 + (1.0 - s) * 0.25

        gradient_check(build, {"s": s})

    def test_tanh_sigmoid_log(self, rng):
        x = leaf(rng, 5, scale=0.5)

        def build():
            return tsum(log(sigmoid(tanh(x)) + 0.1))

        gradient_check(build, {"x": x})

    def test_prelu_grad_including_leak(self, rng):
        x = leaf(rng, 8)
        a = Tensor(0.3, requires_grad=True)

        def build():
            return tsum(mul(prelu(x, a), rng2))

        rng2 = np.random.default_rng(9).normal(size=8)
        gradient_check(build, {"x": x, "a": a})


class TestLinalgGrads:
    def test_matmul_all_arities(self, rng):
        m = leaf(rng, 3, 4)
        v = leaf(rng, 4)
        u = leaf(rng, 3)

        def build():
            vm = matmul(u, m)          # 1d @ 2d
            vv = matmul(v, v)          # dot
            return tsum(mul(vm, v)) + vv

        gradient_check(build, {"m": m, "v": v, "u": u})

    def test_rows_scatter(self, rng):
        table = leaf(rng, 5, 3)
        ids = np.array([0, 2, 2, 4])

        def build():
            return tsum(mul(rows(table, ids), w))

        w = np.random.default_rng(3).normal(size=(4, 3))
        gradient_check(build, {"table": table})

    def test_pick_tmax_reshape(self, rng):
        v = leaf(rng, 6)

        def build():
            return pick(v, 2) + tmax(v * v) + tsum(reshape(v, (2, 3)))

        gradient_check(build, {"v": v})


class TestStructuredGrads:
    def test_conv1d_gradient(self, rng):
        x = leaf(rng, 4, 2)
        k = leaf(rng, 2, 2, 3)

        def build():
            return tsum(mul(conv1d_narrow(x, k), w))

        w = np.random.default_rng(4).normal(size=(3, 3))
        gradient_check(build, {"x": x, "k": k})

    def test_softmax_gradient(self, rng):
        v = leaf(rng, 5)

        def build():
            return tsum(mul(softmax(v), w))

        w = np.random.default_rng(5).normal(size=5)
        gradient_check(build, {"v": v})

    def test_row_softmax_gradient(self, rng):
        m = leaf(rng, 3, 4)

        def build():
            return tsum(mul(softmax(m), w))

        w = np.random.default_rng(8).normal(size=(3, 4))
        gradient_check(build, {"m": m})

    def test_stack_gradient(self, rng):
        a, b = leaf(rng, 3), leaf(rng, 3)

        def build():
            # ``a`` twice: both of its rows reach its gradient.
            return tsum(mul(stack([a, b, a]), w))

        w = np.random.default_rng(9).normal(size=(3, 3))
        gradient_check(build, {"a": a, "b": b})

    def test_matvec_gradient(self, rng):
        m, xs = leaf(rng, 5, 3), leaf(rng, 2, 3)

        def build():
            return tsum(mul(matvec(m, xs), w))

        w = np.random.default_rng(10).normal(size=(2, 5))
        gradient_check(build, {"m": m, "xs": xs})

    def test_l2_normalize_gradient(self, rng):
        m = leaf(rng, 3, 3)

        def build():
            return tsum(mul(l2_normalize(m), w))

        w = np.random.default_rng(6).normal(size=(3, 3))
        gradient_check(build, {"m": m})

    def test_gru_step_gradient_wrt_everything(self, rng):
        d, k = 3, 3
        p = GruParams(
            W_xr=leaf(rng, d, k), W_hr=leaf(rng, k, k), W_xu=leaf(rng, d, k),
            W_hu=leaf(rng, k, k), W_xc=leaf(rng, d, k), W_hc=leaf(rng, k, k),
            b_r=leaf(rng, k), b_u=leaf(rng, k), b_c=leaf(rng, k))
        x = leaf(rng, d)
        h = leaf(rng, k)

        def build():
            return tsum(mul(gru_step(x, h, p), w))

        w = np.random.default_rng(7).normal(size=k)
        tensors = {"x": x, "h": h}
        tensors.update(vars(p))
        gradient_check(build, tensors)

    def test_bptt_chain_through_two_gru_steps(self, rng):
        d = k = 2
        p = GruParams(
            W_xr=leaf(rng, d, k), W_hr=leaf(rng, k, k), W_xu=leaf(rng, d, k),
            W_hu=leaf(rng, k, k), W_xc=leaf(rng, d, k), W_hc=leaf(rng, k, k),
            b_r=leaf(rng, k), b_u=leaf(rng, k), b_c=leaf(rng, k))
        x1 = leaf(rng, d)
        x2 = leaf(rng, d)
        h0 = leaf(rng, k)

        def build():
            h1 = gru_step(x1, h0, p)
            h2 = gru_step(x2, h1, p)
            return tsum(mul(h2, np.array([1.0, -2.0])))

        tensors = {"x1": x1, "x2": x2, "h0": h0}
        tensors.update(vars(p))
        gradient_check(build, tensors)
