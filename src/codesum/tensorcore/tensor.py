"""Reverse-mode automatic differentiation over numpy arrays.

Only the operations the summarization model actually needs are provided:
elementwise arithmetic with numpy broadcasting, a few matrix products,
narrow 1-D convolution, softmax/sigmoid/tanh/PReLU, whole-matrix L2
normalization, row gathering for embedding lookups, stacking, and scalar
reductions.

Every op is a forward pass plus one vector-Jacobian product (VJP) per
operand.  It computes its result from its operands' arrays and hands
``_make`` that result and, for each operand, the function that maps the
result's gradient to the operand's.  Each op takes Tensors, plain arrays
and, for the arithmetic, Python numbers.  When no operand is a Tensor,
``_make`` returns the array itself and makes no Tensor, so the model's one
forward definition serves training and decoding alike.  Otherwise it
records a node over the operands that take a gradient; an array or a
number next to a Tensor takes none.  ``Tensor.backward`` replays the
nodes in reverse topological order and adds each VJP into its operand's
``grad``, where ``Tensor._accumulate`` decides when a gradient is copied.
A VJP that adds its gradient in place itself returns ``None``.

The gradient contract is checked against central finite differences in
the test suite; see ``gradcheck.gradient_check``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch, KernelTooLong

# Denominator guard for whole-matrix L2 normalization.
L2_NORM_EPS = 1e-8


def _as_float_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")
    # numpy defers ``ndarray <op> Tensor`` to the reflected operators below
    # instead of building an object array of per-element products.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False,
                 _prev: tuple[Tensor, ...] = (), _backward=None):
        self.data = _as_float_array(data)
        self.grad: np.ndarray | None = None
        # ``_make`` puts only operands that take a gradient in ``_prev``.
        self.requires_grad = requires_grad or bool(_prev)
        self._prev = _prev
        self._backward = _backward

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- gradient propagation -----------------------------------------------

    def _accumulate(self, g: np.ndarray, upstream: np.ndarray) -> None:
        """Add ``g``, a VJP of the gradient ``upstream``, to the gradient.
        A first ``g`` that owns its data and is not ``upstream`` passed
        through was just made by the VJP, and is kept as an array of this
        tensor's dtype; a pass-through or a view is copied, or later sums
        into this gradient would write into another's."""
        if self.grad is None:
            made = g is not upstream and g.base is None
            self.grad = np.array(g, dtype=self.data.dtype, copy=None if made else True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (a scalar unless ``grad`` is given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        # Iterative topological sort; BPTT chains can get deep.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        seed = np.asarray(grad, dtype=self.data.dtype)
        self._accumulate(seed, seed)  # copied: the caller keeps the seed
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __rsub__(self, other):
        return add(other, neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


Operand = Tensor | np.ndarray  # a Tensor, or a plain array such as a decode's


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` to undo numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def as_array(x: Operand) -> np.ndarray:
    """A Tensor's array, or an array as it is."""
    return x.data if isinstance(x, Tensor) else x


def _make(data, *operand_vjps) -> Operand:
    """The op's result from its operands, each followed by its VJP:
    ``data`` itself when no operand is a Tensor, else a Tensor whose node
    keeps the operands that take a gradient, with their VJPs."""
    if Tensor not in map(type, operand_vjps):
        return data
    pairs = iter(operand_vjps)
    live = [(x, vjp) for x, vjp in zip(pairs, pairs) if type(x) is Tensor and x.requires_grad]

    def backward(g):
        for x, vjp in live:
            gx = vjp(g)
            if gx is not None:
                x._accumulate(gx, g)

    return Tensor(data, _prev=tuple([x for x, _ in live]), _backward=backward if live else None)


def _one_hot(like: np.ndarray, idx: int, g) -> np.ndarray:
    """Zeros shaped as ``like`` with the scalar ``g`` at flat index ``idx``."""
    out = np.zeros_like(like)
    out.flat[idx] = float(g)
    return out


# -- elementwise arithmetic ------------------------------------------------

def add(a: Operand, b: Operand) -> Operand:
    return _make(as_array(a) + as_array(b),
                 a, lambda g: _unbroadcast(g, a.shape), b, lambda g: _unbroadcast(g, b.shape))


def neg(a: Operand) -> Operand:
    return _make(-as_array(a), a, lambda g: -g)


def mul(a: Operand, b: Operand) -> Operand:
    ad, bd = as_array(a), as_array(b)
    return _make(ad * bd, a, lambda g: _unbroadcast(g * bd, a.shape),
                 b, lambda g: _unbroadcast(g * ad, b.shape))


# -- matrix products ---------------------------------------------------------

def matmul(a: Operand, b: Operand) -> Operand:
    """``a @ b`` for a vector ``a``: a scalar with a vector ``b``, a vector
    with a matrix ``b``."""
    ad, bd = as_array(a), as_array(b)
    if np.ndim(ad) != 1 or np.ndim(bd) not in (1, 2):
        raise DimensionMismatch(
            f"matmul needs a vector and a vector or a matrix, got {np.shape(ad)} @ {np.shape(bd)}")
    if bd.ndim == 1:
        return _make(np.asarray(ad @ bd), a, lambda g: g * bd, b, lambda g: g * ad)
    return _make(ad @ bd, a, lambda g: bd @ g, b, lambda g: np.outer(ad, g))


def matvec(m: Operand, xs: Operand) -> Operand:
    """``m @ x`` for each row ``x`` of ``xs``: (n, k) with (T, k) gives (T, n).
    One batched product of ``m`` with T (k, 1) columns, so each row is
    ``m @ x`` of its ``x`` alone, bit for bit; the backward pass is one
    matrix product per operand over all T rows."""
    md, xd = as_array(m), as_array(xs)
    return _make(np.matmul(md, xd[:, :, None])[:, :, 0], m, lambda g: g.T @ xd,
                 xs, lambda g: g @ md)


def vecmat(x: Operand, m: Operand) -> Operand:
    """``x @ m`` for one vector ``x``, or for each row of an (n, k) array
    ``x`` as its own vector-matrix product: row i is ``x[i] @ m`` bit for
    bit, which one (n, k) @ (k, p) product is not."""
    if type(x) is np.ndarray and x.ndim == 2:
        return np.matmul(x[:, None, :], m)[:, 0, :]
    return matmul(x, m)


# -- reductions ---------------------------------------------------------------

def tsum(a: Operand) -> Operand:
    ad = as_array(a)
    return _make(np.asarray(ad.sum()), a, lambda g: np.full_like(ad, float(g)))


def tmax(a: Operand) -> Operand:
    """Maximum over the last axis, one per row of a batch; the gradient
    flows to each row's first argmax."""
    ad = as_array(a)

    def vjp(g):
        gm = np.zeros_like(ad)
        np.put_along_axis(gm, np.argmax(ad, axis=-1)[..., None], np.asarray(g)[..., None], -1)
        return gm

    return _make(np.asarray(ad.max(axis=-1)), a, vjp)


def pick(a: Operand, index: int) -> Operand:
    """One entry of a vector as a scalar."""
    if a.ndim != 1:
        raise DimensionMismatch("pick expects a vector")
    ad, idx = as_array(a), int(index)
    return _make(np.asarray(ad[idx]), a, lambda g: _one_hot(ad, idx, g))


# -- shape plumbing -----------------------------------------------------------

def reshape(a: Operand, shape: Sequence[int]) -> Operand:
    return _make(as_array(a).reshape(shape), a, lambda g: g.reshape(a.shape))


def rows(table: Operand, ids: int | Sequence[int] | np.ndarray) -> Operand:
    """Copies of rows of a matrix, or of one row by one id (embedding
    lookup).  Backward scatter-adds into the table's gradient in place:
    a dense gradient would be table-sized on every gather."""
    idx = np.asarray(ids, dtype=np.intp)
    if table.ndim != 2:
        raise DimensionMismatch("rows expects a matrix table")
    td = as_array(table)

    def vjp(g):
        if table.grad is None:
            table.grad = np.zeros_like(td)
        np.add.at(table.grad, idx, g)

    return _make(np.take(td, idx, axis=0), table, vjp)


def stack(vectors: Sequence[Operand]) -> Operand:
    """Vectors of one length as the rows of a matrix."""
    return _make(np.stack([as_array(v) for v in vectors]),
                 *(x for i, v in enumerate(vectors) for x in (v, lambda g, i=i: g[i])))


# -- nonlinearities -----------------------------------------------------------

def sigmoid(a: Operand) -> Operand:
    """The logistic function, with one exponential that never overflows:
    e = exp(-|x|) gives 1 / (1 + e) or e / (1 + e) by sign."""
    x = as_array(a)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    return _make(out, a, lambda g: g * out * (1.0 - out))


def tanh(a: Operand) -> Operand:
    out = np.tanh(as_array(a))
    return _make(out, a, lambda g: g * (1.0 - out * out))


def prelu(x: Operand, leak: Operand) -> Operand:
    """max(x, 0) + leak * min(x, 0) with a trainable scalar leak."""
    if np.size(as_array(leak)) != 1:
        raise DimensionMismatch("prelu leak must be a scalar")
    xd, a = as_array(x), float(as_array(leak))
    return _make(np.where(xd > 0, xd, a * xd),
                 x, lambda g: g * np.where(xd > 0, 1.0, a),
                 leak, lambda g: np.sum(g * np.minimum(xd, 0.0)).reshape(leak.shape))


def log(a: Operand) -> Operand:
    ad = as_array(a)
    if np.any(ad <= 0):
        raise ValueError("log of a non-positive value")
    return _make(np.log(ad), a, lambda g: g / ad)


def softmax(v: Operand) -> Operand:
    """Stable softmax of a vector or of each row of a matrix: each row as
    of that vector alone, bit for bit; output is nonnegative and sums to one."""
    if v.ndim not in (1, 2):
        raise DimensionMismatch("softmax expects a vector or a matrix")
    x = as_array(v)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return _make(out, v, lambda g: out * (g - np.vecdot(g, out)[..., None]))


def l2_normalize(m: Operand) -> Operand:
    """Divide a matrix by its whole-matrix (Frobenius) norm plus a guard;
    an array may hold a batch of matrices along leading axes, each divided
    by its own norm, bit for bit as alone."""
    if m.ndim < 2 or m.ndim > 2 and type(m) is Tensor:
        raise DimensionMismatch(f"l2_normalize got shape {m.shape}; a batch must be an array")
    md = as_array(m)
    norm = np.sqrt(np.sum(md * md, axis=(-2, -1), keepdims=True))

    def vjp(g):
        n = norm.item()
        gm = g * (1.0 / (n + L2_NORM_EPS))
        if n > 0.0:
            gm = gm - (float(np.sum(g * md)) / (n * (n + L2_NORM_EPS) ** 2)) * md
        return gm

    return _make(md * (1.0 / (norm + L2_NORM_EPS)), m, vjp)


# -- convolution ---------------------------------------------------------------

def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """(..., width, L - width + 1, D) view of an (..., L, D) array whose
    entry [..., j, :, :] is ``x[..., j:j + L - width + 1, :]``."""
    x = np.ascontiguousarray(x)
    *batch, length, d = x.shape
    return np.ndarray((*batch, width, length - width + 1, d), x.dtype, x, 0,
                      x.strides[:-1] + x.strides[-2:])


def conv1d_narrow(inp: Operand, kernel: Operand) -> Operand:
    """Narrow 1-D convolution along the sequence axis.

    ``inp`` is (L, Din), ``kernel`` is (Din, w, Dout); the result is
    (L - w + 1, Dout) with out[p, o] = sum_j sum_i inp[p+j, i] * kernel[i, j, o].
    The forward pass and the kernel's gradient run the ``w`` shifted
    products, one per kernel offset, as one batched BLAS product; the
    input's gradient adds them one offset at a time, in offset order.
    This reorders the definition's additions.  An array input may carry
    leading batch axes, (..., L, Din); each entry's products are the
    (L - w + 1, Din) @ (Din, Dout) ones it has alone, summed in the same
    offset order, so each equals its convolution alone bit for bit.
    """
    if (inp.ndim < 2 or kernel.ndim != 3
            or inp.ndim > 2 and Tensor in (type(inp), type(kernel))):
        raise DimensionMismatch(f"conv1d_narrow got input {inp.shape}, kernel {kernel.shape}; "
                                "a batch of inputs must be arrays")
    length, d_in = inp.shape[-2:]
    k_in, width, _ = kernel.shape
    if d_in != k_in:
        raise DimensionMismatch(f"input channels {d_in} != kernel channels {k_in}")
    if width < 1:
        raise DimensionMismatch("kernel width must be >= 1")
    if width > length:
        raise KernelTooLong(f"kernel width {width} exceeds input length {length}")

    positions = length - width + 1
    xd, kd = as_array(inp), as_array(kernel)

    def vjp_inp(g):
        gi = np.zeros_like(xd)
        for j in range(width):  # a batched product would hold w shifted gi-sized rows
            gi[j:j + positions] += g @ kd[:, j, :].T
        return gi

    def vjp_kernel(g):
        gk = np.matmul(_windows(xd, width).transpose(0, 2, 1), g)
        return gk.transpose(1, 0, 2).copy()

    return _make(np.matmul(_windows(xd, width), kd.transpose(1, 0, 2)).sum(axis=-3),
                 inp, vjp_inp, kernel, vjp_kernel)
