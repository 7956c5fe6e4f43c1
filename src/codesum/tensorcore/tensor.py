"""Reverse-mode automatic differentiation over numpy arrays.

Only the operations the summarization model actually needs are provided:
elementwise arithmetic with numpy broadcasting, a few matrix products,
narrow 1-D convolution, softmax/sigmoid/tanh/PReLU, whole-matrix L2
normalization, row gathering for embedding lookups, stacking, and scalar
reductions.  Each op records a backward closure; ``Tensor.backward``
replays them in reverse topological order and accumulates gradients into
the ``grad`` field of every tensor created with ``requires_grad=True``.

The ops a decode calls (``rows``, ``conv1d_narrow``, ``l2_normalize``,
``softmax``, ``sigmoid``, ``tanh``, ``tmax``, ``reshape``, ``stack`` and
``matvec``) also take plain arrays.  When no operand is a Tensor they
return the plain array they computed and make no Tensor, so the model's
one forward definition serves training and decoding alike.  An array
next to a Tensor is a constant: it gets no gradient.

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
        self.requires_grad = requires_grad or (bool(_prev) and any(p.requires_grad for p in _prev))
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

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` to the gradient.  A first gradient is copied, unless
        ``fresh`` says the op has just made ``g`` in this tensor's shape
        and keeps no other reference to it: then an array of this tensor's
        dtype is kept as it is.  A pass-through or a view must be copied,
        or later sums into this gradient would write into another's."""
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=None if fresh else True)
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
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("division only supported by python scalars")
        return mul(self, _wrap(1.0 / float(other)))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __rmatmul__(self, other):
        return matmul(_wrap(other), self)


Operand = Tensor | np.ndarray  # a Tensor, or a plain array such as a decode's


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A tensor that never receives a gradient."""
    return Tensor(x, requires_grad=False)


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


def _live(x) -> bool:
    """Whether ``x`` takes a gradient: a Tensor that requires one."""
    return isinstance(x, Tensor) and x.requires_grad


def _make(data, prev: tuple, backward) -> Operand:
    """The op's result: ``data`` itself when no operand is a Tensor, else
    a Tensor whose graph keeps the operands that take a gradient."""
    if Tensor not in map(type, prev):
        return data
    live = tuple(p for p in prev if _live(p))
    return Tensor(data, _prev=live, _backward=backward if live else None)


# -- elementwise arithmetic ------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(-g, fresh=True)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape), fresh=True)

    return _make(data, (a, b), backward)


# -- matrix products ---------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for the 1-D/2-D combinations numpy's ``@`` allows."""
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise DimensionMismatch(f"matmul needs 1-D or 2-D operands, got {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.ndim == 1 and b.ndim == 1:          # dot -> scalar
            if a.requires_grad:
                a._accumulate(g * b.data, fresh=True)
            if b.requires_grad:
                b._accumulate(g * a.data, fresh=True)
        elif a.ndim == 1:                        # (m,) @ (m,n) -> (n,)
            if a.requires_grad:
                a._accumulate(b.data @ g, fresh=True)
            if b.requires_grad:
                b._accumulate(np.outer(a.data, g), fresh=True)
        elif b.ndim == 1:                        # (m,k) @ (k,) -> (m,)
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data), fresh=True)
            if b.requires_grad:
                b._accumulate(a.data.T @ g, fresh=True)
        else:                                    # (m,k) @ (k,n) -> (m,n)
            if a.requires_grad:
                a._accumulate(g @ b.data.T, fresh=True)
            if b.requires_grad:
                b._accumulate(a.data.T @ g, fresh=True)

    return _make(data, (a, b), backward)


def matvec(m: Operand, xs: Operand) -> Operand:
    """``m @ x`` for each row ``x`` of ``xs``: (n, k) with (T, k) gives (T, n).
    Each row is the product ``matmul(m, x)`` makes, bit for bit; the
    backward pass is one matrix product per operand over all T rows."""
    md, xd = as_array(m), as_array(xs)
    data = np.stack([md @ x for x in xd])

    def backward(g):
        if _live(m):
            m._accumulate(g.T @ xd, fresh=True)
        if _live(xs):
            xs._accumulate(g @ md, fresh=True)

    return _make(data, (m, xs), backward)


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(g)), fresh=True)

    return _make(a.data.sum(), (a,), backward)


def tmax(a: Operand) -> Operand:
    """Maximum over all entries; the gradient flows to the first argmax."""
    ad = as_array(a)
    idx = int(np.argmax(ad))

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(ad)
            ga.flat[idx] = float(g)
            a._accumulate(ga, fresh=True)

    return _make(np.asarray(ad.flat[idx]), (a,), backward)


def pick(a: Tensor, index: int) -> Tensor:
    """One entry of a 1-D tensor as a scalar."""
    if a.ndim != 1:
        raise DimensionMismatch("pick expects a vector")
    idx = int(index)

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[idx] = float(g)
            a._accumulate(ga, fresh=True)

    return _make(a.data[idx], (a,), backward)


# -- shape plumbing -----------------------------------------------------------

def reshape(a: Operand, shape: Sequence[int]) -> Operand:
    shape = tuple(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(as_array(a).reshape(shape), (a,), backward)


def rows(table: Operand, ids: int | Sequence[int] | np.ndarray) -> Operand:
    """Copies of rows of a matrix, or of one row by one id (embedding
    lookup); backward scatter-adds in place."""
    idx = np.asarray(ids, dtype=np.intp)
    if table.ndim != 2:
        raise DimensionMismatch("rows expects a matrix table")

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

    return _make(np.take(as_array(table), idx, axis=0), (table,), backward)


def stack(vectors: Sequence[Operand]) -> Operand:
    """Vectors of one length as the rows of a matrix."""
    def backward(g):
        for row, v in zip(g, vectors):
            if _live(v):
                v._accumulate(row)

    return _make(np.stack([as_array(v) for v in vectors]), tuple(vectors), backward)


# -- nonlinearities -----------------------------------------------------------

def sigmoid(a: Operand) -> Operand:
    """The logistic function, with one exponential that never overflows:
    e = exp(-|x|) gives 1 / (1 + e) or e / (1 + e) by sign."""
    x = as_array(a)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out * (1.0 - out), fresh=True)

    return _make(out, (a,), backward)


def tanh(a: Operand) -> Operand:
    out = np.tanh(as_array(a))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out * out), fresh=True)

    return _make(out, (a,), backward)


def prelu(x: Tensor, leak: Tensor) -> Tensor:
    """max(x, 0) + leak * min(x, 0) with a trainable scalar leak."""
    if leak.data.size != 1:
        raise DimensionMismatch("prelu leak must be a scalar")
    xd = x.data
    a = float(leak.data)
    out = np.where(xd > 0, xd, a * xd)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * np.where(xd > 0, 1.0, a), fresh=True)
        if leak.requires_grad:
            leak._accumulate(np.sum(g * np.minimum(xd, 0.0)).reshape(leak.shape))

    return _make(out, (x, leak), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log of a non-positive value")
    out = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data, fresh=True)

    return _make(out, (a,), backward)


def softmax(v: Operand) -> Operand:
    """Stable softmax of a vector or of each row of a matrix: each row as
    of that vector alone, bit for bit; output is nonnegative and sums to one."""
    if v.ndim not in (1, 2):
        raise DimensionMismatch("softmax expects a vector or a matrix")
    x = as_array(v)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if v.requires_grad:
            v._accumulate(out * (g - np.vecdot(g, out)[..., None]), fresh=True)

    return _make(out, (v,), backward)


def l2_normalize(m: Operand) -> Operand:
    """Divide a matrix by its whole-matrix (Frobenius) norm plus a guard."""
    md = as_array(m)
    norm = float(np.sqrt(np.sum(md * md)))
    out = md * (1.0 / (norm + L2_NORM_EPS))

    def backward(g):
        if m.requires_grad:
            gm = g * (1.0 / (norm + L2_NORM_EPS))
            if norm > 0.0:
                gm = gm - (float(np.sum(g * md)) / (norm * (norm + L2_NORM_EPS) ** 2)) * md
            m._accumulate(gm, fresh=True)

    return _make(out, (m,), backward)


# -- convolution ---------------------------------------------------------------

def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """(width, L - width + 1, D) view whose entry j is ``x[j:j + L - width + 1]``."""
    x = np.ascontiguousarray(x)
    return np.ndarray((width, len(x) - width + 1, x.shape[1]), x.dtype, x, 0,
                      x.strides[:1] + x.strides)


def conv1d_narrow(inp: Operand, kernel: Operand) -> Operand:
    """Narrow 1-D convolution along the sequence axis.

    ``inp`` is (L, Din), ``kernel`` is (Din, w, Dout); the result is
    (L - w + 1, Dout) with out[p, o] = sum_j sum_i inp[p+j, i] * kernel[i, j, o].
    The forward pass and the kernel's gradient run the ``w`` shifted
    products, one per kernel offset, as one batched BLAS product; the
    input's gradient adds them one offset at a time, in offset order.
    This reorders the definition's additions.
    """
    if inp.ndim != 2 or kernel.ndim != 3:
        raise DimensionMismatch(f"conv1d_narrow got input {inp.shape}, kernel {kernel.shape}")
    length, d_in = inp.shape
    k_in, width, _ = kernel.shape
    if d_in != k_in:
        raise DimensionMismatch(f"input channels {d_in} != kernel channels {k_in}")
    if width < 1:
        raise DimensionMismatch("kernel width must be >= 1")
    if width > length:
        raise KernelTooLong(f"kernel width {width} exceeds input length {length}")

    positions = length - width + 1
    xd, kd = as_array(inp), as_array(kernel)
    data = np.matmul(_windows(xd, width), kd.transpose(1, 0, 2)).sum(axis=0)

    def backward(g):
        if _live(inp):
            gi = np.zeros_like(xd)
            for j in range(width):  # a batched product would hold w shifted gi-sized rows
                gi[j:j + positions] += g @ kd[:, j, :].T
            inp._accumulate(gi, fresh=True)
        if _live(kernel):
            gk = np.matmul(_windows(xd, width).transpose(0, 2, 1), g)
            kernel._accumulate(gk.transpose(1, 0, 2).copy(), fresh=True)

    return _make(data, (inp, kernel), backward)
