"""Gated recurrent unit cell used for the decoder state.

``gru_step`` is the one definition of the update.  Over Tensors it
records its graph, as training needs.  Over plain numpy arrays, the form
a decode keeps its states in, the same ``+``, ``*`` and ``1.0 - u`` and
the same ``sigmoid`` and ``tanh`` ops run on the arrays and return
arrays, so a child state costs its arithmetic and no Tensor.
The input may be one ``(D,)`` vector or ``(n, D)`` array rows, one per
child of a decode, with one ``(k2,)`` state for all rows or ``(n, k2)``
state rows, each child's parent state.  Each product on rows is one
vector-matrix product per row (``vecmat``), so row i of the ``(n, k2)``
result equals the step of row i alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DimensionMismatch
from .tensor import Operand, sigmoid, tanh, vecmat


@dataclass
class GruParams:
    """The nine GRU tensors, row-vector convention; a decode holds their
    plain arrays instead.

    Input-facing matrices are (D, k2), state-facing matrices (k2, k2),
    biases (k2,).
    """

    W_xr: Operand
    W_hr: Operand
    W_xu: Operand
    W_hu: Operand
    W_xc: Operand
    W_hc: Operand
    b_r: Operand
    b_u: Operand
    b_c: Operand


def input_products(x: Operand, p: GruParams) -> tuple[Operand, Operand, Operand]:
    """``x @ W_x*``; for (n, D) array rows, one vector-matrix product per
    row, each ``x[i]``'s bit for bit, which a plain ``x @ W`` is not."""
    return vecmat(x, p.W_xr), vecmat(x, p.W_xu), vecmat(x, p.W_xc)


def gru_step(x: Operand, h_prev: Operand, p: GruParams) -> Operand:
    """One GRU update: reset and update gates, candidate state, blend.

    ``x`` is one ``(D,)`` input or ``(n, D)`` rows, which give ``(n, k2)``
    states from one ``(k2,)`` state or from ``(n, k2)`` state rows.  The
    result is a Tensor if an operand is one, else an array.
    """
    d, k2 = p.W_xr.shape
    if (x.ndim not in (1, 2) or x.shape[-1] != d
            or h_prev.shape not in ((k2,), x.shape[:-1] + (k2,))):
        raise DimensionMismatch(f"gru_step got x {x.shape}, h {h_prev.shape} "
                                f"for params {p.W_xr.shape}")
    xr, xu, xc = input_products(x, p)
    hr, hu, hc = vecmat(h_prev, p.W_hr), vecmat(h_prev, p.W_hu), vecmat(h_prev, p.W_hc)
    r = sigmoid(xr + hr + p.b_r)
    u = sigmoid(xu + hu + p.b_u)
    c = tanh(xc + r * hc + p.b_c)
    return (1.0 - u) * h_prev + u * c
