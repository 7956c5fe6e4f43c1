"""Gated recurrent unit cell used for the decoder state.

``gru_step`` is the one definition of the update.  Over Tensors it
records its graph, as training needs.  Over plain numpy arrays, the form
a decode keeps its states in, the same ``+``, ``*`` and ``1.0 - u`` and
the same ``sigmoid`` and ``tanh`` ops run on the arrays and return
arrays, so a child state costs its arithmetic and no Tensor.
The input may be one ``(D,)`` vector or ``(n, D)`` array rows, one per
child of a decode: the state-side products (``h @ W_h*``) are then
computed once and broadcast over the rows, the input-side products
(``x @ W_x*``) are one batched product, and row i of the ``(n, k2)``
result equals the step of row i alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch
from .tensor import Operand, sigmoid, tanh


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
    """``x @ W_x*``; for (n, D) array rows, batched vector-matrix products
    whose row i is ``x[i]``'s bit for bit, which a plain ``x @ W`` is not."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return tuple(np.matmul(x[:, None, :], w)[:, 0, :] for w in (p.W_xr, p.W_xu, p.W_xc))
    return x @ p.W_xr, x @ p.W_xu, x @ p.W_xc


def gru_step(x: Operand, h_prev: Operand, p: GruParams) -> Operand:
    """One GRU update: reset and update gates, candidate state, blend.

    ``x`` is one ``(D,)`` input or ``(n, D)`` rows, which give ``(n, k2)``
    states.  The result is a Tensor if an operand is one, else an array.
    """
    d, k2 = p.W_xr.shape
    if x.ndim not in (1, 2) or x.shape[-1] != d or h_prev.shape != (k2,):
        raise DimensionMismatch(f"gru_step got x {x.shape}, h {h_prev.shape} "
                                f"for params {p.W_xr.shape}")
    xr, xu, xc = input_products(x, p)
    hr, hu, hc = h_prev @ p.W_hr, h_prev @ p.W_hu, h_prev @ p.W_hc
    r = sigmoid(xr + hr + p.b_r)
    u = sigmoid(xu + hu + p.b_u)
    c = tanh(xc + r * hc + p.b_c)
    return (1.0 - u) * h_prev + u * c
