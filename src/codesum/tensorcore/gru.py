"""Gated recurrent unit cell used for the decoder state.

``gru_step`` is the one definition of the update.  Over Tensors it
records its graph, as training needs.  Over plain numpy arrays, the form
a decode keeps its states in, the same ``+``, ``*`` and ``1.0 - u`` run
on the arrays and the gates are the array kernels ``sigmoid`` and
``tanh`` wrap, so a child state costs its arithmetic and no Tensor.
A step's state-side products (``h @ W_h*``) read only the previous state
and its input-side products (``x @ W_x*``) only the input, so a caller
stepping many children can compute each side once and pass it in.  What
is left is elementwise, so the children of one state advance in one
call: input-side products stacked as ``(n, k2)`` rows broadcast against
the parent's ``(k2,)`` state and state-side products, and row i of the
result equals the step of row i alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch
from .tensor import Tensor, sigmoid, sigmoid_array, tanh

Operand = Tensor | np.ndarray  # a Tensor, or a decode's plain array
GruProducts = tuple[Operand, Operand, Operand]  # reset, update and candidate terms


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


def input_products(x: Operand, p: GruParams) -> GruProducts:
    """``x @ W_x*``; for (n, D) array rows, batched vector-matrix products
    whose row i is ``x[i]``'s bit for bit, which a plain ``x @ W`` is not."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return tuple(np.matmul(x[:, None, :], w)[:, 0, :] for w in (p.W_xr, p.W_xu, p.W_xc))
    return x @ p.W_xr, x @ p.W_xu, x @ p.W_xc


def state_products(h: Operand, p: GruParams) -> GruProducts:
    return h @ p.W_hr, h @ p.W_hu, h @ p.W_hc


def gru_step(x: Operand | None, h_prev: Operand, p: GruParams,
             xs: GruProducts | None = None, hs: GruProducts | None = None) -> Operand:
    """One GRU update: reset and update gates, candidate state, blend.

    ``xs`` and ``hs`` are ``input_products(x, p)`` and
    ``state_products(h_prev, p)``, computed here unless given; with
    ``x=None``, ``xs`` may hold ``(n, k2)`` rows, one child each.  The
    result is a Tensor if ``h_prev`` is one, else an array.
    """
    if (x is not None and x.shape != (p.W_xr.shape[0],)) or h_prev.shape != (p.W_hr.shape[0],):
        raise DimensionMismatch(f"gru_step got x {getattr(x, 'shape', None)}, "
                                f"h {h_prev.shape} for params {p.W_xr.shape}")
    gate, squash = (sigmoid, tanh) if isinstance(h_prev, Tensor) else (sigmoid_array, np.tanh)
    xr, xu, xc = input_products(x, p) if xs is None else xs
    hr, hu, hc = state_products(h_prev, p) if hs is None else hs
    r = gate(xr + hr + p.b_r)
    u = gate(xu + hu + p.b_u)
    c = squash(xc + r * hc + p.b_c)
    return (1.0 - u) * h_prev + u * c
