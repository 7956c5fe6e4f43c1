"""Gated recurrent unit cell used for the decoder state.

A step's state-side products (``h @ W_h*``) read only the previous state
and its input-side products (``x @ W_x*``) only the input, so a caller
stepping many children can compute each side once and pass it in.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DimensionMismatch
from .tensor import Tensor, sigmoid, tanh

GruProducts = tuple[Tensor, Tensor, Tensor]  # reset, update and candidate terms


@dataclass
class GruParams:
    """The nine GRU tensors, row-vector convention.

    Input-facing matrices are (D, k2), state-facing matrices (k2, k2),
    biases (k2,).
    """

    W_xr: Tensor
    W_hr: Tensor
    W_xu: Tensor
    W_hu: Tensor
    W_xc: Tensor
    W_hc: Tensor
    b_r: Tensor
    b_u: Tensor
    b_c: Tensor


def input_products(x: Tensor, p: GruParams) -> GruProducts:
    return x @ p.W_xr, x @ p.W_xu, x @ p.W_xc


def state_products(h: Tensor, p: GruParams) -> GruProducts:
    return h @ p.W_hr, h @ p.W_hu, h @ p.W_hc


def gru_step(x: Tensor | None, h_prev: Tensor, p: GruParams,
             xs: GruProducts | None = None, hs: GruProducts | None = None) -> Tensor:
    """One GRU update: reset and update gates, candidate state, blend.

    ``xs`` and ``hs`` are ``input_products(x, p)`` and
    ``state_products(h_prev, p)``, computed here unless given.
    """
    if (x is not None and x.shape != (p.W_xr.shape[0],)) or h_prev.shape != (p.W_hr.shape[0],):
        raise DimensionMismatch(f"gru_step got x {getattr(x, 'shape', None)}, "
                                f"h {h_prev.shape} for params {p.W_xr.shape}")
    xr, xu, xc = input_products(x, p) if xs is None else xs
    hr, hu, hc = state_products(h_prev, p) if hs is None else hs
    r = sigmoid(xr + hr + p.b_r)
    u = sigmoid(xu + hu + p.b_u)
    c = tanh(xc + r * hc + p.b_c)
    return (1.0 - u) * h_prev + u * c
