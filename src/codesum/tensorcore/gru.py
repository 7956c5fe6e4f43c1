"""Gated recurrent unit cell used for the decoder state."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DimensionMismatch
from .tensor import Tensor, sigmoid, tanh


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


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One GRU update: reset and update gates, candidate state, blend."""
    if x.shape != (p.W_xr.shape[0],) or h_prev.shape != (p.W_hr.shape[0],):
        raise DimensionMismatch(
            f"gru_step got x {x.shape}, h {h_prev.shape} for params {p.W_xr.shape}")
    r = sigmoid(x @ p.W_xr + h_prev @ p.W_hr + p.b_r)
    u = sigmoid(x @ p.W_xu + h_prev @ p.W_hu + p.b_u)
    c = tanh(x @ p.W_xc + r * (h_prev @ p.W_hc) + p.b_c)
    return (1.0 - u) * h_prev + u * c
