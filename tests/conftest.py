"""Shared builders for model-level tests."""

from __future__ import annotations

import numpy as np
import pytest

from codesum.corpus.vocabulary import SPECIAL_TOKENS, Vocabulary
from codesum.model import EncodedSnippet, ModelParams
from codesum.tensorcore import GruParams, Tensor


def make_vocab(tokens: list[str]) -> Vocabulary:
    return Vocabulary(list(SPECIAL_TOKENS) + list(tokens))


def make_params(vocab_size: int, d: int = 2, k1: int = 2, k2: int = 2,
                w1: int = 1, w2: int = 1, w3: int = 1,
                rng: np.random.Generator | None = None,
                scale: float = 0.3) -> ModelParams:
    """Random small parameters with every tensor trainable."""
    if rng is None:
        rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)

    gru = GruParams(W_xr=t(d, k2), W_hr=t(k2, k2), W_xu=t(d, k2), W_hu=t(k2, k2),
                    W_xc=t(d, k2), W_hc=t(k2, k2), b_r=t(k2), b_u=t(k2), b_c=t(k2))
    params = ModelParams(
        E=t(vocab_size, d),
        K_l1=t(d, w1, k1), K_l2=t(k1, w2, k2),
        K_att=t(k2, w3, 1), K_copy=t(k2, w3, 1), K_lambda=t(k2, w3, 1),
        gru=gru, b=t(vocab_size), h_init=t(k2),
        prelu_a1=Tensor(0.25, requires_grad=True),
    )
    params.validate()
    return params


def make_snippet(ids, surface=None, pad_id: int = 5) -> EncodedSnippet:
    ids = np.asarray(ids, dtype=np.intp)
    if surface is None:
        surface = [f"t{int(i)}" for i in ids]
    return EncodedSnippet(ids=ids, surface=list(surface), pad_id=pad_id)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
