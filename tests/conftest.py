"""Shared builders for model-level tests."""

from __future__ import annotations

import numpy as np
import pytest

from codesum.corpus.vocabulary import SPECIAL_TOKENS, Vocabulary
from codesum.model import EncodedSnippet, ModelParams, param_shapes
from codesum.tensorcore import Tensor


def make_vocab(tokens: list[str]) -> Vocabulary:
    return Vocabulary(list(SPECIAL_TOKENS) + list(tokens))


def make_params(vocab_size: int, d: int = 2, k1: int = 2, k2: int = 2,
                w1: int = 1, w2: int = 1, w3: int = 1,
                rng: np.random.Generator | None = None,
                scale: float = 0.3) -> ModelParams:
    """Random small parameters with every tensor trainable."""
    if rng is None:
        rng = np.random.default_rng(0)
    shapes = param_shapes(vocab_size, d, k1, k2, w1, w2, w3, copy=True)
    params = ModelParams.from_named({
        name: Tensor(0.25 if name == "prelu_a1" else rng.normal(0.0, scale, size=shape),
                     requires_grad=True)
        for name, shape in shapes
    })
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
