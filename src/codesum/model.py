"""The convolutional attention architecture.

Two stacked narrow convolutions over the embedded input subtokens,
gated per position by the decoder state and globally L2-normalized,
produce attention features.  Single-channel convolution heads over
those features yield the attention vector (alpha), the copy vector
(kappa), and the copy-versus-vocabulary gate (lambda).  The predicted
embedding is the alpha-weighted sum of input embeddings; ``vocab_head``
scores the predictions of many steps at once against the full embedding
table plus a frequency-initialized bias.
"""

from __future__ import annotations

import math
from collections import ChainMap
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

import numpy as np

from .corpus.vocabulary import BODY_END, BODY_START, Vocabulary
from .errors import DimensionMismatch, VariantDisabled
from .tensorcore import (
    GruParams,
    Operand,
    Tensor,
    as_array,
    conv1d_narrow,
    gru_step,
    l2_normalize,
    log,
    matmul,
    matvec,
    pick,
    prelu,
    reshape,
    rows,
    sigmoid,
    softmax,
    tmax,
)

# Down-weights the vocabulary head's UNK when the copy head could have
# produced the exact target.
UNK_PENALTY = math.exp(-10.0)
# Keeps the step loss finite when a target gets vanishing mass.
LOSS_FLOOR = 1e-12


def param_shapes(v: int, d: int, k1: int, k2: int, w1: int, w2: int, w3: int,
                 copy: bool) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable tensor, for vocabulary size ``v``.

    This table is the single declaration of the parameter set.  Its order
    is part of the random-stream contract: initialization and parameter
    dropout draw one array per entry in exactly this order.  Only the copy
    model has a copy head (``K_copy``, ``K_lambda``).
    """
    table = [
        ("gru.W_xr", (d, k2)), ("gru.W_hr", (k2, k2)),
        ("gru.W_xu", (d, k2)), ("gru.W_hu", (k2, k2)),
        ("gru.W_xc", (d, k2)), ("gru.W_hc", (k2, k2)),
        ("gru.b_r", (k2,)), ("gru.b_u", (k2,)), ("gru.b_c", (k2,)),
        ("E", (v, d)),                 # shared subtoken embeddings
        ("K_l1", (d, w1, k1)),
        ("K_l2", (k1, w2, k2)),
        ("K_att", (k2, w3, 1)),
    ]
    if copy:
        table += [("K_copy", (k2, w3, 1)), ("K_lambda", (k2, w3, 1))]
    table += [
        ("b", (v,)),                   # output bias
        ("h_init", (k2,)),             # first decoder state
        ("prelu_a1", ()),              # leak of the convolution nonlinearity
    ]
    return table


@dataclass
class ModelParams:
    """All trainable tensors of the summarizer; ``param_shapes`` lists
    their names and shapes.  The conv model holds ``None`` for the copy
    head.  The view ``decoder.suggest`` decodes on holds everything but
    the encoder's kernels (``K_l1``, ``K_l2``, ``prelu_a1``) as plain arrays.
    """

    E: Operand
    K_l1: Tensor
    K_l2: Tensor
    K_att: Operand
    K_copy: Operand | None
    K_lambda: Operand | None
    gru: GruParams
    b: Operand
    h_init: Operand
    prelu_a1: Tensor

    @classmethod
    def from_named(cls, tensors: Mapping[str, Tensor]) -> "ModelParams":
        """Inverse of ``named_tensors``: ``gru.*`` names fill the GRU."""
        rest = dict(tensors)
        gru = GruParams(**{f.name: rest.pop(f"gru.{f.name}") for f in fields(GruParams)})
        return cls(gru=gru, K_copy=rest.pop("K_copy", None),
                   K_lambda=rest.pop("K_lambda", None), **rest)

    @property
    def dims(self) -> tuple[int, int, int, int, int, int]:
        """(D, k1, k2, w1, w2, w3)"""
        d, w1, k1 = self.K_l1.shape
        _, w2, k2 = self.K_l2.shape
        w3 = self.K_att.shape[1]
        return d, k1, k2, w1, w2, w3

    def shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """The ``param_shapes`` table these tensors should follow."""
        return param_shapes(self.E.shape[0], *self.dims, copy=self.K_copy is not None)

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        for name, _ in self.shapes():
            owner, _, attr = name.rpartition(".")
            yield name, getattr(self.gru if owner else self, attr)


@dataclass
class EncodedSnippet:
    """Input subtoken sequence wrapped in body sentinels.

    ``ids`` carries vocabulary ids (UNK for out-of-vocabulary tokens);
    ``surface`` keeps the original strings so they can be copied;
    ``pad_id`` selects the embedding row used for convolution padding.
    """

    ids: np.ndarray
    surface: list[str]
    pad_id: int

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.surface) or len(self.ids) < 2:
            raise DimensionMismatch("snippet ids/surface must align and include sentinels")

    def __len__(self) -> int:
        return len(self.surface)


def encode_snippet(body: list[str], vocab: Vocabulary) -> EncodedSnippet:
    surface = [BODY_START, *body, BODY_END]
    ids = np.array([vocab.id(t) for t in surface], dtype=np.intp)
    return EncodedSnippet(ids=ids, surface=surface, pad_id=vocab.pad_id)


@dataclass
class StepOutput:
    """One decoding step: attention records, the predicted embedding, and
    the parameters the step ran on, which its vocabulary head reads; arrays
    when the step ran on arrays only, as a decode does."""

    alpha: Operand                # (Len(c),) attention over input positions
    nhat: Operand                 # (D,) predicted embedding
    params: ModelParams
    kappa: Operand | None = None  # (Len(c),) copy attention (copy model only)
    lam: Operand | None = None    # scalar gate in (0, 1) (copy model only)

    def vocab_row(self) -> Operand:
        """This step's (|V|,) vocabulary distribution: ``vocab_head`` with T = 1."""
        return reshape(vocab_head(reshape(self.nhat, (1, -1)), self.params), (-1,))


def padding_split(w1: int, w2: int, w3: int) -> tuple[int, int]:
    """Left/right PAD counts so the attention heads emit Len(c) positions."""
    total = (w1 - 1) + (w2 - 1) + (w3 - 1)
    return math.ceil(total / 2), total - math.ceil(total / 2)


def encode(snippet: EncodedSnippet, p: ModelParams) -> tuple[Tensor, Operand]:
    """conv(K_l2) over conv(K_l1) + PReLU of the padded embedding matrix:
    the attention features before the decoder state gates them; and the
    snippet's own (Len(c), D) rows of that one gather from ``E``, an array
    when ``E`` is one, as in a decode view."""
    left, right = padding_split(*p.dims[3:])
    c_emb = rows(p.E, np.pad(snippet.ids, (left, right), constant_values=snippet.pad_id))
    l1 = prelu(conv1d_narrow(c_emb, p.K_l1), p.prelu_a1)
    return conv1d_narrow(l1, p.K_l2), rows(c_emb, np.arange(left, left + len(snippet)))


def attention_features(encoded: Operand, h_prev: Operand, p: ModelParams) -> Operand:
    """Per-position attention features: ``encode``'s features ``encoded``,
    gated elementwise per position by the decoder state, then
    L2-normalized as a whole matrix; an array when the state and features
    are arrays."""
    k2 = p.dims[2]
    if h_prev.shape != (k2,):
        raise DimensionMismatch(f"state has shape {h_prev.shape}, expected ({k2},)")
    return l2_normalize(encoded * h_prev)


def attention_weights(l_feat: Operand, kernel: Operand) -> Operand:
    """softmax(conv(L_feat, kernel)); length is exactly Len(c); an array for arrays."""
    return softmax(reshape(conv1d_narrow(l_feat, kernel), (-1,)))


def vocab_head(nhats: Operand, p: ModelParams) -> Operand:
    """softmax(E n̂ + b) for each row n̂ of the (T, D) stack ``nhats``: the
    (T, |V|) vocabulary distributions of T steps.  Each row's logits are
    the vector product ``E @ n̂``, so a row equals the head of its step
    alone bit for bit, and ``E``'s gradient is one product over all rows;
    an array for an array stack and array ``E`` and ``b``."""
    return softmax(matvec(p.E, nhats) + p.b)


def conv_attention_step(snippet: EncodedSnippet, h_prev: Operand, p: ModelParams,
                        encoded: tuple[Operand, Operand] | None = None) -> StepOutput:
    """Vocabulary-only attention step; on an array state, encoding and
    heads, as in a decode, it makes no Tensor."""
    features, embedding = encode(snippet, p) if encoded is None else encoded
    alpha = attention_weights(attention_features(features, h_prev, p), p.K_att)
    return StepOutput(alpha=alpha, nhat=alpha @ embedding, params=p)


def copy_attention_step(snippet: EncodedSnippet, h_prev: Operand, p: ModelParams,
                        encoded: tuple[Operand, Operand] | None = None) -> StepOutput:
    """Attention step with the copy head and its meta-attention gate; on
    arrays it makes no Tensor, as ``conv_attention_step``."""
    if p.K_copy is None or p.K_lambda is None:
        raise VariantDisabled("copy head parameters are not present")
    features, embedding = encode(snippet, p) if encoded is None else encoded
    l_feat = attention_features(features, h_prev, p)
    alpha = attention_weights(l_feat, p.K_att)
    kappa = attention_weights(l_feat, p.K_copy)
    lam = tmax(sigmoid(reshape(conv1d_narrow(l_feat, p.K_lambda), (-1,))))
    return StepOutput(alpha=alpha, nhat=alpha @ embedding, params=p, kappa=kappa, lam=lam)


def step_fn(model_kind: str):
    if model_kind == "conv_attention":
        return conv_attention_step
    if model_kind == "copy_attention":
        return copy_attention_step
    raise ValueError(f"unknown model kind {model_kind!r}")


# -- training objective ----------------------------------------------------------


def step_loss_from_ids(step: StepOutput, target_id: int,
                       copy_indicator: np.ndarray | None,
                       penalize_unk: bool, vocab_row: Tensor | None = None) -> Tensor:
    """Negative log of the marginal probability of the target.

    ``copy_indicator`` marks the positions whose surface subtoken equals
    the target; ``penalize_unk`` applies the fixed down-weighting of the
    vocabulary head when the target is only reachable by copying.
    ``vocab_row`` is the step's row of a ``vocab_head`` over many steps,
    by default ``step.vocab_row()``.
    """
    r_target = pick(step.vocab_row() if vocab_row is None else vocab_row, target_id)
    if step.lam is None:
        prob = r_target
    else:
        mu = UNK_PENALTY if penalize_unk else 1.0
        copy_mass = matmul(step.kappa, copy_indicator)
        prob = step.lam * copy_mass + (1.0 - step.lam) * (mu * r_target)
    return -log(prob + LOSS_FLOOR)


def step_loss(step: StepOutput, target: str, snippet: EncodedSnippet,
              vocab: Vocabulary, vocab_row: Tensor | None = None) -> Tensor:
    """String-level loss: resolves the target id, the copy indicator and
    the UNK penalty from the snippet surface."""
    target_id = vocab.id(target)
    indicator = None
    penalize = False
    if step.lam is not None:
        indicator = np.array([1.0 if s == target else 0.0 for s in snippet.surface])
        penalize = target_id == vocab.unk_id and target != vocab.token(vocab.unk_id) \
            and bool(indicator.any())
    return step_loss_from_ids(step, target_id, indicator, penalize, vocab_row)


# -- merged generative distribution ----------------------------------------------


@dataclass(frozen=True)
class CopyTable:
    """The candidates of a snippet's merged distributions, built once per
    snippet: ``tokens[i]`` is candidate i, vocabulary tokens in id order
    and then the snippet's out-of-vocabulary surface strings in order of
    first position; ``index`` maps a candidate to i; and ``positions[j]``
    is the candidate id of the snippet's j-th surface subtoken."""

    tokens: list[str]
    index: Mapping[str, int]
    positions: np.ndarray


def copy_table(snippet: EncodedSnippet, vocab: Vocabulary) -> CopyTable:
    oov: dict[str, int] = {}
    index = ChainMap(vocab.token_to_id, oov)
    for token in snippet.surface:
        if token not in index:
            oov[token] = len(vocab) + len(oov)
    positions = np.array([index[token] for token in snippet.surface], dtype=np.intp)
    return CopyTable([*vocab.id_to_token, *oov], index, positions)


class MergedDistribution(Mapping[str, float]):
    """Read-only map from candidate subtoken to probability: ``tokens[i]``
    has ``probs[i]``, vocabulary tokens in id order, then the snippet's
    out-of-vocabulary surface strings in order of first position."""

    def __init__(self, tokens: list[str], index: Mapping[str, int], probs: np.ndarray):
        self.tokens, self.index, self.probs = tokens, index, probs
        probs.flags.writeable = False

    def __getitem__(self, token: str) -> float:
        return float(self.probs[self.index[token]])

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


def merged_distribution(step: StepOutput, snippet: EncodedSnippet,
                        vocab: Vocabulary, table: CopyTable | None = None,
                        ) -> MergedDistribution:
    """Probability of each candidate subtoken in V union c.

    Vocabulary ids are keyed by their surface string; copy mass lands on
    the snippet's surface strings, added in position order, so identical
    subtokens pool their probability.  ``table`` is the snippet's
    ``copy_table``, built here unless given; the conv model, which has no
    copy head, has only the vocabulary's candidates.  The vocabulary head
    scores this one step (T = 1).  Detached from the graph: decoding does
    not backprop.  The step may hold Tensors or, as in a decode, arrays.
    """
    lam = float(as_array(step.lam)) if step.lam is not None else 0.0
    probs = (1.0 - lam) * np.asarray(as_array(step.vocab_row()), dtype=np.float64)
    if step.kappa is None:
        return MergedDistribution(vocab.id_to_token, vocab.token_to_id, probs)
    table = copy_table(snippet, vocab) if table is None else table
    probs = np.concatenate([probs, np.zeros(len(table.tokens) - len(vocab))])
    kappa = np.asarray(as_array(step.kappa), dtype=np.float64)
    np.add.at(probs, table.positions, lam * kappa)
    return MergedDistribution(table.tokens, table.index, probs)


# -- decoder state updates ---------------------------------------------------------


def next_state(p: ModelParams, h_prev: Operand, x: Operand | None = None, *,
               token_id: int | np.ndarray | None = None) -> Operand:
    """GRU state update on the input ``x``, or on the embedding rows of
    ``token_id``: one id gives a ``(k2,)`` state, an array of ids one
    state row per id, as a decode advances a parent's open children.
    A decode's state and ``E`` are plain arrays, and so is the new state.
    """
    return gru_step(rows(p.E, token_id) if x is None else x, h_prev, p.gru)
