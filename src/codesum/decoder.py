"""Hybrid breadth-first/beam search over sequential subtoken predictions.

A max-heap holds partial names ranked by log-probability.  The snippet
is encoded once; each iteration pops the best partial, runs one model
step on its state, and pushes the top successors back.  A partial whose
log-probability falls below the current k-th best completed name is
pruned, once k names have completed, and a child below it gets no state.
The search stops after a fixed number of iterations or when the heap empties.
``suggest`` reads the parameters through ``decode_view``, which shares
their arrays: the encoder is Tensors that require no gradient, run once
per snippet, so a decode builds no autograd graph; the rest are plain
numpy arrays, so steps, heads and child states run the array kernels
under the Tensor ops and make no Tensor.  Successors are ranked with
numpy.  A parent's open children advance in one GRU update over stacked
rows: the parent's state-side products are shared by every row, and the
input-side products are one batched product over the children's
embedding rows, each row bit-identical to a child's own.  An open child
is a light record; its prefix and attention record are built only when
it is popped.  The candidates of every merged distribution come from
one ``copy_table`` per snippet of the copy model.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus.vocabulary import NAME_END, Vocabulary
from .model import (
    CopyTable,
    EncodedSnippet,
    ModelParams,
    StepOutput,
    as_array,
    copy_table,
    encode,
    merged_distribution,
    next_state,
    step_fn,
)
from .tensorcore import Tensor, input_products, state_products


@dataclass
class SearchLimits:
    """Caps that keep the search tractable.  An overflowing heap keeps its
    most probable partials and, on a tie at the cut, the earlier pushed."""

    max_steps: int = 100       # heap iterations
    heap_size: int = 256       # partials kept
    successors: int = 50       # children pushed per expansion
    max_name_len: int = 10     # hard cap on subtokens per name

    def __post_init__(self):
        for name, low in (("max_steps", 0), ("heap_size", 1), ("successors", 1),
                          ("max_name_len", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class StepRecord:
    """Attention snapshot for one generated subtoken (for visualization)."""

    token: str
    alpha: np.ndarray
    kappa: np.ndarray | None
    lam: float | None


@dataclass(frozen=True)
class PartialSuggestion:
    """A name prefix on the heap."""

    subtokens: tuple[str, ...]
    log_prob: float
    state: np.ndarray
    steps: tuple[StepRecord, ...] = ()


@dataclass(slots=True, eq=False)
class OpenChild:
    """A child an expansion leaves open: its parent, last token, state and
    the attention snapshot (alpha, kappa, lam) it shares with its siblings.
    Its prefix and steps are built by ``popped``."""

    log_prob: float
    parent: PartialSuggestion
    token: str
    state: np.ndarray
    snapshot: tuple

    @property
    def subtokens(self) -> tuple[str, ...]:
        return (*self.parent.subtokens, self.token)

    def popped(self) -> PartialSuggestion:
        return PartialSuggestion(self.subtokens, self.log_prob, self.state,
                                 (*self.parent.steps, StepRecord(self.token, *self.snapshot)))


@dataclass
class Suggestion:
    """A completed, ranked name."""

    name: list[str]
    log_prob: float
    steps: list[StepRecord]

    @property
    def probability(self) -> float:
        return math.exp(self.log_prob)


def decode_view(params: ModelParams) -> ModelParams:
    """A view sharing the parameters' arrays, as a decode reads them:
    Tensors that require no gradient for the encoder, which ``encode``
    reads once per snippet, and the arrays themselves for the heads, the
    bias, the GRU and the first state."""
    return ModelParams.from_named({
        name: Tensor(t.data) if name in ("E", "K_l1", "K_l2", "prelu_a1") else t.data
        for name, t in params.named_tensors()})


def expand(partial: PartialSuggestion, out: StepOutput,
           snippet: EncodedSnippet, params: ModelParams, vocab: Vocabulary,
           limits: SearchLimits, bar: float | None = None,
           table: CopyTable | None = None,
           ) -> tuple[list[OpenChild], list[Suggestion]]:
    """Children of a partial, split into open prefixes and completions.

    Successors are the at most ``limits.successors`` most probable entries
    of the merged distribution, ties broken by token string, ranked by a
    partition and one stable argsort.  An open child whose log-probability
    is below ``bar``, the search's k-th best completion, is dropped; the
    others advance in test mode, all in one ``next_state`` call over
    stacked rows, made even when no row is left, whose input-side
    products are one batched product over the children's embedding rows.
    Open children are ``OpenChild`` records.  ``params`` is a
    ``decode_view``; ``table`` is the snippet's ``copy_table``.
    """
    merged = merged_distribution(out, snippet, vocab, table)
    probs, n = merged.probs, limits.successors
    if len(partial.subtokens) >= limits.max_name_len:
        ranked = [merged.index[NAME_END]]
    else:
        # Every entry tied with the n-th largest competes for the cut.
        nth = np.partition(probs, len(probs) - n)[len(probs) - n] if n < len(probs) else 0.0
        candidates = np.flatnonzero(probs >= nth)
        order = candidates[np.argsort(-probs[candidates], kind="stable")]
        ranked = order[:n].tolist()
        if np.any(probs[order[1:]] == probs[order[:-1]]):  # argsort left exact ties by id
            ranked = sorted(order.tolist(), key=lambda i: (-probs[i], merged.tokens[i]))[:n]

    # Siblings share one snapshot of the step's attention, and the
    # parent's state-side GRU products.
    snapshot = (as_array(out.alpha), None if out.kappa is None else as_array(out.kappa),
                None if out.lam is None else float(as_array(out.lam)))
    hs = state_products(partial.state, params.gru)
    opened: list[tuple[int, str, float]] = []
    completed: list[Suggestion] = []
    for i, prob in zip(ranked, probs[ranked].tolist()):
        if prob <= 0.0:
            continue
        token, log_prob = merged.tokens[i], partial.log_prob + math.log(max(prob, 1e-300))
        if token == NAME_END:
            if partial.subtokens:  # empty names are meaningless output
                completed.append(Suggestion(
                    name=list(partial.subtokens), log_prob=log_prob,
                    steps=[*partial.steps, StepRecord(token, *snapshot)]))
        elif bar is None or log_prob >= bar:
            opened.append((i, token, log_prob))
    # Candidates past the vocabulary are the snippet's OOV subtokens.
    ids = np.array([i for i, *_ in opened], dtype=np.intp)
    ids[ids >= len(vocab)] = vocab.unk_id
    # Row j of each input-side product, and of the states, is child j's.
    xs = input_products(np.take(as_array(params.E), ids, axis=0), params.gru)
    states = next_state(params, partial.state, xs=xs, hs=hs)
    return [OpenChild(log_prob, partial, token, state, snapshot)
            for (_, token, log_prob), state in zip(opened, states)], completed


def suggest(snippet: EncodedSnippet, params: ModelParams, vocab: Vocabulary,
            k: int = 5, *, model_kind: str = "copy_attention",
            state_kind: str = "gru",
            limits: SearchLimits | None = None) -> list[Suggestion]:
    """Top-k full-name suggestions, best first.

    Returns an empty list when nothing completes within the limits.
    The decoder state is always the GRU; ``state_kind`` accepts only
    ``"gru"``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if state_kind != "gru":
        raise ValueError(f"unknown state kind {state_kind!r}")
    if limits is None:
        limits = SearchLimits()
    params = decode_view(params)
    step = step_fn(model_kind)
    encoded = tuple(t.data for t in encode(snippet, params))
    table = copy_table(snippet, vocab) if model_kind == "copy_attention" else None
    root = PartialSuggestion(subtokens=(), log_prob=0.0, state=params.h_init)

    counter = itertools.count()  # heap tie-breaker: earlier pushes first
    heap: list[tuple[float, int, PartialSuggestion | OpenChild]] = [(0.0, next(counter), root)]
    # Each prefix is expanded at most once, so each name completes at most
    # once.  ``top`` is a min-heap of the k best completed log-probs.
    completed: list[Suggestion] = []
    top: list[float] = []

    def kth_best() -> float | None:
        return top[0] if len(top) == k else None

    for _ in range(limits.max_steps):
        if not heap:
            break
        _, _, node = heapq.heappop(heap)
        bar = kth_best()
        if bar is not None and node.log_prob < bar:
            continue
        partial = node if node is root else node.popped()
        out = step(snippet, partial.state, params, encoded)
        children, done = expand(partial, out, snippet, params, vocab, limits, bar, table)
        completed.extend(done)
        for s in done:
            push = heapq.heappush if len(top) < k else heapq.heappushpop
            push(top, s.log_prob)
        bar = kth_best()
        for child in children:
            if bar is not None and child.log_prob < bar:
                continue
            heapq.heappush(heap, (-child.log_prob, next(counter), child))
        if len(heap) > limits.heap_size:
            heap = heapq.nsmallest(limits.heap_size, heap)

    ranked = sorted(completed, key=lambda s: (-s.log_prob, s.name))
    return ranked[:k]
