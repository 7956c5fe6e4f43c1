"""Hybrid breadth-first/beam search over sequential subtoken predictions.

A max-heap holds partial names ranked by log-probability.  The snippet
is encoded once; each iteration pops the best partial, runs one model
step on its state, and pushes the top successors back.  A partial whose
log-probability falls below the current k-th best completed name is
pruned, once k names have completed, and a child below it gets no state.
The search stops after a fixed number of iterations or when the heap empties.
``suggest`` reads the parameters through ``decode_view``, which shares
their arrays: the encoder and heads are Tensors that require no
gradient, so a decode builds no autograd graph, and the GRU, the first
state and every child state are plain numpy arrays, so a child state is
the GRU's arithmetic and nothing else.  A parent's open children advance
in one GRU update over stacked rows: the parent's state-side products
are shared by every row, and each row's input-side products come from a
per-decode memo keyed by token id that lives for one ``suggest`` call.
The update is elementwise once the products are known, so each row is
bit-identical to the state a child computing all six products itself
would get.  The candidates of every merged distribution come from one
``copy_table`` per snippet.
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
    copy_table,
    encode,
    merged_distribution,
    next_state,
    step_fn,
)
from .tensorcore import GruProducts, Tensor, input_products, state_products


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
    Tensors that require no gradient for the encoder and heads, the arrays
    themselves for the GRU and the first state."""
    return ModelParams.from_named({
        name: t.data if name == "h_init" or name.startswith("gru.") else Tensor(t.data)
        for name, t in params.named_tensors()})


def expand(partial: PartialSuggestion, out: StepOutput,
           snippet: EncodedSnippet, params: ModelParams, vocab: Vocabulary,
           limits: SearchLimits, bar: float | None = None,
           token_inputs: dict[int, GruProducts] | None = None,
           table: CopyTable | None = None,
           ) -> tuple[list[PartialSuggestion], list[Suggestion]]:
    """Children of a partial, split into open prefixes and completions.

    Successors are the at most ``limits.successors`` most probable entries
    of the merged distribution, ties broken by token string.  An open
    child whose log-probability is below ``bar``, the search's k-th best
    completion, is dropped; the others advance in test mode, all in one
    ``next_state`` call over stacked rows, made even when no row is left.
    ``params`` is a ``decode_view``.  ``token_inputs`` memoizes each token
    id's input-side GRU products; it must not outlive the parameters'
    current values.  ``table`` is the snippet's ``copy_table``.
    """
    token_inputs = {} if token_inputs is None else token_inputs
    merged = merged_distribution(out, snippet, vocab, table)
    probs, n = merged.probs, limits.successors
    if len(partial.subtokens) >= limits.max_name_len:
        candidates = [merged.index[NAME_END]]
    elif n < len(probs):
        # Every entry tied with the n-th largest competes for the cut.
        nth = np.partition(probs, len(probs) - n)[len(probs) - n]
        candidates = np.flatnonzero(probs >= nth).tolist()
    else:
        candidates = range(len(probs))
    ranked = sorted(candidates, key=lambda i: (-probs[i], merged.tokens[i]))[:n]

    # Siblings share one snapshot of the step's attention, and the
    # parent's state-side GRU products.
    alpha = out.alpha.data.copy()
    kappa = out.kappa.data.copy() if out.kappa is not None else None
    lam = float(out.lam.data) if out.lam is not None else None
    hs = state_products(partial.state, params.gru)
    opened: list[tuple[str, float, int]] = []
    completed: list[Suggestion] = []
    for i in ranked:
        token, prob = merged.tokens[i], float(probs[i])
        if prob <= 0.0:
            continue
        log_prob = partial.log_prob + math.log(max(prob, 1e-300))
        if token == NAME_END:
            if partial.subtokens:  # empty names are meaningless output
                completed.append(Suggestion(
                    name=list(partial.subtokens),
                    log_prob=log_prob,
                    steps=[*partial.steps, StepRecord(token, alpha, kappa, lam)],
                ))
            continue
        if bar is not None and log_prob < bar:
            continue
        # Candidates past the vocabulary are the snippet's OOV subtokens.
        token_id = i if i < len(vocab) else vocab.unk_id
        if token_id not in token_inputs:
            token_inputs[token_id] = input_products(params.E.data[token_id], params.gru)
        opened.append((token, log_prob, token_id))
    # Row j of each stacked product, and of the states, is child j's.
    xs = tuple(np.array([token_inputs[t][j] for *_, t in opened])
               .reshape(len(opened), len(partial.state)) for j in range(3))
    states = next_state(params, partial.state, xs=xs, hs=hs)
    children = [PartialSuggestion(subtokens=(*partial.subtokens, token),
                                  log_prob=log_prob, state=state,
                                  steps=(*partial.steps, StepRecord(token, alpha, kappa, lam)))
                for (token, log_prob, _), state in zip(opened, states)]
    return children, completed


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
    encoded = encode(snippet, params)
    table = copy_table(snippet, vocab)
    root = PartialSuggestion(subtokens=(), log_prob=0.0, state=params.h_init)
    token_inputs: dict[int, GruProducts] = {}

    counter = itertools.count()  # heap tie-breaker: earlier pushes first
    heap: list[tuple[float, int, PartialSuggestion]] = [(0.0, next(counter), root)]
    # Each prefix is expanded at most once, so each name completes at most
    # once.  ``top`` is a min-heap of the k best completed log-probs.
    completed: list[Suggestion] = []
    top: list[float] = []

    def kth_best() -> float | None:
        return top[0] if len(top) == k else None

    for _ in range(limits.max_steps):
        if not heap:
            break
        neg_lp, _, partial = heapq.heappop(heap)
        bar = kth_best()
        if bar is not None and partial.log_prob < bar:
            continue
        out = step(snippet, partial.state, params, encoded)
        children, done = expand(partial, out, snippet, params, vocab, limits, bar,
                                token_inputs, table)
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
