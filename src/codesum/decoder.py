"""Hybrid breadth-first/beam search over sequential subtoken predictions.

A max-heap holds partial names ranked by log-probability.  The snippet
is encoded once.  Each iteration pops a batch of up to ``FRONTIER`` best
partials, runs one model step on their stacked states, and pushes the
top successors of each back.  Once k names have completed, the k-th
best completed log-probability is the bar: the batch's completions
raise it first, and a child below it gets no state.  A popped partial
below the bar ends the search, since every partial left is below it
too; only the batch's children can then go back on the heap.  The
search also stops when the heap empties or after ``max_steps`` partials
have been expanded.
``suggest`` reads the parameters through ``decode_view``, which shares
their arrays: the encoder's kernels are Tensors that require no gradient,
run once per snippet, so a decode builds no autograd graph; the rest,
``E`` included, are plain numpy arrays, and the model's ops return plain
arrays for them, so steps, heads and child states make no Tensor.
Successors are ranked with numpy, one row of the batch at a time.  The
open children of the whole batch advance in one ``next_state`` call on
their token ids and their parents' states, which steps the GRU over the
stacked rows.  Every step row and every state row is bit-identical to
the step or state of its partial alone, so the batch size changes only
the order prefixes are visited in; unless ``max_steps`` or
``heap_size`` binds, the result is the exact top k under
``max_name_len`` in any order.
A prefix is one node holding its last token and a link to its parent,
and a completed name is its end marker's node: names and attention
records are read off that chain only when asked for.  One ``copy_table``
per snippet of the copy model gives every merged distribution its candidates.
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
    MergedDistribution,
    ModelParams,
    StepOutput,
    copy_table,
    encode,
    merged_distribution,
    next_state,
    step_fn,
    vocab_head,
)
from .tensorcore import Tensor, as_array

# Partials popped and stepped together, at most.  Larger batches take
# fewer model steps but expand partials that a smaller batch's
# completions would have pruned first.
FRONTIER = 8


@dataclass
class SearchLimits:
    """Caps that keep the search tractable.  An overflowing heap keeps its
    most probable partials and, on a tie at the cut, the earlier pushed."""

    max_steps: int = 100       # partials expanded
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


@dataclass(slots=True, eq=False)
class Suggestion:
    """A name prefix on the heap: the root, which has no parent, or its
    parent's prefix plus ``token``, with the attention ``snapshot``
    (alpha, kappa, lam) of the step that chose it, shared with its
    siblings.  A completed name is the end marker's node: it has no
    state, and its name is its parent's subtokens."""

    log_prob: float
    state: np.ndarray | None
    parent: Suggestion | None = None
    token: str | None = None
    snapshot: tuple | None = None

    def chain(self) -> list[Suggestion]:
        """The nodes from the root's child to this one."""
        nodes, node = [], self
        while node.parent is not None:
            nodes.append(node)
            node = node.parent
        return nodes[::-1]

    @property
    def subtokens(self) -> tuple[str, ...]:
        return tuple(node.token for node in self.chain())

    @property
    def name(self) -> list[str]:
        return list(self.parent.subtokens)

    @property
    def probability(self) -> float:
        return math.exp(self.log_prob)

    @property
    def steps(self) -> list[StepRecord]:
        """One attention record per subtoken and the end marker, built when read."""
        return [StepRecord(node.token, *node.snapshot) for node in self.chain()]


class Best:
    """The k best completed log-probabilities, as a min-heap.  Once k names
    have completed, the least of them is the bar: a prefix below it cannot
    reach the top k, since a name's log-probability only falls as it grows."""

    def __init__(self, k: int):
        self.k, self.heap = k, []

    def add(self, log_prob: float) -> None:
        push = heapq.heappush if len(self.heap) < self.k else heapq.heappushpop
        push(self.heap, log_prob)

    @property
    def bar(self) -> float | None:
        return self.heap[0] if len(self.heap) == self.k else None


def decode_view(params: ModelParams) -> ModelParams:
    """A view sharing the parameters' arrays, as a decode reads them:
    Tensors that require no gradient for the encoder's kernels, which
    ``encode`` reads once per snippet, and the arrays themselves for the
    embeddings, the heads, the bias, the GRU and the first state."""
    # The kernels would decode the same as arrays; they stay Tensors only
    # because benchmarks/test_bench_smoke.py asserts that a decode makes
    # Tensors.
    return ModelParams.from_named({
        name: Tensor(as_array(t)) if name in ("K_l1", "K_l2", "prelu_a1") else as_array(t)
        for name, t in params.named_tensors()})


def successors(merged: MergedDistribution, partial: Suggestion,
               limits: SearchLimits) -> list[int]:
    """The candidate ids of at most ``limits.successors`` most probable
    entries of ``merged``, in falling order, ties broken by token string,
    found by a partition and one stable argsort; only the end marker once
    the partial has ``limits.max_name_len`` subtokens."""
    probs, n = merged.probs, limits.successors
    if len(partial.subtokens) >= limits.max_name_len:
        return [merged.index[NAME_END]]
    # Every entry tied with the n-th largest competes for the cut.
    nth = np.partition(probs, len(probs) - n)[len(probs) - n] if n < len(probs) else 0.0
    candidates = np.flatnonzero(probs >= nth)
    order = candidates[np.argsort(-probs[candidates], kind="stable")]
    if np.any(probs[order[1:]] == probs[order[:-1]]):  # argsort left exact ties by id
        return sorted(order.tolist(), key=lambda i: (-probs[i], merged.tokens[i]))[:n]
    return order[:n].tolist()


def expand(batch: list[Suggestion], out: StepOutput, snippet: EncodedSnippet,
           params: ModelParams, vocab: Vocabulary, limits: SearchLimits, best: Best,
           table: CopyTable | None = None,
           ) -> tuple[list[Suggestion], list[Suggestion]]:
    """Children of a batch of partials, split into open prefixes and completions.

    Row i of ``out`` is the step of ``batch[i]``; the vocabulary head
    scores all rows at once.  A row's children are its ``successors``.
    The batch's completions go into ``best`` first, each as it is found,
    so a row whose partial is below the bar by then is not ranked.  Then
    each row's open children at or above the bar, which come first in
    the falling order, advance in test mode, all in one ``next_state``
    call on their token ids and their parents' states, made even when no
    child is left.  ``params`` is a ``decode_view``; ``table`` is the
    snippet's ``copy_table``.
    """
    heads = vocab_head(out.nhat, params)
    completed: list[Suggestion] = []
    snapshots: list[tuple] = []
    ranked: list[tuple[int, MergedDistribution, list[int]]] = []
    for row, partial in enumerate(batch):
        # Siblings share one snapshot of the step's attention.
        step = out.row(row)
        snapshots.append((step.alpha, step.kappa, None if step.lam is None else float(step.lam)))
        bar = best.bar
        if bar is not None and partial.log_prob < bar:
            continue
        merged = merged_distribution(step, snippet, vocab, table, heads[row])
        ids = successors(merged, partial, limits)
        ranked.append((row, merged, ids))
        end = merged.index[NAME_END]
        prob = float(merged.probs[end])
        if partial.parent is None or prob <= 0.0 or end not in ids:
            continue  # an empty name is meaningless output
        log_prob = partial.log_prob + math.log(max(prob, 1e-300))
        if bar is None or log_prob >= bar:
            completed.append(Suggestion(log_prob, None, partial, NAME_END, snapshots[row]))
            best.add(log_prob)

    bar = best.bar
    opened: list[tuple[int, int, str, float]] = []
    for row, merged, ids in ranked:
        for i, prob in zip(ids, merged.probs[ids].tolist()):
            if prob <= 0.0:
                break
            log_prob = batch[row].log_prob + math.log(max(prob, 1e-300))
            if bar is not None and log_prob < bar:
                break
            if merged.tokens[i] != NAME_END:
                opened.append((row, i, merged.tokens[i], log_prob))
    # Candidates past the vocabulary are the snippet's OOV subtokens.
    token_ids = np.array([i for _, i, _, _ in opened], dtype=np.intp)
    token_ids[token_ids >= len(vocab)] = vocab.unk_id
    parents = np.array([row for row, _, _, _ in opened], dtype=np.intp)
    states = next_state(params, np.stack([p.state for p in batch])[parents], token_id=token_ids)
    return [Suggestion(log_prob, state, batch[row], token, snapshots[row])
            for (row, _, token, log_prob), state in zip(opened, states)], completed


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
    encoded = tuple(as_array(t) for t in encode(snippet, params))
    table = copy_table(snippet, vocab) if model_kind == "copy_attention" else None
    counter = itertools.count()  # heap tie-breaker: earlier pushes first
    heap = [(0.0, next(counter), Suggestion(0.0, params.h_init))]
    # Each prefix is expanded at most once, so each name completes at most once.
    completed: list[Suggestion] = []
    best = Best(k)
    budget = limits.max_steps
    while heap and budget:
        bar, batch = best.bar, []
        while heap and len(batch) < min(FRONTIER, budget):
            partial = heapq.heappop(heap)[2]
            if bar is not None and partial.log_prob < bar:
                heap = []  # the heap is max-ordered: every partial left is below the bar too
                break
            batch.append(partial)
        if not batch:
            break
        budget -= len(batch)
        out = step(snippet, np.stack([p.state for p in batch]), params, encoded)
        children, done = expand(batch, out, snippet, params, vocab, limits, best, table)
        completed.extend(done)
        for child in children:
            heapq.heappush(heap, (-child.log_prob, next(counter), child))
        if len(heap) > limits.heap_size:
            heap = heapq.nsmallest(limits.heap_size, heap)

    ranked = sorted(completed, key=lambda s: (-s.log_prob, s.name))
    return ranked[:k]
