"""Scoring, the tf-idf nearest-neighbor baseline, and the shuffle ablation.

F1 is computed per subtoken over multisets, so names with repeated
subtokens score correctly.  Rank-k metrics take the best value any of
the top k suggestions achieves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus.dataset import MethodExample
from .corpus.vocabulary import Vocabulary
from .decoder import SearchLimits, suggest
from .errors import EmptyIndex
from .model import ModelParams, encode_snippet


def subtoken_prf(predicted: Sequence[str], target: Sequence[str],
                 ) -> tuple[float, float, float]:
    """Multiset precision, recall, and F1 of predicted subtokens."""
    if not target:
        raise ValueError("target name must be nonempty")
    pred_counts = Counter(predicted)
    tgt_counts = Counter(target)
    overlap = sum(min(c, tgt_counts[tok]) for tok, c in pred_counts.items())
    precision = overlap / len(predicted) if predicted else 0.0
    recall = overlap / len(target)
    f1 = 0.0
    if precision + recall > 0.0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def exact_match(predicted: Sequence[str], target: Sequence[str]) -> bool:
    """Order-sensitive equality of the subtoken sequences."""
    return list(predicted) == list(target)


def score_at_rank(suggestions: Sequence[Sequence[str]], target: Sequence[str],
                  k: int) -> dict[str, float]:
    """Best value of each metric over the first k suggestions."""
    top = suggestions[:k]
    best = {"precision": 0.0, "recall": 0.0, "f1": 0.0, "exact": 0.0}
    for name in top:
        p, r, f = subtoken_prf(name, target)
        best["precision"] = max(best["precision"], p)
        best["recall"] = max(best["recall"], r)
        best["f1"] = max(best["f1"], f)
        if exact_match(name, target):
            best["exact"] = 1.0
    return best


def oov_accuracy(suggestions: Sequence[Sequence[str]], target: Sequence[str],
                 train_vocab: Vocabulary, k: int) -> float | None:
    """Fraction of out-of-vocabulary target subtokens that the best-F1
    top-k suggestion, the earliest of equal F1s, produces.

    Returns None when the target has no OoV subtokens (the example is
    then excluded from aggregation).  A hit needs the subtoken anywhere
    in the suggestion, not in the target's position.
    """
    oov_positions = [i for i, tok in enumerate(target) if tok not in train_vocab]
    if not oov_positions:
        return None
    chosen = max(suggestions[:k], key=lambda name: subtoken_prf(name, target)[2], default=None)
    if chosen is None:
        return 0.0
    oov_counts = Counter(target[i] for i in oov_positions)
    chosen_counts = Counter(chosen)
    hits = sum(min(c, chosen_counts[tok]) for tok, c in oov_counts.items())
    return hits / len(oov_positions)


def score_suggestions(suggestions: Sequence[Sequence[str]], target: Sequence[str],
                      ) -> dict[str, float]:
    """All rank-1 and rank-5 metrics for one example."""
    out: dict[str, float] = {}
    for k in (1, 5):
        best = score_at_rank(suggestions, target, k)
        out[f"precision_at_{k}"] = best["precision"]
        out[f"recall_at_{k}"] = best["recall"]
        out[f"f1_at_{k}"] = best["f1"]
        out[f"exact_at_{k}"] = best["exact"]
    return out


@dataclass
class EvalReport:
    """Corpus-level averages of the per-example metrics."""

    f1_at_1: float = 0.0
    f1_at_5: float = 0.0
    exact_at_1: float = 0.0
    exact_at_5: float = 0.0
    precision_at_1: float = 0.0
    precision_at_5: float = 0.0
    recall_at_1: float = 0.0
    recall_at_5: float = 0.0
    oov_acc_at_1: float = 0.0
    oov_acc_at_5: float = 0.0
    n_examples: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_report(per_example: Sequence[dict[str, float | None]]) -> EvalReport:
    """Mean of per-example rows, field by field over the rows whose value
    is not ``None``: OoV fields average only over examples that have OoV
    subtokens, and a field no row has keeps its default."""
    report = EvalReport(n_examples=len(per_example))
    for f in fields(EvalReport):
        vals = [row[f.name] for row in per_example if row.get(f.name) is not None]
        if vals:
            setattr(report, f.name, float(np.mean(vals)))
    return report


def evaluate_suggester(suggester: Callable[[MethodExample], list[Sequence[str]]],
                       examples: Sequence[MethodExample],
                       train_vocab: Vocabulary,
                       ) -> tuple[EvalReport, list[dict]]:
    """Score any ranked-name suggester over a split, in split order."""
    def score_one(ex: MethodExample) -> dict:
        names = suggester(ex)
        row = score_suggestions(names, ex.name)
        row["oov_acc_at_1"] = oov_accuracy(names, ex.name, train_vocab, 1)
        row["oov_acc_at_5"] = oov_accuracy(names, ex.name, train_vocab, 5)
        row["target"] = list(ex.name)
        row["suggestions"] = [list(n) for n in names[:5]]
        return row

    rows = [score_one(ex) for ex in examples]
    return aggregate_report(rows), rows


def evaluate_model(params: ModelParams, vocab: Vocabulary,
                   examples: Sequence[MethodExample], *,
                   model_kind: str = "copy_attention", state_kind: str = "gru",
                   k: int = 5, limits: SearchLimits | None = None,
                   ) -> tuple[EvalReport, list[dict]]:
    """Decode and score a trained model over a split."""
    def suggester(ex: MethodExample) -> list[Sequence[str]]:
        snippet = encode_snippet(ex.body, vocab)
        found = suggest(snippet, params, vocab, k=k, model_kind=model_kind,
                        state_kind=state_kind, limits=limits)
        return [s.name for s in found]

    return evaluate_suggester(suggester, examples, vocab)


# -- tf-idf baseline ---------------------------------------------------------------


def _by_similarity(sims: np.ndarray, head: int = 64) -> Iterator[int]:
    """Doc ids by descending similarity, ties in training order, as the
    full stable sort gives them: the ``head`` largest and every tie of the
    last come from a partition, and the rest only if they are read."""
    docs = np.arange(len(sims))
    if head < len(sims):
        docs = np.flatnonzero(sims >= np.partition(sims, -head)[-head])
    yield from docs[np.argsort(-sims[docs], kind="stable")].tolist()
    yield from np.argsort(-sims, kind="stable")[len(docs):].tolist()


class TfIdfIndex:
    """Nearest-neighbor name suggestion over tf-idf body vectors.

    tf is the raw subtoken count, idf is log(N / df); similarities are
    cosine.  Ties break by training order, duplicate names keep their
    best similarity, and remaining slots fall back to the most frequent
    training names so the baseline always emits k suggestions.
    """

    def __init__(self, examples: Sequence[MethodExample]):
        if not examples:
            raise EmptyIndex("tf-idf index needs at least one example")
        self.names: list[tuple[str, ...]] = [tuple(ex.name) for ex in examples]
        df: Counter[str] = Counter()
        bags: list[Counter[str]] = []
        for ex in examples:
            bag = Counter(ex.body)
            bags.append(bag)
            df.update(bag.keys())
        n = len(examples)
        self.idf: dict[str, float] = {tok: math.log(n / d) for tok, d in df.items()}
        # Inverted index: token -> (docs ascending, their tf-idf weights)
        postings: dict[str, tuple[list[int], list[float]]] = {}
        norms = np.zeros(n)
        for doc, bag in enumerate(bags):
            for tok, tf in bag.items():
                w = tf * self.idf[tok]
                docs, weights = postings.setdefault(tok, ([], []))
                docs.append(doc)
                weights.append(w)
                norms[doc] += w * w
        self.postings = {tok: (np.array(docs, dtype=np.intp), np.array(weights))
                         for tok, (docs, weights) in postings.items()}
        self.norms = np.sqrt(norms)
        # most_common's sort is stable, so equal counts keep training order.
        self.fallback: list[tuple[str, ...]] = [
            name for name, _ in Counter(self.names).most_common()]

    def suggest(self, body: Sequence[str], k: int) -> list[tuple[tuple[str, ...], float]]:
        """Top-k distinct neighbor names by cosine similarity."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query = Counter(body)
        # Token order is canonical so that permuted bodies produce
        # bit-identical similarities (bag-of-words invariance).
        qweights = {tok: query[tok] * self.idf[tok]
                    for tok in sorted(query) if tok in self.idf}
        qnorm = math.sqrt(sum(w * w for w in qweights.values()))
        sims = np.zeros(len(self.names))
        for tok, qw in qweights.items():
            docs, weights = self.postings[tok]
            sims[docs] += qw * weights  # a token lists each doc once
        if qnorm > 0.0:
            with np.errstate(invalid="ignore", divide="ignore"):
                sims = np.where(self.norms > 0.0, sims / (qnorm * self.norms), 0.0)

        ranked: list[tuple[tuple[str, ...], float]] = []
        seen: set[tuple[str, ...]] = set()
        for doc in _by_similarity(sims):
            if sims[doc] <= 0.0:
                break
            name = self.names[doc]
            if name in seen:
                continue
            seen.add(name)
            ranked.append((name, float(sims[doc])))
            if len(ranked) >= k:
                break
        for name in self.fallback:
            if len(ranked) >= k:
                break
            if name not in seen:
                seen.add(name)
                ranked.append((name, 0.0))
        return ranked


def evaluate_tfidf(index: TfIdfIndex, examples: Sequence[MethodExample],
                   train_vocab: Vocabulary, k: int = 5,
                   ) -> tuple[EvalReport, list[dict]]:
    def suggester(ex: MethodExample) -> list[Sequence[str]]:
        return [list(name) for name, _ in index.suggest(ex.body, k)]

    return evaluate_suggester(suggester, examples, train_vocab)


# -- ablation -----------------------------------------------------------------------


def shuffle_ablation(examples: Sequence[MethodExample], seed: int) -> list[MethodExample]:
    """Permute each body's subtokens uniformly; names stay untouched."""
    rng = np.random.default_rng(seed)
    out: list[MethodExample] = []
    for ex in examples:
        body = [ex.body[i] for i in rng.permutation(len(ex.body))]
        out.append(MethodExample(name=list(ex.name), body=body,
                                 file_path=ex.file_path, project=ex.project))
    return out
