"""Maximum-likelihood training with RMSProp and Nesterov momentum.

Update rule, applied after clipping the global gradient norm to the
constant ``CLIP_NORM``, with rho = ``RMS_DECAY``, momentum = ``MOMENTUM``
and eps = ``EPSILON`` for both model kinds; only lr is configurable.
These formulas are normative for this repository, and ``sgd_update``
states them as written, one statement each:

    a <- rho * a + (1 - rho) * g^2
    s <- g / sqrt(a + eps)
    v <- momentum * v + s
    theta <- theta - lr * (s + momentum * v)

Regularization is parameter dropout: for each example, every parameter
entry is zeroed with probability ``dropout_rate`` and survivors are
rescaled by 1/(1 - rate).  With the same probability, each state update
feeds the GRU the predicted embedding instead of the target embedding.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .corpus.dataset import MethodExample
from .corpus.vocabulary import NAME_END, Vocabulary, build_vocabulary
from .errors import EmptyTrainingSet, InvalidConfig, NonFiniteGradient
from .evaluation import evaluate_model
from .model import (
    EncodedSnippet,
    ModelParams,
    StepOutput,
    encode,
    encode_snippet,
    next_state,
    param_shapes,
    step_fn,
    step_loss,
    vocab_head,
)
from .tensorcore import Tensor, rows, stack

RMS_DECAY = 0.9
MOMENTUM = 0.9
EPSILON = 1e-6
CLIP_NORM = 5.0
# Entries per block of ``sgd_update``: 128 KiB of float64 per operand.
UPDATE_BLOCK = 16_384

# Scale of the normal initialization noise.
INIT_SIGMA = 0.1
PRELU_INIT = 0.25

# The values a field annotated with each type accepts.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass
class TrainConfig:
    """Architecture, regularization and schedule knobs.

    The defaults are the tuned copy-model setting; ``PRESETS`` holds each
    kind's changes to them.
    """

    model_kind: str = "copy_attention"
    D: int = 128
    k1: int = 32
    k2: int = 16
    w1: int = 18
    w2: int = 19
    w3: int = 2
    dropout_rate: float = 0.4
    learning_rate: float = 1e-3
    epochs: int = 50
    patience: int = 5
    seed: int = 0
    minibatch: int = 1
    # plumbing beyond the core schedule
    min_count: int = 2
    eval_every: int = 1
    stop_exact_at_1: float | None = None
    state_kind: str = "gru"       # the GRU is the only decoder state

    def validate(self) -> None:
        for f in fields(self):
            value, base = getattr(self, f.name), f.type.removesuffix(" | None")
            # bool is an Integral, but a stored ``true`` is not a number.
            ok = (isinstance(value, _FIELD_TYPES[base]) and not isinstance(value, bool)
                  or value is None and base != f.type)
            if not ok:
                raise InvalidConfig(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.model_kind not in MODEL_KINDS:
            raise InvalidConfig(f"model_kind must be one of {MODEL_KINDS}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise InvalidConfig("dropout_rate must be in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise InvalidConfig("learning_rate must be finite and >= 0")
        for name in ("D", "k1", "k2", "w1", "w2", "w3",
                     "minibatch", "patience", "min_count", "eval_every"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be >= 0")
        if self.state_kind != "gru":
            raise InvalidConfig("state_kind must be 'gru'")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in obj.items() if k in known})


# Each model kind's changes to the TrainConfig defaults, which are the copy preset.
PRESETS: dict[str, dict] = {
    "conv_attention": dict(k1=8, k2=8, w1=24, w2=29, w3=10, dropout_rate=0.5),
    "copy_attention": {},
}
MODEL_KINDS = tuple(PRESETS)


def preset(model_kind: str, **overrides) -> TrainConfig:
    """The tuned configuration of ``model_kind`` with ``overrides`` applied,
    validated; an unknown kind raises ``InvalidConfig``."""
    cfg = TrainConfig(**{"model_kind": model_kind, **PRESETS.get(model_kind, {}), **overrides})
    cfg.validate()
    return cfg


# -- initialization ---------------------------------------------------------------


def target_counts(examples: Iterable[MethodExample]) -> Counter[str]:
    """Occurrences of every training target subtoken, end marker included."""
    counts: Counter[str] = Counter()
    for ex in examples:
        counts.update(ex.name)
        counts[NAME_END] += 1
    return counts


def init_params(cfg: TrainConfig, vocab: Vocabulary, name_counts: Counter[str],
                rng: np.random.Generator) -> ModelParams:
    """Normal noise around zero, drawn from ``rng`` tensor by tensor in
    ``param_shapes`` order, except the output bias, which starts at the
    log empirical frequency of each target id in ``name_counts`` (add-one
    smoothed so every entry is finite), and the PReLU leak.  Only the copy
    model gets a copy head.  Both ``name_counts`` and ``rng`` are
    required: ``train`` passes ``target_counts`` of its examples and the
    generator its epochs go on drawing from."""
    v = len(vocab)
    id_counts = np.zeros(v)
    for tok, c in name_counts.items():
        id_counts[vocab.id(tok)] += c
    fixed = {"b": np.log((id_counts + 1.0) / (id_counts.sum() + v)),
             "prelu_a1": PRELU_INIT}
    shapes = param_shapes(v, cfg.D, cfg.k1, cfg.k2, cfg.w1, cfg.w2, cfg.w3,
                          copy=cfg.model_kind == "copy_attention")
    return ModelParams.from_named({
        name: Tensor(fixed[name] if name in fixed else rng.normal(0.0, INIT_SIGMA, size=shape),
                     requires_grad=True)
        for name, shape in shapes
    })


# -- optimizer ---------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Per-parameter RMS accumulators and momentum buffers."""

    sq: dict[str, np.ndarray] = field(default_factory=dict)
    mom: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        state = cls()
        for name, t in params.named_tensors():
            state.sq[name] = np.zeros_like(t.data)
            state.mom[name] = np.zeros_like(t.data)
        return state


def clip_global_norm(grads: dict[str, np.ndarray]) -> float:
    """Scale all gradients so the joint norm is at most ``CLIP_NORM``.

    A NaN or Inf entry makes the norm non-finite, and so does a sum of
    squares that overflows; either raises ``NonFiniteGradient`` before
    any gradient is scaled.  The norm is the check: at minibatch 1,
    ``train`` takes this raise as the example's NaN/Inf test and scans
    the entries only then, to tell a NaN or Inf entry from an overflow.
    """
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if not math.isfinite(total):
        raise NonFiniteGradient("gradient norm is not finite (NaN or Inf entries)")
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        for g in grads.values():
            g *= scale
    return total


def sgd_update(params: ModelParams, grads: dict[str, np.ndarray],
               opt_state: OptimizerState, cfg: TrainConfig) -> float:
    """One clipped RMSProp + Nesterov-momentum step, in place: the rule
    of the module docstring, statement for statement and operand for
    operand, run over each parameter's flat entries one block of
    ``UPDATE_BLOCK`` at a time, so a block's statements find their
    operands in cache.  Each intermediate goes into one of two scratch
    vectors: ``s`` holds (1 - rho) * g^2, then sqrt(a + eps), then s,
    and ``step`` holds lr * (s + momentum * v).

    Returns the global gradient norm before clipping; a non-finite one
    raises ``NonFiniteGradient`` and leaves the parameters as they were.
    """
    norm = clip_global_norm(grads)
    scratch_s, scratch_step = np.empty(UPDATE_BLOCK), np.empty(UPDATE_BLOCK)
    for name, t in params.named_tensors():
        # The update writes through these; copy=False raises rather than copy.
        theta, a, v = (np.reshape(x, -1, copy=False)
                       for x in (t.data, opt_state.sq[name], opt_state.mom[name]))
        # Read only, so a copy serves; broadcast as the whole-array rule would.
        g = np.broadcast_to(grads[name], t.shape).reshape(-1)
        for lo in range(0, g.size, UPDATE_BLOCK):
            block = slice(lo, lo + UPDATE_BLOCK)
            gb, ab, vb = g[block], a[block], v[block]
            s, step = scratch_s[:gb.size], scratch_step[:gb.size]
            ab *= RMS_DECAY
            np.multiply(1.0 - RMS_DECAY, gb, out=s)
            s *= gb
            ab += s
            np.add(ab, EPSILON, out=s)
            np.sqrt(s, out=s)
            np.divide(gb, s, out=s)
            vb *= MOMENTUM
            vb += s
            np.multiply(MOMENTUM, vb, out=step)
            np.add(s, step, out=step)
            step *= cfg.learning_rate
            theta[block] -= step
    return norm


# -- dropout ---------------------------------------------------------------------------


def masked_view(params: ModelParams, rate: float, rng: np.random.Generator) -> ModelParams:
    """A fresh parameter view with entries dropped at ``rate``.

    Masked entries contribute nothing to the forward pass; the mask
    applies identically to the gradient, so the underlying leaves keep
    accumulating correctly.  Each mask is built in the array its uniform
    draws came in, and the view is the product ``t * mask``: ``np.where``
    would turn a dropped -0.0 into +0.0.
    """
    scale = 1.0 / (1.0 - rate)

    def mask(shape: tuple[int, ...]) -> np.ndarray:
        m = rng.random(shape)
        np.greater_equal(m, rate, out=m)
        m *= scale
        return m

    return ModelParams.from_named({name: t * mask(t.shape)
                                   for name, t in params.named_tensors()})


# -- training loop -----------------------------------------------------------------------


def example_loss(params: ModelParams, snippet: EncodedSnippet,
                 name: Sequence[str], vocab: Vocabulary, cfg: TrainConfig,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Sum of per-subtoken losses for one example, end marker included.

    Each use of the |V|-row table ``E`` happens once per example: one
    encoding that every step gates with its state, one gather of the
    targets fed back to the GRU, and after the recurrence one vocabulary
    head over every step's prediction.  With ``rng`` and a positive
    dropout rate, each state update draws once whether the GRU is fed the
    step's predicted embedding instead of the target's (scheduled sampling).
    """
    step = step_fn(cfg.model_kind)
    encoded = encode(snippet, params)
    targets = [*name, NAME_END]
    fed = rows(params.E, [vocab.id(target) for target in name])
    outs: list[StepOutput] = []
    h = params.h_init
    for t in range(len(targets)):
        outs.append(step(snippet, h, params, encoded))
        if t + 1 < len(targets):
            predicted = rng is not None and cfg.dropout_rate > 0.0 \
                and rng.random() < cfg.dropout_rate
            h = next_state(params, h, outs[t].nhat if predicted else rows(fed, t))
    head = vocab_head(stack([out.nhat for out in outs]), params)
    losses = [step_loss(out, target, snippet, vocab, rows(head, t))
              for t, (out, target) in enumerate(zip(outs, targets))]
    return sum(losses[1:], losses[0])


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocabulary
    config: TrainConfig
    log: list[dict]
    best_epoch: int
    skipped_examples: int


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.named_tensors()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]) -> None:
    for name, t in params.named_tensors():
        t.data = snap[name]


def _collect_grads(params: ModelParams) -> dict[str, np.ndarray]:
    """Each leaf's gradient array itself, not a copy: ``zero_grad`` drops
    it before the next backward, which then builds a new one."""
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.named_tensors()
    }


def _all_finite(grads: dict[str, np.ndarray]) -> bool:
    return all(np.all(np.isfinite(g)) for g in grads.values())


def _grad_norm_stats(norms: Sequence[float]) -> dict:
    """An epoch's mean and max pre-clip gradient norm and the fraction of
    its updates that were clipped; all ``None`` without an update."""
    if not norms:
        return {"grad_norm_mean": None, "grad_norm_max": None, "clipped_frac": None}
    return {"grad_norm_mean": sum(norms) / len(norms),
            "grad_norm_max": max(norms),
            "clipped_frac": sum(n > CLIP_NORM for n in norms) / len(norms)}


def train(train_examples: Sequence[MethodExample],
          valid_examples: Sequence[MethodExample],
          cfg: TrainConfig,
          vocab: Vocabulary | None = None,
          log_sink=None) -> TrainResult:
    """Train until the epoch budget or the validation patience runs out.

    A validated epoch is kept as the best when its F1 at rank 5 improves
    or its exact match at rank 1 reaches ``stop_exact_at_1``; training
    stops at that target or after ``patience`` validations without an
    improvement.  The result carries the best epoch's parameters, or the
    last epoch's when there is no validation set.
    """
    cfg.validate()
    if not train_examples:
        raise EmptyTrainingSet("no training examples")
    if vocab is None:
        vocab = build_vocabulary(train_examples, min_count=cfg.min_count)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, vocab, target_counts(train_examples), rng)
    opt_state = OptimizerState.for_params(params)

    snippets = [(encode_snippet(ex.body, vocab), ex.name) for ex in train_examples]

    best: dict[str, np.ndarray] | None = None
    best_f1 = -1.0
    best_epoch = 0
    stale = 0
    log: list[dict] = []

    stop = False
    for epoch in range(1, cfg.epochs + 1):
        tick = time.perf_counter()
        order = rng.permutation(len(snippets))
        window: dict[str, np.ndarray] = {}
        norms: list[float] = []
        epoch_nll = 0.0
        counted = 0
        for idx in order:
            snippet, name = snippets[idx]
            view = params
            if cfg.dropout_rate > 0.0:
                view = masked_view(params, cfg.dropout_rate, rng)
            loss = example_loss(view, snippet, name, vocab, cfg, rng=rng)
            if not np.isfinite(float(loss.data)):
                continue
            for _, t in params.named_tensors():
                t.zero_grad()
            loss.backward()
            grads = _collect_grads(params)
            if cfg.minibatch == 1:
                # The update's sum of squares is the example's NaN/Inf
                # test; only a non-finite one is scanned entry by entry.
                try:
                    norms.append(sgd_update(params, grads, opt_state, cfg))
                except NonFiniteGradient:
                    if _all_finite(grads):
                        raise  # finite entries whose sum of squares overflows
                    continue
            elif _all_finite(grads):
                # The example's one scan: the update's norm is the window's.
                for gname, g in grads.items():
                    if gname in window:
                        window[gname] += g
                    else:
                        window[gname] = g
                if (counted + 1) % cfg.minibatch == 0:
                    norms.append(sgd_update(params, window, opt_state, cfg))
                    window = {}
            else:
                continue
            epoch_nll += float(loss.data)
            counted += 1
        if window:
            norms.append(sgd_update(params, window, opt_state, cfg))
        train_seconds = time.perf_counter() - tick

        f1_5 = exact_1 = None
        valid_seconds = 0.0
        if valid_examples and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            valid_tick = time.perf_counter()
            report, _ = evaluate_model(params, vocab, valid_examples,
                                       model_kind=cfg.model_kind)
            valid_seconds = time.perf_counter() - valid_tick
            f1_5, exact_1 = report.f1_at_5, report.exact_at_1
            improved = f1_5 > best_f1
            reached = cfg.stop_exact_at_1 is not None and exact_1 >= cfg.stop_exact_at_1
            if improved:
                best_f1 = f1_5
                stale = 0
            else:
                stale += 1
            if improved or reached:
                best = _snapshot(params)
                best_epoch = epoch
            stop = reached or stale >= cfg.patience
        entry = {
            "epoch": epoch,
            "train_nll": epoch_nll / counted if counted else None,
            "valid_f1_at_5": f1_5,
            "valid_exact_at_1": exact_1,
            **_grad_norm_stats(norms),
            "skipped": len(order) - counted,
            "examples_per_s": len(order) / train_seconds,
            "valid_seconds": valid_seconds,
            "seconds": time.perf_counter() - tick,
        }
        log.append(entry)
        if log_sink is not None:
            log_sink(entry)
        if stop:
            break

    if best is not None:
        _restore(params, best)
    return TrainResult(params=params, vocab=vocab, config=cfg, log=log,
                       best_epoch=best_epoch if valid_examples else len(log),
                       skipped_examples=sum(entry["skipped"] for entry in log))
