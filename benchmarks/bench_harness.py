"""The codesum benchmark: workloads, measurement loop, checks and results.

Three workloads, each a closed loop with one caller in one process (the
next call starts only when the previous one has returned):

* ``train-copy``: ``trainer.train`` with the copy preset on long bodies,
  parameter dropout on and no validation split, so the encoder, autograd
  and optimizer do the work and the decoder does none.
* ``suggest-copy``: what ``codesum suggest --viz`` does for one snippet,
  on a copy-preset checkpoint trained in set-up and passed through
  ``checkpoint.save``/``load``.  The one-user latency workload.
* ``evaluate-conv``: what ``codesum evaluate`` and ``--baseline tfidf``
  do per test example, on a conv-preset checkpoint with short bodies and
  a large vocabulary, so the |V|-sized work dominates each expansion.

Every run of a workload does the same work.  Its data are drawn once,
from ``DATA_SEED``; ``--seed`` only orders the pool of calls (and seeds
training).  Calls are timed in whole passes over that pool, as many as
fit in the requested seconds and at least one, so a faster build does
more passes of the same calls, never different calls.  Quality figures
and the output digest cover the first pass.

A run sets up three times and reports the median set-up time; after each
set-up it measures for a third of the requested seconds.  The traced run
(``--trace 1``) sets up once, measures half the time untraced and half
traced, and reports per-layer figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import codesum
from codesum import checkpoint, decoder, evaluation, trainer, viz
from codesum.corpus import tokenize_snippet
from codesum.decoder import SearchLimits
from codesum.model import encode_snippet

from bench_corpus import Corpus, CorpusSpec, body_key, build_corpus, properties
from bench_trace import Tracer

# name -> (unit, better); the end-to-end metrics every workload reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "work_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_frac": ("fraction", "higher"),
}

# Per-layer metrics of the traced run.  Layers that run in set-up are
# reported per set-up; the others per unit of measured work.
SETUP_LAYERS = ("corpus.extract_methods", "corpus.tokenize_method",
                "corpus.build_vocabulary", "corpus.split_examples",
                "checkpoint.save", "checkpoint.load", "evaluation.tfidf_build")
PER_LAYER = {
    **{f"{layer}.ms": "ms/setup" for layer in SETUP_LAYERS},
    "tensorcore.rows.self_ms": "ms/unit",
    "tensorcore.conv1d_narrow.self_ms": "ms/unit",
    "tensorcore.conv1d_narrow.calls": "count/unit",
    "tensorcore.prelu.self_ms": "ms/unit",
    "tensorcore.l2_normalize.self_ms": "ms/unit",
    "tensorcore.softmax.self_ms": "ms/unit",
    "tensorcore.matmul.self_ms": "ms/unit",
    "tensorcore.gru_step.self_ms": "ms/unit",
    "tensorcore.gru_step.calls": "count/unit",
    "tensorcore.tensors_created": "count/unit",
    "model.step.ms": "ms/unit",
    "model.step.calls": "count/unit",
    "model.attention_features.self_ms": "ms/unit",
    "model.attention_weights.ms": "ms/unit",
    "model.step_loss.ms": "ms/unit",
    "model.merged_distribution.ms": "ms/unit",
    "model.next_state.ms": "ms/unit",
    "model.next_state.calls": "count/unit",
    "trainer.masked_view.ms": "ms/unit",
    "trainer.example_loss.ms": "ms/unit",
    "trainer.backward.ms": "ms/unit",
    "trainer.sgd_update.ms": "ms/unit",
    "trainer.skipped": "count/unit",
    "decoder.suggest.ms": "ms/unit",
    "decoder.expand.self_ms": "ms/unit",
    "decoder.expansions": "count/unit",
    "decoder.child_states": "count/unit",
    "decoder.child_state_use_ratio": "ratio",
    "decoder.completions": "count/unit",
    "evaluation.score.ms": "ms/unit",
    "evaluation.tfidf_suggest.ms": "ms/unit",
    "viz.render_attention_html.ms": "ms/unit",
    "trace.overhead_ms": "ms/unit",
}

# Each workload's own figures, reported in the detailed line: name -> unit.
NAMED_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_frac": "fraction",
    "train_examples_per_s": "1/s",
    "train_ms_per_example_p50": "ms",
    "train_nll": "nats",
    "suggest_ms_p50": "ms",
    "suggest_ms_p90": "ms",
    "eval_examples_per_s": "1/s",
    "tfidf_examples_per_s": "1/s",
    "eval_ms_p50": "ms",
    "f1_at_5": "fraction",
    "tfidf_f1_at_5": "fraction",
}

K = 5  # suggestions per request, as the CLI's default


@dataclass(frozen=True)
class Sizes:
    """How much work one workload does; the smoke test shrinks these."""

    corpus: CorpusSpec                  # training data
    pool: int                           # calls per pass; every pass makes the same calls
    requests: CorpusSpec | None = None  # decode workloads: held-out methods to ask for
    setup_repeats: int = 3
    train_chunk: int = 8         # train-copy: examples per train() call
    train_epochs: int = 2        # train-copy: epochs per train() call
    ckpt_examples: int = 48      # set-up checkpoint: training examples
    ckpt_epochs: int = 1         # set-up checkpoint: epochs
    limits: SearchLimits = field(default_factory=SearchLimits)


LONG_BODIES = CorpusSpec(n_files=300, methods_per_file=(3, 7), statements=(3, 5),
                         lexicon=6000, zipf=0.6)
SHORT_BODIES = CorpusSpec(n_files=1700, methods_per_file=(3, 7), statements=(1, 1),
                          lexicon=16000, zipf=0.4)
# Every corpus is drawn from this seed, whatever --seed is, so that every
# run of a workload does the same work: decode cost varies several-fold
# from one request to the next, and follows the checkpoint's confidence.
# Streams of the generator keep training data and requests apart.
DATA_SEED = 0
TRAIN_STREAM, CKPT_STREAM, REQUEST_STREAM = 0, 1, 2
SIZES = {
    # Pools are sized so that one pass takes about a third of a 15 s run.
    "train-copy": Sizes(corpus=LONG_BODIES, pool=3),
    # Below about 40 training examples the copy model completes names so
    # rarely that each decode runs to max_steps; 48 puts it past that point,
    # as a served checkpoint would be.
    "suggest-copy": Sizes(corpus=LONG_BODIES, requests=replace(LONG_BODIES, n_files=10),
                          pool=16),
    # The conv model passes the same point at about 50 example updates; with
    # fewer, every decode runs 50 expansions.
    "evaluate-conv": Sizes(corpus=SHORT_BODIES, requests=replace(SHORT_BODIES, n_files=10),
                           pool=14, ckpt_examples=16, ckpt_epochs=4),
}


@dataclass
class Call:
    """Outcome of one closed-loop call."""

    units: int                       # units of work the call did
    samples_ms: list[float]          # per-unit latency samples
    failed: int = 0                  # units that failed a check or raised
    quality: list[float] = field(default_factory=list)  # F1 at rank 5 per unit
    digest: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class CheckFailed(AssertionError):
    """An output check failed."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_params(params) -> None:
    for name, t in params.named_tensors():
        _check(bool(np.all(np.isfinite(t.data))), f"parameter {name} is not finite")


def _train_checkpoint(corpus: Corpus, kind: str, sizes: Sizes, out_dir: Path):
    """Train a preset checkpoint on the corpus and round-trip it on disk."""
    cfg = trainer.preset(kind, epochs=sizes.ckpt_epochs, seed=DATA_SEED)
    result = trainer.train(corpus.splits["train"][:sizes.ckpt_examples], [], cfg,
                           vocab=corpus.vocab)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        path = Path(tmp) / "model.ckpt"
        checkpoint.save(result.params, result.vocab, result.config, path)
        params, vocab, cfg = checkpoint.load(path)
    _check(vocab == corpus.vocab, "checkpoint vocabulary differs")
    _check_params(params)
    return params, cfg


def _ordered(examples: list, n: int, seed: int) -> list:
    """The first ``n`` examples, in the order ``seed`` draws."""
    _check(len(examples) >= n, f"corpus has {len(examples)} examples, the pool needs {n}")
    return [examples[i] for i in np.random.default_rng(seed).permutation(n)]


def _requests(sizes: Sizes, seed: int) -> tuple[list, dict]:
    """The pool of held-out methods, as examples and their Java body texts."""
    corpus = build_corpus(sizes.requests, DATA_SEED, stream=REQUEST_STREAM)
    examples = [ex for split in corpus.splits.values() for ex in split]
    return _ordered(examples, sizes.pool, seed), corpus.bodies


class TrainCopy:
    """Copy-preset training on long bodies; a unit is one example trained once."""

    @staticmethod
    def units_per_call(sizes: Sizes) -> int:
        return sizes.train_chunk * sizes.train_epochs

    def setup(self, seed: int, sizes: Sizes, out_dir: Path) -> dict:
        corpus = build_corpus(sizes.corpus, DATA_SEED, stream=TRAIN_STREAM)
        inputs = _ordered(corpus.splits["train"], sizes.pool * sizes.train_chunk, seed)
        return {"vocab": corpus.vocab, "inputs": inputs, "seed": seed}

    def call(self, st: dict, i: int, sizes: Sizes) -> Call:
        n = sizes.train_chunk
        chunk = st["inputs"][i * n:(i + 1) * n]
        cfg = trainer.preset("copy_attention", epochs=sizes.train_epochs,
                             seed=st["seed"] * 1000 + i)
        log: list[dict] = []
        result = trainer.train(chunk, [], cfg, vocab=st["vocab"], log_sink=log.append)
        _check(len(log) == sizes.train_epochs, "epoch log is incomplete")
        nll = [entry["train_nll"] for entry in log]
        _check(all(math.isfinite(x) for x in nll), "training loss is not finite")
        _check_params(result.params)
        return Call(
            units=self.units_per_call(sizes),
            samples_ms=[1000.0 * entry["seconds"] / n for entry in log],
            failed=result.skipped_examples,
            digest=[round(x, 6) for x in nll],
            extra={"train_nll": nll[-1], "skipped": result.skipped_examples})


class SuggestCopy:
    """``codesum suggest --viz`` per held-out snippet; a unit is one request."""

    @staticmethod
    def units_per_call(sizes: Sizes) -> int:
        return 1

    def setup(self, seed: int, sizes: Sizes, out_dir: Path) -> dict:
        corpus = build_corpus(sizes.corpus, DATA_SEED, stream=CKPT_STREAM)
        params, cfg = _train_checkpoint(corpus, "copy_attention", sizes, out_dir)
        inputs, bodies = _requests(sizes, seed)
        return {"vocab": corpus.vocab, "params": params, "cfg": cfg, "inputs": inputs,
                "requests": [(bodies[body_key(ex)], ex.name) for ex in inputs]}

    def call(self, st: dict, i: int, sizes: Sizes) -> Call:
        text, target = st["requests"][i]
        vocab, cfg = st["vocab"], st["cfg"]
        tick = time.perf_counter()
        snippet = encode_snippet(tokenize_snippet(text), vocab)
        found = decoder.suggest(snippet, st["params"], vocab, k=K, model_kind=cfg.model_kind,
                                state_kind=cfg.state_kind, limits=sizes.limits)
        _check(bool(found), "no suggestion completed")
        top = found[0]
        page = viz.render_attention_html(
            snippet.surface, top.steps, title=",".join(top.name),
            oov_tokens={tok for tok in snippet.surface if tok not in vocab})
        elapsed = time.perf_counter() - tick
        _check(len(found) <= K, "more than k suggestions")
        for s in found:
            _check(0 < len(s.name) <= sizes.limits.max_name_len, "bad name length")
            _check(0.0 < s.probability <= 1.0, "probability outside (0, 1]")
        lps = [s.log_prob for s in found]
        _check(lps == sorted(lps, reverse=True), "suggestions not sorted by log_prob")
        _check(page.startswith("<!DOCTYPE html>") and len(top.steps) == len(top.name) + 1,
               "attention page does not cover the top suggestion")
        f1 = evaluation.score_suggestions([s.name for s in found], target)["f1_at_5"]
        _check(0.0 <= f1 <= 1.0, "F1 outside [0, 1]")
        return Call(units=1, samples_ms=[1000.0 * elapsed], quality=[f1],
                    digest=[(s.name, round(s.log_prob, 6)) for s in found])


class EvaluateConv:
    """``codesum evaluate`` plus the tf-idf baseline per test example."""

    @staticmethod
    def units_per_call(sizes: Sizes) -> int:
        return 1

    def setup(self, seed: int, sizes: Sizes, out_dir: Path) -> dict:
        corpus = build_corpus(sizes.corpus, DATA_SEED, stream=CKPT_STREAM)
        params, cfg = _train_checkpoint(corpus, "conv_attention", sizes, out_dir)
        index = evaluation.TfIdfIndex(corpus.splits["train"])
        inputs, _ = _requests(sizes, seed)
        return {"vocab": corpus.vocab, "params": params, "cfg": cfg, "index": index,
                "inputs": inputs}

    def call(self, st: dict, i: int, sizes: Sizes) -> Call:
        ex = st["inputs"][i]
        vocab, cfg = st["vocab"], st["cfg"]
        tick = time.perf_counter()
        report, rows = evaluation.evaluate_model(
            st["params"], vocab, [ex], model_kind=cfg.model_kind,
            state_kind=cfg.state_kind, k=K, limits=sizes.limits)
        mid = time.perf_counter()
        base, base_rows = evaluation.evaluate_tfidf(st["index"], [ex], vocab, k=K)
        done = time.perf_counter()
        names = rows[0]["suggestions"]
        _check(report.n_examples == 1 and base.n_examples == 1, "report size")
        _check(bool(names), "no suggestion completed")
        _check(all(0 < len(n) <= sizes.limits.max_name_len for n in names), "bad name length")
        _check(len(base_rows[0]["suggestions"]) == K, "tf-idf returned fewer than k names")
        for rep in (report, base):
            _check(0.0 <= rep.f1_at_5 <= 1.0, "F1 outside [0, 1]")
        return Call(units=1, samples_ms=[1000.0 * (done - tick)], quality=[report.f1_at_5],
                    digest=[names, base_rows[0]["suggestions"]],
                    extra={"model_s": mid - tick, "tfidf_s": done - mid,
                           "tfidf_f1_at_5": base.f1_at_5})


WORKLOADS = {"train-copy": TrainCopy, "suggest-copy": SuggestCopy,
             "evaluate-conv": EvaluateConv}


def measure(wl, st: dict, sizes: Sizes, seconds: float) -> tuple[list[Call], float, int]:
    """Whole passes over the pool, at least one, for as many as end
    nearest to ``seconds``: (calls, seconds spent, passes)."""
    calls: list[Call] = []
    passes = 0
    tick = time.perf_counter()
    while True:
        for i in range(sizes.pool):
            try:
                calls.append(wl.call(st, i, sizes))
            except Exception as exc:  # a failed call is counted, and the loop goes on
                units = wl.units_per_call(sizes)
                calls.append(Call(units=units, samples_ms=[], failed=units,
                                  extra={"error": f"{type(exc).__name__}: {exc}"}))
        passes += 1
        spent = time.perf_counter() - tick
        if spent * (passes + 0.5) / passes >= seconds:
            return calls, spent, passes


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():  # an exported tree, not a clone
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def fingerprint(root: Path, codesum_threads: str | None) -> dict:
    """What was measured, and on what."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "git_sha": _git_sha(root),
        "codesum_version": codesum.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": affinity,
        "machine": platform.machine(),
        "codesum_threads_env": codesum_threads,
    }


def _digest(calls: list[Call]) -> str:
    return hashlib.sha256(json.dumps([c.digest for c in calls]).encode()).hexdigest()[:16]


def _figure(name: str, value: float, samples: int) -> dict:
    return {"value": value, "unit": NAMED_UNITS[name], "samples": samples}


def _summarise(workload: str, calls: list[Call], elapsed: float, pool: int) -> dict:
    """End-to-end figures of one measured loop, plus the workload's own
    figures under their names in ``named``: {name: {value, unit, samples}}."""
    samples = [s for c in calls for s in c.samples_ms]
    units = sum(c.units for c in calls)
    failed = sum(c.failed for c in calls)
    head = calls[:pool]
    quality = [q for c in head for q in c.quality]
    named: dict = {}

    def put(name: str, value: float, n: int) -> None:
        named[name] = _figure(name, value, n)

    if workload == "train-copy":
        put("train_examples_per_s", units / elapsed, units)
        put("train_ms_per_example_p50", _percentile(samples, 50), len(samples))
        put("train_nll", statistics.fmean(c.extra["train_nll"] for c in head
                                          if "train_nll" in c.extra), len(head))
    elif workload == "suggest-copy":
        put("suggest_ms_p50", _percentile(samples, 50), len(samples))
        put("suggest_ms_p90", _percentile(samples, 90), len(samples))
        put("f1_at_5", statistics.fmean(quality) if quality else float("nan"), len(quality))
    else:
        ok = [c for c in calls if "model_s" in c.extra]
        put("eval_examples_per_s", len(ok) / max(sum(c.extra["model_s"] for c in ok), 1e-9),
            len(ok))
        put("tfidf_examples_per_s", len(ok) / max(sum(c.extra["tfidf_s"] for c in ok), 1e-9),
            len(ok))
        put("eval_ms_p50", _percentile(samples, 50), len(samples))
        put("f1_at_5", statistics.fmean(quality) if quality else float("nan"), len(quality))
        tfidf_f1 = [c.extra["tfidf_f1_at_5"] for c in head if "tfidf_f1_at_5" in c.extra]
        put("tfidf_f1_at_5", statistics.fmean(tfidf_f1) if tfidf_f1 else float("nan"),
            len(tfidf_f1))
    put("fail_frac", failed / max(units, 1), units)
    return {
        "attempted": units,
        "failed": failed,
        "work_per_s": units / elapsed,
        "work_ms_p50": _percentile(samples, 50),
        "digest": _digest(head),
        "named": named,
        "errors": sorted({c.extra["error"] for c in calls if "error" in c.extra})[:5],
    }


def _overhead_ms(plain: list[Call], traced: list[Call]) -> float:
    """Median per-unit cost of tracing, over calls made both ways."""
    diffs = [t - u for a, b in zip(plain, traced) if len(a.samples_ms) == len(b.samples_ms)
             for u, t in zip(a.samples_ms, b.samples_ms)]
    return statistics.median(diffs) if diffs else float("nan")


def _layer_metrics(tracer: Tracer, setup_span: tuple[int, int],
                   measure_span: tuple[int, int], calls: list[Call]) -> dict[str, float]:
    """PER_LAYER values from the spans of one set-up and one measured loop."""
    setup = tracer.aggregate(*setup_span)
    meas = tracer.aggregate(*measure_span)
    per = 1.0 / max(sum(c.units for c in calls), 1)
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if layer in SETUP_LAYERS:
            out[metric] = setup.get(layer, {}).get(stat, 0.0)
        elif stat in ("ms", "self_ms", "calls"):
            out[metric] = meas.get(layer, {}).get(stat, 0.0) * per
    expansions = meas.get("decoder.expand", {}).get("calls", 0)
    child_states = tracer.count_children("decoder.expand", "model.next_state",
                                         *measure_span)
    out["decoder.expansions"] = expansions * per
    out["decoder.child_states"] = child_states * per
    out["decoder.child_state_use_ratio"] = expansions / child_states if child_states else 0.0
    out["decoder.completions"] = tracer.completions * per
    out["tensorcore.tensors_created"] = tracer.tensors_created * per
    out["trainer.skipped"] = sum(c.extra.get("skipped", 0) for c in calls) * per
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path,
        sizes: Sizes | None = None, codesum_threads: str | None = None) -> tuple[dict, dict]:
    """One benchmark run: (final result line, detailed report)."""
    seed %= 2**32  # numpy and the dataset split take non-negative seeds
    wl = WORKLOADS[workload]()
    sizes = sizes or SIZES[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "fingerprint": fingerprint(root, codesum_threads)}

    if not trace:
        # Each set-up is followed by a share of the measured calls, so that
        # the measurement spans the whole run: on a shared machine the speed
        # drifts over tens of seconds, and a longer span averages more of it.
        setup_times, calls, elapsed, passes = [], [], 0.0, 0
        windows = sizes.setup_repeats
        for _ in range(windows):
            st = None  # release the previous set-up before timing the next
            tick = time.perf_counter()
            st = wl.setup(seed, sizes, out_dir)
            setup_times.append(time.perf_counter() - tick)
            more, spent, n = measure(wl, st, sizes, seconds / windows)
            calls += more
            elapsed += spent
            passes += n
        detail["properties"] = properties(st["vocab"], st["inputs"])
        detail["passes"] = passes
        summary = _summarise(workload, calls, elapsed, sizes.pool)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": summary["work_per_s"],
            "work_ms_p50": summary["work_ms_p50"],
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": 1.0 - summary["failed"] / max(summary["attempted"], 1),
        }
        summary["named"]["setup_s"] = _figure("setup_s", metrics["setup_s"], len(setup_times))
        summary["named"]["peak_rss_mb"] = _figure("peak_rss_mb", metrics["peak_rss_mb"], 1)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    else:
        tracer = Tracer()
        tracer.install()
        lo = tracer.mark()
        try:
            st = wl.setup(seed, sizes, out_dir)
        finally:
            tracer.uninstall()
        setup_span = (lo, tracer.mark())
        detail["properties"] = properties(st["vocab"], st["inputs"])
        plain, plain_s, plain_passes = measure(wl, st, sizes, seconds / 2)
        tracer.tensors_created = tracer.completions = 0
        tracer.install()
        lo = tracer.mark()
        try:
            traced, traced_s, traced_passes = measure(wl, st, sizes, seconds / 2)
        finally:
            tracer.uninstall()
        measure_span = (lo, tracer.mark())
        detail["passes"] = {"untraced": plain_passes, "traced": traced_passes}
        plain_sum = _summarise(workload, plain, plain_s, sizes.pool)
        summary = _summarise(workload, traced, traced_s, sizes.pool)
        metrics = _layer_metrics(tracer, setup_span, measure_span, traced)
        metrics["trace.overhead_ms"] = _overhead_ms(plain, traced)
        units = dict(PER_LAYER)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.npz"
        tracer.write(spans_path)
        detail["trace"] = {"missing_hooks": tracer.missing, "spans": len(tracer.start),
                           "spans_file": spans_path.name,
                           "untraced": plain_sum["named"], "traced": summary["named"]}
        summary["attempted"] += plain_sum["attempted"]
        summary["failed"] += plain_sum["failed"]

    detail["named"] = summary["named"]
    detail["digest"] = summary["digest"]
    detail["errors"] = summary["errors"]
    result = {
        "correct": summary["failed"] == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, detail


def main(argv: list[str], root: Path, codesum_threads: str | None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = root / ".bench_out"
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         root, out_dir, codesum_threads=codesum_threads)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0
