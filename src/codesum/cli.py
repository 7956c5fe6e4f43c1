"""Command-line entry point.

Exit codes: 0 success, 1 internal error, 2 bad usage or bad input.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import checkpoint
from .corpus.dataset import (
    load_jsonl,
    save_jsonl,
    split_examples,
    tokenize_method,
    tokenize_snippet,
)
from .corpus.javalex import extract_methods
from .decoder import suggest
from .errors import CodesumError, UnbalancedBraces
from .evaluation import TfIdfIndex, evaluate_model, evaluate_tfidf, shuffle_ablation
from .model import encode_snippet
from .trainer import TrainConfig, preset, train
from .viz import render_attention_html


def _cmd_build_corpus(args) -> int:
    _check_outputs(args.out)
    src = Path(args.src)
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2
    java_files = sorted(src.rglob("*.java"))
    if not java_files:
        print("error: no Java files", file=sys.stderr)
        return 2
    stats: Counter = Counter()
    examples = []
    skipped_files = 0
    for path in java_files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
            methods = extract_methods(text, str(path), args.project, stats)
        except UnbalancedBraces as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            skipped_files += 1
            continue
        examples.extend(tokenize_method(m) for m in methods)
    n = save_jsonl(examples, args.out)
    print(f"files: {len(java_files)} ({skipped_files} skipped)")
    print(f"methods kept: {n}")
    print(f"excluded: constructors {stats['excluded_constructor']}, "
          f"overrides {stats['excluded_override']}, "
          f"abstract/bodyless {stats['excluded_bodyless']}")
    return 0


def _check_outputs(*paths: str | None) -> None:
    """Fail before any work if an output could not be written there: its
    parent must be a directory and the path itself must not be one."""
    for path in filter(None, paths):
        target = Path(path)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not target.parent.is_dir():
            code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), path)  # the errno's own subclass


_MODEL_FLAG = {"conv": "conv_attention", "copy": "copy_attention"}

# TrainConfig fields that `train` exposes as `--<field-name>` flags; an
# omitted flag leaves the preset's value.
_TRAIN_FLAGS = ("D", "k1", "k2", "w1", "w2", "w3", "dropout_rate", "learning_rate",
                "epochs", "patience", "seed", "minibatch", "min_count", "eval_every")


def _cmd_train(args) -> int:
    _check_outputs(args.out, args.log)
    overrides = {key: getattr(args, key) for key in _TRAIN_FLAGS
                 if getattr(args, key) is not None}
    cfg = preset(_MODEL_FLAG[args.model], **overrides)
    print("config: " + json.dumps(cfg.to_dict(), sort_keys=True))

    examples = load_jsonl(args.data)
    splits = split_examples(examples, cfg.seed)
    with open(args.log or os.devnull, "w", encoding="utf-8") as log_fh:
        def sink(entry: dict) -> None:
            line = json.dumps(entry)
            print(line)
            log_fh.write(line + "\n")
            log_fh.flush()

        result = train(splits["train"], splits["valid"], cfg, log_sink=sink)
    checkpoint.save(result.params, result.vocab, result.config, args.out)
    print(f"checkpoint: {args.out} (best epoch {result.best_epoch}, "
          f"skipped examples {result.skipped_examples})")
    return 0


def _cmd_evaluate(args) -> int:
    _check_outputs(args.out, args.per_example)
    params, vocab, cfg = checkpoint.load(args.ckpt)
    examples = load_jsonl(args.data)
    splits = split_examples(examples, cfg.seed)
    split = splits[args.split]
    if not split:
        print(f"error: split {args.split!r} is empty", file=sys.stderr)
        return 2
    if args.shuffle_bodies is not None:
        split = shuffle_ablation(split, args.shuffle_bodies)
    if args.baseline == "tfidf":
        index = TfIdfIndex(splits["train"])
        report, rows = evaluate_tfidf(index, split, vocab, k=args.k)
    else:
        report, rows = evaluate_model(
            params, vocab, split, model_kind=cfg.model_kind, k=args.k)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    if args.per_example:
        import csv

        with open(args.per_example, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["example", "target", "f1_at_1", "f1_at_5",
                             "exact_at_1", "exact_at_5", "top_5"])
            for i, row in enumerate(rows):
                writer.writerow([
                    i, " ".join(row["target"]),
                    f"{row['f1_at_1']:.4f}", f"{row['f1_at_5']:.4f}",
                    int(row["exact_at_1"]), int(row["exact_at_5"]),
                    "; ".join(",".join(name) for name in row["suggestions"]),
                ])
    return 0


def _cmd_suggest(args) -> int:
    _check_outputs(args.viz)
    params, vocab, cfg = checkpoint.load(args.ckpt)
    if args.snippet == "-":
        sys.stdin.reconfigure(encoding="utf-8", errors="replace")
        text = sys.stdin.read()
    else:
        text = Path(args.snippet).read_text(encoding="utf-8", errors="replace")
    body = tokenize_snippet(text)
    if not body:
        print("error: snippet has no tokens", file=sys.stderr)
        return 2
    snippet = encode_snippet(body, vocab)
    suggestions = suggest(snippet, params, vocab, k=args.k, model_kind=cfg.model_kind)
    if not suggestions:
        print("warning: no suggestion completed within the search limits",
              file=sys.stderr)
        return 0
    for i, s in enumerate(suggestions, start=1):
        pct = 100.0 * s.probability
        print(f"{i}. {','.join(s.name)} ({pct:.1f}%)")
    if args.viz:
        top = suggestions[0]
        oov = {tok for tok in snippet.surface if tok not in vocab}
        page = render_attention_html(
            snippet.surface, top.steps, title=",".join(top.name), oov_tokens=oov)
        Path(args.viz).write_text(page, encoding="utf-8")
        print(f"visualization: {args.viz}")
    return 0


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codesum",
        description="Extreme summarization of code snippets into method-name-like summaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-corpus", help="extract methods from Java sources")
    p.add_argument("--src", required=True, help="directory of .java files")
    p.add_argument("--out", required=True, help="output dataset (JSON-Lines)")
    p.add_argument("--project", default="", help="project label stored per method")
    p.set_defaults(fn=_cmd_build_corpus)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=("conv", "copy"), required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="epoch log path (JSON-Lines)")
    for key in _TRAIN_FLAGS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                       type=type(getattr(TrainConfig, key)))
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--baseline", choices=("tfidf",), default=None)
    p.add_argument("--shuffle-bodies", type=_int_at_least(0), default=None, metavar="SEED",
                   help="permute body subtokens before scoring")
    p.add_argument("-k", type=_int_at_least(1), default=5)
    p.add_argument("--out", help="write the report JSON here as well")
    p.add_argument("--per-example", help="write per-example metrics CSV")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("suggest", help="suggest names for a snippet")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--snippet", required=True, help="file of Java body text, or - for stdin")
    p.add_argument("-k", type=_int_at_least(1), default=5)
    p.add_argument("--viz", help="write an attention visualization HTML page")
    p.set_defaults(fn=_cmd_suggest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, CodesumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
