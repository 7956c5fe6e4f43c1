"""Method examples, JSON-Lines persistence, and file-level splits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..errors import MalformedDataset
from .javalex import RawMethod, lex
from .subtokens import body_token_to_subtokens, split_identifier

SPLIT_FRACTIONS = (("train", 0.65), ("valid", 0.05), ("test", 0.30))


@dataclass
class MethodExample:
    """One (name subtokens, body subtokens) pair, the dataset atom."""

    name: list[str]
    body: list[str]
    file_path: str
    project: str


def tokenize_method(raw: RawMethod) -> MethodExample:
    """Subtokenize an extracted method; the method's own name becomes SELF."""
    name = split_identifier(raw.name)
    body: list[str] = []
    for tok in raw.body_tokens:
        body.extend(body_token_to_subtokens(tok, method_name=raw.name))
    return MethodExample(name=name, body=body,
                         file_path=raw.file_path, project=raw.project)


def tokenize_snippet(text: str) -> list[str]:
    """Body subtokens for a bare snippet (no method name known)."""
    out: list[str] = []
    for tok in lex(text):
        out.extend(body_token_to_subtokens(tok))
    return out


# -- persistence ---------------------------------------------------------------

def save_jsonl(examples: Iterable[MethodExample], path: str | Path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({
                "name": ex.name, "body": ex.body,
                "file": ex.file_path, "project": ex.project,
            }) + "\n")
            n += 1
    return n


def load_jsonl(path: str | Path) -> list[MethodExample]:
    """``save_jsonl``'s records; a bad line raises ``MalformedDataset``."""
    out: list[MethodExample] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                name, body = obj["name"], obj["body"]
                if not (isinstance(name, list) and isinstance(body, list)
                        and all(isinstance(t, str) for t in name + body)):
                    raise TypeError("name and body must be lists of strings")
                out.append(MethodExample(name=name, body=body, file_path=obj.get("file", ""),
                                         project=obj.get("project", "")))
            except KeyError as exc:
                raise MalformedDataset(
                    f"{path}, line {lineno}: record has no {exc} field") from exc
            except (ValueError, TypeError, RecursionError) as exc:
                raise MalformedDataset(
                    f"{path}, line {lineno}: not a method record ({exc})") from exc
    return out


# -- splitting -------------------------------------------------------------------

def split_dataset(files: Sequence[str], seed: int) -> dict[str, list[str]]:
    """Assign files to train/valid/test at 65/5/30, reproducibly.

    Split sizes use largest-remainder rounding, so 100 files give exactly
    65/5/30 and a single file lands in train.
    """
    ordered = sorted(set(files))
    rng = np.random.default_rng(seed)
    ordered = [ordered[i] for i in rng.permutation(len(ordered))]
    n = len(ordered)

    quotas = [(name, n * frac) for name, frac in SPLIT_FRACTIONS]
    sizes = {name: math.floor(q) for name, q in quotas}
    remainder = n - sum(sizes.values())
    by_fraction = sorted(
        range(len(quotas)),
        key=lambda i: (-(quotas[i][1] - math.floor(quotas[i][1])), i),
    )
    for i in by_fraction[:remainder]:
        sizes[quotas[i][0]] += 1

    out: dict[str, list[str]] = {}
    start = 0
    for name, _ in SPLIT_FRACTIONS:
        out[name] = ordered[start:start + sizes[name]]
        start += sizes[name]
    return out


def split_examples(examples: Sequence[MethodExample], seed: int) -> dict[str, list[MethodExample]]:
    """File-level split applied to examples; a file's methods stay together."""
    files = sorted({ex.file_path for ex in examples})
    assignment = split_dataset(files, seed)
    where = {f: split for split, fs in assignment.items() for f in fs}
    out: dict[str, list[MethodExample]] = {name: [] for name, _ in SPLIT_FRACTIONS}
    for ex in examples:
        out[where[ex.file_path]].append(ex)
    return out
