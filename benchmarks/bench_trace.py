"""Span tracing for the benchmark's traced run.

Hooks wrap the package's public functions at the module where the
caller looks them up (``codesum.decoder.next_state``, not only
``codesum.model.next_state``), so the package itself is not edited.
Each wrapped call records a span (name, start, end, parent) in memory;
``Tracer.aggregate`` turns the spans into busy time, self time (busy
time minus the time covered by child spans) and call counts.  A hook
whose target no longer exists is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (layer name, "module:attribute[.attribute]").  A layer may be looked up
# at several places; every place is wrapped under the same name.
HOOKS: tuple[tuple[str, str], ...] = (
    ("corpus.extract_methods", "codesum.corpus:extract_methods"),
    ("corpus.tokenize_method", "codesum.corpus:tokenize_method"),
    ("corpus.build_vocabulary", "codesum.corpus:build_vocabulary"),
    ("corpus.split_examples", "codesum.corpus:split_examples"),
    ("tensorcore.rows", "codesum.model:rows"),
    ("tensorcore.conv1d_narrow", "codesum.model:conv1d_narrow"),
    ("tensorcore.prelu", "codesum.model:prelu"),
    ("tensorcore.l2_normalize", "codesum.model:l2_normalize"),
    ("tensorcore.softmax", "codesum.model:softmax"),
    ("tensorcore.matmul", "codesum.model:matmul"),
    ("tensorcore.matmul", "codesum.tensorcore.tensor:matmul"),
    ("tensorcore.gru_step", "codesum.model:gru_step"),
    ("model.step", "codesum.model:conv_attention_step"),
    ("model.step", "codesum.model:copy_attention_step"),
    ("model.attention_features", "codesum.model:attention_features"),
    ("model.attention_weights", "codesum.model:attention_weights"),
    ("model.step_loss", "codesum.trainer:step_loss"),
    ("model.merged_distribution", "codesum.decoder:merged_distribution"),
    ("model.next_state", "codesum.decoder:next_state"),
    ("model.next_state", "codesum.trainer:next_state"),
    ("trainer.masked_view", "codesum.trainer:masked_view"),
    ("trainer.example_loss", "codesum.trainer:example_loss"),
    ("trainer.backward", "codesum.tensorcore.tensor:Tensor.backward"),
    ("trainer.sgd_update", "codesum.trainer:sgd_update"),
    ("decoder.suggest", "codesum.decoder:suggest"),
    ("decoder.suggest", "codesum.evaluation:suggest"),
    ("decoder.expand", "codesum.decoder:expand"),
    ("evaluation.score", "codesum.evaluation:score_suggestions"),
    ("evaluation.tfidf_build", "codesum.evaluation:TfIdfIndex.__init__"),
    ("evaluation.tfidf_suggest", "codesum.evaluation:TfIdfIndex.suggest"),
    ("checkpoint.save", "codesum.checkpoint:save"),
    ("checkpoint.load", "codesum.checkpoint:load"),
    ("viz.render_attention_html", "codesum.viz:render_attention_html"),
)
TENSOR_CLASS = "codesum.tensorcore.tensor:Tensor"


def _resolve(target: str):
    """(owner object, attribute name) for a hook target, or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder with install/uninstall of the hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.tensors_created = 0
        self.completions = 0
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        count_completions = name == "decoder.expand"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_completions:
                self.completions += len(out[1])
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every hook target; targets that are gone go to ``missing``."""
        for name, target in HOOKS:
            found = _resolve(target)
            if found is None:
                if target not in self.missing:
                    self.missing.append(target)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        found = _resolve(TENSOR_CLASS + ".__init__")
        if found is None:
            self.missing.append(TENSOR_CLASS + ".__init__")
            return
        owner, attr = found
        original = owner.__init__

        @functools.wraps(original)
        def counting_init(obj, *args, **kwargs):
            self.tensors_created += 1
            original(obj, *args, **kwargs)

        self._patched.append((owner, "__init__", original))
        owner.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def mark(self) -> int:
        """Span index to split phases at (spans after it belong to the next)."""
        return len(self.start)

    def aggregate(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per layer over spans [lo, hi): ms, self_ms, calls and the
        number of direct children of each other layer."""
        hi = len(self.start) if hi is None else hi
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        n_names = len(self.names)
        child_cover = np.zeros(hi - lo)
        inside = (parent >= lo) & (parent < hi)
        np.add.at(child_cover, parent[inside] - lo, dur[inside])
        busy = np.bincount(nid, weights=dur, minlength=n_names)
        self_time = np.bincount(nid, weights=dur - child_cover, minlength=n_names)
        calls = np.bincount(nid, minlength=n_names)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"ms": busy[i] / 1e6, "self_ms": self_time[i] / 1e6,
                         "calls": int(calls[i])}
        return out

    def count_children(self, parent_name: str, child_name: str,
                       lo: int = 0, hi: int | None = None) -> int:
        """Spans named ``child_name`` whose parent span is ``parent_name``."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        hi = len(self.start) if hi is None else hi
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        is_child = nid[lo:hi] == self._name_ids[child_name]
        has_parent = is_child & (parent >= 0)
        return int(np.sum(nid[parent[has_parent]] == self._name_ids[parent_name]))

    def write(self, path: Path) -> None:
        """Save every span (name id, start ns, end ns, parent index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32))
