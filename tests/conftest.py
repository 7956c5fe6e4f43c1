"""Shared builders for model-level tests, search prefixes, the exhaustive
search oracle, checkpoint manifest edits, a Tensor counter, fuzzed
dataset lines and fuzzed Java text."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from codesum.checkpoint import MAGIC
from codesum.corpus.vocabulary import NAME_END, SPECIAL_TOKENS, Vocabulary
from codesum.decoder import Suggestion
from codesum.model import (
    EncodedSnippet,
    ModelParams,
    copy_table,
    encode,
    merged_distribution,
    next_state,
    param_shapes,
    step_fn,
)
from codesum.tensorcore import Tensor


def make_vocab(tokens: list[str]) -> Vocabulary:
    return Vocabulary(list(SPECIAL_TOKENS) + list(tokens))


def make_params(vocab_size: int, d: int = 2, k1: int = 2, k2: int = 2,
                w1: int = 1, w2: int = 1, w3: int = 1,
                rng: np.random.Generator | None = None,
                scale: float = 0.3) -> ModelParams:
    """Random small parameters with every tensor trainable."""
    if rng is None:
        rng = np.random.default_rng(0)
    shapes = param_shapes(vocab_size, d, k1, k2, w1, w2, w3, copy=True)
    return ModelParams.from_named({
        name: Tensor(0.25 if name == "prelu_a1" else rng.normal(0.0, scale, size=shape),
                     requires_grad=True)
        for name, shape in shapes
    })


def make_snippet(ids, surface=None, pad_id: int = 5) -> EncodedSnippet:
    ids = np.asarray(ids, dtype=np.intp)
    if surface is None:
        surface = [f"t{int(i)}" for i in ids]
    return EncodedSnippet(ids=ids, surface=list(surface), pad_id=pad_id)


def prefix(tokens, log_prob: float, state) -> Suggestion:
    """A search node for the name prefix ``tokens``: a chain of nodes from
    a root, the last with ``log_prob`` and ``state``."""
    node = Suggestion(log_prob, state)
    for token in tokens:
        node = Suggestion(log_prob, state, node, token)
    return node


def exhaustive_top_k(snippet, params, vocab, k, max_len, model_kind="copy_attention"):
    """The ``k`` best of every name up to ``max_len`` subtokens, as
    (subtokens, log-probability) pairs: a brute-force enumeration that
    gives every name its own states and runs none of the search machinery.
    It steps the Tensor forward on gradient-free Tensors of the parameters'
    arrays, with the snippet encoded once and one copy table."""
    params = ModelParams.from_named({name: Tensor(t.data) for name, t in params.named_tensors()})
    step = step_fn(model_kind)
    encoded = encode(snippet, params)
    table = copy_table(snippet, vocab) if model_kind == "copy_attention" else None
    scores = {}

    def walk(name, log_prob, state):
        out = step(snippet, state, params, encoded)
        for token, prob in merged_distribution(out, snippet, vocab, table).items():
            if prob <= 0.0:
                continue
            lp = log_prob + math.log(prob)
            if token == NAME_END:
                if name and lp > scores.get(name, -math.inf):
                    scores[name] = lp
            elif len(name) < max_len:
                walk(name + (token,), lp, next_state(params, state, token_id=vocab.id(token)))

    walk((), 0.0, params.h_init)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def read_parts(path):
    """(version, manifest, payload) of a checkpoint file."""
    blob = path.read_bytes()
    manifest_len = int.from_bytes(blob[12:20], "little")
    manifest = json.loads(blob[20:20 + manifest_len])
    return int.from_bytes(blob[8:12], "little"), manifest, blob[20 + manifest_len:]


def write_parts(path, version, manifest, payload):
    raw = json.dumps(manifest).encode()
    path.write_bytes(MAGIC + version.to_bytes(4, "little")
                     + len(raw).to_bytes(8, "little") + raw + payload)


def _first_tensor(**fields):
    return lambda m: {**m, "tensors": [{**m["tensors"][0], **fields}, *m["tensors"][1:]]}


# Manifests that parse as JSON but break the format, each built from a valid one.
BAD_MANIFESTS = {
    "string-extent": _first_tensor(shape=["a"]),
    "negative-extent": _first_tensor(shape=[-1, 3]),
    "fractional-extent": _first_tensor(shape=[1.0]),
    "string-offset": _first_tensor(byte_offset="0"),
    "fractional-offset": _first_tensor(byte_offset=0.5),
    # No bytes, but an extent no array can have.
    "empty-oversized-extent": _first_tensor(shape=[0, 10**30]),
    "oversized-empty-extent": _first_tensor(shape=[10**30, 0]),
    "intp-overflow-empty-extent": _first_tensor(shape=[2**63, 0]),
    "tensors-not-a-list": lambda m: {**m, "tensors": 7},
    "config-not-an-object": lambda m: {**m, "config": ["model_kind"]},
    "manifest-not-an-object": lambda m: "config vocabulary tensors",
}


# Subtokens a dataset record may hold: short text, the vocabulary's specials.
TOKENS = st.text(max_size=6) | st.sampled_from(SPECIAL_TOKENS)
# Any JSON value Python's json module writes and reads back.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TOKENS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def dataset_lines(files=st.nothing()):
    """One line of a dataset file: arbitrary bytes, any JSON value, or a
    record whose fields are lists of subtokens or any JSON value; its
    ``file`` may be drawn from ``files``."""
    tokens = st.lists(TOKENS, max_size=3) | JSON_VALUES
    label = files | TOKENS | JSON_VALUES
    record = st.fixed_dictionaries({"name": tokens, "body": tokens},
                                   optional={"file": label, "project": label})
    return (st.binary(max_size=24).map(lambda b: b.replace(b"\n", b" "))
            | (JSON_VALUES | record).map(lambda v: json.dumps(v).encode()))


def count_tensors(monkeypatch) -> list[Tensor]:
    """From now on, every Tensor made, in order."""
    made = []
    real = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return made


# Pieces of Java source: declarations, headers, braces, literals, comments
# and lexically odd fragments, so that joined they reach the extractor's
# type, method, override and brace paths as well as the lexer's.
JAVA_PIECES = st.sampled_from([
    "class A ", "interface I ", "enum E ", "record R(int a) ", "extends A ",
    "implements I ", "void f() ", "int get_x(int a, String b) ", "<T> T g() ",
    "A() ", "abstract ", "public ", "static ", "@Override ", "@Deprecated ", "X.class ",
    "new A() ", "if (a) ", "return a; ", "int x = 1; ", "throws E ", "default ",
    "{ ", "} ", "( ", ") ", "; ", ", ", "< ", "> ", "= ", ". ", "@", '"s{"', "'}'",
    "// }\n", "/* { */", "/*", '"', "\\", "\n", "\t", "0x1F", "1e", "\u00e9", "\ufffd",
])


def java_text():
    """Text made of Java pieces and arbitrary characters."""
    return st.lists(JAVA_PIECES | st.text(max_size=3), max_size=40).map("".join)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
