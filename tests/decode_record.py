"""A record of what ``decoder.suggest`` returns on a few seeded models.

For each case, a ``conftest.make_params`` model of one kind decodes one
snippet under the default ``SearchLimits``.  The record keeps each top-5
suggestion's name, its log-probability as ``float.hex()`` and the
SHA-256 of its attention records (``StepRecord`` token, alpha, kappa and
lambda bytes), so a change that moves any of them by one bit shows.
Every case is one where raising every ``SearchLimits`` cap leaves the
output unchanged: the record holds the exact top 5, whatever order the
search visits prefixes in.

``tests/test_decode_record.py`` compares a fresh run with the committed
``decode_record.json``: names, their order and the attention hashes
exactly, log-probabilities within ``conftest.RTOL`` relative, since a
vocabulary head over several rows may move them by a few ulps.
``--strict`` compares every log-probability's hex exactly too, which
holds only on one BLAS build and thread count.  To regenerate the
record, which is a test-data change:

    PYTHONPATH=src python tests/decode_record.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import RTOL, close, make_params, make_vocab  # noqa: E402
from codesum.decoder import SearchLimits, suggest  # noqa: E402
from codesum.model import ModelParams, encode_snippet  # noqa: E402

RECORD = Path(__file__).resolve().parent / "decode_record.json"
K = 5
KINDS = ("copy_attention", "conv_attention")
UNBOUND = SearchLimits(max_steps=10**6, heap_size=10**9, successors=10**9, max_name_len=40)

# (seed, vocabulary tokens, body, dims (d, k1, k2, w1, w2, w3), scale);
# the larger scales give peaked steps and names of two or three subtokens.
CASES = [
    (1, "abc", ["a", "b", "zz", "a"], (3, 2, 2, 2, 1, 2), 1.5),
    (2, "abcdef", ["f", "e", "zz", "b", "a", "yy", "c"], (4, 3, 3, 3, 2, 3), 1.5),
    (3, "abcd", ["a", "zz"], (5, 2, 4, 1, 2, 4), 0.6),
    (4, "abcdefgh", ["h", "a", "zz", "g", "b", "b", "c", "zz", "d"], (8, 4, 6, 3, 3, 5), 1.2),
    (5, "ab", ["b", "a", "b"], (2, 2, 2, 1, 1, 1), 1.0),
]


def case_model(seed, tokens, dims, scale, kind):
    vocab = make_vocab(list(tokens))
    params = make_params(len(vocab), *dims, rng=np.random.default_rng(seed), scale=scale)
    if kind == "conv_attention":  # the conv model has no copy head
        params = ModelParams.from_named({n: t for n, t in params.named_tensors()
                                         if n not in ("K_copy", "K_lambda")})
    return vocab, params


def steps_sha256(suggestion) -> str:
    digest = hashlib.sha256()
    for r in suggestion.steps:
        digest.update(r.token.encode() + b"\0" + r.alpha.tobytes())
        digest.update(b"-" if r.kappa is None else r.kappa.tobytes())
        digest.update(b"-" if r.lam is None else struct.pack("<d", r.lam))
    return digest.hexdigest()


def summary(found) -> list[dict]:
    return [{"name": s.name, "log_prob": s.log_prob.hex(), "steps_sha256": steps_sha256(s)}
            for s in found]


def decode(limits: SearchLimits | None = None) -> list[dict]:
    """One entry per case and model kind, in order."""
    out = []
    for seed, tokens, body, dims, scale in CASES:
        for kind in KINDS:
            vocab, params = case_model(seed, tokens, dims, scale, kind)
            snippet = encode_snippet(body, vocab)
            found = suggest(snippet, params, vocab, k=K, model_kind=kind, limits=limits)
            out.append({"seed": seed, "model_kind": kind, "suggestions": summary(found)})
    return out


def differences(fresh: list[dict], committed: list[dict]) -> list[str]:
    """Where ``fresh`` leaves the bound around ``committed``: a case, name,
    order or attention hash that differs, or a log-probability outside
    ``RTOL``."""
    def ranked(cases):
        return [(c["seed"], c["model_kind"], [(s["name"], s["steps_sha256"])
                                              for s in c["suggestions"]]) for c in cases]

    if ranked(fresh) != ranked(committed):
        return ["the cases, names, their order or the attention records differ"]
    return [f"seed {new['seed']} {new['model_kind']} {a['name']}: "
            f"log-prob {a['log_prob']} != {b['log_prob']}"
            for new, old in zip(fresh, committed)
            for a, b in zip(new["suggestions"], old["suggestions"])
            if not close(a["log_prob"], b["log_prob"])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {RECORD.name}")
    ap.add_argument("--strict", action="store_true",
                    help="compare every log-probability's hex exactly")
    args = ap.parse_args(argv)
    fresh = decode()
    if differences(decode(UNBOUND), fresh):
        print("a SearchLimits cap binds on some case; choose other cases", file=sys.stderr)
        return 1
    if args.write:
        RECORD.write_text(json.dumps(fresh, indent=1) + "\n")
        return 0
    committed = json.loads(RECORD.read_text())
    found = differences(fresh, committed)
    for line in found:
        print(line, file=sys.stderr)
    if args.strict and fresh != committed and not found:
        print(f"decode record: DIFFERS in log-probs only, within {RTOL:g} relative")
        return 1
    print("decode record: " + ("DIFFERS" if found else "equal" if fresh == committed
                               else f"equal within {RTOL:g} relative"))
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
