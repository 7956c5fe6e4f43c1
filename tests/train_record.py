"""A record of what ``trainer.train`` computes on a tiny seeded corpus.

The corpus is ``benchmarks/bench_corpus.py``'s generator at the smoke
test's tiny size.  Each case trains one model kind at one minibatch size
for two epochs, with its preset's parameter dropout, at small widths,
and validates on the corpus's validation split after every epoch.  The
record keeps, per epoch, the mean training loss, the mean and largest
gradient norm, the share of clipped updates, the validation F1 at rank 5
and exact match at rank 1 and the count of skipped examples, each float
as ``float.hex()``; and, per final parameter, the sum of its entries
and of their absolute values, as hex, and the SHA-256 of its bytes.

``tests/test_train_record.py`` compares a fresh run with the committed
``train_record.json`` within ``conftest.RTOL``: counts exactly, floats
relatively, and each parameter's sum within ``RTOL`` of the sum of its
absolute entries.  ``--strict`` compares every hex value and hash
exactly, which holds only on one BLAS build and thread count.  To
regenerate the record, which is a test-data change:

    PYTHONPATH=src python tests/train_record.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "benchmarks"))

from bench_corpus import CorpusSpec, build_corpus  # noqa: E402
from conftest import RTOL, close  # noqa: E402
from codesum.trainer import preset, train  # noqa: E402

RECORD = HERE / "train_record.json"
CORPUS = CorpusSpec(n_files=12, methods_per_file=(2, 3), statements=(1, 2),
                    lexicon=150, zipf=0.8)
CORPUS_SEED = 3
CASES = [(kind, minibatch) for kind in ("copy_attention", "conv_attention")
         for minibatch in (1, 2)]
WIDTHS = dict(D=8, k1=4, k2=4, w1=3, w2=3, w3=2)
EPOCHS = 2
EPOCH_FIELDS = ("train_nll", "grad_norm_mean", "grad_norm_max", "clipped_frac",
                "valid_f1_at_5", "valid_exact_at_1", "skipped")


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def run() -> list[dict]:
    """One entry per case, in order."""
    corpus = build_corpus(CORPUS, CORPUS_SEED)
    out = []
    for kind, minibatch in CASES:
        cfg = preset(kind, **WIDTHS, epochs=EPOCHS, minibatch=minibatch)
        result = train(corpus.splits["train"], corpus.splits["valid"], cfg, corpus.vocab)
        out.append({
            "model_kind": kind,
            "minibatch": minibatch,
            "best_epoch": result.best_epoch,
            "epochs": [{f: _hex(entry[f]) for f in EPOCH_FIELDS} for entry in result.log],
            "params": {name: {"sum": float(t.data.sum()).hex(),
                              "abs_sum": float(np.abs(t.data).sum()).hex(),
                              "sha256": hashlib.sha256(t.data.tobytes()).hexdigest()}
                       for name, t in result.params.named_tensors()},
        })
    return out


def differences(fresh: list[dict], committed: list[dict]) -> list[str]:
    """Where ``fresh`` leaves the bound around ``committed``: a shape,
    count or name that differs, a float outside ``RTOL``, or a parameter
    sum further than ``RTOL`` of its absolute sum.  Hashes are not read."""
    if [(c["model_kind"], c["minibatch"], len(c["epochs"]), list(c["params"]))
            for c in fresh] != [(c["model_kind"], c["minibatch"], len(c["epochs"]),
                                 list(c["params"])) for c in committed]:
        return ["the cases, epochs or parameter names differ"]
    found = []
    for new, old in zip(fresh, committed):
        case = f"{new['model_kind']} minibatch {new['minibatch']}"
        if new["best_epoch"] != old["best_epoch"]:
            found.append(f"{case}: best epoch {new['best_epoch']} != {old['best_epoch']}")
        for epoch, (a, b) in enumerate(zip(new["epochs"], old["epochs"]), 1):
            for f in EPOCH_FIELDS:
                if not close(a[f], b[f]):
                    found.append(f"{case}, epoch {epoch}: {f} {a[f]} != {b[f]}")
        for name, a in new["params"].items():
            b = old["params"][name]
            gap = abs(float.fromhex(a["sum"]) - float.fromhex(b["sum"]))
            if not gap <= RTOL * float.fromhex(b["abs_sum"]):
                found.append(f"{case}: sum of {name} moved by {gap:.3g}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {RECORD.name}")
    ap.add_argument("--strict", action="store_true",
                    help="compare every hex value and hash exactly")
    args = ap.parse_args(argv)
    fresh = run()
    if args.write:
        RECORD.write_text(json.dumps(fresh, indent=1) + "\n")
        return 0
    committed = json.loads(RECORD.read_text())
    found = differences(fresh, committed)
    for line in found:
        print(line, file=sys.stderr)
    if args.strict and fresh != committed and not found:
        pairs = list(zip(fresh, committed))
        values = sum(a[f] != b[f] for new, old in pairs
                     for a, b in zip(new["epochs"], old["epochs"]) for f in EPOCH_FIELDS)
        params = sum(new["params"][n] != old["params"][n] for new, old in pairs
                     for n in new["params"])
        print(f"train record: DIFFERS in {values} epoch values and {params} parameters, "
              f"within {RTOL:g} relative")
        return 1
    print("train record: " + ("DIFFERS" if found else "equal" if fresh == committed
                              else f"equal within {RTOL:g} relative"))
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
