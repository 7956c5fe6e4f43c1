"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 9 (real-corpus smoke) is non-gating: it runs only when
CODESUM_SMOKE_DIR points at a Java project checkout.
"""

import itertools
import json
import os
import string
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import exhaustive_top_k, make_params, make_vocab
from codesum.checkpoint import load, save
from codesum.corpus import MethodExample
from codesum.decoder import SearchLimits, suggest
from codesum.errors import (
    BadMagic,
    CorruptManifest,
    TruncatedPayload,
    UnsupportedVersion,
)
from codesum.evaluation import (
    TfIdfIndex,
    aggregate_report,
    evaluate_model,
    exact_match,
    oov_accuracy,
    score_at_rank,
    score_suggestions,
    shuffle_ablation,
    subtoken_prf,
)
from codesum.model import (
    copy_attention_step,
    encode_snippet,
    merged_distribution,
    next_state,
    step_loss_from_ids,
)
from codesum.tensorcore import Tensor, gradient_check, gru_step
from codesum.trainer import preset, train


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {number}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[ACCEPTANCE {number}] PASS  {description}  ({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 1. Gradient correctness (tiny config, full copy-model loss)
# -----------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients match finite differences"):
        rng = np.random.default_rng(100)
        # tiny config: D=2, k1=k2=2, w1=w2=w3=1, |V|=6, Len(c)=4
        params = make_params(6, d=2, k1=2, k2=2, w1=1, w2=1, w3=1, rng=rng)
        snippet_ids = np.array([0, 3, 4, 1], dtype=np.intp)
        from codesum.model import EncodedSnippet

        snippet = EncodedSnippet(ids=snippet_ids,
                                 surface=["<S>", "mark", "other", "</S>"],
                                 pad_id=5)
        indicator_mark = np.array([0.0, 1.0, 0.0, 0.0])

        def build():
            # step 1: out-of-vocabulary target reachable by copy (mu active)
            out1 = copy_attention_step(snippet, params.h_init, params)
            loss = step_loss_from_ids(out1, 3, indicator_mark, True)
            # step 2: state fed with the predicted embedding
            h2 = gru_step(out1.nhat, params.h_init, params.gru)
            out2 = copy_attention_step(snippet, h2, params)
            loss = loss + step_loss_from_ids(out2, 2, np.zeros(4), False)
            # step 3: teacher-forced state on a token embedding
            h3 = next_state(params, h2, token_id=4)
            out3 = copy_attention_step(snippet, h3, params)
            return loss + step_loss_from_ids(out3, 1, np.zeros(4), False)

        worst = gradient_check(build, dict(params.named_tensors()),
                               step=1e-5, rtol=1e-4, atol=1e-7)
        assert worst < 1e-4


# -----------------------------------------------------------------------
# 2. Distribution invariants over randomized draws
# -----------------------------------------------------------------------

def test_criterion_2_distribution_invariants():
    with criterion(2, "alpha/kappa/merged are distributions, lambda in (0,1)"):
        rng = np.random.default_rng(7)
        tokens = ["a", "b", "c", "d", "e"]
        for draw in range(1000):
            d = int(rng.integers(2, 5))
            k1 = int(rng.integers(2, 5))
            k2 = int(rng.integers(2, 5))
            w1, w2, w3 = (int(rng.integers(1, 4)) for _ in range(3))
            vocab = make_vocab(tokens[: int(rng.integers(1, 6))])
            params = make_params(len(vocab), d=d, k1=k1, k2=k2,
                                 w1=w1, w2=w2, w3=w3, rng=rng,
                                 scale=float(rng.uniform(0.05, 1.0)))
            body = [tokens[int(rng.integers(0, len(tokens)))]
                    for _ in range(int(rng.integers(1, 8)))]
            if rng.random() < 0.5:
                body.append(f"oov{draw}")
            snippet = encode_snippet(body, vocab)
            h = params.h_init if rng.random() < 0.5 else Tensor(rng.normal(size=k2))
            out = copy_attention_step(snippet, h, params)
            n = len(snippet)
            assert out.alpha.shape == (n,) and out.kappa.shape == (n,)
            assert np.all(out.alpha.data >= 0) and np.all(out.kappa.data >= 0)
            assert abs(out.alpha.data.sum() - 1.0) <= 1e-6
            assert abs(out.kappa.data.sum() - 1.0) <= 1e-6
            lam = float(out.lam.data)
            assert 0.0 < lam < 1.0
            merged = merged_distribution(out, snippet, vocab)
            assert abs(sum(merged.values()) - 1.0) <= 1e-6


# -----------------------------------------------------------------------
# 3. Beam search equals exhaustive enumeration
# -----------------------------------------------------------------------

def test_criterion_3_beam_equals_exhaustive():
    with criterion(3, "top-5 suggestions equal exhaustive enumeration"):
        limits = SearchLimits(max_steps=10**6, heap_size=10**9,
                              successors=10**9, max_name_len=4)
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            vocab = make_vocab(["a"])                  # |V| = 8 incl. specials
            params = make_params(len(vocab), d=2, k1=2, k2=2, w1=1, w2=1, w3=1,
                                 rng=rng, scale=float(rng.uniform(0.3, 1.2)))
            body = ["a"] * int(rng.integers(1, 4))
            snippet = encode_snippet(body, vocab)      # union of keys stays at 8
            kind = "copy_attention" if seed % 2 == 0 else "conv_attention"
            got = suggest(snippet, params, vocab, k=5, model_kind=kind,
                          limits=limits)
            want = exhaustive_top_k(snippet, params, vocab, 5, 4, kind)
            assert [tuple(s.name) for s in got] == [name for name, _ in want]
            for s, (_, lp) in zip(got, want):
                assert abs(s.log_prob - lp) <= 1e-9


# -----------------------------------------------------------------------
# 4. Overfit sanity on a 32-example corpus
# -----------------------------------------------------------------------

def _overfit_corpus():
    verbs = ["get", "set", "is", "add", "remove", "clear", "find", "make"]
    nouns = ["size", "name", "count", "flag", "item", "index", "value", "node"]
    names = [[v] for v in verbs]
    names += [[v, n] for v, n in zip(verbs, nouns)]
    names += [[n, v] for v, n in zip(verbs, reversed(nouns))]
    names += [[v, n, "all"] for v, n in zip(reversed(verbs), nouns)]
    assert len({tuple(n) for n in names}) == 32
    out = []
    for i, name in enumerate(names):
        body = ["{", *name, f"u{chr(97 + i % 26)}{chr(97 + i // 26)}", ";", "}"]
        out.append(MethodExample(name=name, body=body,
                                 file_path=f"f{i}.java", project="syn"))
    return out


def test_criterion_4_overfit_sanity():
    with criterion(4, "conv model reaches train exact@1 >= 0.95 in <= 500 epochs"):
        examples = _overfit_corpus()
        cfg = preset("conv_attention", D=32, k1=8, k2=8, w1=3, w2=3, w3=2,
                     dropout_rate=0.0, learning_rate=2e-3, epochs=500,
                     patience=1000, eval_every=10, stop_exact_at_1=0.95,
                     min_count=1, seed=7)
        result = train(examples, examples, cfg)
        report, _ = evaluate_model(result.params, result.vocab, examples,
                                   model_kind="conv_attention")
        assert report.exact_at_1 >= 0.95
        assert result.best_epoch <= 500


# -----------------------------------------------------------------------
# 5. Copy-mechanism efficacy on guaranteed-OoV markers
# -----------------------------------------------------------------------

def _copy_corpus():
    gen = (f"q{a}{b}" for a, b in itertools.product(string.ascii_lowercase,
                                                    repeat=2))
    rng = np.random.default_rng(0)
    filler = ["do", "run", "call", "log"]

    def make(n):
        out = []
        for _ in range(n):
            marker = next(gen)
            pre = [filler[int(rng.integers(0, 4))]] * int(rng.integers(0, 3))
            post = [filler[int(rng.integers(0, 4))]] * int(rng.integers(0, 2))
            body = ["{", *pre, "begin", marker, "end", *post, ";", "}"]
            out.append(MethodExample(name=["wrap", marker], body=body,
                                     file_path="f.java", project="p"))
        return out

    return make(40), make(5), make(15)


def test_criterion_5_copy_mechanism_efficacy():
    with criterion(5, "copy model copies unseen markers; conv model cannot"):
        train_ex, valid_ex, test_ex = _copy_corpus()
        cfg = preset("copy_attention", D=16, k1=8, k2=8, w1=3, w2=3, w3=2,
                     dropout_rate=0.0, learning_rate=2e-3, epochs=300,
                     patience=1000, eval_every=10, stop_exact_at_1=0.9,
                     min_count=3, seed=11)
        result = train(train_ex, valid_ex, cfg)
        # markers occur twice (name + body), below min_count: OoV even in train
        assert train_ex[0].name[1] not in result.vocab
        for ex in test_ex:
            assert ex.name[1] not in result.vocab

        report, _ = evaluate_model(result.params, result.vocab, test_ex,
                                   model_kind="copy_attention")
        assert report.exact_at_1 >= 0.8
        assert report.oov_acc_at_1 >= 0.8

        conv_cfg = preset("conv_attention", D=16, k1=8, k2=8, w1=3, w2=3, w3=2,
                          dropout_rate=0.0, learning_rate=2e-3, epochs=30,
                          patience=1000, eval_every=30, min_count=3, seed=11)
        conv_result = train(train_ex, valid_ex, conv_cfg)
        conv_report, _ = evaluate_model(conv_result.params, conv_result.vocab,
                                        test_ex, model_kind="conv_attention")
        assert conv_report.oov_acc_at_1 == 0.0
        assert conv_report.oov_acc_at_5 == 0.0


# -----------------------------------------------------------------------
# 6. Metric oracle
# -----------------------------------------------------------------------

def _oracle_prf(pred, tgt):
    a, b = sorted(pred), sorted(tgt)
    i = j = overlap = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            overlap, i, j = overlap + 1, i + 1, j + 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    p = overlap / len(a) if a else 0.0
    r = overlap / len(b) if b else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def test_criterion_6_metric_oracle():
    with criterion(6, "metrics agree exactly with a brute-force scorer"):
        rng = np.random.default_rng(3)
        pool = ["get", "set", "is", "x", "y", "run", "close"]

        def rand_name(lo=1):
            return [pool[i] for i in rng.integers(0, len(pool),
                                                  int(rng.integers(lo, 5)))]

        for _ in range(1000):
            pred, tgt = rand_name(0), rand_name(1)
            assert subtoken_prf(pred, tgt) == _oracle_prf(pred, tgt)
            assert exact_match(pred, tgt) == (list(pred) == list(tgt))

        vocab = make_vocab(pool[:4])
        rows = []
        fixture = []
        for _ in range(50):
            target = rand_name()
            suggestions = [rand_name(0) for _ in range(5)]
            fixture.append((suggestions, target))
            row = score_suggestions(suggestions, target)
            row["oov_acc_at_1"] = oov_accuracy(suggestions, target, vocab, 1)
            row["oov_acc_at_5"] = oov_accuracy(suggestions, target, vocab, 5)
            rows.append(row)
        report = aggregate_report(rows)

        for k in (1, 5):
            for metric, attr in (("f1", f"f1_at_{k}"), ("exact", f"exact_at_{k}"),
                                 ("precision", f"precision_at_{k}"),
                                 ("recall", f"recall_at_{k}")):
                def oracle_best(suggestions, target):
                    vals = []
                    for s in suggestions[:k]:
                        p, r, f = _oracle_prf(s, target)
                        vals.append({"f1": f, "precision": p, "recall": r,
                                     "exact": float(list(s) == list(target))}[metric])
                    return max(vals, default=0.0)

                want = sum(oracle_best(s, t) for s, t in fixture) / len(fixture)
                assert getattr(report, attr) == pytest.approx(want, abs=1e-12)
            # spot-check score_at_rank against the same oracle
            for suggestions, target in fixture[:10]:
                got = score_at_rank(suggestions, target, k)
                p, r, f = zip(*(_oracle_prf(s, target) for s in suggestions[:k]))
                assert got["f1"] == pytest.approx(max(f))
                assert got["precision"] == pytest.approx(max(p))
                assert got["recall"] == pytest.approx(max(r))


# -----------------------------------------------------------------------
# 7. tf-idf invariances
# -----------------------------------------------------------------------

def test_criterion_7_tfidf_invariance():
    with criterion(7, "tf-idf ignores order and retrieves identical bodies"):
        rng = np.random.default_rng(5)
        pool = ["open", "close", "read", "write", "flush", "seek", "lock"]
        fixture = []
        for i in range(100):
            body = ["{"] + [pool[j] for j in rng.integers(0, len(pool),
                                                          int(rng.integers(2, 9)))] \
                + [f"u{i}", "}"]
            name = [pool[int(rng.integers(0, len(pool)))], "it"]
            fixture.append(MethodExample(name=name, body=body,
                                         file_path=f"f{i}", project="p"))
        index = TfIdfIndex(fixture)
        shuffled = shuffle_ablation(fixture, seed=13)
        for ex, shuf in zip(fixture, shuffled):
            assert index.suggest(ex.body, 5) == index.suggest(shuf.body, 5)
        for ex in fixture:
            ranked = index.suggest(ex.body, 5)
            assert ranked[0][0] == tuple(ex.name)
            assert ranked[0][1] == pytest.approx(1.0)


# -----------------------------------------------------------------------
# 8. Checkpoint round-trip and corruption errors
# -----------------------------------------------------------------------

def test_criterion_8_checkpoint_round_trip(tmp_path):
    with criterion(8, "save/load is bitwise; corruption raises typed errors"):
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(31)
            params = make_params(10, d=3, k1=2, k2=2, w1=2, w2=2, w3=1, rng=rng)
            for _, t in params.named_tensors():
                t.data = t.data.astype(dtype)
            vocab = make_vocab(["alpha", "beta", "gamma"])
            cfg = preset("copy_attention", D=3, k1=2, k2=2, w1=2, w2=2, w3=1,
                         epochs=1)
            path = tmp_path / f"m-{np.dtype(dtype).name}.ckpt"
            save(params, vocab, cfg, path)
            loaded, lvocab, lcfg = load(path)
            for (name, t), (lname, lt) in zip(params.named_tensors(),
                                              loaded.named_tensors()):
                assert name == lname
                assert lt.data.tobytes() == t.data.tobytes()
                assert lt.data.dtype == np.dtype(dtype)
            assert lvocab == vocab and lcfg == cfg

        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(TruncatedPayload):
            load(path)
        corrupted = bytearray(blob)
        corrupted[3] ^= 0x55
        path.write_bytes(bytes(corrupted))
        with pytest.raises(BadMagic):
            load(path)
        versioned = bytearray(blob)
        versioned[8:12] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(versioned))
        with pytest.raises(UnsupportedVersion):
            load(path)
        mangled = bytearray(blob)
        mangled[20] = ord("[")
        path.write_bytes(bytes(mangled))
        with pytest.raises(CorruptManifest):
            load(path)


# -----------------------------------------------------------------------
# 9. Real-corpus smoke (non-gating; needs a user-supplied project)
# -----------------------------------------------------------------------

def test_criterion_9_real_corpus_smoke(tmp_path):
    project_dir = os.environ.get("CODESUM_SMOKE_DIR")
    if not project_dir:
        pytest.skip("set CODESUM_SMOKE_DIR to a Java project to run the smoke test")
    with criterion(9, "full pipeline on a real project beats the random floor"):
        from codesum.cli import main

        data = tmp_path / "smoke.jsonl"
        assert main(["build-corpus", "--src", project_dir, "--out", str(data),
                     "--project", "smoke"]) == 0
        ckpt = tmp_path / "smoke.ckpt"
        assert main(["train", "--data", str(data), "--model", "copy",
                     "--out", str(ckpt), "--seed", "1", "--epochs", "2",
                     "--D", "32", "--k1", "8", "--k2", "8", "--w1", "6",
                     "--w2", "6", "--w3", "3", "--dropout-rate", "0.25"]) == 0
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "test", "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())

        # uniform-random floor: names drawn uniformly from the test split
        from codesum.corpus.dataset import load_jsonl
        from codesum.corpus.dataset import split_examples

        examples = load_jsonl(data)
        test_split = split_examples(examples, seed=1)["test"]
        rng = np.random.default_rng(0)
        names = [ex.name for ex in test_split]
        floor_scores = []
        for ex in test_split:
            pick = names[int(rng.integers(0, len(names)))]
            floor_scores.append(subtoken_prf(pick, ex.name)[2])
        floor = float(np.mean(floor_scores))
        assert report["f1_at_1"] > floor

        snippet = tmp_path / "snippet.java"
        snippet.write_text("{ return value + 1; }")
        assert main(["suggest", "--ckpt", str(ckpt), "--snippet", str(snippet),
                     "-k", "5", "--viz", str(tmp_path / "viz.html")]) == 0
        assert (tmp_path / "viz.html").exists()
