"""Metrics against an independent scorer, the tf-idf baseline, ablation."""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import make_vocab
from codesum.corpus.dataset import MethodExample
from codesum.errors import EmptyIndex
from codesum.evaluation import (
    EvalReport,
    TfIdfIndex,
    aggregate_report,
    evaluate_suggester,
    evaluate_tfidf,
    exact_match,
    oov_accuracy,
    score_at_rank,
    score_suggestions,
    shuffle_ablation,
    subtoken_prf,
)
from codesum.evaluation import _by_similarity


# -- independent oracle: deliberately different implementation style --------

def oracle_prf(pred, tgt):
    """Count overlap by sorted-list walking, not Counter arithmetic."""
    a, b = sorted(pred), sorted(tgt)
    i = j = overlap = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            overlap += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    p = overlap / len(a) if a else 0.0
    r = overlap / len(b) if b else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def oracle_rank(suggestions, tgt, k):
    rows = [oracle_prf(s, tgt) for s in suggestions[:k]]
    exacts = [list(s) == list(tgt) for s in suggestions[:k]]
    return {
        "precision": max((r[0] for r in rows), default=0.0),
        "recall": max((r[1] for r in rows), default=0.0),
        "f1": max((r[2] for r in rows), default=0.0),
        "exact": 1.0 if any(exacts) else 0.0,
    }


TOKENS = ["get", "set", "is", "run", "x", "y", "close", "open"]


def random_name(rng, lo=1, hi=4):
    return [TOKENS[i] for i in rng.integers(0, len(TOKENS), rng.integers(lo, hi))]


class TestSubtokenPrf:
    def test_half_overlap(self):
        assert subtoken_prf(["get", "size"], ["get", "length"]) == (0.5, 0.5, 0.5)

    def test_any_order_full_overlap(self):
        assert subtoken_prf(["b", "a"], ["a", "b"]) == (1.0, 1.0, 1.0)

    def test_multiset_counts_repeats(self):
        p, r, f = subtoken_prf(["test", "test"], ["test"])
        assert (p, r) == (0.5, 1.0)
        assert f == pytest.approx(2 * 0.5 / 1.5)

    def test_empty_prediction(self):
        assert subtoken_prf([], ["a"]) == (0.0, 0.0, 0.0)

    def test_symmetry_swaps_precision_recall(self, rng):
        for _ in range(200):
            a, b = random_name(rng), random_name(rng)
            p1, r1, f1 = subtoken_prf(a, b)
            p2, r2, f2 = subtoken_prf(b, a)
            assert (p1, r1) == (r2, p2)
            assert f1 == pytest.approx(f2)

    def test_thousand_random_pairs_match_oracle(self, rng):
        for _ in range(1000):
            a, b = random_name(rng), random_name(rng)
            assert subtoken_prf(a, b) == oracle_prf(a, b)


class TestExactMatch:
    def test_equal(self):
        assert exact_match(["should", "render"], ["should", "render"])

    def test_order_sensitive(self):
        assert not exact_match(["render", "should"], ["should", "render"])

    def test_length_mismatch(self):
        assert not exact_match([], ["a"])


class TestScoreAtRank:
    def test_rank_one_uses_first_only(self):
        suggestions = [["a"], ["b", "c"]]
        best = score_at_rank(suggestions, ["b", "c"], 1)
        assert best["exact"] == 0.0
        best5 = score_at_rank(suggestions, ["b", "c"], 5)
        assert best5["exact"] == 1.0

    def test_exact_at_rank_four(self):
        suggestions = [["x"], ["y"], ["z"], ["tgt"], ["w"]]
        assert score_at_rank(suggestions, ["tgt"], 5)["exact"] == 1.0
        assert score_at_rank(suggestions, ["tgt"], 1)["exact"] == 0.0

    def test_empty_suggestions_score_zero(self):
        best = score_at_rank([], ["a"], 5)
        assert best == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "exact": 0.0}

    def test_matches_oracle_on_random_lists(self, rng):
        for _ in range(300):
            suggestions = [random_name(rng) for _ in range(rng.integers(0, 7))]
            tgt = random_name(rng)
            for k in (1, 5):
                got = score_at_rank(suggestions, tgt, k)
                want = oracle_rank(suggestions, tgt, k)
                for key in want:
                    assert got[key] == pytest.approx(want[key])

    def test_rank5_dominates_rank1(self, rng):
        for _ in range(300):
            suggestions = [random_name(rng) for _ in range(5)]
            tgt = random_name(rng)
            s1 = score_at_rank(suggestions, tgt, 1)
            s5 = score_at_rank(suggestions, tgt, 5)
            for key in s1:
                assert s5[key] >= s1[key]


class TestOovAccuracy:
    def vocab(self):
        return make_vocab(["get", "set", "x"])

    def test_no_oov_targets_excluded(self):
        assert oov_accuracy([["get"]], ["get", "x"], self.vocab(), 5) is None

    def test_copied_oov_counts(self):
        vocab = self.vocab()
        got = oov_accuracy([["get", "zlib"]], ["get", "zlib"], vocab, 1)
        assert got == 1.0

    def test_missed_oov_scores_zero(self):
        vocab = self.vocab()
        assert oov_accuracy([["get", "x"]], ["get", "zlib"], vocab, 1) == 0.0

    def test_uses_best_f1_suggestion(self):
        vocab = self.vocab()
        suggestions = [["set"], ["get", "zlib"]]
        # second suggestion has the better F1, so the OoV hit counts at k=5
        assert oov_accuracy(suggestions, ["get", "zlib"], vocab, 5) == 1.0
        assert oov_accuracy(suggestions, ["get", "zlib"], vocab, 1) == 0.0

    def test_earliest_of_equal_f1_suggestions_is_used(self):
        vocab = self.vocab()
        hit, miss = ["zlib", "q"], ["get", "q"]  # both F1 0.5 against the target
        assert oov_accuracy([hit, miss], ["get", "zlib"], vocab, 5) == 1.0
        assert oov_accuracy([miss, hit], ["get", "zlib"], vocab, 5) == 0.0

    def test_oov_hit_in_any_position(self):
        vocab = self.vocab()
        sugg = [["zlib", "get"]]  # right token, wrong slot
        assert oov_accuracy(sugg, ["get", "zlib"], vocab, 1) == 1.0

    def test_empty_suggestions(self):
        assert oov_accuracy([], ["zlib"], self.vocab(), 5) == 0.0


class TestAggregation:
    def test_matches_scripted_oracle_on_fixture(self, rng):
        vocab = make_vocab(TOKENS)
        fixture = []
        for _ in range(50):
            target = random_name(rng)
            suggestions = [random_name(rng) for _ in range(5)]
            fixture.append((suggestions, target))

        rows = []
        for suggestions, target in fixture:
            row = score_suggestions(suggestions, target)
            row["oov_acc_at_1"] = oov_accuracy(suggestions, target, vocab, 1)
            row["oov_acc_at_5"] = oov_accuracy(suggestions, target, vocab, 5)
            rows.append(row)
        report = aggregate_report(rows)

        for key, kk in (("f1_at_1", 1), ("f1_at_5", 5)):
            wanted = sum(oracle_rank(s, t, kk)["f1"] for s, t in fixture) / 50
            assert getattr(report, key) == pytest.approx(wanted)
        wanted_exact = sum(oracle_rank(s, t, 5)["exact"] for s, t in fixture) / 50
        assert report.exact_at_5 == pytest.approx(wanted_exact)
        assert report.n_examples == 50

    def test_report_fields_in_unit_interval(self, rng):
        vocab = make_vocab(TOKENS)

        def suggester(ex):
            return [random_name(rng) for _ in range(5)]

        examples = [MethodExample(name=random_name(rng), body=["x"],
                                  file_path=f"f{i}", project="p")
                    for i in range(20)]
        report, rows = evaluate_suggester(suggester, examples, vocab)
        for key, value in report.to_dict().items():
            if key == "n_examples":
                continue
            assert 0.0 <= value <= 1.0
        assert report.f1_at_5 >= report.f1_at_1
        assert report.exact_at_5 >= report.exact_at_1
        assert len(rows) == 20

    def test_empty_report(self):
        report = aggregate_report([])
        assert report == EvalReport(n_examples=0)


def make_corpus(rng, n=40):
    out = []
    for i in range(n):
        name = random_name(rng)
        body = ["{", *random_name(rng, 2, 6), f"only{i}", "}"]
        out.append(MethodExample(name=name, body=body,
                                 file_path=f"f{i}.java", project="p"))
    return out


def loop_tfidf_suggest(corpus, body, k):
    """The tf-idf baseline as Python loops over every posting and a sort
    of every document: the oracle for ``TfIdfIndex``'s array form."""
    n = len(corpus)
    bags = [Counter(ex.body) for ex in corpus]
    df = Counter(tok for bag in bags for tok in bag)
    idf = {tok: math.log(n / d) for tok, d in df.items()}
    postings, norms = {}, np.zeros(n)
    for doc, bag in enumerate(bags):
        for tok, tf in bag.items():
            w = tf * idf[tok]
            postings.setdefault(tok, []).append((doc, w))
            norms[doc] += w * w
    norms = np.sqrt(norms)
    query = Counter(body)
    qweights = {tok: query[tok] * idf[tok] for tok in sorted(query) if tok in idf}
    qnorm = math.sqrt(sum(w * w for w in qweights.values()))
    sims = np.zeros(n)
    for tok, qw in qweights.items():
        for doc, dw in postings[tok]:
            sims[doc] += qw * dw
    if qnorm > 0.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(norms > 0.0, sims / (qnorm * norms), 0.0)
    names = [tuple(ex.name) for ex in corpus]
    ranked, seen = [], set()
    for doc in sorted(range(n), key=lambda i: (-sims[i], i)):
        if sims[doc] <= 0.0 or len(ranked) >= k:
            break
        if names[doc] not in seen:
            seen.add(names[doc])
            ranked.append((names[doc], float(sims[doc])))
    for name, _ in Counter(names).most_common():
        if len(ranked) >= k:
            break
        if name not in seen:
            seen.add(name)
            ranked.append((name, 0.0))
    return ranked


class TestTfIdf:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        words = ["a", "b", "c", "d", "e", "f"]
        corpus = [
            # "{" is in every body, so its idf is 0 and "{"-only bodies have norm 0.
            MethodExample(name=[str(rng.choice(["get", "set", "run", "is", "to"]))],
                          body=["{", *rng.choice(words, size=rng.integers(0, 5)).tolist()],
                          file_path=str(i), project="p")
            for i in range(40)]
        index = TfIdfIndex(corpus)
        assert np.any(index.norms == 0.0)
        bags = [tuple(sorted(ex.body)) for ex in corpus if len(ex.body) > 1]
        assert len(set(bags)) < len(bags)  # equal bags tie on every query
        queries = [ex.body for ex in corpus[:12]] + [
            ["novel"], ["{"], [], ["zzz", *rng.choice(words, size=6).tolist()]]
        for body in queries:
            for k in (1, 3, 10):
                assert index.suggest(body, k) == loop_tfidf_suggest(corpus, body, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_past_the_partition_head_matches_the_loop_oracle(self, seed):
        # Past 64 documents the ranking starts from a partition's head.
        # Few words make long ties; one name shared by most documents
        # leaves the head short of k distinct names, so the rest is read.
        rng = np.random.default_rng(seed)
        corpus = [
            MethodExample(name=["get"] if rng.random() < 0.8 else [f"n{i}"],
                          body=["{", *rng.choice(list("abcd"), size=rng.integers(0, 4)).tolist()],
                          file_path=str(i), project="p")
            for i in range(300)]
        index = TfIdfIndex(corpus)
        for body in [ex.body for ex in corpus[:10]] + [["a", "a", "b"], ["zzz"]]:
            for k in (1, 3, 10):
                assert index.suggest(body, k) == loop_tfidf_suggest(corpus, body, k)

    @pytest.mark.parametrize("head", [1, 5, 64, 200])
    def test_similarity_order_is_the_full_stable_sort(self, rng, head):
        sims = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0], size=120) * rng.choice([1.0, 0.5], size=120)
        want = np.argsort(-sims, kind="stable").tolist()
        assert list(_by_similarity(sims, head)) == want
        order = _by_similarity(sims, head)
        assert [next(order) for _ in range(min(head, 120))] == want[:min(head, 120)]

    def test_self_query_ranks_first(self, rng):
        corpus = make_corpus(rng)
        index = TfIdfIndex(corpus)
        for probe in corpus[::7]:
            ranked = index.suggest(probe.body, k=5)
            assert ranked[0][0] == tuple(probe.name)
            assert ranked[0][1] == pytest.approx(1.0)

    def test_zero_similarity_falls_back_to_frequent_names(self, rng):
        corpus = make_corpus(rng, 10)
        corpus.extend([
            MethodExample(name=["common"], body=["shared", "stuff"],
                          file_path=f"g{i}", project="p")
            for i in range(5)
        ])
        index = TfIdfIndex(corpus)
        ranked = index.suggest(["completely", "novel", "words"], k=3)
        assert len(ranked) == 3
        assert ranked[0][0] == ("common",)
        assert all(sim == 0.0 for _, sim in ranked)

    def test_duplicate_names_appear_once(self, rng):
        corpus = [
            MethodExample(name=["dup"], body=["a", "b"], file_path="1", project="p"),
            MethodExample(name=["dup"], body=["a", "c"], file_path="2", project="p"),
            MethodExample(name=["other"], body=["d"], file_path="3", project="p"),
        ]
        index = TfIdfIndex(corpus)
        ranked = index.suggest(["a"], k=5)
        names = [n for n, _ in ranked]
        assert names.count(("dup",)) == 1

    def test_fallback_by_count_then_training_order(self):
        names = [["b"], ["get", "a"], ["c"], ["get", "a"], ["e"], ["b"], ["c"],
                 ["d"], ["c"]]
        corpus = [MethodExample(name=n, body=[f"w{i}"], file_path=str(i), project="p")
                  for i, n in enumerate(names)]
        index = TfIdfIndex(corpus)
        want = [("c",), ("b",), ("get", "a"), ("e",), ("d",)]
        assert index.fallback == want
        assert [n for n, _ in index.suggest(["novel"], k=5)] == want

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_raises(self, rng, k):
        index = TfIdfIndex(make_corpus(rng, 5))
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.suggest(["{"], k=k)

    def test_always_emits_k(self, rng):
        corpus = make_corpus(rng, 25)
        index = TfIdfIndex(corpus)
        assert len(index.suggest(["{"], k=5)) == 5

    def test_empty_index(self):
        with pytest.raises(EmptyIndex):
            TfIdfIndex([])

    def test_shuffle_invariance(self, rng):
        corpus = make_corpus(rng)
        index = TfIdfIndex(corpus)
        shuffled = shuffle_ablation(corpus, seed=99)
        for orig, shuf in zip(corpus, shuffled):
            assert index.suggest(orig.body, 5) == index.suggest(shuf.body, 5)

    def test_index_on_shuffled_corpus_equivalent(self, rng):
        corpus = make_corpus(rng)
        vocab = make_vocab(TOKENS)
        report_a, _ = evaluate_tfidf(TfIdfIndex(corpus), corpus, vocab)
        report_b, _ = evaluate_tfidf(
            TfIdfIndex(shuffle_ablation(corpus, 3)),
            shuffle_ablation(corpus, 4), vocab)
        assert report_a == report_b

    def test_tfidf_weighting_matches_formula(self):
        corpus = [
            MethodExample(name=["a"], body=["x", "x", "y"], file_path="1", project="p"),
            MethodExample(name=["b"], body=["y", "z"], file_path="2", project="p"),
        ]
        index = TfIdfIndex(corpus)
        assert index.idf["x"] == pytest.approx(math.log(2 / 1))
        assert index.idf["y"] == pytest.approx(math.log(2 / 2))
        assert index.idf["z"] == pytest.approx(math.log(2 / 1))
        # query sharing only "x" with doc 1: cosine reduces to 1 since
        # y has zero idf weight
        ranked = index.suggest(["x"], k=1)
        assert ranked[0][0] == ("a",)
        assert ranked[0][1] == pytest.approx(1.0)


class TestShuffleAblation:
    def test_multiset_preserved_names_untouched(self, rng):
        corpus = make_corpus(rng, 15)
        shuffled = shuffle_ablation(corpus, seed=1)
        for orig, shuf in zip(corpus, shuffled):
            assert sorted(orig.body) == sorted(shuf.body)
            assert orig.name == shuf.name

    def test_single_token_body_unchanged(self):
        exs = [MethodExample(name=["n"], body=["only"], file_path="f", project="p")]
        assert shuffle_ablation(exs, 5)[0].body == ["only"]

    def test_seed_deterministic(self, rng):
        corpus = make_corpus(rng, 10)
        a = shuffle_ablation(corpus, seed=2)
        b = shuffle_ablation(corpus, seed=2)
        assert [e.body for e in a] == [e.body for e in b]

    def test_actually_permutes(self, rng):
        corpus = make_corpus(rng, 20)
        shuffled = shuffle_ablation(corpus, seed=3)
        assert any(o.body != s.body for o, s in zip(corpus, shuffled))
