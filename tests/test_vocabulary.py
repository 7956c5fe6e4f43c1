"""Vocabulary construction, determinism, and persistence."""

import json

import pytest

from codesum.corpus.dataset import MethodExample
from codesum.corpus.vocabulary import (
    SPECIAL_TOKENS,
    Vocabulary,
    build_vocabulary,
)
from codesum.errors import EmptyCorpus


def ex(name, body):
    return MethodExample(name=name, body=body, file_path="f.java", project="p")


class TestBuildVocabulary:
    def test_count_threshold(self):
        vocab = build_vocabulary([ex(["a"], ["a", "b"])], min_count=2)
        assert "a" in vocab          # count 2: once in name, once in body
        assert "b" not in vocab      # count 1
        assert len(vocab) == len(SPECIAL_TOKENS) + 1

    def test_specials_always_present(self):
        vocab = build_vocabulary([ex(["x"], ["y"])], min_count=1)
        for tok in SPECIAL_TOKENS:
            assert tok in vocab
        assert len(set(vocab.specials.values())) == 7

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary(
            [ex(["b"], ["b"]), ex(["a"], ["a"])], min_count=2)
        assert vocab.id("a") < vocab.id("b")

    def test_descending_count_order(self):
        vocab = build_vocabulary(
            [ex(["z"], ["z", "z", "z"]), ex(["m"], ["m"])], min_count=2)
        assert vocab.id("z") < vocab.id("m")

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([], min_count=1)

    def test_min_count_below_one_raises(self):
        with pytest.raises(ValueError, match="min_count must be >= 1"):
            build_vocabulary([ex(["x"], ["y"])], min_count=0)

    def test_determinism(self):
        examples = [ex(["get", "x"], ["{", "x", "}"]) for _ in range(3)]
        v1 = build_vocabulary(examples, min_count=2)
        v2 = build_vocabulary(list(reversed(examples)), min_count=2)
        assert v1.token_to_id == v2.token_to_id


class TestVocabularyMap:
    def test_inverse_maps(self):
        vocab = build_vocabulary([ex(["a", "b"], ["a", "b", "c"])], min_count=1)
        for tok, idx in vocab.token_to_id.items():
            assert vocab.id_to_token[idx] == tok
        for idx, tok in enumerate(vocab.id_to_token):
            assert vocab.id(tok) == idx

    def test_unk_fallback(self):
        vocab = build_vocabulary([ex(["a"], ["a"])], min_count=1)
        assert vocab.id("never-seen") == vocab.unk_id

    @pytest.mark.parametrize("last", [7, None, ["x"]])
    def test_from_json_rejects_non_string_tokens(self, last):
        obj = build_vocabulary([ex(["a", "b"], ["c"])], min_count=1).to_json()
        obj["tokens"][-1] = last
        with pytest.raises(ValueError, match="list of strings"):
            Vocabulary.from_json(obj)

    def test_roundtrip_json(self):
        # The checkpoint manifest stores the vocabulary as this JSON object.
        vocab = build_vocabulary([ex(["a", "b"], ["c", "c"])], min_count=1)
        again = Vocabulary.from_json(json.loads(json.dumps(vocab.to_json())))
        assert again == vocab
        assert again.specials == vocab.specials
