"""Method tokenization, JSONL persistence, and the 65/5/30 file split."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_lines
from codesum.corpus.dataset import (
    MethodExample,
    load_jsonl,
    save_jsonl,
    split_dataset,
    split_examples,
    tokenize_method,
    tokenize_snippet,
)
from codesum.corpus.javalex import RawMethod
from codesum.corpus.subtokens import SELF_TOKEN, STRING_TOKEN
from codesum.errors import MalformedDataset


def raw(name, body_tokens):
    return RawMethod(name=name, body_tokens=body_tokens, file_path="f.java", project="p")


class TestTokenizeMethod:
    def test_recursive_call_becomes_self(self):
        m = tokenize_method(raw("minRunLength", ["{", "minRunLength", "(", ")", ";", "}"]))
        assert SELF_TOKEN in m.body
        assert "min" not in m.body

    def test_operator_atomic(self):
        m = tokenize_method(raw("f", ["{", "a", "==", "b", "}"]))
        assert "==" in m.body

    def test_name_subtokens(self):
        m = tokenize_method(raw("shouldRender", ["{", "}"]))
        assert m.name == ["should", "render"]

    def test_string_literal_collapsed(self):
        m = tokenize_method(raw("f", ["{", '"some text"', "}"]))
        assert STRING_TOKEN in m.body
        assert not any("some" in t for t in m.body)

    def test_all_lowercase_no_whitespace(self):
        m = tokenize_method(raw("bigMethod", ["{", "CamelCase", "x", "0xFF", "}"]))
        for tok in m.body + m.name:
            assert tok and tok == tok.lower()
            assert not any(ch.isspace() for ch in tok)

    def test_no_sentinels_inside(self):
        m = tokenize_method(raw("f", ["{", "a", "<", "s", ">", "}"]))
        for sentinel in ("<s>", "</s>", "<S>", "</S>"):
            assert sentinel not in m.body
            assert sentinel not in m.name


def test_tokenize_snippet_keeps_punctuation():
    assert tokenize_snippet("{ this.useBrowserCache = useBrowserCache; }") == [
        "{", "this", ".", "use", "browser", "cache", "=",
        "use", "browser", "cache", ";", "}",
    ]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        examples = [
            MethodExample(name=["a", "b"], body=["{", "x", "}"],
                          file_path="A.java", project="p"),
            MethodExample(name=["c"], body=[";"], file_path="B.java", project="p"),
        ]
        path = tmp_path / "data.jsonl"
        assert save_jsonl(examples, path) == 2
        again = load_jsonl(path)
        assert again == examples

    @pytest.mark.parametrize("line, why", [
        (b"{not json", "not a method record"),
        (b"[1, 2]", "not a method record"),
        (b'{"body": ["x"]}', "record has no 'name' field"),
        (b'{"name": ["a"]}', "record has no 'body' field"),
        (b'{"name": 7, "body": []}', "not a method record"),
        (b'{"name": "getx", "body": []}', "not a method record"),
        (b'{"name": ["a", 1], "body": []}', "not a method record"),
        (b'{"name": ["\xff"], "body": []}', "not a method record"),
        (b'{"name": ["a"], "body": [], "file": ["a"]}', "not a method record"),
        (b'{"name": ["a"], "body": [], "file": 3}', "not a method record"),
        (b'{"name": ["a"], "body": [], "project": {"p": 1}}', "not a method record"),
        (b'{"name": ["a"], "body": [], "project": null}', "not a method record"),
        # build-corpus never writes one: split_identifier never returns [].
        (b'{"name": [], "body": ["x"]}', "not a method record (name must be nonempty)"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line, why):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"name": ["a"], "body": ["x"]}\n\n' + line + b"\n")
        with pytest.raises(MalformedDataset, match=re.escape(f"{path}, line 3: {why}")):
            load_jsonl(path)


    def test_deeply_nested_line_is_malformed(self, tmp_path):
        # Past its nesting limit json raises RecursionError, not ValueError.
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"[" * 100_000 + b"]" * 100_000 + b"\n")
        with pytest.raises(MalformedDataset,
                           match=re.escape(f"{path}, line 1: not a method record")):
            load_jsonl(path)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(dataset_lines(), min_size=1, max_size=4))
    def test_any_lines_give_records_or_malformed(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzzed.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            examples = load_jsonl(path)
        except MalformedDataset:
            return
        for ex in examples:
            assert ex.name and all(type(t) is str for t in ex.name + ex.body)
            assert type(ex.file_path) is str and type(ex.project) is str


class TestSplitDataset:
    def test_exact_proportions_at_100(self):
        files = [f"f{i}.java" for i in range(100)]
        splits = split_dataset(files, seed=7)
        assert len(splits["train"]) == 65
        assert len(splits["valid"]) == 5
        assert len(splits["test"]) == 30

    def test_deterministic(self):
        files = [f"f{i}.java" for i in range(37)]
        a = split_dataset(files, seed=3)
        b = split_dataset(list(reversed(files)), seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        files = [f"f{i}.java" for i in range(60)]
        assert split_dataset(files, 1) != split_dataset(files, 2)

    def test_single_file_goes_to_train(self):
        splits = split_dataset(["only.java"], seed=0)
        assert splits["train"] == ["only.java"]
        assert splits["valid"] == [] and splits["test"] == []

    @given(st.integers(0, 500), st.integers(0, 10))
    def test_partition(self, n, seed):
        files = [f"f{i}" for i in range(n)]
        splits = split_dataset(files, seed)
        joined = splits["train"] + splits["valid"] + splits["test"]
        assert sorted(joined) == sorted(files)
        assert len(set(joined)) == len(joined)

    def test_largest_remainder_sizes(self):
        # Independent check: recompute the sizes by the largest-remainder
        # rule and compare for a range of corpus sizes.
        import math

        for n in range(1, 120):
            splits = split_dataset([f"f{i}" for i in range(n)], seed=5)
            quotas = [("train", 0.65 * n), ("valid", 0.05 * n), ("test", 0.30 * n)]
            sizes = {k: math.floor(q) for k, q in quotas}
            leftover = n - sum(sizes.values())
            order = sorted(range(3), key=lambda i: (-(quotas[i][1] % 1), i))
            for i in order[:leftover]:
                sizes[quotas[i][0]] += 1
            assert {k: len(v) for k, v in splits.items()} == sizes


def test_split_examples_keeps_files_together():
    examples = []
    for i in range(30):
        for j in range(3):
            examples.append(MethodExample(
                name=["m"], body=["x"], file_path=f"f{i}.java", project="p"))
    splits = split_examples(examples, seed=11)
    for name, exs in splits.items():
        files = {e.file_path for e in exs}
        for other, oexs in splits.items():
            if other != name:
                assert files.isdisjoint({e.file_path for e in oexs})
    assert sum(len(v) for v in splits.values()) == 90
