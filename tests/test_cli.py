"""Command-line behavior end to end on a small fixture project."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BAD_MANIFESTS, dataset_lines, java_text, read_parts, write_parts
import codesum
from codesum import checkpoint, cli
from codesum.cli import main
from codesum.corpus.dataset import load_jsonl
from codesum.trainer import preset

JAVA_A = """
public class Widget {
    private int width;
    private int height;

    public Widget(int w, int h) { width = w; height = h; }

    public int getWidth() { return width; }

    public int getHeight() { return height; }

    public void setWidth(int w) { this.width = w; }

    @Override
    public String toString() { return "Widget"; }
}
"""

JAVA_B = """
class MathHelper {
    static int addNumbers(int a, int b) { return a + b; }
    static int mulNumbers(int a, int b) { return a * b; }
    static boolean isPositive(int a) { return a > 0; }
}
"""

JAVA_C = """
class Cache {
    boolean useBrowserCache;
    void setUseBrowserCache(boolean useBrowserCache) {
        this.useBrowserCache = useBrowserCache;
    }
    boolean getUseBrowserCache() { return useBrowserCache; }
    void clearCache() { useBrowserCache = false; }
}
"""


@pytest.fixture
def java_project(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):
        (src / f"Widget{i}.java").write_text(JAVA_A.replace("Widget", f"Widget{i}"))
        (src / f"MathHelper{i}.java").write_text(JAVA_B.replace("MathHelper", f"MathHelper{i}"))
        (src / f"Cache{i}.java").write_text(JAVA_C.replace("Cache", f"Cache{i}"))
    return src


class TestBuildCorpus:
    def test_deterministic_dataset(self, java_project, tmp_path, capsys):
        out1 = tmp_path / "d1.jsonl"
        out2 = tmp_path / "d2.jsonl"
        assert main(["build-corpus", "--src", str(java_project),
                     "--out", str(out1), "--project", "fixture"]) == 0
        assert main(["build-corpus", "--src", str(java_project),
                     "--out", str(out2), "--project", "fixture"]) == 0
        assert out1.read_text() == out2.read_text()
        printed = capsys.readouterr().out
        assert "methods kept" in printed

    def test_overrides_and_constructors_excluded(self, java_project, tmp_path):
        out = tmp_path / "data.jsonl"
        main(["build-corpus", "--src", str(java_project), "--out", str(out),
              "--project", "fixture"])
        examples = load_jsonl(out)
        names = {" ".join(e.name) for e in examples}
        assert "to string" not in names       # @Override
        assert "widget0" not in names         # constructor
        assert "get width" in names

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["build-corpus", "--src", str(empty),
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "no Java files" in capsys.readouterr().err

    def test_missing_dir_exits_2(self, tmp_path):
        assert main(["build-corpus", "--src", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_override_only_file_yields_zero_methods(self, tmp_path):
        src = tmp_path / "only"
        src.mkdir()
        (src / "A.java").write_text(
            "class A { @Override public int hashCode() { return 1; } }")
        out = tmp_path / "o.jsonl"
        assert main(["build-corpus", "--src", str(src), "--out", str(out)]) == 0
        assert load_jsonl(out) == []

    def test_dataset_independent_of_hash_seed(self, java_project, tmp_path):
        # The record's header holds two type keywords, `class` after `.` and
        # then `record`; which one names the type must not depend on the seed.
        (java_project / "Point.java").write_text(
            "@Schema(Foo.class) public record Point(int x) {\n"
            "    int norm() { return x * x; }\n}\n")
        path = [str(Path(codesum.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        datasets = []
        for seed in range(8):
            out = tmp_path / f"d{seed}.jsonl"
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            subprocess.run([sys.executable, "-m", "codesum.cli", "build-corpus",
                            "--src", str(java_project), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            datasets.append(out.read_bytes())
        assert all(d == datasets[0] for d in datasets[1:])
        point = [ex.name for ex in load_jsonl(out) if ex.file_path.endswith("Point.java")]
        assert point == [["norm"]]

    def test_unbalanced_file_skipped_with_warning(self, java_project, tmp_path, capsys):
        (java_project / "Broken.java").write_text("class Broken { void f() {")
        out = tmp_path / "d.jsonl"
        assert main(["build-corpus", "--src", str(java_project),
                     "--out", str(out)]) == 0
        assert "skipping" in capsys.readouterr().err


def build_dataset(java_project, tmp_path):
    data = tmp_path / "data.jsonl"
    main(["build-corpus", "--src", str(java_project), "--out", str(data),
          "--project", "fixture"])
    return data


def train_tiny(data, tmp_path, model="copy", seed="3", extra=()):
    ckpt = tmp_path / f"{model}.ckpt"
    code = main(["train", "--data", str(data), "--model", model,
                 "--out", str(ckpt), "--seed", seed,
                 "--D", "8", "--k1", "4", "--k2", "4", "--w1", "3", "--w2", "3",
                 "--w3", "2", "--dropout-rate", "0.0", "--epochs", "3",
                 "--min-count", "1", "--eval-every", "3", *extra])
    assert code == 0
    return ckpt


class TestTrainCommand:
    def test_config_echo_matches_tuned_preset(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = tmp_path / "c.ckpt"
        code = main(["train", "--data", str(data), "--model", "copy",
                     "--out", str(ckpt), "--seed", "1", "--epochs", "0",
                     "--min-count", "1"])
        assert code == 0
        echo = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("config: "))
        cfg = json.loads(echo.removeprefix("config: "))
        assert (cfg["k1"], cfg["k2"], cfg["w1"], cfg["w2"], cfg["w3"]) == (32, 16, 18, 19, 2)
        assert cfg["dropout_rate"] == 0.4 and cfg["D"] == 128

    def test_conv_preset_echo(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        code = main(["train", "--data", str(data), "--model", "conv",
                     "--out", str(tmp_path / "c.ckpt"), "--seed", "1",
                     "--epochs", "0", "--min-count", "1"])
        assert code == 0
        echo = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("config: "))
        cfg = json.loads(echo.removeprefix("config: "))
        assert (cfg["k1"], cfg["k2"], cfg["w1"], cfg["w2"], cfg["w3"]) == (8, 8, 24, 29, 10)
        assert cfg["dropout_rate"] == 0.5 and cfg["D"] == 128

    @pytest.fixture
    def built_config(self, java_project, tmp_path, monkeypatch):
        """Run `codesum train` with training and saving stubbed out, and
        return the config it trained with."""
        data = build_dataset(java_project, tmp_path)
        seen = []

        def fake_train(train_examples, valid_examples, cfg, log_sink=None):
            seen.append(cfg)
            return SimpleNamespace(params=None, vocab=None, config=cfg,
                                   best_epoch=0, skipped_examples=0)

        monkeypatch.setattr(cli, "train", fake_train)
        monkeypatch.setattr(checkpoint, "save", lambda *args: None)

        def run(model, *flags):
            assert main(["train", "--data", str(data), "--model", model,
                         "--out", str(tmp_path / "c.ckpt"), *flags]) == 0
            return seen[-1]
        return run

    @pytest.mark.parametrize("model, kind", [("copy", "copy_attention"),
                                             ("conv", "conv_attention")])
    def test_no_overrides_builds_the_preset(self, built_config, model, kind):
        assert built_config(model) == preset(kind)

    @pytest.mark.parametrize("model, kind", [("copy", "copy_attention"),
                                             ("conv", "conv_attention")])
    @pytest.mark.parametrize("flag, key, value", [
        ("--D", "D", 7), ("--k1", "k1", 5), ("--k2", "k2", 6), ("--w1", "w1", 3),
        ("--w2", "w2", 4), ("--w3", "w3", 3), ("--dropout-rate", "dropout_rate", 0.25),
        ("--learning-rate", "learning_rate", 0.01), ("--epochs", "epochs", 7),
        ("--patience", "patience", 9), ("--seed", "seed", 11),
        ("--minibatch", "minibatch", 3), ("--min-count", "min_count", 4),
        ("--eval-every", "eval_every", 2),
    ])
    def test_flag_sets_its_field(self, built_config, model, kind, flag, key, value):
        cfg = built_config(model, flag, str(value))
        assert cfg == preset(kind, **{key: value}) != preset(kind)
        assert type(getattr(cfg, key)) is type(value)

    def test_same_seed_same_first_epoch_loss(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        train_tiny(data, tmp_path, seed="5")
        first = capsys.readouterr().out
        (tmp_path / "copy.ckpt").unlink()
        train_tiny(data, tmp_path, seed="5")
        second = capsys.readouterr().out

        def first_nll(text):
            for line in text.splitlines():
                if line.startswith("{"):
                    return json.loads(line)["train_nll"]

        assert first_nll(first) == first_nll(second)

    def test_writes_epoch_log(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        log = tmp_path / "log.jsonl"
        capsys.readouterr()
        train_tiny(data, tmp_path, extra=("--log", str(log)))
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(lines) == 3
        assert set(lines[0]) == {"epoch", "train_nll", "valid_f1_at_5",
                                 "valid_exact_at_1", "grad_norm_mean",
                                 "grad_norm_max", "clipped_frac", "skipped",
                                 "examples_per_s", "valid_seconds", "seconds"}
        for line in lines:
            assert 0.0 <= line["valid_seconds"] <= line["seconds"]
            assert (line["valid_seconds"] > 0.0) == (line["valid_f1_at_5"] is not None)
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.fullmatch(r"checkpoint: \S+ \(best epoch \d+, skipped examples 0\)", last)

    @pytest.mark.parametrize("flag, value", [
        ("--dropout-rate", "1.0"), ("--epochs", "-1"), ("--D", "0"),
        ("--min-count", "0"), ("--eval-every", "0"), ("--learning-rate", "nan"),
        ("--seed", "-1"),
    ])
    def test_out_of_range_flag_exits_2(self, java_project, tmp_path, capsys, flag, value):
        data = build_dataset(java_project, tmp_path)
        ckpt = tmp_path / "c.ckpt"
        code = main(["train", "--data", str(data), "--model", "copy", "--out", str(ckpt),
                     "--D", "8", "--k1", "4", "--k2", "4", "--w1", "3", "--w2", "3",
                     "--w3", "2", "--epochs", "1", "--min-count", "1", flag, value])
        assert code == 2
        field_name = flag.lstrip("-").replace("-", "_")
        assert re.search(rf"^error: {field_name} must be", capsys.readouterr().err, re.M)
        assert not ckpt.exists()

    def test_state_flag_is_rejected(self, tmp_path, capsys):
        ckpt = tmp_path / "c.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(tmp_path / "d.jsonl"), "--model", "copy",
                  "--out", str(ckpt), "--state", "simple"])
        assert exc.value.code == 2
        assert "--state" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_preset_flag_is_rejected(self, tmp_path, capsys):
        # Each model kind has one tuned preset, so there is nothing to choose.
        ckpt = tmp_path / "c.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(tmp_path / "d.jsonl"), "--model", "copy",
                  "--out", str(ckpt), "--preset", "paper"])
        assert exc.value.code == 2
        assert "--preset" in capsys.readouterr().err
        assert not ckpt.exists()


class TestEvaluateCommand:
    def test_report_json(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "test", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in ("f1_at_1", "f1_at_5", "exact_at_1", "exact_at_5",
                    "precision_at_1", "recall_at_5", "oov_acc_at_1",
                    "oov_acc_at_5", "n_examples"):
            assert key in report
        assert report["f1_at_5"] >= report["f1_at_1"]

    def test_tfidf_baseline_and_shuffle_invariance(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "test", "--baseline", "tfidf"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "test", "--baseline", "tfidf",
                     "--shuffle-bodies", "17"]) == 0
        shuffled = json.loads(capsys.readouterr().out)
        assert plain == shuffled

    def test_tfidf_self_query_on_train_split(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "train", "--baseline", "tfidf"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_at_1"] >= 0.9  # distinct bodies retrieve themselves

    def test_bad_checkpoint_exits_2(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        assert main(["evaluate", "--ckpt", str(bad), "--data", str(data)]) == 2

        ckpt = train_tiny(data, tmp_path)
        params, vocab, cfg = checkpoint.load(ckpt)
        snippet = tmp_path / "snippet.java"
        snippet.write_text("{ return width; }")
        # Well-formed files whose stored config does not validate: an
        # unknown model kind, the removed simple-state variant, and a
        # seed that is not an integer.
        for key, value in (("model_kind", "bogus"), ("state_kind", "simple"),
                           ("seed", 1.5)):
            bad_cfg = tmp_path / f"{key}.ckpt"
            checkpoint.save(params, vocab, replace(cfg, **{key: value}), bad_cfg)
            capsys.readouterr()
            assert main(["evaluate", "--ckpt", str(bad_cfg), "--data", str(data)]) == 2
            assert main(["suggest", "--ckpt", str(bad_cfg), "--snippet", str(snippet)]) == 2
            err = capsys.readouterr().err
            assert "internal error" not in err and key in err

        # A well-formed file whose embedding table holds a NaN.
        params.E.data[0, 0] = np.nan
        nan_ckpt = tmp_path / "nan.ckpt"
        checkpoint.save(params, vocab, cfg, nan_ckpt)
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(nan_ckpt), "--data", str(data)]) == 2
        assert main(["suggest", "--ckpt", str(nan_ckpt), "--snippet", str(snippet)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "tensor E " in err

        # A well-formed file whose E and b keep 5 rows of a larger vocabulary.
        params, vocab, cfg = checkpoint.load(ckpt)
        params.E.data = params.E.data[:5]
        params.b.data = params.b.data[:5]
        short_ckpt = tmp_path / "short.ckpt"
        checkpoint.save(params, vocab, cfg, short_ckpt)
        assert main(["evaluate", "--ckpt", str(short_ckpt), "--data", str(data)]) == 2
        assert main(["suggest", "--ckpt", str(short_ckpt), "--snippet", str(snippet)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "tensor E has shape (5, " in err

        # Manifests that parse as JSON but hold a field of the wrong type or range.
        version, manifest, payload = read_parts(ckpt)
        for label, edit in BAD_MANIFESTS.items():
            bad_field = tmp_path / f"{label}.ckpt"
            write_parts(bad_field, version, edit(manifest), payload)
            capsys.readouterr()
            assert main(["evaluate", "--ckpt", str(bad_field), "--data", str(data)]) == 2
            assert main(["suggest", "--ckpt", str(bad_field), "--snippet", str(snippet)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2, label
            assert all(line.startswith("error: checkpoint manifest: ") for line in err), label

    def test_malformed_data_exits_2(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        good = data.read_bytes()
        lineno = good.count(b"\n") + 1
        bad = tmp_path / "bad.jsonl"
        out = tmp_path / "new.ckpt"
        for line in (b"{not json", b'{"body": ["x"]}', b'{"name": ["a"]}',
                     b'{"name": ["a"], "body": ["x"], "file": ["a"]}',
                     b'{"name": ["a"], "body": ["x"], "file": 3}',
                     b'{"name": ["a"], "body": ["x"], "project": 3}',
                     b'{"name": [], "body": ["x"]}'):
            bad.write_bytes(good + line + b"\n")
            for argv in (["train", "--model", "copy", "--out", str(out)],
                         ["evaluate", "--ckpt", str(ckpt)]):
                capsys.readouterr()
                assert main([*argv, "--data", str(bad)]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: {bad}, line {lineno}: "), err
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_deeply_nested_json_exits_2(self, java_project, tmp_path, capsys):
        # json raises RecursionError past its nesting limit, in either reader.
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        nested = b"[" * 100_000 + b"]" * 100_000
        deep_ckpt = tmp_path / "deep.ckpt"
        deep_ckpt.write_bytes(checkpoint.MAGIC + checkpoint.VERSION.to_bytes(4, "little")
                              + len(nested).to_bytes(8, "little") + nested)
        deep_data = tmp_path / "deep.jsonl"
        deep_data.write_bytes(data.read_bytes() + nested + b"\n")
        snippet = tmp_path / "snippet.java"
        snippet.write_text("{ return width; }")
        out = tmp_path / "new.ckpt"
        for argv in (["suggest", "--ckpt", str(deep_ckpt), "--snippet", str(snippet)],
                     ["train", "--model", "copy", "--out", str(out), "--data", str(deep_data)],
                     ["evaluate", "--ckpt", str(ckpt), "--data", str(deep_data)]):
            capsys.readouterr()
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "internal error" not in err, argv[0]
        assert not out.exists()

    def test_non_string_vocabulary_token_exits_2(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        version, manifest, payload = read_parts(ckpt)
        manifest["vocabulary"]["tokens"][-1] = 7
        bad = tmp_path / "token.ckpt"
        write_parts(bad, version, manifest, payload)
        snippet = tmp_path / "snippet.java"
        snippet.write_text("{ return width; }")
        capsys.readouterr()
        assert main(["suggest", "--ckpt", str(bad), "--snippet", str(snippet)]) == 2
        assert main(["evaluate", "--ckpt", str(bad), "--data", str(data)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: checkpoint manifest: vocabulary tokens must be a list of strings"] * 2

    def test_per_example_csv(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        csv_path = tmp_path / "per.csv"
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "test", "--per-example", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("example,target")
        assert len(lines) > 1


    def test_negative_shuffle_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--ckpt", "c.ckpt", "--data", "d.jsonl",
                  "--shuffle-bodies", "-1"])
        assert exc.value.code == 2
        assert "--shuffle-bodies: must be >= 0, got -1" in capsys.readouterr().err


ODD_BODY = b"{ return w\xffidth + h\xfe\xfd; }"  # not valid UTF-8


class TestSuggestCommand:
    def test_non_utf8_snippet_reads_as_build_corpus_does(self, java_project, tmp_path,
                                                         capsys, monkeypatch):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        src = tmp_path / "odd"
        src.mkdir()
        (src / "Odd.java").write_bytes(b"class Odd { int getSize() " + ODD_BODY + b" }")
        assert main(["build-corpus", "--src", str(src),
                     "--out", str(tmp_path / "odd.jsonl")]) == 0
        [example] = load_jsonl(tmp_path / "odd.jsonl")
        assert example.body[2:4] == ["w", "idth"]  # U+FFFD splits the identifier

        snippet = tmp_path / "odd.java"
        snippet.write_bytes(ODD_BODY)
        seen = []
        real_suggest = cli.suggest

        def recording_suggest(encoded, *args, **kwargs):
            seen.append(encoded.surface[1:-1])  # without the body sentinels
            return real_suggest(encoded, *args, **kwargs)

        monkeypatch.setattr(cli, "suggest", recording_suggest)
        capsys.readouterr()
        assert main(["suggest", "--ckpt", str(ckpt), "--snippet", str(snippet)]) == 0
        assert seen == [example.body]
        assert capsys.readouterr().out.startswith("1. ")

    def test_non_utf8_stdin_reads_as_the_file_does(self, java_project, tmp_path):
        # In subprocesses, since the test runner replaces stdin.
        ckpt = train_tiny(build_dataset(java_project, tmp_path), tmp_path)
        snippet = tmp_path / "odd.java"
        snippet.write_bytes(ODD_BODY)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(codesum.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
        outputs = []
        for source, stdin in ((str(snippet), b""), ("-", ODD_BODY)):
            proc = subprocess.run(
                [sys.executable, "-m", "codesum.cli", "suggest", "--ckpt", str(ckpt),
                 "--snippet", source], input=stdin, env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"1. ")

    def test_ranked_output_format(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        snippet = tmp_path / "snippet.java"
        snippet.write_text("{ return width; }")
        capsys.readouterr()
        assert main(["suggest", "--ckpt", str(ckpt), "--snippet", str(snippet),
                     "-k", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert 1 <= len(out) <= 3
        pcts = []
        for i, line in enumerate(out, start=1):
            m = re.match(rf"{i}\. \S+ \((\d+\.\d)%\)$", line)
            assert m, line
            pcts.append(float(m.group(1)))
        assert pcts == sorted(pcts, reverse=True)

    def test_no_suggestion_warns_and_exits_zero(self, java_project, tmp_path,
                                                capsys, monkeypatch):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        snippet = tmp_path / "s.java"
        snippet.write_text("{ return 1; }")
        monkeypatch.setattr("codesum.cli.suggest", lambda *a, **kw: [])
        capsys.readouterr()
        assert main(["suggest", "--ckpt", str(ckpt),
                     "--snippet", str(snippet)]) == 0
        captured = capsys.readouterr()
        assert "no suggestion" in captured.err.lower()

    @pytest.mark.parametrize("argv", [
        ["suggest", "--snippet", "s.java", "-k", "0"],
        ["evaluate", "--data", "d.jsonl", "-k", "0"],
        ["evaluate", "--data", "d.jsonl", "--baseline", "tfidf", "-k", "0"],
        ["evaluate", "--data", "d.jsonl", "--baseline", "tfidf", "-k", "-3"],
    ])
    def test_k_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--ckpt", "c.ckpt"])
        assert exc.value.code == 2
        assert "-k: must be >= 1" in capsys.readouterr().err

    def test_viz_html(self, java_project, tmp_path, capsys):
        data = build_dataset(java_project, tmp_path)
        ckpt = train_tiny(data, tmp_path)
        snippet = tmp_path / "snippet.java"
        snippet.write_text('{ this.useBrowserCache = flag <b> 1; }')
        viz = tmp_path / "att.html"
        capsys.readouterr()
        assert main(["suggest", "--ckpt", str(ckpt), "--snippet", str(snippet),
                     "-k", "2", "--viz", str(viz)]) == 0
        html_text = viz.read_text()
        top_line = capsys.readouterr().out.strip().splitlines()[0]
        name = top_line.split(". ")[1].split(" (")[0]
        n_subtokens = len(name.split(","))
        # one alpha row and one kappa row per generated subtoken plus End
        assert html_text.count('class="head">&alpha;') == n_subtokens + 1
        assert html_text.count('class="head">&kappa;') == n_subtokens + 1
        assert "End" in html_text
        assert "&lambda;=" in html_text
        # the snippet's "<" operator token must be escaped in the page
        assert "&lt;" in html_text
        assert "<b>" not in html_text


# Twenty files, so that the file-level split gives validation a file too.
SPLIT_FILES = [f"F{i}.java" for i in range(20)]
TINY_FLAGS = ["--D", "4", "--k1", "2", "--k2", "2", "--w1", "2", "--w2", "2", "--w3", "2",
              "--dropout-rate", "0.0", "--epochs", "1", "--min-count", "1",
              "--eval-every", "1"]


def split_records() -> bytes:
    """One good record per file of ``SPLIT_FILES``."""
    return b"".join(json.dumps({"name": [f"get{i % 3}"], "body": ["return", f"x{i % 4}", ";"],
                                "file": f, "project": "p"}).encode() + b"\n"
                    for i, f in enumerate(SPLIT_FILES))


@pytest.fixture(scope="module")
def split_checkpoint(tmp_path_factory):
    """A directory holding a tiny copy checkpoint trained on ``split_records``."""
    tmp = tmp_path_factory.mktemp("fuzzed-datasets")
    data = tmp / "good.jsonl"
    data.write_bytes(split_records())
    assert main(["train", "--data", str(data), "--model", "copy",
                 "--out", str(tmp / "good.ckpt"), *TINY_FLAGS]) == 0
    return tmp


class TestFuzzedDatasets:
    """``train`` and ``evaluate`` on a good dataset with fuzzed lines added
    either succeed or reject the data (exit 2); they never fail inside (exit 1)."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(dataset_lines(st.sampled_from(SPLIT_FILES)), min_size=1, max_size=3))
    def test_train_and_evaluate_never_exit_1(self, split_checkpoint, capsys, lines):
        data = split_checkpoint / "fuzzed.jsonl"
        data.write_bytes(split_records() + b"\n".join(lines) + b"\n")
        for argv in (["train", "--model", "copy", "--out", str(split_checkpoint / "new.ckpt"),
                      *TINY_FLAGS],
                     ["evaluate", "--ckpt", str(split_checkpoint / "good.ckpt")]):
            capsys.readouterr()
            code = main([*argv, "--data", str(data)])
            assert code in (0, 2), capsys.readouterr().err


class TestFuzzedJava:
    """``build-corpus`` over fuzzed Java files and ``suggest`` over a fuzzed
    snippet either succeed or reject the input (exit 2); they never fail
    inside (exit 1), and a corpus that was built loads as a dataset."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(texts=st.lists(java_text(), min_size=1, max_size=3))
    def test_build_corpus_never_exits_1(self, tmp_path_factory, capsys, texts):
        tmp = tmp_path_factory.mktemp("fuzzed-java")
        src = tmp / "src"
        src.mkdir()
        for i, text in enumerate(texts):
            (src / f"F{i}.java").write_text(text, encoding="utf-8", errors="surrogatepass")
        capsys.readouterr()
        code = main(["build-corpus", "--src", str(src), "--out", str(tmp / "d.jsonl")])
        assert code in (0, 2), capsys.readouterr().err
        if code == 0:
            load_jsonl(tmp / "d.jsonl")

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=java_text())
    def test_suggest_never_exits_1(self, split_checkpoint, capsys, text):
        snippet = split_checkpoint / "fuzzed.java"
        snippet.write_text(text, encoding="utf-8", errors="surrogatepass")
        capsys.readouterr()
        code = main(["suggest", "--ckpt", str(split_checkpoint / "good.ckpt"),
                     "--snippet", str(snippet)])
        assert code in (0, 2), capsys.readouterr().err


class TestPathThroughAFile:
    """A path whose parent is a regular file is bad input (exit 2), as a
    missing file is, for every path option of every command."""

    @pytest.mark.parametrize("command, flag", [
        ("evaluate", "--ckpt"), ("evaluate", "--data"), ("evaluate", "--out"),
        ("evaluate", "--per-example"), ("suggest", "--ckpt"), ("suggest", "--snippet"),
        ("suggest", "--viz"), ("train", "--data"), ("train", "--log"), ("train", "--out"),
    ])
    def test_exits_2(self, split_checkpoint, tmp_path, capsys, command, flag):
        plain = tmp_path / "plain.txt"
        plain.write_text("not a directory\n")
        snippet = tmp_path / "snippet.java"
        snippet.write_text("{ return x0 ; }")
        ckpt, data = str(split_checkpoint / "good.ckpt"), str(split_checkpoint / "good.jsonl")
        options = {"evaluate": {"--ckpt": ckpt, "--data": data},
                   "suggest": {"--ckpt": ckpt, "--snippet": str(snippet)},
                   "train": {"--data": data, "--out": str(tmp_path / "new.ckpt")}}[command]
        options[flag] = str(plain / "x")
        argv = [command, *(x for option in options.items() for x in option)]
        if command == "train":
            argv += ["--model", "copy", *TINY_FLAGS]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err, err


class TestOutputsCheckedFirst:
    """An output that cannot be written (its parent is a regular file, or
    it is a directory) fails before the data is loaded, the model trained
    or a snippet decoded."""

    @pytest.fixture(params=["through-a-file", "a-directory"])
    def bad_out(self, request, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("not a directory\n")
        if request.param == "a-directory":
            return str(tmp_path), "Is a directory"
        return str(plain / "out"), "Not a directory"

    def exits_2_naming(self, argv, bad_out, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        path, reason = bad_out
        assert captured.err.startswith("error: ") and f"{reason}: '{path}'" in captured.err
        return captured.out

    def test_train_runs_no_epoch(self, split_checkpoint, bad_out, capsys):
        out = self.exits_2_naming(["train", "--data", str(split_checkpoint / "good.jsonl"),
                                   "--model", "copy", "--out", bad_out[0], *TINY_FLAGS],
                                  bad_out, capsys)
        assert '"epoch"' not in out

    def test_build_corpus_extracts_nothing(self, java_project, bad_out, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "extract_methods", lambda *a: calls.append(a) or [])
        self.exits_2_naming(["build-corpus", "--src", str(java_project), "--out", bad_out[0]],
                            bad_out, capsys)
        assert calls == []

    def test_train_log_loads_no_data(self, split_checkpoint, tmp_path, bad_out, capsys,
                                     monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "load_jsonl", lambda path: calls.append(path) or load_jsonl(path))
        self.exits_2_naming(["train", "--data", str(split_checkpoint / "good.jsonl"),
                             "--model", "copy", "--out", str(tmp_path / "m.ckpt"),
                             "--log", bad_out[0], *TINY_FLAGS], bad_out, capsys)
        assert calls == [] and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag", ["--out", "--per-example"])
    def test_evaluate_decodes_nothing(self, split_checkpoint, bad_out, capsys, monkeypatch,
                                      flag):
        calls = []
        monkeypatch.setattr(cli, "evaluate_model", lambda *a, **kw: calls.append(a))
        self.exits_2_naming(["evaluate", "--ckpt", str(split_checkpoint / "good.ckpt"),
                             "--data", str(split_checkpoint / "good.jsonl"),
                             flag, bad_out[0]], bad_out, capsys)
        assert calls == []

    def test_suggest_decodes_nothing(self, split_checkpoint, tmp_path, bad_out, capsys,
                                     monkeypatch):
        snippet = tmp_path / "snippet.java"
        snippet.write_text("{ return x0 ; }")
        calls = []
        monkeypatch.setattr(cli, "suggest", lambda *a, **kw: calls.append(a))
        self.exits_2_naming(["suggest", "--ckpt", str(split_checkpoint / "good.ckpt"),
                             "--snippet", str(snippet), "--viz", bad_out[0]], bad_out, capsys)
        assert calls == []
