"""Smoke test of the benchmark harness on a tiny configuration.

Checks structure only, never wall-clock numbers: every metric of
BENCHMARK.json comes out with its unit, each workload's own figures and
the corpus properties and build fingerprint are present, outputs pass
their checks, and the traced run finds every hook.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_smoke.py
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_harness as bh  # noqa: E402
from bench_corpus import CorpusSpec  # noqa: E402
from codesum.decoder import SearchLimits  # noqa: E402

TINY_CORPUS = CorpusSpec(n_files=12, methods_per_file=(2, 3), statements=(1, 2),
                         lexicon=150, zipf=0.8)
TINY = bh.Sizes(
    corpus=TINY_CORPUS, requests=replace(TINY_CORPUS, n_files=3),
    pool=2, setup_repeats=2, train_chunk=2, train_epochs=2,
    ckpt_examples=4, ckpt_epochs=1,
    limits=SearchLimits(max_steps=30, successors=8, max_name_len=2))

# Figures the workloads must report under their own names.
WORKLOAD_FIGURES = {
    "setup_s", "train_examples_per_s", "train_nll", "suggest_ms_p50",
    "suggest_ms_p90", "eval_examples_per_s", "tfidf_examples_per_s", "f1_at_5",
    "peak_rss_mb", "fail_frac",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {(w, trace): bh.run(w, seed=3, seconds=0.0, trace=trace, root=ROOT,
                               out_dir=out, sizes=TINY)
            for w in bh.WORKLOADS for trace in (False, True)}


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec["command"][:2]) == {"python3", "benchmarks/run.py"}
    assert {w["name"] for w in spec["workloads"]} == set(bh.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bh.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bh.PER_LAYER


def test_result_lines(runs):
    for (workload, trace), (result, detail) in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], (workload, detail["errors"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = bh.PER_LAYER if trace else {k: u for k, (u, _) in bh.END_TO_END.items()}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_named_figures_fingerprint_and_properties(runs):
    seen: dict[str, str] = {}
    for (workload, trace), (_, detail) in runs.items():
        fp = detail["fingerprint"]
        for key in ("git_sha", "python", "numpy", "blas", "blas_threads", "nproc",
                    "codesum_threads_env"):
            assert key in fp
        props = detail["properties"]
        assert props["vocab_size"] > 7
        assert 0.0 <= props["target_oov_share"] <= 1.0
        assert 0.0 <= props["target_copyable_share"] <= 1.0
        assert props["body_subtokens_p50"] <= props["body_subtokens_p90"]
        assert len(detail["digest"]) == 16
        if not trace:
            for name, fig in detail["named"].items():
                assert fig["unit"] == bh.NAMED_UNITS[name] and fig["samples"] >= 1
                seen[name] = fig["unit"]
    assert WORKLOAD_FIGURES <= set(seen)


def test_traced_run_finds_every_hook(runs):
    for workload in bh.WORKLOADS:
        _, detail = runs[(workload, True)]
        assert detail["trace"]["missing_hooks"] == []
        assert detail["trace"]["spans"] > 0
    train = runs[("train-copy", True)][0]["metrics"]
    suggest = runs[("suggest-copy", True)][0]["metrics"]
    evaluate = runs[("evaluate-conv", True)][0]["metrics"]
    assert train["model.step.calls"]["value"] > 0
    assert train["trainer.skipped"]["value"] == 0
    assert train["decoder.expansions"]["value"] == 0
    for m in (suggest, evaluate):
        assert m["decoder.expansions"]["value"] > 0
        assert m["decoder.child_states"]["value"] >= m["decoder.expansions"]["value"] > 0
        assert 0 < m["decoder.child_state_use_ratio"]["value"] <= 1
        assert m["tensorcore.tensors_created"]["value"] > 0
    assert evaluate["evaluation.tfidf_build.ms"]["value"] > 0


def test_same_seed_same_outputs(runs, tmp_path):
    again, detail = bh.run("suggest-copy", seed=3, seconds=0.0, trace=False, root=ROOT,
                           out_dir=tmp_path, sizes=TINY)
    assert detail["digest"] == runs[("suggest-copy", False)][1]["digest"]
    assert detail["properties"] == runs[("suggest-copy", False)][1]["properties"]


def test_seed_orders_the_same_pool(tmp_path):
    sizes = replace(TINY, pool=5)
    wl = bh.SuggestCopy()
    pools = [wl.setup(seed, sizes, tmp_path)["requests"] for seed in (3, 4)]
    assert len(pools[0]) == 5 and sorted(pools[0]) == sorted(pools[1])
