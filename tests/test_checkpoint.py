"""Bit-exact checkpoint round-trips and the corruption error surface."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_MANIFESTS, JSON_VALUES, make_params, make_vocab, read_parts, write_parts
from codesum.checkpoint import MAGIC, VERSION, load, save
from codesum.decoder import suggest
from codesum.errors import (
    BadMagic,
    CheckpointError,
    CorruptManifest,
    TruncatedPayload,
    UnsupportedVersion,
)
from codesum.model import encode_snippet
from codesum.trainer import preset


def cfg():
    return preset("copy_attention", D=3, k1=2, k2=2, w1=1, w2=1, w3=1, epochs=1)


def write_checkpoint(tmp_path, dtype=np.float64):
    rng = np.random.default_rng(7)
    params = make_params(9, d=3, k1=2, k2=2, rng=rng)
    if dtype is not np.float64:
        for _, t in params.named_tensors():
            t.data = t.data.astype(dtype)
    vocab = make_vocab(["a", "b"])
    path = tmp_path / "model.ckpt"
    save(params, vocab, cfg(), path)
    return params, vocab, path


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_identity(self, tmp_path, dtype):
        params, vocab, path = write_checkpoint(tmp_path, dtype)
        loaded, loaded_vocab, loaded_cfg = load(path)
        got = dict(loaded.named_tensors())
        for name, tensor in params.named_tensors():
            assert got[name].data.dtype == np.dtype(dtype)
            assert np.array_equal(got[name].data, tensor.data)
            assert got[name].data.tobytes() == tensor.data.tobytes()
        assert loaded_vocab == vocab
        assert loaded_cfg == cfg()

    def test_loaded_params_are_trainable(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        loaded, _, _ = load(path)
        for _, t in loaded.named_tensors():
            assert t.requires_grad

    def test_no_stray_temp_files(self, tmp_path):
        write_checkpoint(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_header_layout(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = path.read_bytes()
        assert blob[:8] == b"CODESUM1" == MAGIC
        assert int.from_bytes(blob[8:12], "little") == VERSION == 4
        manifest_len = int.from_bytes(blob[12:20], "little")
        manifest = json.loads(blob[20:20 + manifest_len])
        assert set(manifest) == {"config", "vocabulary", "tensors"}
        offsets = [t["byte_offset"] for t in manifest["tensors"]]
        assert offsets == sorted(offsets)
        names = [t["name"] for t in manifest["tensors"]]
        assert len(names) == len(set(names))
        for entry in manifest["tensors"]:
            assert entry["dtype"] in ("f32", "f64")
        assert "prelu_a2" not in names

    def test_version_1_file_loads_without_prelu_a2(self, tmp_path):
        # Version 1 files carry an unused scalar "prelu_a2" after prelu_a1.
        params, vocab, path = write_checkpoint(tmp_path)
        _, manifest, payload = read_parts(path)
        entries = manifest["tensors"]
        at = next(i for i, e in enumerate(entries) if e["name"] == "prelu_a1") + 1
        start = entries[at]["byte_offset"] if at < len(entries) else len(payload)
        extra = np.array(0.25).tobytes()
        for e in entries[at:]:
            e["byte_offset"] += len(extra)
        entries.insert(at, {"name": "prelu_a2", "shape": [], "dtype": "f64",
                            "byte_offset": start})
        v1_path = tmp_path / "v1.ckpt"
        write_parts(v1_path, 1, manifest, payload[:start] + extra + payload[start:])

        v1, v1_vocab, v1_cfg = load(v1_path)
        v2, v2_vocab, v2_cfg = load(path)
        v1_tensors = dict(v1.named_tensors())
        assert list(v1_tensors) == [name for name, _ in v2.named_tensors()]
        for name, t in v2.named_tensors():
            assert v1_tensors[name].data.tobytes() == t.data.tobytes()
        assert (v1_vocab, v1_cfg) == (v2_vocab, v2_cfg) == (vocab, cfg())

    def test_version_3_conv_file_loads_without_copy_head(self, tmp_path):
        # Version 3 conv files carry a copy head the conv model never reads.
        params = make_params(9, d=3, k1=2, k2=2, rng=np.random.default_rng(7))
        vocab = make_vocab(["a", "b"])
        conv_cfg = preset("conv_attention", D=3, k1=2, k2=2, w1=1, w2=1, w3=1,
                          epochs=1)
        v3_path = tmp_path / "v3.ckpt"
        save(params, vocab, conv_cfg, v3_path)
        _, manifest, payload = read_parts(v3_path)
        assert {"K_copy", "K_lambda"} <= {e["name"] for e in manifest["tensors"]}
        write_parts(v3_path, 3, manifest, payload)
        v4_path = tmp_path / "v4.ckpt"
        save(replace(params, K_copy=None, K_lambda=None), vocab, conv_cfg, v4_path)

        v3, _, v3_cfg = load(v3_path)
        v4, _, _ = load(v4_path)
        assert v3.K_copy is None and v3.K_lambda is None and v3_cfg == conv_cfg
        v3_tensors = dict(v3.named_tensors())
        assert list(v3_tensors) == [name for name, _ in v4.named_tensors()]
        for name, t in v4.named_tensors():
            assert v3_tensors[name].data.tobytes() == t.data.tobytes()

        snippet = encode_snippet(["a", "b", "zz"], vocab)

        def ranked(p):
            return [(s.name, s.log_prob) for s in
                    suggest(snippet, p, vocab, k=5, model_kind="conv_attention")]

        assert ranked(v3) == ranked(params) != []

    def test_stored_optimizer_keys_are_ignored(self, tmp_path):
        # Configs stored while the optimizer constants were TrainConfig
        # fields carry them; their values no longer mean anything.
        params, vocab, path = write_checkpoint(tmp_path)
        version, manifest, payload = read_parts(path)
        assert not {"rms_decay", "momentum", "epsilon", "clip_norm"} & set(manifest["config"])
        old_path = tmp_path / "old.ckpt"
        manifest["config"].update(rms_decay=0.5, momentum=0.0, epsilon=1.0, clip_norm=-1.0)
        write_parts(old_path, version, manifest, payload)

        old, old_vocab, old_cfg = load(old_path)
        new, new_vocab, new_cfg = load(path)
        assert (old_vocab, old_cfg) == (new_vocab, new_cfg) == (vocab, cfg())
        snippet = encode_snippet(["a", "b", "zz"], vocab)

        def ranked(p):
            return [(s.name, s.log_prob) for s in suggest(snippet, p, vocab, k=5)]

        assert ranked(old) == ranked(new) != []


class TestCorruption:
    def test_truncated_payload(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(TruncatedPayload):
            load(path)

    def test_bad_magic(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load(path)

    def test_unsupported_version(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersion):
            load(path)

    def test_corrupt_manifest_json(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[20] = ord("X")  # manifests start with '{'
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptManifest):
            load(path)

    def test_deeply_nested_manifest(self, tmp_path):
        # Past its nesting limit json raises RecursionError, not a decode error.
        path = tmp_path / "deep.ckpt"
        raw = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(MAGIC + VERSION.to_bytes(4, "little")
                         + len(raw).to_bytes(8, "little") + raw)
        with pytest.raises(CorruptManifest, match="recursion"):
            load(path)

    def test_non_string_vocabulary_token(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        version, manifest, payload = read_parts(path)
        manifest["vocabulary"]["tokens"][-1] = 7
        write_parts(path, version, manifest, payload)
        with pytest.raises(CorruptManifest, match="list of strings"):
            load(path)

    def test_manifest_missing_tensor(self, tmp_path):
        # The copy model's file must carry its copy head.
        _, _, path = write_checkpoint(tmp_path)
        version, manifest, payload = read_parts(path)
        for missing in ("E", "K_copy", "K_lambda"):
            kept = [t for t in manifest["tensors"] if t["name"] != missing]
            write_parts(path, version, {**manifest, "tensors": kept}, payload)
            with pytest.raises(CorruptManifest, match=missing):
                load(path)

    def test_short_embedding_table(self, tmp_path):
        # E and b keep 5 of the vocabulary's 9 rows.
        params, vocab, path = write_checkpoint(tmp_path)
        params.E.data = params.E.data[:5]
        params.b.data = params.b.data[:5]
        save(params, vocab, cfg(), path)
        with pytest.raises(CorruptManifest,
                           match=re.escape("tensor E has shape (5, 3), expected (9, 3)")):
            load(path)

    def test_kernel_wider_than_stored_config(self, tmp_path):
        params = make_params(9, d=3, k1=2, k2=2, w1=2, rng=np.random.default_rng(7))
        path = tmp_path / "wide.ckpt"
        save(params, make_vocab(["a", "b"]), cfg(), path)  # the config says w1=1
        with pytest.raises(CorruptManifest,
                           match=re.escape("tensor K_l1 has shape (3, 2, 2), expected (3, 1, 2)")):
            load(path)

    @pytest.mark.parametrize("key, value", [("model_kind", "bogus"),
                                            ("state_kind", "simple"),
                                            ("eval_every", 0),
                                            ("seed", -1),
                                            ("seed", 1.5),
                                            ("w3", 2.0),
                                            ("epochs", True)])
    def test_invalid_stored_config(self, tmp_path, key, value):
        _, _, path = write_checkpoint(tmp_path)
        version, manifest, payload = read_parts(path)
        manifest["config"][key] = value
        write_parts(path, version, manifest, payload)
        with pytest.raises(CorruptManifest, match=key):
            load(path)

    @pytest.mark.parametrize("edit", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
    def test_malformed_manifest_field(self, tmp_path, edit):
        _, _, path = write_checkpoint(tmp_path)
        version, manifest, payload = read_parts(path)
        write_parts(path, version, edit(manifest), payload)
        with pytest.raises(CorruptManifest):
            load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_tensor(self, tmp_path, bad):
        _, _, path = write_checkpoint(tmp_path)
        version, manifest, payload = read_parts(path)
        entry = next(e for e in manifest["tensors"] if e["name"] == "E")
        start = entry["byte_offset"]
        payload = payload[:start] + np.array(bad).tobytes() + payload[start + 8:]
        write_parts(path, version, manifest, payload)
        with pytest.raises(CheckpointError, match="tensor E "):
            load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(BadMagic):
            load(path)

    def test_errors_are_distinguishable(self):
        # all four checkpoint errors are distinct classes
        kinds = {BadMagic, UnsupportedVersion, CorruptManifest, TruncatedPayload}
        assert len(kinds) == 4


FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """(bytes of a valid checkpoint, a path to write variants to)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    _, _, path = write_checkpoint(tmp)
    return path.read_bytes(), tmp / "variant.ckpt"


def manifest_paths(value, path=()):
    """The path of every value inside a manifest, containers included."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from manifest_paths(inner, (*path, key))


def loads_or_rejects(path):
    """``load`` returns, or raises the checkpoint error family only."""
    try:
        load(path)
    except CheckpointError:
        pass


class TestFuzzedCheckpoints:
    @FUZZ
    @given(data=st.data())
    def test_truncation(self, valid_checkpoint, data):
        blob, path = valid_checkpoint
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(CheckpointError):
            load(path)

    @FUZZ
    @given(data=st.data())
    def test_byte_flips(self, valid_checkpoint, data):
        blob, path = valid_checkpoint
        flipped = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 3))):
            flipped[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(flipped))
        loads_or_rejects(path)

    @FUZZ
    @given(data=st.data(), value=JSON_VALUES)
    def test_manifest_value_replaced_by_any_json(self, valid_checkpoint, data, value):
        blob, path = valid_checkpoint
        path.write_bytes(blob)
        version, manifest, payload = read_parts(path)
        where = data.draw(st.sampled_from(list(manifest_paths(manifest))))
        if where:
            *parents, last = where
            owner = manifest
            for key in parents:
                owner = owner[key]
            owner[last] = value
        else:
            manifest = value
        write_parts(path, version, manifest, payload)
        loads_or_rejects(path)
