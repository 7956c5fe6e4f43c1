"""Single-file, bit-exact model container.

Layout (all integers little-endian):

    bytes 0..7    magic "CODESUM1"
    bytes 8..11   version, u32
    bytes 12..19  manifest length in bytes, u64
    manifest      UTF-8 JSON: {"config": {...}, "vocabulary": {...},
                  "tensors": [{"name", "shape", "dtype", "byte_offset"}]}
    payload       concatenated row-major little-endian tensor data

Offsets are relative to the payload start, nondecreasing, and
non-overlapping; dtype is "f32" or "f64".  Writes go to a temporary
file followed by an atomic rename.

Each model kind stores only the tensors it reads: the conv model has no
copy head (``K_copy``, ``K_lambda``), so version 4 conv files lack them.
Version 3 dropped the unused ``prelu_a2`` tensor.  Version 1 and 3 files
still load: tensors that the model does not name are ignored, which drops
``prelu_a2`` and an old conv file's copy head.  No file was ever written
as version 2, which is rejected like any unknown version.  A tensor with
NaN or Inf entries, or a stored config that does not validate (such as
one from the removed simple-state variant), is rejected as bad input.

``model.param_shapes`` declares which tensors a file must hold and their
shapes.  New files list them in that table's order (``gru.*`` first);
older files listed ``E`` first.  Entries are read by name, so the order
is not part of the format and ``VERSION`` stays 4.  A tensor whose shape
disagrees with the stored config and vocabulary is rejected as a corrupt
manifest.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .corpus.vocabulary import Vocabulary
from .errors import (
    BadMagic,
    CheckpointError,
    CorruptManifest,
    TruncatedPayload,
    UnsupportedVersion,
)
from .model import ModelParams, param_shapes
from .tensorcore import Tensor
from .trainer import TrainConfig

MAGIC = b"CODESUM1"
VERSION = 4
READABLE_VERSIONS = (1, 3, 4)

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def save(params: ModelParams, vocab: Vocabulary, cfg: TrainConfig,
         path: str | Path) -> None:
    """Write a checkpoint; the target appears atomically."""
    entries = []
    blobs = []
    offset = 0
    for name, tensor in params.named_tensors():
        arr = tensor.data
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shapes intact
        dtype_name = _DTYPE_NAMES.get(arr.dtype)
        if dtype_name is None:
            raise ValueError(f"tensor {name} has unsupported dtype {arr.dtype}")
        raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": dtype_name,
            "byte_offset": offset,
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps({
        "config": cfg.to_dict(),
        "vocabulary": vocab.to_json(),
        "tensors": entries,
    }).encode("utf-8")

    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    except OSError as exc:  # named after the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(VERSION.to_bytes(4, "little"))
            fh.write(len(manifest).to_bytes(8, "little"))
            fh.write(manifest)
            for raw in blobs:
                fh.write(raw)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _manifest_error(msg: str) -> CorruptManifest:
    return CorruptManifest(f"checkpoint manifest: {msg}")


def load(path: str | Path) -> tuple[ModelParams, Vocabulary, TrainConfig]:
    """Read a checkpoint back, tensor for tensor and id for id."""
    blob = Path(path).read_bytes()
    if len(blob) < 20 or blob[:8] != MAGIC:
        raise BadMagic(f"{path}: not a checkpoint file")
    version = int.from_bytes(blob[8:12], "little")
    if version not in READABLE_VERSIONS:
        raise UnsupportedVersion(
            f"{path}: version {version}, expected one of {READABLE_VERSIONS}")
    manifest_len = int.from_bytes(blob[12:20], "little")
    if len(blob) < 20 + manifest_len:
        raise _manifest_error("manifest extends past end of file")
    try:
        manifest = json.loads(blob[20:20 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _manifest_error(str(exc)) from exc
    if not isinstance(manifest, dict):
        raise _manifest_error("not a JSON object")
    for key, kind in (("config", dict), ("vocabulary", dict), ("tensors", list)):
        if not isinstance(manifest.get(key), kind):
            raise _manifest_error(f"key {key!r} is missing or not a {kind.__name__}")

    payload = blob[20 + manifest_len:]
    tensors: dict[str, np.ndarray] = {}
    last_end = 0
    for entry in manifest["tensors"]:
        if not isinstance(entry, dict) or not {"name", "shape", "dtype", "byte_offset"} <= set(entry):
            raise _manifest_error("tensor entry missing fields")
        name, shape, start = entry["name"], entry["shape"], entry["byte_offset"]
        # Extents and offsets are JSON integers >= 0; true and 1.0 are not.
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(x) is int and x >= 0 for x in [*shape, start])):
            raise _manifest_error(f"tensor entry {name!r} has a bad name, shape or byte offset")
        if not isinstance(entry["dtype"], str) or entry["dtype"] not in _DTYPES:
            raise _manifest_error(f"unknown dtype {entry['dtype']!r}")
        dtype = _DTYPES[entry["dtype"]]
        end = start + math.prod(shape) * dtype.itemsize
        if start < last_end:
            raise _manifest_error("tensor offsets overlap or decrease")
        last_end = end
        if end > len(payload):
            raise TruncatedPayload(
                f"{path}: tensor {name} needs bytes up to {end}, "
                f"payload has {len(payload)}")
        try:  # an empty shape may still hold an extent no array can have
            arr = np.frombuffer(payload[start:end], dtype=dtype).reshape(shape)
        except ValueError as exc:
            raise _manifest_error(f"tensor {name} has shape {shape}: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: tensor {name} holds NaN or Inf")
        tensors[name] = np.array(arr, copy=True)

    try:
        vocab = Vocabulary.from_json(manifest["vocabulary"])
        cfg = TrainConfig.from_dict(manifest["config"])
        cfg.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise _manifest_error(str(exc)) from exc
    copy = cfg.model_kind == "copy_attention"
    named: dict[str, Tensor] = {}
    for name, want in param_shapes(len(vocab), cfg.D, cfg.k1, cfg.k2,
                                   cfg.w1, cfg.w2, cfg.w3, copy):
        if name not in tensors:
            raise _manifest_error(f"missing tensor {name!r}")
        if tensors[name].shape != want:
            raise _manifest_error(
                f"tensor {name} has shape {tensors[name].shape}, expected {want} "
                f"from the stored config and vocabulary")
        named[name] = Tensor(tensors[name], requires_grad=True)
    return ModelParams.from_named(named), vocab, cfg
