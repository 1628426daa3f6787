"""Versioned binary checkpoints: named float64 tensors, little-endian.

Layout: magic, u32 format version, u64 header length, JSON header (config
echo, ordered (name, shape) entries, and named exact integers), then the
concatenated row-major float64 payload in header order. Round trips are
bit-exact. A model checkpoint holds the parameters, the lsh hyperplanes and
offsets as tensors, and the min-hash permutation seeds (up to 2**62, more
than a float64 holds exactly) as header integers.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"ALTC"
FORMAT_VERSION = 3  # 3 stores expert v as V^T (rank, d), where 2 stored (d, rank)


class CheckpointError(Exception):
    """Base class for checkpoint format violations."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


def save_checkpoint(path, named_arrays, config: dict | None = None,
                    integers: dict | None = None):
    """Write (name, array) pairs in order, with a config echo and named
    integers in the header."""
    entries = [(name, np.asarray(a, dtype=np.float64)) for name, a in named_arrays]
    header = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "integers": integers or {},
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in entries],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in entries:
            fh.write(a.astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path):
    """Read a checkpoint -> (header dict, {name: array}). Strict validation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}")
    header_len = struct.unpack("<Q", raw[8:16])[0]
    if len(raw) < 16 + header_len:
        raise CheckpointTruncatedError(f"{path}: header truncated")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    tensors = header.get("tensors")
    if not isinstance(tensors, list) or not all(map(_is_tensor_entry, tensors)):
        raise CheckpointError(
            f"{path}: header 'tensors' is not a list of {{name, shape}} entries")
    if not isinstance(header.get("integers", {}), dict):
        raise CheckpointError(f"{path}: header 'integers' is not an object")
    payload = raw[16 + header_len:]
    expected = sum(math.prod(t["shape"]) for t in tensors) * 8
    if len(payload) < expected:
        raise CheckpointTruncatedError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise CheckpointTruncatedError(
            f"{path}: {len(payload) - expected} unexpected trailing bytes")
    arrays = {}
    offset = 0
    for t in tensors:
        shape = tuple(t["shape"])
        count = math.prod(shape)
        arrays[t["name"]] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    return header, arrays


def _is_tensor_entry(entry) -> bool:
    return (isinstance(entry, dict) and set(entry) == {"name", "shape"}
            and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
            and all(type(n) is int and n >= 0 for n in entry["shape"]))


def save_model(model, path, extra_config: dict | None = None):
    cfg = {"variant": model.variant, **vars(model.cfg)}
    if extra_config:
        cfg.update(extra_config)
    save_checkpoint(path, _model_arrays(model), cfg, integers=model.perm_seeds())


def _model_arrays(model):
    return [(n, p.data) for n, p in model.named_parameters()] + model.named_buffers()


def load_model(model, path):
    """Load parameters and routing state into a constructed model.

    Names, shapes and seeds must match. Every entry is checked before any is
    copied, so a load that raises leaves the model unchanged.
    """
    header, arrays = load_checkpoint(path)
    targets = _model_arrays(model)
    for name, dest in targets:
        if name not in arrays:
            raise CheckpointShapeError(f"{path}: missing tensor {name!r}")
        if arrays[name].shape != dest.shape:
            raise CheckpointShapeError(
                f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                f"model expects {dest.shape}")
    extra = set(arrays) - {n for n, _ in targets}
    if extra:
        raise CheckpointShapeError(f"{path}: unexpected tensors {sorted(extra)}")
    seeds = header.get("integers", {})
    if (set(seeds) != set(model.perm_seeds())
            or any(type(v) is not int for v in seeds.values())):
        raise CheckpointShapeError(
            f"{path}: integers {sorted(seeds)}, model expects {sorted(model.perm_seeds())}")
    for name, dest in targets:
        dest[...] = arrays[name]
    model.set_perm_seeds(seeds)
    return header
