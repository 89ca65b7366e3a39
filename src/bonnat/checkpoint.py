"""Versioned binary checkpoints: a fixed header followed by named
parameter blocks of little-endian float64, each of the shape that the
header's dims give it. Writes are atomic (temp file then rename).
"""
from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

import numpy as np

from .model import LengthPredictor, ModelDims, NatModel, TrainState

MAGIC = b"BONNATCK"
VERSION = 1
_HEADER = struct.Struct("<I5iqq")  # version, V, d, h, p_max, dl_max, seed, step


class CheckpointError(ValueError):
    pass


def save(path: str | Path, state: TrainState, seed: int) -> str:
    """Write the checkpoint; returns the SHA-256 of the bytes written."""
    path = Path(path)
    blocks = {**state.model.params, **state.lp.params}
    d = state.model.dims
    buf = bytearray()
    buf += MAGIC
    buf += _HEADER.pack(VERSION, d.vocab, d.d, d.h, d.p_max, d.dl_max,
                        seed, state.step)
    buf += struct.pack("<I", len(blocks))
    for name, arr in blocks.items():
        raw = name.encode("utf-8")
        buf += struct.pack("<H", len(raw)) + raw
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}i", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(buf)
    os.replace(tmp, path)
    return hashlib.sha256(buf).hexdigest()


def load(path: str | Path) -> tuple[TrainState, dict]:
    """The state and header fields, with the SHA-256 of the bytes parsed."""
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    try:
        fields, blocks = _read(data)
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint {path}: {exc}") from None
    version, vocab, d, h, p_max, dl_max, seed, step = fields
    dims = ModelDims(vocab=vocab, d=d, h=h, p_max=p_max, dl_max=dl_max)
    model_shapes, lp_shapes = NatModel.shapes(dims), LengthPredictor.shapes(dims)
    for k, shape in {**model_shapes, **lp_shapes}.items():
        if k not in blocks:
            raise CheckpointError(f"incomplete checkpoint {path}: no block {k}")
        if blocks[k].shape != shape:
            raise CheckpointError(
                f"mis-shaped checkpoint {path}: block {k} has shape "
                f"{blocks[k].shape}, the header dims give {shape}"
            )
    state = TrainState(
        model=NatModel(dims, {k: blocks[k] for k in model_shapes}),
        lp=LengthPredictor(dl_max, {k: blocks[k] for k in lp_shapes}),
        step=step,
    )
    header = {"version": version, "seed": seed, "step": step, "dims": dims,
              "sha256": hashlib.sha256(data).hexdigest()}
    return state, header


def _read(data: bytes) -> tuple[tuple, dict[str, np.ndarray]]:
    """Header fields and named blocks; struct.error if data ends early."""
    off = len(MAGIC)
    fields = _HEADER.unpack_from(data, off)
    if fields[0] != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {fields[0]}")
    off += _HEADER.size
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    blocks: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off : off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = struct.unpack_from("<B", data, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}i", data, off)
        off += 4 * ndim
        size = int(np.prod(shape)) * 8
        if off + size > len(data):
            raise struct.error(f"block {name!r} runs past the end of the data")
        arr = np.frombuffer(data[off : off + size], dtype="<f8").reshape(shape)
        blocks[name] = arr.copy()
        off += size
    return fields, blocks
