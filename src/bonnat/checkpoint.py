"""Versioned binary checkpoints: a fixed header followed by named
parameter blocks of little-endian float64, each of the shape that the
header's dims give it. Writes are atomic (temp file then rename).
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .loss import BoundError
from .model import LengthPredictor, ModelDims, NatModel, TrainState

MAGIC = b"BONNATCK"
VERSION = 1
_HEADER = struct.Struct("<I5iqq")  # version, V, d, h, p_max, dl_max, seed, step


class CheckpointError(ValueError):
    pass


def save(path: str | Path, state: TrainState, seed: int) -> str:
    """Write the checkpoint; returns the SHA-256 of the bytes written."""
    path = Path(path)
    d = state.model.dims
    params = {**state.model.params, **state.lp.params}
    # in the order that `_read` requires, whatever the dicts' order
    blocks = {k: params[k] for k in (*NatModel.shapes(d), *LengthPredictor.shapes(d))}
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
        fields, dims, blocks, end = _read(data)
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint {path}: {exc}") from None
    except BoundError as exc:
        raise CheckpointError(f"malformed checkpoint {path}: header {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from None
    version, *_, seed, step = fields
    model_shapes, lp_shapes = NatModel.shapes(dims), LengthPredictor.shapes(dims)
    for k, shape in {**model_shapes, **lp_shapes}.items():
        if k not in blocks:
            raise CheckpointError(f"incomplete checkpoint {path}: no block {k}")
        if blocks[k].shape != shape:
            raise CheckpointError(
                f"mis-shaped checkpoint {path}: block {k} has shape "
                f"{blocks[k].shape}, the header dims give {shape}"
            )
    # checked after the blocks: a damaged shape also leaves bytes over
    if end < len(data):
        raise CheckpointError(
            f"malformed checkpoint {path}: {len(data) - end} bytes after "
            "the last block"
        )
    state = TrainState(
        model=NatModel(dims, {k: blocks[k] for k in model_shapes}),
        lp=LengthPredictor(dims.dl_max, {k: blocks[k] for k in lp_shapes}),
        step=step,
    )
    header = {"version": version, "seed": seed, "step": step, "dims": dims,
              "sha256": hashlib.sha256(data).hexdigest()}
    return state, header


def _read(data: bytes) -> tuple[tuple, ModelDims, dict[str, np.ndarray], int]:
    """Header fields, the dims they give, named blocks and the offset
    where the last block ends; struct.error if data ends early,
    BoundError if the dims are out of bounds, ValueError if the data
    cannot be decoded or a block is not the one that `save` writes at
    its place."""
    off = len(MAGIC)
    fields = _HEADER.unpack_from(data, off)
    if fields[0] != VERSION:
        raise ValueError(f"unsupported version {fields[0]}")
    dims = ModelDims(*fields[1:6])
    names = [*NatModel.shapes(dims), *LengthPredictor.shapes(dims)]
    off += _HEADER.size
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    blocks: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack_from("<H", data, off)
        off += 2
        try:
            name = data[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"the name of block {i} is not UTF-8 ({exc})") from None
        off += name_len
        (ndim,) = struct.unpack_from("<B", data, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}i", data, off)
        off += 4 * ndim
        # checked once the shape is read, so that data ending in the name
        # is refused as truncated
        if i >= len(names):
            raise ValueError(f"block {i} is {name!r}, past the {len(names)} "
                             "blocks that the header dims give")
        if name != names[i]:
            raise ValueError(f"block {i} is {name!r}, where the save order "
                             f"has {names[i]!r}")
        if min(shape, default=0) < 0:
            raise ValueError(f"block {name!r} has shape {shape}")
        size = math.prod(shape) * 8
        if off + size > len(data):
            raise struct.error(f"block {name!r} runs past the end of the data")
        arr = np.frombuffer(data[off : off + size], dtype="<f8").reshape(shape)
        blocks[name] = arr.copy()
        off += size
    return fields, dims, blocks, off
