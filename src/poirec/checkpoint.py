"""Binary checkpoints: named tensor sections with a JSON manifest.
Round trips are bit-exact; writes are atomic (temp file + rename)."""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PCKP"
VERSION = 2  # 2: b_spd holds hops 0-2 and the master slot


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, arrays, meta=None):
    """arrays: {name: ndarray}; meta: JSON-serializable dict (config, step
    counters, ...)."""
    path = Path(path)
    manifest = {
        "version": VERSION,
        "meta": meta or {},
        "tensors": [
            {"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
            for k, v in arrays.items()
        ],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v).tobytes())
    os.replace(tmp, path)


def _tensor_entry(entry, seen):
    """(name, dtype, shape) of a manifest tensor entry. Raises ValueError
    unless the name is a string not in `seen`, the dtype a string naming a
    bool, integer or float type and the shape a list of integers >= 0."""
    name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
    if not isinstance(name, str):
        raise ValueError(f"tensor name {name!r} is not a string")
    if name in seen:
        raise ValueError(f"tensor {name} is listed twice")
    if not isinstance(dtype, str) or np.dtype(dtype).kind not in "biuf":
        raise ValueError(f"tensor {name} has dtype {dtype!r}, not a bool, integer or float type")
    if not isinstance(shape, list) or not all(type(k) is int and k >= 0 for k in shape):
        raise ValueError(f"tensor {name} has shape {shape!r}, not a list of integers >= 0")
    return name, np.dtype(dtype), shape


def load_checkpoint(path):
    """(arrays, meta) of a `save_checkpoint` file. Raises CheckpointError
    naming the file on a bad magic, another format version, a cut or
    unreadable manifest, one whose meta is not an object or one with an entry
    `_tensor_entry` refuses, a cut tensor section (naming the tensor) and
    trailing bytes."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(12)
        if head[:4] != MAGIC:
            raise CheckpointError(f"bad checkpoint magic {head[:4]!r} in {path}")
        if len(head) < 12:
            raise CheckpointError(f"checkpoint {path} is cut inside its header")
        version, blob_len = struct.unpack("<II", head[4:])
        if version != VERSION:
            raise CheckpointError(
                f"checkpoint {path} has format version {version}, this build reads "
                f"version {VERSION}; train again to write a version-{VERSION} file")
        try:  # a cut manifest is cut JSON
            manifest = json.loads(fh.read(blob_len).decode("utf-8"))
            meta = manifest["meta"]
            if not isinstance(meta, dict):
                raise TypeError("its meta is not an object")
            entries = {}
            for entry in manifest["tensors"]:
                name, dtype, shape = _tensor_entry(entry, entries)
                entries[name] = dtype, shape
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"checkpoint {path} has a bad manifest: {exc}") from None
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        arrays = {}
        for name, (dtype, shape) in entries.items():
            size = math.prod(shape) * dtype.itemsize
            buf = fh.read(min(size, left))  # the shape may claim more than the file has
            left -= len(buf)
            if len(buf) < size:
                raise CheckpointError(f"checkpoint {path} is cut inside tensor {name} "
                                      f"({len(buf)} of {size} bytes)")
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"checkpoint {path} has bytes after its last tensor")
    return arrays, meta
