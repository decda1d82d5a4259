"""Binary checkpoints: named tensor sections with a JSON manifest.
Round trips are bit-exact; writes are atomic (temp file + rename)."""

import json
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


def load_checkpoint(path):
    """(arrays, meta) of a `save_checkpoint` file. Raises CheckpointError
    naming the file on a bad magic, another format version, a cut or
    unreadable manifest or one whose meta is not an object, a cut tensor
    section (naming the tensor) and trailing bytes."""
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
            entries = [(e["name"], np.dtype(e["dtype"]), tuple(e["shape"]))
                       for e in manifest["tensors"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"checkpoint {path} has a bad manifest: {exc}") from None
        arrays = {}
        for name, dtype, shape in entries:
            size = int(np.prod(shape)) * dtype.itemsize
            buf = fh.read(size)
            if len(buf) < size:
                raise CheckpointError(f"checkpoint {path} is cut inside tensor {name} "
                                      f"({len(buf)} of {size} bytes)")
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"checkpoint {path} has bytes after its last tensor")
    return arrays, meta
