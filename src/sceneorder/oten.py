"""OTEN tensor files and checkpoint directories.

OTEN layout, all little-endian: magic ``OTEN``, u32 version=1, u32 rank,
rank x u64 dims, float32 payload. A checkpoint is a directory of .oten
files plus manifest.json (tensor names, shapes, config hash).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"OTEN"
VERSION = 1


class FormatError(ValueError):
    """Malformed OTEN payload."""


def write_oten(path, array: np.ndarray) -> None:
    array = np.asarray(array)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
        fh.write(array.astype("<f4").tobytes(order="C"))


def read_oten(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header")
    version, rank = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = 12 + 8 * rank
    if len(blob) < offset:
        raise FormatError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{rank}Q", blob, 12)
    count = math.prod(dims)
    if len(blob) - offset < 4 * count:
        raise FormatError(f"{path}: truncated payload")
    payload = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    return payload.astype(np.float64).reshape(dims)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def save_checkpoint(directory, arrays: dict[str, np.ndarray], config: dict) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"version": VERSION, "config_hash": config_hash(config), "config": config, "tensors": {}}
    for name in sorted(arrays):
        fname = name.replace("/", "_") + ".oten"
        write_oten(directory / fname, arrays[name])
        manifest["tensors"][name] = {"file": fname, "shape": list(np.asarray(arrays[name]).shape)}
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def load_checkpoint(directory) -> tuple[dict[str, np.ndarray], dict]:
    directory = Path(directory)
    path = directory / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        tensors = {name: (entry["file"], entry["shape"]) for name, entry in manifest["tensors"].items()}
        config = manifest["config"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from exc
    arrays = {}
    for name, (file, shape) in tensors.items():
        arr = read_oten(directory / file)
        if list(arr.shape) != shape:
            raise FormatError(f"{name}: manifest shape {shape} != file shape {list(arr.shape)}")
        arrays[name] = arr
    return arrays, config
