"""Versioned annotation JSON: schema v1, byte-stable canonical emission.

Schema:
  { "version": 1,
    "image": {"width": W, "height": H, "path": str},
    "instances": [{"id", "category", "bbox": [4 floats], "mask_rle": [ints]}],
    "occlusion": [{"i", "j"}],                       # i occludes j
    "depth": [{"i", "j", "rel": "front|overlap", "count": int}] }

mask_rle is row-major run lengths alternating zero-runs and one-runs,
starting with the zero-run (possibly 0). Depth pairs are stored once with
the canonical orientation produced by matrix_to_pairs.
"""

from __future__ import annotations

import json

import numpy as np

from .orders import (
    DataError,
    InstanceMask,
    SceneAnnotation,
    matrix_to_pairs,
    pairs_to_matrix,
)

SCHEMA_VERSION = 1


def rle_encode(bitmap: np.ndarray) -> list[int]:
    flat = np.asarray(bitmap, dtype=np.uint8).reshape(-1)
    runs = []
    current = 0
    length = 0
    for v in flat:
        if v == current:
            length += 1
        else:
            runs.append(length)
            current = v
            length = 1
    runs.append(length)
    return [int(r) for r in runs]


def rle_decode(runs: list[int], height: int, width: int) -> np.ndarray:
    total = sum(runs)
    if total != height * width:
        raise DataError(f"RLE covers {total} pixels, expected {height * width}")
    flat = np.zeros(total, dtype=np.uint8)
    pos = 0
    value = 0
    for r in runs:
        if r < 0:
            raise DataError("negative run length")
        if value:
            flat[pos : pos + r] = 1
        pos += r
        value ^= 1
    return flat.reshape(height, width)


def annotation_to_obj(ann: SceneAnnotation) -> dict:
    instances = []
    for inst in sorted(ann.instances, key=lambda m: m.id):
        instances.append(
            {
                "id": inst.id,
                "category": inst.category,
                "bbox": [round(float(c), 6) for c in inst.bbox],
                "mask_rle": rle_encode(inst.bitmap),
            }
        )
    occlusion = [{"i": i, "j": j} for i, j, _, _ in matrix_to_pairs(ann.occlusion)]
    depth = [
        {"i": i, "j": j, "rel": rel, "count": count}
        for i, j, rel, count in matrix_to_pairs(ann.depth)
    ]
    return {
        "version": SCHEMA_VERSION,
        "image": {"width": ann.width, "height": ann.height, "path": ann.image_path},
        "instances": instances,
        "occlusion": occlusion,
        "depth": depth,
    }


def dumps_canonical(obj: dict) -> str:
    """Canonical form: sorted keys, compact separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_annotation(path, ann: SceneAnnotation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(annotation_to_obj(ann)))


def annotation_from_obj(obj: dict) -> SceneAnnotation:
    try:
        return _annotation_from_obj(obj)
    except DataError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed annotation ({type(exc).__name__}: {exc})") from exc


def _annotation_from_obj(obj: dict) -> SceneAnnotation:
    if obj.get("version") != SCHEMA_VERSION:
        raise DataError(f"unsupported annotation version {obj.get('version')!r}")
    image = obj["image"]
    width, height = int(image["width"]), int(image["height"])
    instances = []
    for rec in obj["instances"]:
        bitmap = rle_decode(rec["mask_rle"], height, width)
        instances.append(
            InstanceMask(int(rec["id"]), rec["category"], bitmap, tuple(float(c) for c in rec["bbox"]))
        )
    instances.sort(key=lambda m: m.id)
    n = len(instances)
    occ = pairs_to_matrix([(p["i"], p["j"], "occludes", None) for p in obj.get("occlusion", [])], n, "occlusion")
    depth = pairs_to_matrix(
        [(p["i"], p["j"], p["rel"], int(p.get("count", 2))) for p in obj.get("depth", [])], n, "depth"
    )
    return SceneAnnotation(width, height, image["path"], instances, occ, depth)


def load_annotation(path) -> SceneAnnotation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
    return annotation_from_obj(obj)
