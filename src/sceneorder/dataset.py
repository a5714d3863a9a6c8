"""Dataset generation and loading: PPM/PGM images plus annotation JSON.

Every sample is derived from its own integer seed, so generation is
reproducible. Writing and loading run in one thread: a thread pool was no
faster, and the CLI's --threads flag has no effect.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .annotations import load_annotation, save_annotation
from .orders import DataError
from .synth import (
    SceneConfig,
    SceneSample,
    generate_scene,
    read_pgm16,
    read_ppm,
    render,
    sample_to_annotation,
    write_pgm16,
    write_pgm8,
    write_ppm,
)

VAL_SEED_OFFSET = 10_000_000


def sample_from_seed(seed: int, config: SceneConfig) -> SceneSample:
    return render(generate_scene(seed, config))


def _write_sample(out_dir: Path, index: int, sample: SceneSample) -> None:
    stem = f"scene_{index:05d}"
    write_ppm(out_dir / f"{stem}.ppm", sample.image)
    write_pgm16(out_dir / f"{stem}_depth.pgm", sample.depth_map)
    for i in range(sample.n):
        write_pgm8(out_dir / f"{stem}_mask_{i}.pgm", sample.masks[i])
    save_annotation(out_dir / f"{stem}.json", sample_to_annotation(sample, f"{stem}.ppm"))


def write_dataset(out_dir, count: int, config: SceneConfig, seed: int) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        _write_sample(out_dir, index, sample_from_seed(seed + index, config))


def load_sample(json_path: Path) -> SceneSample:
    ann = load_annotation(json_path)
    directory = json_path.parent
    image = read_ppm(directory / ann.image_path)
    depth = read_pgm16(directory / (json_path.stem + "_depth.pgm"))
    if image.shape[:2] != (ann.height, ann.width) or depth.shape != (ann.height, ann.width):
        raise DataError(f"{json_path}: image or depth map size differs from the annotation's {ann.width}x{ann.height}")
    masks = np.stack([inst.bitmap for inst in ann.instances])
    return SceneSample(
        image=image,
        masks=masks,
        gt_occlusion=ann.occlusion,
        gt_depth=ann.depth,
        depth_map=depth,
        categories=[inst.category for inst in ann.instances],
        scene=None,
    )


def load_dataset(directory) -> list[SceneSample]:
    directory = Path(directory)
    paths = sorted(directory.glob("scene_*.json"))
    if not paths:
        raise DataError(f"no scene_*.json files under {directory}")
    return [load_sample(p) for p in paths]
