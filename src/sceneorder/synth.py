"""Synthetic layered scenes with exact occlusion/depth ground truth.

Instances are analytic shapes (rectangles, ellipses) stacked at known z
positions and rendered with a painter's algorithm, so amodal supports are
known exactly and the order oracles are brute-force per-pixel facts, not
heuristics. Shape colors are shaded by depth (brightness falls with z):
rendered images carry a depth cue the way real photographs do, which is
what gives a learned head signal beyond bare mask geometry. Mask-only
baselines never see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import ConfigError
from .orders import DataError, DepthMatrix, InstanceMask, OcclusionMatrix, SceneAnnotation, depth_from_intervals

Z_LOW, Z_HIGH = 0.8, 9.2
Z_BACKGROUND = 12.0
BG_COLOR = (0.12, 0.12, 0.14)

CATEGORIES = ["box", "disk", "slab", "blob", "bar", "tile"]

# Palette normalized to a common max channel so shading (depth) and
# desaturation (depth-range thickness) stay readable per pixel.
_RAW_PALETTE = [
    (0.90, 0.25, 0.21),
    (0.22, 0.56, 0.92),
    (0.28, 0.78, 0.35),
    (0.95, 0.78, 0.18),
    (0.72, 0.34, 0.86),
    (0.16, 0.78, 0.77),
    (0.94, 0.50, 0.17),
    (0.85, 0.40, 0.60),
    (0.55, 0.71, 0.23),
    (0.42, 0.46, 0.90),
]
_PALETTE = [tuple(0.9 * c / max(color) for c in color) for color in _RAW_PALETTE]
GRAY_LEVEL = 0.6
THICKNESS_FULL_GRAY = 3.0


@dataclass(frozen=True)
class Shape:
    kind: str  # "rectangle" | "ellipse"
    params: tuple  # rectangle: (x0, y0, x1, y1); ellipse: (cx, cy, rx, ry)
    color: tuple
    z_near: float
    z_far: float
    instance: int


@dataclass
class SceneConfig:
    n_min: int = 3
    n_max: int = 6
    size: int = 64
    bidirectional_rate: float = 0.5
    thick_rate: float = 0.5
    allow_large: bool = False

    def validate(self) -> None:
        if not (2 <= self.n_min <= self.n_max):
            raise ConfigError(f"need 2 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if self.n_max > 10 and not self.allow_large:
            raise ConfigError("instance count is capped at 10 (set allow_large for benchmarks)")
        if self.size % 4 != 0:
            raise ConfigError("canvas size must be divisible by 4 (quarter-resolution features)")
        cell = self.size / math.ceil(math.sqrt(self.n_max))
        if cell < 8:
            raise ConfigError(f"canvas {self.size} too small for {self.n_max} shapes")


@dataclass
class LayeredScene:
    size: int
    shapes: list[Shape]
    categories: list[str]  # per instance
    seed: int
    n_instances: int


@dataclass
class SceneSample:
    image: np.ndarray  # H x W x 3 float in [0,1]
    masks: np.ndarray  # n x H x W uint8, visible regions, pairwise disjoint
    gt_occlusion: OcclusionMatrix
    gt_depth: DepthMatrix
    depth_map: np.ndarray  # H x W float, smaller = closer
    categories: list[str]
    scene: LayeredScene = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.categories)


def shape_support(shape: Shape, size: int) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    cy, cx = ys + 0.5, xs + 0.5
    if shape.kind == "rectangle":
        x0, y0, x1, y1 = shape.params
        return ((cx >= x0) & (cx < x1) & (cy >= y0) & (cy < y1)).astype(np.uint8)
    ecx, ecy, rx, ry = shape.params
    return ((((cx - ecx) / rx) ** 2 + ((cy - ecy) / ry) ** 2) <= 1.0).astype(np.uint8)


def instance_supports(scene: LayeredScene) -> np.ndarray:
    """Amodal support per instance: union of its shapes' supports."""
    out = np.zeros((scene.n_instances, scene.size, scene.size), dtype=np.uint8)
    for shape in scene.shapes:
        out[shape.instance] |= shape_support(shape, scene.size)
    return out


def _brightness(z: float) -> float:
    return 1.0 - 0.075 * z


def _shade(color, z_near: float, thickness: float) -> np.ndarray:
    """Darker with depth; desaturated with depth-range thickness.

    Desaturation lifts the non-dominant channels toward the dominant one,
    so the per-pixel max channel stays a pure function of depth (the z
    readout) while the channel spread reads out thickness. These are the
    stand-ins for the shading/material depth cues of real photographs.
    """
    base = np.asarray(color)
    peak = base.max()
    sat_mix = 0.8 * min(thickness / THICKNESS_FULL_GRAY, 1.0)
    lifted = peak - (peak - base) * (1.0 - sat_mix)
    return lifted * _brightness(z_near)


def _owner_map(scene: LayeredScene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Painter's algorithm: per-pixel topmost shape index, its instance and
    its z; -1 and the background z where no shape is drawn."""
    size = scene.size
    owner = np.full((size, size), -1, dtype=np.int64)
    zbuf = np.full((size, size), Z_BACKGROUND, dtype=np.float64)
    order = sorted(range(len(scene.shapes)), key=lambda s: -scene.shapes[s].z_near)
    for s in order:  # far to near; nearer shapes overpaint
        sup = shape_support(scene.shapes[s], size).astype(bool)
        owner[sup] = s
        zbuf[sup] = scene.shapes[s].z_near
    instance_of = np.array([shape.instance for shape in scene.shapes] + [-1])  # owner -1 reads the last
    return owner, instance_of[owner], zbuf


def render(scene: LayeredScene) -> SceneSample:
    owner, owner_inst, zbuf = _owner_map(scene)
    size = scene.size
    intervals = _instance_intervals(scene)
    image = np.empty((size, size, 3), dtype=np.float64)
    image[:] = BG_COLOR
    for s, shape in enumerate(scene.shapes):
        mask = owner == s
        if mask.any():
            lo, hi = intervals[shape.instance]
            image[mask] = _shade(shape.color, shape.z_near, hi - lo)
    masks = (owner_inst == np.arange(scene.n_instances)[:, None, None]).astype(np.uint8)
    return SceneSample(
        image=image,
        masks=masks,
        gt_occlusion=_occlusion_from_owners(scene, owner_inst),
        gt_depth=oracle_depth(scene),
        depth_map=zbuf,
        categories=list(scene.categories),
        scene=scene,
    )


def oracle_occlusion(scene: LayeredScene) -> OcclusionMatrix:
    """i occludes j iff some pixel draws a shape of i on top of j's support."""
    return _occlusion_from_owners(scene, _owner_map(scene)[1])


def _occlusion_from_owners(scene: LayeredScene, owner_inst: np.ndarray) -> OcclusionMatrix:
    supports = instance_supports(scene).astype(bool)
    mat = OcclusionMatrix.empty(scene.n_instances)
    for j in range(scene.n_instances):
        over = owner_inst[supports[j]]
        for a in np.unique(over):
            if a >= 0 and a != j:
                mat.entries[a, j] = 1
    return mat


def _instance_intervals(scene: LayeredScene) -> list[tuple[float, float]]:
    lo = [math.inf] * scene.n_instances
    hi = [-math.inf] * scene.n_instances
    for shape in scene.shapes:
        lo[shape.instance] = min(lo[shape.instance], shape.z_near)
        hi[shape.instance] = max(hi[shape.instance], shape.z_far)
    return list(zip(lo, hi))


def oracle_depth(scene: LayeredScene) -> DepthMatrix:
    """Strict z-interval ordering; closed intervals that touch count as overlap."""
    lo, hi = zip(*_instance_intervals(scene))
    return depth_from_intervals(lo, hi)


# ---- generation -------------------------------------------------------------


def _base_shape(rng, kind: str, cx: float, cy: float, hx: float, hy: float, color, z_near, z_far, inst) -> Shape:
    if kind == "rectangle":
        params = (cx - hx, cy - hy, cx + hx, cy + hy)
    else:
        params = (cx, cy, hx, hy)
    return Shape(kind, params, color, z_near, z_far, inst)


def _make_contacts_bimodal(centers, halves, size: int, cell: float, rng) -> None:
    """Push near-miss pairs into a clear overlap or a clear gap.

    Quarter-resolution features cannot tell a touching pair from a few-pixel
    gap, so bounding boxes within the ambiguous band are nudged apart (or
    into each other) along their dominant axis. The nudge scales with the
    placement cell and is skipped on dense canvases where it would pile
    instances onto each other.
    """
    margin = min(8.0, cell / 3.0)
    if margin < 4.0:
        return
    n = len(centers)
    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(centers[i][0] - centers[j][0]) - (halves[i][0] + halves[j][0])
            dy = abs(centers[i][1] - centers[j][1]) - (halves[i][1] + halves[j][1])
            sep = max(dx, dy)
            if not (-(margin - 3.0) < sep < margin - 2.0):
                continue
            target = -margin if rng.random() < 0.5 else margin
            axis = 0 if dx >= dy else 1
            shift = target - sep
            direction = 1.0 if centers[j][axis] >= centers[i][axis] else -1.0
            moved = centers[j][axis] + direction * shift
            half = halves[j][axis]
            centers[j][axis] = float(np.clip(moved, half + 1, size - half - 1))


def _attempt_scene(seed: int, attempt: int, config: SceneConfig) -> LayeredScene:
    rng = np.random.default_rng([seed, attempt, 0x5EED])
    size = config.size
    n = int(rng.integers(config.n_min, config.n_max + 1))
    grid = math.ceil(math.sqrt(n))
    cell = size / grid
    cells = [(r, c) for r in range(grid) for c in range(grid)]
    rng.shuffle(cells)

    z_values = np.linspace(Z_LOW, Z_HIGH, n) + rng.uniform(-0.1, 0.1, n)
    rng.shuffle(z_values)

    categories = [CATEGORIES[int(rng.integers(len(CATEGORIES)))] for _ in range(n)]
    colors = [_PALETTE[int(rng.integers(len(_PALETTE)))] for _ in range(n)]

    centers = []
    halves = []
    for k in range(n):
        r, c = cells[k]
        cx = (c + 0.5) * cell + rng.uniform(-0.3, 0.3) * cell
        cy = (r + 0.5) * cell + rng.uniform(-0.3, 0.3) * cell
        hx = rng.uniform(0.38, 0.85) * cell
        hy = rng.uniform(0.38, 0.85) * cell
        cx = float(np.clip(cx, hx + 1, size - hx - 1))
        cy = float(np.clip(cy, hy + 1, size - hy - 1))
        centers.append([cx, cy])
        halves.append((hx, hy))

    _make_contacts_bimodal(centers, halves, size, cell, rng)

    shapes: list[Shape] = []
    for k in range(n):
        (cx, cy), (hx, hy) = centers[k], halves[k]
        kind = "rectangle" if rng.random() < 0.5 else "ellipse"
        z_near = float(z_values[k])
        thick = rng.uniform(1.0, 4.0) if rng.random() < config.thick_rate else 0.0
        shapes.append(_base_shape(rng, kind, cx, cy, hx, hy, colors[k], z_near, z_near + thick, k))

    if n >= 2 and rng.random() < config.bidirectional_rate:
        # Split one instance into two z-layers sandwiching a neighbor: the
        # front part overpaints the neighbor, the neighbor overpaints the
        # back part, yielding a mutual occlusion.
        a = int(rng.integers(n))
        dists = [
            (centers[b][0] - centers[a][0]) ** 2 + (centers[b][1] - centers[a][1]) ** 2 if b != a else math.inf
            for b in range(n)
        ]
        b = int(np.argmin(dists))
        bx, by = centers[b]
        bhx, bhy = halves[b]
        zb = shapes[b].z_near
        delta = 0.3
        part_hx, part_hy = bhx * 0.7, bhy * 0.7
        cx1 = float(np.clip(bx - bhx, part_hx + 1, config.size - part_hx - 1))
        cx2 = float(np.clip(bx + bhx, part_hx + 1, config.size - part_hx - 1))
        cy0 = float(np.clip(by, part_hy + 1, config.size - part_hy - 1))
        color = shapes[a].color
        shapes[a] = _base_shape(rng, "rectangle", cx1, cy0, part_hx, part_hy, color, zb - delta, zb - delta, a)
        shapes.append(_base_shape(rng, "rectangle", cx2, cy0, part_hx, part_hy, color, zb + delta, zb + delta, a))

    return LayeredScene(size=size, shapes=shapes, categories=categories, seed=seed, n_instances=n)


def generate_scene(seed: int, config: SceneConfig, min_visible: int = 20, min_quarter_cells: int = 3) -> LayeredScene:
    """Deterministic in ``seed``; retries until every instance stays visible."""
    config.validate()
    for attempt in range(64):
        scene = _attempt_scene(seed, attempt, config)
        owner_inst = _owner_map(scene)[1]
        visible = (owner_inst == i for i in range(scene.n_instances))
        if all(v.sum() >= min_visible and downsample_mask(v.astype(np.uint8)).sum() >= min_quarter_cells
               for v in visible):
            return scene
    raise ConfigError(f"could not place {config.n_max} visible instances on a {config.size} canvas")


def downsample_mask(bitmap: np.ndarray, factor: int = 4) -> np.ndarray:
    """Majority-vote downsample; strict >50% keeps disjoint masks disjoint."""
    h, w = bitmap.shape
    blocks = bitmap.reshape(h // factor, factor, w // factor, factor).sum(axis=(1, 3))
    return (blocks * 2 > factor * factor).astype(np.uint8)


def sample_to_annotation(sample: SceneSample, image_path: str = "") -> SceneAnnotation:
    instances = [
        InstanceMask.from_bitmap(i, sample.categories[i], sample.masks[i]) for i in range(sample.n)
    ]
    h, w = sample.depth_map.shape
    return SceneAnnotation(w, h, image_path, instances, sample.gt_occlusion.copy(), sample.gt_depth.copy())


# ---- PPM / PGM emission ------------------------------------------------------


def write_ppm(path, image: np.ndarray) -> None:
    h, w, _ = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    h, w, data = _read_pnm(path, b"P6", 255, np.uint8, 3)
    return data.reshape(h, w, 3).astype(np.float64) / 255.0


def _read_pnm(path, magic: bytes, maxval: int, dtype, channels: int):
    """(height, width, payload) of a binary PPM/PGM laid out as written here."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    try:
        w, h = map(int, parts[1].split())
        header_ok = parts[0] == magic and int(parts[2]) == maxval and w > 0 and h > 0
    except (IndexError, ValueError):
        header_ok = False
    if not header_ok:
        raise DataError(f"{path}: not a binary {magic.decode()} file with maxval {maxval}")
    count = h * w * channels
    if len(parts[3]) < count * np.dtype(dtype).itemsize:
        raise DataError(f"{path}: truncated payload")
    return h, w, np.frombuffer(parts[3], dtype=dtype, count=count)


def write_pgm16(path, values: np.ndarray, scale: float = Z_BACKGROUND) -> None:
    h, w = values.shape
    data = np.clip(np.round(values / scale * 65535.0), 0, 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm16(path, scale: float = Z_BACKGROUND) -> np.ndarray:
    h, w, data = _read_pnm(path, b"P5", 65535, ">u2", 1)
    return data.reshape(h, w).astype(np.float64) * scale / 65535.0


def write_pgm8(path, bitmap: np.ndarray) -> None:
    h, w = bitmap.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((np.asarray(bitmap, dtype=np.uint8) * 255).tobytes())
