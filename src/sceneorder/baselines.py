"""Non-parametric order heuristics and a tiny pairwise baseline network.

Heuristics score instances from their masks (centroid height, pixel area)
or from a supplied metric depth map (min-max range, mean, median), then
rank: strictly ordered scores give front/behind, ties give overlap.
The occlusion variants use the reconstruction "bounding boxes intersect
and the higher-scored instance wins", since the source rule is unstated.

The pairwise network is deliberately small: a two-layer strided conv
encoder over the 5-channel [RGB, mask A, mask B] stack with independent
binary occlusion decisions (bidirectional allowed) and a 3-class depth
decision. It exists for the inference-cost comparison, where a full image
costs n(n-1)/2 unordered-pair forwards.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .layers import ConfigError, Linear, Module, xavier_uniform
from .orders import (
    DepthMatrix,
    OcclusionMatrix,
    depth_from_argmax,
    depth_from_intervals,
    depth_from_scores,
    pair_indices,
    tight_bbox,
)


def _centroid_y(mask: np.ndarray) -> float:
    ys = np.nonzero(mask)[0]
    return float(ys.mean())


def _bboxes_intersect(a, b) -> bool:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


def _occlusion_from_scores(scores, masks, n: int) -> OcclusionMatrix:
    mat = OcclusionMatrix.empty(n)
    boxes = [tight_bbox(m) for m in masks]
    for i in range(n):
        for j in range(n):
            if i == j or scores[i] is None or scores[j] is None:
                continue
            if scores[i] > scores[j] and _bboxes_intersect(boxes[i], boxes[j]):
                mat.entries[i, j] = 1
    return mat


def _mask_scores(masks, score_fn):
    """One score per mask; None for an empty mask."""
    return [score_fn(np.asarray(m)) if np.asarray(m).any() else None for m in masks]


def yaxis_depth(masks) -> DepthMatrix:
    """Rank by mask-centroid height: lower in the image (larger y) = closer."""
    scores = _mask_scores(masks, _centroid_y)
    return depth_from_scores(scores)


def yaxis_occlusion(masks) -> OcclusionMatrix:
    scores = _mask_scores(masks, _centroid_y)
    return _occlusion_from_scores(scores, masks, len(masks))


def area_order(masks, task: str):
    """Rank by pixel count, the bigger the closer.

    Depth: full ranking with ties as overlap. Occlusion: an edge i->j
    needs intersecting bounding boxes and area(i) > area(j); equal areas
    produce no edge.
    """
    scores = _mask_scores(masks, lambda m: float(m.sum()))
    if task == "depth":
        return depth_from_scores(scores)
    if task == "occlusion":
        return _occlusion_from_scores(scores, masks, len(masks))
    raise ConfigError(f"unknown task {task!r}")


DEPTHMAP_HEURISTICS = ("minmax", "mean", "median")


def depth_from_depthmap(depth_map: np.ndarray, masks, heuristic: str, tau: float = 0.0) -> DepthMatrix:
    """Depth orders from per-instance statistics of a metric depth map.

    minmax: per-instance [min, max] depth range; intersecting ranges mean
    overlap, otherwise the nearer range is in front. mean/median: scalar
    per instance; within tau means overlap (tau=0 gives a pure ordering).
    """
    if heuristic not in DEPTHMAP_HEURISTICS:
        raise ConfigError(f"heuristic must be one of {DEPTHMAP_HEURISTICS}")
    values = [depth_map[np.asarray(m, dtype=bool)] for m in masks]
    if heuristic == "minmax":
        lo = [v.min() if v.size else None for v in values]
        hi = [v.max() if v.size else None for v in values]
        return depth_from_intervals(lo, hi)
    stat = np.mean if heuristic == "mean" else np.median
    # negated, because a smaller depth is nearer
    return depth_from_scores([-float(stat(v)) if v.size else None for v in values], tau)


# ---- pairwise baseline network -------------------------------------------------


class Conv2d(Module):
    """Stride-2 3x3 convolution via im2col + matmul."""

    def __init__(self, rng, in_ch: int, out_ch: int, kernel: int = 3, stride: int = 2, pad: int = 1):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.weight = xavier_uniform(rng, in_ch * kernel * kernel, out_ch)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)
        self._index_cache: dict[tuple, np.ndarray] = {}

    def _im2col_index(self, h: int, w: int) -> np.ndarray:
        key = (h, w)
        if key not in self._index_cache:
            k, s = self.kernel, self.stride
            hp, wp = h + 2 * self.pad, w + 2 * self.pad
            ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
            oy, ox = np.mgrid[0:ho, 0:wo]
            cy = (oy * s)[..., None, None, None] + np.arange(k)[None, None, :, None, None]
            cx = (ox * s)[..., None, None, None] + np.arange(k)[None, None, None, :, None]
            ch = np.arange(self.in_ch)[None, None, None, None, :]
            flat = (ch * hp + cy) * wp + cx  # index into (C, hp, wp) flattened
            self._index_cache[key] = flat.reshape(ho * wo, k * k * self.in_ch), (ho, wo)
        return self._index_cache[key]

    def __call__(self, x: Tensor) -> Tensor:
        c, h, w = x.shape
        if c != self.in_ch:
            raise ConfigError(f"expected {self.in_ch} input channels, got {c}")
        padded = ag.pad2d(x, self.pad)
        idx, (ho, wo) = self._im2col_index(h, w)
        cols = ag.gather_flat(padded, idx, idx.shape)
        out = ag.matmul(cols, self.weight) + self.bias  # (ho*wo, out_ch)
        return ag.swapaxes(out, 0, 1).reshape(self.out_ch, ho, wo)


class PairwiseNet(Module):
    """Per-pair order predictor over the [RGB, A, B] channel stack."""

    def __init__(self, rng: np.random.Generator, image_size: int = 64, width: int = 32):
        self.image_size = image_size
        self.conv1 = Conv2d(rng, 5, width)
        self.conv2 = Conv2d(rng, width, 2 * width)
        self.fc = Linear(rng, 2 * width, 64)
        self.occ_head = Linear(rng, 64, 2)
        self.depth_head = Linear(rng, 64, 3)
        self.forward_count = 0

    def forward(self, image: np.ndarray, mask_a: np.ndarray, mask_b: np.ndarray):
        """Returns (occ_logits [2], depth_logits [3]).

        Occlusion logits are two independent decisions (A over B, B over A),
        so bidirectional occlusion is representable.
        """
        if image.shape[:2] != mask_a.shape or mask_a.shape != mask_b.shape:
            raise ConfigError("image and masks must share their resolution")
        self.forward_count += 1
        stack = np.concatenate(
            [np.moveaxis(image, -1, 0), mask_a[None].astype(np.float64), mask_b[None].astype(np.float64)]
        )
        x = ag.gelu(self.conv1(Tensor(stack)))
        x = ag.gelu(self.conv2(x))
        pooled = ag.mean(x.reshape(x.shape[0], x.shape[1] * x.shape[2]), axis=1)
        hidden = ag.gelu(self.fc(pooled.reshape(1, x.shape[0])))
        occ = self.occ_head(hidden).reshape(2)
        depth = self.depth_head(hidden).reshape(3)
        return occ, depth


def pairwise_infer_matrices(net: PairwiseNet, image: np.ndarray, masks: np.ndarray):
    """Full-image inference: one forward per unordered pair, n(n-1)/2 total."""
    n = masks.shape[0]
    occ = OcclusionMatrix.empty(n)
    depth_scores = []
    for i, j in zip(*pair_indices(n)):
        occ_logits, depth_logits = net.forward(image, masks[i], masks[j])
        if occ_logits.data[0] > 0:
            occ.entries[i, j] = 1
        if occ_logits.data[1] > 0:
            occ.entries[j, i] = 1
        depth_scores.append(depth_logits.data)
    return occ, depth_from_argmax(n, np.reshape(depth_scores, (-1, 3)))
