"""Backbone contract: mask embeddings Q, per-pixel embedding P, confidences.

Two providers:

* ``oracle_backbone`` builds features constructively from a synthetic
  sample so that mask reconstruction is exact: channel i of P carries
  alpha*(2*mask_i - 1), query i is the unit vector of channel i, and the
  remaining channels hold image-derived features (average-pooled RGB and
  coordinate ramps whose per-mask max recovers the bounding box).
* ``TinyBackbone`` is a small learned encoder honoring the same output
  contract: patch embedding, two transformer layers over pixel tokens,
  learned queries cross-attending to them, a linear pixel decoder for P,
  and a per-query confidence scalar trained with a matched/unmatched
  target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .layers import ConfigError, LayerNorm, Linear, Module, TransformerLayer, xavier_uniform
from .losses import bce_with_logits, dice_loss
from .matching import Assignment
from .matching import match_segments  # noqa: F401  (orderbench times matching under this name)
from .synth import SceneSample, downsample_mask

ALPHA = 10.0  # mask channel magnitude: sigmoid saturates well past the rounding tie
BETA = 1.0

# R, G, B, maxRGB, minRGB, x, y, 1-x, 1-y, blurred R/G/B,
# 3x3 neighborhood max/min of the luminance plane
N_IMAGE_FEATURES = 14


class CapacityError(ValueError):
    """More instances than available queries."""


@dataclass
class BackboneOutput:
    Q: Tensor  # N_q x C
    P: Tensor  # C x H/4 x W/4
    confidences: np.ndarray  # N_q in [0,1]
    confidence_logits: Tensor | None = None


def compute_masks(Q, P, threshold: float = 0.5) -> np.ndarray:
    """Binary masks from round(sigmoid(Q P)); value >= threshold maps to 1."""
    q = Q.data if isinstance(Q, Tensor) else np.asarray(Q, dtype=np.float64)
    p = P.data if isinstance(P, Tensor) else np.asarray(P, dtype=np.float64)
    c, h, w = p.shape
    if q.shape[-1] != c:
        raise ConfigError(f"query dim {q.shape[-1]} does not match P channels {c}")
    probs = ag.sigmoid_np(q @ p.reshape(c, h * w))
    return (probs >= threshold).astype(np.uint8).reshape(-1, h, w)


def quarter_masks(sample: SceneSample) -> np.ndarray:
    return np.stack([downsample_mask(sample.masks[i]) for i in range(sample.n)])


def _box_blur(plane: np.ndarray) -> np.ndarray:
    padded = np.pad(plane, 1, mode="edge")
    acc = np.zeros_like(plane)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy : dy + plane.shape[0], dx : dx + plane.shape[1]]
    return acc / 9.0


def _neighborhood(plane: np.ndarray, reduce_fn) -> np.ndarray:
    padded = np.pad(plane, 1, mode="edge")
    stacked = np.stack(
        [padded[dy : dy + plane.shape[0], dx : dx + plane.shape[1]] for dy in range(3) for dx in range(3)]
    )
    return reduce_fn(stacked, axis=0)


def image_feature_planes(image: np.ndarray, channels: int) -> np.ndarray:
    """Quarter-resolution image-derived planes, zero-padded to ``channels``.

    Downsampled RGB plus per-pixel channel extrema (shading/saturation
    readout), coordinate ramps (their per-mask max recovers the bounding
    box), and blurred RGB (cross-boundary color bleed, a contact cue).
    """
    h, w, _ = image.shape
    hq, wq = h // 4, w // 4
    pooled = image.reshape(hq, 4, wq, 4, 3).mean(axis=(1, 3))
    ys, xs = np.mgrid[0:hq, 0:wq]
    x = (xs + 0.5) / wq
    y = (ys + 0.5) / hq
    luminance = pooled.max(axis=-1)
    feats = np.stack(
        [
            pooled[..., 0],
            pooled[..., 1],
            pooled[..., 2],
            luminance,
            pooled.min(axis=-1),
            x,
            y,
            1.0 - x,
            1.0 - y,
            _box_blur(pooled[..., 0]),
            _box_blur(pooled[..., 1]),
            _box_blur(pooled[..., 2]),
            _neighborhood(luminance, np.max),
            _neighborhood(luminance, np.min),
        ]
    )
    if channels < N_IMAGE_FEATURES:
        raise ConfigError(f"need at least {N_IMAGE_FEATURES} feature channels, got {channels}")
    out = np.zeros((channels, hq, wq))
    out[:N_IMAGE_FEATURES] = feats
    return out


def oracle_backbone(sample: SceneSample, channels: int = 64, num_queries: int = 16) -> BackboneOutput:
    """Exact stand-in for a frozen segmentation backbone.

    Guarantees compute_masks(Q, P) reproduces the downsampled ground-truth
    masks exactly for the first n queries. Padding queries are the unit
    vectors of their (all-background) mask channels and carry confidence 0.
    """
    n = sample.n
    if n > num_queries:
        raise CapacityError(f"{n} instances exceed {num_queries} queries")
    if channels < num_queries + N_IMAGE_FEATURES:
        raise ConfigError(f"channels={channels} too small for {num_queries} queries + image features")
    h, w, _ = sample.image.shape
    hq, wq = h // 4, w // 4
    masks_q = quarter_masks(sample)
    p = np.full((channels, hq, wq), 0.0)
    p[:num_queries] = -ALPHA
    for i in range(n):
        p[i] = ALPHA * (2.0 * masks_q[i] - 1.0)
    p[num_queries:] = image_feature_planes(sample.image, channels - num_queries)
    q = np.zeros((num_queries, channels))
    q[np.arange(num_queries), np.arange(num_queries)] = BETA
    conf = np.zeros(num_queries)
    conf[:n] = 1.0
    return BackboneOutput(Q=Tensor(q), P=Tensor(p), confidences=conf)


class TinyBackbone(Module):
    """Learned backbone for exercising the head on imperfect masks."""

    def __init__(self, rng: np.random.Generator, image_size: int = 64, channels: int = 64, heads: int = 4,
                 num_queries: int = 16, d_ffn: int = 128):
        if image_size % 4:
            raise ConfigError("image size must be divisible by 4")
        self.image_size = image_size
        self.channels = channels
        self.num_queries = num_queries
        hq = image_size // 4
        self.patch_embed = Linear(rng, 4 * 4 * 3, channels)
        self.pos_embed = xavier_uniform(rng, hq * hq, channels)
        self.pixel_layers = [TransformerLayer(rng, channels, heads, d_ffn) for _ in range(2)]
        self.query_embed = xavier_uniform(rng, num_queries, channels)
        self.decoder_layers = [TransformerLayer(rng, channels, heads, d_ffn) for _ in range(2)]
        self.pixel_norm = LayerNorm(channels)
        self.pixel_decoder = Linear(rng, channels, channels)
        self.conf_head = Linear(rng, channels, 1)

    def enable_adapters(self, rng: np.random.Generator, mode: str = "ffn_only", adapter_dim: int = 64) -> None:
        """Attach fresh (identity) adapters; decoder FFNs always, pixel layers
        and attention sublayers only in attn_and_ffn mode."""
        for layer in self.decoder_layers:
            layer.attach_adapters(rng, mode, adapter_dim)
        if mode == "attn_and_ffn":
            for layer in self.pixel_layers:
                layer.attach_adapters(rng, mode, adapter_dim)

    def forward(self, image: np.ndarray) -> BackboneOutput:
        s = self.image_size
        if image.shape != (s, s, 3):
            raise ConfigError(f"expected image {(s, s, 3)}, got {image.shape}")
        hq = s // 4
        patches = image.reshape(hq, 4, hq, 4, 3).swapaxes(1, 2).reshape(hq * hq, 48)
        tokens = self.patch_embed(Tensor(patches)) + self.pos_embed
        for layer in self.pixel_layers:
            tokens = layer(tokens)
        pixels = self.pixel_norm(tokens)
        queries = ag.mul_const(self.query_embed, 1.0)
        for layer in self.decoder_layers:
            queries = layer(queries, kv=pixels)
        p = self.pixel_decoder(pixels)  # (hq*hq, C)
        p = ag.swapaxes(p, 0, 1).reshape(self.channels, hq, hq)
        conf_logits = self.conf_head(queries).reshape(self.num_queries)
        conf = ag.sigmoid_np(conf_logits.data)
        return BackboneOutput(Q=queries, P=p, confidences=conf, confidence_logits=conf_logits)


def backbone_losses(out: BackboneOutput, gt_masks_q: np.ndarray, assignment: Assignment) -> Tensor:
    """Mask BCE + dice on Hungarian-matched queries, plus confidence BCE.

    ``assignment`` matches the queries' masks (``compute_masks``) to the
    ground truth.
    """
    c = out.P.shape[0]
    hw = out.P.shape[1] * out.P.shape[2]
    mask_logits = ag.matmul(out.Q, out.P.reshape(c, hw))  # (N_q, hw)
    col_of = assignment.col_of()
    matched_rows = sorted(col_of)
    targets = np.stack([gt_masks_q[col_of[r]].reshape(hw) for r in matched_rows]).astype(np.float64)
    matched_logits = ag.take_rows(mask_logits, np.array(matched_rows))
    loss = bce_with_logits(matched_logits, targets) + dice_loss(matched_logits, targets)
    if out.confidence_logits is not None:
        conf_targets = np.zeros(out.Q.shape[0])
        conf_targets[matched_rows] = 1.0
        loss = loss + bce_with_logits(out.confidence_logits, conf_targets)
    return loss
