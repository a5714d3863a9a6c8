"""Holistic order head: from mask embeddings and per-pixel features to full
occlusion/depth order matrices in one forward pass.

Pipeline per image: select confident (or matched) query tokens, gather
each instance's in-mask positions of the per-pixel embedding, build one
global descriptor per instance with masked self-attention + max-pooling,
run an interaction decoder over the concatenated descriptor/query tokens,
and read every pairwise relation off a compatibility product followed by
small task MLPs.

The descriptor encoder packs the in-mask tokens of all instances into one
(T, C) tensor, instance after instance. LayerNorm, the FFN and the
max-pool (a segment max) run on these packed rows only. Attention pads
each instance's rows to the scene's longest mask, with the padding masked
out, so every instance attends to its own rows only. This is exactly
equivalent to running all positions with a -inf additive key mask,
because masked-out positions receive zero attention weight and the
pooling reads masked-in positions only; the test suite asserts the
equivalence against the literal full-grid computation.

The decoder layers' outputs are stacked, so the projections, the
compatibility product, the task MLPs and the order loss run once for all
supervised layers. Without a tape (inference) only the last layer is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .layers import ConfigError, Mlp, Module, TransformerLayer
from .matching import Assignment

TASKS = ("occlusion", "depth")
MODALITIES = ("queries_descriptors", "queries_queries", "descriptors_descriptors")


class NothingToOrder(Exception):
    """Fewer than two instances survived selection; relations are undefined."""

    def __init__(self, count: int):
        super().__init__(f"only {count} instance(s) selected; need at least 2")
        self.count = count


@dataclass
class HeadConfig:
    channels: int = 64
    heads: int = 4
    d_ffn: int = 256
    encoder_layers: int = 1
    decoder_layers: int = 3
    input_modality: str = "queries_descriptors"
    aux_loss: bool = True
    tasks: tuple = ("occlusion", "depth")
    task_mlp_hidden: int = 64
    conf_threshold: float = 0.8

    @staticmethod
    def paper_scale() -> "HeadConfig":
        return HeadConfig(channels=512, heads=8, d_ffn=2048, encoder_layers=1, decoder_layers=8)

    def validate(self) -> None:
        if self.encoder_layers < 0:
            raise ConfigError("encoder_layers must be >= 0")
        if self.decoder_layers < 1:
            raise ConfigError("decoder_layers must be >= 1")
        if self.input_modality not in MODALITIES:
            raise ConfigError(f"input_modality must be one of {MODALITIES}")
        if not self.tasks or any(t not in TASKS for t in self.tasks):
            raise ConfigError(f"tasks must be a nonempty subset of {TASKS}")
        if self.channels % self.heads:
            raise ConfigError("channels must be divisible by heads")


@dataclass
class HeadOutput:
    """Order logits with a leading decoder-layer axis: (L, n, n) for
    occlusion, (L, n, n, 3) for depth. The last entry is the final output;
    the others are the supervised intermediate layers."""

    occ_logits: Tensor | None
    depth_logits: Tensor | None
    selected_ids: np.ndarray

    def occlusion_matrix(self):
        from .orders import OcclusionMatrix

        n = len(self.selected_ids)
        mat = OcclusionMatrix.empty(n)
        if self.occ_logits is None:
            raise ConfigError("occlusion head was not initialized")
        pred = (ag.sigmoid_np(self.occ_logits.data[-1]) > 0.5).astype(np.int64)
        off = ~np.eye(n, dtype=bool)
        mat.entries[off] = pred[off]
        return mat

    def depth_matrix(self, coherence: bool = False):
        """Depth predictions; raw per-entry argmax by default.

        Raw decode can emit incoherent pairs (mutual fronts, one-sided
        overlaps); ``coherence=True`` instead scores each unordered pair
        jointly over {i front, j front, overlap} by summed logits, which
        always yields a valid matrix.
        """
        from .orders import DepthMatrix, depth_from_argmax, pair_indices

        n = len(self.selected_ids)
        if self.depth_logits is None:
            raise ConfigError("depth head was not initialized")
        logits = self.depth_logits.data[-1]
        if coherence:
            # i front: (i, j) says "in front" (1), (j, i) says "not" (0); j front the reverse
            i, j = pair_indices(n)
            return depth_from_argmax(n, logits[i, j][:, [1, 0, 2]] + logits[j, i])
        mat = DepthMatrix.empty(n)
        pred = np.argmax(logits, axis=-1)
        off = ~np.eye(n, dtype=bool)
        mat.entries[off] = pred[off]
        return mat


# ---- selection ----------------------------------------------------------------


def select_tokens(Q: Tensor, masks: np.ndarray, confidences, assignment: Assignment | None = None, threshold: float | None = None):
    """Pick the query rows (and their masks) that correspond to instances.

    Training mode passes an Assignment and yields rows in ground-truth
    order; inference mode keeps rows whose confidence is strictly above
    the threshold. Returns (Q_n, masks_n, ids).
    """
    if assignment is not None:
        by_gt = sorted(assignment.pairs, key=lambda rc: rc[1])
        ids = np.array([pred for pred, _ in by_gt], dtype=np.int64)
    else:
        if threshold is None:
            raise ConfigError("inference selection needs a confidence threshold")
        conf = np.asarray(confidences, dtype=np.float64)
        ids = np.nonzero(conf > threshold)[0]
    if len(ids) < 2:
        raise NothingToOrder(len(ids))
    return ag.take_rows(Q, ids), masks[ids], ids


def mask_pixel_embedding(P: Tensor, masks_n: np.ndarray):
    """Per-instance copies of P with channels zeroed outside each mask.

    Returns (P_masked [n,C,h,w], empty_flags [n]).
    """
    n = masks_n.shape[0]
    c, h, w = P.shape
    if masks_n.shape[1:] != (h, w):
        raise ConfigError(f"mask resolution {masks_n.shape[1:]} does not match P {P.shape[1:]}")
    broadcast = masks_n.reshape(n, 1, h, w).astype(np.float64)
    p_masked = P.reshape(1, c, h, w) * broadcast
    empty = masks_n.reshape(n, -1).sum(axis=1) == 0
    return p_masked, empty


# ---- descriptor encoder ---------------------------------------------------------


def descriptor_encoder(p: Tensor, masks_n: np.ndarray, layers: list[TransformerLayer]) -> Tensor:
    """Masked self-attention (0+ layers) then max-pool over in-mask positions.

    Reads the shared per-pixel embedding P (C,h,w) through the instance
    masks: the in-mask positions of all instances form one packed (T, C)
    token tensor, and each instance attends to and pools over its own rows
    only. Instances with empty masks get an all-zero descriptor.
    """
    n = masks_n.shape[0]
    c, h, w = p.shape
    flat_masks = masks_n.reshape(n, h * w).astype(bool)
    counts = flat_masks.sum(axis=1)
    _, pos = np.nonzero(flat_masks)
    tokens = ag.gather_flat(p, pos[:, None] + np.arange(c) * (h * w), (pos.size, c))
    for layer in layers:
        tokens = layer(tokens, segments=counts)
    return ag.segment_max(tokens, counts)


# ---- interaction decoder ---------------------------------------------------------


class OrderHead(Module):
    def __init__(self, rng: np.random.Generator, config: HeadConfig):
        config.validate()
        self.config = config
        c = config.channels
        self.encoder = [
            TransformerLayer(rng, c, config.heads, config.d_ffn) for _ in range(config.encoder_layers)
        ]
        self.decoder = [
            TransformerLayer(rng, c, config.heads, config.d_ffn) for _ in range(config.decoder_layers)
        ]
        self.mlp_queries = Mlp(rng, c, c, c)
        self.mlp_descriptors = Mlp(rng, c, c, c)
        self.occ_mlp = Mlp(rng, 1, config.task_mlp_hidden, 1) if "occlusion" in config.tasks else None
        self.depth_mlp = Mlp(rng, 1, config.task_mlp_hidden, 3) if "depth" in config.tasks else None
        self.forward_count = 0

    # -- stages --

    def interaction_decoder(self, q_n: Tensor, descriptors: Tensor):
        """L decoder layers over the 2n concatenated tokens.

        Returns (Q*, D*), each (L', n, C): the projected query and
        descriptor outputs of every supervised layer, the final layer last.
        L' = L while a tape records with auxiliary supervision on, else 1.
        """
        modality = self.config.input_modality
        if modality == "queries_descriptors":
            first, second = descriptors, q_n
        elif modality == "queries_queries":
            first, second = q_n, q_n
        else:
            first, second = descriptors, descriptors
        tokens = ag.concat([first, second], axis=0)
        n = q_n.shape[0]
        per_layer = []
        for layer in self.decoder:
            tokens = layer(tokens)
            per_layer.append(tokens)
        if not (self.config.aux_loss and ag.grad_enabled()):
            per_layer = per_layer[-1:]
        stacked = ag.stack(per_layer)
        return self.mlp_queries(stacked[:, n:]), self.mlp_descriptors(stacked[:, :n])

    @staticmethod
    def compatibility(q_star: Tensor, d_star: Tensor) -> Tensor:
        return ag.matmul(q_star, ag.swapaxes(d_star, -1, -2))

    def order_heads(self, compat: Tensor, ids: np.ndarray) -> HeadOutput:
        """Task MLPs on every compatibility entry of (L', n, n) layers."""
        feats = compat.reshape(compat.shape + (1,))
        occ = depth = None
        if "occlusion" in self.config.tasks:
            if self.occ_mlp is None:
                raise ConfigError("occlusion head requested but not initialized")
            occ = self.occ_mlp(feats).reshape(compat.shape)
        if "depth" in self.config.tasks:
            if self.depth_mlp is None:
                raise ConfigError("depth head requested but not initialized")
            depth = self.depth_mlp(feats)
        return HeadOutput(occ, depth, ids)

    def run(self, q_n: Tensor, masks_n: np.ndarray, p: Tensor, ids: np.ndarray) -> HeadOutput:
        """One holistic pass over already-selected tokens."""
        self.forward_count += 1
        descriptors = descriptor_encoder(p, masks_n, self.encoder)
        return self.order_heads(self.compatibility(*self.interaction_decoder(q_n, descriptors)), ids)

    def forward(self, backbone_out, masks: np.ndarray, assignment: Assignment | None = None) -> HeadOutput:
        """Select tokens (assignment in training, confidence at inference) and run."""
        q_n, masks_n, ids = select_tokens(
            backbone_out.Q,
            masks,
            backbone_out.confidences,
            assignment=assignment,
            threshold=None if assignment is not None else self.config.conf_threshold,
        )
        return self.run(q_n, masks_n, backbone_out.P, ids)
