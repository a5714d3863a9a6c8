"""Training losses: stable BCE/CE with logits, dice, and the order loss.

The order loss is lam_o * BCE(occlusion logits) + lam_d * CE(depth logits),
averaged per off-diagonal pair and summed over the supervised decoder
layers. BCE and CE are single tape nodes with closed-form backwards.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .orders import DataError


def _weighted_mean(elem: np.ndarray, weights):
    """Weighted mean of ``elem`` and the weight each element carries in it.

    Weights broadcast against ``elem`` and default to all-ones.
    """
    if weights is None:
        norm = 1.0 / elem.size
        return elem.sum() * norm, np.float64(norm)
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), elem.shape)
    norm = 1.0 / float(w.sum())
    return (elem * w).sum() * norm, w * norm


def bce_with_logits(logits: Tensor, targets, weights=None) -> Tensor:
    """Weighted mean of the stable elementwise binary cross-entropy.

    elem = max(x, 0) - x*z + log(1 + exp(-|x|)); weights broadcast against
    the logits and default to all-ones. One tape node whose backward is
    (sigmoid(x) - z) times the normalized weights.
    """
    x = logits.data
    z = np.asarray(targets, dtype=np.float64)
    e = np.exp(-np.abs(x))
    loss, w = _weighted_mean(np.maximum(x, 0.0) - x * z + np.log(e + 1.0), weights)

    def backward(g):
        sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        logits._accumulate((sig - z) * (g * w))

    return ag._make(loss, (logits,), backward)


def ce_with_logits(logits: Tensor, targets, weights=None) -> Tensor:
    """Weighted mean cross-entropy over the last axis, log-sum-exp stabilized.

    Targets and weights broadcast against the logits' leading axes. One
    tape node whose backward is (softmax - onehot) times the normalized
    weights.
    """
    x = logits.data
    idx = np.broadcast_to(np.asarray(targets, dtype=np.int64), x.shape[:-1])[..., None]
    shift = x.max(axis=-1, keepdims=True)
    e = np.exp(x - shift)
    total = e.sum(axis=-1)
    elem = np.log(total) + shift[..., 0] - np.take_along_axis(x, idx, axis=-1)[..., 0]
    loss, w = _weighted_mean(elem, weights)

    def backward(g):
        grad = e / total[..., None]
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) - 1.0, axis=-1)
        logits._accumulate(grad * (g * w)[..., None])

    return ag._make(loss, (logits,), backward)


def dice_loss(mask_logits: Tensor, targets) -> Tensor:
    """1 - mean dice overlap between sigmoid masks and binary targets."""
    probs = ag.sigmoid(mask_logits)
    t = np.asarray(targets, dtype=np.float64)
    inter = ag.sum_(probs * t, axis=-1)
    denom = ag.sum_(probs, axis=-1) + t.sum(axis=-1) + 1e-6
    dice = inter * 2.0 / denom
    return 1.0 - ag.mean(dice)


def _targets(gt, allowed: tuple):
    """Validated off-diagonal targets and weights of a ground-truth matrix."""
    n = gt.entries.shape[0]
    diag = np.eye(n, dtype=bool)
    vals = gt.entries[~diag]
    if (vals == -1).any():
        raise DataError("ground-truth matrix carries -1 off the diagonal")
    if not np.isin(vals, allowed).all():
        raise DataError(f"ground-truth entries outside {allowed}")
    return np.where(diag, 0, gt.entries), (~diag).astype(np.float64)


def order_losses(head_out, gt_occ=None, gt_depth=None, lam_o: float = 5.0, lam_d: float = 5.0) -> Tensor:
    """Combined order loss over a HeadOutput, diagonals excluded.

    Every decoder layer on the logits' leading axis (the final one, and
    the intermediate ones under auxiliary supervision) is supervised
    identically and the per-layer losses are summed: one BCE and one CE
    node for all layers. The head emits the intermediate layers only while
    a tape records, so under ``no_grad`` this is the final layer's loss.
    Class indices for depth are 0 = not-front, 1 = front, 2 = overlap,
    i.e. the matrix entries themselves.
    """
    total = None
    if head_out.occ_logits is not None:
        if gt_occ is None:
            raise DataError("occlusion logits produced but no occlusion ground truth given")
        targets, w = _targets(gt_occ, (0, 1))
        layers = head_out.occ_logits.shape[0]
        total = bce_with_logits(head_out.occ_logits, targets, w) * (lam_o * layers)
    if head_out.depth_logits is not None:
        if gt_depth is None:
            raise DataError("depth logits produced but no depth ground truth given")
        targets, w = _targets(gt_depth, (0, 1, 2))
        layers = head_out.depth_logits.shape[0]
        d_term = ce_with_logits(head_out.depth_logits, targets, w) * (lam_d * layers)
        total = d_term if total is None else total + d_term
    if total is None:
        raise DataError("head output carries no task logits")
    return total
